//! Robustness of the SQL front end: the lexer/parser must never panic,
//! whatever bytes arrive; well-formed inputs must parse deterministically.

use sommelier_sql::parser::parse;
use sommelier_sql::token::tokenize;
use sommelier_storage::rng::{check, Rng};

/// The words the parser reads as keywords.
const KEYWORDS: [&str; 14] = [
    "select", "from", "where", "group", "order", "limit", "and", "or", "not", "by", "as",
    "distinct", "asc", "desc",
];

/// Up to `max_len` characters, each drawn from `alphabet`.
fn text(rng: &mut Rng, max_len: i64, alphabet: &[char]) -> String {
    (0..rng.range(0..=max_len)).map(|_| rng.pick(alphabet)).collect()
}

/// A lower-case letter, then up to `max_tail` letters, digits or `_`:
/// never one of [`KEYWORDS`].
fn identifier(rng: &mut Rng, max_tail: i64) -> String {
    let tail: Vec<char> = ('a'..='z').chain('0'..='9').chain(['_']).collect();
    loop {
        let id = format!("{}{}", rng.pick(&tail[..26]), text(rng, max_tail, &tail));
        if !KEYWORDS.contains(&id.as_str()) {
            return id;
        }
    }
}

/// Arbitrary ASCII never panics the lexer or parser (errors only).
#[test]
fn no_panics_on_arbitrary_ascii() {
    let ascii: Vec<char> = (' '..='~').collect();
    check("no_panics_on_arbitrary_ascii", |rng| {
        let input = text(rng, 120, &ascii);
        let _ = tokenize(&input);
        let _ = parse(&input);
    });
}

/// Arbitrary UTF-8 never panics either.
#[test]
fn no_panics_on_arbitrary_utf8() {
    let chars: Vec<char> = (' '..='~').chain('à'..='é').chain('α'..='ω').collect();
    check("no_panics_on_arbitrary_utf8", |rng| {
        let input = text(rng, 80, &chars);
        let _ = tokenize(&input);
        let _ = parse(&input);
    });
}

/// Structurally valid SELECTs parse, with the expected piece counts.
#[test]
fn generated_selects_parse() {
    check("generated_selects_parse", |rng| {
        let cols: Vec<String> = (0..rng.range(1..5)).map(|_| identifier(rng, 6)).collect();
        let table = identifier(rng, 8);
        let lit = rng.range(i32::MIN as i64..=i32::MAX as i64);
        let limit = (!rng.one_in(4)).then(|| rng.below(1000));
        let mut sql = format!("SELECT {} FROM {}", cols.join(", "), table);
        sql.push_str(&format!(" WHERE {} > {}", cols[0], lit));
        if let Some(n) = limit {
            sql.push_str(&format!(" LIMIT {n}"));
        }
        let stmt = parse(&sql).unwrap_or_else(|e| panic!("{sql:?}: {e}"));
        assert_eq!(stmt.items.len(), cols.len());
        assert_eq!(stmt.from, table);
        assert!(stmt.where_clause.is_some());
        assert_eq!(stmt.limit, limit);
    });
}

/// Numeric literals round-trip through the expression AST (negative
/// literals are a unary minus, so the draws are non-negative).
#[test]
fn numeric_literals() {
    check("numeric_literals", |rng| {
        let v = rng.range(0..=i64::MAX);
        let stmt = parse(&format!("SELECT x FROM t WHERE x = {v}")).unwrap();
        let rendered = format!("{:?}", stmt.where_clause.unwrap());
        assert!(rendered.contains(&v.to_string()));
    });
}

/// String literals with embedded quotes survive the lexer.
#[test]
fn string_literals() {
    let chars: Vec<char> =
        ('a'..='z').chain('A'..='Z').chain('0'..='9').chain([' ']).collect();
    check("string_literals", |rng| {
        let s = text(rng, 20, &chars);
        let escaped = s.replace('\'', "''");
        let stmt = parse(&format!("SELECT x FROM t WHERE x = '{escaped}'")).unwrap();
        let rendered = format!("{:?}", stmt.where_clause.unwrap());
        assert!(rendered.contains(&s));
    });
}
