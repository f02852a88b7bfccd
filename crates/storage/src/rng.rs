//! The workspace's one seeded generator, and the case runner the
//! property tests draw from it.
//!
//! [`Rng`] is xoshiro256** seeded through splitmix64. The dataset
//! generators draw every sample, gap and event from it, so its stream
//! is part of each generated repository's bytes: the golden values in
//! this module's tests pin it.
//!
//! [`check`] runs one property over [`CASES`] seeded draws. The seed
//! comes from the property's name, so a failure names a case that
//! reproduces on every run.

use std::ops::{Bound, Range, RangeBounds};

/// A small, fast, deterministic generator (xoshiro256**).
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// The generator whose state splitmix64 derives from `seed`.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Rng { s: [next(), next(), next(), next()] }
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Uniform in `[0, 1)`: 53 random mantissa bits.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `range.start + f64() · (range.end − range.start)`.
    pub fn f64_range(&mut self, range: Range<f64>) -> f64 {
        range.start + self.f64() * (range.end - range.start)
    }

    /// Uniform in `range`, half-open (`lo..hi`) or inclusive
    /// (`lo..=hi`): `lo + next_u64() % span`, with the span counted in
    /// `u128` so that `i64::MIN..=i64::MAX` does not overflow.
    pub fn range(&mut self, range: impl RangeBounds<i64>) -> i64 {
        let Bound::Included(&lo) = range.start_bound() else {
            panic!("a range to draw from starts at an included bound")
        };
        let span = match range.end_bound() {
            Bound::Excluded(&hi) if lo < hi => hi.abs_diff(lo) as u128,
            Bound::Included(&hi) if lo <= hi => hi.abs_diff(lo) as u128 + 1,
            _ => panic!("empty or unbounded range"),
        };
        lo.wrapping_add((self.next_u64() as u128 % span) as i64)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        self.range(0..n as i64) as usize
    }

    /// True with probability `1/n`.
    pub fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    /// One of `items`, uniformly.
    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

/// The cases every property runs.
pub const CASES: usize = 64;

/// Run `case` [`CASES`] times, each on the next draws of one stream
/// seeded by the FNV-1a hash of `property`. A failing case panics with
/// the property's name and the case's index.
pub fn check(property: &str, mut case: impl FnMut(&mut Rng)) {
    let seed = property
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3));
    let mut rng = Rng::new(seed);
    for i in 0..CASES {
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| case(&mut rng)));
        if let Err(payload) = run {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic");
            panic!("property {property} failed at case {i} of {CASES}: {msg}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let (mut a, mut b) = (Rng::new(42), Rng::new(42));
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(Rng::new(42).next_u64(), Rng::new(43).next_u64());
    }

    /// The stream every generated repository is made of, recorded from
    /// the generator the fixtures were first built with: changing any
    /// of these values changes every benchmark fixture's bytes.
    #[test]
    fn golden_stream() {
        let first = |seed| {
            let mut r = Rng::new(seed);
            [r.next_u64(), r.next_u64(), r.next_u64()]
        };
        assert_eq!(
            first(0),
            [11091344671253066420, 13793997310169335082, 1900383378846508768]
        );
        assert_eq!(
            first(42),
            [1546998764402558742, 6990951692964543102, 12544586762248559009]
        );
        assert_eq!(Rng::new(7).f64().to_bits(), 0x3fe6_6b1f_5ee9_df2e);
        let mut r = Rng::new(9);
        assert_eq!(r.range(-5..17), 13);
        assert_eq!(r.range(i64::MIN..=i64::MAX), -4584211946641622023);
        assert_eq!(r.f64_range(1.5..2.5), 1.6324622501128956);
    }

    #[test]
    fn unit_float_in_range() {
        let mut r = Rng::new(7);
        for _ in 0..1000 {
            assert!((0.0..1.0).contains(&r.f64()));
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = Rng::new(9);
        for _ in 0..1000 {
            assert!((-5..17).contains(&r.range(-5..17)));
            assert!((3..=9).contains(&r.range(3..=9)));
            assert!((1.5..2.5).contains(&r.f64_range(1.5..2.5)));
            assert_eq!(r.below(1), 0);
        }
    }

    #[test]
    fn full_span_inclusive_range_does_not_overflow() {
        let mut r = Rng::new(11);
        let _ = r.range(i64::MIN..=i64::MAX);
        let _ = r.range(i64::MAX..=i64::MAX);
    }

    #[test]
    fn deterministic_per_name() {
        let draws = |name| {
            let mut seen = Vec::new();
            check(name, |rng| seen.push(rng.next_u64()));
            seen
        };
        assert_eq!(draws("x"), draws("x"));
        assert_eq!(draws("x").len(), CASES);
        assert_ne!(draws("x"), draws("y"));
    }

    #[test]
    #[should_panic(expected = "property always_fails failed at case 3 of 64: boom")]
    fn failing_property_panics() {
        let mut i = 0;
        check("always_fails", |_| {
            assert!(i < 3, "boom");
            i += 1;
        });
    }
}
