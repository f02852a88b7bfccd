//! The [`crate::cellar::Cellar`]'s eviction order: least recently used,
//! like the Recycler the paper inherits from MonetDB.
//!
//! The order only ranks victims; the cellar owns the residency state,
//! filters out pinned chunks, and performs the actual eviction. A
//! decode-cost-aware order (evict what is cheapest to re-decode per
//! byte freed) was measured against it on the evicting workloads and
//! lost: it scans every resident chunk per victim, where LRU walks an
//! ordered map from its oldest end.

use std::collections::{BTreeMap, HashMap};

/// Least-recently-used ranking of resident chunks.
///
/// The cellar calls [`Self::touch`] when a chunk is admitted or used
/// again, [`Self::remove`] when it leaves residency, and
/// [`Self::victim`] when over budget. `victim` only returns chunks for
/// which `evictable` holds (pins are the cellar's concern, encoded in
/// that predicate) and leaves its own bookkeeping alone — the cellar
/// follows up with `remove` once the eviction really happens.
#[derive(Default)]
pub struct LruPolicy {
    tick: u64,
    last_use: HashMap<String, u64>,
    order: BTreeMap<u64, String>,
}

impl LruPolicy {
    /// A chunk became resident or was used again: it is now the most
    /// recently used.
    pub fn touch(&mut self, uri: &str) {
        self.tick += 1;
        if let Some(old) = self.last_use.insert(uri.to_string(), self.tick) {
            self.order.remove(&old);
        }
        self.order.insert(self.tick, uri.to_string());
    }

    /// A chunk left residency.
    pub fn remove(&mut self, uri: &str) {
        if let Some(t) = self.last_use.remove(uri) {
            self.order.remove(&t);
        }
    }

    /// The least recently used chunk satisfying `evictable`, or `None`
    /// if nothing qualifies.
    pub fn victim(&self, evictable: impl Fn(&str) -> bool) -> Option<String> {
        self.order.values().find(|u| evictable(u)).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_oldest_unpinned() {
        let mut p = LruPolicy::default();
        p.touch("a");
        p.touch("b");
        p.touch("c");
        p.touch("a");
        assert_eq!(p.victim(|_| true).as_deref(), Some("b"));
        // "b" pinned: next-oldest wins.
        assert_eq!(p.victim(|u| u != "b").as_deref(), Some("c"));
        p.remove("b");
        p.remove("c");
        assert_eq!(p.victim(|_| true).as_deref(), Some("a"));
        p.remove("a");
        assert_eq!(p.victim(|_| true), None);
    }
}
