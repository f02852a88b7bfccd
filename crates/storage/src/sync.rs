//! The workspace's one lock-poison policy.
//!
//! Every lock is a plain `std::sync` `Mutex`, `RwLock` or `Condvar`,
//! and every acquisition, wait and `into_inner` passes its
//! [`LockResult`] through [`unpoison`]. A poisoned lock is recovered,
//! not propagated: a query that panics is isolated by `catch_unwind`,
//! and the lock it held while panicking must not wedge the next query.
//! The next holder sees whatever the panicking one left, so a critical
//! section must leave its data valid at every step.

use std::sync::{LockResult, PoisonError};

/// The guard (or value) in `r`, whether or not its lock is poisoned.
pub fn unpoison<G>(r: LockResult<G>) -> G {
    r.unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::unpoison;
    use std::sync::{Mutex, RwLock};

    #[test]
    fn poisoned_locks_still_hand_back_their_data() {
        let (m, l) = (Mutex::new(vec![1]), RwLock::new(7));
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let mut g = unpoison(m.lock());
                let mut w = unpoison(l.write());
                g.push(2);
                *w += 1;
                panic!("panic while holding both guards");
            })
            .join()
        });
        assert!(panicked.is_err());
        assert!(m.is_poisoned() && l.is_poisoned());
        assert_eq!(*unpoison(m.lock()), vec![1, 2]);
        assert_eq!(*unpoison(l.read()), 8);
        *unpoison(l.write()) += 1;
        assert_eq!(unpoison(l.into_inner()), 9);
        assert_eq!(unpoison(m.into_inner()), vec![1, 2]);
    }
}
