//! Admission control for the multi-tenant query front end.
//!
//! A [`AdmissionController`] bounds how many queries execute
//! concurrently; the rest wait in a queue (priority-ordered, FIFO
//! within a priority) or, past its limit, are rejected. Chunk memory is
//! not its concern: the cellar budget alone bounds that.
//!
//! Tickets are RAII: dropping the [`AdmissionTicket`] releases the
//! slot and wakes the queue.

use sommelier_engine::sched::{CancelToken, Priority};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Why a query was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The wait queue is at its configured limit.
    QueueFull { limit: usize },
    /// The query's [`CancelToken`] fired while it was queued.
    Cancelled { timed_out: bool },
    /// The controller is draining for shutdown and admits nothing new.
    ShuttingDown,
}

struct State {
    running: usize,
    /// Queued waiters: `(priority, seq)`. The head is the entry with
    /// the highest priority, lowest sequence number (FIFO within a
    /// priority).
    queued: Vec<(Priority, u64)>,
    next_seq: u64,
}

/// Counter snapshot of an [`AdmissionController`], mirrored into
/// `metrics_snapshot()` under `admission.*` names.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdmissionStats {
    /// Queries admitted (fast path or after queueing).
    pub admitted: u64,
    /// Queries rejected because the queue was full.
    pub rejected: u64,
    /// Queries cancelled while queued.
    pub cancelled: u64,
    /// Queries timed out while queued.
    pub timeouts: u64,
    /// Total nanoseconds spent waiting in the admission queue.
    pub queue_wait_ns: u64,
    /// Currently running (ticketed) queries.
    pub running: u64,
    /// Currently queued waiters.
    pub queue_depth: u64,
}

/// Bounds concurrent query execution; see the module docs.
pub struct AdmissionController {
    state: Mutex<State>,
    cv: Condvar,
    max_concurrent: usize,
    queue_limit: usize,
    shutting_down: AtomicBool,
    admitted: AtomicU64,
    rejected: AtomicU64,
    cancelled: AtomicU64,
    timeouts: AtomicU64,
    queue_wait_ns: AtomicU64,
}

/// RAII admission slot; dropping it releases the slot and wakes the
/// next queued waiter.
pub struct AdmissionTicket<'a> {
    ctl: &'a AdmissionController,
}

impl std::fmt::Debug for AdmissionTicket<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionTicket").finish()
    }
}

impl Drop for AdmissionTicket<'_> {
    fn drop(&mut self) {
        let mut st = self.ctl.lock();
        st.running = st.running.saturating_sub(1);
        drop(st);
        self.ctl.cv.notify_all();
    }
}

impl AdmissionController {
    /// A controller admitting up to `max_concurrent` queries at once
    /// and queueing at most `queue_limit` more.
    pub fn new(max_concurrent: usize, queue_limit: usize) -> Self {
        AdmissionController {
            state: Mutex::new(State { running: 0, queued: Vec::new(), next_seq: 0 }),
            cv: Condvar::new(),
            max_concurrent: max_concurrent.max(1),
            queue_limit: queue_limit.max(1),
            shutting_down: AtomicBool::new(false),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            queue_wait_ns: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Wait for an admission slot. Returns once admitted, or with a
    /// typed error if the queue is full or `cancel` fires while
    /// queued. Waiters are served highest-priority first, FIFO within
    /// a priority.
    pub fn acquire(
        &self,
        priority: Priority,
        cancel: Option<&CancelToken>,
    ) -> std::result::Result<AdmissionTicket<'_>, AdmissionError> {
        if self.is_shutting_down() {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(AdmissionError::ShuttingDown);
        }
        let mut st = self.lock();
        // Fast path: nobody queued ahead of us and a slot is free.
        if st.queued.is_empty() && st.running < self.max_concurrent {
            st.running += 1;
            self.admitted.fetch_add(1, Ordering::Relaxed);
            return Ok(AdmissionTicket { ctl: self });
        }
        if st.queued.len() >= self.queue_limit {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(AdmissionError::QueueFull { limit: self.queue_limit });
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        st.queued.push((priority, seq));
        let started = Instant::now();
        loop {
            // Shutdown while queued: leave the queue with a typed error
            // so drains are not blocked on waiters that can never start.
            if self.is_shutting_down() {
                st.queued.retain(|&(_, s)| s != seq);
                self.rejected.fetch_add(1, Ordering::Relaxed);
                self.queue_wait_ns
                    .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
                drop(st);
                self.cv.notify_all();
                return Err(AdmissionError::ShuttingDown);
            }
            let at_head = st
                .queued
                .iter()
                .max_by_key(|&&(p, s)| (p, std::cmp::Reverse(s)))
                .map(|&(_, s)| s)
                == Some(seq);
            if at_head && st.running < self.max_concurrent {
                st.queued.retain(|&(_, s)| s != seq);
                st.running += 1;
                self.admitted.fetch_add(1, Ordering::Relaxed);
                self.queue_wait_ns
                    .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
                drop(st);
                // Others may be admissible too.
                self.cv.notify_all();
                return Ok(AdmissionTicket { ctl: self });
            }
            if let Some(timed_out) = cancel.and_then(CancelToken::cancelled) {
                st.queued.retain(|&(_, s)| s != seq);
                let ctr = if timed_out { &self.timeouts } else { &self.cancelled };
                ctr.fetch_add(1, Ordering::Relaxed);
                self.queue_wait_ns
                    .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
                drop(st);
                self.cv.notify_all();
                return Err(AdmissionError::Cancelled { timed_out });
            }
            // Short timeout so cancellation is observed promptly.
            let (g, _) = self
                .cv
                .wait_timeout(st, Duration::from_millis(5))
                .unwrap_or_else(|p| p.into_inner());
            st = g;
        }
    }

    /// Flip the controller into drain mode: every `acquire` call —
    /// including waiters already queued — fails with
    /// [`AdmissionError::ShuttingDown`] from now on. Already-admitted
    /// tickets are unaffected; they drain normally. Irreversible.
    pub fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::Release);
        self.cv.notify_all();
    }

    /// True once [`AdmissionController::begin_shutdown`] has been called.
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::Acquire)
    }

    /// Counter snapshot for metrics export.
    pub fn stats(&self) -> AdmissionStats {
        let st = self.lock();
        AdmissionStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            queue_wait_ns: self.queue_wait_ns.load(Ordering::Relaxed),
            running: st.running as u64,
            queue_depth: st.queued.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn fast_path_admits_and_releases() {
        let ctl = AdmissionController::new(2, 8);
        let t1 = ctl.acquire(Priority::Normal, None).unwrap();
        let t2 = ctl.acquire(Priority::Normal, None).unwrap();
        assert_eq!(ctl.stats().running, 2);
        drop(t1);
        drop(t2);
        let st = ctl.stats();
        assert_eq!(st.running, 0);
        assert_eq!(st.admitted, 2);
    }

    #[test]
    fn queue_full_rejects() {
        let ctl = Arc::new(AdmissionController::new(1, 1));
        let held = ctl.acquire(Priority::Normal, None).unwrap();
        // Fill the queue from another thread (it will block), then a
        // second waiter must be rejected.
        let bg = {
            let ctl = Arc::clone(&ctl);
            std::thread::spawn(move || {
                let _t = ctl.acquire(Priority::Normal, None);
            })
        };
        // Wait for the spawned waiter to enqueue itself.
        while ctl.stats().queue_depth == 0 {
            std::thread::yield_now();
        }
        let err = ctl.acquire(Priority::Normal, None).unwrap_err();
        assert_eq!(err, AdmissionError::QueueFull { limit: 1 });
        drop(held);
        bg.join().unwrap();
    }

    #[test]
    fn cancel_while_queued() {
        let ctl = AdmissionController::new(1, 8);
        let _held = ctl.acquire(Priority::Normal, None).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let err = ctl.acquire(Priority::Normal, Some(&token)).unwrap_err();
        assert_eq!(err, AdmissionError::Cancelled { timed_out: false });
        assert_eq!(ctl.stats().cancelled, 1);
    }

    #[test]
    fn timeout_while_queued() {
        let ctl = AdmissionController::new(1, 8);
        let _held = ctl.acquire(Priority::Normal, None).unwrap();
        let token = CancelToken::with_timeout(Duration::from_millis(10));
        let err = ctl.acquire(Priority::Normal, Some(&token)).unwrap_err();
        assert_eq!(err, AdmissionError::Cancelled { timed_out: true });
        assert_eq!(ctl.stats().timeouts, 1);
    }

    #[test]
    fn priority_orders_the_queue() {
        let ctl = Arc::new(AdmissionController::new(1, 8));
        let held = ctl.acquire(Priority::Normal, None).unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        let queued = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        // Low first, then High: High must be admitted first anyway.
        for (tag, pri) in [("low", Priority::Low), ("high", Priority::High)] {
            let c = Arc::clone(&ctl);
            let o = Arc::clone(&order);
            let q = Arc::clone(&queued);
            handles.push(std::thread::spawn(move || {
                q.fetch_add(1, Ordering::SeqCst);
                let t = c.acquire(pri, None).unwrap();
                o.lock().unwrap().push(tag);
                // Hold briefly so the other waiter observes ordering.
                std::thread::sleep(Duration::from_millis(5));
                drop(t);
            }));
            // Ensure deterministic enqueue order (low enqueues first).
            while queued.load(Ordering::SeqCst) == 0 || ctl.stats().queue_depth < 1 {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        drop(held);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec!["high", "low"]);
    }

    #[test]
    fn shutdown_rejects_new_and_queued_waiters() {
        let ctl = Arc::new(AdmissionController::new(1, 8));
        let held = ctl.acquire(Priority::Normal, None).unwrap();
        // Park a waiter in the queue.
        let bg = {
            let ctl = Arc::clone(&ctl);
            std::thread::spawn(move || ctl.acquire(Priority::Normal, None).map(|_| ()))
        };
        while ctl.stats().queue_depth == 0 {
            std::thread::yield_now();
        }
        ctl.begin_shutdown();
        // The queued waiter is woken with the typed error.
        assert_eq!(bg.join().unwrap().unwrap_err(), AdmissionError::ShuttingDown);
        // New arrivals fail fast.
        let err = ctl.acquire(Priority::High, None).unwrap_err();
        assert_eq!(err, AdmissionError::ShuttingDown);
        // The already-admitted ticket still drains normally.
        drop(held);
        assert_eq!(ctl.stats().running, 0);
        assert_eq!(ctl.stats().queue_depth, 0);
    }
}
