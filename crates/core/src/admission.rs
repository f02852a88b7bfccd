//! Admission control for the multi-tenant query front end.
//!
//! A [`AdmissionController`] bounds how many queries execute
//! concurrently; the rest wait in a queue (priority-ordered, FIFO
//! within a priority) or, past its limit, are rejected. Chunk memory is
//! not its concern: the cellar budget alone bounds that.
//!
//! Tickets are RAII: dropping the [`AdmissionTicket`] releases the
//! slot and wakes the queue.
//!
//! The controller counts the `admission.*` family into the system's
//! registry as each decision is made; the `admission.running` and
//! `admission.queue_depth` gauges are set under the state lock, so
//! they always equal the state they report.

use sommelier_engine::sched::{CancelToken, Priority};
use sommelier_engine::{Metric, MetricsRegistry};
use sommelier_storage::sync::unpoison;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
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

/// Bounds concurrent query execution; see the module docs.
pub struct AdmissionController {
    state: Mutex<State>,
    cv: Condvar,
    max_concurrent: usize,
    queue_limit: usize,
    shutting_down: AtomicBool,
    metrics: Arc<MetricsRegistry>,
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
        let mut st = unpoison(self.ctl.state.lock());
        st.running = st.running.saturating_sub(1);
        self.ctl.publish(&st);
        drop(st);
        self.ctl.cv.notify_all();
    }
}

impl AdmissionController {
    /// A controller admitting up to `max_concurrent` queries at once
    /// and queueing at most `queue_limit` more, counting into
    /// `metrics`.
    pub fn new(
        max_concurrent: usize,
        queue_limit: usize,
        metrics: Arc<MetricsRegistry>,
    ) -> Self {
        AdmissionController {
            state: Mutex::new(State { running: 0, queued: Vec::new(), next_seq: 0 }),
            cv: Condvar::new(),
            max_concurrent: max_concurrent.max(1),
            queue_limit: queue_limit.max(1),
            shutting_down: AtomicBool::new(false),
            metrics,
        }
    }

    /// Set the `running` and `queue_depth` gauges; the caller holds the
    /// state lock.
    fn publish(&self, st: &State) {
        self.metrics.set(Metric::AdmissionRunning, st.running as u64);
        self.metrics.set(Metric::AdmissionQueueDepth, st.queued.len() as u64);
    }

    /// Take waiter `seq`, queued since `started`, out of the queue and
    /// count its wait and its `outcome`; the caller holds the lock.
    fn leave_queue(&self, st: &mut State, seq: u64, started: Instant, outcome: Metric) {
        st.queued.retain(|&(_, s)| s != seq);
        self.publish(st);
        self.metrics.add(Metric::AdmissionQueueWaitNs, started.elapsed().as_nanos() as u64);
        self.metrics.add(outcome, 1);
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
        let m = &self.metrics;
        if self.is_shutting_down() {
            m.add(Metric::AdmissionRejected, 1);
            return Err(AdmissionError::ShuttingDown);
        }
        let mut st = unpoison(self.state.lock());
        // Fast path: nobody queued ahead of us and a slot is free.
        if st.queued.is_empty() && st.running < self.max_concurrent {
            st.running += 1;
            self.publish(&st);
            m.add(Metric::AdmissionAdmitted, 1);
            return Ok(AdmissionTicket { ctl: self });
        }
        if st.queued.len() >= self.queue_limit {
            m.add(Metric::AdmissionRejected, 1);
            return Err(AdmissionError::QueueFull { limit: self.queue_limit });
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        st.queued.push((priority, seq));
        self.publish(&st);
        let started = Instant::now();
        loop {
            // Shutdown while queued: leave the queue with a typed error
            // so drains are not blocked on waiters that can never start.
            if self.is_shutting_down() {
                self.leave_queue(&mut st, seq, started, Metric::AdmissionRejected);
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
                st.running += 1;
                self.leave_queue(&mut st, seq, started, Metric::AdmissionAdmitted);
                drop(st);
                // Others may be admissible too.
                self.cv.notify_all();
                return Ok(AdmissionTicket { ctl: self });
            }
            if let Some(timed_out) = cancel.and_then(CancelToken::cancelled) {
                let outcome = if timed_out {
                    Metric::AdmissionTimeouts
                } else {
                    Metric::AdmissionCancelled
                };
                self.leave_queue(&mut st, seq, started, outcome);
                drop(st);
                self.cv.notify_all();
                return Err(AdmissionError::Cancelled { timed_out });
            }
            // Short timeout so cancellation is observed promptly.
            st = unpoison(self.cv.wait_timeout(st, Duration::from_millis(5))).0;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn fast_path_admits_and_releases() {
        let ctl = AdmissionController::new(2, 8, Default::default());
        let t1 = ctl.acquire(Priority::Normal, None).unwrap();
        let t2 = ctl.acquire(Priority::Normal, None).unwrap();
        assert_eq!(ctl.metrics.get(Metric::AdmissionRunning), 2);
        drop(t1);
        drop(t2);
        assert_eq!(ctl.metrics.get(Metric::AdmissionRunning), 0);
        assert_eq!(ctl.metrics.get(Metric::AdmissionAdmitted), 2);
    }

    #[test]
    fn queue_full_rejects() {
        let ctl = Arc::new(AdmissionController::new(1, 1, Default::default()));
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
        while ctl.metrics.get(Metric::AdmissionQueueDepth) == 0 {
            std::thread::yield_now();
        }
        let err = ctl.acquire(Priority::Normal, None).unwrap_err();
        assert_eq!(err, AdmissionError::QueueFull { limit: 1 });
        drop(held);
        bg.join().unwrap();
    }

    #[test]
    fn cancel_while_queued() {
        let ctl = Arc::new(AdmissionController::new(1, 8, Default::default()));
        let _held = ctl.acquire(Priority::Normal, None).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let err = ctl.acquire(Priority::Normal, Some(&token)).unwrap_err();
        assert_eq!(err, AdmissionError::Cancelled { timed_out: false });
        assert_eq!(ctl.metrics.get(Metric::AdmissionCancelled), 1);
    }

    #[test]
    fn timeout_while_queued() {
        let ctl = Arc::new(AdmissionController::new(1, 8, Default::default()));
        let _held = ctl.acquire(Priority::Normal, None).unwrap();
        let token = CancelToken::with_timeout(Duration::from_millis(10));
        let err = ctl.acquire(Priority::Normal, Some(&token)).unwrap_err();
        assert_eq!(err, AdmissionError::Cancelled { timed_out: true });
        assert_eq!(ctl.metrics.get(Metric::AdmissionTimeouts), 1);
    }

    #[test]
    fn priority_orders_the_queue() {
        let ctl = Arc::new(AdmissionController::new(1, 8, Default::default()));
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
            while queued.load(Ordering::SeqCst) == 0
                || ctl.metrics.get(Metric::AdmissionQueueDepth) < 1
            {
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
        let ctl = Arc::new(AdmissionController::new(1, 8, Default::default()));
        let held = ctl.acquire(Priority::Normal, None).unwrap();
        // Park a waiter in the queue.
        let bg = {
            let ctl = Arc::clone(&ctl);
            std::thread::spawn(move || ctl.acquire(Priority::Normal, None).map(|_| ()))
        };
        while ctl.metrics.get(Metric::AdmissionQueueDepth) == 0 {
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
        assert_eq!(ctl.metrics.get(Metric::AdmissionRunning), 0);
        assert_eq!(ctl.metrics.get(Metric::AdmissionQueueDepth), 0);
    }
}
