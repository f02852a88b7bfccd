//! Fault tolerance for the chunk IO path: deterministic fault
//! injection, and retry with bounded exponential backoff.
//!
//! The paper's premise is querying raw files the DBMS does not own and
//! cannot trust — cold storage returns transient IO errors, archives
//! hold truncated or bit-rotted records. [`FaultInjector`] makes every
//! one of those failure modes reproducible (seeded, deterministic per
//! `(seed, uri, attempt)`), and it is also the one way to make a chunk
//! load slow: a latency spike at rate 1.0 slows every load, and a
//! [`FaultInjector::hold`] parks loads until a test releases them.
//! [`with_retries`] is the recovery half, applied by the cellar around
//! every chunk decode.

use sommelier_engine::{
    CancelToken, EngineError, ErrorKind, Metric, Obs, StageTimer, TraceCollector,
};
use sommelier_storage::sync::unpoison;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// FaultPlan

/// A deterministic fault-injection plan (see
/// [`crate::SommelierConfig::fault_plan`]; default off — `None`).
/// Configured once, applied at the one chunk read seam
/// (`AdapterChunkSource`'s fetch), on the decode worker and on the
/// prefetch IO thread alike.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-attempt fault decision. Same seed + same
    /// access sequence → same faults.
    pub seed: u64,
    /// Probability in `[0, 1]` that one load attempt fails with a
    /// *transient* IO error (retryable).
    pub transient_rate: f64,
    /// Upper bound on transient faults injected per chunk, so retries
    /// always converge: keep it below the retry budget's
    /// `max_attempts` and every query succeeds.
    pub max_transient_per_chunk: u32,
    /// Chunks whose payload is permanently corrupt: every load attempt
    /// fails with a permanent error.
    pub corrupt_uris: Vec<String>,
    /// Chunks whose reads are truncated — also permanent (a short read
    /// will be short again next time).
    pub truncated_uris: Vec<String>,
    /// Probability in `[0, 1]` of a latency spike on a load attempt
    /// (the attempt still succeeds — slow, not broken).
    pub spike_rate: f64,
    /// Duration of one injected latency spike.
    pub spike: Duration,
    /// Chunks whose decode *panics* (the chaos-harness hook for
    /// exercising panic isolation): every load attempt of these URIs
    /// unwinds instead of returning an error. The panic is caught at
    /// the [`with_retries`] seam and converted to a typed
    /// [`EngineError::Panicked`], failing only the owning query.
    pub panic_uris: Vec<String>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0x5eed_f00d,
            transient_rate: 0.0,
            max_transient_per_chunk: 2,
            corrupt_uris: Vec::new(),
            truncated_uris: Vec::new(),
            spike_rate: 0.0,
            spike: Duration::from_millis(1),
            panic_uris: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// A plan that injects transient IO errors at `rate`, nothing else.
    pub fn transient(rate: f64) -> Self {
        FaultPlan { transient_rate: rate, ..FaultPlan::default() }
    }
}

// ---------------------------------------------------------------------
// FaultInjector

/// Injected-fault counters, by failure mode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Transient IO errors injected.
    pub transient: u64,
    /// Corrupt-payload errors injected.
    pub corrupt: u64,
    /// Truncated-read errors injected.
    pub truncated: u64,
    /// Latency spikes injected.
    pub spikes: u64,
    /// Decode panics injected.
    pub panics: u64,
}

impl FaultCounts {
    /// Every injected *error* (spikes slow an attempt down but do not
    /// fail it).
    pub fn errors(&self) -> u64 {
        self.transient + self.corrupt + self.truncated
    }
}

/// Deterministic, seeded fault injector sitting in front of chunk
/// reads. One instance per [`crate::Sommelier`] (held by its adapter
/// chunk sources), so counters line up with the instance's metrics.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Per-chunk attempt counter and transient faults injected so far.
    state: Mutex<HashMap<String, (u64, u32)>>,
    transient: AtomicU64,
    corrupt: AtomicU64,
    truncated: AtomicU64,
    spikes: AtomicU64,
    panics: AtomicU64,
    /// `(closed, parked)`: is a [`LoadHold`] in force, and how many
    /// load attempts are parked on it.
    gate: std::sync::Mutex<(bool, usize)>,
    gate_cv: Condvar,
}

impl FaultInjector {
    /// An injector executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            state: Mutex::new(HashMap::new()),
            transient: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            truncated: AtomicU64::new(0),
            spikes: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            gate: std::sync::Mutex::new((false, 0)),
            gate_cv: Condvar::new(),
        }
    }

    /// Close the load gate: until the returned [`LoadHold`] is released
    /// or dropped, every [`Self::before_load`] parks, on the decode
    /// worker and on the prefetch IO thread alike. Tests use it to land
    /// a cancel, timeout, shutdown or drop while a load is in flight,
    /// without sleeping. A parked load ignores cancellation, so release
    /// the hold once the event under test has fired. One hold at a
    /// time.
    pub fn hold(self: &Arc<Self>) -> LoadHold {
        unpoison(self.gate.lock()).0 = true;
        LoadHold(Arc::clone(self))
    }

    /// Gate one load attempt of `uri`: park while a [`LoadHold`] is in
    /// force, sleep through an injected latency spike, then fail the
    /// attempt if the plan says so. Deterministic in `(seed, uri,
    /// attempt number)`.
    pub fn before_load(&self, uri: &str) -> Result<(), EngineError> {
        let mut gate = unpoison(self.gate.lock());
        if gate.0 {
            gate.1 += 1;
            self.gate_cv.notify_all();
            while gate.0 {
                gate = unpoison(self.gate_cv.wait(gate));
            }
            gate.1 -= 1;
        }
        drop(gate);
        let (attempt, transient_so_far) = {
            let mut state = unpoison(self.state.lock());
            let e = state.entry(uri.to_string()).or_insert((0, 0));
            let snapshot = *e;
            e.0 += 1;
            snapshot
        };
        if self.plan.spike_rate > 0.0
            && unit_hash(self.plan.seed ^ 0x51ce, uri, attempt) < self.plan.spike_rate
        {
            self.spikes.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(self.plan.spike);
        }
        if self.plan.panic_uris.iter().any(|u| u == uri) {
            self.panics.fetch_add(1, Ordering::Relaxed);
            panic!("injected panic decoding chunk {uri:?} (attempt {attempt})");
        }
        if self.plan.corrupt_uris.iter().any(|u| u == uri) {
            self.corrupt.fetch_add(1, Ordering::Relaxed);
            return Err(EngineError::ChunkLoad {
                uri: uri.to_string(),
                kind: ErrorKind::Permanent,
                message: "injected corrupt payload (bad magic)".into(),
            });
        }
        if self.plan.truncated_uris.iter().any(|u| u == uri) {
            self.truncated.fetch_add(1, Ordering::Relaxed);
            return Err(EngineError::ChunkLoad {
                uri: uri.to_string(),
                kind: ErrorKind::Permanent,
                message: "injected truncated read (unexpected eof)".into(),
            });
        }
        if self.plan.transient_rate > 0.0
            && transient_so_far < self.plan.max_transient_per_chunk
            && unit_hash(self.plan.seed, uri, attempt) < self.plan.transient_rate
        {
            unpoison(self.state.lock()).entry(uri.to_string()).or_insert((0, 0)).1 += 1;
            self.transient.fetch_add(1, Ordering::Relaxed);
            return Err(EngineError::ChunkLoad {
                uri: uri.to_string(),
                kind: ErrorKind::Transient,
                message: format!("injected transient i/o error (attempt {attempt})"),
            });
        }
        Ok(())
    }

    /// How many faults this injector has fired, by mode.
    pub fn injected(&self) -> FaultCounts {
        FaultCounts {
            transient: self.transient.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            truncated: self.truncated.load(Ordering::Relaxed),
            spikes: self.spikes.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
        }
    }
}

/// A closed load gate (see [`FaultInjector::hold`]). Dropping it opens
/// the gate, as does [`LoadHold::release`].
#[derive(Debug)]
#[must_use = "dropping the hold releases every parked load"]
pub struct LoadHold(Arc<FaultInjector>);

impl LoadHold {
    /// Block until at least `n` load attempts are parked on the hold.
    /// Panics after 30 s with the parked count, so a load that never
    /// arrives fails by name instead of hanging the suite.
    pub fn wait_parked(&self, n: usize) {
        let (gate, cv) = (unpoison(self.0.gate.lock()), &self.0.gate_cv);
        let (gate, waited) =
            unpoison(cv.wait_timeout_while(gate, Duration::from_secs(30), |g| g.1 < n));
        assert!(!waited.timed_out(), "{} of {n} loads parked after 30 s", gate.1);
    }

    /// Open the gate: every parked load resumes, and later loads pass.
    pub fn release(self) {}
}

impl Drop for LoadHold {
    fn drop(&mut self) {
        unpoison(self.0.gate.lock()).0 = false;
        self.0.gate_cv.notify_all();
    }
}

/// SplitMix64-style avalanche of `(seed, uri, attempt)` to a uniform
/// value in `[0, 1)`.
fn unit_hash(seed: u64, uri: &str, attempt: u64) -> f64 {
    let mut h = seed ^ attempt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for b in uri.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    (h >> 11) as f64 / (1u64 << 53) as f64
}

// ---------------------------------------------------------------------
// RetryPolicy

/// Bounded-exponential-backoff retry budget for transient chunk-IO
/// failures (see [`crate::SommelierConfig::io_retry`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation, including the first (1 = never
    /// retry).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per retry after that.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_micros(500),
            max_backoff: Duration::from_millis(10),
        }
    }
}

impl RetryPolicy {
    /// No retries: every failure surfaces immediately.
    pub fn none() -> Self {
        RetryPolicy { max_attempts: 1, ..RetryPolicy::default() }
    }

    /// The backoff before retry number `retry` (1-based), capped.
    pub fn backoff(&self, retry: u32) -> Duration {
        let exp = self.base_backoff.saturating_mul(1u32 << (retry - 1).min(16));
        exp.min(self.max_backoff)
    }
}

/// Run `f`, retrying transient failures under `policy` with bounded
/// exponential backoff. Permanent failures and cancellations surface
/// immediately; the backoff sleep is truncated at the cancel token's
/// deadline, and the token is re-checked after every sleep so a
/// cancelled query never burns its remaining budget waiting. Each
/// retry bumps `obs`'s `fault.io_retries` and, when the owning query traces
/// spans (`tracer`), records a `retry` span under the ambient (load)
/// span.
///
/// Panic isolation: every attempt runs under `catch_unwind`, so a
/// panic in a chunk decode (or anything else behind `f`) becomes a
/// typed [`EngineError::Panicked`] instead of unwinding through —
/// critical on prefetch IO threads, where an escaped panic would kill
/// the thread and leave waiters parked on a latch that never resolves.
/// This is the single choke point covering both the cellar decode path
/// and the prefetch fetchers (both route their chunk IO through here).
pub fn with_retries<T>(
    policy: &RetryPolicy,
    cancel: Option<&CancelToken>,
    obs: &Obs,
    tracer: Option<&TraceCollector>,
    uri: &str,
    mut f: impl FnMut() -> Result<T, EngineError>,
) -> Result<T, EngineError> {
    let max_attempts = policy.max_attempts.max(1);
    let mut attempt = 0u32;
    loop {
        if let Some(c) = cancel {
            c.check()?;
        }
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(&mut f))
            .unwrap_or_else(|payload| {
                Err(EngineError::Panicked {
                    payload: sommelier_engine::sched::panic_message(payload.as_ref()),
                })
            });
        let err = match outcome {
            Ok(v) => return Ok(v),
            Err(e) => e,
        };
        attempt += 1;
        if err.kind() != ErrorKind::Transient || attempt >= max_attempts {
            return Err(err);
        }
        obs.count(Metric::FaultIoRetries, 1);
        let mut delay = policy.backoff(attempt);
        if let Some(d) = cancel.and_then(|c| c.deadline()) {
            delay = delay.min(d.saturating_duration_since(Instant::now()));
        }
        let backoff = StageTimer::start(tracer, "retry");
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        backoff.stop(|| format!("{uri}: attempt {} after: {err}", attempt + 1), None, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn injector_is_deterministic_and_bounded() {
        let plan = FaultPlan { transient_rate: 1.0, ..FaultPlan::default() };
        let a = FaultInjector::new(plan.clone());
        let b = FaultInjector::new(plan.clone());
        let run = |inj: &FaultInjector| -> Vec<bool> {
            (0..6).map(|_| inj.before_load("chunk-1").is_err()).collect()
        };
        let (ra, rb) = (run(&a), run(&b));
        assert_eq!(ra, rb, "same seed, same sequence");
        // Rate 1.0 but bounded: exactly max_transient_per_chunk faults.
        assert_eq!(ra.iter().filter(|&&f| f).count(), plan.max_transient_per_chunk as usize);
        assert_eq!(a.injected().transient, plan.max_transient_per_chunk as u64);
    }

    #[test]
    fn hold_parks_loads_until_released() {
        let inj = Arc::new(FaultInjector::new(FaultPlan::default()));
        let hold = inj.hold();
        let parked = Arc::clone(&inj);
        let loader = std::thread::spawn(move || parked.before_load("held.seed"));
        hold.wait_parked(1);
        assert!(!loader.is_finished(), "a held load stays parked");
        hold.release();
        assert!(loader.join().unwrap().is_ok());
        assert!(inj.before_load("open.seed").is_ok(), "an open gate passes loads");
        assert_eq!(inj.injected(), FaultCounts::default(), "a default plan injects nothing");
    }

    #[test]
    fn corrupt_uri_fails_permanently_every_time() {
        let inj = FaultInjector::new(FaultPlan {
            corrupt_uris: vec!["bad.seed".into()],
            ..FaultPlan::default()
        });
        for _ in 0..3 {
            let e = inj.before_load("bad.seed").unwrap_err();
            assert_eq!(e.kind(), ErrorKind::Permanent);
            assert!(e.to_string().contains("bad.seed"));
        }
        assert!(inj.before_load("good.seed").is_ok());
        assert_eq!(inj.injected().corrupt, 3);
    }

    #[test]
    fn retries_recover_transient_failures() {
        let calls = AtomicU32::new(0);
        let policy = RetryPolicy { base_backoff: Duration::ZERO, ..RetryPolicy::default() };
        let out = with_retries(&policy, None, &Obs::off(), None, "u", || {
            if calls.fetch_add(1, Ordering::Relaxed) < 2 {
                Err(EngineError::ChunkLoad {
                    uri: "u".into(),
                    kind: ErrorKind::Transient,
                    message: "flaky".into(),
                })
            } else {
                Ok(7)
            }
        });
        assert_eq!(out.unwrap(), 7);
        assert_eq!(calls.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn permanent_failures_are_not_retried() {
        let calls = AtomicU32::new(0);
        let out: Result<(), _> =
            with_retries(&RetryPolicy::default(), None, &Obs::off(), None, "u", || {
                calls.fetch_add(1, Ordering::Relaxed);
                Err(EngineError::ChunkLoad {
                    uri: "u".into(),
                    kind: ErrorKind::Permanent,
                    message: "rot".into(),
                })
            });
        assert!(out.is_err());
        assert_eq!(calls.load(Ordering::Relaxed), 1, "no retry on permanent");
    }

    #[test]
    fn retry_budget_is_bounded() {
        let calls = AtomicU32::new(0);
        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        };
        let out: Result<(), _> = with_retries(&policy, None, &Obs::off(), None, "u", || {
            calls.fetch_add(1, Ordering::Relaxed);
            Err(EngineError::ChunkLoad {
                uri: "u".into(),
                kind: ErrorKind::Transient,
                message: "still flaky".into(),
            })
        });
        assert!(out.is_err());
        assert_eq!(calls.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn cancellation_short_circuits_retries() {
        let c = CancelToken::new();
        c.cancel();
        let calls = AtomicU32::new(0);
        let out =
            with_retries(&RetryPolicy::default(), Some(&c), &Obs::off(), None, "u", || {
                calls.fetch_add(1, Ordering::Relaxed);
                Ok(())
            });
        assert!(matches!(out, Err(EngineError::Cancelled { .. })));
        assert_eq!(calls.load(Ordering::Relaxed), 0, "cancelled before first attempt");
    }

    #[test]
    fn panics_in_the_attempt_become_typed_errors() {
        let calls = AtomicU32::new(0);
        let out: Result<(), _> =
            with_retries(&RetryPolicy::default(), None, &Obs::off(), None, "u", || {
                calls.fetch_add(1, Ordering::Relaxed);
                panic!("decoder blew up");
            });
        let e = out.unwrap_err();
        assert!(
            matches!(&e, EngineError::Panicked { payload } if payload.contains("decoder blew up"))
        );
        assert_eq!(e.kind(), ErrorKind::Permanent, "panics are never retried");
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn panic_uris_inject_and_are_caught_at_the_retry_seam() {
        let inj = FaultInjector::new(FaultPlan {
            panic_uris: vec!["poison.seed".into()],
            ..FaultPlan::default()
        });
        let out: Result<(), _> = with_retries(
            &RetryPolicy::default(),
            None,
            &Obs::off(),
            None,
            "poison.seed",
            || inj.before_load("poison.seed"),
        );
        let e = out.unwrap_err();
        assert!(
            matches!(&e, EngineError::Panicked { payload } if payload.contains("poison.seed"))
        );
        assert_eq!(inj.injected().panics, 1);
        // Other chunks are unaffected.
        assert!(inj.before_load("fine.seed").is_ok());
    }

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(5),
        };
        assert_eq!(p.backoff(1), Duration::from_millis(1));
        assert_eq!(p.backoff(2), Duration::from_millis(2));
        assert_eq!(p.backoff(3), Duration::from_millis(4));
        assert_eq!(p.backoff(4), Duration::from_millis(5), "capped");
        assert_eq!(p.backoff(9), Duration::from_millis(5));
    }
}
