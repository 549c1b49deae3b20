//! A zero-dependency scoped worker pool for candidate-parallel sweeps.
//!
//! The Fig.-4 SMART loop sizes every candidate topology independently, so
//! the exploration sweep is embarrassingly parallel — but parallelism must
//! not change results. The pool therefore has exactly one job shape:
//! evaluate `job(i)` for `i in 0..n` and return the results **in index
//! order**, regardless of which worker ran which index or when it
//! finished. Determinism falls out of three properties:
//!
//! 1. every job's inputs are index-determined (workers share only
//!    read-only references plus one atomic claim counter);
//! 2. results are written into a pre-sized slot table by index, never
//!    appended in completion order;
//! 3. a panicking job yields `None` in its own slot — the same containment
//!    a serial run gets from its own `catch_unwind` — and can never poison
//!    a sibling.
//!
//! Workers claim one index at a time from a shared atomic counter
//! (dynamic self-scheduling), so a single slow candidate — one giant GP —
//! does not strand the work behind it the way static striping would.
//!
//! Threads come from [`std::thread::scope`]: no channels, no external
//! crates, workers joined before the function returns.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Parallelism of [`crate::explore_parallel`], [`run_indexed`] and the
/// sweeps built on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelOptions {
    /// Worker threads to fan candidates across. `0` and `1` both mean
    /// serial in-place execution (no threads are spawned); the pool never
    /// spawns more workers than there are jobs.
    pub workers: usize,
}

impl Default for ParallelOptions {
    fn default() -> Self {
        ParallelOptions { workers: 1 }
    }
}

impl ParallelOptions {
    /// Serial execution (the historical behavior).
    pub fn serial() -> Self {
        Self::default()
    }

    /// `workers` threads.
    pub fn with_workers(workers: usize) -> Self {
        ParallelOptions { workers }
    }

    /// Reads `SMART_WORKERS` (worker count) from the environment; unset
    /// means serial. The library never calls this: the `smart` binary,
    /// the examples, the bench bins and the tests read the environment
    /// once and pass the result down — CI runs the whole test suite under
    /// both `SMART_WORKERS=1` and `SMART_WORKERS=4`.
    ///
    /// A value that is *set but unusable* — unparsable garbage, or `0`
    /// (which the pool would silently clamp) — falls back to serial, but
    /// not silently: the fallback is recorded as a `pool/env-fallback`
    /// trace event when a trace scope is current.
    /// Use [`ParallelOptions::from_env_lookup`] to also obtain the
    /// fallback list programmatically.
    pub fn from_env() -> Self {
        let (opts, fallbacks) = Self::from_env_lookup(|name| std::env::var(name).ok());
        for f in &fallbacks {
            f.emit();
        }
        opts
    }

    /// The pure core of [`ParallelOptions::from_env`], with an injectable
    /// variable lookup (tests pass a closure over a map instead of racing
    /// on the process environment). Returns the resolved options together
    /// with the fallback applied to a set-but-unusable value, if any.
    pub fn from_env_lookup(
        lookup: impl Fn(&str) -> Option<String>,
    ) -> (Self, Vec<EnvFallback>) {
        let name = "SMART_WORKERS";
        let default = 1;
        let Some(raw) = lookup(name) else {
            // Unset is the normal case, not a fallback.
            return (Self::default(), Vec::new());
        };
        match raw.trim().parse::<usize>() {
            Ok(workers) if workers >= 1 => (ParallelOptions { workers }, Vec::new()),
            // 0 would be silently clamped to serial by the pool; garbage
            // would silently mean "serial". Both are a user *setting the
            // knob and being ignored* — record it.
            _ => (
                ParallelOptions { workers: default },
                vec![EnvFallback { name, raw, default }],
            ),
        }
    }

    /// Workers actually used for `n` jobs (≥ 1, ≤ `n`).
    pub fn effective_workers(&self, n: usize) -> usize {
        self.workers.max(1).min(n.max(1))
    }
}

/// One environment knob that was set to an unusable value (garbage or
/// `0`) and fell back to its default — produced by
/// [`ParallelOptions::from_env_lookup`] so the fallback is observable
/// instead of silent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvFallback {
    /// The environment variable (`"SMART_WORKERS"`).
    pub name: &'static str,
    /// The raw value that failed to parse (or parsed to 0).
    pub raw: String,
    /// The default that was used instead.
    pub default: usize,
}

impl EnvFallback {
    /// Records this fallback as a `pool/env-fallback` trace event in the
    /// current trace scope (no-op when no scope is current).
    pub fn emit(&self) {
        smart_trace::emit_with("pool/env-fallback", || {
            vec![
                ("var", self.name.into()),
                ("raw", self.raw.as_str().into()),
                ("fallback", self.default.into()),
            ]
        });
    }
}

/// Evaluates `job(i)` for every `i in 0..n` across the configured workers
/// and returns the results indexed by `i`.
///
/// A slot is `None` only if its job panicked (the payload is swallowed —
/// callers that need the message must `catch_unwind` inside `job`, as the
/// exploration runtime does) or if a pool worker died, which the
/// per-slot accounting converts into the same per-index `None` rather
/// than a lost sweep.
pub fn run_indexed<T, F>(n: usize, par: &ParallelOptions, job: F) -> Vec<Option<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = par.effective_workers(n);
    if workers <= 1 {
        // Serial reference path: same containment, same slot semantics,
        // strictly ascending order.
        return (0..n)
            .map(|i| catch_unwind(AssertUnwindSafe(|| job(i))).ok())
            .collect();
    }

    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let next = AtomicUsize::new(0);
    let job = &job;
    let next_ref = &next;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            handles.push(scope.spawn(move || {
                let mut batch: Vec<(usize, Option<T>)> = Vec::new();
                loop {
                    let i = next_ref.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    batch.push((i, catch_unwind(AssertUnwindSafe(|| job(i))).ok()));
                }
                batch
            }));
        }
        for handle in handles {
            // A worker can only fail to join if the runtime killed it;
            // its claimed-but-unreported indices stay `None`, which the
            // caller treats like a contained panic.
            if let Ok(batch) = handle.join() {
                for (i, result) in batch {
                    slots[i] = result;
                }
            }
        }
    });
    slots
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree_in_order_and_value() {
        let job = |i: usize| i * i;
        let serial = run_indexed(37, &ParallelOptions::serial(), job);
        for workers in [2, 4, 8] {
            let par = run_indexed(37, &ParallelOptions::with_workers(workers), job);
            assert_eq!(serial, par, "workers={workers}");
        }
        assert_eq!(serial[6], Some(36));
    }

    #[test]
    fn panicking_job_yields_none_in_its_own_slot_only() {
        for workers in [1, 4] {
            let out = run_indexed(9, &ParallelOptions::with_workers(workers), |i| {
                if i == 4 {
                    panic!("job 4 is broken");
                }
                i + 1
            });
            for (i, slot) in out.iter().enumerate() {
                if i == 4 {
                    assert!(slot.is_none(), "workers={workers}");
                } else {
                    assert_eq!(*slot, Some(i + 1), "workers={workers}");
                }
            }
        }
    }

    #[test]
    fn zero_jobs_and_zero_workers_are_fine() {
        let empty: Vec<Option<usize>> = run_indexed(0, &ParallelOptions::with_workers(8), |i| i);
        assert!(empty.is_empty());
        let degenerate = run_indexed(3, &ParallelOptions { workers: 0 }, |i| i);
        assert_eq!(degenerate, vec![Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn env_lookup_accepts_valid_values_without_fallbacks() {
        let (opts, fb) = ParallelOptions::from_env_lookup(|name| match name {
            "SMART_WORKERS" => Some(" 4 ".into()),
            _ => None,
        });
        assert_eq!(opts, ParallelOptions::with_workers(4));
        assert!(fb.is_empty());
    }

    #[test]
    fn env_lookup_unset_is_a_silent_default() {
        let (opts, fb) = ParallelOptions::from_env_lookup(|_| None);
        assert_eq!(opts, ParallelOptions::serial());
        assert!(fb.is_empty());
    }

    #[test]
    fn env_lookup_records_garbage_and_zero_as_fallbacks() {
        for raw in ["many", "0"] {
            let (opts, fb) = ParallelOptions::from_env_lookup(|name| match name {
                "SMART_WORKERS" => Some(raw.into()),
                _ => None,
            });
            assert_eq!(opts, ParallelOptions::serial());
            assert_eq!(
                fb,
                vec![EnvFallback {
                    name: "SMART_WORKERS",
                    raw: raw.into(),
                    default: 1
                }]
            );
        }
    }

    #[test]
    fn env_fallback_emits_into_the_current_scope() {
        let t = smart_trace::Trace::enabled();
        {
            let s = t.scope("pool", 0, 0);
            let _g = s.enter();
            EnvFallback {
                name: "SMART_WORKERS",
                raw: "-3".into(),
                default: 1,
            }
            .emit();
        }
        let report = t.collect();
        assert_eq!(report.events_named("pool/env-fallback").count(), 1);
    }

    #[test]
    fn effective_workers_never_exceeds_jobs() {
        let p = ParallelOptions::with_workers(8);
        assert_eq!(p.effective_workers(3), 3);
        assert_eq!(p.effective_workers(0), 1);
        assert_eq!(ParallelOptions::serial().effective_workers(100), 1);
    }
}
