//! A virtual-clock abstraction for budget logic.
//!
//! The flow's wall-clock budgets are a *time policy*; testing a time
//! policy against the real clock means either real sleeps (slow suites)
//! or racy tolerances (flaky suites). [`Clock`] splits the policy from
//! the time source: production uses [`Clock::Real`] (monotonic
//! `Instant`s), tests use [`Clock::Virtual`] whose "now" is an atomic
//! nanosecond counter that only moves when someone calls
//! [`VirtualClock::advance`]. A timeout test then runs in microseconds of
//! real time while covering hours of virtual time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A monotonic nanosecond counter standing in for the machine clock.
///
/// Shared via `Arc` by every party that needs a consistent "now"
/// (typically: the test and the flow budget).
/// Advancing is `fetch_add`-atomic, so concurrent advances never lose
/// time — though deterministic chaos suites advance only from the thread
/// under test.
#[derive(Debug, Default)]
pub struct VirtualClock {
    nanos: AtomicU64,
}

impl VirtualClock {
    /// A clock starting at t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Nanoseconds since the clock's epoch.
    pub fn now_nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }

    /// Moves the clock forward by `d`. Saturates at `u64::MAX` ns
    /// (~584 years — far beyond any budget) instead of wrapping back to
    /// the epoch, which would un-expire every deadline.
    pub fn advance(&self, d: Duration) {
        let delta = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        // `fetch_update` with saturating add: `fetch_add` would wrap.
        let _ = self
            .nanos
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                Some(cur.saturating_add(delta))
            });
    }
}

/// The time source a flow runs against: the machine clock, or a shared
/// [`VirtualClock`].
///
/// `Default` is [`Clock::Real`] — existing callers get exactly the
/// historical `Instant`-based behavior. Equality compares time *sources*:
/// real clocks are all one source; virtual clocks compare by `Arc`
/// identity (two independent virtual clocks tick independently, so they
/// are different sources even at the same reading).
#[derive(Clone, Debug, Default)]
pub enum Clock {
    /// `std::time::Instant` now.
    #[default]
    Real,
    /// A shared virtual clock, moved only by [`VirtualClock::advance`].
    Virtual(Arc<VirtualClock>),
}

impl PartialEq for Clock {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Clock::Real, Clock::Real) => true,
            (Clock::Virtual(a), Clock::Virtual(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// A point in time on a specific [`Clock`] — the deadline type threaded
/// through the flow's budget checks. Comparing an instant from one clock
/// against another clock is a caller bug; [`Clock::has_passed`] treats
/// the mismatch conservatively (never expired) rather than panicking in
/// a budget check deep inside a solve.
#[derive(Clone, Copy, Debug)]
pub enum ClockInstant {
    /// A monotonic machine-clock instant.
    Real(Instant),
    /// Nanoseconds on a virtual clock.
    Virtual(u64),
}

impl ClockInstant {
    /// The underlying machine-clock instant, when this is a real one.
    /// Virtual deadlines have no `Instant` representation — layers that
    /// only understand `Instant` (the GP solver's per-Newton-step check)
    /// simply don't see virtual deadlines; the flow-level checkpoints
    /// enforce them instead.
    pub fn as_real(&self) -> Option<Instant> {
        match self {
            ClockInstant::Real(i) => Some(*i),
            ClockInstant::Virtual(_) => None,
        }
    }
}

impl Clock {
    /// A fresh, private virtual clock starting at t = 0.
    pub fn new_virtual() -> Self {
        Clock::Virtual(Arc::new(VirtualClock::new()))
    }

    /// The shared virtual clock behind this source, if any.
    pub fn virtual_clock(&self) -> Option<&Arc<VirtualClock>> {
        match self {
            Clock::Real => None,
            Clock::Virtual(v) => Some(v),
        }
    }

    /// The current reading.
    pub fn now(&self) -> ClockInstant {
        match self {
            Clock::Real => ClockInstant::Real(Instant::now()),
            Clock::Virtual(v) => ClockInstant::Virtual(v.now_nanos()),
        }
    }

    /// The instant `d` from now on this clock.
    pub fn deadline_after(&self, d: Duration) -> ClockInstant {
        match self {
            Clock::Real => ClockInstant::Real(Instant::now() + d),
            Clock::Virtual(v) => ClockInstant::Virtual(
                v.now_nanos()
                    .saturating_add(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)),
            ),
        }
    }

    /// Whether `deadline` (taken from this clock) has passed. A deadline
    /// from a *different* clock kind reports `false` — see
    /// [`ClockInstant`].
    pub fn has_passed(&self, deadline: &ClockInstant) -> bool {
        match (self, deadline) {
            (Clock::Real, ClockInstant::Real(d)) => Instant::now() >= *d,
            (Clock::Virtual(v), ClockInstant::Virtual(d)) => v.now_nanos() >= *d,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_advances_only_on_demand() {
        let clock = Clock::new_virtual();
        let v = clock.virtual_clock().expect("virtual");
        let t0 = clock.now();
        let deadline = clock.deadline_after(Duration::from_secs(3600));
        assert!(!clock.has_passed(&deadline));
        v.advance(Duration::from_secs(3599));
        assert!(!clock.has_passed(&deadline));
        v.advance(Duration::from_secs(1));
        assert!(clock.has_passed(&deadline));
        // An hour of virtual time, and t0 itself has "passed" too.
        assert!(clock.has_passed(&t0));
    }

    #[test]
    fn real_clock_deadlines_behave_like_instants() {
        let clock = Clock::Real;
        let past = ClockInstant::Real(Instant::now() - Duration::from_millis(1));
        assert!(clock.has_passed(&past));
        let future = clock.deadline_after(Duration::from_secs(3600));
        assert!(!clock.has_passed(&future));
        assert!(future.as_real().is_some());
        assert!(ClockInstant::Virtual(0).as_real().is_none());
    }

    #[test]
    fn mismatched_clock_kinds_never_expire() {
        let virt = Clock::new_virtual();
        let real_deadline = ClockInstant::Real(Instant::now() - Duration::from_secs(1));
        assert!(!virt.has_passed(&real_deadline));
        let virt_deadline = ClockInstant::Virtual(0);
        assert!(!Clock::Real.has_passed(&virt_deadline));
    }

    #[test]
    fn advance_saturates_instead_of_wrapping() {
        let v = VirtualClock::new();
        v.advance(Duration::from_nanos(u64::MAX - 5));
        v.advance(Duration::from_secs(1));
        assert_eq!(v.now_nanos(), u64::MAX);
        // Every finite deadline is now expired; none sprang back to life.
        let clock = Clock::Virtual(Arc::new(VirtualClock::new()));
        if let Clock::Virtual(inner) = &clock {
            inner.advance(Duration::MAX);
            assert_eq!(inner.now_nanos(), u64::MAX);
        }
    }

    #[test]
    fn clock_equality_is_source_identity() {
        let a = Clock::new_virtual();
        let b = Clock::new_virtual();
        assert_eq!(Clock::Real, Clock::Real);
        assert_eq!(a.clone(), a);
        assert_ne!(a, b, "independent virtual clocks are different sources");
        assert_ne!(a, Clock::Real);
    }
}
