//! Priority throttling of the background transformation.
//!
//! The paper runs the transformation "as a low priority background
//! process" and studies (Figure 4(d)) how the priority knob trades
//! transformation completion time against interference with user
//! transactions — including the floor below which propagation never
//! converges. This module implements the knob: after spending `d`
//! seconds of work, the propagator sleeps `d·(1−p)/p`, so that the
//! long-run fraction of time it is runnable is `p`.

use std::time::{Duration, Instant};

/// Duty-cycle throttle.
#[derive(Debug)]
pub struct Throttle {
    priority: f64,
    /// Accumulated sleep debt, paid in chunks ≥ `min_sleep` so that
    /// tiny batches do not degenerate into zero-length sleeps (which
    /// the OS rounds to "no sleep at all", silently raising the
    /// effective priority).
    debt: Duration,
    min_sleep: Duration,
}

impl Throttle {
    /// A throttle running at the given priority (clamped to (0, 1]).
    pub fn new(priority: f64) -> Throttle {
        Throttle {
            priority: priority.clamp(1e-4, 1.0),
            debt: Duration::ZERO,
            min_sleep: Duration::from_micros(200),
        }
    }

    /// Record `busy` seconds of work; sleeps if enough debt has
    /// accumulated. Returns the time actually slept.
    pub fn pay(&mut self, busy: Duration) -> Duration {
        if self.priority >= 1.0 {
            return Duration::ZERO;
        }
        let owed = busy.mul_f64((1.0 - self.priority) / self.priority);
        self.debt += owed;
        if self.debt < self.min_sleep {
            return Duration::ZERO;
        }
        let sleeping = self.debt;
        self.debt = Duration::ZERO;
        // morph-lint: allow(nondet, throttle pacing is wall-time by definition; full priority (the sim setting) never consults it)
        let t0 = Instant::now();
        std::thread::sleep(sleeping);
        t0.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_priority_never_sleeps() {
        let mut t = Throttle::new(1.0);
        assert_eq!(t.pay(Duration::from_millis(10)), Duration::ZERO);
    }

    #[test]
    fn half_priority_sleeps_about_as_long_as_it_works() {
        let mut t = Throttle::new(0.5);
        let slept = t.pay(Duration::from_millis(20));
        assert!(
            slept >= Duration::from_millis(15),
            "expected ≈20ms sleep, got {slept:?}"
        );
    }

    #[test]
    fn low_priority_sleeps_much_longer() {
        let mut t = Throttle::new(0.1);
        // 2ms of work at p=0.1 → 18ms owed.
        let slept = t.pay(Duration::from_millis(2));
        assert!(slept >= Duration::from_millis(14), "got {slept:?}");
    }

    #[test]
    fn debt_accumulates_below_min_sleep() {
        let mut t = Throttle::new(0.5);
        // 50µs of work → 50µs owed < 200µs min: no sleep yet.
        assert_eq!(t.pay(Duration::from_micros(50)), Duration::ZERO);
        assert_eq!(t.pay(Duration::from_micros(50)), Duration::ZERO);
        // Two more pushes it over the threshold.
        let slept = t.pay(Duration::from_micros(150));
        assert!(slept > Duration::ZERO);
    }
}
