//! Bounded condvar waiting for the record lock manager.
//!
//! This module is the *single* place in `crates/txn` that consults the
//! wall clock (morph-lint pass 2): lock-wait deadlines are inherently
//! wall-time — they bound how long a live thread may block on another
//! — and never feed back into replayed state. The single-threaded sim
//! never contends, so these waits never fire there; keeping the two
//! `Instant::now()` calls behind one audited seam is what lets the
//! rest of the crate stay lint-clean.

use parking_lot::{Condvar, MutexGuard};
use std::cell::Cell;
use std::time::{Duration, Instant};

thread_local! {
    /// Lock waits this thread has entered (see [`thread_lock_waits`]).
    static LOCK_WAITS: Cell<u64> = const { Cell::new(0) };
}

/// Number of times *this thread* has blocked on a transaction-lock
/// condvar. Every lock wait in the engine funnels through
/// [`Deadline::wait_on`], so this is an exact per-thread count — the
/// observable behind the MVCC promise: a snapshot reader's count stays
/// at zero no matter what migrations and writers are doing (a global
/// counter could not assert that; concurrent writers legitimately wait
/// on each other).
pub fn thread_lock_waits() -> u64 {
    LOCK_WAITS.with(Cell::get)
}

/// An absolute wall-clock deadline for a lock wait.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `timeout` from now.
    pub fn after(timeout: Duration) -> Deadline {
        Deadline {
            // morph-lint: allow(nondet, lock-wait deadline; wall-time bound on blocking, never replayed state)
            at: Instant::now() + timeout,
        }
    }

    /// Has the deadline already passed?
    pub fn expired(&self) -> bool {
        // morph-lint: allow(nondet, lock-wait deadline; wall-time bound on blocking, never replayed state)
        Instant::now() >= self.at
    }

    /// Block on `cv` until notified or the deadline passes. Returns
    /// `true` when the wait timed out (including a deadline already in
    /// the past), `false` when the thread was woken and should
    /// re-examine the guarded state.
    pub fn wait_on<T>(&self, cv: &Condvar, guard: &mut MutexGuard<'_, T>) -> bool {
        if self.expired() {
            return true;
        }
        LOCK_WAITS.with(|c| c.set(c.get() + 1));
        cv.wait_until(guard, self.at).timed_out()
    }
}
