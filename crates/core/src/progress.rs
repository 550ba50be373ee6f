//! Lock-free live progress counters for a running transformation.
//!
//! A [`Progress`] is a handful of atomics the phase driver bumps as it
//! works; a [`ProgressHandle`] is a cheap clone any thread can poll
//! without touching engine locks — a monitor printing an ETA must
//! never contend with the propagation rules it is observing.

use morph_wal::MigrationPhase;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

/// Shared atomic counters; written by the transformation thread,
/// readable from anywhere.
#[derive(Default, Debug)]
pub struct Progress {
    /// Current [`MigrationPhase`], as its wire tag, in the order the
    /// driver runs them (lazy: `Syncing` before `Copying`).
    phase: AtomicU8,
    /// Rows written by the initial fuzzy copy (lazy: transformed).
    rows_copied: AtomicUsize,
    /// Log records drained through the propagation rules so far.
    records_propagated: AtomicUsize,
    /// Log records still behind the cursor (lazy: residual keys).
    backlog: AtomicUsize,
    /// Propagation iterations completed.
    iterations: AtomicUsize,
}

impl Progress {
    /// Fresh counters in the `Planned` phase.
    pub fn new() -> Arc<Progress> {
        Arc::new(Progress::default())
    }

    /// Publish the phase (driver side).
    pub fn set_phase(&self, phase: MigrationPhase) {
        self.phase.store(phase.as_u8(), Ordering::Release);
    }

    /// Publish the fuzzy-copy row count (driver side).
    pub fn set_rows_copied(&self, n: usize) {
        self.rows_copied.store(n, Ordering::Relaxed);
    }

    /// Add propagated records (driver side).
    pub fn add_records(&self, n: usize) {
        self.records_propagated.fetch_add(n, Ordering::Relaxed);
    }

    /// Publish the current backlog (driver side).
    pub fn set_backlog(&self, n: usize) {
        self.backlog.store(n, Ordering::Relaxed);
    }

    /// Count one propagation iteration (driver side).
    pub fn add_iteration(&self) {
        self.iterations.fetch_add(1, Ordering::Relaxed);
    }
}

/// Read-only view of a [`Progress`]; `Clone` is an `Arc` bump.
#[derive(Clone, Debug)]
pub struct ProgressHandle(Arc<Progress>);

impl ProgressHandle {
    /// Wrap shared counters.
    pub fn new(inner: Arc<Progress>) -> ProgressHandle {
        ProgressHandle(inner)
    }

    /// The phase the transformation is currently in.
    pub fn phase(&self) -> MigrationPhase {
        MigrationPhase::from_u8(self.0.phase.load(Ordering::Acquire))
            .unwrap_or(MigrationPhase::Aborted)
    }

    /// Rows written by the initial fuzzy copy (0 until copy finishes).
    pub fn rows_copied(&self) -> usize {
        self.0.rows_copied.load(Ordering::Relaxed)
    }

    /// Log records drained through the rules so far.
    pub fn records_propagated(&self) -> usize {
        self.0.records_propagated.load(Ordering::Relaxed)
    }

    /// Backlog after the most recent propagation iteration.
    pub fn backlog(&self) -> usize {
        self.0.backlog.load(Ordering::Relaxed)
    }

    /// Propagation iterations completed.
    pub fn iterations(&self) -> usize {
        self.0.iterations.load(Ordering::Relaxed)
    }

    /// One-line status summary, e.g. for periodic progress printing.
    pub fn summary(&self) -> String {
        format!(
            "{}: copied {} rows, propagated {} records over {} iterations, backlog {}",
            self.phase().name(),
            self.rows_copied(),
            self.records_propagated(),
            self.iterations(),
            self.backlog(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_flow_through_the_handle() {
        let p = Progress::new();
        let h = ProgressHandle::new(Arc::clone(&p));
        assert_eq!(h.phase(), MigrationPhase::Planned);
        p.set_phase(MigrationPhase::Copying);
        p.set_rows_copied(120);
        p.add_records(40);
        p.add_records(2);
        p.set_backlog(7);
        p.add_iteration();
        assert_eq!(h.phase(), MigrationPhase::Copying);
        assert_eq!(h.rows_copied(), 120);
        assert_eq!(h.records_propagated(), 42);
        assert_eq!(h.backlog(), 7);
        assert_eq!(h.iterations(), 1);
        let s = h.summary();
        assert!(s.contains("copying") && s.contains("120") && s.contains("42"));
    }
}
