//! # morph-sim
//!
//! Deterministic crash-and-recovery simulation for the schema-change
//! engine, in the style of FoundationDB's simulation testing: the
//! whole system — WAL, engine, transformation, workload — runs
//! single-threaded inside one process, every nondeterministic choice
//! is drawn from RNGs seeded by a single `u64`, and faults (torn
//! writes, lost unsynced bytes, process death at instrumented crash
//! points) are injected on purpose. A failing universe is replayed
//! exactly from its seed.
//!
//! The property under test is the paper's Theorem 1 discipline: a
//! schema transformation interrupted by a crash at *any* point — mid
//! fuzzy copy, between or inside propagation batches, at every step of
//! all three synchronization strategies — must leave the system in a
//! state from which (a) crash recovery restores exactly the committed
//! user data (transformations never hold up or corrupt user
//! transactions), and (b) simply re-running the transformation from
//! preparation produces tables identical to an uninterrupted run.
//!
//! Entry points:
//! * [`run_sim`] — one simulated universe from a [`SimConfig`];
//! * [`fault_db`] / [`crash_and_recover`] / [`KillHook`] — the
//!   fault-backed database, the one crash step (drain, tear, recover)
//!   and the one kill hook that `run_sim` and every hand-written kill
//!   test share;
//! * [`sweep_cell`] — census + seeded kill runs for one
//!   `(scenario, strategy, seed)` cell;
//! * [`minimize`] — shrink and confirm a failing reproduction.

pub mod harness;
pub mod points;
pub mod scenario;
pub mod sweep;

pub use harness::{
    crash_and_recover, fault_db, run_sim, Kill, KillHook, Recovered, SimConfig, SimFailure,
    SimReport, Verdict,
};
pub use points::{kill_matrix, matrix_points, swept_by, uncovered, Sweep};
pub use scenario::{sim_options, Scenario};
pub use sweep::{minimize, sweep_cell, SweepSummary};
