//! Migration job registry: which tables are claimed by which running
//! migration job.
//!
//! The orchestrator (crate `morph-orchestrator`) serializes migrations
//! whose table sets overlap and runs disjoint ones concurrently; the
//! claim table that makes that decision lives here, on the
//! [`Database`](crate::Database), so every orchestrator instance over
//! the same engine sees the same claims.
//!
//! The registry is deliberately engine-agnostic about what a "job" is:
//! it hands out ids, records table claims, and reports conflicts. All
//! richer state (phase, spec, progress) stays in the orchestrator,
//! which persists it through the WAL.

use morph_common::{DbError, DbResult};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Claim table for running migration jobs. Owned by the database; all
/// methods take `&self` and are safe from any thread.
#[derive(Default)]
pub struct MigrationRegistry {
    /// Claimed tables per job id.
    jobs: RwLock<HashMap<u64, Vec<String>>>,
    /// Next job id to hand out (monotone; resumed jobs bump it past
    /// their recovered id so fresh jobs never collide).
    next_job: AtomicU64,
}

impl MigrationRegistry {
    /// Fresh, empty registry (ids start at 1).
    pub fn new() -> MigrationRegistry {
        MigrationRegistry {
            jobs: RwLock::new(HashMap::new()),
            next_job: AtomicU64::new(1),
        }
    }

    /// Allocate a fresh job id.
    pub fn next_job_id(&self) -> u64 {
        self.next_job.fetch_add(1, Ordering::Relaxed)
    }

    /// Ensure future [`MigrationRegistry::next_job_id`] calls return
    /// ids strictly greater than `id` — used when resuming a job whose
    /// id was recovered from the WAL.
    pub fn bump_past(&self, id: u64) {
        self.next_job.fetch_max(id + 1, Ordering::Relaxed);
    }

    /// Claim `tables` for `job`. Fails with
    /// [`DbError::MigrationConflict`] if any of them is already claimed
    /// by a different job; the claim is all-or-nothing.
    pub fn claim(&self, job: u64, tables: &[String]) -> DbResult<()> {
        let mut jobs = self.jobs.write();
        for (other, claimed) in jobs.iter() {
            if *other == job {
                continue;
            }
            if let Some(t) = tables.iter().find(|t| claimed.contains(t)) {
                return Err(DbError::MigrationConflict {
                    table: t.clone(),
                    job: *other,
                });
            }
        }
        let entry = jobs.entry(job).or_default();
        for t in tables {
            if !entry.contains(t) {
                entry.push(t.clone());
            }
        }
        Ok(())
    }

    /// Release every claim held by `job` (idempotent).
    pub fn release(&self, job: u64) {
        self.jobs.write().remove(&job);
    }

    /// Ids of every job holding at least one claim, in ascending order.
    pub fn active_jobs(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.jobs.read().keys().copied().collect();
        ids.sort_unstable();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_claims_coexist_overlapping_conflict() {
        let reg = MigrationRegistry::new();
        let a = reg.next_job_id();
        let b = reg.next_job_id();
        assert_ne!(a, b);
        reg.claim(a, &["t".into(), "r".into()]).unwrap();
        reg.claim(b, &["u".into()]).unwrap();
        let err = reg.claim(b, &["x".into(), "r".into()]).unwrap_err();
        assert!(matches!(
            err,
            DbError::MigrationConflict { ref table, job } if table == "r" && job == a
        ));
        // The failed claim must not have claimed "x" either.
        let c = reg.next_job_id();
        reg.claim(c, &["x".into()]).unwrap();
        reg.release(c);
        reg.release(a);
        reg.claim(b, &["r".into()]).unwrap();
        assert_eq!(reg.active_jobs(), vec![b]);
    }

    #[test]
    fn re_claim_by_same_job_is_idempotent() {
        let reg = MigrationRegistry::new();
        reg.claim(7, &["t".into()]).unwrap();
        reg.claim(7, &["t".into(), "u".into()]).unwrap();
        for table in ["t", "u"] {
            assert!(matches!(
                reg.claim(8, &[table.into()]),
                Err(DbError::MigrationConflict { job: 7, .. })
            ));
        }
        reg.bump_past(7);
        assert!(reg.next_job_id() > 7);
    }
}
