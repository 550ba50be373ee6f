//! Sharded execution plan: one declarative migration fanned out as N
//! independent per-shard jobs.
//!
//! A [`ShardedDatabase`] is shared-nothing — each shard owns its
//! storage, WAL, lock manager and MVCC state — so a migration of a
//! co-partitioned table decomposes into N completely independent
//! migrations, one per shard, each with its own crash-recoverable
//! Planned→CutOver state machine persisted in that shard's WAL (the
//! per-shard [`Orchestrator`] is exactly the single-engine one; nothing
//! is shared across shards on the data path or the migration path).
//!
//! Two modes:
//!
//! * **Eager** ([`submit_sharded`]): every shard runs the full §3
//!   pipeline (populate → propagate → synchronize) concurrently;
//!   [`ShardedMigration::join`] waits for all N. A shard that crashes
//!   mid-flight recovers and resumes from its own WAL exactly like a
//!   single-engine migration — the other shards never notice.
//! * **Lazy** ([`start_lazy_sharded`]): every shard cuts its catalog
//!   over immediately ([`LazyMigration`]) and transforms records on
//!   first touch, with per-shard throttled backfill demoted to the
//!   background.

use crate::orchestrator::{MigrationHandle, Orchestrator};
use crate::spec::MigrationSpec;
use morph_common::{DbResult, TableId};
use morph_core::spec::TransformOptions;
use morph_core::transform::TransformPlan;
use morph_core::{LazyMigration, TransformReport};
use morph_engine::ShardedDatabase;
use std::sync::Arc;

/// Handles for one migration fanned out over every shard (eager mode).
pub struct ShardedMigration {
    handles: Vec<(usize, MigrationHandle)>,
}

impl ShardedMigration {
    /// Per-shard handles, for pausing or inspecting individual shards.
    pub fn handles(&self) -> &[(usize, MigrationHandle)] {
        &self.handles
    }

    /// Wait for every shard's migration; returns the per-shard reports
    /// in shard order. The first shard error wins (remaining shards
    /// still run to completion — shards are independent; a failed shard
    /// is re-submitted on recovery without touching the others).
    pub fn join(self) -> DbResult<Vec<Vec<TransformReport>>> {
        let mut out = Vec::with_capacity(self.handles.len());
        let mut first_err = None;
        for (_, h) in self.handles {
            match h.join() {
                Ok(reports) => out.push(reports),
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }
}

/// Submit `spec` to every shard of `sdb` concurrently (eager mode).
/// Each shard gets its own [`Orchestrator`] and its own WAL-persisted
/// migration state machine; the caller's orchestrators are returned
/// alongside the handles so they outlive the submission.
pub fn submit_sharded(
    sdb: &ShardedDatabase,
    spec: &MigrationSpec,
    options: &TransformOptions,
) -> DbResult<(Vec<Orchestrator>, ShardedMigration)> {
    let mut orchs = Vec::with_capacity(sdb.shard_count());
    let mut handles = Vec::with_capacity(sdb.shard_count());
    for (i, shard) in sdb.shards().iter().enumerate() {
        shard.crash_point("router.shard_plan")?;
        let orch = Orchestrator::new(Arc::clone(shard));
        let h = orch.submit(spec.clone(), options.clone())?;
        orchs.push(orch);
        handles.push((i, h));
    }
    Ok((orchs, ShardedMigration { handles }))
}

/// A lazy migration fanned out over every shard: each shard has cut
/// over and transforms on access; `backfill` drains shard residuals.
pub struct ShardedLazyMigration {
    lazies: Vec<Arc<LazyMigration>>,
}

impl ShardedLazyMigration {
    /// Per-shard lazy migrations.
    pub fn shards(&self) -> &[Arc<LazyMigration>] {
        &self.lazies
    }

    /// Keys still awaiting transformation across all shards.
    pub fn remaining(&self) -> usize {
        self.lazies.iter().map(|l| l.remaining()).sum()
    }

    /// Whether every shard's residual set has drained.
    pub fn is_drained(&self) -> bool {
        self.lazies.iter().all(|l| l.is_drained())
    }

    /// One throttled backfill round: visits the shards in order and
    /// drains each one's whole pending residual in `batch`-sized steps,
    /// the throttle paid after every step ([`LazyMigration::backfill`]).
    /// It does not stop after one batch per shard: a throttle that
    /// lives for one 64-record batch never accumulates its 200 µs
    /// minimum sleep, so such a round would never yield the machine.
    /// Returns records transformed; keys in flight with on-access
    /// claimants may remain, so loop on
    /// [`ShardedLazyMigration::is_drained`].
    pub fn backfill_round(&self, batch: usize, priority: f64) -> DbResult<usize> {
        let mut total = 0;
        for lazy in &self.lazies {
            total += lazy.backfill(batch, priority)?;
        }
        Ok(total)
    }

    /// Drain every shard at full priority.
    pub fn drain_now(&self) -> DbResult<usize> {
        let mut total = 0;
        for lazy in &self.lazies {
            total += lazy.drain_now()?;
        }
        Ok(total)
    }

    /// Finish every shard (requires all residuals drained).
    pub fn finish(&self) -> DbResult<()> {
        for lazy in &self.lazies {
            lazy.finish()?;
        }
        Ok(())
    }

    /// Touch one record on one shard: transforms just that record if
    /// it is still pending there.
    pub fn touch_on(&self, shard: usize, table: TableId, key: &morph_common::Key) -> DbResult<()> {
        match self.lazies.get(shard) {
            Some(lazy) => lazy.touch(table, key),
            None => Err(morph_common::DbError::Internal(format!(
                "shard {shard} out of range ({} shards)",
                self.lazies.len()
            ))),
        }
    }
}

/// Cut every shard over lazily (SLSM-style): one short latch pause per
/// shard, then targets serve immediately with on-access transforms.
/// Only single-stage migrations can run lazily — a later stage's
/// source is an earlier stage's target, which has no frozen image yet.
pub fn start_lazy_sharded(
    sdb: &ShardedDatabase,
    spec: &MigrationSpec,
) -> DbResult<ShardedLazyMigration> {
    let [stage]: &[TransformPlan; 1] = spec.stages.as_slice().try_into().map_err(|_| {
        morph_common::DbError::TransformationAborted(
            "lazy sharded migration supports exactly one stage".into(),
        )
    })?;
    let mut lazies = Vec::with_capacity(sdb.shard_count());
    for shard in sdb.shards() {
        shard.crash_point("router.shard_plan")?;
        lazies.push(LazyMigration::start(shard, stage)?);
    }
    Ok(ShardedLazyMigration { lazies })
}
