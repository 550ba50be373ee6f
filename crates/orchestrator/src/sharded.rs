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
use morph_core::{LazyMigration, PreparedLazy, TransformReport};
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
/// migration state machine.
///
/// All shards or none: every shard passes its planning crash point and
/// claims its tables before any shard's migration starts, so a kill or
/// a [`MigrationConflict`](morph_common::DbError::MigrationConflict) at
/// one shard releases the claims already taken and starts nothing.
pub fn submit_sharded(
    sdb: &ShardedDatabase,
    spec: &MigrationSpec,
    options: &TransformOptions,
) -> DbResult<ShardedMigration> {
    let orchs: Vec<Orchestrator> = sdb
        .shards()
        .iter()
        .map(|shard| Orchestrator::new(Arc::clone(shard)))
        .collect();
    let mut claims = Vec::with_capacity(orchs.len());
    for orch in &orchs {
        let planned = orch.database().crash_point("router.shard_plan");
        match planned.and_then(|()| orch.claim(spec)) {
            Ok(id) => claims.push(id),
            Err(e) => {
                for (orch, id) in orchs.iter().zip(claims) {
                    orch.database().migrations().release(id);
                }
                return Err(e);
            }
        }
    }
    let handles = orchs
        .iter()
        .zip(claims)
        .map(|(orch, id)| orch.launch(id, spec.clone(), options.clone()))
        .enumerate()
        .collect();
    Ok(ShardedMigration { handles })
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
///
/// Every shard prepares its targets before any shard cuts over, so a
/// shard that cannot prepare (its target name is taken, say) fails the
/// call with every shard's sources still live and no target left
/// behind. Past that point only a simulated crash at a cutover can
/// fail the call; the shards not yet cut over then drop their targets.
pub fn start_lazy_sharded(
    sdb: &ShardedDatabase,
    spec: &MigrationSpec,
) -> DbResult<ShardedLazyMigration> {
    let [stage]: &[TransformPlan; 1] = spec.stages.as_slice().try_into().map_err(|_| {
        morph_common::DbError::TransformationAborted(
            "lazy sharded migration supports exactly one stage".into(),
        )
    })?;
    // A failure drops the shards' remaining `PreparedLazy`s, and each
    // drops its own targets.
    let prepared = sdb
        .shards()
        .iter()
        .map(|shard| {
            shard.crash_point("router.shard_plan")?;
            LazyMigration::prepare(shard, stage)
        })
        .collect::<DbResult<Vec<_>>>()?;
    let lazies = prepared
        .into_iter()
        .map(PreparedLazy::cut_over)
        .collect::<DbResult<_>>()?;
    Ok(ShardedLazyMigration { lazies })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Migration;
    use morph_common::{ColumnType, Key, Schema, Value};

    fn schema() -> Schema {
        Schema::builder()
            .column("id", ColumnType::Int)
            .column("v", ColumnType::Int)
            .primary_key(&["id"])
            .build()
            .unwrap()
    }

    /// A shard that cannot prepare (its target name is taken) fails the
    /// fan-out before any shard cuts over: the other shard keeps live
    /// sources and no target.
    #[test]
    fn lazy_fan_out_that_cannot_prepare_cuts_no_shard_over() {
        let sdb = ShardedDatabase::new(2);
        for name in ["r", "s"] {
            sdb.create_table(name, schema()).unwrap();
            for i in 0..20 {
                sdb.insert(name, vec![Value::Int(i), Value::Int(i)])
                    .unwrap();
            }
        }
        sdb.shard(1).create_table("u", schema()).unwrap();

        let spec = Migration::union("r", "s", "u").build();
        assert!(start_lazy_sharded(&sdb, &spec).is_err());

        let shard0 = sdb.shard(0);
        assert!(shard0.catalog().get("u").is_err(), "shard 0 kept a target");
        let key = (0..20)
            .map(|i| Key::single(Value::Int(i)))
            .find(|key| sdb.shard_of_key("r", key).unwrap() == 0)
            .expect("shard 0 owns some r row");
        for name in ["r", "s"] {
            sdb.update(name, &key, &[(1, Value::Int(-1))]).unwrap();
            assert_eq!(
                sdb.read(name, &key).unwrap(),
                Some(vec![key.values()[0].clone(), Value::Int(-1)])
            );
        }
        sdb.insert("r", vec![Value::Int(100), Value::Int(0)])
            .unwrap();

        // With the name freed, the same migration goes through.
        sdb.shard(1).catalog().drop_table("u").unwrap();
        let lazy = start_lazy_sharded(&sdb, &spec).unwrap();
        lazy.drain_now().unwrap();
        lazy.finish().unwrap();
    }
}
