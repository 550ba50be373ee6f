//! Sharded execution plan: one declarative migration fanned out as N
//! independent per-shard jobs.
//!
//! A [`ShardedDatabase`] is shared-nothing — each shard owns its
//! storage, WAL, lock manager and MVCC state — so a migration of a
//! co-partitioned table decomposes into N completely independent
//! migrations, one per shard, each with its own crash-recoverable
//! state machine persisted in that shard's WAL (the per-shard
//! [`Orchestrator`] is exactly the single-engine one; nothing is shared
//! across shards on the data path or the migration path).
//!
//! [`submit_sharded`] is the one fan-out, eager or
//! [`SyncStrategy::Lazy`]. A shard that crashes mid-flight recovers and
//! resumes from its own WAL exactly like a single-engine migration —
//! the other shards never notice.

use crate::orchestrator::{Job, MigrationHandle, Orchestrator};
use crate::spec::MigrationSpec;
use morph_common::{DbError, DbResult, Key, TableId};
use morph_core::spec::{SyncStrategy, TransformOptions};
use morph_core::{LazyMigration, TransformJob, TransformReport};
use morph_engine::ShardedDatabase;
use std::sync::Arc;

/// Handles for one migration fanned out over every shard.
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

/// Submit `spec` to every shard of `sdb` concurrently, in the phase
/// order `options.strategy` names. Each shard gets its own
/// [`Orchestrator`] and its own WAL-persisted migration state machine.
///
/// All shards or none: every shard claims its tables, then prepares its
/// first stage, before any shard's worker starts. A kill or a
/// [`MigrationConflict`](morph_common::DbError::MigrationConflict)
/// while claiming starts nothing; a shard that cannot prepare aborts
/// every shard's job. A shard killed while preparing resumes from its
/// own log, and the others start.
pub fn submit_sharded(
    sdb: &ShardedDatabase,
    spec: &MigrationSpec,
    options: &TransformOptions,
) -> DbResult<ShardedMigration> {
    let handles = begin_sharded(sdb, spec, options)?
        .into_iter()
        .map(|(job, first)| job.launch(Some(first.map(|first| *first))))
        .enumerate()
        .collect();
    Ok(ShardedMigration { handles })
}

/// [`submit_sharded`]'s claims and first preparations.
fn begin_sharded(
    sdb: &ShardedDatabase,
    spec: &MigrationSpec,
    options: &TransformOptions,
) -> DbResult<Vec<(Job, DbResult<Box<TransformJob>>)>> {
    let mut jobs = Vec::with_capacity(sdb.shards().len());
    for shard in sdb.shards() {
        let id = shard.migrations().next_job_id();
        let orch = Orchestrator::new(Arc::clone(shard));
        let planned = shard.crash_point("router.shard_plan");
        match planned.and_then(|()| orch.job(id, spec.clone(), options.clone())) {
            Ok(job) => jobs.push(job),
            Err(e) => {
                // Release the claims already taken: nothing started.
                for job in jobs {
                    let _ = job.conclude(Ok(()));
                }
                return Err(e);
            }
        }
    }
    // Boxed: this runs on the submitting thread, often a client's, and
    // an allocation of 1 KiB or more there can pay glibc's deferred
    // free-chunk consolidation (DESIGN.md §15).
    let begun: Vec<_> = jobs
        .into_iter()
        .map(|job| {
            let first = job.begin().map(Box::new);
            (job, first)
        })
        .collect();
    let refusal = begun.iter().find_map(|(_, first)| match first {
        Err(e) if !matches!(e, DbError::SimulatedCrash(_)) => Some(e.clone()),
        _ => None,
    });
    if let Some(e) = refusal {
        // Drop every prepared stage, and with it its targets, then
        // conclude each job as its worker would have.
        for (job, first) in begun {
            let _ = job.conclude::<()>(Err((0, first.err().unwrap_or_else(|| e.clone()))));
        }
        return Err(e);
    }
    Ok(begun)
}

/// [`start_lazy_sharded`]'s per-shard [`SyncStrategy::Lazy`] jobs, cut
/// over, their backfill left to the caller. An alias kept while the
/// benchmark names it. A shard that has cut over completes: dropped
/// unfinished, every shard drains and finishes as in
/// [`ShardedLazyMigration::finish`].
pub struct ShardedLazyMigration {
    shards: Vec<(Job, Box<TransformJob>)>,
}

impl ShardedLazyMigration {
    fn lazies(&self) -> impl Iterator<Item = &Arc<LazyMigration>> {
        self.shards.iter().filter_map(|(_, stage)| stage.lazy())
    }

    /// Whether every shard's residual set has drained.
    pub fn is_drained(&self) -> bool {
        self.lazies().all(|l| l.is_drained())
    }

    /// One throttled [`LazyMigration::backfill`] of every shard's whole
    /// residual, in `batch`-sized steps. Returns records transformed;
    /// keys in flight with first touches may remain, so loop on
    /// [`ShardedLazyMigration::is_drained`].
    pub fn backfill_round(&self, batch: usize, priority: f64) -> DbResult<usize> {
        let mut total = 0;
        for lazy in self.lazies() {
            total += lazy.backfill(batch, priority)?;
        }
        Ok(total)
    }

    /// A backfill round at full priority, one batch per residual lane.
    pub fn drain_now(&self) -> DbResult<usize> {
        self.backfill_round(usize::MAX, 1.0)
    }

    /// Complete every shard's job: drain what the caller left, finish,
    /// record `CutOver` and release the claim. The first shard error
    /// wins; the other shards still complete.
    pub fn finish(mut self) -> DbResult<()> {
        self.complete()
    }

    fn complete(&mut self) -> DbResult<()> {
        let mut result = Ok(());
        for (job, stage) in self.shards.drain(..) {
            result = result.and(job.complete(stage));
        }
        result
    }

    /// Touch one record on one shard: transforms just that record if
    /// it is still pending there.
    pub fn touch_on(&self, shard: usize, table: TableId, key: &Key) -> DbResult<()> {
        match self.shards.get(shard).and_then(|(_, stage)| stage.lazy()) {
            Some(lazy) => lazy.touch(table, key),
            None => Err(DbError::Internal(format!("no shard {shard}"))),
        }
    }
}

impl Drop for ShardedLazyMigration {
    fn drop(&mut self) {
        let _ = self.complete();
    }
}

/// [`submit_sharded`] under [`SyncStrategy::Lazy`] with default
/// options, except that each shard's job is cut over on the calling
/// thread and its backfill left to the returned [`ShardedLazyMigration`].
///
/// Every shard prepares before any cuts over, and a shard that cannot
/// prepare aborts every shard's job, as in [`submit_sharded`]. After
/// that the shards are independent: if one is killed or fails to cut
/// over, the call completes the others and returns its error, and a
/// killed shard resumes from its own log.
pub fn start_lazy_sharded(
    sdb: &ShardedDatabase,
    spec: &MigrationSpec,
) -> DbResult<ShardedLazyMigration> {
    let options = TransformOptions::default().strategy(SyncStrategy::Lazy);
    let (mut shards, mut failed) = (Vec::new(), None);
    for (job, first) in begin_sharded(sdb, spec, &options)? {
        match first.and_then(|mut stage| job.cut_over(&mut stage).map(|()| stage)) {
            Ok(stage) => shards.push((job, stage)),
            Err(e) => {
                let _ = job.conclude::<()>(Err((0, e.clone())));
                failed.get_or_insert(e);
            }
        }
    }
    let lazy = ShardedLazyMigration { shards };
    match failed {
        Some(e) => {
            let _ = lazy.finish();
            Err(e)
        }
        None => Ok(lazy),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Migration;
    use morph_common::{ColumnType, Schema, Value};
    use morph_engine::CrashHook;
    use morph_wal::{LogRecord, MigrationPhase};

    fn schema() -> Schema {
        Schema::builder()
            .column("id", ColumnType::Int)
            .column("v", ColumnType::Int)
            .primary_key(&["id"])
            .build()
            .unwrap()
    }

    /// A shard that cannot prepare (its target name is taken) fails the
    /// fan-out before any shard's worker starts: the other shard keeps
    /// live sources and no target, and no claim is left behind.
    fn fan_out_that_cannot_prepare_starts_no_shard(strategy: SyncStrategy) {
        let sdb = union_sources(2);
        sdb.shard(1).create_table("u", schema()).unwrap();

        let spec = Migration::union("r", "s", "u").build();
        let options = TransformOptions::default().strategy(strategy);
        let err = submit_sharded(&sdb, &spec, &options).err();
        assert!(matches!(err, Some(DbError::TableExists(_))), "{err:?}");

        let shard0 = sdb.shard(0);
        assert!(shard0.catalog().get("u").is_err(), "shard 0 kept a target");
        for shard in sdb.shards() {
            assert!(shard.migrations().active_jobs().is_empty());
        }
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
        submit_sharded(&sdb, &spec, &options)
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(
            sdb.shards()
                .iter()
                .map(|db| db.catalog().get("u").unwrap().len())
                .sum::<usize>(),
            41
        );
    }

    #[test]
    fn lazy_fan_out_that_cannot_prepare_cuts_no_shard_over() {
        fan_out_that_cannot_prepare_starts_no_shard(SyncStrategy::Lazy);
    }

    #[test]
    fn eager_fan_out_that_cannot_prepare_migrates_no_shard() {
        fan_out_that_cannot_prepare_starts_no_shard(SyncStrategy::NonBlockingAbort);
    }

    fn union_sources(shards: usize) -> ShardedDatabase {
        let sdb = ShardedDatabase::new(shards);
        for name in ["r", "s"] {
            sdb.create_table(name, schema()).unwrap();
            for i in 0..20 {
                sdb.insert(name, vec![Value::Int(i), Value::Int(i)])
                    .unwrap();
            }
        }
        sdb
    }

    /// The phases `db`'s log has recorded, in order.
    fn phases(db: &morph_engine::Database) -> Vec<MigrationPhase> {
        db.log()
            .read_range(morph_common::Lsn(0), usize::MAX)
            .into_iter()
            .filter_map(|(_, rec)| match *rec {
                LogRecord::MigrationState { phase, .. } => Some(phase),
                _ => None,
            })
            .collect()
    }

    /// The alias drives the same per-shard lazy jobs by hand and
    /// records the same phases.
    #[test]
    fn start_lazy_sharded_forwards_to_per_shard_lazy_jobs() {
        let sdb = union_sources(2);
        let lazy = start_lazy_sharded(&sdb, &Migration::union("r", "s", "u").build()).unwrap();
        let r = sdb.shard(0).catalog().get("r").unwrap().id();
        let key = (0..20)
            .map(|i| Key::single(Value::Int(i)))
            .find(|key| sdb.shard_of_key("r", key).unwrap() == 0)
            .unwrap();
        lazy.touch_on(0, r, &key).unwrap();
        while !lazy.is_drained() {
            lazy.backfill_round(4, 1.0).unwrap();
        }
        lazy.finish().unwrap();
        use MigrationPhase::*;
        for shard in sdb.shards() {
            assert!(shard.catalog().get("r").is_err(), "finish kept a source");
            assert!(shard.migrations().active_jobs().is_empty());
            assert_eq!(
                phases(shard),
                [Planned, Preparing, Syncing, Copying, CutOver]
            );
        }
    }

    /// Kills at one point.
    struct KillAt(&'static str);

    impl CrashHook for KillAt {
        fn at(&self, _db: &morph_engine::Database, point: &str) -> DbResult<()> {
            if point == self.0 {
                return Err(DbError::SimulatedCrash(point.into()));
            }
            Ok(())
        }
    }

    /// A shard killed at its cutover fails the alias, and the other
    /// shard, already cut over, completes rather than being stranded
    /// half transformed: it holds every row of its own and no claim.
    #[test]
    fn start_lazy_sharded_completes_the_shards_a_kill_spares() {
        let sdb = union_sources(2);
        sdb.shard(1)
            .set_crash_hook(Arc::new(KillAt("router.lazy_cutover")));
        let err = start_lazy_sharded(&sdb, &Migration::union("r", "s", "u").build()).err();
        assert!(matches!(err, Some(DbError::SimulatedCrash(_))), "{err:?}");

        let shard0 = sdb.shard(0);
        let owned = (0..20)
            .filter(|&i| sdb.shard_of_key("r", &Key::single(Value::Int(i))).unwrap() == 0)
            .count();
        assert_eq!(shard0.catalog().get("u").unwrap().len(), 2 * owned);
        assert!(shard0.catalog().get("r").is_err());
        assert!(shard0.migrations().active_jobs().is_empty());
        assert_eq!(phases(shard0).last(), Some(&MigrationPhase::CutOver));
        // The killed shard recorded it was syncing, and nothing after.
        assert_eq!(phases(sdb.shard(1)).last(), Some(&MigrationPhase::Syncing));
    }
}
