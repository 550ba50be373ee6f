//! CI regression gates merged into a copy of `BENCH_propagation.json`
//! at `target/bench/BENCH_propagation.json` (the tracked file is only
//! read, so a CI run leaves the tree as it found it):
//!
//! 1. **`reader_gate`** — MVCC snapshot reads, on one database while a
//!    split migration and four writer threads run. Snapshot reads take
//!    no transaction locks, so they do not wait for writers: in pairs
//!    timed while the gate's own writer holds a key X-locked,
//!    uncommitted, a snapshot read of that key must be at least 1.2×
//!    faster than a locked read that retries its wait-die deaths until
//!    the writer commits (median of the per-pair ratios, enforced on
//!    ≥ 2 cores). The p50/p99 of random-key locked and snapshot reads
//!    of the migrating source are recorded, not gated. The migration
//!    loop thaws the retained source after each round, so a locked
//!    read fails (`TableFrozen`, counted) only between a round's
//!    cutover and its end.
//! 2. **`shard_gate`** — shared-nothing router: aggregate commit
//!    throughput (8 closed-loop clients through the router) and
//!    aggregate migration throughput (one union fanned out as
//!    per-shard jobs) at 1, 2, 4 and 8 shards, with the shards' summed
//!    WAL flushes and lock waits ([`morph_engine::ShardCounters`]) per
//!    point. On ≥ 4 cores the
//!    4-shard commit rate must be ≥ 1.8× the 1-shard rate.
//! 3. **`lazy_tail`** — SLSM-style lazy mode: hot-shard p50/p99
//!    read/write latency mid-migration, eager §3 pipeline vs lazy
//!    cutover + throttled backfill. On ≥ 4 cores the lazy p99 must
//!    beat the eager p99 on both reads and writes.
//!
//! On a single-CPU host the comparative gates are physically
//! unenforceable — shards and readers time-slice one core — so
//! the measurements are recorded (tagged with the detected core count)
//! and the gates pass: a 1-core number is an overhead reading, not
//! scaling data, and failing on it would just teach people to delete
//! the gate.

use morph_bench::{bench_split_spec, detected_cores, quick};
use morph_common::{ColumnType, Key, Schema, Value};
use morph_core::{MigrationPhase, SyncStrategy, TransformJob, TransformOptions, TransformPlan};
use morph_engine::{Database, ShardedDatabase};
use morph_orchestrator::{submit_sharded, Migration};
use morph_workload::{setup_split_source, ClientConfig, UpdateTarget, WorkloadRunner};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// With the key X-locked by a writer, a snapshot read must be at least
/// this many times faster than a locked read (median of the pairs).
const MIN_READER_P50_RATIO: f64 = 1.2;
/// Router clients driving the shard sweep.
const SHARD_CLIENTS: usize = 8;
/// Aggregate commit rate at 4 shards must beat 1 shard by this factor
/// (enforced on ≥ 4 cores only).
const SHARD_MIN_SPEEDUP: f64 = 1.8;

/// Every series this binary owns inside `BENCH_propagation.json`
/// (previous results are stripped before the fresh block is spliced).
const MERGED_SERIES: [&str; 3] = ["reader_gate", "shard_gate", "lazy_tail"];

/// Splice this binary's series into a copy of the tracked
/// `BENCH_propagation.json` under `target/bench/`, replacing any
/// previous results. Inserts a top-level `"cores"` field if the file
/// predates it.
fn merge_into_bench_json(cores: usize, mut block: Vec<String>) {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let tracked = root.join("BENCH_propagation.json");
    let dir = root.join("target/bench");
    let path = dir.join("BENCH_propagation.json");
    let Ok(text) = std::fs::read_to_string(&tracked) else {
        println!(
            "no {} to merge into (run the bench first)",
            tracked.display()
        );
        return;
    };
    let mut lines: Vec<String> = text
        .lines()
        .filter(|l| {
            !MERGED_SERIES
                .iter()
                .any(|s| l.contains(&format!("\"series\": \"{s}\"")))
        })
        .map(str::to_owned)
        .collect();
    if !lines
        .iter()
        .any(|l| l.trim_start().starts_with("\"cores\""))
    {
        if let Some(i) = lines.iter().position(|l| l.contains("\"bench\"")) {
            lines.insert(i + 1, format!("  \"cores\": {cores},"));
        }
    }
    if let Some(close) = lines.iter().rposition(|l| l.trim() == "]") {
        if close > 0 {
            let prev = lines[close - 1].trim_end().trim_end_matches(',').to_owned();
            lines[close - 1] = format!("{prev},");
        }
        let n = block.len();
        for (i, line) in block.iter_mut().enumerate() {
            if i + 1 < n {
                line.push(',');
            }
        }
        lines.splice(close..close, block);
        std::fs::create_dir_all(&dir).expect("create target/bench");
        std::fs::write(&path, lines.join("\n") + "\n").expect("merge propagation json");
        println!("merged {:?} series into {}", MERGED_SERIES, path.display());
    }
}

// --- reader gate -------------------------------------------------------------

fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() as f64 - 1.0) * p).round() as usize;
    sorted_ns[idx] as f64 / 1_000.0
}

struct ReaderGate {
    lock_p50_us: f64,
    lock_p99_us: f64,
    lock_failed: usize,
    snap_p50_us: f64,
    snap_p99_us: f64,
    reads_per_mode: usize,
    held_pairs: usize,
    held_lock_p50_us: f64,
    held_snap_p50_us: f64,
    held_ratio_p50: f64,
    migration_rounds: usize,
    writer_commits: u64,
}

/// Options every migration in this binary runs under: sources kept (the
/// readers and writers need them), generous deadline.
fn migration_options() -> TransformOptions {
    TransformOptions::default()
        .retain_sources()
        .deadline(Duration::from_secs(120))
}

/// The table of the gate's held key: one row, written only by the gate's
/// own writer, so the migration and the updaters never lock it.
const GATE_TABLE: &str = "G";
/// How long the gate's writer holds its X lock, uncommitted, per pair.
const GATE_HOLD: Duration = Duration::from_millis(2);

/// One held-key pair: the gate's writer X-locks `key` and holds it,
/// uncommitted, for [`GATE_HOLD`]. Inside that interval a snapshot read
/// of the key is timed, then a locked read that retries its wait-die
/// deaths until it succeeds, which is once the writer has committed.
/// Returns the (locked, snapshot) read times in ns.
fn held_key_pair(db: &Arc<Database>, key: &Key) -> (u64, u64) {
    let (locked, holding) = std::sync::mpsc::channel();
    let writer = {
        let (db, key) = (Arc::clone(db), key.clone());
        std::thread::spawn(move || {
            let txn = db.begin();
            db.update(txn, GATE_TABLE, &key, &[(1, Value::str("held"))])
                .expect("gate writer");
            locked.send(()).expect("gate reader gone");
            std::thread::sleep(GATE_HOLD);
            db.commit(txn).expect("gate writer commit");
        })
    };
    holding.recv().expect("gate writer never locked");

    let t0 = Instant::now();
    let snap = db.begin_snapshot().expect("snapshot");
    let _ = db
        .snapshot_read(&snap, GATE_TABLE, key)
        .expect("snapshot read");
    drop(snap);
    let snap_ns = t0.elapsed().as_nanos() as u64;

    let t0 = Instant::now();
    loop {
        let txn = db.begin();
        if db.read(txn, GATE_TABLE, key).is_ok() {
            db.commit(txn).expect("locked read commit");
            break;
        }
        db.abort(txn).expect("locked read abort");
        std::thread::yield_now();
    }
    let lock_ns = t0.elapsed().as_nanos() as u64;
    writer.join().expect("gate writer");
    (lock_ns, snap_ns)
}

/// Time lock-based and snapshot point reads on one database while a
/// split migration loops and four writers update the source: first
/// random keys of the source, the two modes interleaved so both see the
/// same traffic mix (recorded), then held-key pairs on the gate's own
/// table (gated).
fn reader_gate() -> ReaderGate {
    let rows: i64 = if quick() { 2_000 } else { 10_000 };
    let reads: usize = if quick() { 300 } else { 1_500 };
    let pairs: usize = if quick() { 10 } else { 50 };
    let db = Arc::new(Database::new());
    setup_split_source(&db, rows as usize, rows as usize / 5).expect("split source");
    let gate = Schema::builder()
        .column("id", ColumnType::Int)
        .nullable("v", ColumnType::Str)
        .primary_key(&["id"])
        .build()
        .expect("gate schema");
    db.create_table(GATE_TABLE, gate).expect("gate table");
    let held_key = Key::single(0);
    let txn = db.begin();
    db.insert(txn, GATE_TABLE, vec![Value::Int(0), Value::str("free")])
        .expect("gate row");
    db.commit(txn).expect("gate row commit");
    db.enable_mvcc();

    let pool = WorkloadRunner::start(
        Arc::clone(&db),
        ClientConfig {
            updates_per_txn: 1,
            hot_fraction: 1.0,
            targets: vec![UpdateTarget::new("T", rows, 1)],
            dummy: None,
            pacing: Some(Duration::from_micros(50)),
        },
        4,
    );
    let stop = Arc::new(AtomicBool::new(false));
    let mig = {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut rounds = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let plan = TransformPlan::Split(bench_split_spec(
                    &format!("__rg{rounds}_r"),
                    &format!("__rg{rounds}_s"),
                    false,
                ));
                TransformJob::prepare(&db, &plan, migration_options())
                    .and_then(|job| job.run(&AtomicBool::new(false), None, |_| Ok(())))
                    .expect("reader-gate migration");
                // The retained source stays frozen after the cutover;
                // thaw it first, so that readers and writers use it
                // again and the next round migrates a live table.
                db.catalog().get("T").expect("source T").reactivate();
                let _ = db.catalog().drop_table(&format!("__rg{rounds}_r"));
                let _ = db.catalog().drop_table(&format!("__rg{rounds}_s"));
                rounds += 1;
            }
            rounds
        })
    };
    // Let the first migration get in flight before measuring.
    std::thread::sleep(Duration::from_millis(100));

    let mut lock_ns = Vec::with_capacity(reads);
    let mut lock_failed = 0usize;
    let mut snap_ns = Vec::with_capacity(reads);
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..reads {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let key = morph_common::Key::single(((x >> 33) as i64).rem_euclid(rows));

        // Lock-based: a complete read-only transaction — begin, S-lock
        // read, commit. Lock conflicts (wait-die aborts, frozen source
        // after a cutover) are real reader-visible latency, so errors
        // still count.
        let t0 = Instant::now();
        let txn = db.begin();
        let read = db.read(txn, "T", &key);
        let _ = if read.is_ok() {
            db.commit(txn)
        } else {
            lock_failed += 1;
            db.abort(txn)
        };
        lock_ns.push(t0.elapsed().as_nanos() as u64);

        // Snapshot: timestamp, versioned read, release. No locks, no WAL.
        let t0 = Instant::now();
        let snap = db.begin_snapshot().expect("snapshot");
        let _ = db.snapshot_read(&snap, "T", &key).expect("snapshot read");
        drop(snap);
        snap_ns.push(t0.elapsed().as_nanos() as u64);
    }
    // The held-key pairs run after the random keys, so that their writer
    // threads leave the recorded series undisturbed.
    let held: Vec<(u64, u64)> = (0..pairs).map(|_| held_key_pair(&db, &held_key)).collect();

    stop.store(true, Ordering::Relaxed);
    let migration_rounds = mig.join().expect("migration loop");
    let writer_commits = pool.stop();
    lock_ns.sort_unstable();
    snap_ns.sort_unstable();
    let mut held_lock: Vec<u64> = held.iter().map(|p| p.0).collect();
    let mut held_snap: Vec<u64> = held.iter().map(|p| p.1).collect();
    let mut ratios: Vec<f64> = held
        .iter()
        .map(|&(lock, snap)| lock as f64 / snap.max(1) as f64)
        .collect();
    held_lock.sort_unstable();
    held_snap.sort_unstable();
    ratios.sort_by(f64::total_cmp);
    ReaderGate {
        lock_p50_us: percentile_us(&lock_ns, 0.50),
        lock_p99_us: percentile_us(&lock_ns, 0.99),
        lock_failed,
        snap_p50_us: percentile_us(&snap_ns, 0.50),
        snap_p99_us: percentile_us(&snap_ns, 0.99),
        reads_per_mode: reads,
        held_pairs: held.len(),
        held_lock_p50_us: percentile_us(&held_lock, 0.50),
        held_snap_p50_us: percentile_us(&held_snap, 0.50),
        held_ratio_p50: ratios.get(ratios.len() / 2).copied().unwrap_or(0.0),
        migration_rounds,
        writer_commits,
    }
}

// --- shard gate --------------------------------------------------------------

fn union_source_schema() -> Schema {
    Schema::builder()
        .column("id", ColumnType::Int)
        .column("v", ColumnType::Int)
        .primary_key(&["id"])
        .build()
        .expect("union source schema")
}

/// Router over `shards` engines with both union sources seeded through
/// the routed insert path.
fn seeded_router(shards: usize, rows: i64) -> Arc<ShardedDatabase> {
    let sdb = Arc::new(ShardedDatabase::new(shards));
    for name in ["r", "s"] {
        sdb.create_table(name, union_source_schema())
            .expect("create source");
    }
    for i in 0..rows {
        sdb.insert("r", vec![Value::Int(i), Value::Int(i)])
            .expect("seed r");
        sdb.insert("s", vec![Value::Int(i), Value::Int(i)])
            .expect("seed s");
    }
    sdb
}

struct ShardPoint {
    shards: usize,
    commit_rate: f64,
    propagate_rate: f64,
    migrated_records: usize,
    counters: morph_engine::ShardCounters,
}

/// One point of the shard sweep: closed-loop commit throughput through
/// the router, then one migration fanned out over every shard.
fn shard_gate_point(shards: usize) -> ShardPoint {
    let rows: i64 = if quick() { 1_500 } else { 6_000 };
    let ops: usize = if quick() { 200 } else { 800 };
    let sdb = seeded_router(shards, rows);

    // Wait–die can victimize a client that collides on a hot key;
    // that's an abort, not a harness failure — only successful commits
    // count toward the rate.
    let committed = std::sync::atomic::AtomicUsize::new(0);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..SHARD_CLIENTS {
            let sdb = Arc::clone(&sdb);
            let committed = &committed;
            scope.spawn(move || {
                for j in 0..ops {
                    let id = ((c * ops + j) as i64).wrapping_mul(7) % rows;
                    if sdb
                        .update("r", &Key::single(id), &[(1, Value::Int(j as i64))])
                        .is_ok()
                    {
                        committed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let commit_rate = committed.load(Ordering::Relaxed) as f64 / t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let mig = submit_sharded(
        &sdb,
        &Migration::union("r", "s", "u").build(),
        &TransformOptions::default()
            .retain_sources()
            .deadline(Duration::from_secs(120)),
    )
    .expect("sharded submit");
    let reports = mig.join().expect("sharded migration");
    let prop_elapsed = t1.elapsed().as_secs_f64();
    let migrated_records: usize = reports
        .iter()
        .flatten()
        .map(|r| {
            r.population.rows_read
                + r.iterations.iter().map(|i| i.records).sum::<usize>()
                + r.post_records
        })
        .sum();
    ShardPoint {
        shards,
        commit_rate,
        propagate_rate: migrated_records as f64 / prop_elapsed,
        migrated_records,
        counters: sdb.counters(),
    }
}

fn shard_gate(entries: &mut Vec<String>, failures: &mut Vec<String>, cores: usize) {
    let mut base_rate = 0.0f64;
    let mut rate_at_4 = 0.0f64;
    for shards in [1usize, 2, 4, 8] {
        let p = shard_gate_point(shards);
        let t = &p.counters.total;
        println!(
            "  shards={:>2}: {:>9.0} commits/s aggregate, {:>9.0} migrated records/s \
             ({} records; wal_flushes {}, lock_waits {})",
            p.shards,
            p.commit_rate,
            p.propagate_rate,
            p.migrated_records,
            t.wal_flushes,
            t.lock_waits,
        );
        if p.shards == 1 {
            base_rate = p.commit_rate;
        }
        if p.shards == 4 {
            rate_at_4 = p.commit_rate;
        }
        entries.push(format!(
            "    {{ \"series\": \"shard_gate\", \"shards\": {}, \"clients\": {SHARD_CLIENTS}, \"commit_rate\": {:.0}, \"propagate_rate\": {:.0}, \"migrated_records\": {}, \"wal_flushes\": {}, \"lock_waits\": {} }}",
            p.shards, p.commit_rate, p.propagate_rate, p.migrated_records,
            t.wal_flushes, t.lock_waits,
        ));
    }
    let speedup = if base_rate > 0.0 {
        rate_at_4 / base_rate
    } else {
        0.0
    };
    println!("  shard speedup 4 vs 1: {speedup:.2}x");
    if cores < 4 {
        println!("  shard_gate: SKIPPED (cores={cores} < 4) — speedup recorded, not enforced");
    } else if speedup < SHARD_MIN_SPEEDUP {
        failures.push(format!(
            "shard: 4 shards is {speedup:.2}x the 1-shard commit rate (need ≥ {SHARD_MIN_SPEEDUP:.1}x)"
        ));
    }
}

// --- lazy tail ---------------------------------------------------------------

/// Gap between latency samples. Pacing stretches the sampling loop
/// over a wall-clock window wide enough to overlap the background
/// migration/backfill; the sleep sits outside the timed sections so
/// it never contaminates the percentiles.
const TAIL_PACE: Duration = Duration::from_micros(100);

/// Duty cycle shared by the eager migration and the lazy backfill so
/// the two modes chase the same background budget while we sample.
const TAIL_PRIORITY: f64 = 0.05;

struct TailPoint {
    read_p50_us: f64,
    read_p99_us: f64,
    write_p50_us: f64,
    write_p99_us: f64,
    samples: usize,
    mid_migration: usize,
}

fn tail_of(mut read_ns: Vec<u64>, mut write_ns: Vec<u64>, mid: usize) -> TailPoint {
    read_ns.sort_unstable();
    write_ns.sort_unstable();
    TailPoint {
        read_p50_us: percentile_us(&read_ns, 0.50),
        read_p99_us: percentile_us(&read_ns, 0.99),
        write_p50_us: percentile_us(&write_ns, 0.50),
        write_p99_us: percentile_us(&write_ns, 0.99),
        samples: read_ns.len(),
        mid_migration: mid,
    }
}

/// Ids owned by the hot shard (shard 0) — the sampled key set for both
/// modes, identical because routing is a pure key hash.
fn hot_ids(sdb: &ShardedDatabase, rows: i64) -> Vec<i64> {
    (0..rows)
        .filter(|&i| {
            sdb.shard_of_key("r", &Key::single(i))
                .expect("route source key")
                == 0
        })
        .collect()
}

/// Hot-shard read/write latency while the **eager** §3 pipeline
/// migrates every shard: clients keep using the sources until cutover.
/// Mid-migration errors (wait–die, doomed transactions at sync) are
/// real client-visible latency, so they count like successes.
fn lazy_tail_eager(rows: i64, samples: usize) -> TailPoint {
    let sdb = seeded_router(2, rows);
    let ids = hot_ids(&sdb, rows);
    let done = Arc::new(AtomicBool::new(false));
    let mig = {
        let sdb = Arc::clone(&sdb);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mig = submit_sharded(
                &sdb,
                &Migration::union("r", "s", "u").build(),
                // Low duty cycle: the throttled copy stretches the
                // migration past the sampling window.
                &migration_options().priority(TAIL_PRIORITY),
            )
            .expect("eager submit");
            mig.join().expect("eager migration");
            done.store(true, Ordering::Relaxed);
        })
    };
    std::thread::sleep(Duration::from_millis(5));

    let mut read_ns = Vec::with_capacity(samples);
    let mut write_ns = Vec::with_capacity(samples);
    let mut mid = 0usize;
    for s in 0..samples {
        let id = ids[s % ids.len()];
        let key = Key::single(id);
        if !done.load(Ordering::Relaxed) {
            mid += 1;
        }
        let t0 = Instant::now();
        let _ = sdb.read("r", &key);
        read_ns.push(t0.elapsed().as_nanos() as u64);
        let t0 = Instant::now();
        let _ = sdb.update("r", &key, &[(1, Value::Int(s as i64))]);
        write_ns.push(t0.elapsed().as_nanos() as u64);
        std::thread::sleep(TAIL_PACE);
    }
    mig.join().expect("migration thread");
    tail_of(read_ns, write_ns, mid)
}

/// Hot-shard read/write latency in **lazy** mode: catalog already cut
/// over, clients address the target immediately, the first touch of a
/// record transforms it, and a throttled backfill drains the rest in
/// the background at the same duty cycle the eager run migrates with.
fn lazy_tail_lazy(rows: i64, samples: usize) -> TailPoint {
    let sdb = seeded_router(2, rows);
    let ids = hot_ids(&sdb, rows);
    // Target keys prepend the provenance tag: route them by suffix so
    // they land on the source row's shard.
    sdb.route_key_suffix("u", 1);
    let options = TransformOptions {
        strategy: SyncStrategy::Lazy,
        batch_size: 64,
        ..migration_options().priority(TAIL_PRIORITY)
    };
    let mig = submit_sharded(&sdb, &Migration::union("r", "s", "u").build(), &options)
        .expect("lazy submit");
    // Clients address the targets from the cutover on.
    for (_, handle) in mig.handles() {
        while matches!(
            handle.progress().phase(),
            MigrationPhase::Planned | MigrationPhase::Preparing | MigrationPhase::Syncing
        ) && !handle.is_finished()
        {
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    let mut read_ns = Vec::with_capacity(samples);
    let mut write_ns = Vec::with_capacity(samples);
    let mut mid = 0usize;
    for s in 0..samples {
        let id = ids[s % ids.len()];
        let key = Key::new([Value::str("r"), Value::Int(id)]);
        if mig.handles().iter().any(|(_, h)| !h.is_finished()) {
            mid += 1;
        }
        let t0 = Instant::now();
        let _ = sdb.read("u", &key);
        read_ns.push(t0.elapsed().as_nanos() as u64);
        let t0 = Instant::now();
        let _ = sdb.update("u", &key, &[(2, Value::Int(s as i64))]);
        write_ns.push(t0.elapsed().as_nanos() as u64);
        std::thread::sleep(TAIL_PACE);
    }
    mig.join().expect("lazy migration");
    tail_of(read_ns, write_ns, mid)
}

fn lazy_tail(entries: &mut Vec<String>, failures: &mut Vec<String>, cores: usize) {
    let rows: i64 = if quick() { 2_000 } else { 10_000 };
    let samples: usize = if quick() { 300 } else { 1_200 };
    let eager = lazy_tail_eager(rows, samples);
    let lazy = lazy_tail_lazy(rows, samples);
    for (tag, p) in [("eager", &eager), ("lazy", &lazy)] {
        println!(
            "  {tag:>5}: read p50 {:.1} µs p99 {:.1} µs | write p50 {:.1} µs p99 {:.1} µs \
             ({} samples, {} mid-migration)",
            p.read_p50_us,
            p.read_p99_us,
            p.write_p50_us,
            p.write_p99_us,
            p.samples,
            p.mid_migration,
        );
        entries.push(format!(
            "    {{ \"series\": \"lazy_tail\", \"mode\": \"{tag}\", \"rows\": {rows}, \"read_p50_us\": {:.1}, \"read_p99_us\": {:.1}, \"write_p50_us\": {:.1}, \"write_p99_us\": {:.1}, \"samples\": {}, \"mid_migration\": {} }}",
            p.read_p50_us, p.read_p99_us, p.write_p50_us, p.write_p99_us,
            p.samples, p.mid_migration,
        ));
    }
    if cores < 4 {
        println!("  lazy_tail: SKIPPED (cores={cores} < 4) — percentiles recorded, not enforced");
    } else if lazy.read_p99_us >= eager.read_p99_us || lazy.write_p99_us >= eager.write_p99_us {
        failures.push(format!(
            "lazy tail: lazy p99 (read {:.1} µs, write {:.1} µs) does not beat eager \
             (read {:.1} µs, write {:.1} µs)",
            lazy.read_p99_us, lazy.write_p99_us, eager.read_p99_us, eager.write_p99_us,
        ));
    }
}

fn main() {
    let cores = detected_cores();
    println!("bench_check: MVCC reader, shard and lazy-tail gates (cores={cores})");

    let mut entries: Vec<String> = Vec::new();
    let mut failures: Vec<String> = Vec::new();

    println!("reader gate: lock-based vs snapshot point reads during migration + 4 writers");
    let rg = reader_gate();
    let ratio_of = |lock: f64, snap: f64| {
        if snap > 0.0 {
            lock / snap
        } else {
            f64::INFINITY
        }
    };
    let p50_ratio = ratio_of(rg.lock_p50_us, rg.snap_p50_us);
    let p99_ratio = ratio_of(rg.lock_p99_us, rg.snap_p99_us);
    println!(
        "  random keys (recorded): lock-based p50 {:.1} µs, p99 {:.1} µs ({} failed) \
         | snapshot p50 {:.1} µs, p99 {:.1} µs | p50 ratio {p50_ratio:.2}x, p99 ratio {p99_ratio:.2}x \
         ({} reads/mode, {} migration rounds, {} writer commits)",
        rg.lock_p50_us,
        rg.lock_p99_us,
        rg.lock_failed,
        rg.snap_p50_us,
        rg.snap_p99_us,
        rg.reads_per_mode,
        rg.migration_rounds,
        rg.writer_commits,
    );
    println!(
        "  held key (gated): lock-based p50 {:.1} µs | snapshot p50 {:.1} µs \
         | median paired ratio {:.2}x ({} pairs, writer holds {} ms)",
        rg.held_lock_p50_us,
        rg.held_snap_p50_us,
        rg.held_ratio_p50,
        rg.held_pairs,
        GATE_HOLD.as_millis(),
    );
    entries.push(format!(
        "    {{ \"series\": \"reader_gate\", \"cores\": {cores}, \"lock_p50_us\": {:.1}, \"lock_p99_us\": {:.1}, \"lock_failed\": {}, \"snapshot_p50_us\": {:.1}, \"snapshot_p99_us\": {:.1}, \"p50_ratio\": {p50_ratio:.2}, \"p99_ratio\": {p99_ratio:.2}, \"reads_per_mode\": {}, \"held_pairs\": {}, \"held_lock_p50_us\": {:.1}, \"held_snapshot_p50_us\": {:.1}, \"held_ratio_p50\": {:.2}, \"migration_rounds\": {}, \"writer_commits\": {} }}",
        rg.lock_p50_us,
        rg.lock_p99_us,
        rg.lock_failed,
        rg.snap_p50_us,
        rg.snap_p99_us,
        rg.reads_per_mode,
        rg.held_pairs,
        rg.held_lock_p50_us,
        rg.held_snap_p50_us,
        rg.held_ratio_p50,
        rg.migration_rounds,
        rg.writer_commits,
    ));
    if rg.held_ratio_p50 < MIN_READER_P50_RATIO {
        failures.push(format!(
            "reader: with the key X-locked, a snapshot read is only {:.2}x faster than a \
             locked read (median of {} pairs; need ≥ {MIN_READER_P50_RATIO:.1}x)",
            rg.held_ratio_p50, rg.held_pairs
        ));
    }

    println!("shard gate: {SHARD_CLIENTS} router clients + fanned-out migration, shards 1/2/4/8");
    shard_gate(&mut entries, &mut failures, cores);

    println!("lazy tail: hot-shard read/write latency mid-migration, eager vs lazy");
    lazy_tail(&mut entries, &mut failures, cores);

    merge_into_bench_json(cores, entries);

    if cores < 2 {
        println!(
            "  reader_gate: SKIPPED (cores={cores} < 2) — held-key ≥{MIN_READER_P50_RATIO:.1}x \
             ratio recorded, not enforced"
        );
        return;
    }
    if failures.is_empty() {
        println!(
            "gates OK: snapshot reads of a held key beat locked reads by ≥{MIN_READER_P50_RATIO:.1}x"
        );
    } else {
        for f in &failures {
            eprintln!("bench gate FAILED: {f}");
        }
        std::process::exit(1);
    }
}
