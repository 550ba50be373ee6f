//! Direct probes: what one call into a layer costs when nothing else
//! runs. A workload span (`engine.update`, `engine.commit`, …) cannot
//! say how its time divides among the crates below it until the program
//! has spans of its own (ROADMAP item 2), so the traced pass times each
//! layer's public entry points here — single-threaded, on fixed inputs,
//! with fixed operation counts — and the report subtracts them from the
//! engine spans. The probes do not depend on the workload; each traced
//! run repeats them so that a drift of the host shows beside the spans
//! it distorts.

use crate::workloads::ModelDisk;
use morphdb::engine::ShardedDatabase;
use morphdb::orchestrator::{start_lazy_sharded, Migration};
use morphdb::storage::{Claim, CommitTable, ResidualSet, Table};
use morphdb::txn::{LockManager, LockManagerConfig, LockMode};
use morphdb::wal::codec::{decode_ref, encode};
use morphdb::wal::{
    Backend, FileBackend, GroupCommitConfig, LogManager, LogOp, LogRecord, WalMode,
};
use morphdb::{ColumnType, Key, Lsn, Schema, TableId, TxnId, Value};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const ROWS: i64 = 50_000;
const LOG_RECORDS: u64 = 100_000;
const DURABLE_COMMITS: u64 = 200;
const ROUTER_OPS: i64 = 20_000;
const LAZY_ROWS: i64 = 10_000;

#[derive(Default, Debug)]
pub struct Probes {
    pub wal_encode_ns: f64,
    pub wal_decode_ns: f64,
    pub wal_append_ns: f64,
    pub wal_read_range_ns: f64,
    pub wal_durable_wait_us: f64,
    pub wal_sync_data_us: f64,
    pub wal_bytes_per_record: f64,
    pub txn_lock_acquire_ns: f64,
    pub txn_release_all_ns: f64,
    pub storage_get_ns: f64,
    pub storage_update_ns: f64,
    pub storage_insert_ns: f64,
    pub storage_fuzzy_scan_rows_per_s: f64,
    pub storage_mvcc_read_ns: f64,
    pub storage_residual_claim_ns: f64,
    pub router_update_ns: f64,
    pub router_read_ns: f64,
    pub router_overhead_ns: f64,
    pub lazy_first_touch_us: f64,
}

fn per_op(t: Instant, ops: u64) -> f64 {
    t.elapsed().as_nanos() as f64 / ops as f64
}

/// The record a 10-update transaction logs ten times.
fn update_record(i: u64) -> LogRecord {
    LogRecord::Op {
        txn: TxnId(i / 10 + 1),
        op: LogOp::Update {
            table: TableId(1),
            key: Key::single(i as i64),
            old: vec![(1, Value::str(format!("w{}", i.wrapping_sub(1))))],
            new: vec![(1, Value::str(format!("w{i}")))],
        },
    }
}

fn table() -> Arc<Table> {
    let schema = Schema::builder()
        .column("id", ColumnType::Int)
        .nullable("v", ColumnType::Str)
        .primary_key(&["id"])
        .build()
        .expect("probe schema is valid");
    Arc::new(Table::new(TableId(1), "probe", schema))
}

fn wal(p: &mut Probes, dir: &Path) -> Result<(), String> {
    let records: Vec<LogRecord> = (0..LOG_RECORDS).map(update_record).collect();
    let t = Instant::now();
    let encoded: Vec<_> = records.iter().map(|r| encode(black_box(r))).collect();
    p.wal_encode_ns = per_op(t, LOG_RECORDS);
    p.wal_bytes_per_record =
        encoded.iter().map(|b| b.len()).sum::<usize>() as f64 / LOG_RECORDS as f64;

    let t = Instant::now();
    for bytes in &encoded {
        black_box(decode_ref(black_box(bytes)).map_err(|e| e.to_string())?);
    }
    p.wal_decode_ns = per_op(t, LOG_RECORDS);

    let log = LogManager::new_in(WalMode::Group);
    let t = Instant::now();
    for r in records {
        black_box(log.append(r));
    }
    p.wal_append_ns = per_op(t, LOG_RECORDS);

    let t = Instant::now();
    let mut from = Lsn(1);
    loop {
        // 256 per batch, the propagator's default batch size.
        let batch = log.read_range(from, 256);
        match batch.last() {
            Some((last, _)) => from = last.next(),
            None => break,
        }
        black_box(batch);
    }
    p.wal_read_range_ns = per_op(t, LOG_RECORDS);

    // One commit record appended and waited for, on the modelled device
    // the durable workloads use and on the sandbox's real `sync_data`.
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("wal-probe-{}.log", std::process::id()));
    let commit_wait_us = |backend: Box<dyn Backend + Send>| {
        let log =
            LogManager::with_backend_mode(backend, WalMode::Group, GroupCommitConfig::default());
        let t = Instant::now();
        for i in 0..DURABLE_COMMITS {
            let lsn = log.append(LogRecord::Commit { txn: TxnId(i + 1) });
            log.wait_durable(lsn).map_err(|e| e.to_string())?;
        }
        Ok::<f64, String>(per_op(t, DURABLE_COMMITS) / 1e3)
    };
    let timed = ModelDisk::create(&path)
        .and_then(|disk| commit_wait_us(Box::new(disk)))
        .and_then(|model| {
            let _ = std::fs::remove_file(&path);
            let real = FileBackend::open(&path).map_err(|e| e.to_string())?;
            Ok((model, commit_wait_us(Box::new(real))?))
        });
    let _ = std::fs::remove_file(&path);
    (p.wal_durable_wait_us, p.wal_sync_data_us) = timed?;
    Ok(())
}

fn locks(p: &mut Probes) -> Result<(), String> {
    let lm = LockManager::new(LockManagerConfig::default());
    let keys: Vec<Key> = (0..ROWS).map(Key::single).collect();
    let (mut acquire, mut release) = (0u128, 0u128);
    // Ten locks per transaction, as the write transactions take.
    for (n, chunk) in keys.chunks(10).enumerate() {
        let txn = TxnId(n as u64 + 1);
        let t = Instant::now();
        for key in chunk {
            lm.lock(txn, TableId(1), key, LockMode::Exclusive)
                .map_err(|e| e.to_string())?;
        }
        acquire += t.elapsed().as_nanos();
        let t = Instant::now();
        lm.release_all(txn);
        release += t.elapsed().as_nanos();
    }
    p.txn_lock_acquire_ns = acquire as f64 / ROWS as f64;
    p.txn_release_all_ns = release as f64 / (ROWS / 10) as f64;
    Ok(())
}

fn storage(p: &mut Probes) -> Result<(), String> {
    let t = table();
    let start = Instant::now();
    for i in 0..ROWS {
        t.insert(
            vec![Value::Int(i), Value::str("payload")],
            Lsn(i as u64 + 1),
        )
        .map_err(|e| e.to_string())?;
    }
    p.storage_insert_ns = per_op(start, ROWS as u64);

    let start = Instant::now();
    for i in 0..ROWS {
        black_box(t.get(&Key::single(i * 7 % ROWS)));
    }
    p.storage_get_ns = per_op(start, ROWS as u64);

    let start = Instant::now();
    for i in 0..ROWS {
        let cols = [(1, Value::str("w1"))];
        t.update(
            &Key::single(i * 7 % ROWS),
            &cols,
            Lsn((ROWS + i) as u64 + 1),
        )
        .map_err(|e| e.to_string())?;
    }
    p.storage_update_ns = per_op(start, ROWS as u64);

    let start = Instant::now();
    let mut scan = t.fuzzy_scan_partition(1_024, 0, 1);
    let mut rows = 0u64;
    loop {
        let chunk = scan.next_chunk();
        if chunk.is_empty() {
            break;
        }
        rows += chunk.len() as u64;
        black_box(chunk);
    }
    p.storage_fuzzy_scan_rows_per_s = rows as f64 / start.elapsed().as_secs_f64();

    // A versioned table where every row has one archived pre-image;
    // read at a snapshot older than the second write.
    let v = table();
    v.enable_versioning();
    let commits = CommitTable::new();
    for i in 0..ROWS {
        v.insert(
            vec![Value::Int(i), Value::str("payload")],
            Lsn(i as u64 + 1),
        )
        .map_err(|e| e.to_string())?;
    }
    let snapshot = Lsn(ROWS as u64 + 1);
    for i in 0..ROWS {
        let cols = [(1, Value::str("w1"))];
        v.update(&Key::single(i), &cols, Lsn((ROWS + i) as u64 + 2))
            .map_err(|e| e.to_string())?;
    }
    let start = Instant::now();
    for i in 0..ROWS {
        black_box(v.snapshot_get(&Key::single(i * 7 % ROWS), snapshot, &commits));
    }
    p.storage_mvcc_read_ns = per_op(start, ROWS as u64);

    let residual = ResidualSet::new();
    for i in 0..ROWS {
        residual.track(TableId(1), Key::single(i));
    }
    let start = Instant::now();
    for i in 0..ROWS {
        if let Claim::Transform(guard) = residual.claim(TableId(1), &Key::single(i * 7 % ROWS)) {
            guard.complete();
        }
    }
    p.storage_residual_claim_ns = per_op(start, ROWS as u64);
    Ok(())
}

fn router(p: &mut Probes, shards: usize) -> Result<(), String> {
    let schema = || {
        Schema::builder()
            .column("id", ColumnType::Int)
            .nullable("v", ColumnType::Str)
            .primary_key(&["id"])
            .build()
    };
    let sdb = ShardedDatabase::with_wal_mode(shards, WalMode::Group);
    let mut run = || -> morphdb::DbResult<()> {
        for name in ["r", "s"] {
            sdb.create_table(name, schema()?)?;
            for i in 0..ROUTER_OPS.max(LAZY_ROWS) {
                sdb.insert(name, vec![Value::Int(i), Value::str("payload")])?;
            }
        }
        let cols = [(1, Value::str("w1"))];
        let t = Instant::now();
        for i in 0..ROUTER_OPS {
            black_box(sdb.read("r", &Key::single(i))?);
        }
        p.router_read_ns = per_op(t, ROUTER_OPS as u64);
        // The same update through the router and on the owning shard by
        // a caller that already knows it; what is left is the router's
        // own cost. The difference of two near-equal means drowns in a
        // drifting host unless they are taken side by side, so the two
        // alternate in blocks of 500.
        let owners: Vec<usize> = (0..ROUTER_OPS)
            .map(|i| sdb.shard_of_key("r", &Key::single(i)))
            .collect::<Result<_, _>>()?;
        let (mut routed, mut direct) = (0u128, 0u128);
        for start in (0..ROUTER_OPS).step_by(500) {
            let block = start..(start + 500).min(ROUTER_OPS);
            let t = Instant::now();
            for i in block.clone() {
                sdb.update("r", &Key::single(i), &cols)?;
            }
            routed += t.elapsed().as_nanos();
            let t = Instant::now();
            for i in block {
                let db = sdb.shard(owners[i as usize]);
                let txn = db.begin();
                db.update(txn, "r", &Key::single(i), &cols)?;
                db.commit(txn)?;
            }
            direct += t.elapsed().as_nanos();
        }
        p.router_update_ns = routed as f64 / ROUTER_OPS as f64;
        p.router_overhead_ns = (routed as f64 - direct as f64) / ROUTER_OPS as f64;

        // First touch: cut over lazily, start no backfill, and time the
        // transform of each pending record on its own.
        sdb.route_key_suffix("u", 1);
        let lazy = start_lazy_sharded(&sdb, &Migration::union("r", "s", "u").build())?;
        let r_ids: Vec<_> = sdb
            .shards()
            .iter()
            .map(|db| db.catalog().get("r").map(|t| t.id()))
            .collect::<Result<_, _>>()?;
        let t = Instant::now();
        for i in 0..LAZY_ROWS {
            let owner = owners[i as usize];
            lazy.touch_on(owner, r_ids[owner], &Key::single(i))?;
        }
        p.lazy_first_touch_us = per_op(t, LAZY_ROWS as u64) / 1e3;
        lazy.drain_now()?;
        lazy.finish()
    };
    run().map_err(|e| e.to_string())
}

pub fn run(dir: &Path, shards: usize) -> Result<Probes, String> {
    let mut p = Probes::default();
    wal(&mut p, dir)?;
    locks(&mut p)?;
    storage(&mut p)?;
    router(&mut p, shards)?;
    Ok(p)
}
