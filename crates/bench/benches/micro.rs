//! Criterion microbenchmarks of the components the transformation's
//! cost model is built from: log append + codec, record locking,
//! physical table operations, fuzzy-scan chunking, and the FOJ / split
//! propagation rules themselves.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use morph_common::{ColumnType, Key, Lsn, Schema, TableId, TxnId, Value};
use morph_core::{FojMapping, FojSpec, SplitMapping, SplitSpec, TransformOperator};
use morph_engine::Database;
use morph_storage::Table;
use morph_txn::{LockManager, LockMode};
use morph_wal::{codec, LogManager, LogOp, LogRecord};
use std::sync::Arc;

fn sample_record() -> LogRecord {
    LogRecord::Op {
        txn: TxnId(42),
        op: LogOp::Update {
            table: TableId(3),
            key: Key::single(123_456),
            old: vec![(1, Value::str("old-payload"))],
            new: vec![(1, Value::str("new-payload"))],
        },
    }
}

fn bench_wal(c: &mut Criterion) {
    let mut g = c.benchmark_group("wal");
    g.throughput(Throughput::Elements(1));
    g.bench_function("append", |b| {
        let log = LogManager::new();
        b.iter(|| log.append(sample_record()));
    });
    g.bench_function("codec_encode", |b| {
        let rec = sample_record();
        b.iter(|| codec::encode(&rec));
    });
    g.bench_function("codec_decode", |b| {
        let bytes = codec::encode(&sample_record());
        b.iter(|| codec::decode(&bytes).unwrap());
    });
    g.finish();
}

fn bench_locks(c: &mut Criterion) {
    let mut g = c.benchmark_group("locks");
    g.throughput(Throughput::Elements(1));
    g.bench_function("exclusive_acquire_release", |b| {
        let lm = LockManager::default();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let txn = TxnId(i);
            lm.lock(
                txn,
                TableId(1),
                &Key::single((i % 1024) as i64),
                LockMode::Exclusive,
            )
            .unwrap();
            lm.release_all(txn);
        });
    });
    g.finish();
}

fn bench_table(c: &mut Criterion) {
    let schema = Schema::builder()
        .column("id", ColumnType::Int)
        .nullable("payload", ColumnType::Str)
        .primary_key(&["id"])
        .build()
        .unwrap();
    let table = Arc::new(Table::new(TableId(1), "t", schema));
    for i in 0..50_000i64 {
        table
            .insert(vec![Value::Int(i), Value::str("p")], Lsn(1))
            .unwrap();
    }
    let mut g = c.benchmark_group("table");
    g.throughput(Throughput::Elements(1));
    g.bench_function("point_update_50k", |b| {
        let mut i = 0i64;
        b.iter(|| {
            i = (i + 7919) % 50_000;
            table
                .update(&Key::single(i), &[(1, Value::str("q"))], Lsn(2))
                .unwrap();
        });
    });
    g.bench_function("fuzzy_scan_chunk_1024", |b| {
        b.iter_batched(
            || table.fuzzy_scan(1024),
            |mut scan| scan.next_chunk(),
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_foj_rules(c: &mut Criterion) {
    let db = Database::new();
    let (rs, ss) = morph_core::foj::figure1_schemas();
    db.create_table("R", rs).unwrap();
    db.create_table("S", ss).unwrap();
    let m = FojMapping::prepare(&db, &FojSpec::new("R", "S", "T", "c", "c")).unwrap();
    let r_id = db.catalog().get("R").unwrap().id();
    // Seed join partners.
    for j in 0..1_000 {
        m.apply(
            Lsn(j + 1),
            &LogOp::Insert {
                table: db.catalog().get("S").unwrap().id(),
                row: vec![Value::str(format!("j{j}")), Value::str("d")],
            },
        )
        .unwrap();
    }
    let mut g = c.benchmark_group("foj_rules");
    g.throughput(Throughput::Elements(1));
    g.bench_function("rule1_insert_r", |b| {
        let mut i = 0i64;
        b.iter(|| {
            i += 1;
            m.apply(
                Lsn(10_000 + i as u64),
                &LogOp::Insert {
                    table: r_id,
                    row: vec![
                        Value::Int(i),
                        Value::str("b"),
                        Value::str(format!("j{}", i % 1_000)),
                    ],
                },
            )
            .unwrap();
        });
    });
    g.bench_function("rule7_update_r", |b| {
        let mut i = 0i64;
        b.iter(|| {
            i = (i + 1) % 1_000 + 1;
            m.apply(
                Lsn(20_000),
                &LogOp::Update {
                    table: r_id,
                    key: Key::single(i),
                    old: vec![(1, Value::str("b"))],
                    new: vec![(1, Value::str("b2"))],
                },
            )
            .unwrap();
        });
    });
    g.finish();
}

fn bench_split_rules(c: &mut Criterion) {
    let db = Database::new();
    let ts = Schema::builder()
        .column("a", ColumnType::Int)
        .nullable("b", ColumnType::Str)
        .nullable("c", ColumnType::Int)
        .nullable("d", ColumnType::Str)
        .primary_key(&["a"])
        .build()
        .unwrap();
    db.create_table("T", ts).unwrap();
    let m = SplitMapping::prepare(
        &db,
        &SplitSpec::new("T", "R", "S", &["a", "b", "c"], "c", &["d"]),
    )
    .unwrap();
    let t_id = db.catalog().get("T").unwrap().id();
    let mut g = c.benchmark_group("split_rules");
    g.throughput(Throughput::Elements(1));
    g.bench_function("rule8_insert", |b| {
        let mut i = 0i64;
        b.iter(|| {
            i += 1;
            m.apply(
                Lsn(i as u64),
                &LogOp::Insert {
                    table: t_id,
                    row: vec![
                        Value::Int(i),
                        Value::str("b"),
                        Value::Int(i % 500),
                        Value::str("dep"),
                    ],
                },
            )
            .unwrap();
        });
    });
    g.bench_function("rule10_update", |b| {
        let mut i = 0i64;
        let mut lsn = 10_000_000u64;
        b.iter(|| {
            i = (i % 10_000) + 1;
            lsn += 1;
            m.apply(
                Lsn(lsn),
                &LogOp::Update {
                    table: t_id,
                    key: Key::single(i),
                    old: vec![(1, Value::str("b"))],
                    new: vec![(1, Value::str("b2"))],
                },
            )
            .unwrap();
        });
    });
    g.finish();
}

fn bench_population(c: &mut Criterion) {
    let mut g = c.benchmark_group("population");
    g.sample_size(10);
    g.bench_function("foj_initial_population_5k", |b| {
        b.iter_batched(
            || {
                let db = Arc::new(Database::new());
                morph_workload::setup_foj_sources(&db, 5_000, 2_000).unwrap();
                let m = FojMapping::prepare(&db, &FojSpec::new("R", "S", "T", "c", "c")).unwrap();
                (db, m)
            },
            |(db, m)| m.populate(&db, 1_024, 1.0, None).unwrap(),
            BatchSize::PerIteration,
        );
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_wal, bench_locks, bench_table, bench_foj_rules, bench_split_rules, bench_population
}
criterion_main!(benches);
