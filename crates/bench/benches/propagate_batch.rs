//! Microbenchmark of the batched propagation pipeline: drain an
//! identical relevant-record backlog through the propagator at cursor
//! batch sizes 1, 16, 128 and 1024, for both a FOJ (content-based
//! rules, `DeleteOnly` coalescing) and a split (LSN-gated rules,
//! `Full` coalescing) operator.
//!
//! Batch size 1 degenerates to the record-at-a-time pipeline: one
//! target-latch round trip per record and nothing for the coalescer to
//! see. Larger batches amortize the write sessions over the run and
//! let the coalescer drop superseded records before they reach the
//! rules. Every sample drains a *fresh* database (`iter_batched`
//! setup, excluded from timing), so the measured work is the first
//! application of each record — the propagation the paper's §3.3
//! background process actually performs — not the idempotent-replay
//! guard path.
//!
//! Writes `BENCH_propagation.json` at the repository root with
//! records/s per batch size, the coalescer's drop counts and the
//! detected core count (single-CPU numbers must not masquerade as
//! scaling data).

use criterion::{BatchSize, Criterion, Throughput};
use morph_bench::detected_cores;
use morph_common::{ColumnType, Key, Lsn, Schema, Value};
use morph_core::foj::{figure1_schemas, FojMapping};
use morph_core::propagate::Propagator;
use morph_core::{FojSpec, SplitMapping, SplitSpec, TransformOperator};
use morph_engine::Database;
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

/// Deterministic churn step stream (same log every setup call).
struct Lcg(u64);

impl Lcg {
    fn step(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }
}

/// Hot keys the churn concentrates on — small enough that one 1024
/// cursor batch revisits each key many times, the regime coalescing is
/// for.
const HOT_KEYS: i64 = 64;
const CHURN_TXNS: usize = 300;
const OPS_PER_TXN: usize = 10;

/// FOJ scenario: sources populated, targets caught up, then a churn
/// tail of hot payload updates (pending until a delete swallows them),
/// join-attribute moves (barrier columns) and delete/insert pairs.
fn setup_foj() -> (Arc<Database>, FojMapping, Lsn) {
    let db = Arc::new(Database::new());
    let (rs, ss) = figure1_schemas();
    db.create_table("R", rs).unwrap();
    db.create_table("S", ss).unwrap();
    let txn = db.begin();
    for j in 0..16 {
        db.insert(txn, "S", vec![Value::str(format!("j{j}")), Value::str("d")])
            .unwrap();
    }
    for i in 0..HOT_KEYS {
        db.insert(
            txn,
            "R",
            vec![
                Value::Int(i),
                Value::str("b"),
                Value::str(format!("j{}", i % 16)),
            ],
        )
        .unwrap();
    }
    db.commit(txn).unwrap();

    let m = FojMapping::prepare(&db, &FojSpec::new("R", "S", "T", "c", "c")).unwrap();
    let start = db.fuzzy_mark();
    m.populate(&db, 256, 1.0, None).unwrap();

    let mut rng = Lcg(7);
    for t in 0..CHURN_TXNS {
        let txn = db.begin();
        for _ in 0..OPS_PER_TXN {
            let r = rng.step();
            let a = (rng.step() % HOT_KEYS as u64) as i64;
            let j = rng.step() % 16;
            match r % 16 {
                0 | 4 => {
                    let _ = db.delete(txn, "R", &Key::single(a));
                }
                1 | 5 => {
                    let _ = db.insert(
                        txn,
                        "R",
                        vec![Value::Int(a), Value::str("b"), Value::str(format!("j{j}"))],
                    );
                }
                2 => {
                    let _ = db.update(
                        txn,
                        "R",
                        &Key::single(a),
                        &[(2, Value::str(format!("j{j}")))],
                    );
                }
                _ => {
                    let _ = db.update(
                        txn,
                        "R",
                        &Key::single(a),
                        &[(1, Value::str(format!("p{t}")))],
                    );
                }
            }
        }
        db.commit(txn).unwrap();
    }
    (db, m, start)
}

/// Split scenario: `Full` coalescing — repeated hot payload updates
/// subsume each other, so large runs shed most of their records before
/// the rules run. Moves touch the S-side barrier columns and survive.
fn setup_split() -> (Arc<Database>, SplitMapping, Lsn) {
    let db = Arc::new(Database::new());
    let ts = Schema::builder()
        .column("a", ColumnType::Int)
        .nullable("b", ColumnType::Str)
        .nullable("c", ColumnType::Str)
        .nullable("d", ColumnType::Str)
        .primary_key(&["a"])
        .build()
        .unwrap();
    db.create_table("T", ts).unwrap();
    let txn = db.begin();
    for i in 0..HOT_KEYS {
        let c = format!("c{}", i % 16);
        db.insert(
            txn,
            "T",
            vec![
                Value::Int(i),
                Value::str("b"),
                Value::str(&c),
                Value::str(format!("dep-{c}")),
            ],
        )
        .unwrap();
    }
    db.commit(txn).unwrap();

    let spec = SplitSpec::new("T", "R_b", "S_b", &["a", "b", "c"], "c", &["d"]);
    let m = SplitMapping::prepare(&db, &spec).unwrap();
    let start = db.fuzzy_mark();
    m.populate(&db, 256, 1.0, None).unwrap();

    let mut rng = Lcg(13);
    for t in 0..CHURN_TXNS {
        let txn = db.begin();
        for _ in 0..OPS_PER_TXN {
            let r = rng.step();
            let a = (rng.step() % HOT_KEYS as u64) as i64;
            let c = format!("c{}", rng.step() % 16);
            match r % 16 {
                0 => {
                    let _ = db.update(
                        txn,
                        "T",
                        &Key::single(a),
                        &[(2, Value::str(&c)), (3, Value::str(format!("dep-{c}")))],
                    );
                }
                1 => {
                    let _ = db.delete(txn, "T", &Key::single(a));
                }
                2 => {
                    let _ = db.insert(
                        txn,
                        "T",
                        vec![
                            Value::Int(a),
                            Value::str("b"),
                            Value::str(&c),
                            Value::str(format!("dep-{c}")),
                        ],
                    );
                }
                _ => {
                    let _ = db.update(
                        txn,
                        "T",
                        &Key::single(a),
                        &[(1, Value::str(format!("p{t}")))],
                    );
                }
            }
        }
        db.commit(txn).unwrap();
    }
    (db, m, start)
}

/// First drain of a fresh scenario at one cursor batch size.
fn drain(
    db: &Arc<Database>,
    m: &dyn TransformOperator,
    start: Lsn,
    batch_size: usize,
) -> (usize, usize) {
    let mut prop = Propagator::new(db, start, 1.0);
    let records = prop.drain_with_batch(db, m, batch_size).expect("drain");
    (records, prop.coalesced())
}

struct Series {
    operator: &'static str,
    batch_size: usize,
    coalesced: usize,
    records: usize,
}

fn main() {
    let mut c = Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_millis(800))
        .warm_up_time(Duration::from_millis(150))
        .configure_from_args();

    let sizes = [1usize, 16, 128, 1024];
    let mut series: Vec<Series> = Vec::new();
    {
        let mut g = c.benchmark_group("propagate_batch");
        for &bs in &sizes {
            // Probe drain (untimed): record and coalesce counts for
            // this size. The churn stream is deterministic, so every
            // timed sample drains the identical log.
            let (db, m, start) = setup_foj();
            let (records, coalesced) = drain(&db, &m, start, bs);
            series.push(Series {
                operator: "foj",
                batch_size: bs,
                coalesced,
                records,
            });
            g.throughput(Throughput::Elements(records as u64));
            g.bench_function(format!("foj/batch_{bs}"), |b| {
                b.iter_batched(
                    setup_foj,
                    |(db, m, start)| drain(&db, &m, start, bs),
                    BatchSize::PerIteration,
                );
            });
        }
        for &bs in &sizes {
            let (db, m, start) = setup_split();
            let (records, coalesced) = drain(&db, &m, start, bs);
            series.push(Series {
                operator: "split",
                batch_size: bs,
                coalesced,
                records,
            });
            g.throughput(Throughput::Elements(records as u64));
            g.bench_function(format!("split/batch_{bs}"), |b| {
                b.iter_batched(
                    setup_split,
                    |(db, m, start)| drain(&db, &m, start, bs),
                    BatchSize::PerIteration,
                );
            });
        }
        g.finish();
    }

    let measurements = c.measurements();
    let mut entries: Vec<String> = Vec::new();
    for (i, meas) in measurements.iter().enumerate() {
        let s = &series[i.min(series.len() - 1)];
        entries.push(format!(
            "    {{ \"operator\": \"{}\", \"batch_size\": {}, \"records_per_drain\": {}, \"coalesced_per_drain\": {}, \"ns_per_drain\": {:.0}, \"records_per_sec\": {:.0} }}",
            s.operator,
            s.batch_size,
            s.records,
            s.coalesced,
            meas.ns_per_iter,
            meas.per_second().unwrap_or(0.0),
        ));
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_propagation.json");
    let json = format!(
        "{{\n  \"bench\": \"propagate_batch\",\n  \"cores\": {},\n  \"series\": [\n{}\n  ]\n}}\n",
        detected_cores(),
        entries.join(",\n"),
    );
    let mut f = std::fs::File::create(&path).expect("bench json");
    f.write_all(json.as_bytes()).expect("bench json write");
    println!("{json}");
    println!("wrote {}", path.display());
}
