//! The paper's motivating scenario: an operational telecom database
//! with very high availability requirements needs to *denormalize* —
//! subscriber records and their rate plans are accessed together on
//! every call setup, so the DBA folds `subscribers ⟗ plans` into one
//! table — **without ever blocking the call-processing workload**.
//!
//! The example keeps a closed-loop workload of "call events" (each
//! transaction updates a few subscriber rows and a dummy billing
//! table) running across the whole transformation, then prints what
//! the clients observed: throughput before / during / after, the
//! number of transactions the synchronization step sacrificed, and
//! the length of the one real pause.
//!
//! ```sh
//! cargo run --release --example telecom_denormalize
//! ```

use morphdb::core::{FojSpec, SyncStrategy, TransformJob, TransformOptions, TransformPlan};
use morphdb::workload::{setup_dummy, ClientConfig, UpdateTarget, WorkloadRunner};
use morphdb::{ColumnType, Database, Schema, Value};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

const SUBSCRIBERS: usize = 20_000;
const PLANS: usize = 200;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = Arc::new(Database::new());

    // subscribers(msisdn, profile, plan_id) / plans(plan_id, tariff)
    let subscribers = Schema::builder()
        .column("msisdn", ColumnType::Int)
        .nullable("profile", ColumnType::Str)
        .nullable("plan_id", ColumnType::Int)
        .primary_key(&["msisdn"])
        .build()?;
    let plans = Schema::builder()
        .column("plan_id", ColumnType::Int)
        .nullable("tariff", ColumnType::Str)
        .primary_key(&["plan_id"])
        .build()?;
    db.create_table("subscribers", subscribers)?;
    db.create_table("plans", plans)?;
    setup_dummy(&db, 20_000)?;

    // Subscriber lines are keyed by a dense internal line number (the
    // MSISDN would be a secondary attribute in production).
    let txn = db.begin();
    for i in 0..SUBSCRIBERS as i64 {
        db.insert(
            txn,
            "subscribers",
            vec![
                Value::Int(i),
                Value::str("profile"),
                Value::Int(i % PLANS as i64),
            ],
        )?;
    }
    for p in 0..PLANS as i64 {
        db.insert(txn, "plans", vec![Value::Int(p), Value::str("flat")])?;
    }
    db.commit(txn)?;
    println!("seeded {} subscribers on {} rate plans", SUBSCRIBERS, PLANS);

    // Call-processing workload: profile updates on subscribers (these
    // are the hot updates the propagator must chase) plus billing
    // (dummy) updates.
    let cfg = ClientConfig {
        updates_per_txn: 10,
        hot_fraction: 0.2,
        targets: vec![
            UpdateTarget {
                weight: 9,
                ..UpdateTarget::new("subscribers", SUBSCRIBERS as i64, 1)
            },
            UpdateTarget::new("plans", PLANS as i64, 1),
        ],
        dummy: Some(UpdateTarget::new("dummy", 20_000, 1)),
        pacing: Some(Duration::from_millis(2)),
    };
    println!("starting call-processing workload (6 clients)…");
    let runner = WorkloadRunner::start(Arc::clone(&db), cfg, 6);
    std::thread::sleep(Duration::from_millis(300));
    let before = runner.measure(Duration::from_millis(800));

    println!("launching online denormalization: subscribers ⟗ plans → subscriber_plans");
    let spec = FojSpec::new(
        "subscribers",
        "plans",
        "subscriber_plans",
        "plan_id",
        "plan_id",
    );
    let options = TransformOptions::default()
        .priority(0.5)
        .strategy(SyncStrategy::NonBlockingAbort)
        .deadline(Duration::from_secs(120));
    let job = TransformJob::prepare(&db, &TransformPlan::Foj(spec), options)?;
    let worker = std::thread::spawn(move || job.run(&AtomicBool::new(false), None, |_| Ok(())));
    let during = runner.measure(Duration::from_millis(800));
    let report = worker.join().expect("transformation thread panicked")?;
    let after = runner.measure(Duration::from_millis(800));
    runner.stop();

    println!("\n--- what the clients saw ---");
    println!(
        "throughput  before: {:>8.1} tps   during: {:>8.1} tps ({:.1}% relative)   after: {:>8.1} tps",
        before.throughput(),
        during.throughput(),
        100.0 * during.throughput() / before.throughput().max(1e-9),
        after.throughput()
    );
    println!(
        "response    before: {:>8.3} ms    during: {:>8.3} ms ({:.1}% relative)",
        before.mean_latency_ms(),
        during.mean_latency_ms(),
        100.0 * during.mean_latency_ms() / before.mean_latency_ms().max(1e-9),
    );
    println!(
        "schema-change rollbacks across the switch: {}",
        before.schema_events + during.schema_events + after.schema_events
    );

    println!("\n--- what the transformation cost ---");
    println!(
        "initial population: {} rows read fuzzily, {} rows written, {:?}",
        report.population.rows_read, report.population.rows_written, report.population.duration
    );
    println!(
        "log propagation: {} iterations, {} records",
        report.iteration_count(),
        report.records_processed()
    );
    println!(
        "synchronization: sources latched for {:?}; {} transactions doomed; {} locks transferred",
        report.sync.latch_pause, report.sync.old_txns, report.sync.locks_transferred
    );
    println!("total: {:?}", report.total);

    let t = db.catalog().get("subscriber_plans")?;
    println!(
        "\nsubscriber_plans now serves reads: {} rows (subscribers joined with plans)",
        t.len()
    );
    assert!(!db.catalog().exists("subscribers") && !db.catalog().exists("plans"));
    Ok(())
}
