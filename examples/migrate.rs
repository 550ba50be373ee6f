//! Declarative online migration with live progress, pause and resume.
//!
//! An `accounts` table is split — declaratively, via the orchestrator's
//! `ALTER TABLE` dialect — into `accounts_base` and `branches` while
//! two background writers keep committing updates against it. The
//! migration runs as a crash-recoverable state machine
//! (Planned → Preparing → Copying → Propagating → Syncing → CutOver),
//! every transition durably logged before the next phase starts; this
//! example watches it through the lock-free progress handle, parks it
//! mid-propagation with `pause()`, resumes it, and lets it cut over
//! under load.
//!
//! ```sh
//! cargo run --release --example migrate
//! ```

use morphdb::core::TransformOptions;
use morphdb::orchestrator::{Migration, Orchestrator};
use morphdb::workload::{ClientConfig, UpdateTarget, WorkloadRunner};
use morphdb::{ColumnType, Database, Schema, Value};
use std::sync::Arc;
use std::time::Duration;

const ROWS: i64 = 30_000;
const BRANCHES: i64 = 400;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = Arc::new(Database::new());
    let schema = Schema::builder()
        .column("id", ColumnType::Int)
        .nullable("owner", ColumnType::Str)
        .nullable("branch", ColumnType::Int)
        .nullable("branch_city", ColumnType::Str)
        .primary_key(&["id"])
        .build()?;
    db.create_table("accounts", schema)?;

    // branch → branch_city is a functional dependency the application
    // maintained but the schema never enforced: exactly what the
    // paper's split transformation normalizes away.
    let mut txn = db.begin();
    for i in 0..ROWS {
        let b = i % BRANCHES;
        db.insert(
            txn,
            "accounts",
            vec![
                Value::Int(i),
                Value::str(format!("owner-{i}")),
                Value::Int(b),
                Value::str(format!("city-{b}")),
            ],
        )?;
        if i % 5_000 == 4_999 {
            db.commit(txn)?;
            txn = db.begin();
        }
    }
    db.commit(txn)?;
    println!("seeded accounts with {ROWS} rows across {BRANCHES} branches");

    // Background clients: the migration must not block them.
    let pool = WorkloadRunner::start(
        Arc::clone(&db),
        ClientConfig {
            updates_per_txn: 1,
            hot_fraction: 1.0,
            targets: vec![UpdateTarget::new("accounts", ROWS, 1)],
            dummy: None,
            pacing: Some(Duration::from_micros(20)),
        },
        3,
    );

    let orch = Orchestrator::new(Arc::clone(&db));
    let spec = Migration::parse(
        "ALTER TABLE accounts \
         SPLIT INTO accounts_base (id, owner, branch) \
         AND branches (branch -> branch_city)",
    )?;
    println!("migration program:\n  {}\n", spec.to_text());

    // Deliberately small batches and a modest priority share so the
    // propagation phase is long enough to watch (and to pause).
    let options = TransformOptions {
        batch_size: 32,
        sync_threshold: 48,
        population_chunk: 256,
        ..TransformOptions::default()
    }
    .priority(0.35)
    .deadline(Duration::from_secs(120))
    .retain_sources();
    let handle = orch.submit(spec, options)?;
    println!("submitted as job #{}", handle.id());

    let progress = handle.progress();
    let mut paused_once = false;
    let mut ticks = 0u32;
    while !handle.is_finished() {
        std::thread::sleep(Duration::from_millis(50));
        ticks += 1;
        let eta = match handle.eta() {
            Some(d) => format!("eta {:.1}s", d.as_secs_f64()),
            None => "eta —".to_owned(),
        };
        println!(
            "[{:>5.1}s] {} | {} | updates committed: {}",
            ticks as f64 * 0.05,
            progress.summary(),
            eta,
            pool.committed(),
        );
        // Once propagation is underway, demonstrate pause/resume: the
        // job parks at an iteration boundary (claims and log pin kept),
        // writers keep committing, then the job picks up where it left.
        if !paused_once && progress.records_propagated() > 0 {
            paused_once = true;
            handle.pause();
            let before = pool.committed();
            std::thread::sleep(Duration::from_millis(300));
            println!(
                "-- paused at {} | writers committed {} more while parked",
                progress.summary(),
                pool.committed() - before,
            );
            handle.resume();
        }
    }

    let reports = handle.join()?;
    let committed = pool.stop();
    let report = &reports[0];
    println!(
        "\ncut over after {} propagation iterations",
        report.iterations.len()
    );
    println!(
        "  copied {} rows in {:?}; propagated {} log records",
        report.population.rows_read,
        report.population.duration,
        report.iterations.iter().map(|i| i.records).sum::<usize>(),
    );
    println!(
        "  synchronization latch pause: {:?} (writers never blocked longer)",
        report.sync.latch_pause
    );
    println!("  background writers committed {committed} updates throughout");

    let base = db.catalog().get("accounts_base")?;
    let branches = db.catalog().get("branches")?;
    println!(
        "\nfinal schema: accounts_base={} rows, branches={} rows (counters sum to {})",
        base.len(),
        branches.len(),
        branches
            .snapshot()
            .iter()
            .map(|(_, r)| r.counter as usize)
            .sum::<usize>(),
    );
    Ok(())
}
