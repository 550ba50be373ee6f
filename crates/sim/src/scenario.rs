//! Simulation scenarios: one per transformation family.
//!
//! A scenario bundles everything the harness needs to run a
//! transformation under fire and judge the outcome afterwards:
//! source schemas, deterministic setup rows, workload profiles whose
//! generated traffic respects the scenario's integrity constraints
//! (the split's `postal_code → city` functional dependency must hold
//! no matter what the workload does, or `InconsistentSplitData` is the
//! *correct* outcome rather than a bug), the spec to run, and the
//! names of the transformed tables to compare.

use morph_common::{ColumnType, DbResult, Schema, Value};
use morph_core::foj::figure1_schemas;
use morph_core::split::example1_schema;
use morph_core::{
    FojSpec, SplitSpec, SyncStrategy, TransformOptions, TransformReport, Transformer, UnionSpec,
};
use morph_engine::Database;
use morph_workload::TableProfile;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

/// Which transformation the simulation drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scenario {
    /// Full outer join R ⟗ S → T over the paper's Figure 1 schemas.
    Foj,
    /// Vertical split of Example 1's customer table (DBMS-guaranteed
    /// functional dependency).
    Split,
    /// Split with §5.3 consistency checking enabled (exercises the
    /// C/U flags and certification rounds).
    SplitCc,
    /// Horizontal merge (union) of two part tables.
    Union,
}

/// Number of distinct join / split attribute values the scenario uses.
/// Small enough that inserts and updates keep colliding on the same
/// groups, which is what stresses the propagation rules.
const GROUPS: u64 = 6;

fn city_for(code: u64) -> String {
    format!("city{code}")
}

impl Scenario {
    /// All scenarios, for sweeps.
    pub const ALL: [Scenario; 4] = [
        Scenario::Foj,
        Scenario::Split,
        Scenario::SplitCc,
        Scenario::Union,
    ];

    /// Crash points the kill matrix covers under `strategy`, in
    /// execution order — enumerated from the checked-in crash-point
    /// registry (`crates/lint/manifest/crash_points.txt`), not a
    /// hardcoded list. A new `crash_point()` call fails lint pass 3
    /// until registered, and once registered it joins this enumeration
    /// (and the matrix coverage test) automatically.
    pub fn kill_points(&self, strategy: SyncStrategy) -> Vec<&'static str> {
        crate::points::matrix_points(strategy)
            .into_iter()
            .map(|p| p.name.as_str())
            .collect()
    }

    /// Short lowercase tag for traces and failure reports.
    pub fn tag(&self) -> &'static str {
        match self {
            Scenario::Foj => "foj",
            Scenario::Split => "split",
            Scenario::SplitCc => "split_cc",
            Scenario::Union => "union",
        }
    }

    /// Source tables as `(name, schema)`, in creation order. Creation
    /// order is part of the deterministic contract: the harness
    /// recreates the tables in the same order after a crash so table
    /// ids line up with the durable log.
    pub fn source_schemas(&self) -> Vec<(String, Schema)> {
        match self {
            Scenario::Foj => {
                let (r, s) = figure1_schemas();
                vec![("R".to_owned(), r), ("S".to_owned(), s)]
            }
            Scenario::Split | Scenario::SplitCc => {
                vec![("C".to_owned(), example1_schema())]
            }
            Scenario::Union => {
                let part = |pk: &str| {
                    Schema::builder()
                        .column(pk, ColumnType::Int)
                        .nullable("v", ColumnType::Str)
                        .primary_key(&[pk])
                        .build()
                        .expect("static schema") // morph-lint: allow(panic, static schema literal; the builder cannot fail on compile-time constants)
                };
                vec![("A".to_owned(), part("id")), ("B".to_owned(), part("id"))]
            }
        }
    }

    /// Transformed tables to compare in the Theorem 1 oracle.
    pub fn target_names(&self) -> Vec<&'static str> {
        match self {
            Scenario::Foj => vec!["T"],
            Scenario::Split | Scenario::SplitCc => vec!["CR", "CS"],
            Scenario::Union => vec!["U"],
        }
    }

    /// Insert the initial committed rows (one transaction per table).
    pub fn seed_rows(&self, db: &Database) -> DbResult<()> {
        match self {
            Scenario::Foj => {
                let txn = db.begin();
                for i in 0..24i64 {
                    db.insert(
                        txn,
                        "R",
                        vec![
                            Value::Int(i),
                            Value::str(format!("b{i}")),
                            Value::str(format!("j{}", i as u64 % GROUPS)),
                        ],
                    )?;
                }
                // Leave one S group (j5) unmatched-from-R-side rare and
                // one extra group (j6) with no R rows at all: the FOJ
                // must NULL-extend both directions.
                for j in 0..=GROUPS {
                    db.insert(
                        txn,
                        "S",
                        vec![Value::str(format!("j{j}")), Value::str(format!("d{j}"))],
                    )?;
                }
                db.commit(txn)
            }
            Scenario::Split | Scenario::SplitCc => {
                let txn = db.begin();
                for i in 0..24i64 {
                    let code = i as u64 % GROUPS;
                    db.insert(
                        txn,
                        "C",
                        vec![
                            Value::Int(i),
                            Value::str(format!("n{i}")),
                            Value::str(format!("p{code}")),
                            Value::str(city_for(code)),
                        ],
                    )?;
                }
                db.commit(txn)
            }
            Scenario::Union => {
                let txn = db.begin();
                for i in 0..12i64 {
                    db.insert(txn, "A", vec![Value::Int(i), Value::str(format!("a{i}"))])?;
                    db.insert(
                        txn,
                        "B",
                        vec![Value::Int(100 + i), Value::str(format!("b{i}"))],
                    )?;
                }
                db.commit(txn)
            }
        }
    }

    /// Workload profiles for the scenario's source tables. Every
    /// generator respects the scenario's integrity constraints so that
    /// any oracle failure is a bug in the engine, never in the input.
    pub fn profiles(&self) -> Vec<TableProfile> {
        match self {
            Scenario::Foj => vec![
                TableProfile {
                    name: "R".into(),
                    gen_row: Box::new(|seq, rng: &mut StdRng| {
                        vec![
                            Value::Int(seq as i64),
                            Value::str(format!("b{}", rng.gen_range(0..100u32))),
                            Value::str(format!("j{}", rng.gen_range(0..GROUPS + 2))),
                        ]
                    }),
                    updates: vec![
                        Box::new(|rng: &mut StdRng| {
                            vec![(1, Value::str(format!("b{}", rng.gen_range(0..100u32))))]
                        }),
                        // Re-pointing the join attribute moves the row
                        // between join groups mid-flight — the hardest
                        // case for the FOJ update rules.
                        Box::new(|rng: &mut StdRng| {
                            vec![(2, Value::str(format!("j{}", rng.gen_range(0..GROUPS + 2))))]
                        }),
                    ],
                },
                TableProfile {
                    name: "S".into(),
                    // S's primary key is the join attribute itself, so
                    // fresh S rows get fresh join values (pk collisions
                    // are impossible, and the one-to-many invariant —
                    // the join attribute is unique in S — holds).
                    gen_row: Box::new(|seq, rng: &mut StdRng| {
                        vec![
                            Value::str(format!("n{seq}")),
                            Value::str(format!("d{}", rng.gen_range(0..100u32))),
                        ]
                    }),
                    updates: vec![Box::new(|rng: &mut StdRng| {
                        vec![(1, Value::str(format!("d{}", rng.gen_range(0..100u32))))]
                    })],
                },
            ],
            Scenario::Split | Scenario::SplitCc => vec![TableProfile {
                name: "C".into(),
                gen_row: Box::new(|seq, rng: &mut StdRng| {
                    let code = rng.gen_range(0..GROUPS + 2);
                    vec![
                        Value::Int(seq as i64),
                        Value::str(format!("n{}", rng.gen_range(0..100u32))),
                        Value::str(format!("p{code}")),
                        Value::str(city_for(code)),
                    ]
                }),
                updates: vec![
                    // Non-dependent column: always safe.
                    Box::new(|rng: &mut StdRng| {
                        vec![(1, Value::str(format!("n{}", rng.gen_range(0..100u32))))]
                    }),
                    // Moving a customer between postal codes must move
                    // the city along, or the functional dependency
                    // postal_code → city would break.
                    Box::new(|rng: &mut StdRng| {
                        let code = rng.gen_range(0..GROUPS + 2);
                        vec![
                            (2, Value::str(format!("p{code}"))),
                            (3, Value::str(city_for(code))),
                        ]
                    }),
                ],
            }],
            Scenario::Union => {
                let part = |name: &str| TableProfile {
                    name: name.to_owned(),
                    gen_row: Box::new(|seq, rng: &mut StdRng| {
                        vec![
                            Value::Int(seq as i64),
                            Value::str(format!("v{}", rng.gen_range(0..100u32))),
                        ]
                    }),
                    updates: vec![Box::new(|rng: &mut StdRng| {
                        vec![(1, Value::str(format!("v{}", rng.gen_range(0..100u32))))]
                    })],
                };
                vec![part("A"), part("B")]
            }
        }
    }

    /// Run the scenario's transformation synchronously.
    pub fn run(&self, db: &Arc<Database>, strategy: SyncStrategy) -> DbResult<TransformReport> {
        let options = sim_options(strategy);
        match self {
            Scenario::Foj => {
                Transformer::run_foj(db, FojSpec::new("R", "S", "T", "c", "c"), options)
            }
            Scenario::Split => Transformer::run_split(
                db,
                SplitSpec::new(
                    "C",
                    "CR",
                    "CS",
                    &["customer_id", "name", "postal_code"],
                    "postal_code",
                    &["city"],
                ),
                options,
            ),
            Scenario::SplitCc => Transformer::run_split(
                db,
                SplitSpec::new(
                    "C",
                    "CR",
                    "CS",
                    &["customer_id", "name", "postal_code"],
                    "postal_code",
                    &["city"],
                )
                .with_consistency_check(),
                options,
            ),
            Scenario::Union => Transformer::run_union(db, UnionSpec::new("A", "B", "U"), options),
        }
    }
}

/// Transformation options tuned for the simulator: tiny chunks and
/// batches so every crash point fires many times even on small tables,
/// full priority so the throttle never sleeps (wall-clock independence
/// is what makes traces reproducible), and retained sources so the
/// oracle can inspect them.
pub fn sim_options(strategy: SyncStrategy) -> TransformOptions {
    TransformOptions {
        population_chunk: 4,
        batch_size: 8,
        sync_threshold: 4,
        cc_interval: 2,
        strategy,
        retain_sources: true,
        ..TransformOptions::default()
    }
}
