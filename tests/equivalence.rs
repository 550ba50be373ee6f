//! Theorem 1 as an executable property, over every variant we ship.
//!
//! > Start a fuzzy copy at an arbitrary point in a stream of
//! > transactions (some of which abort, so their CLRs must wash out
//! > through the same rules), keep the stream going, then drain the
//! > log. The transformed tables must equal the operator applied to the
//! > final source state.
//!
//! One fixture per operator (FOJ, split, union): source schemas with a
//! `Str` column, a committed bulk at keys the step generator also
//! addresses (so the copy has rows to get wrong), and a generator of
//! the statements each operator's rules care about. One driver,
//! [`check`], replays an identical generated history on a reference
//! database and a variant database, then compares the target row
//! images and runs `verify_against_reference` on both sides. Everything
//! goes through `Database` transactions, so the log the propagator
//! sees (Begin/Op/Commit/Abort/CLR interleavings, fuzzy-mark placement,
//! the §3.2 start-LSN contract) is the production one.
//!
//! The variants:
//! * **batched drain**: the reference feeds every log record to the
//!   operator one at a time instead of through the batched, coalescing
//!   pipeline; any divergence is an unsound coalesce;
//! * **parallel copy**: the variant populates with 2–4 copy workers,
//!   the reference with one;
//! * **partial iterations**: the variant runs `iterate(…, 8, …)` calls
//!   between post-history transactions;
//! * **rename-in-place**: the variant materializes the split in place
//!   (§5.2);
//! * **sharded**: the migration runs eagerly and lazily through the
//!   orchestrator over 1–3 shards, against one engine.
//!
//! Row LSNs are compared only where both sides share one log and the
//! LSN is a state identifier: split R and S under record-at-a-time
//! drain, split R under parallel copy (S-record stamps are only a `>=`
//! gate) and union under parallel copy. FOJ LSNs are never compared
//! (the FOJ rules document them as not a state identifier), partial
//! iterations write extra fuzzy marks into the variant's log, and the
//! rename-in-place and sharded variants compare values, counters and
//! presence only.

use morphdb::core::foj::{self, FojMapping};
use morphdb::core::propagate::Propagator;
use morphdb::core::spec::TransformOptions;
use morphdb::core::split::{self, SplitMapping};
use morphdb::core::union::{self, UnionMapping};
use morphdb::core::{FojSpec, SplitSpec, TransformOperator, UnionSpec};
use morphdb::orchestrator::{Migration, MigrationSpec, Orchestrator};
use morphdb::storage::row::Presence;
use morphdb::{start_lazy_sharded, submit_sharded, ShardedDatabase};
use morphdb::{ColumnType, Database, DbResult, Key, Lsn, Schema, Value};
use proptest::prelude::*;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Committed rows seeded before the pre-history.
const BULK: i64 = 48;
/// Keys the step generator addresses: the bulk plus room to insert.
const KEYS: i64 = 56;
/// Join / split values: few, so rows keep colliding in one group.
const GROUPS: i64 = 6;

fn text(prefix: &str, n: i64) -> Value {
    Value::str(format!("{prefix}{n}"))
}

/// The split's functional dependency c → d.
fn dep(c: i64) -> Value {
    text("dep-", c)
}

/// One statement of a generated transaction.
#[derive(Clone, Debug)]
enum Step {
    Insert(&'static str, Vec<Value>),
    Delete(&'static str, i64),
    Update(&'static str, i64, Vec<(usize, Value)>),
    /// Split only: rewrite the row's `d` from its current `c`, a d-only
    /// update that keeps c → d.
    DepRefresh(i64),
}

#[derive(Clone, Debug)]
struct Txn {
    steps: Vec<Step>,
    commit: bool,
    /// Under the partial-iterations variant, propagate after this one.
    iterate: bool,
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Foj,
    Split,
    Union,
}

impl Op {
    /// Source tables, in creation order.
    fn sources(self) -> Vec<(&'static str, Schema)> {
        let schema = |cols: &[(&str, ColumnType)]| {
            let mut b = Schema::builder().column(cols[0].0, cols[0].1);
            for &(name, ty) in &cols[1..] {
                b = b.nullable(name, ty);
            }
            b.primary_key(&[cols[0].0]).build().unwrap()
        };
        let (int, str) = (ColumnType::Int, ColumnType::Str);
        match self {
            Op::Foj => vec![
                ("R", schema(&[("a", int), ("b", str), ("c", int)])),
                ("S", schema(&[("c", int), ("d", str)])),
            ],
            Op::Split => vec![(
                "T",
                schema(&[("a", int), ("b", str), ("c", int), ("d", str)]),
            )],
            Op::Union => vec![
                ("A", schema(&[("id", int), ("v", str)])),
                ("B", schema(&[("id", int), ("v", str)])),
            ],
        }
    }

    fn bulk(self) -> Vec<(&'static str, Vec<Value>)> {
        let keys = 0..BULK;
        match self {
            Op::Foj => keys
                .map(|a| {
                    (
                        "R",
                        vec![Value::Int(a), text("b", a), Value::Int(a % GROUPS)],
                    )
                })
                .chain((0..GROUPS).map(|c| ("S", vec![Value::Int(c), text("d", c)])))
                .collect(),
            Op::Split => keys
                .map(|a| {
                    let c = a % GROUPS;
                    let row = vec![Value::Int(a), text("b", a), Value::Int(c), dep(c)];
                    ("T", row)
                })
                .collect(),
            Op::Union => keys
                .flat_map(|id| {
                    [
                        ("A", vec![Value::Int(id), text("a", id)]),
                        ("B", vec![Value::Int(id), text("b", id)]),
                    ]
                })
                .collect(),
        }
    }

    /// Statements the operator's rules distinguish: inserts and deletes
    /// on every source, payload updates (weighted up so they land on
    /// copied rows), join / split-value moves, primary-key moves, and the
    /// split's dependent refresh.
    fn step(self) -> impl Strategy<Value = Step> {
        let draw = (0..10u8, 0..KEYS, 0..KEYS, 0..GROUPS + 2, 0..1000i64);
        draw.prop_map(move |(kind, k, to, g, t)| {
            let int = Value::Int;
            match (self, kind) {
                (Op::Foj, 0) => Step::Insert("R", vec![int(k), text("b", t), int(g)]),
                (Op::Foj, 1) => Step::Insert("S", vec![int(g), text("d", t)]),
                (Op::Foj, 2) => Step::Delete("R", k),
                (Op::Foj, 3) => Step::Delete("S", g),
                (Op::Foj, 4 | 5) => Step::Update("R", k, vec![(1, text("b", t))]),
                (Op::Foj, 6) => Step::Update("R", k, vec![(2, int(g))]),
                (Op::Foj, 7) => Step::Update("R", k, vec![(0, int(to))]),
                (Op::Foj, 8) => Step::Update("S", g, vec![(1, text("d", t))]),
                (Op::Foj, _) => Step::Update("S", g, vec![(0, int(to % (GROUPS + 2)))]),
                (Op::Split, 0 | 1) => Step::Insert("T", vec![int(k), text("b", t), int(g), dep(g)]),
                (Op::Split, 2) => Step::Delete("T", k),
                (Op::Split, 3 | 4) => Step::Update("T", k, vec![(2, int(g)), (3, dep(g))]),
                (Op::Split, 5 | 6) => Step::Update("T", k, vec![(1, text("b", t))]),
                (Op::Split, 7) => Step::Update("T", k, vec![(0, int(to))]),
                (Op::Split, _) => Step::DepRefresh(k),
                (Op::Union, _) => {
                    let table = ["A", "B"][usize::from(kind % 2)];
                    match kind / 2 {
                        0 => Step::Insert(table, vec![int(k), text("v", t)]),
                        1 => Step::Delete(table, k),
                        2 | 3 => Step::Update(table, k, vec![(1, text("v", t))]),
                        _ => Step::Update(table, k, vec![(0, int(to))]),
                    }
                }
            }
        })
    }

    fn targets(self) -> &'static [&'static str] {
        match self {
            Op::Foj => &["T"],
            Op::Split => &["R_t", "S_t"],
            Op::Union => &["U"],
        }
    }

    fn spec(self) -> MigrationSpec {
        match self {
            Op::Foj => Migration::join("R", "S", "T", "c", "c").build(),
            Op::Split => Migration::split("T", "R_t", "S_t", &["a", "b", "c"], "c", &["d"]).build(),
            Op::Union => Migration::union("A", "B", "U").build(),
        }
    }

    /// Sources on every shard, co-partitioned on what the operator's
    /// rules group by: FOJ sources by the join attribute (every join
    /// group lives on one shard), the split source by the split value
    /// (each shared S-record and its counter stay whole). Union rules
    /// are row-local; its target routes by the source key behind the
    /// provenance tag, so a target row lands on its source row's shard.
    fn create_sharded(self, sdb: &ShardedDatabase) {
        for (name, schema) in self.sources() {
            sdb.create_table(name, schema).unwrap();
        }
        match self {
            Op::Foj => {
                sdb.route_by("R", vec![2]);
                sdb.route_by("S", vec![0]);
            }
            Op::Split => sdb.route_by("T", vec![2]),
            Op::Union => sdb.route_key_suffix("U", 1),
        }
    }
}

fn history(op: Op, max_txns: usize) -> impl Strategy<Value = Vec<Txn>> {
    let txn = (
        prop::collection::vec(op.step(), 1..5),
        any::<bool>(),
        0..5u8,
    )
        .prop_map(|(steps, commit, roll)| Txn {
            steps,
            commit,
            iterate: roll == 0,
        });
    prop::collection::vec(txn, 1..max_txns)
}

/// A database holding `op`'s sources with the bulk committed.
fn seeded(op: Op) -> Arc<Database> {
    let db = Arc::new(Database::new());
    for (name, schema) in op.sources() {
        db.create_table(name, schema).unwrap();
    }
    let txn = db.begin();
    for (table, row) in op.bulk() {
        db.insert(txn, table, row).unwrap();
    }
    db.commit(txn).unwrap();
    db
}

fn run_step(db: &Database, txn: morphdb::TxnId, step: &Step) -> DbResult<()> {
    match step {
        Step::Insert(table, row) => db.insert(txn, table, row.clone()).map(drop),
        Step::Delete(table, k) => db.delete(txn, table, &Key::single(*k)),
        Step::Update(table, k, cols) => db.update(txn, table, &Key::single(*k), cols),
        Step::DepRefresh(k) => {
            let row = db.catalog().get("T")?.get(&Key::single(*k));
            match row.map(|r| r.values[2].clone()) {
                Some(Value::Int(c)) => db.update(txn, "T", &Key::single(*k), &[(3, dep(c))]),
                _ => Ok(()),
            }
        }
    }
}

/// Run one generated transaction; it aborts on its first engine error
/// or when generated to. Deterministic, so replaying one history on two
/// databases leaves identical logs.
fn run_txn(db: &Database, txn: &Txn) {
    let t = db.begin();
    let ok = txn.steps.iter().all(|step| run_step(db, t, step).is_ok());
    if ok && txn.commit {
        let _ = db.commit(t);
    } else {
        let _ = db.abort(t);
    }
}

/// How the variant database differs from the reference one.
#[derive(Clone, Copy, Debug)]
enum Variant {
    /// The reference drains record at a time; the variant through the
    /// batched, coalescing pipeline.
    Batched,
    /// The variant copies with this many workers; the reference with one.
    Parallel(usize),
    /// The variant runs partial iterations during the post-history.
    Iterate,
    /// The variant materializes the split in place.
    RenameInPlace,
    /// The migration runs eagerly and lazily over this many shards; the
    /// reference on one engine.
    Sharded(usize),
}

enum Mapping {
    Foj(FojMapping),
    Split(SplitMapping),
    Union(UnionMapping),
}

impl Mapping {
    fn prepare(db: &Database, op: Op, in_place: bool) -> Mapping {
        match op {
            Op::Foj => Mapping::Foj(
                FojMapping::prepare(db, &FojSpec::new("R", "S", "T", "c", "c")).unwrap(),
            ),
            Op::Split => {
                let spec = SplitSpec::new("T", "R_t", "S_t", &["a", "b", "c"], "c", &["d"]);
                let spec = if in_place {
                    spec.rename_in_place()
                } else {
                    spec
                };
                Mapping::Split(SplitMapping::prepare(db, &spec).unwrap())
            }
            Op::Union => {
                Mapping::Union(UnionMapping::prepare(db, &UnionSpec::new("A", "B", "U")).unwrap())
            }
        }
    }

    fn oper(&mut self) -> &mut dyn TransformOperator {
        match self {
            Mapping::Foj(m) => m,
            Mapping::Split(m) => m,
            Mapping::Union(m) => m,
        }
    }

    fn verify(&self) -> Result<(), String> {
        match self {
            Mapping::Foj(m) => foj::verify_against_reference(m),
            Mapping::Split(m) => split::verify_against_reference(m),
            Mapping::Union(m) => union::verify_against_reference(m),
        }
    }
}

/// Feed every log record from `start` to the operator one at a time:
/// the unbatched, uncoalesced baseline.
fn drain_record_at_a_time(db: &Database, start: Lsn, oper: &mut dyn TransformOperator) {
    let mut cursor = db.log().tail(start);
    loop {
        let batch = cursor.next_batch(db.log(), 64);
        if batch.is_empty() {
            return;
        }
        for (lsn, rec) in batch {
            if let Some(op) = rec.op() {
                oper.apply(lsn, op).unwrap();
            }
        }
    }
}

type ImageRow = (Key, Vec<Value>, u32, Presence, Option<Lsn>);

/// `table`'s rows across `dbs`, in key order: values, split counter,
/// FOJ presence and, if `lsn`, the row LSN. A key present on two shards
/// shows up twice.
fn image(dbs: &[Arc<Database>], table: &str, lsn: bool) -> Vec<ImageRow> {
    let mut rows: Vec<ImageRow> = dbs
        .iter()
        .flat_map(|db| db.catalog().get(table).unwrap().snapshot())
        .map(|(k, r)| (k, r.values, r.counter, r.presence, lsn.then_some(r.lsn)))
        .collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    rows
}

fn check(op: Op, variant: Variant, pre: &[Txn], post: &[Txn]) -> Result<(), TestCaseError> {
    if let Variant::Sharded(shards) = variant {
        return check_sharded(op, shards, pre, post);
    }
    let (reference, var) = (seeded(op), seeded(op));
    for txn in pre {
        run_txn(&reference, txn);
        run_txn(&var, txn);
    }
    let mut mr = Mapping::prepare(&reference, op, false);
    let mut mv = Mapping::prepare(&var, op, matches!(variant, Variant::RenameInPlace));
    let (_, start, _) = reference.write_fuzzy_mark();
    let (_, start_v, _) = var.write_fuzzy_mark();
    prop_assert_eq!(start, start_v);
    let workers = match variant {
        Variant::Parallel(n) => n,
        _ => 1,
    };
    let copied = mr.oper().populate(&reference, 4, 1, 1.0, None).unwrap();
    let copied_v = mv.oper().populate(&var, 4, workers, 1.0, None).unwrap();
    prop_assert_eq!(copied, copied_v);

    let mut prop_v = Propagator::new(&var, start, 1.0);
    for txn in post {
        run_txn(&reference, txn);
        run_txn(&var, txn);
        if txn.iterate && matches!(variant, Variant::Iterate) {
            let abort = AtomicBool::new(false);
            prop_v.iterate(&var, mv.oper(), 8, 0, &abort).unwrap();
        }
    }
    if let Variant::Batched = variant {
        drain_record_at_a_time(&reference, start, mr.oper());
    } else {
        let mut prop = Propagator::new(&reference, start, 1.0);
        prop.drain_all(&reference, mr.oper()).unwrap();
    }
    prop_v.drain_all(&var, mv.oper()).unwrap();

    for &table in op.targets() {
        let lsn = match (op, variant) {
            (Op::Foj, _) | (_, Variant::Iterate) => false,
            // In-place mode has no separate R.
            (_, Variant::RenameInPlace) if table == "R_t" => continue,
            (_, Variant::RenameInPlace) => false,
            (Op::Split, Variant::Parallel(_)) => table == "R_t",
            _ => true,
        };
        let (want, got) = (
            image(std::slice::from_ref(&reference), table, lsn),
            image(std::slice::from_ref(&var), table, lsn),
        );
        prop_assert!(
            got == want,
            "{table} under {variant:?}: {got:?} != {want:?}"
        );
    }
    if let Err(e) = mr.verify() {
        return Err(TestCaseError::fail(format!("reference diverged: {e}")));
    }
    if let Err(e) = mv.verify() {
        return Err(TestCaseError::fail(format!("{variant:?} diverged: {e}")));
    }
    Ok(())
}

/// The reference runs the history and then the migration through the
/// orchestrator on one engine. A router cannot replay a cross-shard
/// history, so each router loads the committed sources the history
/// left, then migrates eagerly (per-shard §3 pipelines) or lazily
/// (per-shard cutover, on-access touches, backfill).
fn check_sharded(op: Op, shards: usize, pre: &[Txn], post: &[Txn]) -> Result<(), TestCaseError> {
    let reference = seeded(op);
    for txn in pre.iter().chain(post) {
        run_txn(&reference, txn);
    }
    let sources: Vec<(&str, Vec<Vec<Value>>)> = op
        .sources()
        .into_iter()
        .map(|(name, _)| {
            let rows = reference.catalog().get(name).unwrap().snapshot();
            (name, rows.into_iter().map(|(_, r)| r.values).collect())
        })
        .collect();
    let orch = Orchestrator::new(Arc::clone(&reference));
    orch.submit(op.spec(), TransformOptions::default())
        .unwrap()
        .join()
        .unwrap();

    for lazy in [false, true] {
        let sdb = ShardedDatabase::new(shards);
        op.create_sharded(&sdb);
        for (name, rows) in &sources {
            for row in rows {
                sdb.insert(name, row.clone()).unwrap();
            }
        }
        if lazy {
            let mig = start_lazy_sharded(&sdb, &op.spec()).unwrap();
            // Touch a few union targets through the engines before any
            // backfill, so the interceptor transforms them on access.
            if let Op::Union = op {
                for shard in sdb.shards() {
                    for row in sources[0].1.iter().take(3) {
                        let t = shard.begin();
                        let key = Key::new([Value::str("A"), row[0].clone()]);
                        shard.read(t, "U", &key).unwrap();
                        shard.commit(t).unwrap();
                    }
                }
            }
            while !mig.is_drained() {
                mig.backfill_round(4, 1.0).unwrap();
            }
            mig.finish().unwrap();
        } else {
            let (_orchs, mig) =
                submit_sharded(&sdb, &op.spec(), &TransformOptions::default()).unwrap();
            mig.join().unwrap();
        }
        for &table in op.targets() {
            let want = image(std::slice::from_ref(&reference), table, false);
            let got = image(sdb.shards(), table, false);
            prop_assert!(
                got == want,
                "{table}, lazy={lazy}, over {shards} shards: {got:?} != {want:?}"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn foj_batched_drain_equals_record_at_a_time(
        pre in history(Op::Foj, 20),
        post in history(Op::Foj, 40),
    ) {
        check(Op::Foj, Variant::Batched, &pre, &post)?;
    }

    #[test]
    fn split_batched_drain_equals_record_at_a_time(
        pre in history(Op::Split, 20),
        post in history(Op::Split, 40),
    ) {
        check(Op::Split, Variant::Batched, &pre, &post)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn foj_parallel_pipeline_equals_serial(
        pre in history(Op::Foj, 20),
        post in history(Op::Foj, 40),
        workers in 2usize..5,
    ) {
        check(Op::Foj, Variant::Parallel(workers), &pre, &post)?;
    }

    #[test]
    fn split_parallel_pipeline_equals_serial(
        pre in history(Op::Split, 20),
        post in history(Op::Split, 40),
        workers in 2usize..5,
    ) {
        check(Op::Split, Variant::Parallel(workers), &pre, &post)?;
    }

    #[test]
    fn union_parallel_pipeline_equals_serial(
        pre in history(Op::Union, 20),
        post in history(Op::Union, 40),
        workers in 2usize..5,
    ) {
        check(Op::Union, Variant::Parallel(workers), &pre, &post)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn foj_fuzzy_copy_plus_log_drain_equals_reference(
        pre in history(Op::Foj, 40),
        post in history(Op::Foj, 80),
    ) {
        check(Op::Foj, Variant::Iterate, &pre, &post)?;
    }

    #[test]
    fn split_fuzzy_copy_plus_log_drain_equals_reference(
        pre in history(Op::Split, 40),
        post in history(Op::Split, 80),
    ) {
        check(Op::Split, Variant::Iterate, &pre, &post)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn split_rename_in_place_equivalence(
        pre in history(Op::Split, 20),
        post in history(Op::Split, 40),
    ) {
        check(Op::Split, Variant::RenameInPlace, &pre, &post)?;
    }

    #[test]
    fn sharded_foj_matches_single_engine(
        pre in history(Op::Foj, 10),
        post in history(Op::Foj, 10),
        shards in 1usize..4,
    ) {
        check(Op::Foj, Variant::Sharded(shards), &pre, &post)?;
    }

    #[test]
    fn sharded_split_matches_single_engine(
        pre in history(Op::Split, 10),
        post in history(Op::Split, 10),
        shards in 1usize..4,
    ) {
        check(Op::Split, Variant::Sharded(shards), &pre, &post)?;
    }

    #[test]
    fn sharded_union_matches_single_engine(
        pre in history(Op::Union, 10),
        post in history(Op::Union, 10),
        shards in 1usize..4,
    ) {
        check(Op::Union, Variant::Sharded(shards), &pre, &post)?;
    }
}

/// Four-shard lazy union with writes through the router's own
/// single-shot ops racing the backfill: a touch transforms first, the
/// write lands on top, and the later backfill must not resurrect the
/// frozen image.
#[test]
fn lazy_union_write_through_router_wins_over_backfill() {
    let sdb = ShardedDatabase::new(4);
    Op::Union.create_sharded(&sdb);
    for i in 0..16 {
        sdb.insert("A", vec![Value::Int(i), text("a", i)]).unwrap();
        sdb.insert("B", vec![Value::Int(i), text("b", i)]).unwrap();
    }
    let mig = start_lazy_sharded(&sdb, &Op::Union.spec()).unwrap();
    let key = |i| Key::new([Value::str("A"), Value::Int(i)]);
    for i in 0..8 {
        sdb.update("U", &key(i), &[(2, text("w", i))]).unwrap();
    }
    while !mig.is_drained() {
        mig.backfill_round(4, 1.0).unwrap();
    }
    mig.finish().unwrap();
    for i in 0..16 {
        let row = sdb.read("U", &key(i)).unwrap().unwrap();
        assert_eq!(row[2], if i < 8 { text("w", i) } else { text("a", i) });
    }
}
