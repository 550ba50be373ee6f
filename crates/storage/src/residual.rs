//! Residual-set tracking for lazy (SLSM-style) migrations.
//!
//! After a lazy cutover the source tables are frozen but their records
//! have not been transformed yet. The *residual set* is the set of
//! source records still awaiting transformation. It is not a copy of
//! their keys: the frozen source already is that set, so the residual
//! records only how far the backfill has walked it, plus the few keys
//! whose state the walk does not imply. Building it copies no key and
//! costs one row count per storage shard, which is what keeps the
//! cutover pause independent of table size (DESIGN.md §15).
//!
//! # Lanes
//!
//! The residual of one source table within one of its storage shards is
//! a *lane*. A lane keeps
//!
//! * a **cursor**: every key of the frozen shard at or below it has been
//!   handed out by a batch claim, and the batches still in flight are
//!   kept as key ranges (a walked batch is every unmapped shard key from
//!   its first key to its last);
//! * a small **map** of the keys whose state the cursor does not imply:
//!   claimed ahead of the cursor, tracked explicitly (a doomed writer's
//!   keys), or abandoned by a walked batch — each pending, in flight or
//!   done;
//! * its share of a **live** count (pending + in-flight keys), seeded
//!   under the cutover latch from the shard's row count.
//!
//! A key's state is its map entry if it has one; otherwise *done* once
//! the cursor has passed it, unless a walked batch's range in flight
//! covers it; otherwise — ahead of the cursor, or in such a range —
//! *pending*, respectively *in flight*, exactly when the frozen shard
//! holds it. Only a doomed writer's rollback still changes a
//! frozen source, and only on the keys it holds exclusively — the keys
//! the cutover maps explicitly — so the shard's answer for any unmapped
//! key never changes.
//!
//! The lanes of one storage-shard index, across source tables, form a
//! *stripe*: one mutex, condvar and `live` counter. A source routes by
//! its own shard key, so stripe `i` holds exactly storage shard `i`'s
//! keys, which is what lets a batch be written under one target shard
//! latch when the target co-routes (union). A claim on a stripe whose
//! counter reads zero is one atomic load and takes no lock.
//!
//! # Claims
//!
//! Two actors shrink the set concurrently: the background backfill and
//! on-access transforms racing in from the read/write path. The race is
//! resolved by **claims**: [`ResidualSet::claim`] (one key) and
//! [`ResidualSet::claim_batch`] (up to `max` keys of one lane) move
//! keys from *pending* to *in-flight* under the stripe mutex and hand
//! the caller a [`ClaimGuard`]; every other claimant of one of those
//! keys blocks until the guard is completed (keys transformed exactly
//! once) or abandoned (all of them return to *pending*, e.g. the
//! transform hit a simulated crash). A guard completes or abandons all
//! its keys together, and the count only ever decreases on `complete`,
//! so `remaining()` is monotonically non-increasing. Settling a walked
//! batch drops its range and touches no key; settling wakes the condvar
//! only when a claimant waits on it.
//!
//! The stripe mutex is a lock-rank leaf: nothing is called while it is
//! held. A claim ahead of the cursor asks the frozen source whether it
//! holds the key with the mutex released, and a batch claim walks the
//! source shard the same way, then re-checks that no other batch moved
//! the cursor meanwhile.

use crate::table::{route_hash, Table, TableExclusiveLatch, TABLE_SHARDS};
use morph_common::{Key, TableId};
use parking_lot::{Condvar, Mutex};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Where a mapped key stands.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Slot {
    Pending,
    InFlight,
    Done,
}

/// How far a lane's walk of its frozen shard has got.
#[derive(Clone, PartialEq, Eq)]
enum Cursor {
    /// Nothing handed out yet.
    Start,
    /// Every shard key up to and including this one has been handed out.
    After(Key),
    /// The whole shard has been handed out.
    End,
}

impl Cursor {
    /// Whether the walk has handed `key` out (if the shard holds it).
    fn passed(&self, key: &Key) -> bool {
        match self {
            Cursor::Start => false,
            Cursor::After(last) => key <= last,
            Cursor::End => true,
        }
    }

    fn after(&self) -> Option<&Key> {
        match self {
            Cursor::After(last) => Some(last),
            Cursor::Start | Cursor::End => None,
        }
    }
}

/// What a claim of one key does next.
enum Step {
    /// The key is the caller's to transform.
    Take,
    Done,
    /// Another claimant holds the key in flight.
    Wait,
    /// Only the frozen source can tell.
    AskSource,
}

/// A batch walked out of a frozen shard and still in flight: its id and
/// its first and last key.
type Walk = (u64, Key, Key);

/// The residual of one source table within one stripe.
struct Lane {
    table: TableId,
    /// Whether the lane walks a frozen source shard. A lane made by
    /// [`ResidualSet::track`] alone has none: its map is all of it.
    frozen: bool,
    cursor: Cursor,
    walks: Vec<Walk>,
    next_walk: u64,
    keys: BTreeMap<Key, Slot>,
    /// How many entries of `keys` are pending.
    pending: usize,
}

impl Lane {
    fn new(table: TableId, frozen: bool) -> Lane {
        Lane {
            table,
            frozen,
            cursor: Cursor::Start,
            walks: Vec::new(),
            next_walk: 0,
            keys: BTreeMap::new(),
            pending: 0,
        }
    }

    /// Claim `key`, given whether the frozen shard holds it (`held`,
    /// once asked). Behind the cursor this is one map probe and a look
    /// at the walks in flight.
    fn claim(&mut self, key: &Key, held: Option<bool>) -> Step {
        if let Some(slot) = self.keys.get_mut(key) {
            return match *slot {
                Slot::Pending => {
                    *slot = Slot::InFlight;
                    self.pending -= 1;
                    Step::Take
                }
                Slot::InFlight => Step::Wait,
                Slot::Done => Step::Done,
            };
        }
        if !self.frozen {
            return Step::Done;
        }
        let behind = self.cursor.passed(key);
        if behind && !self.walks.iter().any(|(_, lo, hi)| lo <= key && key <= hi) {
            return Step::Done;
        }
        // Ahead of the cursor, or inside a walk in flight: the key is
        // pending, respectively in that walk, exactly when the shard
        // holds it.
        match held {
            None => Step::AskSource,
            Some(false) => Step::Done,
            Some(true) if behind => Step::Wait,
            Some(true) => {
                self.keys.insert(key.clone(), Slot::InFlight);
                Step::Take
            }
        }
    }

    /// Up to `max` mapped pending keys — tracked explicitly, or handed
    /// back by an abandoned claim — moved in flight.
    fn take_mapped(&mut self, max: usize) -> Vec<Key> {
        let mut out = Vec::new();
        if self.pending == 0 {
            return out;
        }
        for (key, slot) in &mut self.keys {
            if out.len() == max {
                break;
            }
            if *slot == Slot::Pending {
                *slot = Slot::InFlight;
                out.push(key.clone());
            }
        }
        self.pending -= out.len();
        out
    }

    /// Hand out the unmapped keys of `walked`, the shard's next keys
    /// after the cursor (all of them when fewer than `max`), as one
    /// walk, and move the cursor past every walked key. `None` when
    /// every walked key was mapped already.
    fn take_walked(&mut self, walked: Vec<Key>, max: usize) -> Option<(u64, Vec<Key>)> {
        self.cursor = match walked.last() {
            Some(last) if walked.len() == max => Cursor::After(last.clone()),
            _ => Cursor::End,
        };
        let keys: Vec<Key> = walked
            .into_iter()
            .filter(|key| !self.keys.contains_key(key))
            .collect();
        let (first, last) = (keys.first()?.clone(), keys.last()?.clone());
        let id = self.next_walk;
        self.next_walk += 1;
        self.walks.push((id, first, last));
        Some((id, keys))
    }

    /// Settle in-flight `keys` — the walk `walk`, or mapped keys — as
    /// done or pending again.
    fn settle(&mut self, keys: &[Key], walk: Option<u64>, slot: Slot) {
        if let Some(id) = walk {
            self.walks.retain(|(w, ..)| *w != id);
            if slot == Slot::Pending {
                // Handed back: from now on the map holds them.
                self.keys
                    .extend(keys.iter().map(|key| (key.clone(), Slot::Pending)));
            }
        } else {
            for key in keys {
                if let Some(state) = self.keys.get_mut(key) {
                    *state = slot;
                }
            }
        }
        if slot == Slot::Pending {
            self.pending += keys.len();
        }
    }
}

#[derive(Default)]
struct Lanes {
    lanes: Vec<Lane>,
    /// Claimants blocked on the condvar, so that settling a claim
    /// notifies only when someone waits.
    waiters: usize,
}

impl Lanes {
    fn get(&mut self, table: TableId) -> Option<&mut Lane> {
        self.lanes.iter_mut().find(|lane| lane.table == table)
    }
}

#[derive(Default)]
struct Stripe {
    lanes: Mutex<Lanes>,
    cv: Condvar,
    /// Pending + in-flight keys of every lane of the stripe. `complete`
    /// decrements it (Release) after the rows are in the targets, so a
    /// claimant that loads zero (Acquire) also sees those rows.
    live: AtomicUsize,
}

/// A frozen source the set walks.
struct Source {
    table: Arc<Table>,
    /// The source's shard key, read once: it cannot change on a
    /// non-empty table.
    shard_key: Option<Arc<[usize]>>,
}

/// The set of source records a lazy migration has not transformed yet.
#[derive(Default)]
pub struct ResidualSet {
    sources: Vec<Source>,
    stripes: [Stripe; TABLE_SHARDS],
}

/// Outcome of [`ResidualSet::claim`].
pub enum Claim<'a> {
    /// The caller owns the transform for this key; call
    /// [`ClaimGuard::complete`] once the record is in the targets.
    Transform(ClaimGuard<'a>),
    /// The key is not in the residual set (already transformed — any
    /// in-flight transform by another claimant has been waited out —
    /// or it was never a source key).
    Done,
}

impl ResidualSet {
    /// An empty residual set.
    pub fn new() -> ResidualSet {
        ResidualSet::default()
    }

    /// A residual over the frozen `sources`: one lane per source and
    /// storage shard, allocated here — before the cutover latches
    /// anything — and nothing counted yet.
    /// [`ResidualSet::seed_latched`] counts each source under its latch.
    pub fn over(sources: &[Arc<Table>]) -> ResidualSet {
        let mut set = ResidualSet::new();
        for table in sources {
            for stripe in &mut set.stripes {
                stripe
                    .lanes
                    .get_mut()
                    .lanes
                    .push(Lane::new(table.id(), true));
            }
            set.sources.push(Source {
                shard_key: table.shard_key(),
                table: Arc::clone(table),
            });
        }
        set
    }

    /// Count frozen source `table` through its held cutover latch — each
    /// shard's rows are pending, and none is copied — and map `dirty`,
    /// the keys a doomed writer holds exclusively, as pending: its
    /// rollback may yet restore a row the latch cannot see (counted
    /// here) or remove one it can. Once per source of
    /// [`ResidualSet::over`], before the first claim.
    pub fn seed_latched(&self, table: TableId, latch: &TableExclusiveLatch<'_>, dirty: Vec<Key>) {
        let Some(source) = self.source(table) else {
            return;
        };
        for (shard, stripe) in self.stripes.iter().enumerate() {
            stripe
                .live
                .fetch_add(latch.shard_len(shard), Ordering::Release);
        }
        for key in dirty {
            let shard = route_hash(&key.0, source.shard_key.as_deref());
            let counted = latch.shard_contains(shard, &key);
            let stripe = &self.stripes[shard];
            let mut lanes = stripe.lanes.lock();
            let Some(lane) = lanes.get(table) else {
                continue;
            };
            if let Entry::Vacant(entry) = lane.keys.entry(key) {
                entry.insert(Slot::Pending);
                lane.pending += 1;
                if !counted {
                    stripe.live.fetch_add(1, Ordering::Release);
                }
            }
        }
    }

    fn source(&self, table: TableId) -> Option<&Source> {
        self.sources.iter().find(|src| src.table.id() == table)
    }

    /// The stripe `key` of `table` belongs to, and the frozen source it
    /// is read from (`None` for a table only ever tracked by key).
    fn route(&self, table: TableId, key: &Key) -> (&Stripe, Option<&Source>) {
        let source = self.source(table);
        let shard = route_hash(&key.0, source.and_then(|src| src.shard_key.as_deref()));
        (&self.stripes[shard], source)
    }

    /// Record `key` of source `table` as not yet transformed: on top of
    /// what [`ResidualSet::seed_latched`] counted, or as the whole
    /// residual of a table without a frozen source here. For building
    /// the set, before the first claim — a key already mapped or walked
    /// is left alone — and never under the source's latch: a frozen
    /// source is asked whether it holds the key.
    pub fn track(&self, table: TableId, key: Key) {
        let (stripe, source) = self.route(table, &key);
        // A key the frozen source holds is counted already.
        let counted = source.is_some_and(|src| src.table.contains(&key));
        let mut lanes = stripe.lanes.lock();
        let lane = match lanes.lanes.iter().position(|lane| lane.table == table) {
            Some(i) => &mut lanes.lanes[i],
            None => {
                lanes.lanes.push(Lane::new(table, source.is_some()));
                let last = lanes.lanes.len() - 1;
                &mut lanes.lanes[last]
            }
        };
        if lane.keys.contains_key(&key) || (lane.frozen && lane.cursor.passed(&key)) {
            return;
        }
        lane.keys.insert(key, Slot::Pending);
        lane.pending += 1;
        if !counted {
            stripe.live.fetch_add(1, Ordering::Release);
        }
    }

    /// Keys still awaiting transformation (pending + in-flight).
    pub fn remaining(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.live.load(Ordering::Acquire))
            .sum()
    }

    /// Whether every tracked key has completed its transform.
    pub fn is_drained(&self) -> bool {
        self.stripes
            .iter()
            .all(|s| s.live.load(Ordering::Acquire) == 0)
    }

    /// The keys the set maps explicitly, ascending (diagnostics and
    /// tests): right after a cutover, exactly the keys its doomed
    /// writers held exclusively.
    pub fn explicit_keys(&self) -> Vec<(TableId, Key)> {
        let mut out = Vec::new();
        for stripe in &self.stripes {
            let lanes = stripe.lanes.lock();
            for lane in &lanes.lanes {
                out.extend(lane.keys.keys().map(|key| (lane.table, key.clone())));
            }
        }
        out.sort();
        out
    }

    /// Claim `key` of `table` for transformation. Blocks while another
    /// claimant holds the key in flight; returns [`Claim::Done`] once
    /// the key is no longer pending.
    pub fn claim(&self, table: TableId, key: &Key) -> Claim<'_> {
        let (stripe, source) = self.route(table, key);
        if stripe.live.load(Ordering::Acquire) == 0 {
            return Claim::Done;
        }
        // Whether the frozen source holds `key`, once asked.
        let mut held = None;
        let mut lanes = stripe.lanes.lock();
        loop {
            let Some(lane) = lanes.get(table) else {
                return Claim::Done;
            };
            match lane.claim(key, held) {
                Step::Take => {
                    return Claim::Transform(ClaimGuard {
                        stripe,
                        table,
                        keys: vec![key.clone()],
                        walk: None,
                        completed: false,
                    })
                }
                Step::Done => return Claim::Done,
                // Another claimant is transforming this key right now:
                // wait until it completes (done) or abandons (pending
                // again), then re-examine.
                Step::Wait => {
                    lanes.waiters += 1;
                    stripe.cv.wait(&mut lanes);
                    lanes.waiters -= 1;
                }
                // Ahead of the cursor and unmapped: ask the frozen
                // source with the stripe unlocked, then look again.
                Step::AskSource => {
                    drop(lanes);
                    held = Some(source.is_some_and(|src| src.table.contains(key)));
                    lanes = stripe.lanes.lock();
                }
            }
        }
    }

    /// Claim up to `max` pending keys of one lane (backfill order:
    /// ascending stripe, then source; within a lane, mapped keys — tracked
    /// explicitly or handed back — first, then the frozen shard walked
    /// from the cursor on). Returns `None` when nothing is pending —
    /// in-flight keys may still exist; poll [`ResidualSet::is_drained`]
    /// for completion.
    pub fn claim_batch(&self, max: usize) -> Option<ClaimGuard<'_>> {
        let max = max.max(1);
        for (shard, stripe) in self.stripes.iter().enumerate() {
            if stripe.live.load(Ordering::Acquire) == 0 {
                continue;
            }
            let mut lanes = stripe.lanes.lock();
            for i in 0..lanes.lanes.len() {
                let table = lanes.lanes[i].table;
                let guard = |keys, walk| ClaimGuard {
                    stripe,
                    table,
                    keys,
                    walk,
                    completed: false,
                };
                let keys = lanes.lanes[i].take_mapped(max);
                if !keys.is_empty() {
                    return Some(guard(keys, None));
                }
                let Some(src) = self.source(table) else {
                    continue;
                };
                // Walk the frozen shard with the stripe unlocked; if
                // another batch moved the cursor meanwhile, walk again
                // from where it now stands.
                loop {
                    let from = lanes.lanes[i].cursor.clone();
                    if from == Cursor::End {
                        break;
                    }
                    drop(lanes);
                    let walked = src.table.shard_keys_after(shard, from.after(), max);
                    lanes = stripe.lanes.lock();
                    let lane = &mut lanes.lanes[i];
                    if lane.cursor == from {
                        if let Some((id, keys)) = lane.take_walked(walked, max) {
                            return Some(guard(keys, Some(id)));
                        }
                    }
                }
            }
        }
        None
    }
}

/// Exclusive ownership of the transformation of one key
/// ([`ResidualSet::claim`]) or of a batch of keys of one table
/// ([`ResidualSet::claim_batch`]). All keys complete, or all return to
/// pending, together.
pub struct ClaimGuard<'a> {
    stripe: &'a Stripe,
    table: TableId,
    keys: Vec<Key>,
    /// The walk these keys are, if a batch walked them out of the shard.
    walk: Option<u64>,
    completed: bool,
}

impl ClaimGuard<'_> {
    /// The claimed source table.
    pub fn table(&self) -> TableId {
        self.table
    }

    /// The claimed source keys, ascending.
    pub fn keys(&self) -> &[Key] {
        &self.keys
    }

    /// Settle every key as `slot`; returns whether a claimant waits
    /// (decided under the lock, which every claimant takes before it
    /// waits).
    fn settle(&self, slot: Slot) -> bool {
        let mut lanes = self.stripe.lanes.lock();
        if let Some(lane) = lanes.get(self.table) {
            lane.settle(&self.keys, self.walk, slot);
        }
        lanes.waiters > 0
    }

    /// Mark the records transformed: the keys leave the residual set
    /// for good and the residual count shrinks.
    pub fn complete(mut self) {
        self.completed = true;
        let waiting = self.settle(Slot::Done);
        self.stripe
            .live
            .fetch_sub(self.keys.len(), Ordering::Release);
        if waiting {
            self.stripe.cv.notify_all();
        }
    }
}

impl Drop for ClaimGuard<'_> {
    fn drop(&mut self) {
        if self.completed {
            return;
        }
        // Abandoned (transform errored / simulated crash): the keys
        // return to pending so recovery or a later access retries them.
        if self.settle(Slot::Pending) {
            self.stripe.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morph_common::{ColumnType, Lsn, Schema, Value};
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use std::time::Duration;

    fn k(i: i64) -> Key {
        Key::single(Value::Int(i))
    }

    fn id(key: &Key) -> i64 {
        match key.values()[0] {
            Value::Int(i) => i,
            ref v => panic!("unexpected key {v:?}"),
        }
    }

    fn stripe_index(i: i64) -> usize {
        route_hash(&k(i).0, None)
    }

    /// A table holding `ids`, as a cutover freezes it.
    fn frozen(ids: impl IntoIterator<Item = i64>) -> Arc<Table> {
        let schema = Schema::builder()
            .column("id", ColumnType::Int)
            .primary_key(&["id"])
            .build()
            .unwrap();
        let table = Arc::new(Table::new(TableId(9), "src", schema));
        for i in ids {
            table.insert(vec![Value::Int(i)], Lsn(1)).unwrap();
        }
        table
    }

    /// The residual a cutover builds over `table`, with `dirty` mapped.
    fn seeded(table: &Arc<Table>, dirty: Vec<Key>) -> ResidualSet {
        let set = ResidualSet::over(std::slice::from_ref(table));
        set.seed_latched(table.id(), &table.latch_exclusive(), dirty);
        set
    }

    #[test]
    fn claim_complete_shrinks_monotonically() {
        let set = ResidualSet::new();
        let t = TableId(1);
        for i in 0..4 {
            set.track(t, k(i));
        }
        set.track(t, k(3)); // tracked twice, counted once
        assert_eq!(set.remaining(), 4);
        match set.claim(t, &k(2)) {
            Claim::Transform(g) => g.complete(),
            Claim::Done => panic!("expected a fresh claim"),
        }
        assert_eq!(set.remaining(), 3);
        assert!(matches!(set.claim(t, &k(2)), Claim::Done));
        assert_eq!(set.remaining(), 3);
    }

    #[test]
    fn abandoned_claim_returns_to_pending() {
        let set = ResidualSet::new();
        let t = TableId(1);
        set.track(t, k(7));
        match set.claim(t, &k(7)) {
            Claim::Transform(g) => drop(g), // simulated crash mid-transform
            Claim::Done => panic!("expected a fresh claim"),
        }
        assert_eq!(set.remaining(), 1);
        // Retry succeeds.
        match set.claim(t, &k(7)) {
            Claim::Transform(g) => g.complete(),
            Claim::Done => panic!("abandoned key must be claimable again"),
        }
        assert!(set.is_drained());
    }

    #[test]
    fn batches_stay_in_one_stripe_and_one_table_and_drain_everything() {
        let set = ResidualSet::new();
        let (t, u) = (TableId(3), TableId(4));
        for i in 0..40 {
            set.track(t, k(i));
            set.track(u, k(i));
        }
        let mut seen = Vec::new();
        while let Some(g) = set.claim_batch(3) {
            assert!(g.keys().len() <= 3);
            assert!(g.keys().windows(2).all(|w| w[0] < w[1]));
            let stripe = route_hash(&g.keys()[0].0, None);
            assert!(g
                .keys()
                .iter()
                .all(|key| route_hash(&key.0, None) == stripe));
            seen.extend(g.keys().iter().map(|key| (g.table(), key.clone())));
            g.complete();
        }
        assert!(set.is_drained());
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 80);
    }

    #[test]
    fn abandoned_batch_returns_every_key() {
        for frozen_source in [false, true] {
            let table = frozen(if frozen_source { 0..32 } else { 0..0 });
            let set = if frozen_source {
                seeded(&table, Vec::new())
            } else {
                let set = ResidualSet::new();
                for i in 0..32 {
                    set.track(table.id(), k(i));
                }
                set
            };
            let first = set.claim_batch(usize::MAX).expect("keys are pending");
            let claimed = first.keys().to_vec();
            // While in flight the keys are not handed out twice.
            let second = set.claim_batch(usize::MAX).expect("other stripes");
            assert!(second.keys().iter().all(|key| !claimed.contains(key)));
            drop(second);
            drop(first);
            assert_eq!(set.remaining(), 32);
            let again = set.claim_batch(usize::MAX).expect("abandoned keys");
            assert_eq!(again.keys(), claimed, "frozen source: {frozen_source}");
        }
    }

    /// A claim on a drained stripe neither waits for a batch in flight
    /// on another stripe nor touches its own stripe's lock (held here by
    /// the test thread, so a lock attempt would hang the worker).
    #[test]
    fn claim_on_drained_stripe_is_done_without_the_lock() {
        let set = ResidualSet::new();
        let t = TableId(1);
        let a = 0i64;
        let b = (1..).find(|&i| stripe_index(i) != stripe_index(a)).unwrap();
        set.track(t, k(a));
        set.track(t, k(b));
        match set.claim(t, &k(a)) {
            Claim::Transform(g) => g.complete(),
            Claim::Done => panic!("expected a fresh claim"),
        }
        let in_flight = set.claim_batch(8).expect("stripe of b is pending");
        assert_eq!(in_flight.keys(), [k(b)]);

        let held = set.stripes[stripe_index(a)].lanes.lock();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                let done = matches!(set.claim(t, &k(a)), Claim::Done);
                tx.send(done).unwrap();
            });
            let got = rx.recv_timeout(Duration::from_secs(10));
            drop(held);
            assert_eq!(got, Ok(true), "claim on a drained stripe blocked");
        });
        in_flight.complete();
        assert!(set.is_drained());
    }

    /// The latched seed counts what per-key tracking would: every row
    /// once, a dirty key the source holds once, and a dirty key it does
    /// not hold on top — and maps only the dirty keys.
    #[test]
    fn latched_bulk_build_matches_per_key_tracking() {
        let table = frozen(0..200);
        // A doomed writer's key the latch sees, and one it cannot see.
        let set = seeded(&table, vec![k(5), k(900)]);
        assert_eq!(set.remaining(), 201);
        assert_eq!(
            set.explicit_keys(),
            [(table.id(), k(5)), (table.id(), k(900))]
        );
        for i in (0..200).chain([900]) {
            match set.claim(table.id(), &k(i)) {
                Claim::Transform(g) => g.complete(),
                Claim::Done => panic!("key {i} was not tracked"),
            }
        }
        assert!(set.is_drained());
    }

    /// Lanes follow the source's own storage shards: a batch holds keys
    /// of one shard of a table routed by a custom shard key.
    #[test]
    fn lanes_follow_the_source_shard_key() {
        let schema = Schema::builder()
            .column("a", ColumnType::Int)
            .column("b", ColumnType::Int)
            .primary_key(&["a", "b"])
            .build()
            .unwrap();
        let table = Arc::new(Table::new(TableId(5), "src", schema));
        table.set_shard_key(vec![0]).unwrap();
        for a in 0..12 {
            for b in 0..5 {
                table
                    .insert(vec![Value::Int(a), Value::Int(b)], Lsn(1))
                    .unwrap();
            }
        }
        let set = seeded(&table, Vec::new());
        let mut seen = 0;
        while let Some(g) = set.claim_batch(7) {
            let shard = table.shard_of_key(&g.keys()[0]);
            assert!(g.keys().iter().all(|key| table.shard_of_key(key) == shard));
            seen += g.keys().len();
            g.complete();
        }
        assert_eq!(seen, 60);
        assert!(set.is_drained());
    }

    #[test]
    fn concurrent_claims_transform_exactly_once() {
        for frozen_source in [false, true] {
            let table = frozen(if frozen_source { 0..64 } else { 0..0 });
            let set = if frozen_source {
                seeded(&table, Vec::new())
            } else {
                let set = ResidualSet::new();
                for i in 0..64 {
                    set.track(table.id(), k(i));
                }
                set
            };
            let t = table.id();
            let transforms = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        for i in 0..64 {
                            if let Claim::Transform(g) = set.claim(t, &k(i)) {
                                transforms.fetch_add(1, Ordering::Relaxed);
                                g.complete();
                            }
                        }
                    });
                }
                s.spawn(|| {
                    while let Some(g) = set.claim_batch(5) {
                        transforms.fetch_add(g.keys().len(), Ordering::Relaxed);
                        g.complete();
                    }
                });
            });
            assert_eq!(transforms.load(Ordering::Relaxed), 64);
            assert!(set.is_drained());
        }
    }

    /// One step of the model-based test.
    #[derive(Clone, Debug)]
    enum Op {
        Claim(i64),
        Batch(usize),
        Complete(usize),
        Abandon(usize),
    }

    /// Source keys are drawn from `0..KEYS`; claims also probe keys
    /// past it, which no source holds.
    const KEYS: i64 = 40;

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0..KEYS + 8).prop_map(Op::Claim),
            (1..6usize).prop_map(Op::Batch),
            (0..8usize).prop_map(Op::Complete),
            (0..8usize).prop_map(Op::Abandon),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random claims, batch claims, completions and abandons over a
        /// frozen table with explicitly tracked keys (some the table
        /// holds, some it does not), against a set of pending keys.
        #[test]
        fn claims_match_a_set_model(
            held in prop::collection::vec(any::<bool>(), 0..KEYS as usize),
            dirty in prop::collection::vec(0..KEYS + 4, 0..6),
            ops in prop::collection::vec(op(), 0..80),
        ) {
            let rows: BTreeSet<i64> = (0..).zip(&held).filter(|(_, h)| **h).map(|(i, _)| i).collect();
            let dirty: BTreeSet<i64> = dirty.into_iter().collect();
            let table = frozen(rows.iter().copied());
            let set = seeded(&table, dirty.iter().map(|&i| k(i)).collect());
            let t = table.id();
            let universe: BTreeSet<i64> = rows.union(&dirty).copied().collect();
            let mut pending = universe.clone();
            let mut open: Vec<ClaimGuard<'_>> = Vec::new();
            let mut done = BTreeSet::new();
            let mut last = set.remaining();
            prop_assert_eq!(last, universe.len());
            for op in ops {
                match op {
                    Op::Claim(i) => {
                        // A key in flight would block this one thread.
                        if open.iter().any(|g| g.keys().contains(&k(i))) {
                            continue;
                        }
                        match set.claim(t, &k(i)) {
                            Claim::Transform(g) => {
                                prop_assert!(pending.remove(&i), "claimed {} twice", i);
                                open.push(g);
                            }
                            Claim::Done => prop_assert!(!pending.contains(&i), "{} stayed pending", i),
                        }
                    }
                    Op::Batch(n) => match set.claim_batch(n) {
                        Some(g) => {
                            prop_assert!(g.keys().len() <= n);
                            prop_assert!(g.keys().windows(2).all(|w| w[0] < w[1]));
                            let shard = table.shard_of_key(&g.keys()[0]);
                            for key in g.keys() {
                                prop_assert_eq!(table.shard_of_key(key), shard);
                                prop_assert!(pending.remove(&id(key)), "batch claimed {:?} twice", key);
                            }
                            open.push(g);
                        }
                        None => prop_assert!(pending.is_empty(), "nothing handed out of {:?}", pending),
                    },
                    Op::Complete(j) if !open.is_empty() => {
                        let g = open.swap_remove(j % open.len());
                        for key in g.keys() {
                            prop_assert!(done.insert(id(key)), "{:?} transformed twice", key);
                        }
                        g.complete();
                    }
                    Op::Abandon(j) if !open.is_empty() => {
                        let g = open.swap_remove(j % open.len());
                        pending.extend(g.keys().iter().map(id));
                        drop(g);
                    }
                    Op::Complete(_) | Op::Abandon(_) => {}
                }
                let now = set.remaining();
                prop_assert!(now <= last, "remaining() rose from {} to {}", last, now);
                last = now;
                let in_flight: usize = open.iter().map(|g| g.keys().len()).sum();
                prop_assert_eq!(now, pending.len() + in_flight);
                prop_assert_eq!(set.is_drained(), pending.is_empty() && open.is_empty());
            }
            for g in open.drain(..) {
                done.extend(g.keys().iter().map(id));
                g.complete();
            }
            while let Some(g) = set.claim_batch(3) {
                for key in g.keys() {
                    prop_assert!(done.insert(id(key)), "{:?} transformed twice", key);
                }
                g.complete();
            }
            prop_assert!(set.is_drained());
            prop_assert_eq!(done, universe);
        }
    }
}
