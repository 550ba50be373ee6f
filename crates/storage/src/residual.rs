//! Residual-set tracking for lazy (SLSM-style) migrations.
//!
//! After a lazy cutover the source tables are frozen but their records
//! have not been transformed yet. The *residual set* is the set of
//! source keys still awaiting transformation — the per-table "migrated
//! bit", stored as presence in the set rather than a bit on the row so
//! the frozen source pages are never written again.
//!
//! Two actors shrink the set concurrently: the background backfill and
//! on-access transforms racing in from the read/write path. The race is
//! resolved by **claims**: [`ResidualSet::claim`] (one key) and
//! [`ResidualSet::claim_batch`] (up to `max` keys of one table) move
//! keys from *pending* to *in-flight* under one lock acquisition and
//! hand the caller a [`ClaimGuard`]; every other claimant of one of
//! those keys blocks until the guard is completed (keys transformed
//! exactly once) or abandoned (all of them return to *pending*, e.g.
//! the transform hit a simulated crash). A guard completes or abandons
//! all its keys together, and the count only ever decreases on
//! `complete`, so `remaining()` is monotonically non-increasing — the
//! invariants DESIGN.md §15 pins.
//!
//! The set is **striped** by the storage routing hash of the key
//! (whole-key [`Table::shard_of_key`](crate::Table::shard_of_key)), one
//! mutex, condvar and live counter per stripe. A source table that
//! routes by its whole key therefore keeps stripe `i` in storage shard
//! `i`, which is what lets a batch be written under one target shard
//! latch when the target co-routes (union). A claim on a stripe whose
//! counter reads zero is one atomic load and takes no lock.
//!
//! Within a stripe the keys of a table are a sorted array with a state
//! per key. The cutover builds it inside its pause with every client
//! stalled, so building is an append per key into space reserved before
//! the pause ([`ResidualSet::reserve`]); a lookup is a binary search,
//! and completing a key flips its state in place.

use crate::table::{route_hash, TableExclusiveLatch, TABLE_SHARDS};
use morph_common::{Key, TableId};
use parking_lot::{Condvar, Mutex};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Where a tracked key stands.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Slot {
    Pending,
    InFlight,
    Done,
}

/// The tracked keys of one source table within one stripe: a sorted
/// array with a state per key. A transformed key stays, marked
/// [`Slot::Done`], so neither a claim nor a completion ever moves or
/// frees anything under the stripe lock, and building the set is one
/// `push` per key into reserved space.
#[derive(Default)]
struct TableKeys {
    /// Ascending, without duplicates.
    keys: Vec<Key>,
    /// `slots[i]` is the state of `keys[i]`.
    slots: Vec<Slot>,
    /// No key below this index is pending (where batch claims resume).
    cursor: usize,
}

impl TableKeys {
    fn slot_mut(&mut self, key: &Key) -> Option<&mut Slot> {
        let i = self.keys.binary_search(key).ok()?;
        Some(&mut self.slots[i])
    }

    fn set_all(&mut self, keys: &[Key], slot: Slot) {
        for key in keys {
            if let Ok(i) = self.keys.binary_search(key) {
                self.slots[i] = slot;
                if slot == Slot::Pending {
                    self.cursor = self.cursor.min(i);
                }
            }
        }
    }
}

#[derive(Default)]
struct Stripe {
    /// Tracked keys of this stripe, per source table.
    tables: Mutex<BTreeMap<TableId, TableKeys>>,
    cv: Condvar,
    /// Pending + in-flight keys. `complete` decrements it (Release)
    /// after the rows are in the targets, so a claimant that loads zero
    /// (Acquire) also sees those rows.
    live: AtomicUsize,
}

/// The set of source records a lazy migration has not transformed yet.
#[derive(Default)]
pub struct ResidualSet {
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

    fn stripe_of(&self, key: &Key) -> &Stripe {
        &self.stripes[route_hash(&key.0, None)]
    }

    /// Make room for `keys` keys of source `table`, spread evenly over
    /// the stripes. A lazy cutover calls this *before* it latches the
    /// sources, so that building the set inside the pause allocates
    /// nothing but the key copies themselves.
    pub fn reserve(&self, table: TableId, keys: usize) {
        // A quarter of slack over the even share: the routing hash
        // spreads well, and an overflow only costs a reallocation.
        let per_stripe = keys.div_ceil(TABLE_SHARDS) * 5 / 4;
        for stripe in &self.stripes {
            let mut tables = stripe.tables.lock();
            let tracked = tables.entry(table).or_default();
            tracked.keys.reserve(per_stripe);
            tracked.slots.reserve(per_stripe);
        }
    }

    /// Record `key` of source `table` as not yet transformed. Called
    /// only while building the set under the cutover latch.
    pub fn track(&self, table: TableId, key: Key) {
        let stripe = self.stripe_of(&key);
        let mut tables = stripe.tables.lock();
        let tracked = tables.entry(table).or_default();
        if let Err(at) = tracked.keys.binary_search(&key) {
            tracked.keys.insert(at, key);
            tracked.slots.insert(at, Slot::Pending);
            stripe.live.fetch_add(1, Ordering::Release);
        }
    }

    /// Record every key of the latched source `table` as not yet
    /// transformed: one append per key and one lock per stripe, instead
    /// of a global sort and a lock per key — this runs inside the
    /// cutover pause, with every client stalled. Like [`track`], only
    /// for building the set, before the first claim.
    ///
    /// [`track`]: ResidualSet::track
    pub fn track_latched(&self, table: TableId, latch: &TableExclusiveLatch<'_>) {
        let mut stripes = self.stripes.each_ref().map(|s| (s, s.tables.lock()));
        for key in latch.keys_by_shard() {
            let (_, tables) = &mut stripes[route_hash(&key.0, None)];
            tables.entry(table).or_default().keys.push(key.clone());
        }
        for (stripe, mut tables) in stripes {
            let tracked = tables.entry(table).or_default();
            // A shard's keys arrive ascending, and with whole-key
            // routing a shard feeds exactly one stripe: the appended
            // run is already in order unless the table routes by a
            // custom shard key or `track` put keys here first.
            if !tracked.keys.windows(2).all(|w| w[0] < w[1]) {
                tracked.keys.sort_unstable();
                tracked.keys.dedup();
            }
            let before = tracked.slots.len();
            tracked.slots.resize(tracked.keys.len(), Slot::Pending);
            stripe
                .live
                .fetch_add(tracked.keys.len() - before, Ordering::Release);
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

    /// Claim `key` of `table` for transformation. Blocks while another
    /// claimant holds the key in flight; returns [`Claim::Done`] once
    /// the key is no longer pending.
    pub fn claim(&self, table: TableId, key: &Key) -> Claim<'_> {
        let stripe = self.stripe_of(key);
        if stripe.live.load(Ordering::Acquire) == 0 {
            return Claim::Done;
        }
        let mut tables = stripe.tables.lock();
        loop {
            match tables.get_mut(&table).and_then(|t| t.slot_mut(key)) {
                None | Some(Slot::Done) => return Claim::Done,
                Some(slot @ Slot::Pending) => {
                    *slot = Slot::InFlight;
                    return Claim::Transform(ClaimGuard {
                        stripe,
                        table,
                        keys: vec![key.clone()],
                        completed: false,
                    });
                }
                // Another claimant is transforming this key right now:
                // wait until it completes (done) or abandons (pending
                // again), then re-examine.
                Some(Slot::InFlight) => stripe.cv.wait(&mut tables),
            }
        }
    }

    /// Claim up to `max` pending keys of one table from one stripe
    /// (backfill order: ascending stripe, table, key). Returns `None`
    /// when nothing is pending — in-flight keys may still exist; poll
    /// [`ResidualSet::is_drained`] for completion.
    pub fn claim_batch(&self, max: usize) -> Option<ClaimGuard<'_>> {
        for stripe in &self.stripes {
            if stripe.live.load(Ordering::Acquire) == 0 {
                continue;
            }
            let mut tables = stripe.tables.lock();
            for (&table, tracked) in tables.iter_mut() {
                let want = max.max(1).min(tracked.keys.len() - tracked.cursor);
                let mut keys = Vec::with_capacity(want);
                let mut i = tracked.cursor;
                while i < tracked.keys.len() && keys.len() < want {
                    if tracked.slots[i] == Slot::Pending {
                        tracked.slots[i] = Slot::InFlight;
                        keys.push(tracked.keys[i].clone());
                    }
                    i += 1;
                }
                // Everything below `i` was pending and is now claimed,
                // or was not pending to begin with.
                tracked.cursor = i;
                if !keys.is_empty() {
                    return Some(ClaimGuard {
                        stripe,
                        table,
                        keys,
                        completed: false,
                    });
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

    fn settle(&self, slot: Slot) {
        let mut tables = self.stripe.tables.lock();
        if let Some(tracked) = tables.get_mut(&self.table) {
            tracked.set_all(&self.keys, slot);
        }
    }

    /// Mark the records transformed: the keys leave the residual set
    /// for good and the residual count shrinks.
    pub fn complete(mut self) {
        self.completed = true;
        self.settle(Slot::Done);
        self.stripe
            .live
            .fetch_sub(self.keys.len(), Ordering::Release);
        self.stripe.cv.notify_all();
    }
}

impl Drop for ClaimGuard<'_> {
    fn drop(&mut self) {
        if self.completed {
            return;
        }
        // Abandoned (transform errored / simulated crash): the keys
        // return to pending so recovery or a later access retries them.
        self.settle(Slot::Pending);
        self.stripe.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morph_common::Value;
    use std::time::Duration;

    fn k(i: i64) -> Key {
        Key::single(Value::Int(i))
    }

    fn stripe_index(i: i64) -> usize {
        route_hash(&k(i).0, None)
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
        let set = ResidualSet::new();
        let t = TableId(1);
        for i in 0..32 {
            set.track(t, k(i));
        }
        let first = set.claim_batch(usize::MAX).expect("keys are pending");
        let claimed = first.keys().to_vec();
        // While in flight the keys are not handed out twice.
        let second = set.claim_batch(usize::MAX).expect("other stripes");
        assert!(second.keys().iter().all(|key| !claimed.contains(key)));
        drop(second);
        drop(first);
        assert_eq!(set.remaining(), 32);
        let again = set.claim_batch(usize::MAX).expect("abandoned keys");
        assert_eq!(again.keys(), claimed);
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

        let held = set.stripes[stripe_index(a)].tables.lock();
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

    #[test]
    fn latched_bulk_build_matches_per_key_tracking() {
        use morph_common::{ColumnType, Lsn, Schema};
        let schema = Schema::builder()
            .column("id", ColumnType::Int)
            .primary_key(&["id"])
            .build()
            .unwrap();
        let table = crate::Table::new(TableId(9), "src", schema);
        for i in 0..200 {
            table.insert(vec![Value::Int(i)], Lsn(1)).unwrap();
        }
        let set = ResidualSet::new();
        set.track(table.id(), k(5)); // a doomed writer's key, tracked first
        set.track(table.id(), k(900)); // ... and one the latch cannot see
        set.track_latched(table.id(), &table.latch_exclusive());
        assert_eq!(set.remaining(), 201);
        for i in (0..200).chain([900]) {
            match set.claim(table.id(), &k(i)) {
                Claim::Transform(g) => g.complete(),
                Claim::Done => panic!("key {i} was not tracked"),
            }
        }
        assert!(set.is_drained());
    }

    #[test]
    fn concurrent_claims_transform_exactly_once() {
        let set = ResidualSet::new();
        let t = TableId(1);
        for i in 0..64 {
            set.track(t, k(i));
        }
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
