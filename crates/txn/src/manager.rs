//! The lock manager.
//!
//! Sharded record-lock table with strict 2PL semantics, **wait–die**
//! deadlock prevention (an older transaction waits for a younger one;
//! a younger requester is killed and must restart), optional wait
//! timeouts, and origin-tagged grants implementing the Figure-2
//! compatibility matrix on transformed tables.
//!
//! The transformation framework additionally needs to *transfer* locks:
//! at synchronization time it materializes, on the transformed table,
//! the locks that active transactions hold on source-table records
//! (§3.4, §4.3). [`LockManager::grant_transferred`] installs such a
//! grant unconditionally — legal because at that moment no new
//! transaction has been admitted to the transformed table yet, and
//! transferred grants are mutually compatible by construction.

use crate::mode::LockMode;
use crate::origin::{compatible, LockOrigin};
use crate::wait::Deadline;
use morph_common::{DbError, DbResult, Key, TableId, TxnId};
use parking_lot::{Condvar, Mutex};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::time::Duration;

/// At most 64, so `release_all` can mark the shards to wake in a `u64`.
const LOCK_SHARDS: usize = 64;
const _: () = assert!(LOCK_SHARDS <= 64);
const HELD_SHARDS: usize = 16;

/// Fully qualified record-lock name.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct LockKey {
    /// Table the record lives in.
    pub table: TableId,
    /// Primary key of the record.
    pub key: Key,
}

#[derive(Clone, Debug)]
struct Grant {
    txn: TxnId,
    mode: LockMode,
    origin: LockOrigin,
}

#[derive(Default)]
struct LockEntry {
    grants: Vec<Grant>,
}

#[derive(Default)]
struct ShardState {
    map: HashMap<LockKey, LockEntry>,
    /// Threads parked on the shard's condvar. A release notifies only
    /// when it is nonzero: a notify is a syscall even with no waiter.
    waiters: usize,
}

struct Shard {
    state: Mutex<ShardState>,
    cv: Condvar,
}

impl Shard {
    /// Drop `txn`'s grants on `lk` and report whether anyone waits on
    /// this shard.
    fn release(&self, lk: &LockKey, txn: TxnId) -> bool {
        let mut state = self.state.lock();
        if let Some(entry) = state.map.get_mut(lk) {
            entry.grants.retain(|g| g.txn != txn);
            if entry.grants.is_empty() {
                state.map.remove(lk);
            }
        }
        state.waiters > 0
    }
}

/// Tuning knobs for the lock manager.
#[derive(Clone, Copy, Debug)]
pub struct LockManagerConfig {
    /// Upper bound on a single lock wait before the requester is given
    /// [`DbError::LockTimeout`]. Wait–die already prevents deadlock;
    /// the timeout is a safety net against pathological convoys.
    pub wait_timeout: Duration,
}

impl Default for LockManagerConfig {
    fn default() -> Self {
        LockManagerConfig {
            wait_timeout: Duration::from_secs(10),
        }
    }
}

/// Sharded record-lock manager.
pub struct LockManager {
    shards: Vec<Shard>,
    /// Per-transaction set of held lock names, sharded by txn id, so
    /// commit/abort can release everything without scanning the world.
    held: Vec<Mutex<HashMap<TxnId, HashSet<LockKey>>>>,
    config: LockManagerConfig,
    /// Blocking waits entered on this manager (statistics; the
    /// per-thread tally lives in [`crate::wait::thread_lock_waits`]).
    waits: std::sync::atomic::AtomicU64,
}

impl Default for LockManager {
    fn default() -> Self {
        Self::new(LockManagerConfig::default())
    }
}

impl LockManager {
    /// Create a lock manager.
    pub fn new(config: LockManagerConfig) -> LockManager {
        LockManager {
            shards: (0..LOCK_SHARDS)
                .map(|_| Shard {
                    state: Mutex::new(ShardState::default()),
                    cv: Condvar::new(),
                })
                .collect(),
            held: (0..HELD_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            config,
            waits: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Total blocking lock waits entered on this manager.
    pub fn waits(&self) -> u64 {
        self.waits.load(std::sync::atomic::Ordering::Relaxed)
    }

    fn shard_index(lk: &LockKey) -> usize {
        let mut h = DefaultHasher::new();
        lk.hash(&mut h);
        (h.finish() as usize) % LOCK_SHARDS
    }

    fn shard_of(&self, lk: &LockKey) -> &Shard {
        &self.shards[Self::shard_index(lk)]
    }

    fn held_shard(&self, txn: TxnId) -> &Mutex<HashMap<TxnId, HashSet<LockKey>>> {
        &self.held[(txn.0 as usize) % HELD_SHARDS]
    }

    fn note_held(&self, txn: TxnId, lk: LockKey) {
        self.held_shard(txn)
            .lock()
            .entry(txn)
            .or_default()
            .insert(lk);
    }

    /// Acquire an ordinary (native-origin) record lock, blocking under
    /// wait–die.
    pub fn lock(&self, txn: TxnId, table: TableId, key: &Key, mode: LockMode) -> DbResult<()> {
        self.lock_tagged(txn, table, key, mode, LockOrigin::Native)
    }

    /// Acquire a lock with an explicit origin tag (Figure-2 semantics
    /// apply between grants of different origins).
    pub fn lock_tagged(
        &self,
        txn: TxnId,
        table: TableId,
        key: &Key,
        mode: LockMode,
        origin: LockOrigin,
    ) -> DbResult<()> {
        let lk = LockKey {
            table,
            key: key.clone(),
        };
        let shard = self.shard_of(&lk);
        let deadline = Deadline::after(self.config.wait_timeout);
        let mut state = shard.state.lock();
        loop {
            let entry = state.map.entry(lk.clone()).or_default();

            // Re-entrant: an existing grant that covers the request (or
            // can be upgraded without conflict) is enough.
            if let Some(own) = entry
                .grants
                .iter()
                .position(|g| g.txn == txn && g.origin == origin)
            {
                if entry.grants[own].mode.covers(mode) {
                    return Ok(());
                }
                // Upgrade S -> X: allowed if no *other* grant conflicts
                // with the exclusive request.
                let conflicting: Vec<&Grant> = entry
                    .grants
                    .iter()
                    .filter(|g| {
                        let own = g.txn == txn && g.origin == origin;
                        !own && !compatible((g.origin, g.mode), (origin, mode))
                    })
                    .collect();
                if conflicting.is_empty() {
                    entry.grants[own].mode = LockMode::Exclusive;
                    return Ok(());
                }
                // Wait–die applies to upgrades too; otherwise two
                // readers upgrading the same record deadlock.
                if conflicting.iter().any(|g| !txn.is_older_than(g.txn)) {
                    return Err(DbError::Deadlock(txn));
                }
            } else {
                let conflicting: Vec<&Grant> = entry
                    .grants
                    .iter()
                    .filter(|g| g.txn != txn && !compatible((g.origin, g.mode), (origin, mode)))
                    .collect();
                if conflicting.is_empty() {
                    entry.grants.push(Grant { txn, mode, origin });
                    drop(state);
                    self.note_held(txn, lk);
                    return Ok(());
                }
                // Wait–die: the requester may wait only if it is older
                // than every conflicting holder; otherwise it dies.
                if conflicting.iter().any(|g| !txn.is_older_than(g.txn)) {
                    return Err(DbError::Deadlock(txn));
                }
            }

            // Wait for a release, bounded by the timeout.
            self.waits
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            state.waiters += 1;
            let timed_out = deadline.wait_on(&shard.cv, &mut state);
            state.waiters -= 1;
            if timed_out {
                return Err(DbError::LockTimeout(txn));
            }
        }
    }

    /// Unconditionally install a transferred grant (synchronization
    /// step, §3.4). See the module docs for why this is sound.
    pub fn grant_transferred(
        &self,
        txn: TxnId,
        table: TableId,
        key: &Key,
        mode: LockMode,
        origin: LockOrigin,
    ) {
        debug_assert!(origin.is_transferred());
        let lk = LockKey {
            table,
            key: key.clone(),
        };
        let shard = self.shard_of(&lk);
        {
            let mut state = shard.state.lock();
            let entry = state.map.entry(lk.clone()).or_default();
            if let Some(own) = entry
                .grants
                .iter()
                .position(|g| g.txn == txn && g.origin == origin)
            {
                if !entry.grants[own].mode.covers(mode) {
                    entry.grants[own].mode = LockMode::Exclusive;
                }
            } else {
                entry.grants.push(Grant { txn, mode, origin });
            }
        }
        self.note_held(txn, lk);
    }

    /// Release every lock `txn` holds (strict 2PL release point:
    /// commit, or rollback completion).
    pub fn release_all(&self, txn: TxnId) {
        let keys = {
            let mut held = self.held_shard(txn).lock();
            held.remove(&txn).unwrap_or_default()
        };
        // One bit per shard with a parked waiter: each is notified
        // once, after every key is released.
        let mut wake: u64 = 0;
        for lk in keys {
            let i = Self::shard_index(&lk);
            if self.shards[i].release(&lk, txn) {
                wake |= 1 << i;
            }
        }
        while wake != 0 {
            self.shards[wake.trailing_zeros() as usize].cv.notify_all();
            wake &= wake - 1;
        }
    }

    /// Current grants on a record (diagnostics and tests).
    pub fn holders(&self, table: TableId, key: &Key) -> Vec<(TxnId, LockMode, LockOrigin)> {
        let lk = LockKey {
            table,
            key: key.clone(),
        };
        let shard = self.shard_of(&lk);
        let state = shard.state.lock();
        state
            .map
            .get(&lk)
            .map(|e| e.grants.iter().map(|g| (g.txn, g.mode, g.origin)).collect())
            .unwrap_or_default()
    }

    /// Number of locks currently held by `txn`.
    pub fn held_count(&self, txn: TxnId) -> usize {
        self.held_shard(txn)
            .lock()
            .get(&txn)
            .map_or(0, HashSet::len)
    }

    /// The record keys `txn` currently holds locks on, restricted to
    /// `table` (the synchronization step transfers exactly these).
    pub fn held_keys_in(&self, txn: TxnId, table: TableId) -> Vec<(Key, LockMode)> {
        let held = self.held_shard(txn).lock();
        let Some(set) = held.get(&txn) else {
            return Vec::new();
        };
        let names: Vec<LockKey> = set.iter().filter(|lk| lk.table == table).cloned().collect();
        drop(held);
        let mut out = Vec::new();
        for lk in names {
            let shard = self.shard_of(&lk);
            let state = shard.state.lock();
            if let Some(entry) = state.map.get(&lk) {
                if let Some(g) = entry.grants.iter().find(|g| g.txn == txn) {
                    out.push((lk.key.clone(), g.mode));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Instant;

    fn mgr() -> Arc<LockManager> {
        Arc::new(LockManager::default())
    }

    fn fast_mgr() -> Arc<LockManager> {
        Arc::new(LockManager::new(LockManagerConfig {
            wait_timeout: Duration::from_millis(100),
        }))
    }

    const T: TableId = TableId(1);

    #[test]
    fn shared_locks_coexist_exclusive_does_not() {
        let m = mgr();
        let k = Key::single(1);
        m.lock(TxnId(1), T, &k, LockMode::Shared).unwrap();
        m.lock(TxnId(2), T, &k, LockMode::Shared).unwrap();
        assert_eq!(m.holders(T, &k).len(), 2);
        // Txn 3 (younger than both holders) dies requesting X.
        assert!(matches!(
            m.lock(TxnId(3), T, &k, LockMode::Exclusive),
            Err(DbError::Deadlock(TxnId(3)))
        ));
    }

    #[test]
    fn reentrant_and_upgrade() {
        let m = mgr();
        let k = Key::single(1);
        m.lock(TxnId(1), T, &k, LockMode::Shared).unwrap();
        m.lock(TxnId(1), T, &k, LockMode::Shared).unwrap();
        m.lock(TxnId(1), T, &k, LockMode::Exclusive).unwrap(); // upgrade, sole holder
        assert_eq!(
            m.holders(T, &k),
            vec![(TxnId(1), LockMode::Exclusive, LockOrigin::Native)]
        );
        // X covers a later S request.
        m.lock(TxnId(1), T, &k, LockMode::Shared).unwrap();
        assert_eq!(m.held_count(TxnId(1)), 1);
    }

    #[test]
    fn wait_die_older_waits_younger_dies() {
        let m = fast_mgr();
        let k = Key::single(1);
        // Txn 5 holds X.
        m.lock(TxnId(5), T, &k, LockMode::Exclusive).unwrap();
        // Younger txn 9 dies immediately.
        assert!(matches!(
            m.lock(TxnId(9), T, &k, LockMode::Shared),
            Err(DbError::Deadlock(TxnId(9)))
        ));
        // Older txn 2 waits; after release it succeeds.
        let m2 = Arc::clone(&m);
        let got = Arc::new(AtomicBool::new(false));
        let got2 = Arc::clone(&got);
        let k2 = k.clone();
        let h = std::thread::spawn(move || {
            m2.lock(TxnId(2), T, &k2, LockMode::Shared).unwrap();
            got2.store(true, Ordering::SeqCst);
        });
        std::thread::sleep(Duration::from_millis(20));
        assert!(!got.load(Ordering::SeqCst), "older txn should be waiting");
        m.release_all(TxnId(5));
        h.join().unwrap();
        assert!(got.load(Ordering::SeqCst));
    }

    #[test]
    fn wait_times_out() {
        let m = fast_mgr();
        let k = Key::single(1);
        m.lock(TxnId(5), T, &k, LockMode::Exclusive).unwrap();
        let start = Instant::now();
        let err = m.lock(TxnId(1), T, &k, LockMode::Exclusive).unwrap_err();
        assert!(matches!(err, DbError::LockTimeout(TxnId(1))));
        assert!(start.elapsed() >= Duration::from_millis(90));
    }

    #[test]
    fn release_all_frees_everything() {
        let m = mgr();
        for i in 0..10 {
            m.lock(TxnId(1), T, &Key::single(i), LockMode::Exclusive)
                .unwrap();
        }
        assert_eq!(m.held_count(TxnId(1)), 10);
        m.release_all(TxnId(1));
        assert_eq!(m.held_count(TxnId(1)), 0);
        // Everyone can lock now.
        m.lock(TxnId(99), T, &Key::single(3), LockMode::Exclusive)
            .unwrap();
    }

    #[test]
    fn transferred_grants_ignore_each_other() {
        let m = mgr();
        let k = Key::single(1);
        // An R-write and an S-write on the same T record: both granted.
        m.grant_transferred(TxnId(1), T, &k, LockMode::Exclusive, LockOrigin::SourceR);
        m.grant_transferred(TxnId(2), T, &k, LockMode::Exclusive, LockOrigin::SourceS);
        assert_eq!(m.holders(T, &k).len(), 2);
        // A native reader is blocked by the transferred writes (younger
        // txn: dies; per Figure 2, T.r vs R.w = conflict).
        assert!(matches!(
            m.lock(TxnId(9), T, &k, LockMode::Shared),
            Err(DbError::Deadlock(_))
        ));
        // Native reads are compatible with transferred reads.
        let k2 = Key::single(2);
        m.grant_transferred(TxnId(1), T, &k2, LockMode::Shared, LockOrigin::SourceR);
        m.lock(TxnId(9), T, &k2, LockMode::Shared).unwrap();
    }

    #[test]
    fn held_keys_in_reports_only_the_asked_table() {
        let m = mgr();
        m.lock(TxnId(1), T, &Key::single(1), LockMode::Exclusive)
            .unwrap();
        m.lock(TxnId(1), T, &Key::single(2), LockMode::Shared)
            .unwrap();
        m.lock(TxnId(1), TableId(2), &Key::single(3), LockMode::Shared)
            .unwrap();
        let mut keys = m.held_keys_in(TxnId(1), T);
        keys.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(
            keys,
            vec![
                (Key::single(1), LockMode::Exclusive),
                (Key::single(2), LockMode::Shared)
            ]
        );
    }

    #[test]
    fn concurrent_disjoint_locking_is_safe() {
        let m = mgr();
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                for i in 0..200 {
                    let k = Key::single((t * 1000 + i) as i64);
                    m.lock(TxnId(t), T, &k, LockMode::Exclusive).unwrap();
                }
                m.release_all(TxnId(t));
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for t in 0..8u64 {
            assert_eq!(m.held_count(TxnId(t)), 0);
        }
    }

    /// `release_all` notifies a shard only when it counts a parked
    /// waiter, and once per shard however many of the keys share it. A
    /// transaction holds `KEYS` keys with one older waiter parked on
    /// each; its commit must wake every waiter, every iteration. A
    /// missed wakeup shows up as a lock timeout. Odd iterations release
    /// without waiting for the waiters to park, so some arrive after
    /// the release and take the lock without waiting.
    #[test]
    fn commit_wakes_every_waiter_on_every_key() {
        const KEYS: usize = 16;
        const ITERATIONS: u64 = 300;
        let m = Arc::new(LockManager::new(LockManagerConfig {
            wait_timeout: Duration::from_secs(5),
        }));
        let keys: Vec<Key> = (0..KEYS as i64).map(Key::single).collect();
        let shards: HashSet<usize> = keys
            .iter()
            .map(|k| {
                LockManager::shard_index(&LockKey {
                    table: T,
                    key: k.clone(),
                })
            })
            .collect();
        assert!(shards.len() < KEYS, "some keys must share a shard");
        let barrier = Arc::new(std::sync::Barrier::new(KEYS + 1));
        let failures = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let workers: Vec<_> = keys
            .iter()
            .enumerate()
            .map(|(w, k)| {
                let (m, barrier, failures, k) = (
                    Arc::clone(&m),
                    Arc::clone(&barrier),
                    Arc::clone(&failures),
                    k.clone(),
                );
                std::thread::spawn(move || {
                    let waiter = TxnId(w as u64 + 1);
                    for _ in 0..ITERATIONS {
                        barrier.wait();
                        match m.lock(waiter, T, &k, LockMode::Exclusive) {
                            Ok(()) => m.release_all(waiter),
                            Err(_) => {
                                failures.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                        barrier.wait();
                    }
                })
            })
            .collect();
        for it in 0..ITERATIONS {
            let holder = TxnId(1_000 + it);
            for k in &keys {
                m.lock(holder, T, k, LockMode::Exclusive).unwrap();
            }
            let parked = m.waits() + KEYS as u64;
            barrier.wait();
            if it % 2 == 0 {
                // `waits` is counted under the shard mutex the waiter
                // parks with, so once it reads `parked` every waiter
                // is inside its condvar wait.
                while m.waits() < parked {
                    std::thread::yield_now();
                }
            }
            m.release_all(holder);
            barrier.wait();
            assert_eq!(
                failures.load(Ordering::SeqCst),
                0,
                "a waiter missed its wakeup in iteration {it}"
            );
        }
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(m.held_count(TxnId(1)), 0);
    }

    #[test]
    fn contended_same_key_throughput() {
        // Threads fight over a tiny keyspace with retries; the invariant
        // is simply that everyone terminates (wait-die => no deadlock).
        let m = Arc::new(LockManager::new(LockManagerConfig {
            wait_timeout: Duration::from_secs(5),
        }));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                let mut txn_counter = t * 1_000_000;
                let mut committed = 0;
                while committed < 50 {
                    txn_counter += 1;
                    let txn = TxnId(txn_counter);
                    let mut ok = true;
                    for i in 0..5 {
                        let k = Key::single(((txn_counter + i) % 7) as i64);
                        if m.lock(txn, T, &k, LockMode::Exclusive).is_err() {
                            ok = false;
                            break;
                        }
                    }
                    m.release_all(txn);
                    if ok {
                        committed += 1;
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
