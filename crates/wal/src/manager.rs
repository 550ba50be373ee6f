//! The log manager.
//!
//! [`LogManager`] owns the sequential log: it assigns LSNs, serves
//! random and tail reads, and (optionally) tees every record into a
//! file backend for restart recovery. The log is the *only* channel
//! through which the transformation framework observes user activity
//! (the paper's headline property: "Only the log is used for change
//! propagation").
//!
//! LSNs are 1-based: the record at LSN *n* is the *n*-th record ever
//! appended. [`Lsn::ZERO`] therefore means "before any record".
//!
//! ## The append/flush pipeline (DESIGN.md §11)
//!
//! There is one discipline. An append *reserves* its LSN with one
//! atomic increment, encodes the record outside any lock, fills its
//! pre-allocated slot, and *publishes* by advancing the gapless-prefix
//! watermark under a short ordering lock. Backend bytes are *staged*
//! in the slot and drained to the backend strictly in LSN order by
//! whichever thread next needs durability, so byte order equals LSN
//! order, the invariant the crash simulator's torn-write model depends
//! on. Durability is a watermark: committers call
//! [`wait_durable`](LogManager::wait_durable) and a leader performs
//! one [`drain`](LogManager::drain) + flush on behalf of every waiter
//! at or below the published LSN (group commit).
//!
//! Retained records live in fixed-size chunks of once-written slots.
//! Readers ([`read`](LogManager::read),
//! [`read_range`](LogManager::read_range), [`TailCursor`]) consult
//! the atomic published watermark and then touch only per-slot locks
//! that no appender holds any more — tail reads never contend with
//! the append path. [`last_lsn`](LogManager::last_lsn),
//! [`backlog`](LogManager::backlog), [`len`](LogManager::len) and
//! [`is_empty`](LogManager::is_empty) are plain atomic loads (the
//! propagator polls them every iteration). Truncation moves a logical
//! base atomically and reclaims memory a whole chunk at a time.

use crate::codec;
use crate::file::{Backend, FileBackend};
use crate::record::LogRecord;
use bytes::Bytes;
use morph_common::{DbError, DbResult, Lsn};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The append/flush discipline. One variant is left (PR 21 deleted
/// `Serial`, DESIGN.md §11); the type, and the three signatures that
/// take it, exist only because `benchmark/`, which a product PR may
/// not edit, still names `WalMode::Group`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalMode {
    /// Lock-split append with staged backend bytes and group-commit
    /// durability via [`LogManager::wait_durable`].
    Group,
}

/// Group-commit tuning: how long a flush leader holds the door open
/// for more committers before paying the fsync.
#[derive(Clone, Copy, Debug)]
pub struct GroupCommitConfig {
    /// Stop waiting once this many committers (leader included) are
    /// aboard. `<= 1` disables the wait window.
    pub max_batch: usize,
    /// Longest the leader delays its flush waiting for stragglers.
    /// [`Duration::ZERO`] (the default) skips the window entirely:
    /// batching then comes only from committers piling up behind an
    /// in-flight flush, which adds no latency and keeps
    /// single-threaded runs (the simulator) deterministic.
    pub max_delay: Duration,
}

impl Default for GroupCommitConfig {
    fn default() -> Self {
        GroupCommitConfig {
            max_batch: 64,
            max_delay: Duration::ZERO,
        }
    }
}

/// Records per chunk. Power of two; chunk boundaries are fixed
/// relative to LSN 1, so chunk lookup is pure index arithmetic.
const CHUNK_RECORDS: u64 = 256;

/// One record's cell: written once by its appender before the publish
/// watermark passes it, immutable afterwards except for the staged
/// bytes, which the drain step takes (in LSN order, under the backend
/// lock). The per-slot mutex is never contended on the hot path: the
/// appender is done with it before readers may look, and the drainer
/// holds it for one `take`.
#[derive(Default)]
struct Slot {
    rec: Option<Arc<LogRecord>>,
    /// Encoded bytes awaiting the backend drain (only with a
    /// backend).
    staged: Option<Bytes>,
}

struct Chunk {
    /// LSN of `slots[0]`.
    first: u64,
    slots: Vec<Mutex<Slot>>,
}

impl Chunk {
    fn new(first: u64) -> Chunk {
        Chunk {
            first,
            slots: (0..CHUNK_RECORDS)
                .map(|_| Mutex::new(Slot::default()))
                .collect(),
        }
    }

    fn slot(&self, lsn: u64) -> &Mutex<Slot> {
        &self.slots[(lsn - self.first) as usize]
    }

    /// Last LSN this chunk can hold.
    fn last(&self) -> u64 {
        self.first + CHUNK_RECORDS - 1
    }
}

/// Contiguous run of chunks; the front may cover already-truncated
/// LSNs (truncation is logical first, chunk reclamation whole-chunk).
#[derive(Default)]
struct ChunkList {
    chunks: VecDeque<Arc<Chunk>>,
}

impl ChunkList {
    fn chunk_for(&self, lsn: u64) -> Option<Arc<Chunk>> {
        let front = self.chunks.front()?;
        if lsn < front.first {
            return None;
        }
        self.chunks
            .get(((lsn - front.first) / CHUNK_RECORDS) as usize)
            .cloned()
    }

    /// First LSN of the chunk that would hold `lsn` (boundaries fixed
    /// relative to LSN 1).
    fn aligned_first(lsn: u64) -> u64 {
        ((lsn - 1) / CHUNK_RECORDS) * CHUNK_RECORDS + 1
    }
}

struct BackendState {
    sink: Box<dyn Backend + Send>,
    /// Highest LSN whose bytes the sink has received: the drain
    /// cursor.
    drained: u64,
}

#[derive(Default)]
struct GroupState {
    /// A leader is currently draining + flushing.
    leader: bool,
    /// Committers parked behind the leader.
    waiters: usize,
}

/// Append-only, totally ordered log with tail readers.
pub struct LogManager {
    group_cfg: GroupCommitConfig,
    store: RwLock<ChunkList>,
    /// Highest LSN handed out to an appender.
    reserved: AtomicU64,
    /// Highest readable LSN: every slot at or below it is filled and
    /// immutable. Advanced only under `order`, gaplessly.
    published: AtomicU64,
    /// Records at or below this LSN are logically truncated away.
    base: AtomicU64,
    /// Highest LSN a successful backend flush covers — the durability
    /// watermark group commit satisfies waiters against.
    durable: AtomicU64,
    /// Watermark-ordering lock, held only to advance `published` over
    /// consecutively filled slots.
    order: Mutex<()>,
    /// Serializes truncation (base advance + whole-chunk reclaim).
    trunc: Mutex<()>,
    backend: Option<Mutex<BackendState>>,
    group: Mutex<GroupState>,
    group_cv: Condvar,
    /// Backend flushes attempted — the "fsync count" the group-commit
    /// benchmarks compare against the commit count.
    flushes: AtomicU64,
}

impl Default for LogManager {
    fn default() -> Self {
        Self::new()
    }
}

impl LogManager {
    fn build(
        records: Vec<LogRecord>,
        backend: Option<Box<dyn Backend + Send>>,
        group_cfg: GroupCommitConfig,
    ) -> LogManager {
        let mut store = ChunkList::default();
        let n = records.len() as u64;
        for (i, rec) in records.into_iter().enumerate() {
            let lsn = i as u64 + 1;
            let chunk = match store.chunks.back() {
                Some(c) if lsn <= c.last() => Arc::clone(c),
                _ => {
                    let c = Arc::new(Chunk::new(ChunkList::aligned_first(lsn)));
                    store.chunks.push_back(Arc::clone(&c));
                    c
                }
            };
            chunk.slot(lsn).lock().rec = Some(Arc::new(rec));
        }
        LogManager {
            group_cfg,
            store: RwLock::new(store),
            reserved: AtomicU64::new(n),
            published: AtomicU64::new(n),
            base: AtomicU64::new(0),
            durable: AtomicU64::new(0),
            order: Mutex::new(()),
            trunc: Mutex::new(()),
            backend: backend.map(|sink| Mutex::new(BackendState { sink, drained: n })),
            group: Mutex::new(GroupState::default()),
            group_cv: Condvar::new(),
            flushes: AtomicU64::new(0),
        }
    }

    /// A purely in-memory log.
    pub fn new() -> LogManager {
        Self::build(Vec::new(), None, GroupCommitConfig::default())
    }

    /// [`LogManager::new`]; kept only for `benchmark/`'s call sites.
    pub fn new_in(_mode: WalMode) -> LogManager {
        Self::new()
    }

    /// A log that also persists every record to `path` (length-prefixed
    /// binary, see [`crate::codec`]). Existing contents are preserved;
    /// use [`FileBackend::read_all`] before constructing the manager to
    /// recover them.
    pub fn with_file(path: &std::path::Path) -> DbResult<LogManager> {
        Ok(Self::with_backend(Box::new(FileBackend::open(path)?)))
    }

    /// A log that tees every record into an arbitrary [`Backend`] —
    /// the injection point for the crash-simulation harness's
    /// fault-capable in-memory backend.
    pub fn with_backend(backend: Box<dyn Backend + Send>) -> LogManager {
        Self::with_backend_config(backend, GroupCommitConfig::default())
    }

    /// A backend-teeing log with explicit group-commit tuning.
    pub fn with_backend_config(
        backend: Box<dyn Backend + Send>,
        group_cfg: GroupCommitConfig,
    ) -> LogManager {
        Self::build(Vec::new(), Some(backend), group_cfg)
    }

    /// [`LogManager::with_backend_config`]; kept only for
    /// `benchmark/`'s call sites.
    pub fn with_backend_mode(
        backend: Box<dyn Backend + Send>,
        _mode: WalMode,
        group_cfg: GroupCommitConfig,
    ) -> LogManager {
        Self::with_backend_config(backend, group_cfg)
    }

    /// Construct a manager pre-loaded with recovered records (restart
    /// recovery replays these before the database goes live).
    pub fn with_records(records: Vec<LogRecord>) -> LogManager {
        Self::build(records, None, GroupCommitConfig::default())
    }

    // --- append ---------------------------------------------------------

    /// Append one record, returning its LSN: reserve, encode outside
    /// any lock, fill the slot, then advance the publish watermark
    /// over the gapless prefix of filled slots.
    ///
    /// The record is readable when this returns. The engine appends
    /// inside the table shard latch and relies on that: a final drain
    /// to [`last_lsn`](LogManager::last_lsn) under the exclusive latch
    /// must have seen every write made under it. So an appender whose
    /// predecessor is still filling its slot waits for it (the
    /// predecessor is inside this function too, holds nothing this
    /// thread could be holding, and publishes both when it is done).
    pub fn append(&self, rec: LogRecord) -> Lsn {
        let lsn = self.reserved.fetch_add(1, Ordering::Relaxed) + 1;
        let staged = self.backend.as_ref().map(|_| codec::encode(&rec));
        let chunk = self.ensure_chunk(lsn);
        {
            let mut slot = chunk.slot(lsn).lock();
            slot.rec = Some(Arc::new(rec));
            slot.staged = staged;
        }
        let mut published = self.publish_filled();
        while published < lsn {
            std::thread::yield_now();
            published = self.published.load(Ordering::Acquire);
        }
        Lsn(lsn)
    }

    /// Advance `published` across every consecutively filled slot and
    /// return it. Every appender calls this after filling its slot, so
    /// the last filler of any gapless prefix publishes the whole
    /// prefix: if the slot after the watermark is still empty, its
    /// (in-flight) appender is guaranteed to run this again after
    /// filling it.
    fn publish_filled(&self) -> u64 {
        let _order = self.order.lock();
        let mut p = self.published.load(Ordering::Relaxed); // morph-lint: allow(atomics, read under the order mutex that serializes every published-store; the lock is the fence)
        let reserved = self.reserved.load(Ordering::Relaxed);
        let mut chunk: Option<Arc<Chunk>> = None;
        while p < reserved {
            let next = p + 1;
            let cur = match &chunk {
                Some(c) if next <= c.last() => c,
                _ => match self.store.read().chunk_for(next) {
                    Some(c) => &*chunk.insert(c),
                    None => break,
                },
            };
            if cur.slot(next).lock().rec.is_none() {
                break;
            }
            p = next;
        }
        self.published.store(p, Ordering::Release);
        p
    }

    /// Return the chunk holding `lsn`, allocating it (and any
    /// predecessors) if needed. Allocation takes the store's write
    /// lock once per [`CHUNK_RECORDS`] appends; the common case is a
    /// read-locked index lookup.
    fn ensure_chunk(&self, lsn: u64) -> Arc<Chunk> {
        if let Some(c) = self.store.read().chunk_for(lsn) {
            return c;
        }
        let mut store = self.store.write();
        loop {
            if let Some(c) = store.chunk_for(lsn) {
                return c;
            }
            match store.chunks.back() {
                Some(last) => {
                    let first = last.last() + 1;
                    store.chunks.push_back(Arc::new(Chunk::new(first)));
                }
                None => {
                    store
                        .chunks
                        .push_back(Arc::new(Chunk::new(ChunkList::aligned_first(lsn))));
                }
            }
        }
    }

    // --- durability -----------------------------------------------------

    /// Hand every staged byte up to `upto` to the backend, strictly in
    /// LSN order. Caller holds the backend lock; the per-slot locks it
    /// takes are uncontended (appenders are done with published slots).
    ///
    /// A reclaimed chunk or a published slot with its staged bytes
    /// already gone means the truncation / staging invariants were
    /// violated; the drain surfaces that as [`DbError::Internal`]
    /// (leaving `drained` at the last good LSN) rather than panicking
    /// under the backend lock, which would poison every later commit.
    fn drain_staged(&self, be: &mut BackendState, upto: u64) -> DbResult<()> {
        let mut chunk: Option<Arc<Chunk>> = None;
        while be.drained < upto {
            let next = be.drained + 1;
            let cur = match &chunk {
                Some(c) if next <= c.last() => c,
                _ => {
                    let c = self.store.read().chunk_for(next).ok_or_else(|| {
                        DbError::Internal(format!(
                            "WAL drain: undrained LSN {next} was reclaimed from memory"
                        ))
                    })?;
                    &*chunk.insert(c)
                }
            };
            let bytes = cur.slot(next).lock().staged.take().ok_or_else(|| {
                DbError::Internal(format!(
                    "WAL drain: published LSN {next} lost its staged bytes before the drain"
                ))
            })?;
            be.sink.append(&bytes);
            be.drained = next;
        }
        Ok(())
    }

    /// Hand every published record's staged bytes to the backend, in
    /// LSN order, *without* flushing, and return the LSN drained up
    /// to. This is the first half of a flush leader's work; on its
    /// own it is the state a leader that dies between its drain and
    /// its fsync leaves behind, which is how the crash simulator gets
    /// unflushed bytes for its seeded tear to cut (DESIGN.md §9).
    pub fn drain(&self) -> DbResult<Lsn> {
        let target = self.published.load(Ordering::Acquire);
        if let Some(backend) = &self.backend {
            self.drain_staged(&mut backend.lock(), target)?;
        }
        Ok(Lsn(target))
    }

    fn advance_durable(&self, upto: u64) {
        self.durable.fetch_max(upto, Ordering::AcqRel);
    }

    /// Test-only corruption seam: steal a published slot's staged
    /// bytes so the drain's invariant check has something to catch.
    #[cfg(test)]
    fn steal_staged_for_test(&self, lsn: Lsn) -> Option<Bytes> {
        let chunk = self.store.read().chunk_for(lsn.0)?;
        let stolen = chunk.slot(lsn.0).lock().staged.take();
        stolen
    }

    /// Block until the record at `lsn` is durable (its bytes and all
    /// earlier bytes flushed to the backend). The group-commit entry
    /// point: one leader drains staged bytes and performs one backend
    /// flush that satisfies every waiter at or below the published
    /// watermark; later committers that arrive mid-flush park and are
    /// satisfied by the next leader in one more flush. Without a
    /// backend (pure in-memory log) every record is trivially
    /// "durable". Commit, abort, and recovery flushes all funnel
    /// through here.
    pub fn wait_durable(&self, lsn: Lsn) -> DbResult<()> {
        let Some(backend) = &self.backend else {
            return Ok(());
        };
        loop {
            // Dirty-flag fast path: a previous flush already covers
            // this LSN — no lock, no fsync.
            if lsn.0 <= self.durable.load(Ordering::Acquire) {
                return Ok(());
            }
            let mut g = self.group.lock();
            if lsn.0 <= self.durable.load(Ordering::Acquire) {
                return Ok(());
            }
            if g.leader {
                // Follower: park until the in-flight flush completes,
                // then re-check the watermark (the leader's flush
                // covers us unless it failed, in which case we retry
                // as leader and surface the backend's error ourselves).
                g.waiters += 1;
                if g.waiters + 1 >= self.group_cfg.max_batch {
                    // The batch is full — wake a leader dawdling in
                    // its delay window.
                    self.group_cv.notify_all();
                }
                self.group_cv.wait(&mut g);
                g.waiters -= 1;
                continue;
            }
            g.leader = true;
            if self.group_cfg.max_delay > Duration::ZERO && self.group_cfg.max_batch > 1 {
                // Hold the door: absorb committers that arrive within
                // the window so one fsync covers them all.
                // morph-lint: allow(nondet, group-commit delay window; sim configs set max_delay to zero so replay never waits on wall time)
                let deadline = Instant::now() + self.group_cfg.max_delay;
                while g.waiters + 1 < self.group_cfg.max_batch {
                    if self.group_cv.wait_until(&mut g, deadline).timed_out() {
                        break;
                    }
                }
            }
            drop(g);

            // Everything published when the leader flushes becomes
            // durable — including our own lsn, which was published
            // before we were called.
            let result = self.drain().and_then(|target| {
                self.flushes.fetch_add(1, Ordering::Relaxed);
                backend.lock().sink.flush()?;
                Ok(target)
            });

            let mut g = self.group.lock();
            g.leader = false;
            if let Ok(target) = result {
                self.advance_durable(target.0);
            }
            self.group_cv.notify_all();
            drop(g);
            if lsn <= result? {
                return Ok(());
            }
            // Only an LSN that `append` has not returned yet can be
            // above the flushed prefix. Go around until it is.
        }
    }

    /// Force everything appended so far to durable storage. No-op
    /// without a backend, and — the fast path — when nothing was
    /// appended since the last successful flush (no backend lock, no
    /// fsync: read-only callers get out for two atomic loads).
    pub fn flush(&self) -> DbResult<()> {
        self.wait_durable(Lsn(self.published.load(Ordering::Acquire)))
    }

    /// The durability watermark: every record at or below it survived
    /// a successful backend flush ([`Lsn::ZERO`] before the first).
    pub fn durable_lsn(&self) -> Lsn {
        Lsn(self.durable.load(Ordering::Acquire))
    }

    /// The LSN below which a crash can lose nothing: the flush
    /// watermark when a backend is attached, the published tail when
    /// the log is pure in-memory (every record of an in-memory log is
    /// trivially "durable" — see [`LogManager::wait_durable`]). This
    /// is the durability leg of the MVCC garbage-collection watermark:
    /// versions at or below it can only be needed by live snapshots or
    /// active transactions, never by restart recovery.
    pub fn durability_watermark(&self) -> Lsn {
        if self.backend.is_some() {
            self.durable_lsn()
        } else {
            self.last_lsn()
        }
    }

    /// Backend flushes attempted so far. Group-commit benchmarks
    /// compare this against the commit count to show fsyncs ≪ commits.
    pub fn flush_count(&self) -> u64 {
        self.flushes.load(Ordering::Relaxed)
    }

    // --- reads ----------------------------------------------------------

    /// LSN of the most recently appended record ([`Lsn::ZERO`] if the
    /// log is empty). One atomic load — the propagator polls this
    /// every iteration.
    pub fn last_lsn(&self) -> Lsn {
        Lsn(self.published.load(Ordering::Acquire))
    }

    /// Number of records currently retained (appended minus
    /// truncated). Atomic loads only.
    pub fn len(&self) -> usize {
        let published = self.published.load(Ordering::Acquire);
        let base = self.base.load(Ordering::Acquire);
        published.saturating_sub(base) as usize
    }

    /// LSN below which records have been truncated away: the first
    /// readable record is `truncated_until() + 1`… unless nothing has
    /// been truncated, in which case this is [`Lsn::ZERO`].
    pub fn truncated_until(&self) -> Lsn {
        Lsn(self.base.load(Ordering::Acquire))
    }

    /// Drop records with LSN *strictly below* `lsn` from memory,
    /// returning how many were discarded. The base moves atomically;
    /// chunk memory is reclaimed a whole chunk at a time (a partially
    /// truncated chunk is freed once its last record is truncated
    /// too). The file backend (if any) is untouched — it remains the
    /// complete archive that restart recovery replays; in-memory
    /// truncation is the memory-bound knob for long-running
    /// deployments (a propagation cursor must never be truncated
    /// past, which [`morph-engine`]'s wrapper enforces).
    ///
    /// [`morph-engine`]: ../morph_engine/index.html
    pub fn truncate_until(&self, lsn: Lsn) -> DbResult<usize> {
        let _trunc = self.trunc.lock();
        let base = self.base.load(Ordering::Acquire);
        if lsn.0 <= base + 1 {
            return Ok(0);
        }
        let published = self.published.load(Ordering::Acquire);
        let new_base = (lsn.0 - 1).min(published);
        if new_base <= base {
            return Ok(0);
        }
        // Whole chunks about to be reclaimed may still hold staged
        // bytes the backend has not seen; hand them over first so the
        // archive stays complete and in LSN order. A failed drain
        // aborts the truncation with nothing reclaimed: dropping the
        // chunks anyway would tear a hole in the durable archive.
        if let Some(backend) = &self.backend {
            let chunk_complete = (new_base / CHUNK_RECORDS) * CHUNK_RECORDS;
            let mut be = backend.lock();
            let upto = chunk_complete.min(published).max(be.drained);
            self.drain_staged(&mut be, upto)?;
        }
        self.base.store(new_base, Ordering::Release);
        let mut store = self.store.write();
        while store
            .chunks
            .front()
            .is_some_and(|front| front.last() <= new_base)
        {
            store.chunks.pop_front();
        }
        Ok((new_base - base) as usize)
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetch a single record by LSN (`None` if out of range or
    /// truncated away). Touches only the published watermark, the
    /// chunk index, and the record's own slot — never the append path.
    pub fn read(&self, lsn: Lsn) -> Option<Arc<LogRecord>> {
        if lsn.is_zero()
            || lsn.0 <= self.base.load(Ordering::Acquire)
            || lsn.0 > self.published.load(Ordering::Acquire)
        {
            return None;
        }
        let chunk = self.store.read().chunk_for(lsn.0)?;
        let rec = chunk.slot(lsn.0).lock().rec.clone();
        rec
    }

    /// Read up to `max` records starting at `from` (inclusive). Returns
    /// records paired with their LSNs; an empty result means the caller
    /// has caught up with the tail.
    pub fn read_range(&self, from: Lsn, max: usize) -> Vec<(Lsn, Arc<LogRecord>)> {
        // Reads below the truncation point start at the first retained
        // record (callers that must never miss records — propagation
        // cursors — are protected by the truncation guard upstream).
        let start = from.0.max(1).max(self.base.load(Ordering::Acquire) + 1);
        let published = self.published.load(Ordering::Acquire);
        if start > published || max == 0 {
            return Vec::new();
        }
        let end = published.min(start.saturating_add(max as u64 - 1));
        let mut out = Vec::with_capacity((end - start + 1) as usize);
        let mut lsn = start;
        'scan: while lsn <= end {
            let Some(chunk) = self.store.read().chunk_for(lsn) else {
                break; // lost a race with truncation: return what we have
            };
            let chunk_end = end.min(chunk.last());
            while lsn <= chunk_end {
                match chunk.slot(lsn).lock().rec.clone() {
                    Some(rec) => out.push((Lsn(lsn), rec)),
                    None => break 'scan,
                }
                lsn += 1;
            }
        }
        out
    }

    /// How many records exist at or after `from` — the propagation
    /// backlog used by the §3.3 convergence analysis. Atomic loads
    /// only.
    pub fn backlog(&self, from: Lsn) -> usize {
        let last = self.last_lsn();
        if from.is_zero() {
            return last.0 as usize;
        }
        (last.0 + 1).saturating_sub(from.0) as usize
    }

    /// A cursor positioned at `from` for incremental tail reading.
    pub fn tail(&self, from: Lsn) -> TailCursor {
        TailCursor {
            next: if from.is_zero() { Lsn(1) } else { from },
        }
    }
}

/// Incremental reader over the log tail. The log propagator holds one
/// of these across propagation iterations; [`TailCursor::next_lsn`]
/// after a drained batch is exactly the `start_lsn` to store in the
/// next fuzzy mark.
#[derive(Clone, Copy, Debug)]
pub struct TailCursor {
    next: Lsn,
}

impl TailCursor {
    /// Read the next batch of at most `max` records.
    pub fn next_batch(&mut self, log: &LogManager, max: usize) -> Vec<(Lsn, Arc<LogRecord>)> {
        let batch = log.read_range(self.next, max);
        if let Some((last, _)) = batch.last() {
            self.next = last.next();
        }
        batch
    }

    /// The LSN the next batch will start from.
    pub fn next_lsn(&self) -> Lsn {
        self.next
    }

    /// Remaining records behind the tail.
    pub fn backlog(&self, log: &LogManager) -> usize {
        log.backlog(self.next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultBackend, FaultConfig};
    use crate::record::LogRecord;
    use morph_common::TxnId;

    fn begin(n: u64) -> LogRecord {
        LogRecord::Begin { txn: TxnId(n) }
    }

    #[test]
    fn lsns_are_sequential_from_one() {
        let log = LogManager::new();
        assert!(log.is_empty());
        assert_eq!(log.append(begin(1)), Lsn(1));
        assert_eq!(log.append(begin(2)), Lsn(2));
        assert_eq!(log.last_lsn(), Lsn(2));
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn read_by_lsn() {
        let log = LogManager::new();
        log.append(begin(7));
        assert_eq!(*log.read(Lsn(1)).unwrap(), begin(7));
        assert!(log.read(Lsn(2)).is_none());
        assert!(log.read(Lsn::ZERO).is_none());
    }

    #[test]
    fn read_range_clamps() {
        let log = LogManager::new();
        for i in 0..10 {
            log.append(begin(i));
        }
        let batch = log.read_range(Lsn(8), 100);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[0].0, Lsn(8));
        assert_eq!(batch[2].0, Lsn(10));
        assert!(log.read_range(Lsn(11), 5).is_empty());
        // Lsn::ZERO means "from the start".
        assert_eq!(log.read_range(Lsn::ZERO, 2).len(), 2);
    }

    #[test]
    fn backlog_counts_inclusive() {
        let log = LogManager::new();
        for i in 0..5 {
            log.append(begin(i));
        }
        assert_eq!(log.backlog(Lsn(1)), 5);
        assert_eq!(log.backlog(Lsn(5)), 1);
        assert_eq!(log.backlog(Lsn(6)), 0);
        assert_eq!(log.backlog(Lsn::ZERO), 5);
    }

    #[test]
    fn tail_cursor_drains_incrementally() {
        let log = LogManager::new();
        for i in 0..7 {
            log.append(begin(i));
        }
        let mut cur = log.tail(Lsn(1));
        let b1 = cur.next_batch(&log, 3);
        assert_eq!(b1.len(), 3);
        assert_eq!(cur.next_lsn(), Lsn(4));
        assert_eq!(cur.backlog(&log), 4);
        let b2 = cur.next_batch(&log, 10);
        assert_eq!(b2.len(), 4);
        assert!(cur.next_batch(&log, 10).is_empty());
        // New appends become visible to the same cursor.
        log.append(begin(99));
        let b3 = cur.next_batch(&log, 10);
        assert_eq!(b3.len(), 1);
        assert_eq!(*b3[0].1, begin(99));
    }

    #[test]
    fn concurrent_appends_get_unique_lsns() {
        use std::collections::HashSet;
        let log = std::sync::Arc::new(LogManager::new());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let log = std::sync::Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
                let mut seen = Vec::new();
                for _ in 0..500 {
                    seen.push(log.append(begin(t)));
                }
                seen
            }));
        }
        let mut all = HashSet::new();
        for h in handles {
            for lsn in h.join().unwrap() {
                assert!(all.insert(lsn), "duplicate LSN {lsn:?}");
            }
        }
        assert_eq!(all.len(), 4000);
        assert_eq!(log.last_lsn(), Lsn(4000));
        // The publish watermark left no gaps behind.
        assert_eq!(log.read_range(Lsn(1), 5000).len(), 4000);
    }

    /// `append` returning means the record is readable. The engine
    /// relies on it: a writer appends inside the table shard latch, so
    /// once a schema change holds that latch exclusively its final
    /// drain to `last_lsn()` has seen every write. An appender stalled
    /// between reserving its LSN and filling its slot holds the
    /// watermark below every later LSN, so later appenders wait it out.
    #[test]
    fn append_returns_only_once_its_record_is_readable() {
        let log = Arc::new(LogManager::new());
        // The stalled appender: LSN 1 reserved, slot not yet filled.
        assert_eq!(log.reserved.fetch_add(1, Ordering::Relaxed) + 1, 1);
        let (tx, rx) = std::sync::mpsc::channel();
        let appender = {
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                let lsn = log.append(begin(2));
                tx.send((lsn, log.last_lsn())).unwrap();
            })
        };
        while log.reserved.load(Ordering::Relaxed) < 2 {
            std::thread::yield_now();
        }
        assert!(
            rx.recv_timeout(Duration::from_millis(50)).is_err(),
            "append returned with its record behind an unfilled slot"
        );
        assert_eq!(log.last_lsn(), Lsn::ZERO);
        // The stalled appender resumes: fill and publish.
        log.ensure_chunk(1).slot(1).lock().rec = Some(Arc::new(begin(1)));
        log.publish_filled();
        let (lsn, seen) = rx.recv().unwrap();
        assert_eq!(lsn, Lsn(2));
        assert!(seen >= lsn);
        appender.join().unwrap();
        assert_eq!(log.read_range(Lsn(1), 10).len(), 2);
    }

    #[test]
    fn truncation_discards_prefix_only() {
        let log = LogManager::new();
        for i in 0..10 {
            log.append(begin(i));
        }
        assert_eq!(log.truncate_until(Lsn(5)).unwrap(), 4);
        assert_eq!(log.truncated_until(), Lsn(4));
        assert_eq!(log.len(), 6);
        assert_eq!(log.last_lsn(), Lsn(10));
        // Truncated records are gone; retained ones keep their LSNs.
        assert!(log.read(Lsn(4)).is_none());
        assert_eq!(*log.read(Lsn(5)).unwrap(), begin(4));
        assert_eq!(*log.read(Lsn(10)).unwrap(), begin(9));
        // Appends continue in sequence.
        assert_eq!(log.append(begin(99)), Lsn(11));
        // Idempotent / below-base truncation is a no-op.
        assert_eq!(log.truncate_until(Lsn(3)).unwrap(), 0);
        assert_eq!(log.truncate_until(Lsn(5)).unwrap(), 0);
    }

    #[test]
    fn read_range_after_truncation_clamps_to_base() {
        let log = LogManager::new();
        for i in 0..10 {
            log.append(begin(i));
        }
        log.truncate_until(Lsn(7)).unwrap();
        let batch = log.read_range(Lsn(1), 100);
        assert_eq!(batch.len(), 4);
        assert_eq!(batch[0].0, Lsn(7));
        let mut cur = log.tail(Lsn(7));
        assert_eq!(cur.next_batch(&log, 2).len(), 2);
        assert_eq!(cur.next_lsn(), Lsn(9));
    }

    #[test]
    fn truncate_everything_then_keep_appending() {
        let log = LogManager::new();
        for i in 0..5 {
            log.append(begin(i));
        }
        assert_eq!(log.truncate_until(Lsn(6)).unwrap(), 5);
        assert!(log.is_empty());
        assert_eq!(log.last_lsn(), Lsn(5));
        assert_eq!(log.append(begin(7)), Lsn(6));
        assert_eq!(*log.read(Lsn(6)).unwrap(), begin(7));
    }

    #[test]
    fn with_records_preloads() {
        let log = LogManager::with_records(vec![begin(1), begin(2)]);
        assert_eq!(log.last_lsn(), Lsn(2));
        assert_eq!(*log.read(Lsn(2)).unwrap(), begin(2));
    }

    #[test]
    fn truncation_across_chunk_boundaries() {
        let log = LogManager::new();
        let n = CHUNK_RECORDS * 3 + 17;
        for i in 0..n {
            log.append(begin(i));
        }
        // Partial-chunk truncation: logical base moves, reads obey it.
        let cut = CHUNK_RECORDS + 9;
        assert_eq!(log.truncate_until(Lsn(cut)).unwrap(), (cut - 1) as usize);
        assert!(log.read(Lsn(cut - 1)).is_none());
        assert_eq!(*log.read(Lsn(cut)).unwrap(), begin(cut - 1));
        assert_eq!(log.len(), (n - cut + 1) as usize);
        // Whole-log truncation then continued appends.
        assert_eq!(
            log.truncate_until(Lsn(n + 1)).unwrap(),
            (n - cut + 1) as usize
        );
        assert!(log.is_empty());
        assert_eq!(log.append(begin(1000)), Lsn(n + 1));
        assert_eq!(*log.read(Lsn(n + 1)).unwrap(), begin(1000));
        assert_eq!(log.read_range(Lsn(1), 10)[0].0, Lsn(n + 1));
    }

    #[test]
    fn appends_stage_bytes_until_flush() {
        let (backend, handle) = FaultBackend::new(FaultConfig::crash_only(3));
        let log = LogManager::with_backend(Box::new(backend));
        let mut last = Lsn::ZERO;
        for i in 0..5 {
            last = log.append(begin(i));
        }
        // Nothing drained yet: appends are staged in the slots.
        assert_eq!(handle.buffered_len(), 0);
        assert_eq!(log.durable_lsn(), Lsn::ZERO);
        // A drain alone moves them to the backend's volatile buffer
        // and makes nothing durable; the flush below must not write
        // them a second time (`recs.len()` at the end).
        assert_eq!(log.drain().unwrap(), last);
        assert!(handle.buffered_len() > 0);
        assert_eq!(log.durable_lsn(), Lsn::ZERO);
        log.wait_durable(last).unwrap();
        assert_eq!(log.durable_lsn(), last);
        assert_eq!(log.flush_count(), 1);
        // One more durable wait is a no-op (dirty fast path).
        log.wait_durable(last).unwrap();
        log.flush().unwrap();
        assert_eq!(log.flush_count(), 1);
        let recs = handle.durable_records().unwrap();
        assert_eq!(recs.len(), 5);
        assert_eq!(recs[4], begin(4));
    }

    #[test]
    fn flush_with_nothing_new_skips_fsync() {
        let (backend, handle) = FaultBackend::new(FaultConfig::crash_only(3));
        let log = LogManager::with_backend(Box::new(backend));
        log.append(begin(1));
        log.flush().unwrap();
        assert_eq!(log.flush_count(), 1);
        // No bytes since the last flush: no backend flush happens.
        log.flush().unwrap();
        log.flush().unwrap();
        assert_eq!(log.flush_count(), 1);
        assert_eq!(handle.counts().1, 1);
        log.append(begin(2));
        log.flush().unwrap();
        assert_eq!(log.flush_count(), 2);
    }

    #[test]
    fn group_commit_single_flush_covers_many_waiters() {
        // 8 committers each append then wait_durable; with the flush
        // serialized behind a leader, the backend flush count must be
        // well below the commit count is not guaranteed determinis-
        // tically, but every waiter must come back durable.
        let (backend, handle) = FaultBackend::new(FaultConfig::crash_only(7));
        let log = Arc::new(LogManager::with_backend(Box::new(backend)));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let log = Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
                let mut acked = Lsn::ZERO;
                for i in 0..50 {
                    let lsn = log.append(begin(t * 1000 + i));
                    log.wait_durable(lsn).unwrap();
                    assert!(log.durable_lsn() >= lsn);
                    acked = lsn;
                }
                acked
            }));
        }
        let mut max_acked = Lsn::ZERO;
        for h in handles {
            max_acked = max_acked.max(h.join().unwrap());
        }
        assert!(log.durable_lsn() >= max_acked);
        let recs = handle.durable_records().unwrap();
        assert_eq!(recs.len(), 400);
    }

    #[test]
    fn wait_durable_without_backend_is_noop() {
        let log = LogManager::new();
        let lsn = log.append(begin(1));
        log.wait_durable(lsn).unwrap();
        log.flush().unwrap();
        assert_eq!(log.flush_count(), 0);
    }

    #[test]
    fn group_truncation_drains_reclaimed_chunks_to_backend() {
        let (backend, handle) = FaultBackend::new(FaultConfig::crash_only(5));
        let log = LogManager::with_backend(Box::new(backend));
        let n = CHUNK_RECORDS * 2 + 3;
        for i in 0..n {
            log.append(begin(i));
        }
        // Truncate past the first two chunks without ever flushing:
        // their staged bytes must reach the backend buffer anyway.
        log.truncate_until(Lsn(n + 1)).unwrap();
        assert!(handle.buffered_len() > 0);
        log.flush().unwrap();
        let recs = handle.durable_records().unwrap();
        // Whole reclaimed chunks were drained; the partial tail chunk
        // is drained by the flush.
        assert_eq!(recs.len(), n as usize);
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(*r, begin(i as u64), "byte order == LSN order");
        }
    }

    /// Regression: a drain that finds a published slot without its
    /// staged bytes (a staging-invariant violation) must surface
    /// `DbError::Internal` to the committer instead of panicking under
    /// the backend lock — a panic there poisons the group-commit path
    /// for every later committer.
    #[test]
    fn corrupted_staged_slot_errors_instead_of_panicking() {
        let (backend, handle) = FaultBackend::new(FaultConfig::crash_only(9));
        let log = LogManager::with_backend(Box::new(backend));
        let mut last = Lsn::ZERO;
        for i in 0..3 {
            last = log.append(begin(i));
        }
        assert!(log.steal_staged_for_test(Lsn(2)).is_some());
        let Err(err) = log.wait_durable(last) else {
            panic!("drain over a corrupted slot must fail")
        };
        assert!(
            matches!(err, morph_common::DbError::Internal(ref m) if m.contains("staged")),
            "got {err:?}"
        );
        // The drain stopped at the last good LSN: nothing at or past
        // the corrupted slot became durable, and the committer saw the
        // failure rather than a wedged log.
        assert!(log.durable_lsn() < Lsn(2));
        assert!(handle.durable_records().unwrap().len() <= 1);
    }
}
