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
//! atomic increment, encodes the record outside any lock, copies the
//! bytes into its pre-allocated slot, and *publishes* by advancing the
//! gapless-prefix watermark under a short ordering lock. The backend
//! is fed from the same slot bytes, drained strictly in LSN order by
//! whichever thread next needs durability, so byte order equals LSN
//! order, the invariant the crash simulator's torn-write model depends
//! on. Durability is a watermark: committers call
//! [`wait_durable`](LogManager::wait_durable) and a leader performs
//! one [`drain`](LogManager::drain) + flush on behalf of every waiter
//! at or below the published LSN (group commit).
//!
//! ## One stored form
//!
//! A retained record is kept only as its [`codec`] bytes, written
//! inline in its slot of a fixed-size chunk; a record longer than the
//! inline capacity spills to one buffer of its own. The appender's
//! [`LogRecord`] is dropped on the appending thread, so truncation
//! frees one allocation per chunk (plus any spills), not the records'
//! heap trees, and the backend receives exactly the bytes readers
//! decode. Readers ([`read`](LogManager::read),
//! [`read_range`](LogManager::read_range), [`TailCursor`]) decode on
//! their own thread; [`TailCursor::next_batch_where`] first
//! [`peek`](codec::peek)s each record and decodes only those its
//! caller keeps. Readers consult the atomic published watermark and
//! then touch only per-slot locks that no appender holds any more:
//! tail reads never contend with the append path.
//! [`last_lsn`](LogManager::last_lsn),
//! [`backlog`](LogManager::backlog), [`len`](LogManager::len) and
//! [`is_empty`](LogManager::is_empty) are plain atomic loads (the
//! propagator polls them every iteration). Truncation moves a logical
//! base atomically and reclaims memory a whole chunk at a time: it
//! detaches the retired chunks under the store lock (pointer moves
//! only) and frees them on the truncating thread after every WAL lock
//! is released, so a large free never stalls an appender or a reader.

use crate::codec::{self, Peek};
use crate::file::{self, Backend, FileBackend};
use crate::record::LogRecord;
use bytes::BufMut;
use morph_common::{DbError, DbResult, Lsn};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

/// Group commit has no tuning: batching comes only from committers
/// piling up behind an in-flight flush (DESIGN.md §11). The fieldless
/// type exists only because `benchmark/`, which a product PR may not
/// edit, still passes `GroupCommitConfig::default()` to
/// [`LogManager::with_backend_mode`]; it has braces, not a unit
/// struct's `;`, because clippy rejects `default()` on a unit struct.
#[derive(Clone, Copy, Debug, Default)]
pub struct GroupCommitConfig {}

/// Records per chunk. Power of two; chunk boundaries are fixed
/// relative to LSN 1, so chunk lookup is pure index arithmetic.
const CHUNK_RECORDS: u64 = 256;

/// Encoded bytes a slot holds inline. Most records fit (an update of
/// one short column is about 70 bytes); a longer one spills to one
/// buffer of its own. Sized so that a slot, lock included, is 128
/// bytes (`slot_is_128_bytes_with_its_lock`).
const INLINE_BYTES: usize = 88;

/// One record's cell: its codec bytes, written once by its appender
/// before the publish watermark passes it and immutable afterwards
/// except for the `drained` flag, which the drain step sets (in LSN
/// order, under the backend lock). The per-slot mutex is never
/// contended on the hot path: the appender is done with it before
/// readers may look, and the drainer holds it for one backend append.
struct Slot {
    /// Encoded length; zero until the appender fills the slot (no
    /// record encodes to zero bytes).
    len: u32,
    /// The backend has received these bytes (only with a backend).
    drained: bool,
    inline: [u8; INLINE_BYTES],
    /// All the bytes of a record longer than [`INLINE_BYTES`]; empty
    /// (unallocated) otherwise.
    spill: Vec<u8>,
}

impl Slot {
    const EMPTY: Slot = Slot {
        len: 0,
        drained: false,
        inline: [0; INLINE_BYTES],
        spill: Vec::new(),
    };

    /// A filled slot holding `rec`'s codec bytes.
    fn encode(rec: &LogRecord) -> Slot {
        let mut slot = Slot::EMPTY;
        codec::encode_into(rec, &mut slot);
        slot
    }

    /// The record's bytes; `None` until the appender filled the slot.
    fn bytes(&self) -> Option<&[u8]> {
        match self.len as usize {
            0 => None,
            _ if !self.spill.is_empty() => Some(&self.spill),
            n => Some(&self.inline[..n]),
        }
    }
}

/// The codec, or a loaded frame body's copy, writes straight into an
/// empty slot: inline until the record outgrows [`INLINE_BYTES`], then
/// into the spill buffer.
impl BufMut for Slot {
    fn put_slice(&mut self, src: &[u8]) {
        let len = self.len as usize;
        let end = len + src.len();
        if self.spill.is_empty() && end <= INLINE_BYTES {
            self.inline[len..end].copy_from_slice(src);
        } else {
            if self.spill.is_empty() {
                self.spill.reserve(end.max(2 * INLINE_BYTES));
                self.spill.extend_from_slice(&self.inline[..len]);
            }
            self.spill.extend_from_slice(src);
        }
        self.len = end as u32;
    }
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
                .map(|_| Mutex::new(Slot::EMPTY))
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

/// Append-only, totally ordered log with tail readers.
pub struct LogManager {
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
    /// Set while a group-commit leader drains + flushes; committers
    /// that find it set park on `group_cv`.
    group: Mutex<bool>,
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
    /// A purely in-memory log.
    pub fn new() -> LogManager {
        LogManager {
            store: RwLock::new(ChunkList::default()),
            reserved: AtomicU64::new(0),
            published: AtomicU64::new(0),
            base: AtomicU64::new(0),
            durable: AtomicU64::new(0),
            order: Mutex::new(()),
            trunc: Mutex::new(()),
            backend: None,
            group: Mutex::new(false),
            group_cv: Condvar::new(),
            flushes: AtomicU64::new(0),
        }
    }

    /// [`LogManager::new`]; kept only for `benchmark/`'s call sites.
    pub fn new_in(_mode: WalMode) -> LogManager {
        Self::new()
    }

    /// A log that also persists every record to `path` (length-prefixed
    /// frames, see [`crate::file`]), continuing the file: its whole
    /// frames are loaded as LSNs 1..=n ([`LogManager::load_frames`]),
    /// then a torn tail is cut off the file, so the next append is LSN
    /// n + 1 in memory and on disk. A missing file is created empty; a
    /// corrupt frame leaves the file as it was.
    pub fn with_file(path: &std::path::Path) -> DbResult<LogManager> {
        let log = Self::with_backend(Box::new(FileBackend::open(path)?));
        let bytes = std::fs::read(path)?;
        let whole = log.load_frames(&bytes)?;
        if whole < bytes.len() {
            let file = std::fs::OpenOptions::new().write(true).open(path)?;
            file.set_len(whole as u64)?;
            file.sync_all()?;
        }
        Ok(log)
    }

    /// A log that tees every record into an arbitrary [`Backend`] —
    /// the injection point for the crash-simulation harness's
    /// fault-capable in-memory backend.
    pub fn with_backend(sink: Box<dyn Backend + Send>) -> LogManager {
        let backend = Some(Mutex::new(BackendState { sink, drained: 0 }));
        LogManager {
            backend,
            ..Self::new()
        }
    }

    /// [`LogManager::with_backend`]; kept only for `benchmark/`'s call
    /// sites.
    pub fn with_backend_mode(
        backend: Box<dyn Backend + Send>,
        _mode: WalMode,
        _group: GroupCommitConfig,
    ) -> LogManager {
        Self::with_backend(backend)
    }

    /// An in-memory log preloaded with `records` at LSNs 1..=n, for
    /// tests that restart from a history they wrote by hand: the
    /// records are framed and loaded as a restart loads its bytes.
    pub fn with_records(records: Vec<LogRecord>) -> LogManager {
        let log = Self::new();
        let loaded = log.load_frames(&file::encode_stream(&records));
        // morph-lint: allow(panic, a fresh log is empty and the codec's own frames are whole and valid)
        loaded.expect("fresh log");
        log
    }

    /// Load a frame stream, as a [`Backend`] stores it, into this log,
    /// which must be empty, and return the length of its whole frames
    /// (a torn tail after them is ignored): the one preloading body.
    /// Each whole frame's body, checked in full, is copied into the
    /// slot of LSNs 1..=n. A corrupt complete frame is
    /// [`DbError::CorruptLog`], and a log that has reserved any LSN is
    /// refused atomically; either loads nothing. An appender may race
    /// the load: it takes an LSN after the loaded ones, and the order
    /// and store locks keep it from publishing past, or allocating a
    /// chunk ahead of, slots not yet filled. With a backend, the frames
    /// are taken to be the backend's own contents: drained and durable,
    /// never handed to it again.
    pub fn load_frames(&self, bytes: &[u8]) -> DbResult<usize> {
        let (bodies, whole) = file::frames(bytes)?;
        let n = bodies.len() as u64;
        let _order = self.order.lock();
        let mut backend = self.backend.as_ref().map(|backend| backend.lock());
        let mut store = self.store.write();
        let reserved = self
            .reserved
            .compare_exchange(0, n, Ordering::Relaxed, Ordering::Relaxed);
        if reserved.is_err() {
            return Err(DbError::Internal("only an empty log can be loaded".into()));
        }
        for (i, bodies) in bodies.chunks(CHUNK_RECORDS as usize).enumerate() {
            let mut chunk = Chunk::new(i as u64 * CHUNK_RECORDS + 1);
            for (slot, body) in chunk.slots.iter_mut().zip(bodies) {
                let slot = slot.get_mut();
                slot.put_slice(body);
                slot.drained = backend.is_some();
            }
            store.chunks.push_back(Arc::new(chunk));
        }
        if let Some(be) = &mut backend {
            be.drained = n;
        }
        self.durable.fetch_max(n, Ordering::AcqRel);
        self.published.store(n, Ordering::Release);
        Ok(whole)
    }

    // --- append ---------------------------------------------------------

    /// Append one record, returning its LSN: reserve, encode outside
    /// any lock, copy the bytes into the slot, then advance the
    /// publish watermark over the gapless prefix of filled slots. The
    /// record itself is dropped here, on the appending thread.
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
        let filled = Slot::encode(&rec);
        drop(rec);
        let chunk = self.ensure_chunk(lsn);
        *chunk.slot(lsn).lock() = filled;
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
            if cur.slot(next).lock().len == 0 {
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

    /// Hand the slot bytes of every LSN up to `upto` to the backend,
    /// strictly in LSN order, and mark each slot drained. Caller holds
    /// the backend lock; the per-slot locks it takes are uncontended
    /// (appenders are done with published slots).
    ///
    /// A reclaimed chunk, or a published slot that is empty or already
    /// drained, means the truncation / drain-once invariants were
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
            let mut slot = cur.slot(next).lock();
            match slot.bytes() {
                Some(bytes) if !slot.drained => be.sink.append(bytes),
                _ => {
                    return Err(DbError::Internal(format!(
                        "WAL drain: published LSN {next} has no staged bytes left to drain \
                         (empty, or drained before)"
                    )))
                }
            }
            slot.drained = true;
            be.drained = next;
        }
        Ok(())
    }

    /// Hand every published record's bytes to the backend, in
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

    /// Test-only corruption seam: mark a published slot drained
    /// behind the drain cursor's back, so the drain-once check has
    /// something to catch. Returns whether the slot was undrained.
    #[cfg(test)]
    fn mark_drained_for_test(&self, lsn: Lsn) -> bool {
        let Some(chunk) = self.store.read().chunk_for(lsn.0) else {
            return false;
        };
        let mut slot = chunk.slot(lsn.0).lock();
        !std::mem::replace(&mut slot.drained, true)
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
            let mut leader = self.group.lock();
            if lsn.0 <= self.durable.load(Ordering::Acquire) {
                return Ok(());
            }
            if *leader {
                // Follower: park until the in-flight flush completes,
                // then re-check the watermark (the leader's flush
                // covers us unless it failed, in which case we retry
                // as leader and surface the backend's error ourselves).
                self.group_cv.wait(&mut leader);
                continue;
            }
            *leader = true;
            drop(leader);

            // Everything published when the leader flushes becomes
            // durable — including our own lsn, which was published
            // before we were called.
            let result = self.drain().and_then(|target| {
                self.flushes.fetch_add(1, Ordering::Relaxed);
                backend.lock().sink.flush()?;
                Ok(target)
            });

            let mut leader = self.group.lock();
            *leader = false;
            if let Ok(target) = result {
                self.advance_durable(target.0);
            }
            self.group_cv.notify_all();
            drop(leader);
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
    /// a successful backend flush or was loaded from the backend's file
    /// ([`Lsn::ZERO`] before either).
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
    /// The retired chunks are freed on the calling thread after every
    /// WAL lock is released, so appenders and readers run on while a
    /// large log is freed (DESIGN.md §11).
    ///
    /// [`morph-engine`]: ../morph_engine/index.html
    pub fn truncate_until(&self, lsn: Lsn) -> DbResult<usize> {
        let (discarded, retired) = self.detach_until(lsn)?;
        drop(retired);
        Ok(discarded)
    }

    /// The locked half of [`truncate_until`](LogManager::truncate_until):
    /// drain the undrained bytes of whole chunks below `lsn`, move the
    /// base, then pop those chunks off the list under the store lock
    /// (pointer moves only). Returns the number of records discarded
    /// and the retired chunks; every lock is released on return, and
    /// the caller frees the chunks by dropping the list.
    fn detach_until(&self, lsn: Lsn) -> DbResult<(usize, Vec<Arc<Chunk>>)> {
        let _trunc = self.trunc.lock();
        let base = self.base.load(Ordering::Acquire);
        if lsn.0 <= base + 1 {
            return Ok((0, Vec::new()));
        }
        let published = self.published.load(Ordering::Acquire);
        let new_base = (lsn.0 - 1).min(published);
        if new_base <= base {
            return Ok((0, Vec::new()));
        }
        // Whole chunks about to be reclaimed may still hold bytes the
        // backend has not seen; hand them over first so the
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
        // Sized before the lock, so the lock covers no allocation (a
        // growing list could pay glibc's consolidation inside it). The
        // front chunk holds `base + 1`, so at most this many chunks end
        // at or below `new_base`.
        let mut retired =
            Vec::with_capacity((new_base / CHUNK_RECORDS - base / CHUNK_RECORDS) as usize);
        let mut store = self.store.write();
        while store
            .chunks
            .front()
            .is_some_and(|front| front.last() <= new_base)
        {
            retired.extend(store.chunks.pop_front());
        }
        Ok(((new_base - base) as usize, retired))
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetch a single record by LSN (`None` if out of range,
    /// truncated away, or undecodable). Touches only the published
    /// watermark, the chunk index, and the record's own slot, never
    /// the append path; the decode runs on the calling thread.
    pub fn read(&self, lsn: Lsn) -> Option<LogRecord> {
        if lsn.is_zero()
            || lsn.0 <= self.base.load(Ordering::Acquire)
            || lsn.0 > self.published.load(Ordering::Acquire)
        {
            return None;
        }
        let chunk = self.store.read().chunk_for(lsn.0)?;
        let slot = chunk.slot(lsn.0).lock();
        codec::decode(slot.bytes()?).ok()
    }

    /// Read up to `max` records starting at `from` (inclusive). Returns
    /// records paired with their LSNs; an empty result means the caller
    /// has caught up with the tail. A record that fails to decode ends
    /// the batch before it; [`TailCursor::next_batch_where`] surfaces
    /// that as an error instead.
    pub fn read_range(&self, from: Lsn, max: usize) -> Vec<(Lsn, Arc<LogRecord>)> {
        let mut out = Vec::with_capacity(max.min(self.len()));
        // An error only ends the batch early (see above).
        let _ = self.scan(
            from,
            max,
            |_| true,
            |lsn, rec| out.push((lsn, Arc::new(rec))),
        );
        out
    }

    /// Visit the retained records from `from` (inclusive), at most
    /// `max` of them, in LSN order: `keep` sees each record's
    /// [`Peek`], and only the records it keeps are decoded and handed
    /// to `emit`, on the calling thread. Returns how many records were
    /// scanned, the LSN to scan next, and the error of a record that
    /// failed to peek or decode (scanning stops before it). A record
    /// truncated away under the scan also ends it, without an error.
    fn scan(
        &self,
        from: Lsn,
        max: usize,
        mut keep: impl FnMut(&Peek) -> bool,
        mut emit: impl FnMut(Lsn, LogRecord),
    ) -> (usize, Lsn, DbResult<()>) {
        // Reads below the truncation point start at the first retained
        // record (callers that must never miss records — propagation
        // cursors — are protected by the truncation guard upstream).
        let start = from.0.max(1).max(self.base.load(Ordering::Acquire) + 1);
        let published = self.published.load(Ordering::Acquire);
        if start > published || max == 0 {
            return (0, from, Ok(()));
        }
        let end = published.min(start.saturating_add(max as u64 - 1));
        let mut lsn = start;
        let mut result = Ok(());
        'scan: while lsn <= end {
            let Some(chunk) = self.store.read().chunk_for(lsn) else {
                break; // lost a race with truncation: return what we have
            };
            let chunk_end = end.min(chunk.last());
            while lsn <= chunk_end {
                let slot = chunk.slot(lsn).lock();
                let Some(bytes) = slot.bytes() else {
                    break 'scan;
                };
                let visited = codec::peek(bytes).and_then(|peek| {
                    if keep(&peek) {
                        emit(Lsn(lsn), codec::decode(bytes)?);
                    }
                    Ok(())
                });
                if visited.is_err() {
                    result = visited;
                    break 'scan;
                }
                lsn += 1;
            }
        }
        ((lsn - start) as usize, Lsn(lsn), result)
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
/// after a drained batch is where the next iteration starts reading,
/// the §3.3 per-iteration fuzzy mark.
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

    /// Scan the next at most `max` records, decoding only those whose
    /// [`Peek`] `keep` accepts; the cursor moves past every record
    /// scanned, kept or not. Returns how many records were scanned
    /// (zero once the cursor has caught up with the tail) and the kept
    /// ones. A record that cannot be peeked or decoded is an error,
    /// and the cursor stays on it.
    pub fn next_batch_where(
        &mut self,
        log: &LogManager,
        max: usize,
        keep: impl FnMut(&Peek) -> bool,
    ) -> DbResult<(usize, Vec<(Lsn, LogRecord)>)> {
        let mut kept = Vec::new();
        let (scanned, next, result) =
            log.scan(self.next, max, keep, |lsn, rec| kept.push((lsn, rec)));
        self.next = next;
        result.map(|()| (scanned, kept))
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
    use crate::file::decode_stream;
    use crate::record::LogRecord;
    use morph_common::TxnId;
    use std::time::Duration;

    fn commit(n: u64) -> LogRecord {
        LogRecord::Commit { txn: TxnId(n) }
    }

    /// A chunk is `CHUNK_RECORDS` slots in one allocation: 32 KB.
    #[test]
    fn slot_is_128_bytes_with_its_lock() {
        assert_eq!(std::mem::size_of::<Mutex<Slot>>(), 128);
    }

    /// A record longer than the inline bytes spills whole; one that
    /// fits stays inline. Both read back.
    #[test]
    fn long_records_spill_and_short_ones_stay_inline() {
        let spec = |n: usize| LogRecord::MigrationState {
            job: 1,
            stage: 0,
            phase: crate::record::MigrationPhase::Planned,
            spec: "s".repeat(n),
        };
        // 18 header bytes + the spec.
        let fits = spec(INLINE_BYTES - 18);
        let spills = spec(INLINE_BYTES - 17);
        let short = Slot::encode(&fits);
        assert!(short.spill.is_empty());
        assert_eq!(short.bytes().unwrap().len(), INLINE_BYTES);
        let long = Slot::encode(&spills);
        assert_eq!(long.spill.len(), INLINE_BYTES + 1);
        assert_eq!(long.bytes().unwrap(), &codec::encode(&spills)[..]);
        let log = LogManager::new();
        log.append(fits.clone());
        log.append(spills.clone());
        assert_eq!(log.read(Lsn(1)).unwrap(), fits);
        assert_eq!(log.read(Lsn(2)).unwrap(), spills);
    }

    #[test]
    fn lsns_are_sequential_from_one() {
        let log = LogManager::new();
        assert!(log.is_empty());
        assert_eq!(log.append(commit(1)), Lsn(1));
        assert_eq!(log.append(commit(2)), Lsn(2));
        assert_eq!(log.last_lsn(), Lsn(2));
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn read_by_lsn() {
        let log = LogManager::new();
        log.append(commit(7));
        assert_eq!(log.read(Lsn(1)).unwrap(), commit(7));
        assert!(log.read(Lsn(2)).is_none());
        assert!(log.read(Lsn::ZERO).is_none());
    }

    #[test]
    fn read_range_clamps() {
        let log = LogManager::new();
        for i in 0..10 {
            log.append(commit(i));
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
            log.append(commit(i));
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
            log.append(commit(i));
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
        log.append(commit(99));
        let b3 = cur.next_batch(&log, 10);
        assert_eq!(b3.len(), 1);
        assert_eq!(*b3[0].1, commit(99));
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
                    seen.push(log.append(commit(t)));
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
                let lsn = log.append(commit(2));
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
        *log.ensure_chunk(1).slot(1).lock() = Slot::encode(&commit(1));
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
            log.append(commit(i));
        }
        assert_eq!(log.truncate_until(Lsn(5)).unwrap(), 4);
        assert_eq!(log.truncated_until(), Lsn(4));
        assert_eq!(log.len(), 6);
        assert_eq!(log.last_lsn(), Lsn(10));
        // Truncated records are gone; retained ones keep their LSNs.
        assert!(log.read(Lsn(4)).is_none());
        assert_eq!(log.read(Lsn(5)).unwrap(), commit(4));
        assert_eq!(log.read(Lsn(10)).unwrap(), commit(9));
        // Appends continue in sequence.
        assert_eq!(log.append(commit(99)), Lsn(11));
        // Idempotent / below-base truncation is a no-op.
        assert_eq!(log.truncate_until(Lsn(3)).unwrap(), 0);
        assert_eq!(log.truncate_until(Lsn(5)).unwrap(), 0);
    }

    #[test]
    fn read_range_after_truncation_clamps_to_base() {
        let log = LogManager::new();
        for i in 0..10 {
            log.append(commit(i));
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
            log.append(commit(i));
        }
        assert_eq!(log.truncate_until(Lsn(6)).unwrap(), 5);
        assert!(log.is_empty());
        assert_eq!(log.last_lsn(), Lsn(5));
        assert_eq!(log.append(commit(7)), Lsn(6));
        assert_eq!(log.read(Lsn(6)).unwrap(), commit(7));
    }

    #[test]
    fn with_records_preloads() {
        let log = LogManager::with_records(vec![commit(1), commit(2)]);
        assert_eq!(log.last_lsn(), Lsn(2));
        assert_eq!(log.read(Lsn(2)).unwrap(), commit(2));
    }

    /// A log reopened on its file continues it: the file's records
    /// keep their LSNs, the durability watermark starts at the loaded
    /// tail (nothing on disk waits for a flush), and the next append
    /// takes the next LSN in the file as well as in memory.
    #[test]
    fn a_reopened_log_is_durable_to_its_loaded_tail_and_continues_it() {
        let path = std::env::temp_dir().join(format!("morphwal-{}-reopen", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let log = LogManager::with_file(&path).unwrap();
            for i in 0..3 {
                log.append(commit(i));
            }
            log.flush().unwrap();
        }
        let log = LogManager::with_file(&path).unwrap();
        assert_eq!(log.last_lsn(), Lsn(3));
        assert_eq!(log.durable_lsn(), Lsn(3));
        assert_eq!(log.durability_watermark(), Lsn(3));
        log.flush().unwrap();
        assert_eq!(log.flush_count(), 0, "loaded records need no flush");
        assert_eq!(log.append(commit(3)), Lsn(4));
        assert_eq!(log.durability_watermark(), Lsn(3));
        log.flush().unwrap();
        assert_eq!(log.durable_lsn(), Lsn(4));
        drop(log);
        let log = LogManager::with_file(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let all: Vec<(Lsn, LogRecord)> = log
            .read_range(Lsn(1), usize::MAX)
            .into_iter()
            .map(|(lsn, r)| (lsn, (*r).clone()))
            .collect();
        assert_eq!(
            all,
            (0..4).map(|i| (Lsn(i + 1), commit(i))).collect::<Vec<_>>()
        );
    }

    /// A reopened file's record longer than the inline bytes is copied
    /// into a spilled slot and reads back unchanged, and the loaded
    /// frames are never drained again: one append and flush add
    /// exactly one frame to the file.
    #[test]
    fn a_reopened_spilled_record_reads_back_and_is_drained_once() {
        let path = std::env::temp_dir().join(format!("morphwal-{}-spill", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let long = LogRecord::MigrationState {
            job: 1,
            stage: 0,
            phase: crate::record::MigrationPhase::Planned,
            spec: "s".repeat(4 * INLINE_BYTES),
        };
        {
            let log = LogManager::with_file(&path).unwrap();
            log.append(commit(1));
            log.append(long.clone());
            log.flush().unwrap();
        }
        let mut want = std::fs::read(&path).unwrap();
        let log = LogManager::with_file(&path).unwrap();
        let chunk = log.store.read().chunk_for(2).unwrap();
        assert!(!chunk.slot(2).lock().spill.is_empty(), "not spilled");
        assert_eq!(log.read(Lsn(2)).unwrap(), long);
        log.append(commit(3));
        log.flush().unwrap();
        file::write_frame(&mut want, &codec::encode(&commit(3))).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), want);
        std::fs::remove_file(&path).unwrap();
    }

    /// A load racing an append: either the append reserved first and
    /// the load is refused, or the append takes the LSN after the
    /// loaded frames. Either way the backend receives the appended
    /// record and nothing of the load.
    #[test]
    fn a_load_racing_an_append_is_refused_or_precedes_it() {
        let n = CHUNK_RECORDS + 3;
        let frames = file::encode_stream(&(0..n).map(commit).collect::<Vec<_>>());
        for seed in 0..20 {
            let (backend, handle) = FaultBackend::new(FaultConfig::crash_only(seed));
            let log = Arc::new(LogManager::with_backend(Box::new(backend)));
            let appender = {
                let log = Arc::clone(&log);
                std::thread::spawn(move || log.append(commit(999)))
            };
            let loaded = log.load_frames(&frames);
            let lsn = appender.join().unwrap();
            log.flush().unwrap();
            match loaded {
                Ok(_) => assert_eq!(lsn, Lsn(n + 1)),
                Err(DbError::Internal(_)) => assert_eq!(lsn, Lsn(1)),
                Err(e) => panic!("unexpected {e:?}"),
            }
            assert_eq!(log.last_lsn(), lsn);
            assert_eq!(log.read(lsn).unwrap(), commit(999));
            let durable = decode_stream(&handle.durable_bytes()).unwrap();
            assert_eq!(durable, vec![commit(999)]);
        }
    }

    #[test]
    fn truncation_across_chunk_boundaries() {
        let log = LogManager::new();
        let n = CHUNK_RECORDS * 3 + 17;
        for i in 0..n {
            log.append(commit(i));
        }
        // Partial-chunk truncation: logical base moves, reads obey it.
        let cut = CHUNK_RECORDS + 9;
        assert_eq!(log.truncate_until(Lsn(cut)).unwrap(), (cut - 1) as usize);
        assert!(log.read(Lsn(cut - 1)).is_none());
        assert_eq!(log.read(Lsn(cut)).unwrap(), commit(cut - 1));
        assert_eq!(log.len(), (n - cut + 1) as usize);
        // Whole-log truncation then continued appends.
        assert_eq!(
            log.truncate_until(Lsn(n + 1)).unwrap(),
            (n - cut + 1) as usize
        );
        assert!(log.is_empty());
        assert_eq!(log.append(commit(1000)), Lsn(n + 1));
        assert_eq!(log.read(Lsn(n + 1)).unwrap(), commit(1000));
        assert_eq!(log.read_range(Lsn(1), 10)[0].0, Lsn(n + 1));
    }

    /// Truncation frees its chunks outside every WAL lock. The detach
    /// step hands back the retired chunks holding their last reference
    /// (so dropping the list is the free) with the store, truncation
    /// and backend locks already released, and appends and reads
    /// complete while the list is alive. A drop moved back under the
    /// store lock leaves the list empty and fails here.
    #[test]
    fn truncation_frees_retired_chunks_outside_every_lock() {
        let (backend, _handle) = FaultBackend::new(FaultConfig::crash_only(11));
        let log = Arc::new(LogManager::with_backend(Box::new(backend)));
        let n = CHUNK_RECORDS * 3 + 5;
        for i in 0..n {
            log.append(commit(i));
        }
        let cut = CHUNK_RECORDS * 2 + 10;
        let (discarded, retired) = log.detach_until(Lsn(cut)).unwrap();
        assert_eq!(discarded, (cut - 1) as usize);
        assert_eq!(retired.len(), 2, "both whole chunks below the cut retire");
        assert!(
            retired.iter().all(|c| Arc::strong_count(c) == 1),
            "the retired list holds the last reference to each chunk"
        );
        assert!(log.store.try_write().is_some(), "store lock held");
        assert!(log.trunc.try_lock().is_some(), "truncation lock held");
        assert!(
            log.backend.as_ref().unwrap().try_lock().is_some(),
            "backend lock held"
        );
        let (tx, rx) = std::sync::mpsc::channel();
        let client = {
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                let lsn = log.append(commit(n));
                let own = log.read(lsn);
                let retained = log.read_range(Lsn(1), usize::MAX);
                tx.send((lsn, own, retained.len(), retained[0].0)).unwrap();
            })
        };
        let (lsn, own, retained, first) = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("append and reads complete while retired chunks are alive");
        client.join().unwrap();
        assert_eq!(lsn, Lsn(n + 1));
        assert_eq!(own, Some(commit(n)));
        assert_eq!(first, Lsn(cut));
        assert_eq!(retained as u64, n + 2 - cut);
        drop(retired);
        assert_eq!(log.truncate_until(Lsn(n + 2)).unwrap(), retained);
        assert!(log.is_empty());
    }

    #[test]
    fn appends_stage_bytes_until_flush() {
        let (backend, handle) = FaultBackend::new(FaultConfig::crash_only(3));
        let log = LogManager::with_backend(Box::new(backend));
        let mut last = Lsn::ZERO;
        for i in 0..5 {
            last = log.append(commit(i));
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
        let recs = decode_stream(&handle.durable_bytes()).unwrap();
        assert_eq!(recs.len(), 5);
        assert_eq!(recs[4], commit(4));
    }

    #[test]
    fn flush_with_nothing_new_skips_fsync() {
        let (backend, handle) = FaultBackend::new(FaultConfig::crash_only(3));
        let log = LogManager::with_backend(Box::new(backend));
        log.append(commit(1));
        log.flush().unwrap();
        assert_eq!(log.flush_count(), 1);
        // No bytes since the last flush: no backend flush happens.
        log.flush().unwrap();
        log.flush().unwrap();
        assert_eq!(log.flush_count(), 1);
        assert_eq!(handle.counts().1, 1);
        log.append(commit(2));
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
                    let lsn = log.append(commit(t * 1000 + i));
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
        let recs = decode_stream(&handle.durable_bytes()).unwrap();
        assert_eq!(recs.len(), 400);
    }

    #[test]
    fn wait_durable_without_backend_is_noop() {
        let log = LogManager::new();
        let lsn = log.append(commit(1));
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
            log.append(commit(i));
        }
        // Truncate past the first two chunks without ever flushing:
        // their staged bytes must reach the backend buffer anyway.
        log.truncate_until(Lsn(n + 1)).unwrap();
        assert!(handle.buffered_len() > 0);
        log.flush().unwrap();
        let recs = decode_stream(&handle.durable_bytes()).unwrap();
        // Whole reclaimed chunks were drained; the partial tail chunk
        // is drained by the flush.
        assert_eq!(recs.len(), n as usize);
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(*r, commit(i as u64), "byte order == LSN order");
        }
    }

    /// Regression: a drain that finds a published slot whose bytes
    /// were already drained (a drain-once violation) must surface
    /// `DbError::Internal` to the committer instead of panicking under
    /// the backend lock — a panic there poisons the group-commit path
    /// for every later committer.
    #[test]
    fn corrupted_staged_slot_errors_instead_of_panicking() {
        let (backend, handle) = FaultBackend::new(FaultConfig::crash_only(9));
        let log = LogManager::with_backend(Box::new(backend));
        let mut last = Lsn::ZERO;
        for i in 0..3 {
            last = log.append(commit(i));
        }
        assert!(log.mark_drained_for_test(Lsn(2)));
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
        assert!(decode_stream(&handle.durable_bytes()).unwrap().len() <= 1);
    }
}
