//! Multi-threaded append/crash stress for the lock-split WAL: N
//! appender threads and one truncating thread over a seeded
//! `FaultBackend`, a drain, a crash at a seeded-random byte offset of
//! the drained bytes, and three invariants:
//!
//! 1. **byte order == LSN order** — the durable prefix decodes to the
//!    records of `Lsn(1)..=k` in exactly that order, with no gap and
//!    no reordering, regardless of which threads raced which;
//! 2. **the watermark never lies** — every LSN a thread saw
//!    acknowledged by `wait_durable` before the crash is inside the
//!    surviving prefix;
//! 3. **truncation loses nothing it keeps** — every LSN above the
//!    truncation base still reads the record its appender wrote, while
//!    the truncator frees chunks beside the appenders.
//!
//! The `TxnId` payload of each record encodes (thread, sequence), so
//! the decoded prefix identifies exactly which append each durable
//! record came from. Every fourth record is an insert of a long
//! string, too long for a log slot's inline bytes, so spilled records
//! race the truncator's chunk frees beside inline ones.

use morph_common::{DbResult, Lsn, TableId, TxnId, Value};
use morph_wal::{decode_stream, Backend, FaultBackend, FaultConfig, LogManager, LogOp, LogRecord};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const THREADS: u64 = 8;
const APPENDS_PER_THREAD: u64 = 400;
/// Records the truncating thread leaves behind the published tail.
const TRUNCATE_KEEP: u64 = 64;

fn payload(thread: u64, seq: u64) -> TxnId {
    TxnId(thread * 1_000_000 + seq)
}

/// The record appended for `txn`: a commit, or every fourth one an
/// insert of a 150–213 byte string.
fn record(txn: TxnId) -> LogRecord {
    if txn.0 % 4 != 3 {
        return LogRecord::Commit { txn };
    }
    let row = vec![Value::str("x".repeat(150 + (txn.0 % 64) as usize))];
    LogRecord::Op {
        txn,
        op: LogOp::Insert {
            table: TableId(1),
            row,
        },
    }
}

/// Run the stress universe, returning nothing: all invariants are
/// asserted inside.
fn stress(seed: u64) {
    let (backend, handle) = FaultBackend::new(FaultConfig::crash_only(seed));
    let log = Arc::new(LogManager::with_backend(Box::new(backend)));

    // lsn -> payload, recorded by whichever thread won that LSN.
    let by_lsn: Arc<Mutex<BTreeMap<u64, TxnId>>> = Arc::new(Mutex::new(BTreeMap::new()));
    // Highest LSN any thread saw wait_durable acknowledge.
    let max_acked = Arc::new(AtomicU64::new(0));

    // Truncates to a short window behind the tail for as long as the
    // appenders run, and once more after they finish.
    let appending = Arc::new(AtomicBool::new(true));
    let truncator = {
        let log = Arc::clone(&log);
        let appending = Arc::clone(&appending);
        std::thread::spawn(move || {
            let mut discarded = 0;
            loop {
                let last_round = !appending.load(Ordering::Acquire);
                let keep_from = log.last_lsn().0.saturating_sub(TRUNCATE_KEEP);
                discarded += log
                    .truncate_until(Lsn(keep_from))
                    .expect("truncation failed");
                if last_round {
                    return discarded;
                }
                std::thread::yield_now();
            }
        })
    };

    let mut handles = Vec::new();
    for t in 0..THREADS {
        let log = Arc::clone(&log);
        let by_lsn = Arc::clone(&by_lsn);
        let max_acked = Arc::clone(&max_acked);
        handles.push(std::thread::spawn(move || {
            for i in 0..APPENDS_PER_THREAD {
                let txn = payload(t, i);
                let lsn = log.append(record(txn));
                by_lsn.lock().insert(lsn.0, txn);
                // Every 16th append acts like a committer and demands
                // durability; the rest just race the append path.
                if i % 16 == t % 16 {
                    log.wait_durable(lsn).expect("flush failed");
                    assert!(log.durable_lsn() >= lsn, "watermark behind ack");
                    max_acked.fetch_max(lsn.0, Ordering::Relaxed);
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    appending.store(false, Ordering::Release);
    let discarded = truncator.join().unwrap();

    let total = THREADS * APPENDS_PER_THREAD;
    assert_eq!(log.last_lsn(), Lsn(total), "publish watermark incomplete");
    let by_lsn = by_lsn.lock();
    assert_eq!(by_lsn.len() as u64, total, "duplicate or lost LSNs");

    // Invariant 3: every retained LSN reads its own record.
    let base = log.truncated_until().0;
    assert_eq!(discarded as u64, base, "discarded count != truncation base");
    assert!(base > 0, "the truncator never truncated (seed {seed})");
    assert!(log.read(Lsn(base)).is_none(), "record below the base");
    for lsn in base + 1..=total {
        let rec = log.read(Lsn(lsn)).expect("retained record missing");
        assert_eq!(
            rec,
            record(by_lsn[&lsn]),
            "retained LSN {lsn} reads another record (seed {seed})"
        );
    }

    // Everything past the last acknowledged flush is still staged;
    // the drain makes it the backend's unflushed bytes, and the crash
    // keeps a seeded-random byte prefix of those.
    log.drain().expect("drain failed");
    handle.crash();
    let durable = decode_stream(&handle.durable_bytes()).expect("torn image must decode");
    let k = durable.len() as u64;

    // Invariant 2: acknowledged durability survived the tear.
    let acked = max_acked.load(Ordering::Relaxed);
    assert!(
        k >= acked,
        "wait_durable acked {acked} but only {k} records survived (seed {seed})"
    );

    // Invariant 1: the survivors are exactly Lsn(1)..=k, in order.
    for (i, rec) in durable.iter().enumerate() {
        let lsn = i as u64 + 1;
        assert_eq!(
            *rec,
            record(by_lsn[&lsn]),
            "byte position {i} holds the wrong record for {lsn} \
             (seed {seed}): byte order != LSN order"
        );
    }
}

#[test]
fn concurrent_appends_survive_a_torn_crash() {
    for seed in [1, 42, 777] {
        stress(seed);
    }
}

/// A backend whose flush costs about as much as a fast device's fsync.
struct SlowFlush;

impl Backend for SlowFlush {
    fn append(&mut self, _encoded: &[u8]) {}

    fn flush(&mut self) -> DbResult<()> {
        std::thread::sleep(Duration::from_micros(150));
        Ok(())
    }
}

#[test]
fn group_commit_flushes_far_fewer_times_than_commits() {
    // The group-commit economy argument, measured: 4 committers × 200
    // commits each, every commit waiting for durability on a backend
    // whose flush takes ~150 µs. Committers that arrive during a flush
    // pile up behind it and share the next one, so the flush counter
    // must come in well under the commit count.
    let log = Arc::new(LogManager::with_backend(Box::new(SlowFlush)));
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let log = Arc::clone(&log);
        handles.push(std::thread::spawn(move || {
            for i in 0..200 {
                let lsn = log.append(LogRecord::Commit { txn: payload(t, i) });
                log.wait_durable(lsn).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let commits = 4 * 200;
    let flushes = log.flush_count();
    assert!(
        flushes < commits / 2,
        "group commit did not batch: {flushes} flushes for {commits} commits"
    );
}
