//! Multi-threaded append/crash stress for the lock-split WAL: N
//! appender threads over a seeded `FaultBackend`, a drain, a crash at
//! a seeded-random byte offset of the drained bytes, and two
//! invariants on the surviving image:
//!
//! 1. **byte order == LSN order** — the durable prefix decodes to the
//!    records of `Lsn(1)..=k` in exactly that order, with no gap and
//!    no reordering, regardless of which threads raced which;
//! 2. **the watermark never lies** — every LSN a thread saw
//!    acknowledged by `wait_durable` before the crash is inside the
//!    surviving prefix.
//!
//! The `TxnId` payload of each record encodes (thread, sequence), so
//! the decoded prefix identifies exactly which append each durable
//! record came from.

use morph_common::{Lsn, TxnId};
use morph_wal::{FaultBackend, FaultConfig, GroupCommitConfig, LogManager, LogRecord};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const THREADS: u64 = 8;
const APPENDS_PER_THREAD: u64 = 400;

fn payload(thread: u64, seq: u64) -> TxnId {
    TxnId(thread * 1_000_000 + seq)
}

/// Run the stress universe, returning nothing: all invariants are
/// asserted inside.
fn stress(gc: GroupCommitConfig, seed: u64) {
    let (backend, handle) = FaultBackend::new(FaultConfig::crash_only(seed));
    let log = Arc::new(LogManager::with_backend_config(Box::new(backend), gc));

    // lsn -> payload, recorded by whichever thread won that LSN.
    let by_lsn: Arc<Mutex<BTreeMap<u64, TxnId>>> = Arc::new(Mutex::new(BTreeMap::new()));
    // Highest LSN any thread saw wait_durable acknowledge.
    let max_acked = Arc::new(AtomicU64::new(0));

    let mut handles = Vec::new();
    for t in 0..THREADS {
        let log = Arc::clone(&log);
        let by_lsn = Arc::clone(&by_lsn);
        let max_acked = Arc::clone(&max_acked);
        handles.push(std::thread::spawn(move || {
            for i in 0..APPENDS_PER_THREAD {
                let txn = payload(t, i);
                let lsn = log.append(LogRecord::Begin { txn });
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

    let total = THREADS * APPENDS_PER_THREAD;
    assert_eq!(log.last_lsn(), Lsn(total), "publish watermark incomplete");
    let by_lsn = by_lsn.lock();
    assert_eq!(by_lsn.len() as u64, total, "duplicate or lost LSNs");

    // Everything past the last acknowledged flush is still staged;
    // the drain makes it the backend's unflushed bytes, and the crash
    // keeps a seeded-random byte prefix of those.
    log.drain().expect("drain failed");
    handle.crash();
    let durable = handle.durable_records().expect("torn image must decode");
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
        let want = by_lsn[&lsn];
        match rec {
            LogRecord::Begin { txn } => assert_eq!(
                *txn, want,
                "byte position {i} holds the wrong record for {lsn} \
                 (seed {seed}): byte order != LSN order"
            ),
            other => panic!("unexpected record {other:?} at byte position {i}"),
        }
    }
}

#[test]
fn concurrent_appends_survive_a_torn_crash() {
    for seed in [1, 42, 777] {
        stress(GroupCommitConfig::default(), seed);
    }
}

#[test]
fn delay_window_survives_a_torn_crash() {
    // A real batching window: leaders linger up to 200µs for
    // stragglers, so flushes genuinely cover multiple committers.
    let gc = GroupCommitConfig {
        max_batch: 8,
        max_delay: Duration::from_micros(200),
    };
    for seed in [7, 99] {
        stress(gc, seed);
    }
}

#[test]
fn group_commit_flushes_far_fewer_times_than_commits() {
    // The group-commit economy argument, measured: 4 committers × 200
    // commits each, every commit waiting for durability. The flush
    // counter must come in well under the commit count (leaders absorb
    // followers).
    let (backend, _handle) = FaultBackend::new(FaultConfig::crash_only(5));
    let log = Arc::new(LogManager::with_backend_config(
        Box::new(backend),
        GroupCommitConfig {
            max_batch: 16,
            max_delay: Duration::from_micros(100),
        },
    ));
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let log = Arc::clone(&log);
        handles.push(std::thread::spawn(move || {
            for i in 0..200 {
                let lsn = log.append(LogRecord::Begin { txn: payload(t, i) });
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
