//! Fault-injecting in-memory WAL backend for deterministic crash
//! simulation (FoundationDB-style: all failure decisions come from a
//! seeded RNG, so every run reproduces exactly from its seed).
//!
//! [`FaultBackend`] implements [`Backend`] over two byte buffers:
//! `durable` (bytes a successful flush has synced) and `buffered`
//! (appended but not yet flushed). A simulated crash, triggered
//! through the paired [`FaultHandle`], keeps a *seeded-random byte
//! prefix* of the buffered bytes — covering the whole spectrum from
//! "all unsynced bytes lost" through torn mid-record writes to "the
//! OS happened to write everything" — and wedges the backend so any
//! post-crash use fails loudly. The surviving byte image is exactly
//! what a restarted engine may recover from.
//!
//! Injected *errors* (as opposed to crashes) are driven by per-call
//! probabilities: appends can record a sticky deferred error (the
//! same contract as [`FileBackend`](crate::file::FileBackend)), and
//! flushes can fail outright, leaving the buffered bytes non-durable.

use crate::file::{write_frame, Backend};
use morph_common::{DbError, DbResult};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Failure policy for a [`FaultBackend`]. All randomness flows from
/// `seed`; with both probabilities zero the backend behaves like a
/// perfect disk until [`FaultHandle::crash`] is called.
#[derive(Clone, Copy, Debug)]
pub struct FaultConfig {
    /// Seed for every fault decision (error draws and crash tearing).
    pub seed: u64,
    /// Probability an `append` records a sticky deferred I/O error
    /// instead of buffering its bytes.
    pub append_error_prob: f64,
    /// Probability a `flush` fails, leaving buffered bytes volatile.
    pub flush_error_prob: f64,
}

impl FaultConfig {
    /// A perfect disk (no spontaneous errors) whose only fault is the
    /// crash the harness will inject — the sim-sweep default.
    pub fn crash_only(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            append_error_prob: 0.0,
            flush_error_prob: 0.0,
        }
    }
}

struct FaultState {
    config: FaultConfig,
    rng: StdRng,
    /// Bytes a successful flush has made durable; survives a crash.
    durable: Vec<u8>,
    /// Appended but unflushed bytes; (partially) lost at a crash.
    buffered: Vec<u8>,
    /// First injected append error, surfaced at the next flush
    /// (sticky, mirroring `FileBackend`).
    deferred: Option<DbError>,
    /// Set by [`FaultHandle::crash`]: the process is "dead"; any
    /// further append is dropped and any flush errors.
    wedged: bool,
    appends: usize,
    flushes: usize,
}

/// The [`Backend`] half: owned by the `LogManager` under test.
pub struct FaultBackend {
    state: Arc<Mutex<FaultState>>,
}

/// The control half: held by the simulation harness to trigger the
/// crash and to read the surviving durable image afterwards.
#[derive(Clone)]
pub struct FaultHandle {
    state: Arc<Mutex<FaultState>>,
}

impl FaultBackend {
    /// Build a backend/handle pair sharing one fault state.
    pub fn new(config: FaultConfig) -> (FaultBackend, FaultHandle) {
        let state = Arc::new(Mutex::new(FaultState {
            rng: StdRng::seed_from_u64(config.seed),
            config,
            durable: Vec::new(),
            buffered: Vec::new(),
            deferred: None,
            wedged: false,
            appends: 0,
            flushes: 0,
        }));
        (
            FaultBackend {
                state: Arc::clone(&state),
            },
            FaultHandle { state },
        )
    }
}

impl Backend for FaultBackend {
    fn append(&mut self, encoded: &[u8]) {
        let mut s = self.state.lock();
        s.appends += 1;
        if s.wedged {
            return; // writes from a "dead" process go nowhere
        }
        if s.config.append_error_prob > 0.0 {
            let p = s.config.append_error_prob;
            if s.rng.gen_bool(p) {
                if s.deferred.is_none() {
                    s.deferred = Some(DbError::Io("injected append failure".into()));
                }
                return;
            }
        }
        // Writing into a Vec cannot fail.
        let _ = write_frame(&mut s.buffered, encoded);
    }

    fn flush(&mut self) -> DbResult<()> {
        let mut s = self.state.lock();
        s.flushes += 1;
        if s.wedged {
            return Err(DbError::Io("backend wedged after simulated crash".into()));
        }
        if let Some(e) = s.deferred.clone() {
            return Err(e); // sticky, like FileBackend
        }
        if s.config.flush_error_prob > 0.0 {
            let p = s.config.flush_error_prob;
            if s.rng.gen_bool(p) {
                return Err(DbError::Io("injected flush failure".into()));
            }
        }
        let buffered = std::mem::take(&mut s.buffered);
        s.durable.extend_from_slice(&buffered);
        Ok(())
    }
}

impl FaultHandle {
    /// Kill the "process": a seeded-random byte prefix of the
    /// unflushed buffer survives (0 = all unsynced bytes dropped,
    /// `buffered.len()` = everything happened to reach the platter,
    /// anything between = a torn write at that byte offset). Returns
    /// the number of buffered bytes that survived. The backend is
    /// wedged afterwards; a restart loads the surviving image,
    /// [`FaultHandle::durable_bytes`], with
    /// [`LogManager::load_frames`](crate::LogManager::load_frames).
    pub fn crash(&self) -> usize {
        let mut s = self.state.lock();
        let buffered = std::mem::take(&mut s.buffered);
        let keep = if buffered.is_empty() {
            0
        } else {
            s.rng.gen_range(0..=buffered.len())
        };
        s.durable.extend_from_slice(&buffered[..keep]);
        s.wedged = true;
        keep
    }

    /// Snapshot of the durable byte image.
    pub fn durable_bytes(&self) -> Vec<u8> {
        self.state.lock().durable.clone()
    }

    /// Unflushed byte count (0 after a crash).
    pub fn buffered_len(&self) -> usize {
        self.state.lock().buffered.len()
    }

    /// `(appends, flushes)` seen so far, for trace assertions.
    pub fn counts(&self) -> (usize, usize) {
        let s = self.state.lock();
        (s.appends, s.flushes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec;
    use crate::file::decode_stream;
    use crate::record::LogRecord;
    use morph_common::TxnId;

    fn rec(i: u64) -> LogRecord {
        LogRecord::Commit { txn: TxnId(i) }
    }

    #[test]
    fn flushed_bytes_survive_a_crash() {
        let (mut be, handle) = FaultBackend::new(FaultConfig::crash_only(7));
        for i in 0..4 {
            be.append(&codec::encode(&rec(i)));
        }
        be.flush().unwrap();
        be.append(&codec::encode(&rec(99)));
        handle.crash();
        let recs = decode_stream(&handle.durable_bytes()).unwrap();
        assert!(recs.len() >= 4, "flushed records lost: {}", recs.len());
        assert_eq!(recs[..4], (0..4).map(rec).collect::<Vec<_>>()[..]);
    }

    #[test]
    fn crash_keeps_a_prefix_of_unflushed_bytes() {
        // Across many seeds the tear point must always yield a durable
        // image that decodes to a strict prefix of the appended records.
        for seed in 0..50u64 {
            let (mut be, handle) = FaultBackend::new(FaultConfig::crash_only(seed));
            let all: Vec<LogRecord> = (0..6).map(rec).collect();
            for r in &all {
                be.append(&codec::encode(r));
            }
            let survived = handle.crash();
            assert!(survived <= handle.durable_bytes().len());
            let recs = decode_stream(&handle.durable_bytes()).unwrap();
            assert!(recs.len() <= all.len());
            assert_eq!(recs[..], all[..recs.len()], "seed {seed}");
        }
    }

    #[test]
    fn crash_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let (mut be, handle) = FaultBackend::new(FaultConfig::crash_only(seed));
            for i in 0..8 {
                be.append(&codec::encode(&rec(i)));
            }
            handle.crash();
            handle.durable_bytes()
        };
        assert_eq!(run(42), run(42));
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn wedged_backend_rejects_use() {
        let (mut be, handle) = FaultBackend::new(FaultConfig::crash_only(1));
        handle.crash();
        be.append(&codec::encode(&rec(1)));
        assert!(matches!(be.flush(), Err(DbError::Io(_))));
        assert!(decode_stream(&handle.durable_bytes()).unwrap().is_empty());
    }

    #[test]
    fn injected_append_error_is_sticky_until_flush() {
        let (mut be, _handle) = FaultBackend::new(FaultConfig {
            seed: 3,
            append_error_prob: 1.0,
            flush_error_prob: 0.0,
        });
        be.append(&codec::encode(&rec(1)));
        assert!(matches!(be.flush(), Err(DbError::Io(_))));
        assert!(matches!(be.flush(), Err(DbError::Io(_))));
    }

    #[test]
    fn injected_flush_error_keeps_bytes_volatile() {
        let (mut be, handle) = FaultBackend::new(FaultConfig {
            seed: 3,
            append_error_prob: 0.0,
            flush_error_prob: 1.0,
        });
        be.append(&codec::encode(&rec(1)));
        assert!(matches!(be.flush(), Err(DbError::Io(_))));
        assert!(handle.durable_bytes().is_empty());
        assert!(handle.buffered_len() > 0);
    }
}
