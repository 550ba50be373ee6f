//! The closed-loop client.
//!
//! Each client thread runs transactions back-to-back (zero think time,
//! as in the paper's saturation-oriented setup, unless `pacing` says
//! otherwise): begin, perform `updates_per_txn` record updates, then
//! commit. Each update hits one of the weighted `targets`, or, with
//! probability `1 − hot_fraction`, the `dummy` table. Deadlock victims,
//! doomed transactions and frozen-table errors roll back and continue;
//! once any client has seen a schema-change error, the dummy takes
//! every update of every client, so the offered load stays constant
//! after the schema switch removes the source tables.

use crate::stats::SharedStats;
use morph_common::{DbError, Key, Value};
use morph_engine::Database;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One table the clients update.
#[derive(Clone, Debug)]
pub struct UpdateTarget {
    /// Table name.
    pub table: String,
    /// Keys are drawn from `0..keys` (single-column integer primary
    /// keys, as all the benchmark and example schemas use).
    pub keys: i64,
    /// Column index the update rewrites (a nullable or string column;
    /// the clients write short strings).
    pub column: usize,
    /// This target's share of the targeted updates, relative to the
    /// other targets' weights.
    pub weight: u32,
}

impl UpdateTarget {
    /// A target of weight 1.
    pub fn new(table: &str, keys: i64, column: usize) -> UpdateTarget {
        UpdateTarget {
            table: table.to_owned(),
            keys,
            column,
            weight: 1,
        }
    }
}

/// What the clients do.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Updates per transaction (10 in the paper).
    pub updates_per_txn: usize,
    /// Fraction of updates that hit `targets` rather than `dummy`
    /// (0.2 / 0.8 in Figure 4(c)). Without a dummy every update hits
    /// the targets.
    pub hot_fraction: f64,
    /// The tables under transformation, picked by weight. A config
    /// whose targets weigh nothing runs no transactions.
    pub targets: Vec<UpdateTarget>,
    /// The table that absorbs the other `1 − hot_fraction` share "to
    /// keep the workload constant" (§6), and every update once a client
    /// has seen a schema-change error. Its `weight` is not read.
    pub dummy: Option<UpdateTarget>,
    /// Sleep after each transaction, counted into its response time:
    /// the network round trip of the paper's remote clients.
    pub pacing: Option<Duration>,
}

pub(crate) struct Client {
    pub db: Arc<Database>,
    pub cfg: ClientConfig,
    pub stats: Arc<SharedStats>,
    pub stop: Arc<AtomicBool>,
    /// Set (by any client) once the schema switch has been observed.
    pub switched: Arc<AtomicBool>,
    pub seed: u64,
}

impl Client {
    pub fn run(self) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        // Cumulative target weights: a draw below `bounds[i]` and not
        // below `bounds[i - 1]` picks target `i`.
        let bounds: Vec<u32> = self
            .cfg
            .targets
            .iter()
            .scan(0, |sum, t| {
                *sum += t.weight;
                Some(*sum)
            })
            .collect();
        let weights = bounds.last().copied().unwrap_or(0);
        if weights == 0 {
            return;
        }
        let mut serial = 0u64;
        while !self.stop.load(Ordering::Relaxed) {
            serial += 1;
            let t0 = Instant::now();
            let txn = self.db.begin();
            let updates = (0..self.cfg.updates_per_txn).try_for_each(|_| {
                let target = match &self.cfg.dummy {
                    Some(dummy)
                        if self.switched.load(Ordering::Relaxed)
                            || !rng.gen_bool(self.cfg.hot_fraction) =>
                    {
                        dummy
                    }
                    _ => {
                        let draw = rng.gen_range(0..weights);
                        &self.cfg.targets[bounds.partition_point(|&b| b <= draw)]
                    }
                };
                let key = Key::single(rng.gen_range(0..target.keys.max(1)));
                let patch = [(target.column, Value::str(format!("w{serial}")))];
                self.db.update(txn, &target.table, &key, &patch)
            });
            let outcome = match updates {
                Ok(()) => self.db.commit(txn),
                Err(e) => {
                    let _ = self.db.abort(txn);
                    Err(e)
                }
            };
            // Client-observed response time includes the simulated
            // network round trip (`pacing`): the paper measured
            // response times at client nodes across a LAN, so the
            // constant RTT is part of both the baseline and the
            // during-change latency — exactly how relative response
            // time (Figure 4(b)) is defined.
            let rtt = self.cfg.pacing.unwrap_or_default();
            match outcome {
                Ok(()) => self
                    .stats
                    .record_commit((t0.elapsed() + rtt).as_nanos() as u64),
                Err(e) => {
                    let schema = matches!(
                        e,
                        DbError::TxnDoomed(_) | DbError::TableFrozen(_) | DbError::NoSuchTable(_)
                    );
                    if schema {
                        self.switched.store(true, Ordering::Relaxed);
                    }
                    self.stats.record_abort(schema);
                }
            }
            if let Some(p) = self.cfg.pacing {
                std::thread::sleep(p);
            }
        }
    }
}
