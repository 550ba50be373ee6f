//! The host-speed reference.
//!
//! This sandbox runs the same code at speeds that differ by a quarter
//! from one run to the next and by as much within a run (ten runs of one
//! binary: in-memory steady throughput 68 K–110 K op/s, the loop below
//! 2.8 M–5.9 M iterations/s, the two moving together). No amount of
//! averaging inside a run removes a slow half-minute. So every round
//! starts with a short reference phase in which each client thread, on
//! the CPU it is about to measure on, runs this loop, and the run reports
//! what a steady-state transaction costs the CPU *in reference
//! iterations of the same round* (`steady_cost_kref`, see `report.rs`)
//! next to the raw rate. Over those ten runs the spread (quartile
//! distance over median) of the raw rate was 0.19 and of the rate per
//! reference iteration 0.06.
//!
//! The loop is the benchmark's own and calls nothing in `morphdb`, so a
//! change to the program cannot move it. It does what a transaction does
//! to the machine: formats a small string, replaces a heap-allocated
//! value in a hash map larger than the L2 cache, and takes an
//! uncontended mutex.

use crate::keys::Rng;
use std::collections::HashMap;
use std::sync::Mutex;

const ENTRIES: u64 = 100_000;

pub struct Reference {
    map: HashMap<u64, Vec<u8>>,
    rng: Rng,
    lock: Mutex<u64>,
}

impl Reference {
    pub fn new() -> Reference {
        Reference {
            map: (0..ENTRIES).map(|k| (k, vec![0u8; 24])).collect(),
            rng: Rng::new(7),
            lock: Mutex::new(0),
        }
    }

    pub fn run(&mut self, iterations: u64) {
        for _ in 0..iterations {
            let k = self.rng.below(ENTRIES);
            let old = self.map.insert(k, format!("w{k}").into_bytes());
            std::hint::black_box(old);
            *self.lock.lock().expect("only this thread locks it") += 1;
        }
    }
}
