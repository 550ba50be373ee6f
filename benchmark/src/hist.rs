//! Log-linear latency histogram (nanoseconds) and the percentile rule
//! the benchmark reports under.
//!
//! Values below `2^SUB_BITS` get one bucket each; above that every
//! power of two is cut into `2^SUB_BITS` equal buckets, so the relative
//! bucket width never exceeds `2^-SUB_BITS` (< 0.8 %). Histograms of
//! the same shape merge by adding counts, which is what lets a run pool
//! the windows of all rounds and all clients into one distribution.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Largest exponent tracked: values at or above 2^41 ns (~37 min)
/// saturate into the last bucket.
const MAX_EXP: u32 = 41;
const BUCKETS: usize = ((MAX_EXP - SUB_BITS + 1) as usize) * SUB as usize;

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: u64 = 10;

#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            total: 0,
            max: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    if exp >= MAX_EXP {
        return BUCKETS - 1;
    }
    let group = (exp - SUB_BITS + 1) as usize;
    let sub = ((v >> (exp - SUB_BITS)) - SUB) as usize;
    group * SUB as usize + sub
}

/// Inclusive lower and exclusive upper value of a bucket.
fn bounds_of(b: usize) -> (u64, u64) {
    let group = b / SUB as usize;
    let sub = (b % SUB as usize) as u64;
    if group == 0 {
        return (sub, sub + 1);
    }
    let shift = group as u32 - 1;
    ((SUB + sub) << shift, (SUB + sub + 1) << shift)
}

impl Hist {
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
        self.max = self.max.max(ns);
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// Value at quantile `q` in nanoseconds, interpolated by rank inside
    /// the bucket that holds it so that two runs never print the same
    /// bucket edge. Zero on an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.total - 1) as f64;
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if rank < (seen + c) as f64 {
                let (lo, hi) = bounds_of(b);
                let hi = hi.min(self.max + 1);
                let within = (rank - seen as f64 + 0.5) / c as f64;
                return lo as f64 + (hi.saturating_sub(lo)) as f64 * within;
            }
            seen += c;
        }
        self.max as f64
    }

    /// The tail quantile this sample supports, capped at `wanted`: the
    /// highest step of the ladder that still leaves [`MIN_BEYOND`]
    /// samples beyond it.
    pub fn supported_tail(&self, wanted: f64) -> f64 {
        supported_tail(self.total, wanted)
    }
}

/// See [`Hist::supported_tail`].
pub fn supported_tail(samples: u64, wanted: f64) -> f64 {
    const LADDER: [f64; 5] = [0.5, 0.9, 0.95, 0.99, 0.999];
    let mut best = LADDER[0];
    for q in LADDER {
        if q <= wanted && samples as f64 * (1.0 - q) >= MIN_BEYOND as f64 {
            best = q;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_value_range() {
        let mut prev_hi = 0;
        for b in 0..BUCKETS {
            let (lo, hi) = bounds_of(b);
            assert_eq!(lo, prev_hi, "bucket {b} leaves a gap");
            assert!(hi > lo);
            assert_eq!(bucket_of(lo), b);
            assert_eq!(bucket_of(hi - 1), b);
            prev_hi = hi;
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_are_within_bucket_resolution() {
        let mut h = Hist::default();
        for v in 1..=100_000u64 {
            h.record(v * 10);
        }
        for (q, want) in [(0.5, 500_000.0), (0.99, 990_000.0), (0.999, 999_000.0)] {
            let got = h.quantile(q);
            assert!((got - want).abs() / want < 0.01, "q{q}: {got} vs {want}");
        }
        assert_eq!(h.count(), 100_000);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let (mut a, mut b, mut whole) = (Hist::default(), Hist::default(), Hist::default());
        for v in 0..5_000u64 {
            let x = v * v % 7_919 + 3;
            if v % 3 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
            whole.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), whole.quantile(q));
        }
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(999, 0.99), 0.95);
        assert_eq!(supported_tail(1_000, 0.99), 0.99);
        assert_eq!(supported_tail(1_000_000, 0.99), 0.99);
        assert_eq!(supported_tail(10_000, 0.999), 0.999);
        assert_eq!(supported_tail(150, 0.99), 0.9);
        assert_eq!(supported_tail(5, 0.99), 0.5);
    }
}
