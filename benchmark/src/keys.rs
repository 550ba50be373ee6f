//! Seeded key streams. Every client draws from its own residue class
//! (`key % clients == client`), so two clients never touch the same
//! record: no lock conflict, no wait–die victim, and the expected number
//! of failed transactions is exactly zero.

/// SplitMix64: small, fast, and good enough to pick keys.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for
    /// the table sizes used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }
}

/// The stream of one client: seeded from the run seed and the client
/// index, confined to the client's residue class.
#[derive(Clone)]
pub struct KeyStream {
    pub rng: Rng,
    client: u64,
    clients: u64,
}

impl KeyStream {
    pub fn new(seed: u64, client: usize, clients: usize) -> KeyStream {
        let mut mix = Rng::new(seed ^ (client as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
        KeyStream {
            rng: Rng::new(mix.next_u64()),
            client: client as u64,
            clients: clients.max(1) as u64,
        }
    }

    /// A key of this client's class in `0..rows`. `rows` must be at
    /// least the number of clients.
    pub fn key(&mut self, rows: u64) -> i64 {
        let slots = (rows - self.client).div_ceil(self.clients);
        (self.rng.below(slots) * self.clients + self.client) as i64
    }

    #[cfg(test)]
    fn owns(&self, key: i64) -> bool {
        key as u64 % self.clients == self.client
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let draw = |seed| {
            let mut s = KeyStream::new(seed, 1, 3);
            (0..64).map(|_| s.key(100_000)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn clients_draw_from_disjoint_classes_that_cover_the_table() {
        let clients = 3;
        let rows = 31u64; // not a multiple of the client count
        let mut seen = vec![None; rows as usize];
        for c in 0..clients {
            let mut s = KeyStream::new(42, c, clients);
            for _ in 0..2_000 {
                let k = s.key(rows);
                assert!((0..rows as i64).contains(&k));
                assert!(s.owns(k));
                assert!(seen[k as usize].is_none_or(|o| o == c), "key {k} shared");
                seen[k as usize] = Some(c);
            }
        }
        assert!(seen.iter().all(Option::is_some), "some key never drawn");
    }

    #[test]
    fn chance_tracks_its_probability() {
        let mut r = Rng::new(1);
        let hits = (0..100_000).filter(|_| r.chance(0.2)).count();
        assert!((19_000..21_000).contains(&hits), "{hits}");
    }
}
