//! Named, reproducible random streams for the benches and tests that
//! sample (the DES kernel itself draws no random numbers).
//!
//! CSIM gives each model entity its own random stream so structural model
//! changes don't reshuffle unrelated randomness. We reproduce that: every
//! stream is derived from `(master_seed, stream_name)` via FNV-1a, so a
//! stream's sequence depends only on its name and the master seed.

/// Self-contained xoshiro256++ generator (Blackman/Vigna), seeded via
/// splitmix64 — no external `rand` dependency, identical output on every
/// platform.
#[derive(Debug, Clone)]
struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    fn seed_from_u64(seed: u64) -> Self {
        let mut x = seed;
        let mut next = move || {
            x = x.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        Self {
            s: [next(), next(), next(), next()],
        }
    }

    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A reproducible random stream of exponential samples.
#[derive(Debug, Clone)]
pub struct Stream {
    rng: Xoshiro256,
}

impl Stream {
    /// Derive a stream from the master seed and a stable name.
    pub fn derive(master_seed: u64, name: &str) -> Self {
        // FNV-1a over the name, folded with the master seed.
        let mut h: u64 = 0xcbf29ce484222325 ^ master_seed.rotate_left(17);
        for b in name.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        // Avoid the all-zero seed edge case.
        let seed = if h == 0 { 0x9e3779b97f4a7c15 } else { h };
        Self {
            rng: Xoshiro256::seed_from_u64(seed),
        }
    }

    /// Exponential with the given mean (inverse-CDF method).
    ///
    /// # Panics
    /// Panics if `mean <= 0`.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential requires a positive mean");
        // `unit_f64()` is in [0, 1); the max() guards the reachable 0.0
        // endpoint so ln(u) stays strictly negative and the sample
        // strictly positive.
        let u: f64 = self.rng.unit_f64().max(f64::MIN_POSITIVE);
        -mean * u.ln()
    }

    /// Raw u64.
    pub fn next_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_deterministic() {
        let mut a = Stream::derive(42, "arrivals");
        let mut b = Stream::derive(42, "arrivals");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn streams_are_independent_by_name() {
        let mut a = Stream::derive(42, "arrivals");
        let mut b = Stream::derive(42, "service");
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn seeds_change_streams() {
        let mut a = Stream::derive(1, "s");
        let mut b = Stream::derive(2, "s");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn exponential_mean_converges() {
        let mut s = Stream::derive(7, "exp");
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| s.exponential(2.5)).sum::<f64>() / n as f64;
        assert!((mean - 2.5).abs() < 0.05, "sample mean {mean}");
    }

    #[test]
    fn exponential_is_positive() {
        let mut s = Stream::derive(7, "exp2");
        assert!((0..10_000).all(|_| s.exponential(1.0) > 0.0));
    }
}
