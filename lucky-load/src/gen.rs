//! Seeded inputs: the open-loop schedule, register keys and written values.
//!
//! Everything here is a pure function of the seed, so two runs with the
//! same `--seed` send the same operations to the same registers at the
//! same offsets; only the system's timing differs.

use lucky_types::Value;
use std::time::Duration;

/// SplitMix64 — tiny, deterministic on every platform.
#[derive(Clone, Debug)]
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

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// What one planned operation does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Write,
    /// A read on the register's reader `j`.
    Read(u16),
}

/// One open-loop operation: when it is due (offset from the start of
/// the window), which register it targets and what it does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Planned {
    pub due: Duration,
    pub reg: usize,
    pub kind: Kind,
}

/// The open-loop traffic mix.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoad {
    /// Mean arrivals per second (Poisson).
    pub rate: f64,
    pub registers: usize,
    pub readers: u16,
    /// Zipf exponent of the key distribution.
    pub zipf_s: f64,
    /// Share of operations that are reads.
    pub read_share: f64,
}

/// Zipf(s) over `0..n` by inverse CDF: key 0 is the hottest.
#[derive(Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// The key whose CDF interval holds `u` (`u` in `[0, 1)`).
    pub fn sample(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// Every operation due within `window`: Poisson arrivals at `load.rate`,
/// zipf keys, reads alternating between a register's readers.
pub fn open_schedule(seed: u64, load: &OpenLoad, window: Duration) -> Vec<Planned> {
    let mut rng = Rng::new(seed);
    let zipf = Zipf::new(load.registers, load.zipf_s);
    let mut reads_on = vec![0u16; load.registers];
    let mut t = 0.0;
    let mut ops = Vec::new();
    loop {
        t += -(1.0 - rng.unit()).ln() / load.rate;
        if t >= window.as_secs_f64() {
            return ops;
        }
        let reg = zipf.sample(rng.unit());
        let kind = if rng.unit() < load.read_share {
            let j = reads_on[reg] % load.readers;
            reads_on[reg] = reads_on[reg].wrapping_add(1);
            Kind::Read(j)
        } else {
            Kind::Write
        };
        ops.push(Planned { due: Duration::from_secs_f64(t), reg, kind });
    }
}

/// Written values: unique across the store (the checker rejects a value
/// written twice to one register), `size` bytes each, filler from the seed.
#[derive(Debug)]
pub struct Values {
    next: u64,
    size: usize,
    seed: u64,
}

impl Values {
    pub fn new(seed: u64, size: usize) -> Values {
        assert!(size >= 8, "a value carries its 8-byte sequence number");
        Values { next: 1, size, seed }
    }

    pub fn next(&mut self) -> Value {
        let n = self.next;
        self.next += 1;
        if self.size == 8 {
            return Value::from_u64(n);
        }
        let mut bytes = n.to_le_bytes().to_vec();
        let mut rng = Rng::new(self.seed ^ n.rotate_left(32));
        while bytes.len() < self.size {
            bytes.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        bytes.truncate(self.size);
        Value::from_bytes(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOAD: OpenLoad =
        OpenLoad { rate: 1000.0, registers: 1024, readers: 2, zipf_s: 1.0, read_share: 0.9 };

    #[test]
    fn same_seed_gives_same_schedule_and_keys() {
        let window = Duration::from_secs(2);
        let a = open_schedule(7, &LOAD, window);
        assert_eq!(a, open_schedule(7, &LOAD, window));
        assert_ne!(a, open_schedule(8, &LOAD, window));
        let mut v1 = Values::new(7, 1024);
        let mut v2 = Values::new(7, 1024);
        for _ in 0..10 {
            assert_eq!(v1.next(), v2.next());
        }
    }

    #[test]
    fn schedule_has_the_requested_shape() {
        let ops = open_schedule(1, &LOAD, Duration::from_secs(10));
        assert!((9_000..11_000).contains(&ops.len()), "~1000/s over 10 s, got {}", ops.len());
        assert!(ops.windows(2).all(|w| w[0].due <= w[1].due));
        let reads = ops.iter().filter(|p| matches!(p.kind, Kind::Read(_))).count();
        let share = reads as f64 / ops.len() as f64;
        assert!((0.88..0.92).contains(&share), "read share {share}");
        // Zipf(1) over 1024 keys: key 0 draws 1/H(1024) ≈ 13% of the traffic.
        let hot = ops.iter().filter(|p| p.reg == 0).count() as f64 / ops.len() as f64;
        assert!((0.11..0.15).contains(&hot), "hottest key share {hot}");
    }

    #[test]
    fn values_are_unique_and_sized() {
        let mut v = Values::new(3, 1024);
        let a = v.next();
        let b = v.next();
        assert_eq!((a.len(), b.len()), (1024, 1024));
        assert_ne!(a, b);
        assert_eq!(Values::new(3, 8).next().as_u64(), Some(1));
    }
}
