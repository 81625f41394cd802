//! Seeded input generation: a SplitMix64 stream, so one `--seed` always
//! yields the same programs, sizes, criteria and request mixes.

/// SplitMix64 pseudo-random stream.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`; equal seeds give equal streams.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// An independent stream derived from this one.
    pub fn fork(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// A [`Walk`] from a seeded start.
    pub fn walk(&mut self) -> Walk {
        Walk((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// `0..n` in a seeded order whose every prefix spreads evenly over
    /// the range: a golden-ratio stride from a seeded start, so a run
    /// draws the same spread however far it gets.
    pub fn spread_order(&mut self, n: usize) -> Vec<usize> {
        if n < 2 {
            return (0..n).collect();
        }
        let gcd = |mut a: usize, mut b: usize| {
            while b != 0 {
                (a, b) = (b, a % b);
            }
            a
        };
        let mut stride = ((n as f64 * GOLDEN) as usize).max(1);
        while gcd(stride, n) != 1 {
            stride += 1;
        }
        let start = self.below(n as u64) as usize;
        (0..n).map(|k| (start + k * stride) % n).collect()
    }
}

/// The golden ratio's fractional part.
const GOLDEN: f64 = 0.618_033_988_749_894_9;

/// A golden-ratio walk over `[0, 1)`: any run of consecutive steps
/// spreads evenly over the interval, where as many uniform draws clump.
#[derive(Clone, Copy)]
pub struct Walk(f64);

impl Walk {
    /// The next point.
    pub fn next(&mut self) -> f64 {
        self.0 = (self.0 + GOLDEN).fract();
        self.0
    }

    /// The next point scaled to `0..n` (`n` > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next() * n as f64) as u64).min(n - 1)
    }
}
