//! Access-frequency distributions.
//!
//! Page accesses in real applications are heavily non-linear — "often
//! exponential, e.g. Zipf or Pareto" (§4.1.3) — which is why MEMTIS organizes
//! its histogram bins on an exponential scale. The workload generators draw
//! from the same families.

use rand::Rng;

/// Most guide-table buckets per [`ZipfTable`] (a power of two).
const MAX_BUCKETS: usize = 1 << 16;

/// Zipf(s) sampler over ranks `0..n` (rank 0 is the hottest).
///
/// Inverts a precomputed CDF: exact and deterministic given the RNG. A guide
/// table (Chen–Asau cut-points) splits `[0, 1)` into `K` equal buckets and
/// records where each starts in the CDF, so a draw binary-searches only its
/// bucket's few entries instead of the whole table — with the same result.
#[derive(Debug, Clone)]
pub struct ZipfTable {
    cdf: Vec<f64>,
    /// `guide[b]` is the first rank `i` with `cdf[i] >= b / K`, for
    /// `b in 0..=K`; `K = guide.len() - 1` is a power of two.
    guide: Vec<u32>,
}

impl ZipfTable {
    /// Builds the table for `n` ranks with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "zipf over zero ranks");
        assert!(n <= u64::from(u32::MAX), "zipf over 2^32 or more ranks");
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        let k = cdf.len().next_power_of_two().min(MAX_BUCKETS);
        let mut guide = Vec::with_capacity(k + 1);
        let mut i = 0;
        for b in 0..=k {
            // Exact: `k` is a power of two.
            let edge = b as f64 / k as f64;
            while i < cdf.len() && cdf[i] < edge {
                i += 1;
            }
            guide.push(i as u32);
        }
        ZipfTable { cdf, guide }
    }

    /// Number of ranks.
    pub fn len(&self) -> u64 {
        self.cdf.len() as u64
    }

    /// Whether the table is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Samples a rank in `0..n`.
    #[inline]
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        self.rank_of(rng.gen())
    }

    /// The rank a uniform draw `u` in `[0, 1)` maps to: the first `i` with
    /// `cdf[i] >= u`, the same as a binary search over the whole CDF.
    #[inline]
    pub fn rank_of(&self, u: f64) -> u64 {
        let k = self.guide.len() - 1;
        // `u * k` is exact, so `u` lies in bucket `b`'s `[b/k, (b+1)/k)`
        // and its rank in `guide[b]..=guide[b + 1]`.
        let b = (u * k as f64) as usize;
        let lo = self.guide[b] as usize;
        let hi = self.guide[b + 1] as usize;
        (lo + self.cdf[lo..hi].partition_point(|&c| c < u)) as u64
    }

    /// Probability mass of rank `k`.
    pub fn pmf(&self, k: u64) -> f64 {
        let k = k as usize;
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }
}

/// Samples a bounded Pareto-distributed rank in `0..n` with tail index `a`.
///
/// Like Zipf, low ranks dominate; the tail is heavier for smaller `a`.
pub fn pareto_rank<R: Rng>(rng: &mut R, n: u64, a: f64) -> u64 {
    // Inverse-CDF of a Pareto truncated to [1, n+1).
    let lo = 1.0f64;
    let hi = (n + 1) as f64;
    let u: f64 = rng.gen();
    let ha = hi.powf(-a);
    let la = lo.powf(-a);
    let x = (ha + u * (la - ha)).powf(-1.0 / a);
    ((x - 1.0) as u64).min(n - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zipf_mass_sums_to_one() {
        let z = ZipfTable::new(100, 0.99);
        let total: f64 = (0..100).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(z.pmf(0) > z.pmf(1));
        assert!(z.pmf(1) > z.pmf(50));
    }

    #[test]
    fn zipf_sampling_matches_pmf() {
        let z = ZipfTable::new(50, 1.0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = vec![0u64; 50];
        let n = 200_000;
        for _ in 0..n {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        // Rank 0 should get close to its theoretical share.
        let expect0 = z.pmf(0) * n as f64;
        assert!((counts[0] as f64 - expect0).abs() / expect0 < 0.05);
        // Monotone-ish head.
        assert!(counts[0] > counts[5]);
        assert!(counts[5] > counts[40]);
    }

    #[test]
    fn zipf_skew_grows_with_s() {
        let flat = ZipfTable::new(1000, 0.2);
        let steep = ZipfTable::new(1000, 1.2);
        assert!(steep.pmf(0) > flat.pmf(0) * 5.0);
    }

    /// The guide-table search agrees with a binary search over the whole
    /// CDF: at random draws, at every bucket edge and its neighbouring
    /// `f64`s, and at both ends of `[0, 1)`. `s = 0` with `n` a power of
    /// two puts CDF values exactly on bucket edges.
    #[test]
    fn rank_of_matches_full_cdf_search() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [1u64, 2, 3, 511, 512, 513, 65_537, 223_000] {
            for s in [0.0, 0.3, 0.8, 0.99, 1.2] {
                let z = ZipfTable::new(n, s);
                let full = |u: f64| z.cdf.partition_point(|&c| c < u) as u64;
                let k = z.guide.len() - 1;
                assert!(k.is_power_of_two() && k <= MAX_BUCKETS);
                // Adjacent `f64`s of a non-negative `x`, by bit pattern.
                let down = |x: f64| f64::from_bits(x.to_bits().saturating_sub(1));
                let up = |x: f64| f64::from_bits(x.to_bits() + 1);
                let mut us = vec![0.0, down(1.0)];
                us.extend((0..2_000).map(|_| rng.gen::<f64>()));
                for b in 0..=k {
                    let edge = b as f64 / k as f64;
                    us.extend([down(edge), edge, up(edge)]);
                }
                for u in us.into_iter().filter(|u| (0.0..1.0).contains(u)) {
                    assert_eq!(z.rank_of(u), full(u), "n {n} s {s} u {u:e}");
                }
            }
        }
    }

    #[test]
    fn pareto_ranks_in_bounds_and_skewed() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut head = 0u64;
        for _ in 0..10_000 {
            let r = pareto_rank(&mut rng, 1000, 1.0);
            assert!(r < 1000);
            if r < 100 {
                head += 1;
            }
        }
        // Far more than 10% of mass lands in the first 10% of ranks.
        assert!(head > 5_000);
    }
}
