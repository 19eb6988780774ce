//! Seeded arrival schedules and key choices for the generators.

use trisolv_matrix::rng::Rng;

/// Arrival times, in seconds from the start, of a Poisson process of
/// `rate` per second over `[0, duration)`, conditioned on its count being
/// exactly `round(rate · duration)`: that many uniform draws, sorted.
/// Fixing the count keeps the offered load of a run identical across
/// seeds, so the delivered rate moves only when the system falls behind.
pub fn poisson(rate: f64, duration: f64, seed: u64) -> Vec<f64> {
    let n = (rate * duration).round() as usize;
    let mut rng = Rng::seed_from_u64(seed);
    let mut t: Vec<f64> = (0..n).map(|_| rng.f64() * duration).collect();
    t.sort_by(f64::total_cmp);
    t
}

/// Endless key choices over `0..nkeys` with Zipf(1) frequencies (key `k`
/// is drawn in proportion to `1/(k+1)`), dealt in shuffled blocks: every
/// block of [`ZipfBlocks::block_len`] draws holds each key exactly its
/// rounded Zipf share, and only the order inside a block depends on the
/// seed. A cache's hit rate over a run then varies with the seed through
/// the order alone, not through how many cold keys the seed happened to
/// draw.
pub struct ZipfBlocks {
    rng: Rng,
    block: Vec<usize>,
    at: usize,
}

impl ZipfBlocks {
    /// `per_top_key` is how often key 0 appears in one block.
    pub fn new(nkeys: usize, per_top_key: usize, seed: u64) -> ZipfBlocks {
        assert!(nkeys > 0 && per_top_key > 0);
        let block: Vec<usize> = (0..nkeys)
            .flat_map(|k| {
                let count = (per_top_key as f64 / (k + 1) as f64).round().max(1.0) as usize;
                std::iter::repeat_n(k, count)
            })
            .collect();
        let at = block.len();
        ZipfBlocks {
            rng: Rng::seed_from_u64(seed),
            block,
            at,
        }
    }

    pub fn block_len(&self) -> usize {
        self.block.len()
    }
}

impl Iterator for ZipfBlocks {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.at == self.block.len() {
            self.block.sort_unstable();
            for i in (1..self.block.len()).rev() {
                let j = self.rng.range_usize(0, i + 1);
                self.block.swap(i, j);
            }
            self.at = 0;
        }
        self.at += 1;
        Some(self.block[self.at - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_is_reproducible_sorted_and_seed_dependent() {
        let a = poisson(250.0, 4.0, 7);
        assert_eq!(a, poisson(250.0, 4.0, 7));
        assert_ne!(a, poisson(250.0, 4.0, 8));
        assert_eq!(a.len(), 1000);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a[0] >= 0.0 && *a.last().unwrap() < 4.0);
        // gaps of a Poisson process are far from even: some are tiny
        let min_gap = a.windows(2).map(|w| w[1] - w[0]).fold(f64::MAX, f64::min);
        assert!(min_gap < 0.004 / 20.0, "min gap {min_gap}");
    }

    #[test]
    fn zipf_blocks_hold_exact_shares_in_seeded_order() {
        let z = ZipfBlocks::new(6, 20, 1);
        assert_eq!(z.block_len(), 20 + 10 + 7 + 5 + 4 + 3);
        let take = |seed: u64, n: usize| ZipfBlocks::new(6, 20, seed).take(n).collect::<Vec<_>>();
        let a = take(1, 98);
        assert_eq!(a, take(1, 98));
        assert_ne!(a, take(2, 98));
        for block in a.chunks(49) {
            let mut counts = [0usize; 6];
            for &k in block {
                counts[k] += 1;
            }
            assert_eq!(counts, [20, 10, 7, 5, 4, 3]);
        }
        assert_ne!(a[..49], a[49..], "each block is shuffled afresh");
    }
}
