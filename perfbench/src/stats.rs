//! Order statistics and throughput summaries.
//!
//! A shared two-core host stalls single operations for tens of
//! milliseconds at random, so every figure here is a median (or a tail
//! quantile with enough samples beyond it) over many operations, never a
//! whole-run total.

/// Nearest-rank quantile `q` in `[0, 1]` of `sorted` (ascending).
/// Panics on an empty slice: callers only summarise phases that ran.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// Quantile `q`, but only when at least `min_beyond` samples lie beyond
/// its rank; a tail figure resting on fewer is one stall, not a tail.
pub fn tail_quantile(sorted: &[f64], q: f64, min_beyond: usize) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let r = rank(sorted.len(), q);
    (sorted.len() - r >= min_beyond).then(|| sorted[r - 1])
}

/// Sort a sample in place (NaN-free timings) and return it.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    v
}

/// Mean over groups of each group's quantile `q`.
///
/// A workload that alternates two fidelities has a two-humped latency
/// distribution; its pooled median sits on whichever hump holds one
/// sample more and jumps between runs. Taking the quantile per fidelity
/// and weighting the fidelities equally gives a figure that moves only
/// when one of the humps moves.
pub fn mode_mean(groups: &[Vec<f64>], q: f64) -> f64 {
    let live: Vec<&Vec<f64>> = groups.iter().filter(|g| !g.is_empty()).collect();
    assert!(!live.is_empty(), "mode_mean of empty groups");
    live.iter().map(|g| quantile(&sorted((*g).clone()), q)).sum::<f64>() / live.len() as f64
}

/// Rates of consecutive blocks of `block` operations of one stream.
///
/// `ops` holds `(busy seconds, units)` per operation in the order issued; a
/// block's rate is its units over its operations' summed busy time, so
/// the benchmark's own checking between operations never counts against
/// the system. A trailing partial block is dropped.
pub fn block_rates(ops: &[(f64, f64)], block: usize) -> Vec<f64> {
    ops.chunks_exact(block.max(1))
        .map(|b| {
            let (busy, units) = b.iter().fold((0.0, 0.0), |(t, u), o| (t + o.0, u + o.1));
            units / busy
        })
        .filter(|r| r.is_finite())
        .collect()
}

/// Median of an unsorted sample, `None` when empty.
pub fn median(v: Vec<f64>) -> Option<f64> {
    (!v.is_empty()).then(|| quantile(&sorted(v), 0.5))
}

/// Quantile `q` of a log2 latency histogram (`buckets[i]` counts values
/// in `[2^i, 2^(i+1))`, bucket 0 also holding 0 and 1), interpolated
/// linearly inside the bucket that holds the rank. `None` when empty.
pub fn hist_quantile(buckets: &[u64], q: f64) -> Option<f64> {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * total as f64).max(1.0);
    let mut below = 0u64;
    for (i, &count) in buckets.iter().enumerate() {
        if count > 0 && (below + count) as f64 >= rank {
            let lo = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
            let hi = (1u64 << (i + 1)) as f64;
            return Some(lo + (hi - lo) * (rank - below as f64) / count as f64);
        }
        below += count;
    }
    None
}

/// Accumulates squared error for a PSNR over several reconstructions.
#[derive(Debug, Default, Clone)]
pub struct Psnr {
    sse: f64,
    count: u64,
    lo: f32,
    hi: f32,
}

impl Psnr {
    /// Add one reconstruction of `raw`.
    pub fn add(&mut self, raw: &[f32], recon: &[f32]) {
        assert_eq!(raw.len(), recon.len(), "reconstruction has the raw shape");
        if self.count == 0 {
            (self.lo, self.hi) = (f32::INFINITY, f32::NEG_INFINITY);
        }
        for (&r, &x) in raw.iter().zip(recon) {
            let d = (r - x) as f64;
            self.sse += d * d;
            self.lo = self.lo.min(r);
            self.hi = self.hi.max(r);
        }
        self.count += raw.len() as u64;
    }

    /// `10·log10(peak² / MSE)` with the peak taken as the raw value range.
    pub fn db(&self) -> f64 {
        let peak = (self.hi - self.lo) as f64;
        let mse = self.sse / self.count.max(1) as f64;
        10.0 * (peak * peak / mse.max(f64::MIN_POSITIVE)).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v = ramp(10);
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
    }

    #[test]
    fn no_p99_without_ten_samples_beyond_it() {
        // 999 samples: rank 990 leaves only 9 beyond.
        assert_eq!(tail_quantile(&ramp(999), 0.99, 10), None);
        // 1000 samples: rank 990 leaves exactly 10 beyond.
        assert_eq!(tail_quantile(&ramp(1000), 0.99, 10), Some(990.0));
        // p90 needs only 100.
        assert_eq!(tail_quantile(&ramp(99), 0.9, 10), None);
        assert_eq!(tail_quantile(&ramp(100), 0.9, 10), Some(90.0));
        assert_eq!(tail_quantile(&[], 0.5, 0), None);
    }

    #[test]
    fn mode_mean_weights_fidelities_equally() {
        let fast = vec![1.0; 11];
        let slow = vec![3.0; 9];
        // The pooled median would be 1.0; each hump counts once here.
        assert_eq!(mode_mean(&[fast, slow], 0.5), 2.0);
        assert_eq!(mode_mean(&[vec![4.0], vec![]], 0.5), 4.0);
    }

    #[test]
    fn block_rates_use_busy_time_only() {
        // 0.1 s per unit: every block of 5 runs at 10 units/s, whatever
        // the gaps between operations were.
        let ops = vec![(0.1, 1.0); 22];
        let rates = block_rates(&ops, 5);
        assert_eq!(rates.len(), 4);
        assert!(rates.iter().all(|r| (r - 10.0).abs() < 1e-9), "{rates:?}");
        assert!(block_rates(&ops[..3], 5).is_empty());
        assert_eq!(median(vec![3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(vec![]), None);
    }

    #[test]
    fn histogram_quantiles_interpolate_inside_the_bucket() {
        // 10 values in [4, 8), 10 in [8, 16).
        let mut h = vec![0u64; 8];
        h[2] = 10;
        h[3] = 10;
        assert_eq!(hist_quantile(&h, 0.5), Some(8.0));
        assert_eq!(hist_quantile(&h, 0.25), Some(6.0));
        assert_eq!(hist_quantile(&h, 1.0), Some(16.0));
        assert_eq!(hist_quantile(&[0; 4], 0.5), None);
    }

    #[test]
    fn psnr_of_a_known_error() {
        let raw = [0.0f32, 1.0, 0.0, 1.0];
        let recon = [0.1f32, 0.9, 0.1, 0.9];
        let mut p = Psnr::default();
        p.add(&raw, &recon);
        // peak 1, MSE 0.01 → 20 dB.
        assert!((p.db() - 20.0).abs() < 1e-4, "{}", p.db());
    }
}
