//! Summary statistics shared by every workload: medians, the
//! percentile rule, and means.

/// Percentiles a tail metric may fall back to, highest first.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile, at most `want`, that has at least
/// [`MIN_BEYOND`] of `n` samples beyond it. Falls back to the median
/// when even that is unsupported.
pub fn supported_percentile(n: usize, want: f64) -> f64 {
    LADDER
        .iter()
        .copied()
        .filter(|&p| p <= want)
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
        .unwrap_or(50.0)
}

/// How many of `n` samples lie strictly beyond the `p`-th percentile
/// under the nearest-rank rule.
fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // Integer arithmetic in tenths of a percent, so 99.9 % of 10 000
    // is exactly rank 9 990.
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile of `samples` (need not be sorted).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p) - 1]
}

/// A tail percentile under the percentile rule: the value at
/// [`supported_percentile`] and the percentile actually used.
pub fn tail(samples: &[f64], want: f64) -> (f64, f64) {
    let p = supported_percentile(samples.len(), want);
    (percentile(samples, p), p)
}

/// A tail taken batch by batch: see [`batched_tail`].
pub struct BatchedTail {
    /// Median over batches of each batch's percentile.
    pub value: f64,
    /// Lowest percentile any batch could support.
    pub percentile: f64,
    pub batches: usize,
}

/// The tail of samples that come in groups (one group per rep): the
/// groups are joined in order into batches just large enough for the
/// percentile rule to support `want` (a short remainder joins the last
/// batch), each batch's percentile is taken, and the median over
/// batches is reported. A disturbed stretch of a run then moves one
/// batch's figure, not the whole run's tail.
pub fn batched_tail(groups: &[&[f64]], want: f64) -> BatchedTail {
    let target = LADDER.iter().copied().find(|&p| p <= want).unwrap_or(50.0);
    let need = (1..)
        .find(|&n| supported_percentile(n, want) >= target)
        .expect("some sample count supports any ladder percentile");
    let mut batches: Vec<Vec<f64>> = Vec::new();
    let mut open: Vec<f64> = Vec::new();
    for group in groups {
        open.extend_from_slice(group);
        if open.len() >= need {
            batches.push(std::mem::take(&mut open));
        }
    }
    match batches.last_mut() {
        Some(last) => last.extend(open),
        None => batches.push(open),
    }
    let tails: Vec<(f64, f64)> = batches.iter().map(|b| tail(b, want)).collect();
    BatchedTail {
        value: median(&tails.iter().map(|t| t.0).collect::<Vec<_>>()),
        percentile: tails.iter().map(|t| t.1).fold(want, f64::min),
        batches: batches.len(),
    }
}

/// Mean of the slowest `share` of `samples` (at least one sample).
/// Unlike a percentile it moves smoothly when a distribution is
/// bimodal around the cut, as cold starts with occasional fsync stalls
/// are.
pub fn top_mean(samples: &[f64], share: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| b.total_cmp(a));
    let k = ((samples.len() as f64 * share).ceil() as usize).clamp(1, v.len());
    mean(&v[..k])
}

/// The median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean (0 for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(supported_percentile(1000, 99.0), 99.0);
        assert_eq!(supported_percentile(999, 99.0), 95.0);
        assert_eq!(supported_percentile(10_000, 99.9), 99.9);
        assert_eq!(supported_percentile(9_999, 99.9), 99.0);
    }

    #[test]
    fn rule_walks_down_the_ladder_and_never_above_want() {
        assert_eq!(supported_percentile(100, 99.0), 90.0);
        assert_eq!(supported_percentile(99, 99.0), 75.0);
        assert_eq!(supported_percentile(40, 99.0), 75.0);
        assert_eq!(supported_percentile(39, 99.0), 50.0);
        assert_eq!(supported_percentile(5, 99.0), 50.0);
        assert_eq!(supported_percentile(100_000, 90.0), 90.0);
    }

    #[test]
    fn every_supported_percentile_leaves_ten_samples_beyond() {
        for n in 1..3000 {
            let p = supported_percentile(n, 99.9);
            if n >= 20 {
                assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles_and_medians() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let (value, p) = tail(&v, 99.0);
        assert_eq!((value, p), (90.0, 90.0));
    }

    #[test]
    fn batched_tail_takes_the_median_batch() {
        // Three reps of 600 samples: batches of reps 0+1 (1200) and
        // rep 2 joins the last batch, as 600 cannot support a p99.
        let rep: Vec<f64> = (0..600).map(f64::from).collect();
        let t = batched_tail(&[&rep, &rep, &rep], 99.0);
        assert_eq!((t.batches, t.percentile), (1, 99.0));
        // Five batches of 1000; one disturbed batch does not move the
        // median batch's p99.
        let calm: Vec<f64> = (0..1000).map(f64::from).collect();
        let stalled: Vec<f64> = (0..1000).map(|i| f64::from(i) * 50.0).collect();
        let groups = [&calm[..], &calm, &stalled, &calm, &calm];
        let t = batched_tail(&groups, 99.0);
        assert_eq!((t.value, t.percentile, t.batches), (989.0, 99.0, 5));
        // Too few samples for any p99: one batch under the rule.
        let few: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = batched_tail(&[&few], 99.0);
        assert_eq!((t.value, t.percentile, t.batches), (90.0, 90.0, 1));
        assert_eq!(batched_tail(&[], 99.0).batches, 1);
    }

    #[test]
    fn top_mean_averages_the_slowest_share() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(top_mean(&v, 0.10), 95.5);
        assert_eq!(top_mean(&v[..5], 0.10), 5.0);
        assert_eq!(top_mean(&[], 0.10), 0.0);
        // A stall rate moving across the cut moves the figure a little,
        // where the 90th percentile would jump between the two modes.
        let mixed = |stalls: usize| -> Vec<f64> {
            (0..100)
                .map(|i| if i < stalls { 5.0 } else { 2.0 })
                .collect()
        };
        assert_eq!(percentile(&mixed(9), 90.0), 2.0);
        assert_eq!(percentile(&mixed(11), 90.0), 5.0);
        assert!((top_mean(&mixed(9), 0.10) - top_mean(&mixed(11), 0.10)).abs() <= 0.3);
    }
}
