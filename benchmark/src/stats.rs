//! Order statistics for the benchmark's reported timings.

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `pct` among `n` sorted samples.
fn nearest_rank(pct: u32, n: usize) -> usize {
    (pct as usize * n).div_ceil(100).max(1)
}

/// A tail percentile and its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, as in `p90`.
    pub pct: u32,
    /// The nearest-rank value at that percentile.
    pub value: f64,
}

/// The highest whole percentile (nearest rank) with at least
/// [`TAIL_BEYOND`] samples ranked above it, or `None` when there are too
/// few samples for any percentile to qualify.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    (1..=99u32).rev().find_map(|pct| {
        let rank = nearest_rank(pct, n);
        (n.saturating_sub(rank) >= TAIL_BEYOND).then(|| Tail {
            pct,
            value: sorted[rank - 1],
        })
    })
}

/// Steps in one tail window.
pub const TAIL_WINDOW: usize = 50;

/// The tail of each complete [`TAIL_WINDOW`]-step window of `values` (in
/// order), and their median, or `None` without a complete window. Every
/// window has the same size, so every window's tail is the same percentile
/// (p80); taking the median over windows keeps one burst of host noise
/// from moving the result.
pub fn windowed_tail(values: &[f64]) -> Option<(Tail, usize)> {
    let tails: Vec<Tail> = values.chunks_exact(TAIL_WINDOW).filter_map(tail).collect();
    let pct = tails.first()?.pct;
    let value = median(&tails.iter().map(|t| t.value).collect::<Vec<_>>());
    Some((Tail { pct, value }, tails.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
