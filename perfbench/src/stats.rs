//! Order statistics over latency samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between closest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of each of `blocks` equal contiguous blocks of
/// `values`, and the median of those. A burst of host interference that
/// lands in one block moves that block's tail only, so the figure repeats
/// from run to run where a plain tail quantile would not.
pub fn block_quantile(values: &[f64], q: f64, blocks: usize) -> f64 {
    let size = values.len().div_ceil(blocks.max(1)).max(1);
    let per_block: Vec<f64> = values.chunks(size).map(|b| quantile(b, q)).collect();
    median(&per_block)
}

/// Throughput as the median over `blocks` equal contiguous blocks of a
/// sequence. `done_s` holds each operation's completion time from the
/// start of the phase, in sequence order; a block's rate is its
/// operations over the time from the previous block's last completion to
/// its own. As with `block_quantile`, a burst of host interference moves
/// one block's rate only.
pub fn block_rate(done_s: &[f64], blocks: usize) -> f64 {
    let size = done_s.len().div_ceil(blocks.max(1)).max(1);
    let mut prev = 0.0;
    let rates: Vec<f64> = done_s
        .chunks(size)
        .map(|block| {
            let end = block.iter().copied().fold(prev, f64::max);
            let rate = block.len() as f64 / (end - prev);
            prev = end;
            rate
        })
        .collect();
    median(&rates)
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method), which is how steadiness is judged.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let cut = |i: usize| {
        // statistics.quantiles: j = clamp(i·(n+1) div 4, 1, n−1),
        // delta = i·(n+1) − 4j.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (4 * j) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn block_quantile_ignores_a_burst_in_one_block() {
        let mut v = vec![1.0; 300];
        v[10..15].fill(50.0);
        assert_eq!(quantile(&v, 0.99), 50.0);
        assert_eq!(block_quantile(&v, 0.99, 3), 1.0);
    }

    #[test]
    fn block_rate_ignores_a_stall_in_one_block() {
        // 300 operations at 100/s, with a 2 s stall before operation 150.
        let done: Vec<f64> =
            (1..=300).map(|i| f64::from(i) / 100.0 + if i > 150 { 2.0 } else { 0.0 }).collect();
        assert!((block_rate(&done, 3) - 100.0).abs() < 1e-9);
        assert!(300.0 / done[299] < 61.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }
}
