//! Estimators behind every reported number.
//!
//! Noise on a shared box is upward-only and arrives in multi-second slow
//! periods, so an operation's latency is the *minimum* over interleaved
//! rounds that replay the identical operation; percentiles and rates are
//! then taken over those per-operation minima.

/// Per-operation minimum: `rounds[r][i]` is operation `i`'s latency in
/// round `r`; every round must hold the same operations in the same order.
pub fn per_op_min(rounds: &[Vec<u64>]) -> Vec<u64> {
    let Some((first, rest)) = rounds.split_first() else {
        return Vec::new();
    };
    let mut minima = first.clone();
    for round in rest {
        assert_eq!(
            round.len(),
            minima.len(),
            "rounds replay the same operations"
        );
        for (best, &sample) in minima.iter_mut().zip(round) {
            *best = (*best).min(sample);
        }
    }
    minima
}

/// Nearest-rank percentile (`0 < p <= 1`) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty() && p > 0.0 && p <= 1.0);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
/// A percentile is only reported when at least ten samples lie beyond it.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Closed-loop rate implied by the best observed time of each operation:
/// `clients` callers work through `sum_minima_ns` of operation time in
/// parallel and complete `queries` queries doing so. Time spent in writes
/// is part of `sum_minima_ns`, so slower writes lower the query rate.
pub fn queries_per_s(clients: usize, queries: usize, sum_minima_ns: u64) -> f64 {
    clients as f64 * queries as f64 / (sum_minima_ns as f64 * 1e-9)
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method), which is what the acceptance procedure uses.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn iqr_spread(values: &[f64]) -> f64 {
    let (q1, median, q3) = quartiles(values);
    (q3 - q1) / median
}

/// By how much `second` is worse than `first`, as a share of `first`
/// (negative when it is better).
pub fn worsening(first: f64, second: f64, lower_is_better: bool) -> f64 {
    if lower_is_better {
        (second - first) / first
    } else {
        (first - second) / first
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_op_min_takes_each_operations_best_round() {
        let rounds = vec![vec![5, 9, 7], vec![6, 2, 7], vec![4, 8, 11]];
        assert_eq!(per_op_min(&rounds), vec![4, 2, 7]);
        assert_eq!(per_op_min(&[]), Vec::<u64>::new());
    }

    #[test]
    #[should_panic(expected = "rounds replay the same operations")]
    fn per_op_min_rejects_ragged_rounds() {
        per_op_min(&[vec![1, 2], vec![1]]);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), 50.0);
        assert_eq!(percentile(&sorted, 0.9), 90.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
        assert_eq!(percentile(&[3.0], 0.9), 3.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.5), 2.0);
    }

    #[test]
    fn p90_needs_a_hundred_samples_for_ten_beyond() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(samples_beyond(200, 0.9), 20);
        assert_eq!(samples_beyond(100, 0.5), 50);
        assert_eq!(samples_beyond(1, 0.9), 0);
    }

    #[test]
    fn queries_per_s_scales_with_clients_and_counts_write_time() {
        // 100 queries of 10 ms each, one caller: 100 queries/s.
        assert!((queries_per_s(1, 100, 1_000_000_000) - 100.0).abs() < 1e-9);
        // Two callers share the same total operation time: twice the rate.
        assert!((queries_per_s(2, 100, 1_000_000_000) - 200.0).abs() < 1e-9);
        // Writes add to the denominator without adding queries.
        assert!((queries_per_s(2, 100, 1_250_000_000) - 160.0).abs() < 1e-9);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 30, 20], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[10.0, 30.0, 20.0]), (10.0, 20.0, 30.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
        assert!((iqr_spread(&values) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn worsening_follows_the_metrics_direction() {
        assert!((worsening(100.0, 110.0, true) - 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, false) + 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, false) - 0.1).abs() < 1e-12);
    }
}
