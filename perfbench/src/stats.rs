//! Percentiles over exact samples and over the nodes' bucketed histograms.

use prcc_telemetry::{Histogram, MetricsSnapshot};

/// A latency distribution reduced to what the result reports: median,
/// p99 and p99.9 with the number of samples behind them.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub count: u64,
    pub p50: f64,
    pub p99: f64,
    pub p999: f64,
}

/// The median of a few values: the mean of the middle two when even, so
/// the median of six segments is not just the third.
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentiles over exact samples (any unit).
pub fn summarize(samples: &mut [f64]) -> Summary {
    if samples.is_empty() {
        return Summary::default();
    }
    samples.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let rank = (samples.len() as f64 * q).ceil() as usize;
        samples[rank.clamp(1, samples.len()) - 1]
    };
    Summary {
        count: samples.len() as u64,
        p50: at(0.50),
        p99: at(0.99),
        p999: at(0.999),
    }
}

/// Consecutive samples per window of the windowed tail estimate: enough
/// that each window's p99 has ten samples beyond it.
pub const WINDOW: usize = 1000;

/// The p99 of every run of [`WINDOW`] consecutive samples (a single
/// window of all of them when there are fewer). Their median is the
/// tail a client sees in a typical window: a stall of the whole machine
/// fills the few windows it lands in instead of the whole run's p99.
pub fn window_p99s(samples: &[f64]) -> Vec<f64> {
    if samples.len() < WINDOW {
        return vec![summarize(&mut samples.to_vec()).p99];
    }
    samples
        .chunks_exact(WINDOW)
        .map(|w| summarize(&mut w.to_vec()).p99)
        .collect()
}

/// Bucket layout of `prcc_telemetry::Histogram` (documented in its
/// module): values below 16 are exact, then 8 log-linear sub-buckets per
/// octave. Returns the inclusive `[low, high]` value range of bucket `idx`.
fn bucket_range(idx: usize) -> (f64, f64) {
    let upper = |i: usize| -> u64 {
        if i < 16 {
            i as u64
        } else {
            let e = (i / 8) as u32 + 2;
            let sub = (i % 8) as u64;
            ((8 + sub + 1) << (e - 3)).wrapping_sub(1)
        }
    };
    let high = upper(idx);
    let low = if idx == 0 { 0 } else { upper(idx - 1) + 1 };
    (low as f64, high as f64)
}

/// Per-bucket counts of a histogram, read through its public sparse
/// encoding (count, sum, max, occupied, then `(index, count)` pairs).
fn bucket_counts(h: &Histogram) -> Vec<(usize, u64)> {
    let mut buf = Vec::new();
    h.encode(&mut buf);
    let mut at = 0;
    let mut next = || prcc_clock::encoding::read_varint_at(&buf, &mut at).expect("own encoding");
    let (_count, _sum, _max) = (next(), next(), next());
    let occupied = next();
    (0..occupied).map(|_| (next() as usize, next())).collect()
}

/// The samples a histogram gained between two scrapes of the same
/// cumulative metric, as `(bucket, count)` pairs.
pub fn hist_delta(
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    name: &str,
) -> Vec<(usize, u64)> {
    let mut counts: Vec<(usize, u64)> = after.hist(name).map(bucket_counts).unwrap_or_default();
    if let Some(old) = before.hist(name) {
        for (idx, c) in bucket_counts(old) {
            if let Some(slot) = counts.iter_mut().find(|(i, _)| *i == idx) {
                slot.1 = slot.1.saturating_sub(c);
            }
        }
    }
    counts.retain(|&(_, c)| c > 0);
    counts
}

/// Adds `more` into `into`, keeping buckets in ascending order.
pub fn merge_counts(into: &mut Vec<(usize, u64)>, more: &[(usize, u64)]) {
    let mut all: std::collections::BTreeMap<usize, u64> = into.iter().copied().collect();
    for &(idx, c) in more {
        *all.entry(idx).or_default() += c;
    }
    *into = all.into_iter().collect();
}

/// Percentiles of bucketed samples, interpolated linearly inside the
/// bucket holding the rank. The bucket's upper bound alone (what
/// `Histogram::percentile` reports) is up to 12.5% off and moves in
/// whole-bucket steps; interpolation keeps the estimate inside the same
/// bucket while letting it follow where the rank falls within it.
pub fn summarize_buckets(counts: &[(usize, u64)]) -> Summary {
    let total: u64 = counts.iter().map(|&(_, c)| c).sum();
    if total == 0 {
        return Summary::default();
    }
    let at = |q: f64| {
        let rank = (total as f64 * q).ceil().clamp(1.0, total as f64);
        let mut seen = 0.0;
        for &(idx, c) in counts {
            let c = c as f64;
            if seen + c >= rank {
                let (low, high) = bucket_range(idx);
                return low + (high - low + 1.0) * ((rank - seen) / c);
            }
            seen += c;
        }
        bucket_range(counts[counts.len() - 1].0).1
    };
    Summary {
        count: total,
        p50: at(0.50),
        p99: at(0.99),
        p999: at(0.999),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_ranges_tile_the_line() {
        let mut expect = 0.0;
        for idx in 0..200 {
            let (low, high) = bucket_range(idx);
            assert_eq!(low, expect, "bucket {idx}");
            assert!(high >= low);
            expect = high + 1.0;
        }
    }

    #[test]
    fn interpolated_percentiles_stay_inside_the_true_bucket() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = summarize_buckets(&bucket_counts(&h));
        assert_eq!(s.count, 1000);
        assert!((s.p50 - 500.0).abs() <= 500.0 / 8.0, "p50 {}", s.p50);
        assert!((s.p99 - 990.0).abs() <= 990.0 / 8.0, "p99 {}", s.p99);
        assert!(s.p50 <= h.percentile(0.5) as f64);
    }

    #[test]
    fn windows_isolate_a_burst() {
        let mut v = vec![1.0; 10 * WINDOW];
        v[..WINDOW / 10].iter_mut().for_each(|x| *x = 1e6);
        let mut p99s = window_p99s(&v);
        assert_eq!(p99s.len(), 10);
        assert_eq!(summarize(&mut p99s).p50, 1.0);
        assert_eq!(window_p99s(&[3.0, 1.0, 2.0]), vec![3.0]);
    }

    #[test]
    fn exact_summary_uses_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&mut v);
        assert_eq!((s.p50, s.p99, s.p999), (50.0, 99.0, 100.0));
    }
}
