//! Summary statistics: the log-linear latency histogram and the sample
//! quantiles the reports and `compare` use.

/// Sub-buckets per power of two.  A bucket at or above 64 ns spans
/// 1/64 of its octave's base, so its width is at most 1.6% of any
/// value in it; below 64 ns every nanosecond has its own bucket.
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// Octaves above the exact range: covers values up to 2^63 ns.
const OCTAVES: usize = 64 - SUB_BITS as usize;

/// Nanosecond latency histogram with log-linear buckets.
///
/// Percentiles are interpolated linearly by rank inside the bucket the
/// rank falls in, so a reported percentile moves with the data instead
/// of snapping to a bucket edge.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; (OCTAVES + 1) * SUB as usize],
            total: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    fn bucket(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let octave = 63 - ns.leading_zeros() - SUB_BITS; // ns >> octave ∈ [64, 128)
        let sub = (ns >> octave) - SUB;
        ((octave as u64 + 1) * SUB + sub) as usize
    }

    /// `[lower, upper)` of bucket `i`.
    fn bounds(i: usize) -> (u64, u64) {
        let i = i as u64;
        if i < SUB {
            return (i, i + 1);
        }
        let octave = i / SUB - 1;
        let lower = (SUB + i % SUB) << octave;
        (lower, lower + (1 << octave))
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.total += 1;
        self.sum += u128::from(ns);
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    pub fn mean(&self) -> f64 {
        self.sum as f64 / self.total.max(1) as f64
    }

    /// The `q`-quantile (`0 < q ≤ 1`) in nanoseconds; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        // Rank of the quantile among the sorted samples, 1-based.
        let rank = (q * self.total as f64).ceil().clamp(1.0, self.total as f64);
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (below + c) as f64 >= rank {
                let (lo, hi) = Self::bounds(i);
                // The k-th of c samples in a bucket sits at (k - ½)/c of it.
                let within = (rank - below as f64 - 0.5) / c as f64;
                return lo as f64 + (hi - lo) as f64 * within;
            }
            below += c;
        }
        unreachable!("rank never exceeds the total")
    }
}

/// Median of `values` (the mean of the two middle values for an even
/// count), as Python's `statistics.median` computes it.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by Python's `statistics.quantiles(values,
/// n=4)` (its default "exclusive" method), so the spreads this
/// benchmark reports are the ones an outside check computes.  A single
/// value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    match ld {
        0 => (0.0, 0.0),
        1 => (v[0], v[0]),
        _ => {
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (q(1), q(3))
        }
    }
}

/// The `q`-quantile of raw samples with linear interpolation between
/// closest ranks (used where a run holds too few samples for a
/// histogram, e.g. one model-check pass per run).
pub fn sample_quantile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range_and_stay_within_two_percent() {
        let mut prev_upper = 0;
        for i in 0..(OCTAVES + 1) * SUB as usize {
            let (lo, hi) = Histogram::bounds(i);
            assert_eq!(
                lo,
                prev_upper,
                "bucket {i} must start where {} ended",
                i - 1
            );
            assert!(hi > lo);
            assert_eq!(Histogram::bucket(lo), i);
            assert_eq!(Histogram::bucket(hi - 1), i);
            if lo >= SUB {
                assert!((hi - lo) as f64 / lo as f64 <= 0.02, "bucket {i} too wide");
            }
            prev_upper = hi;
            if hi > 1 << 40 {
                break;
            }
        }
    }

    #[test]
    fn percentiles_track_the_exact_order_statistics() {
        let mut h = Histogram::default();
        // 1..=100_000 ns, uniformly.
        for ns in 1..=100_000u64 {
            h.record(ns);
        }
        for (q, exact) in [(0.5, 50_000.0), (0.99, 99_000.0), (0.01, 1_000.0)] {
            let got = h.quantile(q);
            assert!(
                ((got - exact) / exact).abs() < 0.02,
                "q{q}: {got} vs {exact}"
            );
        }
        assert!((h.mean() - 50_000.5).abs() < 1e-6);
        // Exact range: small values are reported exactly.
        let mut small = Histogram::default();
        for ns in [5, 5, 5, 9] {
            small.record(ns);
        }
        assert!((5.0..6.0).contains(&small.quantile(0.5)));
        assert!((9.0..10.0).contains(&small.quantile(1.0)));
    }

    #[test]
    fn percentiles_move_with_the_data_inside_a_bucket() {
        // Two histograms whose samples share one bucket but differ in
        // mix must not report the same p50 (a percentile that snaps to
        // bucket edges would read identically run after run).
        let (mut a, mut b) = (Histogram::default(), Histogram::default());
        for _ in 0..100 {
            a.record(540);
            b.record(540);
        }
        for _ in 0..50 {
            a.record(10_000);
        }
        assert_ne!(a.quantile(0.5), b.quantile(0.5));
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.total, 250);
        assert_eq!(Histogram::default().quantile(0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values: statistics.quantiles(data, n=4).
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        let odd = [15.2, 14.8, 16.1, 15.0, 15.5];
        let (q1, q3) = quartiles(&odd);
        assert!((q1 - 14.9).abs() < 1e-12 && (q3 - 15.8).abs() < 1e-12);
        assert_eq!(median(&ten), 5.5);
        assert_eq!(median(&odd), 15.2);
    }

    #[test]
    fn sample_quantile_interpolates() {
        assert_eq!(sample_quantile(&[4.0], 0.99), 4.0);
        assert_eq!(sample_quantile(&[1.0, 3.0], 0.5), 2.0);
        assert!((sample_quantile(&[1.0, 2.0, 3.0], 0.99) - 2.98).abs() < 1e-12);
    }
}
