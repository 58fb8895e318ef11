//! The verdict `compare` gives one end-to-end metric on one workload,
//! following the measuring rules the benchmark is defined under: a gain
//! needs at least ten pairs, nine in ten won, and a median difference
//! larger than the base's own quartile spread; a regression is a median
//! worse than the base's by more than the metric's bound; and a base
//! whose spread exceeds the bound leaves the result unresolved unless
//! every new run beats every base run.

use crate::stats::{median, quartiles};

/// Pairs a gain needs at least.
pub const MIN_PAIRS: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    /// No worse than the bound, and no gain shown.
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        let (q1, q3) = quartiles(values);
        Summary {
            median: median(values),
            q1,
            q3,
            n: values.len(),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    pub base: Summary,
    pub new: Summary,
    /// Pairs (`base[i]`, `new[i]`) the new side won, lost and tied.
    pub wins: usize,
    pub losses: usize,
    pub ties: usize,
    pub verdict: Verdict,
}

/// Compares `new` runs against `base` runs of one metric.
/// `higher_is_better` gives its direction and `bound` the share of the
/// base median by which it may worsen.
pub fn compare(base: &[f64], new: &[f64], higher_is_better: bool, bound: f64) -> Comparison {
    let better = |a: f64, b: f64| if higher_is_better { a > b } else { a < b };
    let (mut wins, mut losses, mut ties) = (0, 0, 0);
    for (&b, &n) in base.iter().zip(new) {
        if better(n, b) {
            wins += 1;
        } else if better(b, n) {
            losses += 1;
        } else {
            ties += 1;
        }
    }
    let pairs = wins + losses + ties;
    let (bs, ns) = (Summary::of(base), Summary::of(new));
    let spread = bs.q3 - bs.q1;
    let scale = bs.median.abs().max(f64::MIN_POSITIVE);
    // Positive when the new median is better.
    let gain = if higher_is_better {
        ns.median - bs.median
    } else {
        bs.median - ns.median
    };
    let all_better = !base.is_empty()
        && !new.is_empty()
        && new.iter().all(|&n| base.iter().all(|&b| better(n, b)));
    let wide = spread / scale > bound;
    let verdict = if pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && gain > spread {
        Verdict::Better
    } else if wide && !all_better {
        Verdict::Unresolved
    } else if -gain / scale > bound {
        Verdict::Worse
    } else {
        Verdict::Same
    };
    Comparison {
        base: bs,
        new: ns,
        wins,
        losses,
        ties,
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, jitter: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| center + jitter * ((i as f64 * 0.37).sin()))
            .collect()
    }

    #[test]
    fn a_clear_gain_on_ten_pairs_is_better() {
        let base = around(100.0, 1.0, 10);
        let new = around(80.0, 1.0, 10);
        let c = compare(&base, &new, false, 0.10);
        assert_eq!(c.verdict, Verdict::Better);
        assert_eq!((c.wins, c.losses, c.ties), (10, 0, 0));
        // Same data, throughput direction: it is a regression.
        assert_eq!(compare(&base, &new, true, 0.10).verdict, Verdict::Worse);
    }

    #[test]
    fn a_gain_needs_ten_pairs_and_nine_wins() {
        let base = around(100.0, 1.0, 3);
        let new = around(80.0, 1.0, 3);
        // Three pairs cannot show a gain; not worse either.
        assert_eq!(compare(&base, &new, false, 0.10).verdict, Verdict::Same);
        let base = around(100.0, 0.5, 10);
        let mut new = around(95.0, 0.5, 10);
        new[0] = 101.0;
        new[1] = 101.0;
        // Eight wins of ten is not nine in ten.
        let c = compare(&base, &new, false, 0.10);
        assert_eq!(c.wins, 8);
        assert_eq!(c.verdict, Verdict::Same);
    }

    #[test]
    fn a_gain_must_exceed_the_base_spread() {
        let base: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
        let new: Vec<f64> = base.iter().map(|b| b - 0.5).collect();
        let c = compare(&base, &new, false, 0.10);
        assert_eq!(c.wins, 10);
        assert_eq!(c.verdict, Verdict::Same, "0.5 below a 4.5-wide spread");
    }

    #[test]
    fn worse_beyond_the_bound_and_unresolved_when_noisy() {
        let base = around(100.0, 0.5, 10);
        assert_eq!(
            compare(&base, &around(112.0, 0.5, 10), false, 0.10).verdict,
            Verdict::Worse
        );
        assert_eq!(
            compare(&base, &around(108.0, 0.5, 10), false, 0.10).verdict,
            Verdict::Same,
            "8% worse is within a 10% bound"
        );
        // A base spread wider than the bound resolves nothing...
        let noisy: Vec<f64> = (0..10).map(|i| 70.0 + 6.0 * f64::from(i)).collect();
        assert_eq!(
            compare(&noisy, &around(100.0, 0.5, 10), false, 0.10).verdict,
            Verdict::Unresolved
        );
        // ...unless every new run beats every base run.
        let c = compare(&noisy, &around(50.0, 0.5, 3), false, 0.10);
        assert_eq!(c.verdict, Verdict::Same);
    }
}
