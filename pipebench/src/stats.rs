//! The benchmark's own statistics and accounting: nearest-rank
//! percentiles, sum/count means, and the loss ratio.

/// Nearest-rank percentile of ascending `sorted`: the smallest sample
/// with at least `p` percent of all samples at or below it. Returns 0
/// for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the nearest-rank percentile `p` of `n`
/// samples. A percentile is trustworthy with at least ten beyond it.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// A latency sample set reduced to what the report prints.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Sorts `samples` in place and summarises them.
    pub fn of(samples: &mut [f64]) -> Summary {
        samples.sort_by(f64::total_cmp);
        Summary {
            n: samples.len(),
            p50: percentile(samples, 50.0),
            p99: percentile(samples, 99.0),
            max: samples.last().copied().unwrap_or(0.0),
        }
    }
}

/// `sum / count`, 0 when nothing was counted — how every stage and
/// per-call mean is formed, so means of telescoping stages add up.
pub fn mean(sum: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// Every failure the run counted, per the report's `failed` field.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Losses {
    /// Tuples the generator sent that the hub never received.
    pub unreceived: u64,
    /// Received tuples the store tee did not store.
    pub unstored: u64,
    /// Tuples the store rejected as time-regressive.
    pub store_drops: u64,
    /// Store write failures.
    pub store_errors: u64,
    /// Undecodable text lines.
    pub parse_errors: u64,
    /// Broken frames or bad commands.
    pub protocol_errors: u64,
    /// Tuples every scope buffer rejected (late drops).
    pub late_drops: u64,
    /// Sequence numbers a live subscriber never received.
    pub unseen: u64,
    /// Queries that returned an error or an empty answer.
    pub failed_queries: u64,
}

impl Losses {
    /// Total failures.
    pub fn total(&self) -> u64 {
        self.unreceived
            + self.unstored
            + self.store_drops
            + self.store_errors
            + self.parse_errors
            + self.protocol_errors
            + self.late_drops
            + self.unseen
            + self.failed_queries
    }
}

/// Everything that failed, divided by everything attempted (tuples
/// sent plus queries issued).
pub fn loss_ratio(losses: &Losses, attempted: u64) -> f64 {
    mean(losses.total() as f64, attempted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 100.0), 1000.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(beyond(100, 99.0), 1);
        assert_eq!(beyond(20, 50.0), 10);
        assert_eq!(beyond(0, 99.0), 0);
        // The reported sample really has that many strictly above it.
        let v: Vec<f64> = (0..1500).map(f64::from).collect();
        let p = percentile(&v, 99.0);
        assert_eq!(v.iter().filter(|&&x| x > p).count(), beyond(v.len(), 99.0));
    }

    #[test]
    fn summary_sorts_and_reduces() {
        let mut v = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        let s = Summary::of(&mut v);
        assert_eq!(v, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.n, s.p50, s.p99, s.max), (5, 3.0, 5.0, 5.0));
        assert_eq!(Summary::of(&mut []), Summary::default());
    }

    #[test]
    fn stage_means_are_sum_over_count() {
        // Two chains with stages (10, 20) and (30, 40): the stage means
        // add up to the mean of the totals, which percentiles do not.
        let stage_a = mean(10.0 + 30.0, 2);
        let stage_b = mean(20.0 + 40.0, 2);
        let total = mean(30.0 + 70.0, 2);
        assert_eq!(stage_a + stage_b, total);
        assert_eq!(mean(5.0, 0), 0.0);
    }

    #[test]
    fn loss_ratio_counts_every_failure_against_attempts() {
        let none = Losses::default();
        assert_eq!(loss_ratio(&none, 1000), 0.0);
        let some = Losses {
            unreceived: 1,
            unstored: 1,
            store_drops: 1,
            store_errors: 1,
            parse_errors: 1,
            protocol_errors: 1,
            late_drops: 1,
            unseen: 1,
            failed_queries: 2,
        };
        assert_eq!(some.total(), 10);
        assert_eq!(loss_ratio(&some, 1000), 0.01);
        assert_eq!(loss_ratio(&some, 0), 0.0);
    }
}
