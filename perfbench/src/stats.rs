//! Order statistics over timing samples.
//!
//! Tail percentiles follow one rule: a percentile is reported only when at
//! least [`MIN_BEYOND`] samples lie strictly beyond it, so a tail figure is
//! never one or two outliers in disguise.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank index of percentile `p` (in `[0, 1]`) among `n` sorted
/// samples: the smallest index whose cumulative share reaches `p`.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank percentile `p` of `samples`, with no sample-count rule.
/// Panics on an empty slice: every caller measures at least one sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let v = sorted(samples);
    v[rank(p, v.len())]
}

/// The median (nearest-rank, so always an observed value).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Tail percentile `p`, or `None` when fewer than [`MIN_BEYOND`] samples
/// lie strictly beyond it.
pub fn tail(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let v = sorted(samples);
    let at = v[rank(p, v.len())];
    let beyond = v.iter().filter(|&&s| s > at).count();
    (beyond >= MIN_BEYOND).then_some(at)
}

/// Samples strictly beyond percentile `p` (reported beside the tail).
pub fn beyond(samples: &[f64], p: f64) -> usize {
    let at = percentile(samples, p);
    samples.iter().filter(|&&s| s > at).count()
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no values");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 100 distinct samples: p90 is the 90th value, 10 lie beyond it.
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&s, 0.9), Some(90.0));
        // 99 samples: p90 is the 90th value and only 9 lie beyond it.
        assert_eq!(tail(&s[..99], 0.9), None);
        // p99 of 1000 samples keeps exactly 10 beyond.
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&s, 0.99), Some(990.0));
        assert_eq!(tail(&s[..999], 0.99), None);
    }

    #[test]
    fn ties_at_the_percentile_do_not_count_as_beyond() {
        // 100 samples whose top 15 all equal the p90 value: nothing lies
        // strictly beyond it, so no tail is reported.
        let mut s = vec![1.0; 85];
        s.extend(std::iter::repeat_n(5.0, 15));
        assert_eq!(tail(&s, 0.9), None);
        assert_eq!(beyond(&s, 0.9), 0);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
    }
}
