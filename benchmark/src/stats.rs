//! Order statistics. Quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the exclusive method), because
//! that is what the acceptance check computes over ten runs.

/// A metric's value over the repetitions of one run: the median is the
/// reported value, the rest says how much to trust it.
#[derive(Debug, Clone)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub raw: Vec<f64>,
}

impl Summary {
    pub fn of(raw: Vec<f64>) -> Summary {
        let (q1, median, q3) = quartiles(&raw);
        Summary { median, q1, q3, raw }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Mean of the middle half of the sample: as robust to stragglers as the
/// median, but not quantized to one sample's clock reading.
pub fn midmean(values: &[f64]) -> f64 {
    let v = sorted(values);
    let quarter = v.len() / 4;
    let middle = &v[quarter..v.len() - quarter];
    if middle.is_empty() {
        return 0.0;
    }
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// `(q1, median, q3)`; with fewer than two samples all three are the one
/// sample (or 0).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let cut = |k: usize| {
        // Python: j = k*(n+1) // 4, delta = k*(n+1) - 4*j, clamped so both
        // neighbours exist.
        let m = n + 1;
        let j = (k * m / 4).clamp(1, n - 1);
        let delta = (k * m) as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), median(&v), cut(3))
}

/// Nearest-rank percentile of an already sorted sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `(p50, p99)` of a latency sample, in the sample's unit.
pub fn p50_p99(latencies: &mut [f64]) -> (f64, f64) {
    latencies.sort_by(f64::total_cmp);
    (percentile_sorted(latencies, 0.50), percentile_sorted(latencies, 0.99))
}

pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn midmean_ignores_the_tails() {
        assert_eq!(midmean(&[1.0, 2.0, 3.0, 1000.0]), 2.5);
        assert_eq!(midmean(&[5.0]), 5.0);
        assert_eq!(midmean(&[]), 0.0);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 50.0);
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&[7.0], 0.99), 7.0);
    }
}
