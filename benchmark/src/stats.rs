//! Order statistics shared by every record and by `compare`.

use serde::Value;

/// Linear-interpolation quantile (Hyndman–Fan type 7) of sorted data: the
/// tail percentiles (p99). Quartiles come from [`quartiles`] alone.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Sorted copy of `values` (NaNs last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quantile of unsorted data.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(values), q)
}

/// Median of unsorted data.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// gives them, so the quartiles in every record, the spreads and `compare`
/// all match the ones an outside checker computes from the same samples.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    quartiles_sorted(&sorted(values))
}

fn quartiles_sorted(data: &[f64]) -> (f64, f64) {
    let ld = data.len();
    if ld < 2 {
        let v = data.first().copied().unwrap_or(f64::NAN);
        return (v, v);
    }
    let m = ld + 1;
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Distance between the quartiles as a share of the median — the
/// run-to-run spread every bound is judged against.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// A timing distribution: count, median, quartiles and extremes — never a
/// mean alone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarizes `values`, with the quartiles of [`quartiles`].
    pub fn of(values: &[f64]) -> Summary {
        let s = sorted(values);
        let (q1, q3) = quartiles_sorted(&s);
        Summary {
            n: s.len(),
            median: quantile_sorted(&s, 0.5),
            q1,
            q3,
            min: s.first().copied().unwrap_or(f64::NAN),
            max: s.last().copied().unwrap_or(f64::NAN),
        }
    }

    /// The same distribution in another unit.
    pub fn scaled(self, k: f64) -> Summary {
        Summary {
            median: self.median * k,
            q1: self.q1 * k,
            q3: self.q3 * k,
            min: self.min * k,
            max: self.max * k,
            ..self
        }
    }

    /// JSON fields `n, median, q1, q3, min, max`.
    pub fn fields(&self) -> Vec<(String, Value)> {
        vec![
            ("n".into(), Value::Num(self.n as f64)),
            ("median".into(), Value::Num(self.median)),
            ("q1".into(), Value::Num(self.q1)),
            ("q3".into(), Value::Num(self.q3)),
            ("min".into(), Value::Num(self.min)),
            ("max".into(), Value::Num(self.max)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn summaries_use_the_same_quartiles() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        let s = Summary::of(&v);
        assert_eq!((s.n, s.min, s.max, s.q1, s.q3), (4, 1.0, 4.0, 1.25, 3.75));
        assert_eq!((s.q1, s.q3), quartiles(&v));
    }
}
