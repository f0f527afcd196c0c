//! Order statistics for host timings.
//!
//! Quartiles follow Python's `statistics.quantiles` ("exclusive"
//! method), so a reader can recompute them from the printed samples.

/// Quartiles of a sample, with its size.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

/// The `i`-th of the `parts`-quantiles of sorted `v` (exclusive method).
fn quantile(v: &[f64], i: usize, parts: usize) -> f64 {
    let n = v.len();
    if n == 1 {
        return v[0];
    }
    let m = n + 1;
    let j = (i * m / parts).clamp(1, n - 1);
    let delta = (i * m) as f64 - (j * parts) as f64;
    (v[j - 1] * (parts as f64 - delta) + v[j] * delta) / parts as f64
}

impl Summary {
    /// Summarizes `values` (at least one).
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of an empty sample");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Summary {
            q1: quantile(&v, 1, 4),
            median: quantile(&v, 2, 4),
            q3: quantile(&v, 3, 4),
            n: v.len(),
        }
    }

    /// Converts a summary of per-unit times into one of rates `work /
    /// time` (the shortest times give the highest rates).
    pub fn rate(&self, work: f64) -> Summary {
        Summary {
            q1: work / self.q3,
            median: work / self.median,
            q3: work / self.q1,
            n: self.n,
        }
    }
}

/// Median of `values` (at least one).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&[3.0, 1.0, 2.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }
}
