//! Order statistics for timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(data, n=4)` (the default
//! "exclusive" method), so a spread computed here matches one computed from
//! the same values with the standard library.

/// Median and quartiles of a sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises `samples` (which must be non-empty).
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "summary of an empty sample");
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let median = median_sorted(&v);
        let (q1, q3) = if v.len() < 2 {
            (median, median)
        } else {
            (quantile_exclusive(&v, 1), quantile_exclusive(&v, 3))
        };
        Summary {
            q1,
            median,
            q3,
            n: v.len(),
        }
    }

    /// The quartile on the better side: `q1` when lower is better, `q3`
    /// when higher is. This is the value a run reports. Contention from
    /// other tenants of the host only ever slows a round down, so the
    /// better quartile tracks the code's own cost and moves only when a
    /// slow phase covers more than three quarters of the rounds, where the
    /// median moves once it covers half.
    pub fn better_quartile(&self, lower_better: bool) -> f64 {
        if lower_better {
            self.q1
        } else {
            self.q3
        }
    }

    /// Distance between the quartiles as a share of the median (0 when the
    /// median is 0).
    pub fn rel_spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of a sorted, non-empty slice.
fn median_sorted(v: &[f64]) -> f64 {
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `i`-th of the three cut points dividing sorted `v` (length ≥ 2) into
/// quarters, by Python's exclusive method: positions on the `len + 1` grid,
/// clamped to the data, interpolated linearly.
fn quantile_exclusive(v: &[f64], i: usize) -> f64 {
    const N: usize = 4;
    let ld = v.len();
    let m = ld + 1;
    let j = (i * m / N).clamp(1, ld - 1);
    let delta = (i * m) as f64 - (j * N) as f64;
    (v[j - 1] * (N as f64 - delta) + v[j] * delta) / N as f64
}

/// Share of all `(a, b)` pairs in which `b` beats `a`, ties counting for
/// neither side. `lower_better` says which direction wins.
pub fn win_fraction(a: &[f64], b: &[f64], lower_better: bool) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let wins = a
        .iter()
        .flat_map(|&x| b.iter().map(move |&y| (x, y)))
        .filter(|&(x, y)| if lower_better { y < x } else { y > x })
        .count();
    wins as f64 / (a.len() * b.len()) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn median_odd_and_even() {
        assert!(close(Summary::of(&[3.0, 1.0, 2.0]).median, 2.0));
        assert!(close(Summary::of(&[4.0, 1.0, 3.0, 2.0]).median, 2.5));
        assert!(close(Summary::of(&[7.0]).median, 7.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=9], n=4) == [2.5, 5.0, 7.5]
        let s = Summary::of(&[9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 5.0]);
        assert!(close(s.q1, 2.5) && close(s.median, 5.0) && close(s.q3, 7.5));
        assert_eq!(s.n, 9);
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert!(close(s.q1, 2.75) && close(s.median, 5.5) && close(s.q3, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // clamped positions extrapolate past the data.
        let s = Summary::of(&[2.0, 1.0]);
        assert!(close(s.q1, 0.75) && close(s.q3, 2.25));
        assert!(close(Summary::of(&[5.0]).rel_spread(), 0.0));
        assert!(close(Summary::of(&v).rel_spread(), 5.5 / 5.5));
    }

    #[test]
    fn better_quartile_ignores_a_slow_phase_under_three_quarters() {
        // Twelve rounds, five of them slowed down by half.
        let mut v = vec![1.0, 1.01, 1.02, 1.0, 1.01, 1.02, 1.0];
        v.extend([1.5; 5]);
        let s = Summary::of(&v);
        assert!(s.better_quartile(true) < 1.01);
        assert!(s.median > 1.01);
        let rates: Vec<f64> = v.iter().map(|t| 1.0 / t).collect();
        assert!(Summary::of(&rates).better_quartile(false) > 1.0 / 1.01);
    }

    #[test]
    fn win_fraction_ignores_ties() {
        assert!(close(win_fraction(&[2.0, 2.0], &[1.0, 3.0], true), 0.5));
        assert!(close(win_fraction(&[2.0], &[2.0], true), 0.0));
        assert!(close(win_fraction(&[1.0], &[2.0], false), 1.0));
    }
}
