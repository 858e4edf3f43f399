//! Order statistics over run samples: the median every metric is reported
//! as, the quartiles its spread is judged by, and the percentiles of
//! per-call latency distributions.

/// Returns a sorted copy of `values` (total order; NaN sorts last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median: the middle sample, or the mean of the two middle samples
/// for an even count. `None` for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` does (the default "exclusive"
/// method), so spreads printed here match the ones an outside script
/// computes. `None` for fewer than two samples.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let n = 4usize;
    let m = len + 1;
    let mut cuts = [0.0; 3];
    for (slot, i) in cuts.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    Some(cuts)
}

/// The `p`-th percentile (`p` in `[0, 100]`) by linear interpolation
/// between closest ranks. `None` for an empty slice.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    let last = v.len().checked_sub(1)?;
    let rank = (p / 100.0).clamp(0.0, 1.0) * last as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (rank - lo as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    /// Reference values from CPython's `statistics.quantiles(v, n=4)`.
    #[test]
    fn quartiles_match_python_statistics() {
        let cases: [(&[f64], [f64; 3]); 5] = [
            (
                &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
                [2.75, 5.5, 8.25],
            ),
            (
                &[3.5, 1.25, 9.0, 2.0, 7.75, 4.0, 6.5, 8.25, 5.0, 0.5],
                [1.8125, 4.5, 7.875],
            ),
            (&[1.0, 2.0], [0.75, 1.5, 2.25]),
            (&[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]),
            (&[2.0, 4.0, 8.0, 16.0, 32.0], [3.0, 8.0, 24.0]),
        ];
        for (values, expected) in cases {
            let got = quartiles(values).unwrap();
            for (g, e) in got.iter().zip(expected) {
                assert!(close(*g, e), "{values:?}: {got:?} vs {expected:?}");
            }
        }
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), Some(10.0));
        assert_eq!(percentile(&v, 50.0), Some(30.0));
        assert_eq!(percentile(&v, 100.0), Some(50.0));
        assert!(close(percentile(&v, 95.0).unwrap(), 48.0));
        assert_eq!(percentile(&[], 50.0), None);
    }
}
