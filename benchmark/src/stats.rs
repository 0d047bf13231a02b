//! Order statistics for timing samples.
//!
//! [`quartiles`] reproduces Python's `statistics.quantiles(values, n=4)`
//! (the default "exclusive" method) exactly, so the spreads this crate
//! reports are the ones a Python checker computes from the same values.

/// The median of `values` (mean of the two middle values for an even
/// count).
///
/// # Panics
///
/// Panics if `values` is empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The `p`-quantile (`0.0..=1.0`) of `values`, interpolating linearly
/// between the closest ranks (position `p × (n − 1)` of the sorted values).
///
/// # Panics
///
/// Panics if `values` is empty or `p` is outside `0.0..=1.0`.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    assert!((0.0..=1.0).contains(&p), "percentile {p} outside 0..=1");
    let sorted = sorted(values);
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The three cut points `[q1, q2, q3]` of Python's
/// `statistics.quantiles(values, n=4)` with its default exclusive method.
/// A single value is its own quartiles.
///
/// # Panics
///
/// Panics if `values` is empty.
#[must_use]
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no samples");
    let data = sorted(values);
    let ld = data.len();
    if ld == 1 {
        return [data[0]; 3];
    }
    let n = 4i64;
    let len = i64::try_from(ld).expect("sample count fits i64");
    let m = len + 1;
    let mut cuts = [0.0; 3];
    for (i, cut) in (1..n).zip(cuts.iter_mut()) {
        let j = (i * m / n).clamp(1, len - 1);
        // Negative when the clamp raised `j`, exactly as in Python.
        let delta = (i * m - j * n) as f64;
        let j = usize::try_from(j).expect("clamped to 1..len");
        *cut = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    cuts
}

/// The distance between the first and third quartiles as a share of the
/// median: the run-to-run spread the benchmark's bounds are judged
/// against.
///
/// # Panics
///
/// Panics if `values` is empty.
#[must_use]
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert!(close(median(&[3.0, 1.0, 2.0]), 2.0));
        assert!(close(median(&[4.0, 1.0, 3.0, 2.0]), 2.5));
        assert!(close(median(&[7.0]), 7.0));
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert!(close(percentile(&v, 0.0), 1.0));
        assert!(close(percentile(&v, 1.0), 11.0));
        assert!(close(percentile(&v, 0.9), 10.0));
        assert!(close(percentile(&[0.0, 10.0], 0.25), 2.5));
    }

    /// Reference values from CPython 3's `statistics.quantiles(data, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        let data = [
            105.0, 129.0, 87.0, 86.0, 111.0, 111.0, 89.0, 81.0, 108.0, 92.0,
        ];
        assert_eq!(quartiles(&data), [86.75, 98.5, 111.0]);
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[5.0]), [5.0, 5.0, 5.0]);
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(close(iqr_share(&ten), (8.25 - 2.75) / 5.5));
        assert!(close(iqr_share(&[2.0; 10]), 0.0));
    }
}
