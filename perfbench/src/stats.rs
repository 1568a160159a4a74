//! Small numeric and process helpers shared by the runs.

use std::time::Duration;

/// The median of `values` (mean of the middle two for even lengths);
/// 0 for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`; 0 when empty.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The upper quartile of `values`, interpolated between closest ranks
/// as `statistics.quantiles(values, n=4)` does; 0 when empty.
#[must_use]
pub fn upper_quartile(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = 0.75 * (v.len() + 1) as f64;
    let lo = (pos.floor() as usize).clamp(1, v.len());
    let hi = (lo + 1).min(v.len());
    v[lo - 1] + (pos - pos.floor()) * (v[hi - 1] - v[lo - 1])
}

/// Per-pass factors that put every pass of a run on one host speed.
///
/// `passes[p][i]` is item `i`'s time in pass `p`; every pass times the
/// same items in the same order. An item's usual time is its upper
/// quartile over the passes, and pass `p`'s factor is the sum of the
/// usual times over the sum of its own. On a shared host the common
/// state is contended and the spells of spare capacity vary from run to
/// run, so the upper quartile is the steady one. Every factor is 1 when
/// the passes do not line up.
#[must_use]
pub fn speed_factors(passes: &[Vec<f64>]) -> Vec<f64> {
    let n = passes.first().map_or(0, Vec::len);
    if n == 0 || passes.iter().any(|p| p.len() != n) {
        return vec![1.0; passes.len()];
    }
    let usual: f64 = (0..n)
        .map(|i| upper_quartile(&passes.iter().map(|p| p[i]).collect::<Vec<_>>()))
        .sum();
    passes
        .iter()
        .map(|p| {
            let own: f64 = p.iter().sum();
            if own > 0.0 {
                usual / own
            } else {
                1.0
            }
        })
        .collect()
}

/// Each item's median over the passes after rescaling pass `p` by
/// `speed[p]` (see [`speed_factors`]). When the passes do not line up,
/// every rescaled sample instead.
#[must_use]
pub fn per_item_medians(passes: &[Vec<f64>], speed: &[f64]) -> Vec<f64> {
    let n = passes.first().map_or(0, Vec::len);
    let scaled =
        |i: usize| -> Vec<f64> { passes.iter().zip(speed).map(|(p, f)| p[i] * f).collect() };
    if passes.iter().all(|p| p.len() == n) {
        (0..n).map(|i| median(&scaled(i))).collect()
    } else {
        passes
            .iter()
            .zip(speed)
            .flat_map(|(p, f)| p.iter().map(move |v| v * f))
            .collect()
    }
}

/// `a / b`, or 0 when `b` is 0.
#[must_use]
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Milliseconds in `d`.
#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set (`VmHWM`) of process `pid` in MiB, or of this
/// process for `None`. 0 when `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let Ok(text) = std::fs::read_to_string(path) else {
        return 0.0;
    };
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(upper_quartile(&[1.0, 2.0, 3.0, 4.0]), 3.75);
        assert_eq!(upper_quartile(&[5.0]), 5.0);
    }

    #[test]
    fn speed_factors_rescale_to_the_upper_quartile() {
        // Pass 1 ran everything twice as fast as passes 0, 2 and 3.
        let passes = vec![
            vec![2.0, 4.0],
            vec![1.0, 2.0],
            vec![2.0, 4.0],
            vec![2.0, 4.0],
        ];
        assert_eq!(speed_factors(&passes), vec![1.0, 2.0, 1.0, 1.0]);
        assert_eq!(speed_factors(&[vec![1.0], vec![]]), vec![1.0, 1.0]);
        let speed = speed_factors(&passes);
        assert_eq!(per_item_medians(&passes, &speed), vec![2.0, 4.0]);
        assert_eq!(
            per_item_medians(&[vec![1.0], vec![]], &[1.0, 3.0]),
            vec![1.0]
        );
    }
}
