//! Sample statistics, process memory and host facts.

/// Minimum number of samples that must lie beyond a reported percentile.
const BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count); `NaN`
/// for no samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (in `(0, 1)`), reported only when at least
/// ten samples lie strictly beyond it; `None` otherwise.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    let value = v[rank - 1];
    let beyond = v.iter().filter(|&&x| x > value).count();
    (beyond >= BEYOND).then_some(value)
}

/// First and third quartiles by the method of Python's
/// `statistics.quantiles(values, n=4)` (the default, "exclusive"); `None`
/// for fewer than two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median (`0` below two samples).
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) => (q3 - q1) / median(values).abs(),
        None => 0.0,
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The host fields every results file records.
pub struct Host {
    pub nproc: usize,
    pub cpu: String,
    pub rustc: String,
}

pub fn host() -> Host {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned());
    Host {
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        cpu,
        rustc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.5), Some(50.0));
        assert_eq!(percentile(&hundred, 0.9), Some(90.0));
        // p99 of 100 samples has one sample beyond it.
        assert_eq!(percentile(&hundred, 0.99), None);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 0.99), Some(990.0));
        assert_eq!(percentile(&thousand[..999], 0.99), None);
        // Ties at the percentile do not count as beyond it.
        let mut flat = vec![1.0; 50];
        flat.extend([2.0; 9]);
        assert_eq!(percentile(&flat, 0.5), None);
        flat.push(2.0);
        assert_eq!(percentile(&flat, 0.5), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    /// Reference values from `statistics.quantiles(v, n=4)`.
    #[test]
    fn quartiles_match_python() {
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), Some((1.25, 3.75)));
        assert_eq!(
            quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]),
            Some((2.75, 8.25))
        );
        assert_eq!(quartiles(&[5.0, 1.0]), Some((0.0, 6.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&[9.0, 10.0, 11.0, 10.0]) - 0.15).abs() < 1e-12);
    }
}
