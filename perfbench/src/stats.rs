//! Small numeric and reporting helpers: order statistics, the
//! tail-percentile rule, histogram percentiles, peak memory, and the
//! metric record every workload fills.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One reported metric: name, value and unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
}

/// Everything one run reports: the metrics, the checked items and the
/// human-readable lines printed before the JSON result.
///
/// An item is one unit of work the run checks: an explore campaign or a
/// serve spec. It fails when any of its checks fails, however often it
/// ran, so the counts do not depend on run speed.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub items: u64,
    failed_items: BTreeSet<u64>,
    /// Every failed check, and problems not tied to one item.
    pub errors: Vec<String>,
    pub notes: Vec<String>,
    /// When each timed unit of work (a campaign, an evolve run, a served
    /// campaign) ran, for the per-unit memory peak.
    pub windows: Vec<(Instant, Instant)>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push(Metric { name, value });
    }

    /// Records that a timed unit of work ran from `start` until now.
    pub fn window(&mut self, start: Instant) {
        self.windows.push((start, Instant::now()));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records that a check of `item` failed.
    pub fn fail(&mut self, item: u64, what: String) {
        self.failed_items.insert(item);
        self.errors.push(what);
    }

    pub fn failed(&self) -> u64 {
        self.failed_items.len() as u64
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// Failed items over checked ones, with one pseudo-failure and one
    /// pseudo-success added (Laplace's rule of succession): the estimate
    /// never reads 0, so a relative bound on it is defined, and a single
    /// real failure at least doubles it.
    pub fn failed_share(&self) -> f64 {
        (self.failed() as f64 + 1.0) / (self.items as f64 + 2.0)
    }
}

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The rate over repeated items: each item's `count` once per timed run
/// of it, over the sum of every run's seconds in `samples` (one list of
/// run times per item); 0 when nothing was timed.
pub fn total_rate(counts: impl IntoIterator<Item = u64>, samples: &[Vec<f64>]) -> f64 {
    let done: f64 = counts
        .into_iter()
        .zip(samples)
        .map(|(c, s)| c as f64 * s.len() as f64)
        .sum();
    let seconds: f64 = samples.iter().flatten().sum();
    if seconds > 0.0 {
        done / seconds
    } else {
        0.0
    }
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The tail percentile to report for `n` samples: `target` (in percent)
/// when at least ten samples lie beyond it, otherwise the highest whole
/// percentile that still has ten samples beyond it. `None` when even the
/// median lacks ten samples beyond it (fewer than 20 samples).
pub fn tail_percentile(n: usize, target: u32) -> Option<u32> {
    // samples strictly beyond percentile p: n * (100 - p) / 100 >= 10
    (50..=target)
        .rev()
        .find(|&p| n as u64 * u64::from(100 - p) >= 1000)
}

/// Percentile of a log2-bucketed histogram snapshot, interpolated
/// linearly inside the bucket that holds it.
pub fn hist_quantile(h: &pdf_obs::HistSnapshot, q: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let rank = q * h.count as f64;
    let mut seen = 0.0;
    for &(bucket, count) in &h.buckets {
        let next = seen + count as f64;
        if next >= rank {
            let lo = pdf_obs::bucket_lo(bucket as usize) as f64;
            let hi = if bucket == 0 {
                1.0
            } else {
                pdf_obs::bucket_lo(bucket as usize + 1) as f64
            };
            let within = if count == 0 {
                0.0
            } else {
                (rank - seen) / count as f64
            };
            return lo + (hi - lo) * within;
        }
        seen = next;
    }
    pdf_obs::bucket_lo(h.buckets.last().map_or(0, |b| b.0 as usize)) as f64
}

/// A `/proc/self/status` field of this process in MiB (`VmRSS`,
/// `VmHWM`), or `None` where `/proc` is unavailable.
fn status_mib(field: &str) -> Option<f64> {
    std::fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find(|l| l.starts_with(field))?
        .split_whitespace()
        .nth(1)?
        .parse::<f64>()
        .ok()
        .map(|kb| kb / 1024.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    status_mib("VmHWM:").unwrap_or(0.0)
}

/// Samples this process's resident set size on a background thread
/// until [`RssSampler::finish`].
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<(Instant, f64)>>,
}

impl RssSampler {
    pub fn start(period: Duration) -> RssSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut samples = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                if let Some(mib) = status_mib("VmRSS:") {
                    samples.push((Instant::now(), mib));
                }
                std::thread::sleep(period);
            }
            samples
        });
        RssSampler { stop, thread }
    }

    /// Stops the sampler and returns its `(time, MiB)` samples.
    pub fn finish(self) -> Vec<(Instant, f64)> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("rss sampler thread panicked")
    }
}

/// The median over `windows` of the highest sample inside each window:
/// the memory peak of a typical unit of work. One unusually large unit
/// sets the process's high-water mark but not this. `None` when no
/// window holds a sample.
pub fn median_window_peak(
    samples: &[(Instant, f64)],
    windows: &[(Instant, Instant)],
) -> Option<f64> {
    let peaks: Vec<f64> = windows
        .iter()
        .filter_map(|&(start, end)| {
            samples
                .iter()
                .filter(|(t, _)| (start..=end).contains(t))
                .map(|s| s.1)
                .max_by(f64::total_cmp)
        })
        .collect();
    (!peaks.is_empty()).then(|| median(&peaks))
}

/// Whether `name` is a valid metric or workload name: starts with a
/// letter or digit, at most 64 characters of letters, digits, `_`, `.`
/// and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// SplitMix64 finalizer: derives well-spread sub-seeds from the
/// workload seed so neighbouring seeds give unrelated campaigns.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x632B_E59B_D9B4_E019);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(100, 90), Some(90));
        assert_eq!(tail_percentile(1000, 90), Some(90));
        // 99 samples: p90 has 9.9 beyond, p89 has 10.89
        assert_eq!(tail_percentile(99, 90), Some(89));
        assert_eq!(tail_percentile(40, 90), Some(75));
        assert_eq!(tail_percentile(20, 90), Some(50));
        assert_eq!(tail_percentile(19, 90), None);
        assert_eq!(tail_percentile(0, 90), None);
        for n in 20..500 {
            let p = tail_percentile(n, 90).unwrap();
            assert!(n as f64 * f64::from(100 - p) / 100.0 >= 10.0, "n={n} p={p}");
            if p < 90 {
                assert!(
                    n as f64 * f64::from(100 - p - 1) / 100.0 < 10.0,
                    "n={n} p={p}"
                );
            }
        }
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(total_rate([10, 30], &[vec![1.0, 1.0], vec![2.0]]), 12.5);
        assert_eq!(total_rate([], &[]), 0.0);
    }

    #[test]
    fn hist_quantile_stays_in_bucket() {
        let h = pdf_obs::HistSnapshot {
            name: "x".into(),
            count: 4,
            sum: 0,
            buckets: vec![(3, 2), (5, 2)],
        };
        // bucket 3 covers [4, 8), bucket 5 covers [16, 32)
        let p25 = hist_quantile(&h, 0.25);
        assert!((4.0..8.0).contains(&p25), "{p25}");
        let p75 = hist_quantile(&h, 0.75);
        assert!((16.0..32.0).contains(&p75), "{p75}");
    }

    #[test]
    fn name_and_unit_charsets() {
        for ok in ["setup_s", "core.pick.ns_per_call", "explore-mjs", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        for ok in ["ms", "1/s", "%", "count/campaign", "MiB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "x".repeat(17).as_str()] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn failed_share_counts_items_not_runs() {
        let mut o = Outcome {
            items: 98,
            ..Outcome::default()
        };
        assert_eq!(o.failed_share(), 0.01);
        assert!(o.correct());
        o.fail(3, "boom".into());
        o.fail(3, "boom again".into());
        assert_eq!(o.failed(), 1);
        assert_eq!(o.failed_share(), 0.02);
        assert!(!o.correct());
    }

    #[test]
    fn window_peak_is_the_median_of_per_window_maxima() {
        let t0 = Instant::now();
        let at = |ms| t0 + Duration::from_millis(ms);
        let samples = [(at(1), 10.0), (at(2), 30.0), (at(5), 12.0), (at(8), 14.0)];
        let windows = [
            (at(0), at(3)),
            (at(4), at(6)),
            (at(7), at(9)),
            (at(20), at(30)),
        ];
        // maxima 30, 12 and 14; the last window holds no sample
        assert_eq!(median_window_peak(&samples, &windows), Some(14.0));
        assert_eq!(median_window_peak(&samples, &windows[3..]), None);
    }

    #[test]
    fn mix_spreads_neighbouring_seeds() {
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_eq!(mix(7, 3), mix(7, 3));
    }
}
