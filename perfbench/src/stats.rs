//! Small numeric and host helpers: medians, latency percentiles, peak RSS and
//! the host fingerprint recorded with every result.

/// Median of `values` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Latencies below this many µs are counted in a fixed table.
const TABLE_US: usize = 1 << 16;

/// A latency sample set summarised the way the benchmark reports timings:
/// median, p99, and the highest percentile that still has at least ten
/// samples beyond it. Samples are counted per microsecond in a fixed
/// table, so the memory held does not grow with the run's length (the
/// serve workload reports its peak resident set); the rare samples above
/// the table are kept as they are.
#[derive(Debug, Clone)]
pub struct Latency {
    table: Vec<u64>,
    above: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Default for Latency {
    fn default() -> Self {
        Latency {
            table: vec![0; TABLE_US],
            above: Vec::new(),
            count: 0,
            sum: 0,
        }
    }
}

impl Latency {
    /// Records one sample, in µs.
    pub fn record(&mut self, us: u64) {
        match self.table.get_mut(us as usize) {
            Some(n) => *n += 1,
            None => self.above.push(us),
        }
        self.count += 1;
        self.sum += us;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the samples; 0 when empty.
    pub fn mean(&self) -> f64 {
        self.sum as f64 / self.count.max(1) as f64
    }

    /// Nearest-rank quantile; 0 when empty.
    fn quantile(&self, q: f64, above: &[u64]) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (us, n) in self.table.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return us as u64;
            }
        }
        above[(rank - seen - 1) as usize]
    }

    /// The summary: median, p99 and the tail percentile.
    pub fn summary(&self) -> LatencySummary {
        let mut above = self.above.clone();
        above.sort_unstable();
        let n = self.count as f64;
        // Highest percentile with >= 10 samples beyond it.
        let (label, q) = [
            ("p99.99", 0.9999),
            ("p99.9", 0.999),
            ("p99", 0.99),
            ("p90", 0.9),
        ]
        .into_iter()
        .find(|(_, q)| (1.0 - q) * n >= 10.0)
        .unwrap_or(("p50", 0.5));
        LatencySummary {
            count: self.count,
            p50: self.quantile(0.5, &above),
            p99: self.quantile(0.99, &above),
            tail_label: label,
            tail: self.quantile(q, &above),
        }
    }
}

/// See [`Latency::summary`].
#[derive(Debug, Clone, Copy)]
pub struct LatencySummary {
    /// Samples summarised.
    pub count: u64,
    /// Median.
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Name of the highest percentile with at least ten samples beyond it.
    pub tail_label: &'static str,
    /// Its value.
    pub tail: u64,
}

/// This process's peak resident set (`VmHWM`), in MiB; 0 where `/proc` is
/// unavailable.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
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

/// `cores/CPU model` of the host, recorded next to every result.
pub fn host_fingerprint() -> String {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{}/{}/{cores}c/{model}",
        std::env::consts::ARCH,
        std::env::consts::OS
    )
}

/// The commit being measured: `git rev-parse HEAD` when the working
/// directory is a repository root, else `unknown`.
pub fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nearest-rank quantile of an ascending slice: the reference for
    /// [`Latency`].
    fn quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = (q * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&sorted, 0.5), 50);
        assert_eq!(quantile(&sorted, 0.99), 99);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let mut lat = Latency::default();
        for v in 0..2_000 {
            lat.record(v);
        }
        let s = lat.summary();
        assert_eq!(s.tail_label, "p99");
        assert_eq!(s.count, 2_000);
        assert_eq!((s.p50, s.p99, s.tail), (999, 1_979, 1_979));
    }

    #[test]
    fn samples_above_the_table_keep_their_rank() {
        let mut lat = Latency::default();
        let mut all: Vec<u64> = (0..1_000).map(|k| k * 97).collect();
        for &v in &all {
            lat.record(v);
        }
        all.sort_unstable();
        let s = lat.summary();
        assert_eq!(s.p50, quantile(&all, 0.5));
        assert_eq!(s.p99, quantile(&all, 0.99));
        assert!(s.p99 >= TABLE_US as u64);
        assert_eq!(lat.mean(), all.iter().sum::<u64>() as f64 / 1_000.0);
    }
}
