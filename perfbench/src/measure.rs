//! Latency quantiles and process-wide resource readings.
//!
//! CPU and peak memory are read from `/proc/self`, so they cover every
//! thread of the process — the in-process server's reactors, dispatch
//! pool and WAL sequencer as well as the client threads, including
//! threads that already exited (a sum over `/proc/self/task` would drop
//! those).

use std::fs;
use std::path::Path;
use std::time::{Duration, Instant};

/// Kernel clock ticks per second behind `/proc/<pid>/stat` CPU fields
/// (`USER_HZ`, fixed at 100 on every mainstream Linux ABI).
const USER_HZ: u64 = 100;

/// Samples each latency block needs, so that its p99 has ten beyond it.
pub const BLOCK_SAMPLES: usize = 1000;

/// Per-operation latencies of one measured phase: `(completion, latency)`
/// in nanoseconds, completion counted from the phase origin.
#[derive(Debug, Clone)]
pub struct Latencies {
    origin: Instant,
    samples: Vec<(u64, u64)>,
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Latencies {
    /// An empty set for a phase starting at `origin`, with room for
    /// `capacity` samples reserved up front (growth would show in the
    /// peak-RSS metric).
    #[must_use]
    pub fn new(origin: Instant, capacity: usize) -> Latencies {
        Latencies {
            origin,
            samples: Vec::with_capacity(capacity),
        }
    }

    /// Records one operation that ran from `start` to `end`.
    pub fn push(&mut self, start: Instant, end: Instant) {
        self.samples.push((
            nanos(end.saturating_duration_since(self.origin)),
            nanos(end - start),
        ));
    }

    /// Appends every sample of `other` (same origin).
    pub fn append(&mut self, other: &Latencies) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` without samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Nearest-rank median, 99th percentile and mean over every sample.
    #[must_use]
    pub fn summary(&self) -> LatencySummary {
        summarize(self.samples.iter().map(|&(_, d)| d).collect())
    }

    /// The samples cut by completion time into `blocks` consecutive
    /// equal-count blocks, summarized each: the median of the blocks'
    /// quantiles is robust to a host stall that spoils one block.
    #[must_use]
    pub fn blocks(&self, blocks: usize) -> Vec<LatencySummary> {
        let mut by_time = self.samples.clone();
        by_time.sort_unstable();
        let n = by_time.len();
        let blocks = blocks.clamp(1, n.max(1));
        (0..blocks)
            .map(|b| {
                summarize(
                    by_time[b * n / blocks..(b + 1) * n / blocks]
                        .iter()
                        .map(|&(_, d)| d)
                        .collect(),
                )
            })
            .collect()
    }

    /// Operations per second in each of `blocks` equal slices of a phase
    /// that lasted `elapsed`.
    #[must_use]
    pub fn rates(&self, elapsed: Duration, blocks: usize) -> Vec<f64> {
        let blocks = blocks.max(1);
        let span = nanos(elapsed).max(1);
        let mut counts = vec![0u64; blocks];
        for &(end, _) in &self.samples {
            let b = usize::try_from(u128::from(end) * blocks as u128 / u128::from(span))
                .unwrap_or(blocks);
            counts[b.min(blocks - 1)] += 1;
        }
        let width = elapsed.as_secs_f64() / blocks as f64;
        counts.into_iter().map(|c| c as f64 / width).collect()
    }
}

fn summarize(mut sorted: Vec<u64>) -> LatencySummary {
    sorted.sort_unstable();
    let n = sorted.len();
    if n == 0 {
        return LatencySummary::default();
    }
    let at = |rank: usize| sorted[rank - 1] as f64 / 1e3;
    let rank99 = nearest_rank(n, 0.99);
    LatencySummary {
        samples: n,
        p50_us: at(nearest_rank(n, 0.50)),
        p99_us: at(rank99),
        p99_beyond: n - rank99,
        mean_us: sorted.iter().map(|&v| v as f64).sum::<f64>() / n as f64 / 1e3,
    }
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Quantiles of one latency sample, microseconds.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Sample count.
    pub samples: usize,
    /// Median.
    pub p50_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// Samples strictly beyond the 99th-percentile rank.
    pub p99_beyond: usize,
    /// Arithmetic mean.
    pub mean_us: f64,
}

impl LatencySummary {
    /// The p99 counts only with at least ten samples beyond it.
    #[must_use]
    pub fn p99_reliable(&self) -> bool {
        self.p99_beyond >= 10
    }
}

/// User plus system CPU of the whole process so far (every thread, live
/// or exited), from `/proc/self/stat`.
///
/// # Panics
///
/// Panics when `/proc/self/stat` is unreadable or malformed: the benchmark
/// has no CPU metric without it.
#[must_use]
pub fn process_cpu() -> Duration {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name may hold spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the comm field, index 0 is field 3 (state): utime is field 14,
    // stime field 15.
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    Duration::from_micros(ticks * 1_000_000 / USER_HZ)
}

/// Peak resident set of the process (`VmHWM`), in MiB.
///
/// # Panics
///
/// Panics when `/proc/self/status` has no `VmHWM` line.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb as f64 / 1024.0
}

/// Whole-machine `(total, steal)` CPU ticks from `/proc/stat`: the share
/// of CPU time the hypervisor took away, recorded beside every result
/// because it sets this host's noise floor. `(0, 0)` when unreadable.
#[must_use]
pub fn cpu_ticks() -> (u64, u64) {
    let Ok(stat) = fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.iter().sum(), ticks.get(7).copied().unwrap_or(0))
}

/// Host parallelism the run had.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The type of the filesystem holding `path` (longest matching mount
/// point in `/proc/self/mounts`), or `"unknown"`.
#[must_use]
pub fn filesystem_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_owned();
    };
    let Ok(mounts) = fs::read_to_string("/proc/self/mounts") else {
        return "unknown".to_owned();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), kind.to_owned()))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_owned(), |(_, kind)| kind)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let origin = Instant::now();
        let mut l = Latencies::new(origin, 2000);
        for us in 1..=1000u64 {
            let end = origin + Duration::from_millis(us);
            l.push(end - Duration::from_micros(us), end);
        }
        let blocks = l.blocks(2);
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].p50_us, 250.0);
        assert_eq!(blocks[1].p99_us, 995.0);
        let rates = l.rates(Duration::from_secs(1), 4);
        assert_eq!(rates, vec![996.0, 1000.0, 1000.0, 1004.0]);
        let s = l.summary();
        assert_eq!(s.samples, 1000);
        assert_eq!(s.p50_us, 500.0);
        assert_eq!(s.p99_us, 990.0);
        assert_eq!(s.p99_beyond, 10);
        assert!(s.p99_reliable());
        assert!((s.mean_us - 500.5).abs() < 1e-9);
    }

    #[test]
    fn process_readings_are_positive() {
        let spin: u64 = (0..3_000_000u64).map(std::hint::black_box).sum();
        assert!(spin > 0);
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
        let _ = process_cpu();
    }
}
