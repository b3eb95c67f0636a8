//! Order statistics, the summary digest and the process's peak RSS.

/// Median of `samples` (mean of the middle two for an even count); 0 for
/// no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The tail of a latency sample: the highest percentile with at least
/// ten samples beyond it, i.e. the 11th-largest sample. Below 20 samples
/// that percentile would fall under the median, so the maximum stands in.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub value: f64,
    /// Which percentile `value` is (100 when `value` is the maximum).
    pub percentile: f64,
    pub samples: usize,
}

pub fn tail(samples: &[f64]) -> Tail {
    let n = samples.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 100.0,
            samples: 0,
        };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if n < 20 {
        return Tail {
            value: sorted[n - 1],
            percentile: 100.0,
            samples: n,
        };
    }
    Tail {
        value: sorted[n - 11],
        percentile: 100.0 * (n - 10) as f64 / n as f64,
        samples: n,
    }
}

/// SplitMix64: derives well-spread seeds from a workload seed.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a over a sequence of byte strings, each length-prefixed.
pub fn digest(parts: &[&[u8]]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for part in parts {
        feed(&(part.len() as u64).to_le_bytes());
        feed(part);
    }
    hash
}

/// CPU time the hypervisor took from this virtual machine over an
/// interval, from the first line of `/proc/stat`.
///
/// On a shared host the steal share changes from minute to minute (it
/// was measured between 0.2 % and 28 % while the benchmark kept both
/// vCPUs busy), and every wall-clock time scales with it. Timed intervals
/// are therefore reported as `wall × (1 − share)`, where `share` is the
/// stolen part of the CPU time the machine wanted over the interval:
/// `Δsteal / (Δbusy + Δsteal)`. Idle time is neither busy nor stolen, so
/// a half-idle machine does not dilute the share.
pub struct StealClock {
    busy: u64,
    steal: u64,
}

impl StealClock {
    pub fn start() -> Self {
        let (busy, steal) = cpu_jiffies();
        Self { busy, steal }
    }

    /// Stolen share of the wanted CPU time since [`StealClock::start`]
    /// (0 where `/proc/stat` is unavailable).
    pub fn share(&self) -> f64 {
        let (busy, steal) = cpu_jiffies();
        let busy = busy.saturating_sub(self.busy);
        let steal = steal.saturating_sub(self.steal);
        if busy + steal == 0 {
            return 0.0;
        }
        steal as f64 / (busy + steal) as f64
    }
}

/// `(busy, steal)` jiffies of all CPUs: busy is user + nice + system +
/// irq + softirq.
fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|line| line.strip_prefix("cpu "))
        .map(|rest| {
            rest.split_whitespace()
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    let at = |i: usize| fields.get(i).copied().unwrap_or(0);
    (at(0) + at(1) + at(2) + at(5) + at(6), at(7))
}

/// Peak resident set size of this process (VmHWM) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
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
    fn tail_leaves_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&samples);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(tail(&samples[..5]).value, 5.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
