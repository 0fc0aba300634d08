//! Measurement primitives: order statistics, per-pass seeds, and the
//! `/proc` readings (process CPU time, peak RSS, host description).
//!
//! Every reading that `/proc` cannot supply is `None`, never zero, so a
//! missing measurement can not pass for a perfect one.

use serde_json::{Map, Value};

/// A tail percentile is reported only when at least this many samples
/// lie beyond it; below that it is noise.
pub const MIN_BEYOND: usize = 10;

/// `/proc/<pid>/stat` counts CPU time in `USER_HZ` ticks, which the
/// kernel ABI fixes at 100 per second on every architecture it exposes.
const USER_HZ: f64 = 100.0;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median: the middle value, or the mean of the two middle values.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Largest sample.
pub fn max(samples: &[f64]) -> Option<f64> {
    samples.iter().copied().max_by(f64::total_cmp)
}

/// Nearest-rank percentile `p` (in (0, 100]): the sample at rank
/// `ceil(p/100 * n)`. `None` unless at least [`MIN_BEYOND`] samples lie
/// beyond that rank.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted(samples)[rank - 1])
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(data, n=4)` computes them (the default
/// "exclusive" method), so spreads printed here match the ones a
/// script over the result files computes.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(samples);
    let ld = v.len();
    match ld {
        0 => None,
        1 => Some([v[0]; 3]),
        _ => {
            let m = ld + 1;
            let mut q = [0.0; 3];
            for (i, slot) in (1..4).zip(q.iter_mut()) {
                let j = (i * m / 4).clamp(1, ld - 1);
                // Negative when the clamp moved j up: Python then
                // extrapolates below the data, and so does this.
                let delta = (i * m) as f64 - (j * 4) as f64;
                *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
            }
            Some(q)
        }
    }
}

/// Interquartile distance as a share of the median (0 for one sample).
pub fn relative_spread(samples: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(samples)?;
    let m = median(samples)?;
    Some(if m.abs() > 0.0 {
        (q3 - q1) / m.abs()
    } else {
        0.0
    })
}

const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output function: a bijection on `u64`.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Config seed of timed pass `pass` under benchmark seed `seed`.
///
/// Injective in `pass` for a fixed `seed` (`pass * GOLDEN_GAMMA` is a
/// bijection mod 2^64 because the multiplier is odd, and `mix` is a
/// bijection), so no two passes of a run share a seed and the keyed
/// prepare cache can never serve one pass from an earlier pass's work.
pub fn pass_seed(seed: u64, pass: u64) -> u64 {
    mix(mix(seed).wrapping_add(pass.wrapping_mul(GOLDEN_GAMMA)))
}

/// CPU time a process has used, in `USER_HZ` ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuTicks {
    pub user: u64,
    pub system: u64,
}

impl CpuTicks {
    /// User + system seconds from `self` to `later`.
    pub fn seconds_until(self, later: CpuTicks) -> f64 {
        let ticks = (later.user + later.system).saturating_sub(self.user + self.system);
        ticks as f64 / USER_HZ
    }
}

/// User and system CPU ticks of the whole process (all threads, live
/// and exited) from the text of `/proc/self/stat`.
pub fn parse_cpu_ticks(stat: &str) -> Option<CpuTicks> {
    // The command name (field 2) may hold spaces and parentheses; the
    // fixed-position fields start after its last ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // fields[0] is field 3 (state); utime and stime are fields 14 and 15.
    Some(CpuTicks {
        user: fields.get(11)?.parse().ok()?,
        system: fields.get(12)?.parse().ok()?,
    })
}

/// A `kB` field of `/proc/self/status` (`"VmHWM"`) in MiB.
pub fn parse_status_mb(status: &str, field: &str) -> Option<f64> {
    let line = status.lines().find(|l| {
        l.strip_prefix(field)
            .is_some_and(|rest| rest.starts_with(':'))
    })?;
    let mut parts = line[field.len() + 1..].split_whitespace();
    let kb: u64 = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(kb as f64 / 1024.0)
}

/// CPU time this process has used so far.
pub fn process_cpu_ticks() -> Option<CpuTicks> {
    parse_cpu_ticks(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// Peak RSS of this process so far (`VmHWM`), in MiB.
pub fn vm_hwm_mb() -> Option<f64> {
    parse_status_mb(&std::fs::read_to_string("/proc/self/status").ok()?, "VmHWM")
}

/// Logical processor count and model name from the text of
/// `/proc/cpuinfo`.
pub fn parse_cpuinfo(text: &str) -> (Option<usize>, Option<String>) {
    let value = |l: &str| l.split_once(':').map(|(_, v)| v.trim().to_string());
    let cores = text.lines().filter(|l| l.starts_with("processor")).count();
    let model = text
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(value);
    ((cores > 0).then_some(cores), model)
}

/// The commit checked out in the working directory, read from `.git`
/// without running git. `None` outside a repository.
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference)?.strip_suffix(' '))
        .map(str::to_string)
}

/// The host block every result carries: a result means nothing without
/// the machine it was measured on.
pub fn host() -> Value {
    let (cores, model) = std::fs::read_to_string("/proc/cpuinfo")
        .map(|t| parse_cpuinfo(&t))
        .unwrap_or((None, None));
    let mut host = Map::new();
    if let Some(cores) = cores {
        host.insert("cores", cores.into());
    }
    if let Ok(n) = std::thread::available_parallelism() {
        host.insert("available_parallelism", n.get().into());
    }
    if let Some(model) = model {
        host.insert("cpu_model", model.into());
    }
    if let Some(rev) = git_rev() {
        host.insert("git_rev", rev.into());
    }
    Value::Object(host)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_max() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(max(&[1.0, 5.0, 2.0]), Some(5.0));
    }

    #[test]
    fn nearest_rank_percentile_needs_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        // rank ceil(0.95 * 200) = 190, ten samples beyond: reported.
        assert_eq!(tail_percentile(&samples, 95.0), Some(190.0));
        // rank ceil(0.99 * 200) = 198, two beyond: not reported.
        assert_eq!(tail_percentile(&samples, 99.0), None);
        // 199 samples: rank 190, nine beyond: not reported.
        assert_eq!(tail_percentile(&samples[..199], 95.0), None);
        assert_eq!(tail_percentile(&samples[..20], 50.0), Some(10.0));
        assert_eq!(tail_percentile(&[], 50.0), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[7.0]), Some([7.0; 3]));
        assert_eq!(relative_spread(&ten), Some((8.25 - 2.75) / 5.5));
    }

    #[test]
    fn pass_seeds_are_injective_over_passes() {
        for seed in [0, 1, 42, u64::MAX] {
            let seeds: std::collections::BTreeSet<u64> =
                (0..100_000).map(|p| pass_seed(seed, p)).collect();
            assert_eq!(seeds.len(), 100_000, "seed {seed}");
        }
        assert_eq!(pass_seed(7, 3), pass_seed(7, 3));
        assert_ne!(pass_seed(0, 0), pass_seed(1, 0));
    }

    #[test]
    fn cpu_seconds_from_stat() {
        // Field 2 holds spaces and a ')' of its own; utime=250, stime=50.
        let stat = "1234 (oeb bench) x) R 1 1234 1234 0 -1 4194304 100 0 0 0 \
                    250 50 0 0 20 0 3 0 100 1000000 500";
        let ticks = parse_cpu_ticks(stat).expect("parses");
        assert_eq!(
            ticks,
            CpuTicks {
                user: 250,
                system: 50
            }
        );
        let start = CpuTicks {
            user: 100,
            system: 20,
        };
        assert_eq!(start.seconds_until(ticks), 1.8);
        assert_eq!(parse_cpu_ticks("1234 (truncated) R 1 2"), None);
        assert_eq!(parse_cpu_ticks(""), None);
    }

    #[test]
    fn rss_fields_from_status() {
        let status = "Name:\toeb-benchmark\nVmPeak:\t  300000 kB\nVmHWM:\t  204800 kB\n\
                      VmRSS:\t  102400 kB\nVmRSSx:\t 1 kB\n";
        assert_eq!(parse_status_mb(status, "VmHWM"), Some(200.0));
        assert_eq!(parse_status_mb(status, "VmRSS"), Some(100.0));
        assert_eq!(parse_status_mb("Name:\tx\nVmRSS:\t 10 kB\n", "VmHWM"), None);
        assert_eq!(parse_status_mb("VmHWM:\tgarbage kB\n", "VmHWM"), None);
        assert_eq!(parse_status_mb("VmHWM:\t10 pages\n", "VmHWM"), None);
    }

    #[test]
    fn cpuinfo_fields() {
        let text = "processor\t: 0\nmodel name\t: Test CPU @ 2GHz\n\nprocessor\t: 1\nmodel name\t: Test CPU @ 2GHz\n";
        assert_eq!(
            parse_cpuinfo(text),
            (Some(2), Some("Test CPU @ 2GHz".to_string()))
        );
        assert_eq!(parse_cpuinfo(""), (None, None));
    }
}
