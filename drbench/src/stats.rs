//! Sample bookkeeping, percentiles, the benchmark's CPU-time clock, the
//! stopwatch that excludes correctness checks from measured time, and the
//! machine fingerprint.

use std::collections::BTreeMap;
use std::time::Duration;

/// Latency samples in CPU milliseconds, keyed by end-to-end operation, with
/// the client round trips each operation took.
#[derive(Default, Clone)]
pub struct Samples {
    ms: BTreeMap<&'static str, Vec<f64>>,
    trips: BTreeMap<&'static str, u64>,
}

impl Samples {
    /// Records one sample of `op`, a single round trip.
    pub fn add(&mut self, op: &'static str, ms: f64) {
        self.add_trips(op, ms, 1);
    }

    /// Records one sample of `op` that took `trips` round trips.
    pub fn add_trips(&mut self, op: &'static str, ms: f64, trips: u64) {
        self.ms.entry(op).or_default().push(ms);
        *self.trips.entry(op).or_default() += trips;
    }

    /// Every sample of `op` (empty when the op never ran).
    pub fn get(&self, op: &str) -> &[f64] {
        self.ms.get(op).map_or(&[], Vec::as_slice)
    }

    /// Samples of `op`.
    pub fn count(&self, op: &str) -> f64 {
        self.get(op).len() as f64
    }

    /// Mean round trips per sample of `op` (0 when it never ran).
    pub fn trips_per(&self, op: &str) -> f64 {
        let n = self.count(op);
        if n == 0.0 {
            0.0
        } else {
            self.trips.get(op).copied().unwrap_or(0) as f64 / n
        }
    }
}

/// The `p`-th percentile (0..=100) by linear interpolation; NaN when
/// there are no samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The `p`-quantile (0 < `p` < 1) by the Harrell-Davis estimator: a
/// weighted mean of every order statistic, with Beta(p(n+1), (1-p)(n+1))
/// weights. It estimates the same quantile as [`percentile`], but on a
/// handful of samples from distinct recordings one sample crossing a gap
/// moves it far less than it moves a single order statistic. NaN when
/// empty.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let (a, b) = (p * (n + 1.0), (1.0 - p) * (n + 1.0));
    let mut below = 0.0;
    let mut sum = 0.0;
    for (i, x) in v.iter().enumerate() {
        let upto = beta_cdf((i + 1) as f64 / n, a, b);
        sum += x * (upto - below);
        below = upto;
    }
    sum
}

/// The regularized incomplete beta function I_x(a, b), by its continued
/// fraction.
fn beta_cdf(x: f64, a: f64, b: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_fraction(x, a, b) / a
    } else {
        1.0 - front * beta_fraction(1.0 - x, b, a) / b
    }
}

/// Lentz's evaluation of the incomplete beta continued fraction.
fn beta_fraction(x: f64, a: f64, b: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let nonzero = |v: f64| if v.abs() < TINY { TINY } else { v };
    let mut c = 1.0;
    let mut d = 1.0 / nonzero(1.0 - (a + b) * x / (a + 1.0));
    let mut h = d;
    for m in 1..100_000 {
        let m = f64::from(m);
        let even = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m));
        d = 1.0 / nonzero(1.0 + even * d);
        c = nonzero(1.0 + even / c);
        h *= d * c;
        let odd = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0));
        d = 1.0 / nonzero(1.0 + odd * d);
        c = nonzero(1.0 + odd / c);
        let step = d * c;
        h *= step;
        if (step - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// ln Γ(x) for x > 0 (Lanczos, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let t = x + 7.5;
    let sum: f64 = C[0]
        + C.iter()
            .enumerate()
            .skip(1)
            .map(|(i, c)| c / (x + i as f64))
            .sum::<f64>();
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + sum.ln()
}

/// The median; NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `clock_gettime`'s clock ids for the CPU time of the calling process
/// and of the calling thread.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// A reading of the benchmark's clock: the CPU time every thread of this
/// process (client and in-process server alike) has run so far.
///
/// Every figure is taken on this clock, not on the wall clock. On a
/// shared virtual machine the wall clock also counts the time the host
/// gives this machine's CPUs to other guests (steal): on a 2-vCPU cloud
/// VM, wall-clock figures of one build moved together by up to 2x
/// between runs minutes apart. The kernel leaves steal out of a thread's
/// CPU time. Time the process spends waiting (on a socket, a queue, a
/// sleep) is not counted either, so a request's figure is the work the
/// client and server did for it.
#[derive(Clone, Copy)]
pub struct Cpu(Duration);

/// The CPU-time clock `clock` now.
fn cpu_clock(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec; the call only writes it.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "CPU-time clocks are readable");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

impl Cpu {
    /// The process's CPU time now.
    pub fn now() -> Cpu {
        Cpu(cpu_clock(CLOCK_PROCESS_CPUTIME_ID))
    }

    /// The calling thread's own CPU time now.
    pub fn thread_now() -> Cpu {
        Cpu(cpu_clock(CLOCK_THREAD_CPUTIME_ID))
    }

    /// Process CPU time since this reading.
    pub fn elapsed(self) -> Duration {
        Cpu::now().since(self)
    }

    /// CPU time from `earlier` to this reading, both of one clock.
    pub fn since(self, earlier: Cpu) -> Duration {
        self.0.saturating_sub(earlier.0)
    }
}

/// Measured time: runs only while resumed, so correctness checks and
/// layer probes between requests never count as measured work. It also
/// keeps the peak resident set of the measured stretches only, so the
/// local sessions the answers are checked against never count.
pub struct Stopwatch {
    acc: Duration,
    since: Option<Cpu>,
    peak_mb: f64,
}

impl Stopwatch {
    /// A paused stopwatch at zero.
    pub fn new() -> Stopwatch {
        Stopwatch {
            acc: Duration::ZERO,
            since: None,
            peak_mb: 0.0,
        }
    }

    /// Starts (or keeps) counting.
    pub fn resume(&mut self) {
        if self.since.is_none() {
            reset_peak_rss();
            self.since = Some(Cpu::now());
        }
    }

    /// Stops counting, then runs the calibration kernel.
    pub fn pause(&mut self) {
        if let Some(t) = self.since.take() {
            self.acc += t.elapsed();
            self.peak_mb = self.peak_mb.max(peak_rss_mb());
            crate::calibrate::run();
        }
    }

    /// Measured CPU time so far.
    pub fn elapsed(&self) -> Duration {
        self.acc + self.since.map_or(Duration::ZERO, |t| t.elapsed())
    }

    /// Peak resident set over the measured stretches so far, MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.peak_mb
    }
}

/// Peak resident set of this process (server included) since the last
/// [`reset_peak_rss`], in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Lowers this process's peak resident set to its current one (Linux
/// `clear_refs` 5), so the next [`peak_rss_mb`] covers only what ran
/// since. Where the kernel refuses, the peak stays the process lifetime's.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The machine the figures were measured on: CPU count, CPUs the run
/// used, CPU model and compiler, as a JSON object.
pub fn machine_fingerprint() -> String {
    let used = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let nproc = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"nproc\": {nproc}, \"cpus_used\": {used}, \"cpu\": {}, \"rustc\": {}}}",
        json_str(&model),
        json_str(&rustc)
    )
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::quantile;

    #[test]
    fn harrell_davis_matches_known_values() {
        // One sample is its own quantile; symmetric samples have their
        // centre as the median.
        assert_eq!(quantile(&[4.0], 0.5), 4.0);
        assert!((quantile(&[1.0, 2.0, 3.0], 0.5) - 2.0).abs() < 1e-12);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert!((quantile(&v, 0.5) - 500.5).abs() < 1e-6);
        // Weights sum to one, so a constant sample stays constant.
        assert!((quantile(&[7.0; 15_000], 0.99) - 7.0).abs() < 1e-9);
        let p99 = quantile(&v, 0.99);
        assert!((985.0..996.0).contains(&p99), "{p99}");
    }
}
