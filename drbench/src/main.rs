//! drbench: the end-to-end benchmark of the DrDebug reproduction.
//!
//! Drives a real in-process `drserve::Server` (default `ServeConfig`)
//! over TCP on 127.0.0.1 with one of three seeded workloads, checks every
//! answer against a local computation, and prints one JSON result line.
//!
//! ```text
//! cargo run --release --manifest-path drbench/Cargo.toml -- \
//!     --workload cold_triage --seed 1 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! workload half the time untraced and then traced and prints the
//! per-layer metrics, writing spans and the layer table to
//! `drbench/out/`.
//! `--quick` shrinks set-up and recordings for the benchmark's own tests.

mod calibrate;
mod cold;
mod common;
mod conn;
mod inputs;
mod live;
mod oracle;
mod report;
mod rng;
mod stats;
mod trace;
mod warm;

use std::process::ExitCode;

/// One run's settings, from the command line.
pub struct Config {
    /// `cold_triage`, `warm_debug` or `live_stream`.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Short set-up and small recordings, for the benchmark's own tests.
    pub quick: bool,
}

impl Config {
    /// Set-ups per run; `setup_s` reports their median.
    pub fn setup_reps(&self) -> usize {
        if self.quick {
            1
        } else {
            3
        }
    }

    /// Recording sizes of the fresh-recording workloads.
    pub fn size_range(&self) -> (u64, u64) {
        if self.quick {
            (8_000, 20_000)
        } else {
            inputs::SIZE_RANGE
        }
    }
}

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            cfg.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|_| "bad --seed".to_string())?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|_| "bad --seconds".to_string())?;
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !["cold_triage", "warm_debug", "live_stream"].contains(&cfg.workload.as_str()) {
        return Err("--workload must be cold_triage, warm_debug or live_stream".to_string());
    }
    if cfg.seconds.is_nan() || cfg.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(cfg)
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pins this thread, and so every thread it starts later (the whole
/// in-process server), to the first CPU it may run on.
///
/// Every figure is CPU time, and on several CPUs a thread that waits by
/// spinning (the server's dispatcher yields in a loop before it sleeps)
/// turns another CPU's delays, steal included, into CPU time of its own.
/// On one CPU a yield hands the CPU to the thread with work. The server
/// sizes its shards and worker pools from the CPUs it may use, so it runs
/// as on a one-CPU machine; CPU time would count parallel work at its sum
/// anyway. Where the kernel refuses, the process keeps every CPU.
fn pin_to_one_cpu() {
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    let first = (0..mask.len() * 64).find(|&c| mask[c / 64] >> (c % 64) & 1 == 1);
    let (0, Some(cpu)) = (rc, first) else { return };
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    if rc != 0 {
        eprintln!("drbench: could not pin to CPU {cpu}; measuring on every CPU");
    }
}

fn main() -> ExitCode {
    pin_to_one_cpu();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("drbench: {e}");
            eprintln!(
                "usage: drbench --workload <cold_triage|warm_debug|live_stream> \
                 --seed <n> --seconds <s> --trace <0|1> [--quick]"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match cfg.workload.as_str() {
        "cold_triage" => cold::run(&cfg),
        "warm_debug" => warm::run(&cfg),
        _ => live::run(&cfg),
    };
    let code = report::emit(&cfg, &outcome);
    calibrate::finish();
    code
}
