//! Quick mode of every workload: each prints every metric of
//! `BENCHMARK.json` with its unit, answers correctly, and repeats its
//! seeded counts exactly when run again with the same seed.
//!
//! Run with `cargo test --release --manifest-path drbench/Cargo.toml`.

use std::path::Path;
use std::process::Command;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside drbench/");
    let mut current = "";
    let mut out = Vec::new();
    for line in text.lines() {
        for key in ["\"end_to_end\"", "\"per_layer\"", "\"workloads\""] {
            if line.trim_start().starts_with(key) {
                current = key;
            }
        }
        if current.trim_matches('"') == section {
            if let (Some(name), Some(unit)) = (field(line, "name"), field(line, "unit")) {
                out.push((name, unit));
            }
        }
    }
    assert!(!out.is_empty(), "no {section} metrics declared");
    out
}

/// The string value of `"key": "..."` on one line.
fn field(line: &str, key: &str) -> Option<String> {
    let start = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
    let len = line[start..].find('"')?;
    Some(line[start..start + len].to_string())
}

/// Runs one quick workload; returns the result line and the stderr.
fn run(workload: &str, seed: u64, trace: u8) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_drbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", &trace.to_string(), "--quick"])
        .output()
        .expect("drbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stderr}"
    );
    let last = stdout.lines().last().expect("a result line").to_string();
    (last, stderr)
}

fn check_metrics(workload: &str, trace: u8, section: &str) {
    let (line, stderr) = run(workload, 7, trace);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}\n{stderr}"
    );
    for (name, unit) in declared(section) {
        let at = line
            .find(&format!("\"{name}\": {{\"value\": "))
            .unwrap_or_else(|| panic!("{workload}: {name} missing from {line}"));
        let rest = &line[at..];
        let entry = &rest[..rest.find('}').expect("closed entry")];
        assert!(
            !entry.contains("null"),
            "{workload}: {name} has no value: {entry}"
        );
        assert!(
            entry.ends_with(&format!("\"unit\": \"{unit}\"")),
            "{workload}: {name} should be in {unit}: {entry}"
        );
    }
}

/// The per-cycle count fingerprints a run printed.
fn counts(stderr: &str) -> Vec<String> {
    let line = stderr
        .lines()
        .find(|l| l.starts_with("drbench: counts "))
        .expect("a counts line");
    let list = &line[line.find('[').expect("[") + 1..line.find(']').expect("]")];
    list.split(',').map(str::to_string).collect()
}

fn check_repeats(workload: &str) {
    let (_, a) = run(workload, 11, 0);
    let (_, b) = run(workload, 11, 0);
    let (a, b) = (counts(&a), counts(&b));
    let n = a.len().min(b.len());
    assert!(n > 0, "{workload}: no cycles completed");
    assert_eq!(
        a[..n],
        b[..n],
        "{workload}: seeded counts differ between runs"
    );
}

#[test]
fn cold_triage_prints_every_metric() {
    check_metrics("cold_triage", 0, "end_to_end");
    check_metrics("cold_triage", 1, "per_layer");
    check_repeats("cold_triage");
}

#[test]
fn warm_debug_prints_every_metric() {
    check_metrics("warm_debug", 0, "end_to_end");
    check_metrics("warm_debug", 1, "per_layer");
}

#[test]
fn live_stream_prints_every_metric() {
    check_metrics("live_stream", 0, "end_to_end");
    check_metrics("live_stream", 1, "per_layer");
    check_repeats("live_stream");
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_drbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("drbench runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
