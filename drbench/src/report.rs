//! Turns a workload's outcome into the metrics, the layer table and the
//! one-line JSON result.

use std::path::Path;
use std::process::ExitCode;

use drserve::{CacheStats, ServeStats};

use crate::calibrate;
use crate::conn::{Tally, DEADLINE};
use crate::stats::{json_num, json_str, machine_fingerprint, median, ms, quantile, Samples};
use crate::trace::{Row, Tracer};
use crate::Config;

/// What one workload run measured.
pub struct Outcome {
    /// Seconds each set-up took.
    pub setup_s: Vec<f64>,
    /// Latencies of the reported window, ms, by end-to-end op.
    pub samples: Samples,
    /// Request outcomes of the reported window.
    pub tally: Tally,
    /// Measured seconds of the reported window.
    pub measured_s: f64,
    /// Peak resident memory while measuring, MiB.
    pub peak_rss_mb: f64,
    /// Answers that differed from the local computation.
    pub mismatches: Vec<String>,
    /// Per-cycle fingerprints of seeded counts, in cycle order.
    pub counts: Vec<u64>,
    /// The server's counters over the reported window.
    pub stats: ServeStats,
    /// Spans of the traced window (empty when untraced).
    pub tracer: Tracer,
    /// `ops_per_s` of the untraced half of a traced run.
    pub untraced_ops_per_s: f64,
    /// The layer table (traced runs).
    pub rows: Vec<Row>,
    /// The row whose residual is `bench.unattributed_ms`.
    pub headline: &'static str,
}

/// End-to-end metrics and units, in `BENCHMARK.json` order. Times are
/// process CPU time (`stats::Cpu`), `setup_s` too, divided by the run's
/// `calibrate::slowdown`: CPU time at the reference speed.
pub const END_TO_END: [(&str, &str); 15] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/ref_cpu_s"),
    ("success_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("cycle_p50_ms", "ref_cpu_ms"),
    ("first_slice_p50_ms", "ref_cpu_ms"),
    ("first_slice_p90_ms", "ref_cpu_ms"),
    ("new_slice_p50_ms", "ref_cpu_ms"),
    ("hit_slice_p50_ms", "ref_cpu_ms"),
    ("seek_p50_ms", "ref_cpu_ms"),
    ("relog_p50_ms", "ref_cpu_ms"),
    ("noop_p50_ms", "ref_cpu_ms"),
    ("interactive_p99_ms", "ref_cpu_ms"),
    ("upload_p50_ms", "ref_cpu_ms"),
    ("mid_slice_p50_ms", "ref_cpu_ms"),
];

/// Span-timed layer metrics (median inclusive span, CPU ms). The slicer's
/// stage split of a collect and its traversal time are the slicer's own
/// wall-clock timings, placed inside the CPU-timed span that ran them.
const LAYER_TIMES: [&str; 25] = [
    "pinplay.record_ms",
    "pinplay.encode_ms",
    "pinplay.decode_ms",
    "pinplay.digest_ms",
    "pinplay.replay_ms",
    "pinplay.stream_plan_ms",
    "pinplay.stream_absorb_ms",
    "pinplay.relog_ms",
    "slicer.collect_ms",
    "slicer.collect.replay_ms",
    "slicer.merge_ms",
    "slicer.summarize_ms",
    "slicer.index_build_ms",
    "slicer.index_append_ms",
    "slicer.traverse_ms",
    "drdebug.open_ms",
    "drdebug.seek_ms",
    "drdebug.slice_ms",
    "drserve.service_ms.noop",
    "drserve.service_ms.hit",
    "drserve.service_ms.seek",
    "drserve.service_ms.new_slice",
    "drserve.frontend_ms.noop",
    "drserve.frontend_ms.hit",
    "drserve.proto_encode_ms",
];

/// Layer times the program measures itself, on the wall clock.
const WALL_CLOCK_STAGES: [&str; 4] = [
    "slicer.collect.replay_ms",
    "slicer.merge_ms",
    "slicer.summarize_ms",
    "slicer.traverse_ms",
];

fn ratio(c: &CacheStats) -> f64 {
    let lookups = c.hits + c.misses;
    if lookups == 0 {
        0.0
    } else {
        c.hits as f64 / lookups as f64
    }
}

/// `ops_per_s` of a window.
pub fn ops_per_s(tally: &Tally, measured_s: f64) -> f64 {
    (tally.attempted - tally.failed) as f64 / measured_s
}

/// Mean client round trip minus the server's own mean handling time,
/// both on the wall clock (waiting is the point), weighted over the ops
/// the client sent.
fn queue_wait_ms(tally: &Tally, stats: &ServeStats) -> f64 {
    let (mut wait, mut n) = (0.0, 0u64);
    for (op, (count, total)) in &tally.rtt {
        if let Some(s) = stats.op(op) {
            wait += total - *count as f64 * s.mean_micros() as f64 / 1e3;
            n += count;
        }
    }
    if n == 0 {
        f64::NAN
    } else {
        wait / n as f64
    }
}

fn end_to_end(o: &Outcome) -> Vec<(&'static str, &'static str, f64)> {
    let s = &o.samples;
    let (slowdown, kernels, parts) = calibrate::slowdown();
    let raw: Vec<(&'static str, &'static str, f64)> = END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let v = match name {
                "setup_s" => median(&o.setup_s),
                "ops_per_s" => ops_per_s(&o.tally, o.measured_s),
                "success_ratio" => {
                    (o.tally.attempted - o.tally.failed) as f64 / o.tally.attempted.max(1) as f64
                }
                "peak_rss_mb" => o.peak_rss_mb,
                "first_slice_p90_ms" => quantile(s.get("first_slice"), 0.9),
                "interactive_p99_ms" => quantile(s.get("interactive"), 0.99),
                other => quantile(s.get(other.trim_end_matches("_p50_ms")), 0.5),
            };
            (name, unit, v)
        })
        .collect();
    let shown: Vec<String> = raw.iter().map(|(n, _, v)| format!("{n}={v}")).collect();
    eprintln!(
        "drbench: slowdown {slowdown} over {kernels} kernel runs (median CPU / reference: {parts}); raw CPU figures: {}",
        shown.join(" ")
    );
    raw.into_iter()
        .map(|(name, unit, v)| match unit {
            "ref_cpu_ms" | "s" => (name, unit, v / slowdown),
            "1/ref_cpu_s" => (name, unit, v * slowdown),
            _ => (name, unit, v),
        })
        .collect()
}

fn per_layer(o: &Outcome) -> Vec<(&'static str, &'static str, f64)> {
    let tr = &o.tracer;
    let st = &o.stats;
    let mut out: Vec<(&'static str, &'static str, f64)> = LAYER_TIMES
        .iter()
        .map(|&l| {
            let unit = if WALL_CLOCK_STAGES.contains(&l) {
                "ms"
            } else {
                "cpu_ms"
            };
            (l, unit, tr.layer_ms(l))
        })
        .collect();
    out.push((
        "drserve.proto_decode_ms",
        "cpu_ms",
        tr.layer_ms("drserve.proto_decode_ms"),
    ));
    let cold = tr.layer_ms("slicer.collect_ms") + tr.layer_ms("slicer.index_build_ms");
    let per_request = |bytes: u64| bytes as f64 / o.tally.attempted.max(1) as f64;
    let headline = o.rows.iter().find(|r| r.metric == o.headline);
    let traced = ops_per_s(&o.tally, o.measured_s);
    out.extend([
        (
            "pinplay.container_bytes",
            "bytes",
            tr.count_mean("pinplay.container_bytes"),
        ),
        (
            "slicer.slice_records",
            "count",
            tr.count_mean("slicer.slice_records"),
        ),
        (
            "slicer.cold_over_replay",
            "ratio",
            cold / tr.layer_ms("pinplay.replay_ms"),
        ),
        (
            "drserve.request_bytes",
            "bytes",
            per_request(o.tally.request_bytes),
        ),
        (
            "drserve.reply_bytes",
            "bytes",
            per_request(o.tally.reply_bytes),
        ),
        ("drserve.queue_wait_ms", "ms", queue_wait_ms(&o.tally, st)),
        (
            "drserve.peak_queue_depth",
            "count",
            st.shards.iter().map(|s| s.peak_depth).max().unwrap_or(0) as f64,
        ),
        ("drserve.slice_cache.hit_ratio", "ratio", ratio(&st.cache)),
        (
            "drserve.index_cache.hit_ratio",
            "ratio",
            ratio(&st.index_cache),
        ),
        (
            "drserve.relog_cache.hit_ratio",
            "ratio",
            ratio(&st.relog_cache),
        ),
        (
            "drserve.slice_cache.evictions",
            "count",
            st.cache.evictions as f64,
        ),
        (
            "drserve.sessions.evicted_lru",
            "count",
            st.sessions.evicted_lru as f64,
        ),
        ("drserve.shed", "count", st.shed as f64),
        ("drserve.busy_retries", "count", o.tally.busy_retries as f64),
        (
            "bench.error_ratio",
            "ratio",
            o.tally.failed as f64 / o.tally.attempted.max(1) as f64,
        ),
        (
            "bench.unattributed_ms",
            "cpu_ms",
            headline.map_or(f64::NAN, Row::unattributed),
        ),
        (
            "bench.trace_overhead",
            "ratio",
            1.0 - traced / o.untraced_ops_per_s,
        ),
    ]);
    out
}

/// A failed cheap request counts as over any latency limit.
pub fn failed_latency_ms() -> f64 {
    ms(DEADLINE)
}

/// Prints the result line (and the table, for traced runs); exits
/// non-zero when any answer was wrong.
pub fn emit(cfg: &Config, o: &Outcome) -> ExitCode {
    let metrics = if cfg.trace {
        per_layer(o)
    } else {
        end_to_end(o)
    };
    for m in &o.mismatches {
        eprintln!("drbench: MISMATCH {m}");
    }
    let counts: Vec<String> = o.counts.iter().map(|c| format!("{c:016x}")).collect();
    eprintln!(
        "drbench: counts {} seed={} cycles=[{}]",
        cfg.workload,
        cfg.seed,
        counts.join(",")
    );
    let fp = machine_fingerprint();
    eprintln!("drbench: machine {fp}");
    if cfg.trace {
        eprintln!(
            "drbench: layer table ({}, traced window, per operation)",
            cfg.workload
        );
        for row in &o.rows {
            eprintln!("  {}", row.render());
        }
    }
    let metric_json: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    let metrics_obj = format!("{{{}}}", metric_json.join(", "));
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let rows: Vec<String> = o.rows.iter().map(Row::json).collect();
    let file = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"machine\": {fp},\n\
         \"metrics\": {metrics_obj},\n\"table\": [{}],\n\"spans\": {}}}\n",
        json_str(&cfg.workload),
        cfg.seed,
        cfg.trace,
        rows.join(",\n  "),
        o.tracer.spans_json()
    );
    let name = format!(
        "{}-seed{}-trace{}.json",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.trace)
    );
    if let Err(e) =
        std::fs::create_dir_all(&out_dir).and_then(|()| std::fs::write(out_dir.join(&name), file))
    {
        eprintln!("drbench: could not write {name}: {e}");
    }
    let correct = o.mismatches.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics_obj}}}",
        o.tally.attempted.max(1),
        o.tally.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
