//! Saturation throughput of the sharded drserve front end.
//!
//! Drives a fleet of pipelined raw loopback connections sending
//! stats-class requests at the server and compares the sustained
//! throughput to the single-client ping-pong baseline (one shard, no
//! batching — functionally the pre-sharding server). The ratio is the
//! payoff of pipelined connections + per-shard batch draining + shared
//! pre-encoded response frames. The same driver backs the CI gate in
//! `tests/saturation_gate.rs`; this bench is the measurement run,
//! writing `saturation.json` to the canonical bench report directory for
//! the trend line.

use bench::serveload::{run_saturation, to_json};

const CONNECTIONS: usize = 32;
const PIPELINE_DEPTH: usize = 8;
const ROUNDS: usize = 50;

fn main() {
    let report = run_saturation(CONNECTIONS, PIPELINE_DEPTH, ROUNDS);
    println!(
        "saturation: baseline {:.0} req/s, fleet {:.0} req/s ({:.1}x), \
         p50 window {} us, p99 window {} us, {} shards, {} shed",
        report.baseline_rps,
        report.fleet_rps,
        report.speedup,
        report.p50.as_micros(),
        report.p99.as_micros(),
        report.stats.shards.len(),
        report.stats.shed,
    );
    match bench::report::write_report("saturation.json", &to_json(&report)) {
        Ok(path) => println!("saturation bench report written to {}", path.display()),
        Err(e) => eprintln!("saturation bench report not written: {e}"),
    }
}
