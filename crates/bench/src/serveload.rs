//! Saturation load driver for the sharded drserve front end.
//!
//! The question this answers: how many *stats-class* requests per second
//! does the server sustain when a fleet of connections keeps it saturated,
//! versus the single-client ping-pong number the `serve` bench reports?
//! The sharded server's whole design — pipelined connections, per-shard
//! queues, batch draining, shared pre-encoded `Stats` frames — exists for
//! this ratio, so both the `saturation` bench and the CI gate
//! (`tests/saturation_gate.rs`) run the same driver from this module.
//!
//! The fleet is raw on purpose: each connection is a bare
//! [`drserve::LoopbackStream`] speaking pre-encoded frames, with
//! `pipeline_depth` requests in flight per connection. A typed
//! [`drserve::Client`] would serialize one request per round trip and
//! measure the client, not the server.

use std::io::{Read, Write};
use std::time::{Duration, Instant};

use drserve::proto::{self, Request, Response, REQUEST_KIND, RESPONSE_KIND};
use drserve::{ServeConfig, ServeStats, Server};

/// What one saturation run measured.
#[derive(Debug, Clone)]
pub struct SaturationReport {
    /// Single-client, unbatched, single-shard round trips per second —
    /// the ping-pong number the `serve` bench also reports.
    pub baseline_rps: f64,
    /// Fleet throughput against the sharded, batching server.
    pub fleet_rps: f64,
    /// `fleet_rps / baseline_rps`.
    pub speedup: f64,
    /// Median window latency: one connection's `pipeline_depth` requests,
    /// write-to-last-reply.
    pub p50: Duration,
    /// 99th-percentile window latency.
    pub p99: Duration,
    /// Requests the fleet completed inside the measured rounds.
    pub total_requests: u64,
    /// Fleet connections driven.
    pub connections: usize,
    /// Requests in flight per connection.
    pub pipeline_depth: usize,
    /// Final stats snapshot of the saturated server (shard breakdown,
    /// batch counts, shed counts).
    pub stats: ServeStats,
}

/// Serving config for the baseline measurement: one shard, no batching —
/// the pre-sharding server, functionally.
pub fn baseline_config() -> ServeConfig {
    ServeConfig {
        shards: 1,
        batch_max: 1,
        ..ServeConfig::default()
    }
}

/// Serving config for the saturated fleet: machine-sized shards, full
/// batching, and a queue deep enough that the fleet's entire in-flight
/// volume is admitted (the gate asserts zero shed — the speedup must come
/// from batching, not from refusing work).
pub fn fleet_config(connections: usize, pipeline_depth: usize) -> ServeConfig {
    ServeConfig {
        queue_capacity: (4 * connections * pipeline_depth).max(1024),
        batch_max: 32,
        ..ServeConfig::default()
    }
}

/// Median single-client `Stats` round trip against `server`, as requests
/// per second.
pub fn baseline_stats_rps(server: &Server, samples: usize) -> f64 {
    let mut client = server.loopback_client();
    // Warm the connection and the metrics path before sampling.
    for _ in 0..16 {
        client.stats().expect("baseline stats");
    }
    let mut times: Vec<Duration> = (0..samples.max(1))
        .map(|_| {
            let started = Instant::now();
            client.stats().expect("baseline stats");
            started.elapsed()
        })
        .collect();
    times.sort_unstable();
    let median = times[times.len() / 2];
    1.0 / median.as_secs_f64().max(1e-12)
}

/// Drives `connections` pipelined loopback connections against `server`
/// for `rounds` measured rounds (plus one warm-up round) and returns the
/// throughput and latency distribution.
///
/// Each round writes one burst of `pipeline_depth` pre-encoded `Stats`
/// frames per connection — a single `write_all`, so the connection's read
/// loop sees the whole burst at once and the shard drains it as a batch —
/// then reads every reply back, sampling write-to-drained latency per
/// connection window.
pub fn run_fleet(
    server: &Server,
    connections: usize,
    pipeline_depth: usize,
    rounds: usize,
) -> (f64, Duration, Duration, u64) {
    let mut conns: Vec<drserve::LoopbackStream> = (0..connections)
        .map(|_| server.loopback_connect())
        .collect();

    // One request frame, encoded once; one burst = depth frames.
    let mut frame: Vec<u8> = Vec::new();
    proto::write_message(&mut frame, REQUEST_KIND, &Request::Stats).expect("encode stats");
    let burst: Vec<u8> = frame.repeat(pipeline_depth);

    // Warm-up round: populate caches, start the connections — and fully
    // decode every reply once, proving the server answers the burst with
    // real `Stats` responses before the measured rounds stop looking.
    let wrote: Vec<Instant> = conns
        .iter_mut()
        .map(|c| {
            c.write_all(&burst).expect("fleet write");
            Instant::now()
        })
        .collect();
    for conn in conns.iter_mut() {
        for _ in 0..pipeline_depth {
            let response: Response =
                proto::read_message(conn, RESPONSE_KIND).expect("fleet response");
            assert!(
                matches!(response, Response::Stats(_)),
                "saturated server must answer every admitted request"
            );
        }
    }
    drop(wrote);

    // Measured rounds count reply *frames* structurally (kind byte and
    // length validated by `frame_extent`) without decoding the payloads:
    // the driver shares the machine with the server, and decoding every
    // `ServeStats` would bill client-side work to server throughput. The
    // gate separately asserts the server's error counter stayed zero.
    let mut scratch = vec![0u8; 64 * 1024];
    let mut leftovers: Vec<Vec<u8>> = (0..connections).map(|_| Vec::new()).collect();
    let mut samples: Vec<Duration> = Vec::with_capacity(rounds * connections);
    let started = Instant::now();
    for _ in 0..rounds {
        let wrote: Vec<Instant> = conns
            .iter_mut()
            .map(|c| {
                c.write_all(&burst).expect("fleet write");
                Instant::now()
            })
            .collect();
        for ((conn, buf), wrote_at) in conns.iter_mut().zip(&mut leftovers).zip(&wrote) {
            let mut got = 0usize;
            let mut at = 0usize;
            while got < pipeline_depth {
                match proto::frame_extent(&buf[at..], RESPONSE_KIND).expect("fleet frame") {
                    Some(total) => {
                        at += total;
                        got += 1;
                    }
                    None => {
                        buf.drain(..at);
                        at = 0;
                        let n = conn.read(&mut scratch).expect("fleet read");
                        assert!(n > 0, "server hung up mid-burst");
                        buf.extend_from_slice(&scratch[..n]);
                    }
                }
            }
            buf.drain(..at);
            samples.push(wrote_at.elapsed());
        }
    }
    let elapsed = started.elapsed();

    let total = (rounds * connections * pipeline_depth) as u64;
    let rps = total as f64 / elapsed.as_secs_f64().max(1e-12);
    samples.sort_unstable();
    let p50 = samples[samples.len() / 2];
    let p99 = samples[(samples.len() * 99) / 100..][0];
    (rps, p50, p99, total)
}

/// The full saturation experiment: baseline server, fleet server, ratio.
pub fn run_saturation(
    connections: usize,
    pipeline_depth: usize,
    rounds: usize,
) -> SaturationReport {
    let baseline_rps = {
        let server = Server::new(baseline_config());
        baseline_stats_rps(&server, 200)
    };
    let server = Server::new(fleet_config(connections, pipeline_depth));
    let (fleet_rps, p50, p99, total_requests) =
        run_fleet(&server, connections, pipeline_depth, rounds);
    let stats = server.stats();
    SaturationReport {
        baseline_rps,
        fleet_rps,
        speedup: fleet_rps / baseline_rps.max(1e-12),
        p50,
        p99,
        total_requests,
        connections,
        pipeline_depth,
        stats,
    }
}

/// Renders a report as the `saturation.json` payload.
pub fn to_json(r: &SaturationReport) -> String {
    format!(
        "{{\n  \"bench\": \"saturation\",\n  \"connections\": {},\n  \
         \"pipeline_depth\": {},\n  \"total_requests\": {},\n  \
         \"baseline_stats_rps\": {:.0},\n  \"fleet_stats_rps\": {:.0},\n  \
         \"saturation_speedup\": {:.2},\n  \"p50_window_us\": {},\n  \
         \"p99_window_us\": {},\n  \"shards\": {},\n  \"batches\": {},\n  \
         \"shed\": {}\n}}\n",
        r.connections,
        r.pipeline_depth,
        r.total_requests,
        r.baseline_rps,
        r.fleet_rps,
        r.speedup,
        r.p50.as_micros(),
        r.p99.as_micros(),
        r.stats.shards.len(),
        r.stats.shards.iter().map(|s| s.batches).sum::<u64>(),
        r.stats.shed,
    )
}
