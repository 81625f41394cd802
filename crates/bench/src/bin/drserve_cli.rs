//! drserve command line: serve pinballs over TCP, or drive a server as a
//! client.
//!
//! ```text
//! # terminal 1: start a server
//! cargo run --release -p bench --bin drserve_cli -- serve --addr 127.0.0.1:7070
//!
//! # terminal 2: record a workload, upload it, seek, slice (twice)
//! cargo run --release -p bench --bin drserve_cli -- client --addr 127.0.0.1:7070
//!
//! # ask a running server for its stats block (caches, sessions) only
//! cargo run --release -p bench --bin drserve_cli -- client stats --addr 127.0.0.1:7070
//!
//! # or everything in one process over the in-memory loopback transport
//! cargo run --release -p bench --bin drserve_cli -- demo --clients 4
//!
//! # stream a recording up in chunks (resumable; pair with
//! # `drdebug_cli needle --tail <stream>` in another terminal)
//! cargo run --release -p bench --bin drserve_cli -- stream --addr 127.0.0.1:7070 \
//!     --stream 42 --chunks 8 --delay-ms 300
//!
//! # a 3-node fleet: one bootstrap, two joiners, then inspect the ring
//! cargo run --release -p bench --bin drserve_cli -- serve --addr 127.0.0.1:7070 --cluster
//! cargo run --release -p bench --bin drserve_cli -- serve --addr 127.0.0.1:7071 --peers 127.0.0.1:7070
//! cargo run --release -p bench --bin drserve_cli -- serve --addr 127.0.0.1:7072 --peers 127.0.0.1:7070
//! cargo run --release -p bench --bin drserve_cli -- cluster --addr 127.0.0.1:7070
//! ```
//!
//! The client records the four-thread needle workload, uploads it
//! (content-addressed — a second client uploading the same recording
//! dedupes), opens a pooled session, seeks to the middle of the region,
//! computes the failure slice twice to show the cold-compute versus
//! cache-hit latency, and relogs the slice into a server-stored slice
//! pinball whose digest it reopens and slices like any upload. It
//! finishes by printing the server's stats block and this connection's
//! wire counters (requests, bytes each way).

use std::io::{Read, Write};

use bench::exp::record_needle;
use drserve::{Client, FleetClient, ServeConfig, Server, SliceAt};
use pinplay::{PinballContainer, PinballDigest, StreamWriter, DEFAULT_CHECKPOINT_INTERVAL};
use slicer::SliceOptions;

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .zip(args.iter().skip(1))
        .find(|(f, _)| f.as_str() == flag)
        .map(|(_, v)| v.as_str())
}

fn parsed_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    flag_value(args, flag)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn config_from(args: &[String]) -> ServeConfig {
    // `--peers a,b,c` seeds the gossip mesh; `--advertise` is the address
    // other fleet members dial back (defaults to the bound address).
    // `--cluster` turns fleet mode on with no seeds — the bootstrap node.
    let peers: Vec<String> = flag_value(args, "--peers")
        .map(|v| {
            v.split(',')
                .map(str::trim)
                .filter(|p| !p.is_empty())
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default();
    ServeConfig {
        max_sessions: parsed_flag(args, "--max-sessions", 8),
        cache_capacity: parsed_flag(args, "--cache", 256),
        // 0 = auto-size to the machine (one shard per CPU, capped).
        shards: parsed_flag(args, "--shards", 0),
        queue_capacity: parsed_flag(args, "--queue", 512),
        batch_max: parsed_flag(args, "--batch", 32),
        cluster: args.iter().any(|a| a == "--cluster"),
        advertise: flag_value(args, "--advertise").map(str::to_string),
        peers,
        ..ServeConfig::default()
    }
}

/// One full debug iteration against a connected server; prints what the
/// cache did for the repeat request.
fn drive<S: Read + Write>(client: &mut Client<S>, iters: u64, tag: &str) -> Result<(), String> {
    let (program, pinball) = record_needle(iters);
    let up = client
        .upload(&program, &pinball)
        .map_err(|e| format!("upload: {e}"))?;
    println!(
        "[{tag}] uploaded {} instructions as {} ({})",
        up.instructions,
        up.digest,
        if up.deduped { "deduped" } else { "stored" }
    );
    let session = client.open(up.digest).map_err(|e| format!("open: {e}"))?;
    let (_, position) = client
        .seek(session, up.instructions / 2)
        .map_err(|e| format!("seek: {e}"))?;
    println!("[{tag}] session {session} seeked to instruction {position}");
    let cold = client
        .compute_slice(session, SliceAt::Failure, SliceOptions::default())
        .map_err(|e| format!("slice: {e}"))?;
    let warm = client
        .compute_slice(session, SliceAt::Failure, SliceOptions::default())
        .map_err(|e| format!("slice: {e}"))?;
    println!(
        "[{tag}] failure slice: {} records; cold {} us ({}), repeat {} us ({})",
        cold.slice.len(),
        cold.micros,
        if cold.cached { "cache hit" } else { "computed" },
        warm.micros,
        if warm.cached { "cache hit" } else { "computed" },
    );
    let relog = client
        .relog(session, SliceAt::Failure, SliceOptions::default())
        .map_err(|e| format!("relog: {e}"))?;
    println!(
        "[{tag}] relogged into slice pinball {} ({} of {} instructions kept, {} excluded; {} us, {})",
        relog.digest,
        relog.kept,
        up.instructions,
        relog.excluded,
        relog.micros,
        if relog.cached { "cache hit" } else { "built" },
    );
    client.close(session).map_err(|e| format!("close: {e}"))?;
    // The relogged digest is an ordinary stored pinball: open and slice it.
    let sliced = client
        .open(relog.digest)
        .map_err(|e| format!("open slice pinball: {e}"))?;
    let again = client
        .compute_slice(sliced, SliceAt::Failure, SliceOptions::default())
        .map_err(|e| format!("slice the slice pinball: {e}"))?;
    println!(
        "[{tag}] slice pinball slices like any upload: {} records",
        again.slice.len()
    );
    client.close(sliced).map_err(|e| format!("close: {e}"))?;
    Ok(())
}

/// Streams a recorded needle workload up in `chunks` self-delimiting
/// pieces with `delay_ms` between sends, so a tailing client in another
/// terminal (`drdebug_cli needle --tail <stream>`) can watch the prefix
/// grow. Resumable: rerunning with the same `--stream` id resends only
/// the chunks the server has not absorbed, and a digest probe on begin
/// skips the body entirely when the server already stores the pinball.
fn stream_up<S: Read + Write>(
    client: &mut Client<S>,
    iters: u64,
    stream_id: Option<u64>,
    chunks: usize,
    delay_ms: u64,
) -> Result<(), String> {
    let (program, pinball) = record_needle(iters);
    let container =
        PinballContainer::with_checkpoints(pinball, &program, DEFAULT_CHECKPOINT_INTERVAL);
    let writer = StreamWriter::new(&container).map_err(|e| format!("container encode: {e}"))?;
    let digest = writer.digest();
    let stream = stream_id.unwrap_or(digest.0);
    let ack = client
        .begin_stream(stream, &program, Some(digest))
        .map_err(|e| format!("begin: {e}"))?;
    if ack.already_have {
        println!("[stream] server already has {digest}; nothing to send (deduped)");
        return Ok(());
    }
    let pieces = writer.chunks(chunks);
    println!(
        "[stream] stream {stream}: {} chunks, {} bytes, {} instructions \
         (resuming from chunk {})",
        pieces.len(),
        writer.sealed_bytes().len(),
        writer.instructions(),
        ack.next_seq,
    );
    for (seq, piece) in pieces.iter().enumerate() {
        if (seq as u32) < ack.next_seq {
            continue; // absorbed before a reconnect: never resent
        }
        let ack = client
            .append_chunk(stream, seq as u32, piece.to_vec())
            .map_err(|e| format!("chunk {seq}: {e}"))?;
        println!(
            "[stream] chunk {seq} acked: {} events absorbed server-side",
            ack.events
        );
        std::thread::sleep(std::time::Duration::from_millis(delay_ms));
    }
    let up = client
        .seal_stream(stream, writer.footer().to_vec())
        .map_err(|e| format!("seal: {e}"))?;
    println!(
        "[stream] sealed: {} instructions published as {} ({})",
        up.instructions,
        up.digest,
        if up.deduped { "deduped" } else { "stored" }
    );
    Ok(())
}

fn print_stats<S: Read + Write>(client: &mut Client<S>) {
    match client.stats() {
        Ok(stats) => println!("--- server stats ---\n{stats}"),
        Err(e) => eprintln!("stats: {e}"),
    }
    let wire = client.wire_stats();
    println!(
        "--- wire (this connection) ---\n\
         requests        {:>8}\n\
         bytes sent      {:>8}\n\
         bytes received  {:>8}",
        wire.requests, wire.bytes_sent, wire.bytes_received
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str);
    let iters = parsed_flag(&args, "--iters", 400);
    match mode {
        Some("serve") => {
            let addr = flag_value(&args, "--addr").unwrap_or("127.0.0.1:7070");
            let server = Server::new(config_from(&args));
            let handle = match server.listen(addr) {
                Ok(h) => h,
                Err(e) => {
                    eprintln!("error: cannot listen on {addr}: {e}");
                    std::process::exit(1);
                }
            };
            let config = config_from(&args);
            if config.cluster || !config.peers.is_empty() {
                println!(
                    "[drserve] listening on {} ({} worker shards; fleet mode, seeds: {})",
                    handle.addr(),
                    server.service().shard_count(),
                    if config.peers.is_empty() {
                        "none — bootstrap".to_string()
                    } else {
                        config.peers.join(", ")
                    }
                );
            } else {
                println!(
                    "[drserve] listening on {} ({} worker shards)",
                    handle.addr(),
                    server.service().shard_count()
                );
            }
            // Serve until the process is killed.
            loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
        }
        Some("client") => {
            let addr = flag_value(&args, "--addr").unwrap_or("127.0.0.1:7070");
            let mut client = match drserve::connect(addr) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("error: cannot connect to {addr}: {e}");
                    std::process::exit(1);
                }
            };
            // `client stats` only queries the server: print the stats
            // block (slice cache, index cache, sessions) and exit.
            if args.get(1).map(String::as_str) != Some("stats") {
                if let Err(e) = drive(&mut client, iters, "client") {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
            print_stats(&mut client);
        }
        Some("stream") => {
            let addr = flag_value(&args, "--addr").unwrap_or("127.0.0.1:7070");
            let chunks: usize = parsed_flag(&args, "--chunks", 8);
            let delay_ms: u64 = parsed_flag(&args, "--delay-ms", 200);
            let stream_id = flag_value(&args, "--stream").and_then(|v| v.parse().ok());
            let mut client = match drserve::connect(addr) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("error: cannot connect to {addr}: {e}");
                    std::process::exit(1);
                }
            };
            if let Err(e) = stream_up(&mut client, iters, stream_id, chunks, delay_ms) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        Some("cluster") => {
            let addr = flag_value(&args, "--addr").unwrap_or("127.0.0.1:7070");
            let mut fc = match FleetClient::connect(addr) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("error: cannot reach fleet via {addr}: {e}");
                    std::process::exit(1);
                }
            };
            println!("--- peer map (via {addr}) ---");
            for node in fc.nodes() {
                println!(
                    "{:<21} {:<5} incarnation {:<20} heartbeat {:<8} pinballs {}",
                    node.addr,
                    if node.alive { "alive" } else { "dead" },
                    node.incarnation,
                    node.heartbeat,
                    node.pinballs,
                );
            }
            println!("--- ring shares ---");
            for (node, share) in fc.ring().shares() {
                println!("{node:<21} {:>5.1}% of the keyspace", share * 100.0);
            }
            // `--digest <hex>` prints which node owns that pinball.
            if let Some(raw) = flag_value(&args, "--digest") {
                let raw = raw.trim_start_matches("0x");
                match u64::from_str_radix(raw, 16) {
                    Ok(bits) => {
                        let digest = PinballDigest(bits);
                        println!(
                            "--- ownership ---\n{digest} is owned by {}",
                            fc.owner_of(digest)
                        );
                    }
                    Err(e) => eprintln!("error: --digest wants hex ({e})"),
                }
            }
            match fc.stats_all() {
                Ok(all) => {
                    println!("--- per-node cache stats ---");
                    for (node, stats) in all {
                        println!(
                            "{node:<21} slice cache {}/{} hits ({}% on {} entries), \
                             index builds {}, forwards {}, peer-cache hits {}, \
                             redirects {}, peer fetches {}",
                            stats.cache.hits,
                            stats.cache.hits + stats.cache.misses,
                            stats.cache.hit_rate_percent(),
                            stats.cache.entries,
                            stats.index_cache.misses,
                            stats.cluster.forwards,
                            stats.cluster.peer_cache_hits,
                            stats.cluster.redirects,
                            stats.cluster.peer_fetches,
                        );
                    }
                }
                Err(e) => eprintln!("stats: {e}"),
            }
        }
        Some("demo") => {
            let clients: usize = parsed_flag(&args, "--clients", 4);
            let server = Server::new(config_from(&args));
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..clients)
                    .map(|i| {
                        let mut client = server.loopback_client();
                        scope.spawn(move || drive(&mut client, iters, &format!("demo-{i}")))
                    })
                    .collect();
                for handle in handles {
                    if let Err(e) = handle.join().expect("client thread") {
                        eprintln!("error: {e}");
                        std::process::exit(1);
                    }
                }
            });
            let mut client = server.loopback_client();
            print_stats(&mut client);
        }
        _ => {
            eprintln!(
                "usage: drserve_cli serve [--addr <host:port>] [--max-sessions <n>] [--cache <n>]\n\
                 \x20                     [--shards <n>] [--queue <n>] [--batch <n>]\n\
                 \x20                     [--peers <addr,...>] [--advertise <host:port>] [--cluster]\n\
                 \x20      drserve_cli client [--addr <host:port>] [--iters <n>]\n\
                 \x20      drserve_cli client stats [--addr <host:port>]\n\
                 \x20      drserve_cli cluster [--addr <host:port>] [--digest <hex>]\n\
                 \x20      drserve_cli stream [--addr <host:port>] [--iters <n>] [--chunks <n>]\n\
                 \x20                         [--delay-ms <n>] [--stream <id>]\n\
                 \x20      drserve_cli demo [--clients <n>] [--iters <n>] [--shards <n>]\n\
                 \n\
                 --shards 0 (default) sizes one worker shard per CPU; each shard owns its\n\
                 own session pool and caches. --queue bounds each shard's admission queue\n\
                 (overload answers Busy with a backlog-scaled retry hint); --batch caps how\n\
                 many queued requests one worker wakeup drains. The stats block printed by\n\
                 `client stats` and `demo` includes the per-shard breakdown.\n\
                 \n\
                 Fleet mode: `serve --peers` joins an existing fleet (gossip seeds);\n\
                 `serve --cluster` bootstraps a seedless first node; `--advertise` is the\n\
                 address peers dial back when the bind address is not reachable as-is.\n\
                 `cluster` prints the gossiped peer map, consistent-hash ring shares,\n\
                 the owner of --digest, and each node's cache/forwarding counters."
            );
            std::process::exit(2);
        }
    }
}
