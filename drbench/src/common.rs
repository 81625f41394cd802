//! Pieces every workload shares: the server, the measured window, the
//! service-level probes and the count fingerprints.

use std::net::SocketAddr;

use drserve::{CacheStats, Request, ServeConfig, ServeStats, Server, ServerHandle, SliceAt};
use pinplay::PinballDigest;
use slicer::{Criterion, SliceOptions};

use crate::conn::Conn;
use crate::stats::{mean, Cpu, Samples, Stopwatch};
use crate::trace::{Row, Tracer, UNROWED};

/// A real server with default settings, listening on 127.0.0.1.
pub struct Served {
    // Field order is drop order: stop accepting before the server goes.
    handle: ServerHandle,
    /// The server itself, for in-process `Service::call` probes.
    pub server: Server,
}

impl Served {
    /// Starts the server.
    ///
    /// # Panics
    ///
    /// Panics when no loopback port can be bound.
    pub fn start() -> Served {
        let server = Server::new(ServeConfig::default());
        let handle = server.listen("127.0.0.1:0").expect("bind a loopback port");
        Served { handle, server }
    }

    /// The listening address.
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// A new client connection.
    ///
    /// # Panics
    ///
    /// Panics when the local server refuses the connection.
    pub fn connect(&self) -> Conn {
        Conn::connect(self.addr()).expect("connect to the local server")
    }

    /// The server's metrics, read in-process.
    pub fn stats(&self) -> ServeStats {
        self.server.stats()
    }
}

/// Where a measured window of fresh-recording cycles ends.
#[derive(Clone, Copy)]
pub enum Until {
    /// The cycle under way once this many CPU seconds have been measured.
    Seconds(f64),
    /// This many cycles.
    Cycles(usize),
}

impl Until {
    /// Whether another cycle belongs in the window.
    pub fn more(self, w: &Window) -> bool {
        match self {
            Until::Seconds(s) => w.clock.elapsed().as_secs_f64() < s,
            Until::Cycles(n) => w.cycles < n,
        }
    }

    /// Whole rounds of the family mix (each family once, in seeded order):
    /// as many as take about `seconds` at `round_s` CPU seconds a round,
    /// at least one. The count hangs on `--seconds` alone, never on how
    /// fast the machine runs, so every run measures the same cycles.
    pub fn rounds(seconds: f64, round_s: f64) -> Until {
        let rounds = (seconds / round_s).round().max(1.0) as usize;
        Until::Cycles(rounds * crate::inputs::FAMILIES.len())
    }
}

/// One measured window: its stopwatch, latencies and spans.
pub struct Window {
    /// Measured time.
    pub clock: Stopwatch,
    /// Latencies by end-to-end op, ms.
    pub samples: Samples,
    /// Spans (recording only in a traced window).
    pub tracer: Tracer,
    /// Service probes to run once the window is closed (traced only).
    pub probes: Vec<Probe>,
    /// Cycles run.
    pub cycles: usize,
}

impl Window {
    /// An empty window.
    pub fn new(traced: bool) -> Window {
        Window {
            clock: Stopwatch::new(),
            samples: Samples::default(),
            tracer: Tracer::new(traced),
            probes: Vec::new(),
            cycles: 0,
        }
    }
}

/// The cheapest request a workload sends: its `noop_p50_ms` op.
#[derive(Clone, Copy)]
pub enum Noop {
    /// `Stats` (an interactive debugger's status poll).
    Stats,
    /// `ProbePinball` (the digest-first dedupe check before an upload).
    Probe,
    /// `Tail` of a stream (a live tailer's poll).
    Tail(u64),
}

/// What the service-level probes ask about one recording after the
/// measured window: the noop, a slice-cache hit, a seek and, when given,
/// a new criterion.
pub struct Probe {
    /// The uploaded recording.
    pub digest: PinballDigest,
    /// The workload's noop.
    pub noop: Noop,
    /// A criterion the slice cache holds.
    pub hit: Criterion,
    /// A seek target.
    pub seek_to: u64,
    /// A criterion no one asked yet.
    pub fresh: Option<Criterion>,
}

/// Times the service layer without the wire, after the measured window
/// and its closing `Stats` snapshot, on a session of its own: the noop
/// and a slice-cache hit both through the client and through
/// `Service::call`, whose difference is the front end (wire, dispatch,
/// queue hand-off); then a seek and a new criterion through
/// `Service::call` alone.
pub fn probe_service(conn: &mut Conn, server: &Server, tr: &mut Tracer, p: &Probe) {
    if !tr.on() {
        return;
    }
    conn.measuring = false;
    let Some((session, _)) = conn.call("open", |c| c.open(p.digest)) else {
        return;
    };
    let digest = p.digest;
    let slice = |criterion| Request::ComputeSlice {
        session,
        at: SliceAt::Criterion { criterion },
        options: SliceOptions::default(),
    };
    let noop_request = || match p.noop {
        Noop::Stats => Request::Stats,
        Noop::Probe => Request::ProbePinball { digest },
        Noop::Tail(stream) => Request::Tail { stream },
    };
    let at = SliceAt::Criterion { criterion: p.hit };
    // Fills the slice cache again should the window have evicted it.
    conn.call("slice", |c| {
        c.compute_slice(session, at.clone(), SliceOptions::default())
    });
    for _ in 0..3 {
        let rtt = match p.noop {
            Noop::Stats => conn.call("stats", |c| c.stats().map(drop)),
            Noop::Probe => conn.call("probe", |c| c.probe(digest).map(drop)),
            Noop::Tail(stream) => conn.call("tail", |c| c.tail(stream).map(drop)),
        };
        if let Some((_, rtt)) = rtt {
            let (_, span) = tr.time("drserve.service_ms.noop", "noop", || {
                server.service().call(noop_request())
            });
            let service = span.map_or(0.0, |s| tr.span_ms(s));
            tr.record("drserve.frontend_ms.noop", "noop", (rtt - service).max(0.0));
            tr.instance("noop");
        }
        if let Some((_, rtt)) = conn.call("slice", |c| {
            c.compute_slice(session, at.clone(), SliceOptions::default())
        }) {
            let (_, span) = tr.time("drserve.service_ms.hit", "hit", || {
                server.service().call(slice(p.hit))
            });
            let service = span.map_or(0.0, |s| tr.span_ms(s));
            tr.record("drserve.frontend_ms.hit", "hit", (rtt - service).max(0.0));
            tr.instance("hit");
        }
    }
    tr.time("drserve.service_ms.seek", UNROWED, || {
        server.service().call(Request::Seek {
            session,
            target: p.seek_to,
        })
    });
    if let Some(criterion) = p.fresh {
        tr.time("drserve.service_ms.new_slice", UNROWED, || {
            server.service().call(slice(criterion))
        });
    }
    conn.call("close", |c| c.close(session));
}

/// Tags whose mirror already holds one front-end round trip (the
/// service probes time the client call next to `Service::call`).
const WITH_FRONTEND: [&str; 2] = ["noop", "hit"];

/// A layer-table row: the traced window's mean of `metric`, explained by
/// `parts` (row tag, mirrored operations per `metric`) plus one idle
/// front-end round trip for every measured round trip of `metric` that
/// no part's mirror holds already.
pub fn table_row(
    tr: &Tracer,
    samples: &Samples,
    metric: &'static str,
    parts: &[(&str, f64)],
) -> Row {
    let mut row = Row::new(metric, mean(samples.get(metric)));
    let mut held = 0.0;
    for &(tag, k) in parts {
        row.add_row(tr, tag, k);
        if WITH_FRONTEND.contains(&tag) {
            held += k;
        }
    }
    let idle = (samples.trips_per(metric) - held).max(0.0);
    row.add_layer(tr, "noop", "drserve.frontend_ms.noop", idle);
    row
}

/// The layer-table row of a workload's whole cycle: each `(tag, op)`
/// counts as many mirrored operations per cycle as the window measured
/// samples of `op` per cycle.
pub fn cycle_row(tr: &Tracer, samples: &Samples, parts: &[(&str, &str)]) -> Row {
    let cycles = samples.count("cycle").max(1.0);
    let per: Vec<(&str, f64)> = parts
        .iter()
        .map(|&(tag, op)| (tag, samples.count(op) / cycles))
        .collect();
    table_row(tr, samples, "cycle", &per)
}

/// The server's counters over a window: `after` less `before`. Queue
/// depths stay as `after` read them: the peak is a high-water mark, which
/// set-up and probes (one request at a time per client) cannot raise past
/// the window's closed-loop clients.
pub fn window_stats(before: &ServeStats, after: &ServeStats) -> ServeStats {
    fn cache(b: &CacheStats, a: &CacheStats) -> CacheStats {
        CacheStats {
            hits: a.hits - b.hits,
            misses: a.misses - b.misses,
            evictions: a.evictions - b.evictions,
            ..*a
        }
    }
    let mut d = after.clone();
    d.requests -= before.requests;
    d.errors -= before.errors;
    d.shed -= before.shed;
    d.cache = cache(&before.cache, &after.cache);
    d.index_cache = cache(&before.index_cache, &after.index_cache);
    d.relog_cache = cache(&before.relog_cache, &after.relog_cache);
    d.sessions.evicted_lru -= before.sessions.evicted_lru;
    for (op, s) in &mut d.per_op {
        if let Some(b) = before.op(op) {
            s.count -= b.count;
            s.total_micros -= b.total_micros;
        }
    }
    d
}

/// Runs `set_up` `reps` times, each time dropping the previous result
/// first; returns the last one and every set-up's CPU seconds.
pub fn set_up_repeatedly<T>(reps: usize, mut set_up: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut seconds = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        crate::calibrate::run();
        let started = Cpu::now();
        last = Some(set_up());
        seconds.push(started.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), seconds)
}

/// FNV-1a over seeded counts: one cycle's fingerprint.
pub fn fingerprint(counts: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for c in counts {
        for b in c.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}
