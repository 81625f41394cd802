//! `warm_debug`: an interactive client against the Table-1 bug cases
//! plus the Fig. 5 race and the Fig. 8 save/restore example. Uploads,
//! opens and index builds happen in set-up; the measured mix is nine
//! tenths cheap requests (no-op `Stats`, slice-cache hits, seeks, relog
//! hits) and one tenth heavy ones (new criteria, slices at a stop,
//! breakpoint runs, second sessions), so the front end, dispatch, shard
//! queues, caches and checkpointed seek dominate.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use drserve::{ServeStats, SessionId, SliceAt, WireSlice};
use minivm::Program;
use pinplay::{PinballContainer, PinballDigest};
use slicer::{Criterion, RecordId, SliceOptions};

use crate::common::{
    cycle_row, fingerprint, probe_service, set_up_repeatedly, table_row, window_stats, Noop, Probe,
    Served,
};
use crate::conn::{Conn, Tally};
use crate::inputs;
use crate::oracle::{self, Oracle};
use crate::report::{failed_latency_ms, ops_per_s, Outcome};
use crate::rng::{Rng, Walk};
use crate::stats::{ms, Cpu, Samples, Stopwatch};
use crate::trace::{Row, Tracer, UNROWED};
use crate::Config;

/// New criteria per recording: several times what a run of 3 + 10 CPU
/// seconds asks, so a faster build does not run out.
const POOL: usize = 1024;
/// Most stops in a recording's first tenth the client slices in set-up
/// to see enough record ids for the new-criterion pools.
const SCOUTS: usize = 64;
/// Criteria the client asks per recording during set-up.
const WARM_CRITERIA: usize = 16;
/// Seconds of unmeasured mix before measuring.
const WARM_UP_S: f64 = 3.0;
/// One in this many slice, seek and relog replies is checked.
const CHECK_EVERY: u64 = 4;

/// The op mix, in parts of 40: heavy ops (a new criterion, a slice at a
/// stop, a breakpoint run, a second session) are a tenth, the most the
/// workload allows; nothing tells one op's share from another's within
/// the cheap or the heavy ones, so each class splits evenly.
const MIX: [(Op, u64); 8] = [
    (Op::Noop, 9),
    (Op::Hit, 9),
    (Op::Seek, 9),
    (Op::Relog, 9),
    (Op::New, 1),
    (Op::Mid, 1),
    (Op::BreakRun, 1),
    (Op::SecondSession, 1),
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Op {
    Noop,
    Hit,
    Seek,
    Mid,
    Relog,
    New,
    BreakRun,
    SecondSession,
}

/// One uploaded recording.
struct Case {
    program: Arc<Program>,
    container: Arc<PinballContainer>,
    bytes: Vec<u8>,
    digest: PinballDigest,
    instructions: u64,
}

/// The client's view of one recording.
struct View {
    session: SessionId,
    /// The failure-point criterion, as the first reply named it.
    failure: Criterion,
    /// Record ids seen in set-up's slice replies.
    seen: BTreeSet<RecordId>,
    /// Criteria the client asked in set-up, besides the failure: with
    /// it, what the slice-cache hits ask.
    asked: Vec<Criterion>,
    /// Criteria set-up sliced by stopping at them.
    stops: Vec<Criterion>,
    /// New criteria still to ask, in the seeded order set-up drew.
    fresh: std::vec::IntoIter<Criterion>,
    /// Which set-up criterion the next slice-cache hit asks, where the
    /// next seek and the next slice at a stop go: walks, not draws, so
    /// every run asks the same spread of them.
    hits: Walk,
    seeks: Walk,
    mids: Walk,
}

/// A reply kept for checking after the window.
enum Check {
    Slice(usize, Criterion, WireSlice),
    Here(usize, u64, WireSlice),
    Seek(usize, u64, u64),
    Relog(usize, PinballDigest),
}

struct Client {
    conn: Conn,
    rng: Rng,
    /// Requests still to send from the current deck.
    deck: Vec<(Op, usize)>,
    views: Vec<View>,
    checks: Vec<Check>,
    samples: Samples,
    failed_setup: Option<String>,
    /// Whether a new-criterion pool ran dry.
    dry: bool,
}

/// One deck of requests: every op of the mix its parts of times on every
/// recording, in seeded order; new criteria go only to the recordings in
/// `new_on`, round robin. The client walks decks, so every run sends nearly
/// the same mix to the same recordings.
fn deck(cases: usize, new_on: &[usize], rng: &mut Rng) -> Vec<(Op, usize)> {
    let mut deck = Vec::new();
    for &(op, weight) in &MIX {
        for v in 0..cases {
            let v = if op == Op::New {
                new_on[v % new_on.len()]
            } else {
                v
            };
            deck.extend(std::iter::repeat_n((op, v), weight as usize));
        }
    }
    rng.shuffle(&mut deck);
    deck
}

impl View {
    fn absorb(&mut self, slice: &WireSlice) {
        self.seen.extend(slice.records.iter().copied());
    }

    /// Whether the client asked `criterion` in set-up.
    fn asked_in_setup(&self, criterion: &Criterion) -> bool {
        *criterion == self.failure
            || self.asked.contains(criterion)
            || self.stops.contains(criterion)
    }
}

impl Client {
    /// Uploads every case, opens a session on each and asks its failure
    /// slice, its relog and a few criteria from the failure slice, so the
    /// indexes and caches are warm; then slices stops in the first tenth
    /// until it has seen enough record ids for the new-criterion pools.
    /// The criteria and stops are spread evenly, not seeded: they fix
    /// what every slice-cache hit and new criterion costs.
    fn open(conn: Conn, rng: Rng, cases: &[Case]) -> Client {
        let mut client = Client {
            conn,
            rng,
            deck: Vec::new(),
            views: Vec::new(),
            checks: Vec::new(),
            samples: Samples::default(),
            failed_setup: None,
            dry: false,
        };
        for case in cases {
            let opts = SliceOptions::default;
            let conn = &mut client.conn;
            let bytes = case.bytes.clone();
            let ready = conn
                .call("upload", |c| c.upload_bytes(&case.program, bytes))
                .and_then(|_| conn.call("open", |c| c.open(case.digest)))
                .and_then(|(session, _)| {
                    let first = conn.call("slice", |c| {
                        c.compute_slice(session, SliceAt::Failure, opts())
                    })?;
                    conn.call("relog", |c| c.relog(session, SliceAt::Failure, opts()))?;
                    Some((session, first.0))
                });
            let Some((session, first)) = ready else {
                client.failed_setup = client.conn.last_error.clone();
                return client;
            };
            let mut view = View {
                session,
                failure: first.slice.criterion,
                seen: BTreeSet::new(),
                asked: Vec::new(),
                stops: Vec::new(),
                fresh: Vec::new().into_iter(),
                hits: client.rng.walk(),
                seeks: client.rng.walk(),
                mids: client.rng.walk(),
            };
            view.absorb(&first.slice);
            // A debugger already several questions into the session: the
            // hits ask criteria seen in the failure slice.
            let records = &first.slice.records;
            let picks: Vec<RecordId> = (0..WARM_CRITERIA)
                .filter_map(|i| records.get(i * records.len() / WARM_CRITERIA))
                .copied()
                .collect();
            for id in picks {
                let criterion = Criterion::Record { id };
                let at = SliceAt::Criterion { criterion };
                let Some((reply, _)) = client
                    .conn
                    .call("slice", |c| c.compute_slice(session, at, opts()))
                else {
                    client.failed_setup = client.conn.last_error.clone();
                    return client;
                };
                view.absorb(&reply.slice);
                view.asked.push(criterion);
            }
            // Early stops have small slices: the interactive "why is
            // this value so" question, not a re-triage.
            for target in inputs::stops((case.instructions / 10).max(SCOUTS as u64), SCOUTS as u64)
            {
                if view.seen.len() >= POOL + WARM_CRITERIA + SCOUTS {
                    break;
                }
                let here = SliceAt::Here { key: None };
                let Some((reply, _)) = client
                    .conn
                    .call("seek", |c| c.seek(session, target))
                    .and_then(|_| {
                        client
                            .conn
                            .call("slice", |c| c.compute_slice(session, here, opts()))
                    })
                else {
                    client.failed_setup = client.conn.last_error.clone();
                    return client;
                };
                view.absorb(&reply.slice);
                view.stops.push(reply.slice.criterion);
            }
            client.views.push(view);
        }
        client
    }

    /// Walks decks until `stop`. Each whole deck walked inside the
    /// window is one `cycle_p50_ms` sample: every deck holds the same
    /// requests, so its cost moves only with the program.
    fn run(&mut self, cases: &[Case], new_on: &[usize], clock: &mut Stopwatch, length: Duration) {
        self.conn.measuring = true;
        // When and at which request count the current deck started, if
        // inside the window.
        let mut started = None;
        clock.resume();
        while clock.elapsed() < length {
            if self.deck.is_empty() {
                self.deck = deck(cases.len(), new_on, &mut self.rng);
                started = Some((Cpu::now(), self.conn.sent));
            }
            let (op, v) = self.deck.pop().expect("deck refilled above");
            self.step(op, v, &cases[v]);
            if self.deck.is_empty() {
                if let Some((at, sent)) = started {
                    let trips = self.conn.sent - sent;
                    self.samples.add_trips("cycle", ms(at.elapsed()), trips);
                }
                // The pause runs the calibration kernel between decks.
                clock.pause();
                clock.resume();
            }
        }
        clock.pause();
        self.conn.measuring = false;
    }

    fn keep(&mut self) -> bool {
        self.rng.below(CHECK_EVERY) == 0
    }

    fn cheap(&mut self, op: &'static str, t: Option<f64>) {
        match t {
            Some(t) => {
                self.samples.add(op, t);
                self.samples.add("interactive", t);
            }
            None => self.samples.add("interactive", failed_latency_ms()),
        }
    }

    fn step(&mut self, op: Op, v: usize, case: &Case) {
        let opts = SliceOptions::default;
        let session = self.views[v].session;
        match op {
            Op::Noop => {
                let r = self.conn.call("stats", |c| c.stats());
                self.cheap("noop", r.map(|r| r.1));
            }
            Op::Hit | Op::New => {
                let view = &mut self.views[v];
                let fresh = if op == Op::New {
                    view.fresh.next()
                } else {
                    None
                };
                self.dry |= op == Op::New && fresh.is_none();
                let criterion = fresh.unwrap_or_else(|| {
                    let i = view.hits.below(view.asked.len() as u64 + 1) as usize;
                    view.asked.get(i).copied().unwrap_or(view.failure)
                });
                let at = SliceAt::Criterion { criterion };
                let r = self
                    .conn
                    .call("slice", |c| c.compute_slice(session, at, opts()));
                match &r {
                    Some((reply, t)) if reply.cached => self.cheap("hit_slice", Some(*t)),
                    Some((_, t)) => self.samples.add("new_slice", *t),
                    None if op == Op::Hit => self.cheap("hit_slice", None),
                    None => {}
                }
                if let Some((reply, _)) = r {
                    if self.keep() {
                        self.checks.push(Check::Slice(v, criterion, reply.slice));
                    }
                }
            }
            Op::Seek | Op::Mid => {
                // A slice at the stop inspects the region's first tenth,
                // where statements have small slices.
                let view = &mut self.views[v];
                let target = 1 + if op == Op::Mid {
                    view.mids.below((case.instructions / 10).max(1))
                } else {
                    view.seeks.below(case.instructions)
                };
                let r = self.conn.call("seek", |c| c.seek(session, target));
                self.cheap("seek", r.as_ref().map(|r| r.1));
                let Some(((_, position), _)) = r else { return };
                if op == Op::Seek {
                    if self.keep() {
                        self.checks.push(Check::Seek(v, target, position));
                    }
                    return;
                }
                let here = SliceAt::Here { key: None };
                if let Some((reply, t)) = self
                    .conn
                    .call("slice", |c| c.compute_slice(session, here, opts()))
                {
                    // Set-up sliced some early stops already.
                    if reply.cached {
                        self.cheap("hit_slice", Some(t));
                    } else {
                        self.samples.add("mid_slice", t);
                    }
                    if self.keep() {
                        self.checks.push(Check::Here(v, target, reply.slice));
                    }
                }
            }
            Op::Relog => {
                // Asked by the criterion the first reply named, as a
                // debugger re-fetching a slice pinball it already has.
                let at = SliceAt::Criterion {
                    criterion: self.views[v].failure,
                };
                let r = self.conn.call("relog", |c| c.relog(session, at, opts()));
                self.cheap("relog", r.as_ref().map(|r| r.1));
                if let Some((reply, _)) = r {
                    if self.keep() {
                        self.checks.push(Check::Relog(v, reply.digest));
                    }
                }
            }
            Op::BreakRun => {
                let pc = self.rng.below(case.program.code.len() as u64) as minivm::Pc;
                if self
                    .conn
                    .call("break", |c| c.add_breakpoint(session, pc, None))
                    .is_some()
                {
                    self.conn.call("run", |c| c.run(session));
                }
            }
            Op::SecondSession => self.second_session(v, case),
        }
    }

    /// A second debugger attaching to the same recording: re-upload
    /// (deduplicated by digest), open a new session, ask the failure
    /// slice by its criterion, close.
    fn second_session(&mut self, v: usize, case: &Case) {
        let conn = &mut self.conn;
        let sent = conn.sent;
        let t0 = Cpu::now();
        let bytes = case.bytes.clone();
        let Some((_, up)) = conn.call("upload", |c| c.upload_bytes(&case.program, bytes)) else {
            return;
        };
        let Some((session, open)) = conn.call("open", |c| c.open(case.digest)) else {
            return;
        };
        self.samples
            .add_trips("upload", up + open, conn.sent - sent);
        let failure = self.views[v].failure;
        let at = SliceAt::Criterion { criterion: failure };
        let r = conn.call("slice", |c| {
            c.compute_slice(session, at, SliceOptions::default())
        });
        if let Some((reply, _)) = r {
            self.samples
                .add_trips("first_slice", ms(t0.elapsed()), conn.sent - sent);
            self.checks.push(Check::Slice(v, failure, reply.slice));
        }
        conn.call("close", |c| c.close(session));
    }
}

/// What one window measured.
struct Measured {
    samples: Samples,
    tally: Tally,
    seconds: f64,
    /// The server's counters over the window.
    stats: ServeStats,
    peak_rss_mb: f64,
}

struct Warm {
    /// The one closed-loop client: every figure is the process's CPU
    /// time over a request, which a second client's requests running
    /// alongside would leak into.
    client: Client,
    cases: Vec<Case>,
    /// Recordings with a full new-criterion pool: the ones new criteria
    /// are asked on (the Fig. 5 and Fig. 8 recordings hold too few
    /// statements).
    new_on: Vec<usize>,
    served: Served,
}

impl Warm {
    fn setup(cfg: &Config, record_ms: &mut Vec<f64>) -> Result<Warm, String> {
        let started = Cpu::now();
        let corpus = inputs::bug_corpus();
        record_ms.push(ms(started.elapsed()) / corpus.len() as f64);
        let cases: Vec<Case> = corpus
            .into_iter()
            .map(|(_, rec)| {
                // Checkpointed, as a debugger would keep a recording it
                // comes back to: seeks replay at most one interval.
                let container = Arc::new(PinballContainer::with_checkpoints(
                    rec.pinball,
                    &rec.program,
                    pinplay::DEFAULT_CHECKPOINT_INTERVAL,
                ));
                Case {
                    bytes: container.to_bytes().expect("container encodes"),
                    digest: container.digest(),
                    instructions: container.pinball.logged_instructions(),
                    program: rec.program,
                    container,
                }
            })
            .collect();
        let served = Served::start();
        let mut rng = Rng::new(cfg.seed);
        let mut client = Client::open(served.connect(), rng.fork(), &cases);
        if let Some(e) = &client.failed_setup {
            return Err(format!("set-up request failed: {e}"));
        }
        // Each recording's pool: the earliest record ids the client saw
        // and did not ask, in seeded order. Every build asks the same ones
        // in the same order, and how far a run gets does not change what
        // it asks.
        let mut sizes = Vec::new();
        let mut new_on = Vec::new();
        for view in &mut client.views {
            let pool: Vec<Criterion> = view
                .seen
                .iter()
                .map(|&id| Criterion::Record { id })
                .filter(|c| !view.asked_in_setup(c))
                .take(POOL)
                .collect();
            let pool: Vec<Criterion> = rng
                .spread_order(pool.len())
                .into_iter()
                .map(|i| pool[i])
                .collect();
            sizes.push(pool.len());
            if pool.len() == POOL {
                new_on.push(sizes.len() - 1);
            }
            view.fresh = pool.into_iter();
        }
        eprintln!("drbench: new-criterion pools per recording: {sizes:?}");
        if new_on.is_empty() {
            return Err("no recording has a full new-criterion pool".to_string());
        }
        Ok(Warm {
            client,
            cases,
            new_on,
            served,
        })
    }

    fn window(&mut self, seconds: f64) -> Measured {
        let (cases, new_on) = (&self.cases, &self.new_on);
        let before = self.served.stats();
        let mut clock = Stopwatch::new();
        let c = &mut self.client;
        c.conn.tally = Tally::default();
        c.samples = Samples::default();
        c.run(cases, new_on, &mut clock, Duration::from_secs_f64(seconds));
        let stats = window_stats(&before, &self.served.stats());
        let c = &mut self.client;
        Measured {
            samples: std::mem::take(&mut c.samples),
            tally: std::mem::take(&mut c.conn.tally),
            seconds: clock.elapsed().as_secs_f64(),
            stats,
            peak_rss_mb: clock.peak_rss_mb(),
        }
    }

    /// Checks the kept replies against local sessions and, when tracing,
    /// mirrors each layer on the same recordings.
    fn verify(&mut self, tr: &mut Tracer, mismatches: &mut Vec<String>) {
        let mut oracles: Vec<Oracle> = Vec::new();
        for case in &self.cases {
            tr.count("pinplay.container_bytes", case.bytes.len() as f64);
            oracle::mirror_ingest(tr, &case.program, &case.container, &case.bytes, "upload");
            if tr.on() {
                tr.time("pinplay.encode_ms", UNROWED, || {
                    case.container.to_bytes().expect("container encodes")
                });
                let upload = drserve::Request::UploadPinball {
                    program: (*case.program).clone(),
                    container: case.bytes.clone(),
                };
                oracle::proto_request(tr, "upload", &upload);
            }
            // The server collected and indexed every case in set-up.
            oracles.push(Oracle::new(
                Arc::clone(&case.program),
                Arc::clone(&case.container),
                tr,
                "upload",
                UNROWED,
                UNROWED,
            ));
            tr.instance("upload");
        }
        // Relog hits all name the failure slice: relog it locally once.
        let mut relogs: Vec<Option<PinballDigest>> = vec![None; oracles.len()];
        for check in self.client.checks.drain(..) {
            match check {
                Check::Slice(v, criterion, got) => {
                    // Second sessions ask the (cached) failure slice.
                    let tag = if criterion == oracles[v].failure {
                        UNROWED
                    } else {
                        "new"
                    };
                    let want = oracles[v].slice(criterion, tr, tag);
                    oracle::proto_slice(tr, tag, &got);
                    if tag == "new" {
                        tr.instance("new");
                    }
                    if got.canonical_bytes() != want {
                        mismatches.push(format!("{criterion:?} slice differs (case {v})"));
                    }
                }
                Check::Here(v, target, got) => {
                    let (_, at) = oracles[v].seek(target, tr);
                    match at {
                        Some(id) => {
                            let want = oracles[v].slice(Criterion::Record { id }, tr, "mid");
                            oracle::proto_slice(tr, "mid", &got);
                            tr.instance("mid");
                            if got.canonical_bytes() != want {
                                mismatches.push(format!("slice at {target} differs (case {v})"));
                            }
                        }
                        None => mismatches.push(format!("no local record at {target}")),
                    }
                }
                Check::Seek(v, target, position) => {
                    let (local, _) = oracles[v].seek(target, tr);
                    tr.instance("seek");
                    if local != position {
                        mismatches.push(format!("seek to {target}: {position} != {local}"));
                    }
                }
                Check::Relog(v, digest) => {
                    let want = *relogs[v].get_or_insert_with(|| {
                        let failure = oracles[v].failure;
                        oracles[v].relog(failure, tr).0
                    });
                    if want != digest {
                        mismatches.push(format!("relog digest {digest} != {want} (case {v})"));
                    }
                }
            }
        }
        if tr.on() {
            let client = &mut self.client;
            for (v, o) in oracles.iter_mut().enumerate() {
                let view = &client.views[v];
                let probe = Probe {
                    digest: self.cases[v].digest,
                    noop: Noop::Stats,
                    // A criterion from the client's own hit pool, so the
                    // probe hits the same slices the measured hits did.
                    hit: view.asked.first().copied().unwrap_or(view.failure),
                    seek_to: 1 + client.rng.below(self.cases[v].instructions),
                    fresh: o.last_reads(1).first().copied(),
                };
                probe_service(&mut client.conn, &self.served.server, tr, &probe);
            }
        }
    }
}

fn table(tr: &Tracer, s: &Samples) -> Vec<Row> {
    vec![
        table_row(tr, s, "noop", &[("noop", 1.0)]),
        table_row(tr, s, "hit_slice", &[("hit", 1.0)]),
        table_row(tr, s, "seek", &[("seek", 1.0)]),
        table_row(tr, s, "new_slice", &[("new", 1.0)]),
        table_row(tr, s, "mid_slice", &[("mid", 1.0)]),
        table_row(tr, s, "relog", &[]),
        table_row(tr, s, "upload", &[("upload", 1.0)]),
        table_row(tr, s, "first_slice", &[("upload", 1.0), ("hit", 1.0)]),
        cycle_row(
            tr,
            s,
            &[
                ("noop", "noop"),
                ("hit", "hit_slice"),
                ("seek", "seek"),
                ("new", "new_slice"),
                ("mid", "mid_slice"),
                // A second session: the upload, then a slice-cache hit.
                ("upload", "first_slice"),
                ("hit", "first_slice"),
            ],
        ),
    ]
}

/// Runs `warm_debug`.
pub fn run(cfg: &Config) -> Outcome {
    let mut record_ms = Vec::new();
    let (warm, setup_s) = set_up_repeatedly(cfg.setup_reps(), || Warm::setup(cfg, &mut record_ms));
    let mut warm = warm.unwrap_or_else(|e| {
        eprintln!("drbench: warm_debug {e}");
        std::process::exit(1);
    });
    // Unmeasured warm-up: the mix fills the slice cache and the heaps,
    // which otherwise makes the first seconds of a run measurably slower.
    warm.window(if cfg.quick { 0.5 } else { WARM_UP_S });
    let untraced_ops_per_s = if cfg.trace {
        let m = warm.window(cfg.seconds / 2.0);
        ops_per_s(&m.tally, m.seconds)
    } else {
        f64::NAN
    };
    let seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let m = warm.window(seconds);
    if warm.client.dry {
        eprintln!("drbench: a new-criterion pool ran dry; later new criteria were hits");
    }
    let mut tracer = Tracer::new(cfg.trace);
    for &t in &record_ms {
        tracer.record("pinplay.record_ms", UNROWED, t);
    }
    let mut mismatches = Vec::new();
    warm.verify(&mut tracer, &mut mismatches);
    let rows = if cfg.trace {
        table(&tracer, &m.samples)
    } else {
        Vec::new()
    };
    let counts = warm
        .cases
        .iter()
        .map(|c| fingerprint(&[c.digest.0, c.instructions]))
        .collect();
    Outcome {
        setup_s,
        samples: m.samples,
        tally: m.tally,
        measured_s: m.seconds,
        peak_rss_mb: m.peak_rss_mb,
        mismatches,
        counts,
        stats: m.stats,
        tracer,
        untraced_ops_per_s,
        rows,
        headline: "noop",
    }
}
