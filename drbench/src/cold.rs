//! `cold_triage`: one client records a fresh region each cycle and
//! triages it — the digest-first dedupe probe, upload, open, the failure
//! slice, eight last-read follow-ups, a repeat of the failure slice, four
//! seeks, each followed by a slice at the stop and its repeat, a relog,
//! close. Every digest is new, so replay, collect, merge, index and the
//! container codec do almost all of the work.

use std::sync::Arc;

use drserve::{RelogReply, Request, ServeStats, SessionId, SliceAt, WireSlice};
use pinplay::{PinballContainer, PinballDigest};
use slicer::{Criterion, SliceOptions};

use crate::common::{
    cycle_row, fingerprint, probe_service, set_up_repeatedly, table_row, window_stats, Noop, Probe,
    Served, Until, Window,
};
use crate::conn::{Conn, Tally};
use crate::inputs::{self, Planner, Spec};
use crate::oracle::{self, Criteria, Oracle};
use crate::report::{failed_latency_ms, ops_per_s, Outcome};
use crate::rng::Rng;
use crate::stats::{ms, Cpu, Samples};
use crate::trace::{Row, Tracer, UNROWED};
use crate::Config;

/// Follow-up criteria per cycle.
const FOLLOW_UPS: usize = 8;
/// Seeks per cycle.
const SEEKS: usize = 4;
/// CPU seconds one round of the family mix takes (2-vCPU Xeon VM): what
/// `--seconds` is divided by to get the rounds a run measures.
const ROUND_S: f64 = 14.0;

struct Cold {
    conn: Conn,
    served: Served,
    session: Option<SessionId>,
    criteria: Criteria,
    mismatches: Vec<String>,
    counts: Vec<u64>,
    /// Index-cache lookups and hits while first slices ran.
    first_index: (u64, u64),
}

/// What the server answered in one cycle's timed part.
struct Answers {
    /// Whether the dedupe probe found the fresh recording already stored.
    known: bool,
    digest: PinballDigest,
    instructions: u64,
    first: WireSlice,
    follow: Vec<WireSlice>,
    /// Repeats of the failure slice and of each stop slice, in order.
    repeats: Vec<WireSlice>,
    seeks: Vec<u64>,
    /// Slices at each seek's stop.
    mids: Vec<WireSlice>,
    relog: RelogReply,
}

/// Records a cheap request's latency; a failed one counts as over any
/// limit in `interactive_p99_ms`.
fn cheap(s: &mut Samples, op: &'static str, t: Option<f64>) {
    match t {
        Some(t) => {
            s.add(op, t);
            s.add("interactive", t);
        }
        None => s.add("interactive", failed_latency_ms()),
    }
}

impl Cold {
    fn setup(cfg: &Config) -> Cold {
        let served = Served::start();
        let mut cold = Cold {
            conn: served.connect(),
            served,
            session: None,
            criteria: Criteria::default(),
            mismatches: Vec::new(),
            counts: Vec::new(),
            first_index: (0, 0),
        };
        // One unmeasured triage cycle on a fixed recording pages in code
        // and warms the allocator, so measured cycles start steady.
        let spec = Spec {
            family: inputs::FAMILIES.len() - 2,
            instructions: cfg.size_range().0,
            serial: 0,
        };
        cold.cycle(&spec, &mut Window::new(false), false);
        cold.counts.clear();
        cold
    }

    /// Measures cycles until `until`; returns the window, its request
    /// outcomes and the server's counters over it.
    fn window(
        &mut self,
        until: Until,
        planner: &mut Planner,
        traced: bool,
    ) -> (Window, Tally, ServeStats) {
        let mut w = Window::new(traced);
        self.conn.tally = Tally::default();
        let before = self.served.stats();
        while until.more(&w) {
            let spec = planner.next_spec();
            self.cycle(&spec, &mut w, true);
            w.cycles += 1;
        }
        let stats = window_stats(&before, &self.served.stats());
        for p in &w.probes {
            probe_service(&mut self.conn, &self.served.server, &mut w.tracer, p);
        }
        (w, std::mem::take(&mut self.conn.tally), stats)
    }

    fn cycle(&mut self, spec: &Spec, w: &mut Window, measuring: bool) {
        self.conn.measuring = measuring;
        let tr = &mut w.tracer;
        w.clock.resume();
        let c0 = w.clock.elapsed();
        let (rec, _) = tr.time("pinplay.record_ms", "cycle", || inputs::record(spec));
        let program = rec.program;
        let container = Arc::new(PinballContainer::new(rec.pinball));
        let (bytes, _) = tr.time("pinplay.encode_ms", "cycle", || {
            container.to_bytes().expect("container encodes")
        });
        // The digest the dedupe probe asks about.
        let (digest, _) = tr.time("pinplay.digest_ms", "cycle", || container.digest());
        tr.instance("cycle");
        w.clock.pause();

        // Unmeasured inputs: the paper's recipe (§7), the last reads (one
        // more for the service probe's new criterion), and seek targets
        // spread over the region.
        let (failure, mut follow) = self
            .criteria
            .get(spec, &program, &container, FOLLOW_UPS + 1);
        let reads = follow.clone();
        let fresh = follow.get(FOLLOW_UPS).copied().filter(|c| *c != failure);
        follow.truncate(FOLLOW_UPS);
        let instructions = container.pinball.logged_instructions();
        let targets = inputs::stops(instructions, SEEKS as u64);
        let container_bytes = bytes.len() as f64;

        let answers = self.ops(&program, digest, bytes, &follow, &targets, w, c0);
        w.clock.pause();
        if let Some(session) = self.session.take() {
            // A cycle cut short by a failure still frees its session.
            let measuring = std::mem::replace(&mut self.conn.measuring, false);
            self.conn.call("close", |c| c.close(session));
            self.conn.measuring = measuring;
        }
        let Some(a) = answers else { return };

        // Unmeasured: the local oracle, built once the server's work is
        // done, and the layer mirror.
        let tr = &mut w.tracer;
        tr.count("pinplay.container_bytes", container_bytes);
        if tr.on() {
            let bytes = container.to_bytes().expect("container encodes");
            oracle::mirror_ingest(tr, &program, &container, &bytes, "upload");
            let upload = Request::UploadPinball {
                program: (*program).clone(),
                container: bytes,
            };
            oracle::proto_request(tr, "upload", &upload);
            w.probes.push(Probe {
                digest,
                noop: Noop::Probe,
                // Most of the window's hits repeat a stop slice.
                hit: a.mids.last().map_or(failure, |m| m.criterion),
                seek_to: targets[0],
                fresh,
            });
        }
        let mut oracle = Oracle::new(
            Arc::clone(&program),
            Arc::clone(&container),
            tr,
            "upload",
            "first",
            "first",
        );
        tr.instance("upload");
        tr.instance("first");
        if oracle.failure != failure || oracle.last_reads(FOLLOW_UPS + 1) != reads {
            self.mismatches.push(format!(
                "{} at {} instructions records different criteria than before",
                inputs::FAMILIES[spec.family],
                spec.instructions
            ));
        }
        self.verify(&mut oracle, &container, &follow, &targets, a, tr);
    }

    /// The timed part of a cycle, after recording. `None` when a request
    /// failed (already counted).
    #[allow(clippy::too_many_arguments)]
    fn ops(
        &mut self,
        program: &minivm::Program,
        digest: PinballDigest,
        bytes: Vec<u8>,
        follow: &[Criterion],
        targets: &[u64],
        w: &mut Window,
        c0: std::time::Duration,
    ) -> Option<Answers> {
        let opts = SliceOptions::default;
        let conn = &mut self.conn;
        let s = &mut w.samples;
        let sent = conn.sent;
        w.clock.resume();
        let r = conn.call("probe", |c| c.probe(digest));
        cheap(s, "noop", r.as_ref().map(|r| r.1));
        let (known, _) = r?;
        w.clock.pause();
        let index_before = self.served.stats().index_cache;
        w.clock.resume();
        let t0 = Cpu::now();
        let upload_sent = conn.sent;
        let (up, up_ms) = conn.call("upload", |c| c.upload_bytes(program, bytes))?;
        let (session, open_ms) = conn.call("open", |c| c.open(up.digest))?;
        self.session = Some(session);
        s.add_trips("upload", up_ms + open_ms, conn.sent - upload_sent);
        let (first, _) = conn.call("slice", |c| {
            c.compute_slice(session, SliceAt::Failure, opts())
        })?;
        s.add_trips("first_slice", ms(t0.elapsed()), conn.sent - upload_sent);
        w.clock.pause();
        let index_after = self.served.stats().index_cache;
        self.first_index.0 +=
            (index_after.hits + index_after.misses) - (index_before.hits + index_before.misses);
        self.first_index.1 += index_after.hits - index_before.hits;
        w.clock.resume();
        let mut follow_slices = Vec::new();
        for &criterion in follow {
            let at = SliceAt::Criterion { criterion };
            let (r, t) = conn.call("slice", |c| c.compute_slice(session, at, opts()))?;
            s.add(if r.cached { "hit_slice" } else { "new_slice" }, t);
            follow_slices.push(r.slice);
        }
        // Repeats answer from the slice cache: the failure slice here,
        // the stop slices below, so the hit median does not hinge on one
        // family's failure slice.
        let r = conn.call("slice", |c| {
            c.compute_slice(session, SliceAt::Failure, opts())
        });
        cheap(s, "hit_slice", r.as_ref().map(|r| r.1));
        let mut repeats = vec![r?.0.slice];
        let mut seeks = Vec::new();
        let mut mids = Vec::new();
        for &target in targets {
            let r = conn.call("seek", |c| c.seek(session, target));
            cheap(s, "seek", r.as_ref().map(|r| r.1));
            seeks.push(r?.0 .1);
            let here = SliceAt::Here { key: None };
            let (mid, t) =
                conn.call("slice", |c| c.compute_slice(session, here.clone(), opts()))?;
            if mid.cached {
                cheap(s, "hit_slice", Some(t));
            } else {
                s.add("mid_slice", t);
            }
            mids.push(mid.slice);
            let r = conn.call("slice", |c| c.compute_slice(session, here, opts()));
            cheap(s, "hit_slice", r.as_ref().map(|r| r.1));
            repeats.push(r?.0.slice);
        }
        let (relog, t) = conn.call("relog", |c| c.relog(session, SliceAt::Failure, opts()))?;
        s.add("relog", t);
        conn.call("close", |c| c.close(session))?;
        self.session = None;
        s.add_trips("cycle", ms(w.clock.elapsed() - c0), conn.sent - sent);
        Some(Answers {
            known,
            digest: up.digest,
            instructions: up.instructions,
            first: first.slice,
            follow: follow_slices,
            repeats,
            seeks,
            mids,
            relog,
        })
    }

    fn verify(
        &mut self,
        oracle: &mut Oracle,
        container: &PinballContainer,
        follow: &[Criterion],
        targets: &[u64],
        a: Answers,
        tr: &mut Tracer,
    ) {
        let mut bad = |what: String| self.mismatches.push(what);
        if a.known {
            bad(format!(
                "the server already stored fresh recording {}",
                a.digest
            ));
        }
        if a.digest != container.digest() {
            bad(format!(
                "upload digest {} != local {}",
                a.digest,
                container.digest()
            ));
        }
        if a.instructions != container.pinball.logged_instructions() {
            bad("upload instruction count differs".to_string());
        }
        let failure = oracle.failure;
        let want = oracle.slice(failure, tr, "first");
        oracle::proto_slice(tr, "first", &a.first);
        if a.first.canonical_bytes() != want {
            bad(format!("first slice at {failure:?} differs"));
        }
        for (got, original) in a
            .repeats
            .iter()
            .zip(std::iter::once(&a.first).chain(&a.mids))
        {
            // The originals are checked against the oracle below.
            if got != original {
                bad(format!("repeat of {:?} differs", original.criterion));
            }
            oracle::proto_slice(tr, UNROWED, got);
        }
        for (criterion, got) in follow.iter().zip(&a.follow) {
            if got.canonical_bytes() != oracle.slice(*criterion, tr, "new") {
                bad(format!("follow-up slice at {criterion:?} differs"));
            }
            oracle::proto_slice(tr, "new", got);
            tr.instance("new");
        }
        for ((&target, &position), mid) in targets.iter().zip(&a.seeks).zip(&a.mids) {
            let (local, at) = oracle.seek(target, tr);
            tr.instance("seek");
            if local != position {
                bad(format!(
                    "seek to {target} stopped at {position}, local {local}"
                ));
            }
            match at {
                Some(id) => {
                    let want = oracle.slice(Criterion::Record { id }, tr, "mid");
                    oracle::proto_slice(tr, "mid", mid);
                    tr.instance("mid");
                    if mid.canonical_bytes() != want {
                        bad(format!("slice at the stop (record {id}) differs"));
                    }
                }
                None => bad(format!(
                    "local session has no record at the stop of {target}"
                )),
            }
        }
        let (digest, kept, excluded) = oracle.relog(failure, tr);
        tr.instance("relog");
        if (digest, kept, excluded) != (a.relog.digest, a.relog.kept, a.relog.excluded) {
            bad(format!("relog digest {} != local {digest}", a.relog.digest));
        }
        let mut counts = vec![
            a.instructions,
            oracle.records() as u64,
            a.first.len() as u64,
        ];
        counts.extend(a.follow.iter().map(|s| s.len() as u64));
        counts.extend(a.mids.iter().map(|s| s.len() as u64));
        counts.extend([a.relog.kept, a.relog.excluded]);
        self.counts.push(fingerprint(&counts));
    }
}

fn table(tr: &Tracer, s: &Samples) -> Vec<Row> {
    vec![
        table_row(tr, s, "upload", &[("upload", 1.0)]),
        table_row(tr, s, "first_slice", &[("upload", 1.0), ("first", 1.0)]),
        table_row(tr, s, "new_slice", &[("new", 1.0)]),
        table_row(tr, s, "hit_slice", &[("hit", 1.0)]),
        table_row(tr, s, "seek", &[("seek", 1.0)]),
        table_row(tr, s, "mid_slice", &[("mid", 1.0)]),
        table_row(tr, s, "relog", &[("relog", 1.0)]),
        table_row(tr, s, "noop", &[("noop", 1.0)]),
        cycle_row(
            tr,
            s,
            &[
                ("cycle", "cycle"),
                ("upload", "upload"),
                ("first", "first_slice"),
                ("new", "new_slice"),
                ("hit", "hit_slice"),
                ("seek", "seek"),
                ("mid", "mid_slice"),
                ("relog", "relog"),
                ("noop", "noop"),
            ],
        ),
    ]
}

/// Runs `cold_triage`.
pub fn run(cfg: &Config) -> Outcome {
    let (mut cold, setup_s) = set_up_repeatedly(cfg.setup_reps(), || Cold::setup(cfg));
    let mut planner = Planner::new(Rng::new(cfg.seed), cfg.size_range());
    let (w, tally, stats, untraced_ops_per_s) = if cfg.trace {
        // The traced half replays the untraced half's recordings (under
        // new names) and requests, so the overhead compares like with like.
        let mut again = planner.renamed();
        let until = Until::Seconds(cfg.seconds / 2.0);
        let (w, tally, _) = cold.window(until, &mut planner, false);
        let untraced = ops_per_s(&tally, w.clock.elapsed().as_secs_f64());
        let until = Until::Cycles(w.cycles);
        let (w, tally, stats) = cold.window(until, &mut again, true);
        (w, tally, stats, untraced)
    } else {
        let until = Until::rounds(cfg.seconds, ROUND_S);
        let (w, tally, stats) = cold.window(until, &mut planner, false);
        (w, tally, stats, f64::NAN)
    };
    let rows = if cfg.trace {
        table(&w.tracer, &w.samples)
    } else {
        Vec::new()
    };
    let (lookups, hits) = cold.first_index;
    eprintln!("drbench: first slices made {lookups} index-cache lookups, {hits} of them hits");
    if hits > 0 {
        cold.mismatches.push(format!(
            "{hits} index-cache hits while slicing fresh recordings"
        ));
    }
    Outcome {
        setup_s,
        measured_s: w.clock.elapsed().as_secs_f64(),
        peak_rss_mb: w.clock.peak_rss_mb(),
        samples: w.samples,
        tally,
        mismatches: std::mem::take(&mut cold.mismatches),
        counts: std::mem::take(&mut cold.counts),
        stats,
        tracer: w.tracer,
        untraced_ops_per_s,
        rows,
        headline: "first_slice",
    }
}
