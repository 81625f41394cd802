//! `live_stream`: a writer connection streams each fresh recording
//! (`BeginStream`, 16 × `AppendChunk`, `SealStream`) while a tailer
//! connection polls `Tail` after each chunk and slices the absorbed
//! prefix at the failure point at half and three quarters of the stream.
//! Writer and tailer take turns on one thread, so each request's CPU
//! time is its own. After the seal the tailer debugs the sealed
//! recording: the failure slice, three follow-ups, a repeat, four seeks
//! and a relog. The store, container and index layers run through their
//! write and incremental paths.

use std::sync::Arc;

use drserve::{RelogReply, ServeStats, SessionId, SliceAt, WireSlice};
use pinplay::{PinballContainer, PinballDigest};
use slicer::{Criterion, SliceOptions};

use crate::common::{
    cycle_row, fingerprint, probe_service, set_up_repeatedly, table_row, window_stats, Noop, Probe,
    Served, Until, Window,
};
use crate::conn::{Conn, Tally};
use crate::inputs::{self, Planner, Spec};
use crate::oracle::{self, Criteria, Oracle, StreamSlicer, STREAM_CHUNKS};
use crate::report::{failed_latency_ms, ops_per_s, Outcome};
use crate::rng::Rng;
use crate::stats::{ms, Cpu, Samples};
use crate::trace::{Row, Tracer, UNROWED};
use crate::Config;

/// Follow-up criteria on the sealed recording.
const FOLLOW_UPS: usize = 3;
/// Seeks on the sealed recording.
const SEEKS: usize = 4;
/// CPU seconds one round of the family mix takes (2-vCPU Xeon VM): what
/// `--seconds` is divided by to get the rounds a run measures.
const ROUND_S: f64 = 10.0;

struct Live {
    writer: Conn,
    tailer: Conn,
    served: Served,
    session: Option<SessionId>,
    criteria: Criteria,
    mismatches: Vec<String>,
    counts: Vec<u64>,
}

/// What the server answered in one cycle.
#[derive(Default)]
struct Answers {
    sealed: Option<PinballDigest>,
    mids: Vec<WireSlice>,
    first: Option<WireSlice>,
    follow: Vec<WireSlice>,
    repeat: Option<WireSlice>,
    seeks: Vec<u64>,
    relog: Option<RelogReply>,
}

impl Live {
    fn setup(cfg: &Config) -> Live {
        let served = Served::start();
        let mut live = Live {
            writer: served.connect(),
            tailer: served.connect(),
            served,
            session: None,
            criteria: Criteria::default(),
            mismatches: Vec::new(),
            counts: Vec::new(),
        };
        let spec = Spec {
            family: inputs::FAMILIES.len() - 2,
            instructions: cfg.size_range().0,
            serial: 0,
        };
        live.cycle(&spec, &mut Window::new(false), false);
        live.counts.clear();
        live
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
        self.writer.tally = Tally::default();
        self.tailer.tally = Tally::default();
        let before = self.served.stats();
        while until.more(&w) {
            let spec = planner.next_spec();
            self.cycle(&spec, &mut w, true);
            w.cycles += 1;
        }
        let stats = window_stats(&before, &self.served.stats());
        for p in &w.probes {
            probe_service(&mut self.tailer, &self.served.server, &mut w.tracer, p);
        }
        let mut tally = std::mem::take(&mut self.writer.tally);
        tally.merge(&std::mem::take(&mut self.tailer.tally));
        (w, tally, stats)
    }

    fn cycle(&mut self, spec: &Spec, w: &mut Window, measuring: bool) {
        self.writer.measuring = measuring;
        self.tailer.measuring = measuring;
        let tr = &mut w.tracer;
        w.clock.resume();
        let c0 = w.clock.elapsed();
        let (rec, _) = tr.time("pinplay.record_ms", "cycle", || inputs::record(spec));
        let program = rec.program;
        let container = Arc::new(PinballContainer::new(rec.pinball));
        let (plan, _) = tr.time("pinplay.stream_plan_ms", "cycle", || {
            oracle::plan(&container)
        });
        tr.instance("cycle");
        w.clock.pause();

        // Unmeasured inputs: the paper's recipe (§7), the last reads (one
        // more for the service probe's new criterion), and seek targets.
        let (failure, mut follow) = self
            .criteria
            .get(spec, &program, &container, FOLLOW_UPS + 1);
        let reads = follow.clone();
        let fresh = follow.get(FOLLOW_UPS).copied().filter(|c| *c != failure);
        follow.truncate(FOLLOW_UPS);
        let instructions = container.pinball.logged_instructions();
        let targets = inputs::stops(instructions, SEEKS as u64);

        // The digest is unique per cycle (the recording name carries a
        // serial), so it doubles as the stream id, as in
        // `Client::upload_streamed`.
        let stream = plan.digest().0;
        let mut a = Answers::default();
        let sent = self.writer.sent + self.tailer.sent;
        w.clock.resume();
        let done = self
            .stream(&program, &plan, stream, w, &mut a)
            .and_then(|sealed_at| self.debug(sealed_at, a.sealed?, &follow, &targets, w, &mut a));
        if done.is_some() {
            let trips = self.writer.sent + self.tailer.sent - sent;
            w.samples
                .add_trips("cycle", ms(w.clock.elapsed() - c0), trips);
        }
        w.clock.pause();
        if let Some(session) = self.session.take() {
            let measuring = std::mem::replace(&mut self.tailer.measuring, false);
            self.tailer.call("close", |c| c.close(session));
            self.tailer.measuring = measuring;
        }

        // Unmeasured, once the server's work is done: expected answers
        // and the layer mirror.
        let tr = &mut w.tracer;
        let sealed_bytes = plan.sealed_bytes();
        tr.count("pinplay.container_bytes", sealed_bytes.len() as f64);
        if tr.on() {
            tr.time("pinplay.encode_ms", UNROWED, || {
                container.to_bytes().expect("container encodes")
            });
            tr.time("pinplay.stream_absorb_ms", "upload", || {
                oracle::absorb_all(&plan)
            });
            let (decoded, _) = tr.time("pinplay.decode_ms", "upload", || {
                PinballContainer::from_bytes(sealed_bytes).expect("sealed bytes decode")
            });
            tr.time("pinplay.digest_ms", "upload", || decoded.digest());
            tr.time("pinplay.replay_ms", UNROWED, || {
                pinplay::Replayer::shared(Arc::clone(&program), Arc::clone(&container))
                    .run(&mut minivm::NullTool)
            });
            tr.instance("upload");
            if a.relog.is_some() {
                w.probes.push(Probe {
                    digest: plan.digest(),
                    noop: Noop::Tail(stream),
                    hit: failure,
                    seek_to: targets[0],
                    fresh,
                });
            }
        }
        let mut stream_slicer = StreamSlicer::default();
        let mids = oracle::mid_points(plan.chunks(STREAM_CHUNKS).len());
        let want_mids: Vec<Vec<u8>> = mids
            .iter()
            .map(|&upto| {
                tr.instance("mid");
                stream_slicer.slice_prefix(tr, "mid", &program, &plan, upto)
            })
            .collect();
        drop(stream_slicer);
        let mut oracle = Oracle::new(
            Arc::clone(&program),
            Arc::clone(&container),
            tr,
            "first",
            "first",
            "first",
        );
        tr.instance("first");
        if oracle.failure != failure || oracle.last_reads(FOLLOW_UPS + 1) != reads {
            self.mismatches.push(format!(
                "{} at {} instructions records different criteria than before",
                inputs::FAMILIES[spec.family],
                spec.instructions
            ));
        }
        self.verify(
            &mut oracle,
            &container,
            &plan,
            &want_mids,
            &follow,
            &targets,
            a,
            &mut w.tracer,
        );
    }

    /// Streams the recording, the tailer following in step: one `Tail`
    /// poll after each chunk and a slice of the open stream at the
    /// failure after half and three quarters of the chunks. Returns the
    /// clock reading at the seal's acknowledgement.
    fn stream(
        &mut self,
        program: &minivm::Program,
        plan: &pinplay::StreamWriter,
        stream: u64,
        w: &mut Window,
        a: &mut Answers,
    ) -> Option<Cpu> {
        let digest = plan.digest();
        let (writer, tailer) = (&mut self.writer, &mut self.tailer);
        let s = &mut w.samples;
        let sent = writer.sent;
        let (_, mut upload_ms) = writer.call("beginstream", |c| {
            c.begin_stream(stream, program, Some(digest))
        })?;
        let chunks = plan.chunks(STREAM_CHUNKS);
        let mids = oracle::mid_points(chunks.len());
        for (seq, chunk) in chunks.iter().enumerate() {
            let bytes = chunk.to_vec();
            let (_, t) =
                writer.call("appendchunk", |c| c.append_chunk(stream, seq as u32, bytes))?;
            upload_ms += t;
            match tailer.call("tail", |c| c.tail(stream)) {
                Some((_, t)) => {
                    s.add("noop", t);
                    s.add("interactive", t);
                }
                None => s.add("interactive", failed_latency_ms()),
            }
            if mids.contains(&(seq + 1)) {
                let (r, t) = tailer.call("slicestream", |c| {
                    c.slice_stream(stream, SliceAt::Failure, SliceOptions::default())
                })?;
                s.add("mid_slice", t);
                a.mids.push(r.slice);
            }
        }
        let footer = plan.footer().to_vec();
        let (up, t) = writer.call("sealstream", |c| c.seal_stream(stream, footer))?;
        s.add_trips("upload", upload_ms + t, writer.sent - sent);
        a.sealed = Some(up.digest);
        Some(Cpu::now())
    }

    /// The tailer debugs the sealed recording.
    fn debug(
        &mut self,
        sealed_at: Cpu,
        digest: PinballDigest,
        follow: &[Criterion],
        targets: &[u64],
        w: &mut Window,
        a: &mut Answers,
    ) -> Option<()> {
        let opts = SliceOptions::default;
        let conn = &mut self.tailer;
        let s = &mut w.samples;
        let sent = conn.sent;
        let (session, _) = conn.call("open", |c| c.open(digest))?;
        self.session = Some(session);
        let (first, _) = conn.call("slice", |c| {
            c.compute_slice(session, SliceAt::Failure, opts())
        })?;
        s.add_trips("first_slice", ms(sealed_at.elapsed()), conn.sent - sent);
        a.first = Some(first.slice);
        for &criterion in follow {
            let at = SliceAt::Criterion { criterion };
            let (r, t) = conn.call("slice", |c| c.compute_slice(session, at, opts()))?;
            s.add(if r.cached { "hit_slice" } else { "new_slice" }, t);
            a.follow.push(r.slice);
        }
        let r = conn.call("slice", |c| {
            c.compute_slice(session, SliceAt::Failure, opts())
        });
        s.add(
            "interactive",
            r.as_ref().map_or(failed_latency_ms(), |r| r.1),
        );
        let (repeat, t) = r?;
        s.add("hit_slice", t);
        a.repeat = Some(repeat.slice);
        for &target in targets {
            let r = conn.call("seek", |c| c.seek(session, target));
            s.add(
                "interactive",
                r.as_ref().map_or(failed_latency_ms(), |r| r.1),
            );
            let ((_, position), t) = r?;
            s.add("seek", t);
            a.seeks.push(position);
        }
        let (relog, t) = conn.call("relog", |c| c.relog(session, SliceAt::Failure, opts()))?;
        s.add("relog", t);
        a.relog = Some(relog);
        conn.call("close", |c| c.close(session))?;
        self.session = None;
        Some(())
    }

    #[allow(clippy::too_many_arguments)]
    fn verify(
        &mut self,
        oracle: &mut Oracle,
        container: &PinballContainer,
        plan: &pinplay::StreamWriter,
        want_mids: &[Vec<u8>],
        follow: &[Criterion],
        targets: &[u64],
        a: Answers,
        tr: &mut Tracer,
    ) {
        let mut bad = |what: String| self.mismatches.push(what);
        let mut counts = vec![
            container.pinball.logged_instructions(),
            oracle.records() as u64,
        ];
        if let Some(digest) = a.sealed {
            if digest != container.digest() || digest != plan.digest() {
                bad(format!(
                    "sealed digest {digest} != local {}",
                    container.digest()
                ));
            }
        }
        for (got, want) in a.mids.iter().zip(want_mids) {
            oracle::proto_slice(tr, "mid", got);
            counts.push(got.len() as u64);
            if got.canonical_bytes() != *want {
                bad("slice of the open stream differs".to_string());
            }
        }
        let failure = oracle.failure;
        if let Some(first) = &a.first {
            let want = oracle.slice(failure, tr, "first");
            oracle::proto_slice(tr, "first", first);
            counts.push(first.len() as u64);
            if first.canonical_bytes() != want {
                bad(format!("sealed failure slice at {failure:?} differs"));
            }
        }
        if a.repeat.is_some() && a.repeat.as_ref() != a.first.as_ref() {
            // The original is checked against the oracle.
            bad("repeated sealed failure slice differs".to_string());
        }
        for (criterion, got) in follow.iter().zip(&a.follow) {
            counts.push(got.len() as u64);
            if got.canonical_bytes() != oracle.slice(*criterion, tr, "new") {
                bad(format!("follow-up slice at {criterion:?} differs"));
            }
            oracle::proto_slice(tr, "new", got);
            tr.instance("new");
        }
        for (&target, &position) in targets.iter().zip(&a.seeks) {
            let (local, _) = oracle.seek(target, tr);
            tr.instance("seek");
            if local != position {
                bad(format!(
                    "seek to {target} stopped at {position}, local {local}"
                ));
            }
        }
        if let Some(relog) = a.relog {
            let (digest, kept, excluded) = oracle.relog(failure, tr);
            tr.instance("relog");
            counts.extend([kept, excluded]);
            if (digest, kept, excluded) != (relog.digest, relog.kept, relog.excluded) {
                bad(format!("relog digest {} != local {digest}", relog.digest));
            }
        }
        self.counts.push(fingerprint(&counts));
    }
}

fn table(tr: &Tracer, s: &Samples) -> Vec<Row> {
    vec![
        table_row(tr, s, "mid_slice", &[("mid", 1.0)]),
        table_row(tr, s, "upload", &[("upload", 1.0)]),
        table_row(tr, s, "first_slice", &[("first", 1.0)]),
        table_row(tr, s, "new_slice", &[("new", 1.0)]),
        table_row(tr, s, "hit_slice", &[("hit", 1.0)]),
        table_row(tr, s, "seek", &[("seek", 1.0)]),
        table_row(tr, s, "relog", &[("relog", 1.0)]),
        table_row(tr, s, "noop", &[("noop", 1.0)]),
        cycle_row(
            tr,
            s,
            &[
                ("cycle", "cycle"),
                ("upload", "upload"),
                ("noop", "noop"),
                ("mid", "mid_slice"),
                ("first", "first_slice"),
                ("new", "new_slice"),
                ("hit", "hit_slice"),
                ("seek", "seek"),
                ("relog", "relog"),
            ],
        ),
    ]
}

/// Runs `live_stream`.
pub fn run(cfg: &Config) -> Outcome {
    let (mut live, setup_s) = set_up_repeatedly(cfg.setup_reps(), || Live::setup(cfg));
    let mut planner = Planner::new(Rng::new(cfg.seed), cfg.size_range());
    let (w, tally, stats, untraced_ops_per_s) = if cfg.trace {
        // The traced half replays the untraced half's recordings (under
        // new names) and requests, so the overhead compares like with like.
        let mut again = planner.renamed();
        let until = Until::Seconds(cfg.seconds / 2.0);
        let (w, tally, _) = live.window(until, &mut planner, false);
        let untraced = ops_per_s(&tally, w.clock.elapsed().as_secs_f64());
        let until = Until::Cycles(w.cycles);
        let (w, tally, stats) = live.window(until, &mut again, true);
        (w, tally, stats, untraced)
    } else {
        let until = Until::rounds(cfg.seconds, ROUND_S);
        let (w, tally, stats) = live.window(until, &mut planner, false);
        (w, tally, stats, f64::NAN)
    };
    let rows = if cfg.trace {
        table(&w.tracer, &w.samples)
    } else {
        Vec::new()
    };
    Outcome {
        setup_s,
        measured_s: w.clock.elapsed().as_secs_f64(),
        peak_rss_mb: w.clock.peak_rss_mb(),
        samples: w.samples,
        tally,
        mismatches: std::mem::take(&mut live.mismatches),
        counts: std::mem::take(&mut live.counts),
        stats,
        tracer: w.tracer,
        untraced_ops_per_s,
        rows,
        headline: "mid_slice",
    }
}
