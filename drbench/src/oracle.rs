//! Local answers every server reply is checked against, and the
//! outside-in layer mirror: the same public calls the server makes,
//! timed on the workload's own inputs.

use std::collections::HashMap;
use std::sync::Arc;

use drdebug::DebugSession;
use drserve::{proto, Request, Response, WireSlice};
use minivm::{NullTool, Program};
use pinplay::{PinballContainer, PinballDigest, Replayer, StreamReader, StreamWriter};
use slicer::{
    compute_slice_indexed, Criterion, DepIndex, GlobalTrace, RecordId, SliceOptions, SliceSession,
    SlicerOptions,
};

use crate::inputs::Spec;
use crate::stats::ms;
use crate::trace::{Tracer, UNROWED};

/// Chunks a streamed upload is cut into.
pub const STREAM_CHUNKS: usize = 16;

/// Chunk counts after which an open stream is sliced: half and three
/// quarters of the chunks the container splits into (16, or one per
/// chunk group when it has fewer).
pub fn mid_points(chunks: usize) -> Vec<usize> {
    let mut at = vec![chunks.div_ceil(2), (3 * chunks).div_ceil(4)];
    at.dedup();
    at
}

/// The criteria a triage client asks, per recording: the failure point
/// and the paper's last reads (§7). Fresh recordings of one family at one
/// size differ only in their name, so each is computed once, by a local
/// session that is dropped before any request is timed; every cycle's
/// oracle checks that its recording still has the same ones.
#[derive(Default)]
pub struct Criteria(HashMap<(usize, u64), (Criterion, Vec<Criterion>)>);

impl Criteria {
    /// The failure point and the last `n` reads of `spec`'s recording.
    pub fn get(
        &mut self,
        spec: &Spec,
        program: &Arc<Program>,
        container: &Arc<PinballContainer>,
        n: usize,
    ) -> (Criterion, Vec<Criterion>) {
        self.0
            .entry((spec.family, spec.instructions))
            .or_insert_with(|| {
                let mut session =
                    DebugSession::with_shared_container(Arc::clone(program), Arc::clone(container));
                let failure = failure_of(&mut session);
                (failure, bench::exp::last_read_criteria(session.slicer(), n))
            })
            .clone()
    }
}

fn failure_of(session: &mut DebugSession) -> Criterion {
    Criterion::Record {
        id: session
            .slicer()
            .failure_record()
            .expect("recording is not empty")
            .id,
    }
}

/// A local debug session over the same recording the server holds.
pub struct Oracle {
    session: DebugSession,
    /// The failure point: the last retired record.
    pub failure: Criterion,
}

impl Oracle {
    /// Opens, collects and indexes a local session. With tracing on,
    /// the open, the collect and the index build are spans of the rows
    /// `open_tag`, `tag` and `index_tag`.
    pub fn new(
        program: Arc<Program>,
        container: Arc<PinballContainer>,
        tr: &mut Tracer,
        open_tag: &'static str,
        tag: &'static str,
        index_tag: &'static str,
    ) -> Oracle {
        let (mut session, _) = tr.time("drdebug.open_ms", open_tag, || {
            DebugSession::with_shared_container(Arc::clone(&program), Arc::clone(&container))
        });
        let (metrics, span) = tr.time("slicer.collect_ms", tag, || *session.slicer().metrics());
        collect_children(tr, span, &metrics);
        tr.time("slicer.index_build_ms", index_tag, || {
            session.dep_index_for(&SliceOptions::default())
        });
        let failure = failure_of(&mut session);
        Oracle { session, failure }
    }

    /// Trace records of the recording.
    pub fn records(&mut self) -> usize {
        self.session.slicer().trace().records().len()
    }

    /// The paper's last-reads criteria (§7): the last `n` reads.
    pub fn last_reads(&mut self, n: usize) -> Vec<Criterion> {
        bench::exp::last_read_criteria(self.session.slicer(), n)
    }

    /// The canonical bytes of the slice for `criterion`, as
    /// `drdebug.slice_ms` of row `tag`.
    pub fn slice(&mut self, criterion: Criterion, tr: &mut Tracer, tag: &'static str) -> Vec<u8> {
        let (slice, span) = tr.time("drdebug.slice_ms", tag, || {
            self.session
                .slice_criterion(criterion, SliceOptions::default())
        });
        let traverse = self.session.metrics().map_or(0.0, |m| ms(m.traverse.wall));
        tr.child(span, "slicer.traverse_ms", traverse);
        tr.count("slicer.slice_records", slice.len() as f64);
        WireSlice::from_slice(&slice).canonical_bytes()
    }

    /// The relog of `criterion`: slice-pinball digest, kept and excluded
    /// instructions. The span splits into the slice and the relog proper.
    pub fn relog(&mut self, criterion: Criterion, tr: &mut Tracer) -> (PinballDigest, u64, u64) {
        let ((_, report), span) = tr.time("drdebug.relog", "relog", || {
            self.session
                .relog_criterion(criterion, SliceOptions::default())
        });
        if let Some(p) = span {
            let total = tr.span_ms(p);
            let traverse = self.session.metrics().map_or(0.0, |m| ms(m.traverse.wall));
            tr.child(span, "slicer.traverse_ms", traverse);
            tr.child(span, "pinplay.relog_ms", (total - traverse).max(0.0));
        }
        (report.digest, report.kept, report.excluded)
    }

    /// Seeks to `target`: the position reached and the record at the
    /// stop point.
    pub fn seek(&mut self, target: u64, tr: &mut Tracer) -> (u64, Option<RecordId>) {
        tr.time("drdebug.seek_ms", "seek", || self.session.seek_to(target));
        let position = self.session.position();
        (position, self.session.record_at_stop())
    }
}

/// Adds the slicer's own stage split of one collect as child spans.
pub fn collect_children(tr: &mut Tracer, span: Option<usize>, m: &slicer::SliceMetrics) {
    tr.child(span, "slicer.collect.replay_ms", ms(m.collect.wall));
    tr.child(span, "slicer.merge_ms", ms(m.merge.wall));
    tr.child(span, "slicer.summarize_ms", ms(m.summarize.wall));
}

/// Times the wire encode and decode (`proto::write_message` /
/// `read_message`) of one slice reply as spans of row `tag`.
pub fn proto_slice(tr: &mut Tracer, tag: &'static str, slice: &WireSlice) {
    if !tr.on() {
        return;
    }
    let response = Response::Slice {
        slice: slice.clone(),
        cached: false,
        micros: 0,
    };
    let (buf, _) = tr.time("drserve.proto_encode_ms", tag, || {
        let mut buf = Vec::new();
        proto::write_message(&mut buf, drserve::RESPONSE_KIND, &response).expect("vec write");
        buf
    });
    tr.time("drserve.proto_decode_ms", tag, || {
        let _: Response =
            proto::read_message(&mut buf.as_slice(), drserve::RESPONSE_KIND).expect("decodes");
    });
}

/// Times one request's wire encode and decode as spans of row `tag`.
pub fn proto_request(tr: &mut Tracer, tag: &'static str, request: &Request) {
    if !tr.on() {
        return;
    }
    let (buf, _) = tr.time("drserve.proto_encode_ms", tag, || {
        let mut buf = Vec::new();
        proto::write_message(&mut buf, drserve::REQUEST_KIND, request).expect("vec write");
        buf
    });
    tr.time("drserve.proto_decode_ms", tag, || {
        let _: Request =
            proto::read_message(&mut buf.as_slice(), drserve::REQUEST_KIND).expect("decodes");
    });
}

/// Mirrors a batch upload's server work (container decode and digest)
/// under row `upload_tag`, and times the layers the batch path does not
/// use (bare replay, stream plan and absorb, incremental index append)
/// outside any row, so every layer is measured on every workload's
/// inputs.
pub fn mirror_ingest(
    tr: &mut Tracer,
    program: &Arc<Program>,
    container: &Arc<PinballContainer>,
    bytes: &[u8],
    upload_tag: &'static str,
) {
    if !tr.on() {
        return;
    }
    let (decoded, _) = tr.time("pinplay.decode_ms", upload_tag, || {
        PinballContainer::from_bytes(bytes).expect("own bytes decode")
    });
    tr.time("pinplay.digest_ms", upload_tag, || decoded.digest());
    tr.time("pinplay.replay_ms", UNROWED, || {
        Replayer::shared(Arc::clone(program), Arc::clone(container)).run(&mut NullTool)
    });
    let (writer, _) = tr.time("pinplay.stream_plan_ms", UNROWED, || plan(container));
    tr.time("pinplay.stream_absorb_ms", UNROWED, || absorb_all(&writer));
    let mut stream = StreamSlicer::default();
    for upto in mid_points(writer.chunks(STREAM_CHUNKS).len()) {
        stream.slice_prefix(tr, UNROWED, program, &writer, upto);
    }
}

/// Plans a streamed upload: the chunk byte slices and footer.
pub fn plan(container: &PinballContainer) -> StreamWriter {
    StreamWriter::new(container).expect("own container plans")
}

/// Absorbs every chunk and the footer, as the server does on a stream.
pub fn absorb_all(writer: &StreamWriter) -> StreamReader {
    let mut reader = StreamReader::new();
    for chunk in writer.chunks(STREAM_CHUNKS) {
        reader.absorb(chunk).expect("own chunk absorbs");
    }
    reader.absorb(writer.footer()).expect("own footer absorbs");
    reader
}

/// The answer to slicing an open stream, computed independently of the
/// server's incremental path: every prefix is collected and indexed from
/// scratch. When tracing, the incremental path the server takes after
/// its first slice (`GlobalTrace::extend` + `DepIndex::append`) is timed
/// alongside.
#[derive(Default)]
pub struct StreamSlicer {
    incremental: Option<(GlobalTrace, DepIndex)>,
}

impl StreamSlicer {
    /// Slices the failure point of the first `upto` chunks; returns the
    /// canonical slice bytes. Spans of the work the server does go to row
    /// `tag`.
    pub fn slice_prefix(
        &mut self,
        tr: &mut Tracer,
        tag: &'static str,
        program: &Arc<Program>,
        writer: &StreamWriter,
        upto: usize,
    ) -> Vec<u8> {
        let mut reader = StreamReader::new();
        for chunk in writer.chunks(STREAM_CHUNKS).into_iter().take(upto) {
            reader.absorb(chunk).expect("own chunk absorbs");
        }
        let (partial, _) = tr.time("pinplay.partial_container", tag, || {
            reader.partial_container().expect("prefix decodes")
        });
        let options = SlicerOptions {
            cluster: false,
            ..SlicerOptions::default()
        };
        let (session, span) = tr.time("slicer.collect_ms", tag, || {
            SliceSession::collect(Arc::clone(program), &partial.pinball, options)
        });
        collect_children(tr, span, session.metrics());
        let slice_opts = SliceOptions::default();
        let first = self.incremental.is_none();
        // The server builds only on its first slice of a stream.
        let build_tag = if first { tag } else { UNROWED };
        let ((trace, index), _) = tr.time("slicer.index_build_ms", build_tag, || {
            let trace = GlobalTrace::build_with(
                session.trace().records().to_vec(),
                options.block_size,
                options.track_sp,
                false,
            );
            let index = DepIndex::build(&trace, session.pairs(), &slice_opts);
            (trace, index)
        });
        let failure = Criterion::Record {
            id: session.failure_record().expect("prefix has events").id,
        };
        let (slice, _) = tr.time("slicer.traverse_ms", tag, || {
            compute_slice_indexed(&index, failure)
        });
        tr.count("slicer.slice_records", slice.len() as f64);
        match &mut self.incremental {
            None => self.incremental = Some((trace, index)),
            Some((grown, appended)) if tr.on() => {
                tr.time("slicer.index_append_ms", tag, || {
                    let done = grown.records().len();
                    grown.extend(session.trace().records()[done..].to_vec());
                    appended.append(grown, session.pairs(), &slice_opts);
                });
            }
            Some(_) => {}
        }
        WireSlice::from_slice(&slice).canonical_bytes()
    }
}
