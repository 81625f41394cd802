//! Acceptance gates for the container and reply codecs. On a
//! >=100k-event four-thread pinball,
//!
//! - a v3 save + load cycle (binser payloads, parallel chunk pipeline)
//!   must be at least 3x faster than the v2 cycle (JSON payloads), and
//! - a v4 zero-copy load ([`ContainerView::from_bytes`]: columnar
//!   events, shared dictionary, no owned event tree) must be at least
//!   5x faster than the v3 full decode, with v4 emitting no more bytes
//!   than v3.
//!
//! Correctness rides along: every generation round-trips the container
//! exactly and the content digest is identical across v2, v3, v4, the
//! zero-copy view, and the paged (mapped) loader — the digest is a
//! property of the recording, never of the encoding.
//!
//! On a failure slice of more than 10k records, a drserve slice reply
//! must round-trip exactly and its frame must cost at most
//! [`REPLY_BYTES_PER_ITEM`] bytes per record, data edge and control edge.
//! That gate counts bytes, not time.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::exp::{four_thread_needle, ENV_SEED};
use drserve::{proto, Response, WireSlice, RESPONSE_KIND};
use minivm::{LiveEnv, RoundRobin};
use pinplay::{
    record_region, record_whole_program, ContainerView, PinballContainer, RegionSpec,
    DEFAULT_CHECKPOINT_INTERVAL,
};
use slicer::{
    compute_slice_indexed, Criterion, DepIndex, SliceOptions, SliceSession, SlicerOptions,
};

const ITERS: u64 = 4_500;

fn best_of(n: usize, mut f: impl FnMut()) -> Duration {
    (0..n)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed()
        })
        .min()
        .expect("n > 0")
}

#[test]
fn codec_generations_hold_their_speed_and_size_gates() {
    // Quantum 1 forces a scheduling decision per instruction, so the
    // event log grows with the instruction count: the worst case for
    // container i/o and the reason the codecs exist.
    let program = four_thread_needle(ITERS);
    let rec = record_whole_program(
        &program,
        &mut RoundRobin::new(1),
        &mut LiveEnv::new(ENV_SEED),
        ITERS * 60 + 200_000,
        "codec-gate",
    )
    .expect("codec workload records");
    let events = rec.pinball.events.len();
    assert!(
        events >= 100_000,
        "need a >= 100k-event pinball, got {events}"
    );
    let container =
        PinballContainer::with_checkpoints(rec.pinball, &program, DEFAULT_CHECKPOINT_INTERVAL);

    // Correctness before speed: every generation round-trips exactly and
    // each rewrite of the wire format must not grow the file.
    let v4 = container.to_bytes().expect("v4 encodes");
    let v3 = container.to_bytes_v3().expect("v3 encodes");
    let v2 = container.to_bytes_v2().expect("v2 encodes");
    assert!(
        v3.len() <= v2.len(),
        "v3 must not be larger: v3 {} bytes vs v2 {} bytes",
        v3.len(),
        v2.len()
    );
    assert!(
        v4.len() <= v3.len(),
        "v4 must not be larger: v4 {} bytes vs v3 {} bytes",
        v4.len(),
        v3.len()
    );
    let digest = container.digest();
    for (tag, bytes) in [("v4", &v4), ("v3", &v3), ("v2", &v2)] {
        let loaded = PinballContainer::from_bytes(bytes).expect("chunked container loads");
        assert_eq!(loaded, container, "{tag} load must reproduce the container");
        assert_eq!(loaded.digest(), digest, "{tag} digest must be format-free");
    }

    // The zero-copy view and the paged loader agree too: same digest,
    // no materialized event tree in the way.
    let view = ContainerView::from_bytes(&v4).expect("v4 view loads");
    assert_eq!(view.digest(), digest, "view digest must be format-free");
    let mapped_path =
        std::env::temp_dir().join(format!("pinplay-codec-gate-{}.drpb", std::process::id()));
    std::fs::write(&mapped_path, &v4).expect("writes mapped gate file");
    let mapped = PinballContainer::open_mapped(&mapped_path).expect("v4 maps");
    assert_eq!(
        mapped.digest().expect("mapped digest"),
        digest,
        "mapped digest must be format-free"
    );
    std::fs::remove_file(&mapped_path).ok();

    // Gate 1: the binser rewrite. v3 save+load >= 3x faster than v2.
    let v2_time = best_of(3, || {
        let bytes = container.to_bytes_v2().expect("v2 encodes");
        std::hint::black_box(PinballContainer::from_bytes(&bytes).expect("v2 loads"));
    });
    let v3_time = best_of(3, || {
        let bytes = container.to_bytes_v3().expect("v3 encodes");
        std::hint::black_box(PinballContainer::from_bytes(&bytes).expect("v3 loads"));
    });
    assert!(
        v2_time >= v3_time * 3,
        "v3 save+load must be >= 3x faster on {events} events: \
         v2 {v2_time:?} vs v3 {v3_time:?}"
    );

    // Gate 2: the columnar rewrite. Loading a v4 container into the
    // zero-copy view — the path the replayer, slicer, and relogger now
    // consume — must be >= 5x faster than fully decoding the v3 bytes.
    let v3_load = best_of(5, || {
        std::hint::black_box(PinballContainer::from_bytes(&v3).expect("v3 loads"));
    });
    let v4_load = best_of(5, || {
        std::hint::black_box(ContainerView::from_bytes(&v4).expect("v4 view loads"));
    });
    assert!(
        v3_load >= v4_load * 5,
        "v4 zero-copy load must be >= 5x faster than the v3 decode on \
         {events} events: v3 {v3_load:?} vs v4 {v4_load:?}"
    );
}

/// Frame bytes a slice reply may spend per record, data edge and control
/// edge. The columnar reply measures about 0.6 on the canneal slice below.
const REPLY_BYTES_PER_ITEM: usize = 2;

#[test]
fn slice_reply_frame_stays_within_its_byte_budget() {
    // The canneal analog at the size drbench records it (111.5k retired
    // instructions over four threads, a region starting a quarter in),
    // with drbench's schedule and inputs: its failure slice spans most of
    // the region.
    let instructions = 111_500u64;
    let parsec = workloads::all_parsec()
        .into_iter()
        .find(|p| p.name == "canneal")
        .expect("canneal analog exists");
    let length = instructions / 4;
    let skip = length / 4;
    let program = (parsec.build)(workloads::units_for_main_instructions(
        skip + length * 2 + 1_000,
    ));
    let rec = record_region(
        &program,
        &mut RoundRobin::new(17),
        &mut LiveEnv::new(ENV_SEED),
        RegionSpec::skip_length(skip, length),
        (skip + length) * 12 + 1_000_000,
        "reply-gate",
    )
    .expect("canneal region records");
    let session =
        SliceSession::collect(Arc::clone(&program), &rec.pinball, SlicerOptions::default());
    let id = session.failure_record().expect("region is not empty").id;
    let index = DepIndex::build(session.trace(), session.pairs(), &SliceOptions::default());
    let slice = WireSlice::from_slice(&compute_slice_indexed(&index, Criterion::Record { id }));
    assert!(
        slice.records.len() >= 10_000,
        "need a >= 10k-record failure slice, got {}",
        slice.records.len()
    );

    let reply = Response::Slice {
        slice,
        cached: false,
        micros: 0,
    };
    let mut frame = Vec::new();
    proto::write_message(&mut frame, RESPONSE_KIND, &reply).expect("vec write");
    let Response::Slice { slice, .. } = reply else {
        unreachable!("built as a slice reply above")
    };
    match proto::read_message(&mut &frame[..], RESPONSE_KIND) {
        Ok(Response::Slice { slice: back, .. }) => {
            assert!(back == slice, "the slice reply must round-trip exactly")
        }
        other => panic!("the slice reply must decode as one: {other:?}"),
    }
    let items = slice.records.len() + slice.data_edges.len() + slice.control_edges.len();
    println!(
        "canneal failure slice: {} records, {} data edges, {} control edges; \
         payload {} B, frame {} B ({:.2} B per item)",
        slice.records.len(),
        slice.data_edges.len(),
        slice.control_edges.len(),
        slice.canonical_bytes().len(),
        frame.len(),
        frame.len() as f64 / items as f64
    );
    assert!(
        frame.len() <= REPLY_BYTES_PER_ITEM * items,
        "slice reply frame of {} bytes exceeds {REPLY_BYTES_PER_ITEM} bytes per \
         record and edge ({items} items)",
        frame.len()
    );
}
