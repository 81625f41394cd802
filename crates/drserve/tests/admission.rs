//! Admission-control behavior under deliberate overload.
//!
//! The contract these tests pin down: a shard whose queue is full answers
//! *immediately* with a typed [`ServeError::Busy`] whose `retry_after_ms`
//! hint reflects the backlog — it never blocks the connection, never
//! drops a frame on the floor, and never panics. Every pipelined request
//! gets exactly one reply, in order. A [`Client`] with a
//! [`RetryPolicy`] rides the Busy answers out with bounded backoff and is
//! admitted once capacity frees; an impatient policy surfaces the typed
//! error after its budget.
//!
//! Overload is manufactured, not simulated: the server runs one shard
//! with a queue bound of 2, and the occupying work is real cold slice
//! computations (tens of milliseconds each — every request carries a
//! distinct options fingerprint, so none of them hit the slice or index
//! caches) pipelined on a raw connection. While those fill the queue, a
//! flood of `Stats` frames must shed deterministically.

use std::io::Write;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use drserve::proto::{self, Request, Response, ServeError, REQUEST_KIND, RESPONSE_KIND};
use drserve::{ClientError, RetryPolicy, ServeConfig, Server, SliceAt};
use minivm::{LiveEnv, Program, RoundRobin};
use pinplay::{record_whole_program, Pinball};
use slicer::{LocKey, SliceOptions};

/// Base Busy hint the config below advertises; a full queue scales it 5x.
const BASE_MS: u64 = 40;
const FULL_QUEUE_HINT_MS: u64 = 5 * BASE_MS;

/// One shard, a two-deep queue, no batching: the smallest server that
/// can be overloaded deterministically.
fn tiny_queue_config() -> ServeConfig {
    ServeConfig {
        shards: 1,
        queue_capacity: 2,
        batch_max: 1,
        retry_after_ms: BASE_MS,
        ..ServeConfig::default()
    }
}

fn recorded() -> (Arc<Program>, Pinball) {
    let program = workloads::parsec::blackscholes(800);
    let rec = record_whole_program(
        &program,
        &mut RoundRobin::new(7),
        &mut LiveEnv::new(1),
        5_000_000,
        "admission",
    )
    .expect("records");
    (program, rec.pinball)
}

/// A burst of `n` cold `ComputeSlice` frames for `session`, each with a
/// distinct options fingerprint so none can be answered from a cache.
/// The fingerprint is varied by pruning a distinct memory word the
/// workload never touches — the slice result is unchanged, but the
/// slice *and* index caches both miss, so every request pays a full
/// dependence-index build and reliably occupies the worker.
fn cold_slice_burst(session: u64, n: usize) -> Vec<u8> {
    let mut burst = Vec::new();
    for i in 0..n as u64 {
        let mut options = SliceOptions::default();
        options.prune_keys.insert(LocKey::Mem(0x00dc_0de0 + i));
        proto::write_message(
            &mut burst,
            REQUEST_KIND,
            &Request::ComputeSlice {
                session,
                at: SliceAt::Failure,
                options,
            },
        )
        .expect("encode slice request");
    }
    burst
}

#[test]
fn overload_sheds_typed_busy_and_answers_every_frame() {
    let (program, pinball) = recorded();
    let server = Server::new(tiny_queue_config());
    let mut setup = server.loopback_client();
    let up = setup.upload(&program, &pinball).expect("upload");
    let session = setup.open(up.digest).expect("open");

    // Four slow slices (capacity admits two, two shed) followed by a
    // flood of Stats frames that all arrive while the queue is full.
    const STATS_FLOOD: usize = 64;
    let mut burst = cold_slice_burst(session, 4);
    for _ in 0..STATS_FLOOD {
        proto::write_message(&mut burst, REQUEST_KIND, &Request::Stats).expect("encode stats");
    }
    let mut conn = server.loopback_connect();
    conn.write_all(&burst).expect("burst write");

    // Every frame gets exactly one reply, in request order — the read
    // loop completing is itself the no-hang/no-drop assertion.
    let mut slices = 0usize;
    let mut stats_ok = 0usize;
    let mut busy_hints: Vec<u64> = Vec::new();
    for _ in 0..4 + STATS_FLOOD {
        let reply: Response = proto::read_message(&mut conn, RESPONSE_KIND).expect("ordered reply");
        match reply {
            Response::Slice { cached, .. } => {
                assert!(!cached, "distinct fingerprints cannot hit the cache");
                slices += 1;
            }
            Response::Stats(_) => stats_ok += 1,
            Response::Error(ServeError::Busy { retry_after_ms }) => busy_hints.push(retry_after_ms),
            other => panic!("unexpected reply under overload: {other:?}"),
        }
    }

    assert_eq!(
        slices, 2,
        "the queue admits exactly queue_capacity requests"
    );
    assert_eq!(slices + stats_ok + busy_hints.len(), 4 + STATS_FLOOD);
    assert!(
        busy_hints.len() >= STATS_FLOOD,
        "the stats flood must shed while the slices hold the queue full \
         (got {} busy of {} frames)",
        busy_hints.len(),
        4 + STATS_FLOOD,
    );
    for hint in &busy_hints {
        assert_eq!(
            *hint, FULL_QUEUE_HINT_MS,
            "a shed at full depth carries the maximum (5x base) hint"
        );
    }

    let stats = server.stats();
    assert_eq!(stats.shed, busy_hints.len() as u64, "every shed is counted");
    assert_eq!(stats.shards.len(), 1);
    assert_eq!(
        stats.shards[0].depth, 0,
        "depth returns to zero once the backlog drains"
    );
    assert_eq!(
        stats.shards[0].peak_depth, 2,
        "depth never exceeded capacity"
    );
}

#[test]
fn client_retry_rides_out_overload_and_exhausts_when_bounded() {
    let (program, pinball) = recorded();
    let server = Server::new(tiny_queue_config());
    let mut setup = server.loopback_client();
    let up = setup.upload(&program, &pinball).expect("upload");
    let session = setup.open(up.digest).expect("open");

    // Fill the queue: two slices admitted and computing, two shed. The
    // burst's connection has a reader thread of its own, so wait until it
    // has submitted all four before the clients below ask.
    let mut conn = server.loopback_connect();
    conn.write_all(&cold_slice_burst(session, 4))
        .expect("burst write");
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().shed < 2 {
        assert!(
            Instant::now() < deadline,
            "the burst never filled the queue"
        );
        thread::sleep(Duration::from_millis(1));
    }

    // An impatient client exhausts its bounded budget while the queue is
    // still full and surfaces the typed error, hint intact.
    let mut impatient = server.loopback_client().with_retry(RetryPolicy::new(2, 1));
    let err = impatient
        .stats()
        .expect_err("bounded retry against a full queue must surface Busy");
    match err {
        ClientError::Server(ServeError::Busy { retry_after_ms }) => {
            assert_eq!(retry_after_ms, FULL_QUEUE_HINT_MS);
        }
        other => panic!("expected a typed Busy, got {other}"),
    }
    assert_eq!(
        impatient.wire_stats().busy_retries,
        2,
        "the client burns exactly its configured retry budget"
    );

    // A patient client sees Busy first, keeps retrying with capped
    // backoff, and is admitted as soon as a slice completes.
    let mut patient = server
        .loopback_client()
        .with_retry(RetryPolicy::new(30_000, 2));
    let stats = patient
        .stats()
        .expect("patient retry is eventually admitted");
    assert!(
        patient.wire_stats().busy_retries >= 1,
        "the patient client must have been told Busy at least once"
    );
    assert!(
        stats.shed >= 3,
        "sheds from the burst and both clients add up"
    );

    // The raw burst's replies arrive complete and in order: the two
    // admitted slices computed, the two over-capacity ones typed Busy.
    let mut replies = Vec::new();
    for _ in 0..4 {
        let reply: Response = proto::read_message(&mut conn, RESPONSE_KIND).expect("burst reply");
        replies.push(reply);
    }
    assert!(matches!(replies[0], Response::Slice { cached: false, .. }));
    assert!(matches!(replies[1], Response::Slice { cached: false, .. }));
    for reply in &replies[2..] {
        assert!(
            matches!(
                reply,
                Response::Error(ServeError::Busy {
                    retry_after_ms: FULL_QUEUE_HINT_MS
                })
            ),
            "over-capacity slices shed with the full-queue hint: {reply:?}"
        );
    }
}
