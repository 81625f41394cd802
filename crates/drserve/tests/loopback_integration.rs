//! End-to-end protocol tests over the in-process loopback transport.
//!
//! The acceptance bar: eight concurrent clients, each opening a session,
//! seeking, and computing a slice, must all get results byte-identical to
//! a direct local [`DebugSession`] computation — and the server's pinball
//! store, session pool, and slice cache must show the expected sharing.

use std::sync::Arc;
use std::thread;

use drdebug::DebugSession;
use drserve::{ClientError, ServeConfig, ServeError, Server, SliceAt, WireSlice, WireStop};
use minivm::{LiveEnv, Program, RoundRobin};
use pinplay::{record_whole_program, Pinball, PinballContainer, PinballDigest};
use slicer::{Criterion, RecordId, SliceOptions};

fn recorded() -> (Arc<Program>, Pinball) {
    let program = workloads::parsec::blackscholes(3);
    let rec = record_whole_program(
        &program,
        &mut RoundRobin::new(7),
        &mut LiveEnv::new(1),
        2_000_000,
        "serve-integration",
    )
    .expect("records");
    (program, rec.pinball)
}

/// The slice the server should produce for `SliceAt::Failure`, computed
/// locally, in canonical bytes.
fn local_failure_slice(program: &Arc<Program>, pinball: &Pinball) -> Vec<u8> {
    let mut local = DebugSession::new(Arc::clone(program), pinball.clone());
    let id = local.slicer().failure_record().expect("trace non-empty").id;
    let slice = local.slice_criterion(Criterion::Record { id }, SliceOptions::default());
    WireSlice::from_slice(&slice).canonical_bytes()
}

#[test]
fn eight_concurrent_clients_get_byte_identical_slices() {
    let (program, pinball) = recorded();
    let expected = local_failure_slice(&program, &pinball);
    let instructions = pinball.logged_instructions();
    assert!(instructions > 100, "workload too small to be interesting");

    let server = Server::new(ServeConfig {
        max_sessions: 8,
        ..ServeConfig::default()
    });

    const CLIENTS: usize = 8;
    let results: Vec<(bool, Vec<u8>, Vec<u8>)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let mut client = server.loopback_client();
                let program = Arc::clone(&program);
                let pinball = &pinball;
                scope.spawn(move || {
                    let up = client.upload(&program, pinball).expect("upload");
                    assert_eq!(up.instructions, instructions);
                    let session = client.open(up.digest).expect("open");
                    let (_, position) = client.seek(session, instructions / 2).expect("seek");
                    assert!(position >= instructions / 2);
                    let first = client
                        .compute_slice(session, SliceAt::Failure, SliceOptions::default())
                        .expect("slice");
                    let second = client
                        .compute_slice(session, SliceAt::Failure, SliceOptions::default())
                        .expect("slice again");
                    assert!(
                        second.cached,
                        "repeat of an identical request must hit the cache"
                    );
                    client.close(session).expect("close");
                    (
                        up.deduped,
                        first.slice.canonical_bytes(),
                        second.slice.canonical_bytes(),
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (i, (_, first, second)) in results.iter().enumerate() {
        assert_eq!(
            first, &expected,
            "client {i}: server slice differs from local computation"
        );
        assert_eq!(second, &expected, "client {i}: cached slice differs");
    }

    // All eight uploads carried identical bytes: exactly one stored copy.
    let deduped = results.iter().filter(|(d, _, _)| *d).count();
    assert_eq!(deduped, CLIENTS - 1, "all but the first upload dedupe");

    let stats = server.stats();
    assert_eq!(stats.pinballs, 1, "one distinct pinball stored");
    assert_eq!(stats.sessions.opened_total, CLIENTS as u64);
    assert_eq!(stats.sessions.rejected_busy, 0);
    assert_eq!(
        stats.cache.hits + stats.cache.misses,
        2 * CLIENTS as u64,
        "every slice request consulted the cache"
    );
    assert!(
        stats.cache.hits >= CLIENTS as u64,
        "at least each client's second request hits ({} hits)",
        stats.cache.hits
    );
    assert_eq!(stats.errors, 0, "clean run: {stats}");
}

#[test]
fn distinct_criteria_share_one_index_build() {
    let (program, pinball) = recorded();

    // Eight *distinct* criteria spread across the trace — every one will
    // miss the slice cache, so only the shared dependence index can save
    // work. Compute the expected answers locally first.
    let mut local = DebugSession::new(Arc::clone(&program), pinball.clone());
    let ids: Vec<RecordId> = {
        let records = local.slicer().trace().records();
        let n = records.len();
        assert!(n >= 8, "workload too small: {n} records");
        (0..8).map(|i| records[n - 1 - i * (n / 8)].id).collect()
    };
    let expected: Vec<Vec<u8>> = ids
        .iter()
        .map(|&id| {
            let slice = local.slice_criterion(Criterion::Record { id }, SliceOptions::default());
            WireSlice::from_slice(&slice).canonical_bytes()
        })
        .collect();

    let server = Server::new(ServeConfig {
        max_sessions: 8,
        ..ServeConfig::default()
    });

    thread::scope(|scope| {
        let handles: Vec<_> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| {
                let mut client = server.loopback_client();
                let program = Arc::clone(&program);
                let pinball = &pinball;
                let expected = &expected[i];
                scope.spawn(move || {
                    let up = client.upload(&program, pinball).expect("upload");
                    let session = client.open(up.digest).expect("open");
                    let reply = client
                        .compute_slice(
                            session,
                            SliceAt::Criterion {
                                criterion: Criterion::Record { id },
                            },
                            SliceOptions::default(),
                        )
                        .expect("slice");
                    assert!(!reply.cached, "criterion {id} is distinct, cannot hit");
                    assert_eq!(
                        &reply.slice.canonical_bytes(),
                        expected,
                        "client {i}: server slice differs from local computation"
                    );
                    client.close(session).expect("close");
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
    });

    let stats = server.stats();
    assert_eq!(stats.errors, 0, "clean run: {stats}");
    assert_eq!(stats.cache.misses, 8, "every distinct criterion computes");
    assert_eq!(stats.cache.hits, 0);
    assert_eq!(
        stats.index_cache.misses, 1,
        "exactly one index build across all eight clients: {stats}"
    );
    assert_eq!(stats.index_cache.hits, 7, "the other seven reuse it");
    assert_eq!(stats.index_cache.entries, 1);
    assert!(stats.index_cache.bytes > 0, "built index is accounted");
}

#[test]
fn tcp_transport_carries_the_same_protocol() {
    let (program, pinball) = recorded();
    let expected = local_failure_slice(&program, &pinball);

    let server = Server::new(ServeConfig::default());
    let handle = server.listen("127.0.0.1:0").expect("bind");
    let mut client = drserve::connect(handle.addr()).expect("connect");

    let up = client.upload(&program, &pinball).expect("upload");
    assert!(!up.deduped);
    let session = client.open(up.digest).expect("open");
    let reply = client
        .compute_slice(session, SliceAt::Failure, SliceOptions::default())
        .expect("slice");
    assert_eq!(reply.slice.canonical_bytes(), expected);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.pinballs, 1);
    drop(client);
    handle.shutdown();
}

#[test]
fn typed_errors_for_misuse() {
    let (program, pinball) = recorded();
    let server = Server::new(ServeConfig::default());
    let mut client = server.loopback_client();

    // Unknown pinball digest.
    let missing = PinballDigest(0xdead_beef);
    match client.open(missing) {
        Err(ClientError::Server(ServeError::UnknownPinball { digest })) => {
            assert_eq!(digest, missing)
        }
        other => panic!("expected UnknownPinball, got {other:?}"),
    }

    // Unknown session.
    match client.run(999) {
        Err(ClientError::Server(ServeError::UnknownSession { session: 999 })) => {}
        other => panic!("expected UnknownSession, got {other:?}"),
    }

    // Damaged container: named chunk, typed error, connection stays usable.
    let mut bytes = PinballContainer::new(pinball.clone())
        .to_bytes()
        .expect("serializes");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    match client.upload_bytes(&program, bytes) {
        Err(ClientError::Server(ServeError::Pinball { chunk, reason, .. })) => {
            assert!(chunk.is_some(), "mid-file damage names a chunk: {reason}");
        }
        other => panic!("expected Pinball error, got {other:?}"),
    }

    // Slicing `Here` with no stop point is a BadRequest, not a panic.
    let up = client.upload(&program, &pinball).expect("upload");
    let session = client.open(up.digest).expect("open");
    match client.compute_slice(
        session,
        SliceAt::Here { key: None },
        SliceOptions::default(),
    ) {
        Err(ClientError::Server(ServeError::BadRequest { .. })) => {}
        other => panic!("expected BadRequest, got {other:?}"),
    }

    // The connection survived all four errors.
    let stats = client.stats().expect("stats still works");
    assert_eq!(stats.errors, 4);
}

/// A criterion naming a record the trace does not have is a typed
/// `BadRequest` on every path that slices or relogs — never a worker
/// panic that leaves its shard answering `Busy` for good.
#[test]
fn out_of_range_criterion_is_a_bad_request_and_the_shard_survives() {
    let (program, pinball) = recorded();
    let expected = local_failure_slice(&program, &pinball);
    // One shard, so every request below lands on the shard under test.
    let server = Server::new(ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    });
    let mut client = server.loopback_client();
    let up = client.upload(&program, &pinball).expect("upload");
    let session = client.open(up.digest).expect("open");
    let bogus = Criterion::Record { id: u64::MAX };
    let at = SliceAt::Criterion { criterion: bogus };
    let bad_request = |result: Result<(), ClientError>, what: &str| match result {
        Err(ClientError::Server(ServeError::BadRequest { reason })) => {
            assert!(reason.contains("not in the trace"), "{what}: {reason}");
        }
        other => panic!("{what}: expected BadRequest, got {other:?}"),
    };
    bad_request(
        client
            .compute_slice(session, at.clone(), SliceOptions::default())
            .map(drop),
        "ComputeSlice",
    );
    bad_request(
        client
            .relog(session, at.clone(), SliceOptions::default())
            .map(drop),
        "Relog",
    );
    bad_request(
        client
            .peer_slice(up.digest, bogus, SliceOptions::default())
            .map(drop),
        "PeerSlice",
    );
    bad_request(
        client
            .peer_relog(up.digest, bogus, SliceOptions::default())
            .map(drop),
        "PeerRelog",
    );
    // A failed relog caches nothing: asking again is still BadRequest.
    bad_request(
        client.relog(session, at, SliceOptions::default()).map(drop),
        "Relog again",
    );

    // The shard still answers, both cheap and real work.
    let stats = client.stats().expect("stats after the bad criteria");
    assert_eq!(stats.errors, 5);
    assert_eq!(stats.shed, 0, "nothing was answered Busy");
    let reply = client
        .compute_slice(session, SliceAt::Failure, SliceOptions::default())
        .expect("a valid slice on the same shard");
    assert_eq!(reply.slice.canonical_bytes(), expected);
}

/// Relog round-trip: the server turns a failure slice into a
/// content-addressed slice pinball; the digest opens and slices like any
/// upload, the container downloads and slices identically in a local
/// session, and a repeat relog answers from the single-flight cache.
#[test]
fn relog_round_trip_slices_identically_on_server_and_locally() {
    let (program, pinball) = recorded();
    let server = Server::new(ServeConfig::default());
    let mut client = server.loopback_client();
    let up = client.upload(&program, &pinball).expect("upload");
    let session = client.open(up.digest).expect("open");

    let relog = client
        .relog(session, SliceAt::Failure, SliceOptions::default())
        .expect("relog");
    assert!(!relog.cached, "cold relog builds");
    assert_eq!(relog.instructions, relog.kept);
    assert_eq!(
        relog.kept + relog.excluded,
        up.instructions,
        "every region instruction is either kept or excluded"
    );
    assert_ne!(relog.digest, up.digest, "the slice pinball is a new object");

    // The identical request again is served from the relog cache with the
    // same content digest.
    let again = client
        .relog(session, SliceAt::Failure, SliceOptions::default())
        .expect("relog again");
    assert!(again.cached, "repeat relog hits the cache");
    assert_eq!(again.digest, relog.digest);

    // The relogged digest opens and slices like any upload ...
    let sliced_session = client.open(relog.digest).expect("open slice pinball");
    let server_slice = client
        .compute_slice(sliced_session, SliceAt::Failure, SliceOptions::default())
        .expect("slice the slice pinball");

    // ... and the downloaded container slices identically locally.
    let bytes = client.fetch(relog.digest).expect("fetch slice pinball");
    let container = PinballContainer::from_bytes(&bytes).expect("downloaded container loads");
    assert_eq!(container.digest(), relog.digest, "content-addressed bytes");
    assert_eq!(container.pinball.logged_instructions(), relog.instructions);
    let mut local = DebugSession::with_container(Arc::clone(&program), container);
    let id = local.slicer().failure_record().expect("trace non-empty").id;
    let slice = local.slice_criterion(Criterion::Record { id }, SliceOptions::default());
    assert_eq!(
        WireSlice::from_slice(&slice).canonical_bytes(),
        server_slice.slice.canonical_bytes(),
        "server and local slices of the slice pinball are byte-identical"
    );

    let stats = server.stats();
    assert_eq!(stats.errors, 0, "clean run: {stats}");
    assert_eq!(stats.relog_cache.misses, 1, "one slice-pinball build");
    assert_eq!(stats.relog_cache.hits, 1, "the repeat request hit");
    assert!(stats.relog_cache.bytes > 0, "stored container is accounted");
    assert_eq!(
        stats.pinballs, 2,
        "the slice pinball is stored alongside the upload"
    );
    assert!(stats.op("relog").is_some(), "relog op is metered");
}

#[test]
fn seek_then_slice_here_matches_run_position() {
    let (program, pinball) = recorded();
    let server = Server::new(ServeConfig::default());
    let mut client = server.loopback_client();
    let up = client.upload(&program, &pinball).expect("upload");
    let session = client.open(up.digest).expect("open");

    let mid = pinball.logged_instructions() / 2;
    let (reason, position) = client.seek(session, mid).expect("seek to mid");
    assert!(
        matches!(reason, WireStop::Stepped { .. } | WireStop::ReplayStart),
        "mid-log seek lands on a stepped instruction, got {reason:?}"
    );
    assert!(position >= mid, "seek lands at or after the target");

    let here = client
        .compute_slice(
            session,
            SliceAt::Here { key: None },
            SliceOptions::default(),
        )
        .expect("slice here");
    assert!(!here.slice.is_empty());
}
