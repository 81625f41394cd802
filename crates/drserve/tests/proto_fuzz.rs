//! Wire-protocol corruption fuzzing, mirroring the pinball container's
//! `corruption_fuzz` suite.
//!
//! Every single-bit flip and every truncation of a valid request frame
//! must surface as a typed [`RecvError`] from the frame reader — and,
//! pushed through a real [`Server`], as a [`ServeError::Malformed`]
//! response followed by a clean disconnect. Never a panic, never a
//! hang, never an allocation driven by attacker-controlled lengths.
//!
//! Slice replies get the same treatment one layer up: a reply whose frame
//! and CRC are intact but whose columns could not have come from
//! [`WireSlice::from_slice`] is a typed [`RecvError::Frame`], and every
//! canonical slice round-trips through the reply codec exactly.

use drserve::{
    proto, RecvError, Request, Response, ServeConfig, ServeError, Server, SliceAt, WireSlice,
    REQUEST_KIND, RESPONSE_KIND,
};
use minivm::Reg;
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::{Serialize, Value};
use slicer::{Criterion, LocKey, SliceOptions, SliceStats};

/// Runs the server's connection loop over canned input on the calling
/// thread (its writer is a scoped thread, so a panic in the server still
/// fails the test) and returns every byte the server wrote.
fn serve_script(server: &Server, input: &[u8]) -> Vec<u8> {
    let mut output = Vec::new();
    server.serve_stream(input, &mut output);
    output
}

fn sample_frame() -> Vec<u8> {
    let request = Request::ComputeSlice {
        session: 42,
        at: SliceAt::Here {
            key: Some(slicer::LocKey::Mem(0x1000)),
        },
        options: SliceOptions::default(),
    };
    let mut buf = Vec::new();
    proto::write_message(&mut buf, REQUEST_KIND, &request).expect("encodes");
    buf
}

/// Parses every response the server wrote to a scripted stream.
fn responses(output: &[u8]) -> Vec<Response> {
    let mut cursor = output;
    let mut out = Vec::new();
    loop {
        match proto::read_message::<_, Response>(&mut cursor, drserve::RESPONSE_KIND) {
            Ok(r) => out.push(r),
            Err(RecvError::Disconnected) => return out,
            Err(e) => panic!("server wrote an undecodable response: {e}"),
        }
    }
}

#[test]
fn every_single_bit_flip_is_a_typed_recv_error() {
    let frame = sample_frame();
    assert!(frame.len() > 32, "fuzz target too small to be interesting");
    for offset in 0..frame.len() {
        for bit in 0..8 {
            let mut bad = frame.clone();
            bad[offset] ^= 1 << bit;
            let mut cursor = &bad[..];
            let err = proto::read_message::<_, Request>(&mut cursor, REQUEST_KIND).expect_err(
                &format!("flip at byte {offset} bit {bit} must not decode cleanly"),
            );
            assert!(
                matches!(err, RecvError::Frame { .. }),
                "flip at byte {offset} bit {bit}: expected a frame error, got {err:?}"
            );
        }
    }
}

#[test]
fn every_truncation_is_disconnect_or_typed_frame_error() {
    let frame = sample_frame();
    for len in 0..frame.len() {
        let mut cursor = &frame[..len];
        let err = proto::read_message::<_, Request>(&mut cursor, REQUEST_KIND)
            .expect_err(&format!("truncation to {len} bytes must not decode"));
        if len == 0 {
            assert_eq!(err, RecvError::Disconnected, "EOF at boundary is clean");
        } else {
            assert!(
                matches!(err, RecvError::Frame { .. }),
                "truncation to {len} bytes: expected a frame error, got {err:?}"
            );
        }
    }
}

#[test]
fn server_answers_malformed_then_disconnects_for_every_flip() {
    let frame = sample_frame();
    let server = Server::new(ServeConfig::default());
    for offset in 0..frame.len() {
        for bit in 0..8 {
            let mut bad = frame.clone();
            bad[offset] ^= 1 << bit;
            let replies = responses(&serve_script(&server, &bad));
            assert_eq!(
                replies.len(),
                1,
                "flip at byte {offset} bit {bit}: exactly one response"
            );
            match &replies[0] {
                Response::Error(ServeError::Malformed { .. }) => {}
                // A flip in the *payload variant tags* can decode to a
                // different well-formed request; that is fine — the CRC
                // guards transport damage, not semantics — but the
                // response must still be typed, and here every decodable
                // mutation hits an unknown session.
                Response::Error(_) => {}
                other => panic!("flip at byte {offset} bit {bit}: unexpected {other:?}"),
            }
        }
    }
}

#[test]
fn random_garbage_never_panics_the_server() {
    let server = Server::new(ServeConfig::default());
    let mut rng = StdRng::seed_from_u64(0x5eed_cafe);
    for round in 0..200 {
        let len = rng.gen_range(0..512);
        let garbage: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        for reply in responses(&serve_script(&server, &garbage)) {
            assert!(
                matches!(reply, Response::Error(_)),
                "round {round}: garbage must only ever produce errors, got {reply:?}"
            );
        }
    }
}

#[test]
fn valid_request_then_garbage_answers_then_closes() {
    let server = Server::new(ServeConfig::default());
    let mut input = Vec::new();
    proto::write_message(&mut input, REQUEST_KIND, &Request::Stats).expect("encodes");
    input.extend_from_slice(b"\xff\xff not a frame \x00\x00");
    let replies = responses(&serve_script(&server, &input));
    assert_eq!(replies.len(), 2, "stats answer, then the malformed error");
    assert!(matches!(replies[0], Response::Stats(_)));
    assert!(matches!(
        replies[1],
        Response::Error(ServeError::Malformed { .. })
    ));
}

#[test]
fn oversized_length_is_rejected_before_allocation() {
    // A frame whose varint declares a multi-terabyte payload must be
    // refused up front; if the reader tried to allocate it first, this
    // test would abort rather than fail.
    let mut bad = vec![REQUEST_KIND];
    pinzip::varint::write_u64(&mut bad, 1 << 42);
    bad.extend_from_slice(&[0u8; 16]);
    let server = Server::new(ServeConfig::default());
    let replies = responses(&serve_script(&server, &bad));
    assert_eq!(replies.len(), 1);
    match &replies[0] {
        Response::Error(ServeError::Malformed { reason }) => {
            assert!(reason.contains("message cap"), "reason: {reason}");
        }
        other => panic!("expected Malformed, got {other:?}"),
    }
}

/// A canonical slice using every column: both key variants, a key shared
/// by two edges, two data edges with one user, and control edges.
fn sample_slice() -> WireSlice {
    let r1 = LocKey::Reg(0, Reg(1));
    let mem = LocKey::Mem(0x40);
    WireSlice {
        criterion: Criterion::Value { id: 12, key: mem },
        records: vec![3, 7, 9, 12],
        data_edges: vec![(7, 3, r1), (9, 7, mem), (12, 7, mem), (12, 9, r1)],
        control_edges: vec![(9, 3), (12, 9)],
        stats: SliceStats::default(),
    }
}

fn field_mut<'v>(value: &'v mut Value, name: &str) -> &'v mut Value {
    match value {
        Value::Map(entries) => {
            &mut entries
                .iter_mut()
                .find(|(k, _)| k == name)
                .unwrap_or_else(|| panic!("no field `{name}`"))
                .1
        }
        other => panic!("expected a map around `{name}`, got {other:?}"),
    }
}

/// Column `name` of an encoded slice.
fn column<'v>(slice: &'v mut Value, name: &str) -> &'v mut Vec<Value> {
    match field_mut(slice, name) {
        Value::Seq(items) => items,
        other => panic!("column `{name}` is not a sequence: {other:?}"),
    }
}

/// A well-framed, correctly checksummed `Response::Slice` reply for
/// [`sample_slice`] whose encoded slice went through `edit` first.
fn slice_reply_with(edit: impl FnOnce(&mut Value)) -> Vec<u8> {
    let mut value = Response::Slice {
        slice: sample_slice(),
        cached: false,
        micros: 0,
    }
    .to_value();
    edit(field_mut(field_mut(&mut value, "Slice"), "slice"));
    let mut frame = Vec::new();
    pinzip::frame::write_frame(
        &mut frame,
        RESPONSE_KIND,
        &pinzip::binser::value_to_vec(&value),
    );
    frame
}

fn set(slice: &mut Value, name: &str, at: usize, n: i128) {
    column(slice, name)[at] = Value::Int(n);
}

#[test]
fn inconsistent_slice_columns_are_typed_frame_errors() {
    // The untouched reply decodes, so each failure below is the edit's.
    match proto::read_message(&mut &slice_reply_with(|_| {})[..], RESPONSE_KIND) {
        Ok(Response::Slice { slice, .. }) => assert_eq!(slice, sample_slice()),
        other => panic!("the unedited reply must decode: {other:?}"),
    }
    // The sample's columns: records deltas [3, 4, 2, 3]; data users
    // [7, 2, 3, 0], defs [4, 2, 5, 3], keys [0, 1, 1, 0] over a two-key
    // table; control dependents [9, 3], branches [6, 3].
    type Edit = fn(&mut Value);
    let cases: [(&str, Edit); 17] = [
        ("data defs shorter than users", |s| {
            column(s, "data_defs").pop();
        }),
        ("data keys longer than users", |s| {
            column(s, "data_keys").push(Value::Int(0))
        }),
        ("control branches longer than dependents", |s| {
            column(s, "control_branches").push(Value::Int(1))
        }),
        ("key index past the table", |s| set(s, "data_keys", 1, 2)),
        ("huge key index", |s| {
            set(s, "data_keys", 0, u64::MAX.into())
        }),
        ("negative def", |s| set(s, "data_defs", 0, 8)),
        ("def beyond u64", |s| {
            set(s, "data_defs", 0, -i128::from(u64::MAX))
        }),
        ("negative branch", |s| set(s, "control_branches", 0, 10)),
        ("record id overflows", |s| {
            set(s, "records", 3, u64::MAX.into())
        }),
        ("user overflows", |s| {
            set(s, "data_users", 1, u64::MAX.into())
        }),
        ("descending records", |s| set(s, "records", 2, -1)),
        ("duplicate record", |s| set(s, "records", 2, 0)),
        ("descending data edges", |s| set(s, "data_users", 2, 0)),
        ("duplicate data edge", |s| {
            // A second copy of edge 0: same user, def and key.
            column(s, "data_users").insert(1, Value::Int(0));
            column(s, "data_defs").insert(1, Value::Int(4));
            column(s, "data_keys").insert(1, Value::Int(0));
        }),
        ("descending control edges", |s| {
            set(s, "control_deps", 1, 0);
            set(s, "control_branches", 1, 7);
        }),
        ("duplicate control edge", |s| {
            set(s, "control_deps", 1, 0);
            set(s, "control_branches", 1, 6);
        }),
        ("key table entry of the wrong shape", |s| {
            column(s, "keys")[0] = Value::Str("Reg".into())
        }),
    ];
    for (what, edit) in cases {
        match proto::read_message::<_, Response>(&mut &slice_reply_with(edit)[..], RESPONSE_KIND) {
            Err(RecvError::Frame { reason }) => {
                assert!(reason.contains("bad payload"), "{what}: {reason}")
            }
            other => panic!("{what}: expected a typed frame error, got {other:?}"),
        }
    }
}

/// Ids drawn small (dense, so edges collide and dedupe), near `u64::MAX`,
/// or anywhere.
fn id() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..64,
        (0u64..64).prop_map(|d| u64::MAX - d),
        any::<u64>(),
    ]
}

fn key() -> impl Strategy<Value = LocKey> {
    prop_oneof![
        (0u32..4, 0u8..16).prop_map(|(tid, r)| LocKey::Reg(tid, Reg(r))),
        prop_oneof![0u64..8, any::<u64>()].prop_map(LocKey::Mem),
    ]
}

/// A canonical slice: every collection sorted and deduplicated, as
/// [`WireSlice::from_slice`] makes it; any list may be empty.
fn canonical_slice() -> impl Strategy<Value = WireSlice> {
    let criterion = prop_oneof![
        id().prop_map(|id| Criterion::Record { id }),
        (id(), key()).prop_map(|(id, key)| Criterion::Value { id, key }),
    ];
    let stats = (0usize..1000, 0usize..1000, any::<u64>(), any::<u64>()).prop_map(
        |(blocks_visited, blocks_skipped, records_scanned, bypasses)| SliceStats {
            blocks_visited,
            blocks_skipped,
            records_scanned,
            bypasses,
        },
    );
    (
        criterion,
        proptest::collection::vec(id(), 0..24),
        proptest::collection::vec((id(), id(), key()), 0..24),
        proptest::collection::vec((id(), id()), 0..12),
        stats,
    )
        .prop_map(
            |(criterion, mut records, mut data_edges, mut control_edges, stats)| {
                records.sort_unstable();
                records.dedup();
                data_edges.sort_unstable();
                data_edges.dedup();
                control_edges.sort_unstable();
                control_edges.dedup();
                WireSlice {
                    criterion,
                    records,
                    data_edges,
                    control_edges,
                    stats,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn canonical_slices_round_trip_through_the_reply_codec(slice in canonical_slice()) {
        let reply = Response::Slice { slice: slice.clone(), cached: true, micros: 7 };
        let mut frame = Vec::new();
        proto::write_message(&mut frame, RESPONSE_KIND, &reply).expect("vec write");
        match proto::read_message(&mut &frame[..], RESPONSE_KIND) {
            Ok(Response::Slice { slice: back, cached: true, micros: 7 }) => {
                prop_assert_eq!(back, slice.clone())
            }
            other => return Err(TestCaseError::fail(format!("reply came back as {other:?}"))),
        }
        let back: WireSlice =
            pinzip::binser::from_slice(&slice.canonical_bytes()).expect("canonical bytes decode");
        prop_assert_eq!(back, slice);
    }
}
