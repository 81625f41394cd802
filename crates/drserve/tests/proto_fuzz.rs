//! Wire-protocol corruption fuzzing, mirroring the pinball container's
//! `corruption_fuzz` suite.
//!
//! Every single-bit flip and every truncation of a valid request frame
//! must surface as a typed [`RecvError`] from the frame reader — and,
//! pushed through a real [`Server`], as a [`ServeError::Malformed`]
//! response followed by a clean disconnect. Never a panic, never a
//! hang, never an allocation driven by attacker-controlled lengths.

use drserve::{
    proto, RecvError, Request, Response, ServeConfig, ServeError, Server, SliceAt, REQUEST_KIND,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use slicer::SliceOptions;

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
