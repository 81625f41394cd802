//! Lifecycle of the blocking front end.
//!
//! What the connection loop promises: a stopped listener leaves accepted
//! connections served, dropping the server closes every live connection
//! (TCP and loopback) so nobody stays blocked on it, and a pipelined burst
//! that arrives in pieces is answered strictly in request order even when
//! its later requests finish first.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use drserve::proto::{self, Request, Response, REQUEST_KIND, RESPONSE_KIND};
use drserve::{ServeConfig, Server, SliceAt};
use minivm::{LiveEnv, Program, RoundRobin};
use pinplay::{record_whole_program, Pinball};
use slicer::SliceOptions;

fn recorded() -> (Arc<Program>, Pinball) {
    let program = workloads::parsec::blackscholes(200);
    let rec = record_whole_program(
        &program,
        &mut RoundRobin::new(7),
        &mut LiveEnv::new(1),
        5_000_000,
        "frontend-lifecycle",
    )
    .expect("records");
    (program, rec.pinball)
}

fn frame(request: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    proto::write_message(&mut buf, REQUEST_KIND, request).expect("encodes");
    buf
}

fn stats_round_trip<S: Read + Write>(stream: &mut S) {
    stream.write_all(&frame(&Request::Stats)).expect("write");
    let reply: Response = proto::read_message(stream, RESPONSE_KIND).expect("reply");
    assert!(matches!(reply, Response::Stats(_)), "got {reply:?}");
}

/// Blocks reading `stream` on another thread; the receiver yields what
/// the read returned once it does.
fn blocked_read<S: Read + Send + 'static>(mut stream: S) -> mpsc::Receiver<std::io::Result<usize>> {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let mut buf = [0u8; 64];
        let _ = tx.send(stream.read(&mut buf));
    });
    rx
}

#[test]
fn connected_clients_are_served_after_listener_shutdown() {
    let server = Server::new(ServeConfig::default());
    let handle = server.listen("127.0.0.1:0").expect("bind");
    let addr = handle.addr();
    let mut client = drserve::connect(addr).expect("connect");
    client.stats().expect("stats before shutdown");

    handle.shutdown();
    for _ in 0..3 {
        client.stats().expect("stats after shutdown");
    }
    assert!(
        TcpStream::connect(addr).is_err(),
        "the listener is gone after shutdown"
    );
}

#[test]
fn dropping_the_server_unblocks_tcp_and_loopback_readers() {
    let server = Server::new(ServeConfig::default());
    let handle = server.listen("127.0.0.1:0").expect("bind");

    let mut tcp = TcpStream::connect(handle.addr()).expect("connect");
    stats_round_trip(&mut tcp);
    let tcp_read = blocked_read(tcp);

    let mut pipe = server.loopback_connect();
    stats_round_trip(&mut pipe);
    let pipe_read = blocked_read(pipe);

    // Nothing arrives while the server lives.
    assert!(tcp_read.recv_timeout(Duration::from_millis(100)).is_err());
    assert!(pipe_read.recv_timeout(Duration::from_millis(100)).is_err());

    // Drop the server with its listener still up: the connections close
    // regardless. The drop runs on its own thread, so a drop that hangs
    // fails the deadline below instead of hanging the test.
    thread::spawn(move || drop(server));
    for (what, read) in [("tcp", tcp_read), ("loopback", pipe_read)] {
        match read.recv_timeout(Duration::from_secs(5)) {
            Ok(Ok(0)) | Ok(Err(_)) => {}
            Ok(Ok(n)) => panic!("{what}: read {n} unexpected bytes"),
            Err(_) => panic!("{what}: read still blocked 5 s after the server dropped"),
        }
    }
    handle.shutdown();
}

#[test]
fn pipelined_burst_in_pieces_is_answered_in_order() {
    let (program, pinball) = recorded();
    let server = Server::new(ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    });
    let handle = server.listen("127.0.0.1:0").expect("bind");
    let mut setup = server.loopback_client();
    let up = setup.upload(&program, &pinball).expect("upload");
    let session = setup.open(up.digest).expect("open");

    let slice = Request::ComputeSlice {
        session,
        at: SliceAt::Failure,
        options: SliceOptions::default(),
    };
    // A cold slice first, then requests that finish long before it (the
    // Stats round-robin across both shards), then the same slice warm.
    let script = [
        slice.clone(),
        Request::Stats,
        Request::Stats,
        Request::Stats,
        slice,
        Request::Stats,
    ];
    let burst: Vec<u8> = script.iter().flat_map(frame).collect();

    let mut tcp = TcpStream::connect(handle.addr()).expect("connect");
    tcp.set_nodelay(true).expect("nodelay");
    // Cut the burst mid-frame, not only on frame boundaries.
    let cuts = [0, 3, burst.len() / 3, burst.len() / 2 + 1, burst.len()];
    for pair in cuts.windows(2) {
        tcp.write_all(&burst[pair[0]..pair[1]])
            .expect("write piece");
        thread::sleep(Duration::from_millis(5));
    }

    let replies: Vec<Response> = (0..script.len())
        .map(|_| proto::read_message(&mut tcp, RESPONSE_KIND).expect("reply"))
        .collect();
    let kinds: Vec<&str> = replies
        .iter()
        .map(|r| match r {
            Response::Slice { cached: false, .. } => "cold",
            Response::Slice { cached: true, .. } => "warm",
            Response::Stats(_) => "stats",
            other => panic!("unexpected reply {other:?}"),
        })
        .collect();
    assert_eq!(
        kinds,
        ["cold", "stats", "stats", "stats", "warm", "stats"],
        "replies follow request order"
    );
    drop(tcp);
    handle.shutdown();
}
