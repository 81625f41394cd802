//! drserve: a concurrent replay-and-slice server over DrDebug pinballs.
//!
//! The DrDebug workflow (Wang et al., CGO 2014) is *cyclic*: a developer
//! replays the same recorded region over and over, each iteration setting
//! breakpoints, seeking, and asking for dynamic slices. drserve turns
//! that loop into a service so many clients — interactive debuggers, CI
//! triage jobs, bisection scripts — share one server that holds the
//! expensive state:
//!
//! - **Pinball store** — uploads are content-addressed by
//!   [`PinballDigest`](pinplay::PinballDigest) (a fold over the
//!   container's chunk CRCs), so ten clients uploading the same recording
//!   store it once.
//! - **Sharded execution** ([`service::Service`]) — requests execute on N
//!   shared-nothing worker shards routed by pinball digest (session ids
//!   encode their home shard), behind bounded queues with queue-depth
//!   admission control: overload answers [`ServeError::Busy`] with a
//!   backlog-scaled retry hint ([`retry_hint`]) instead of queueing
//!   without bound, and batched `Stats` requests share one rollup and
//!   one encoded frame per batch.
//! - **Session pool** ([`pool::SessionManager`]) — live
//!   [`drdebug::DebugSession`]s are pooled *per shard* with LRU
//!   eviction, idle expiry, and a hard cap: when every slot is
//!   mid-request the server answers [`ServeError::Busy`] with a retry
//!   hint instead of queueing forever.
//! - **Slice cache** ([`cache::SliceCache`]) — slices are cached by
//!   (pinball digest, criterion, options fingerprint), so the second
//!   debug iteration that asks "why is this value wrong" gets its answer
//!   without re-collecting the trace. Entries are canonical
//!   ([`WireSlice`]): byte-identical to a local computation.
//! - **Index cache** ([`cache::IndexCache`]) — dependence indexes
//!   ([`slicer::DepIndex`]) are cached by (pinball digest, options
//!   fingerprint) with single-flight builds, so *distinct* criteria on
//!   one pinball — which all miss the slice cache — still share a single
//!   index build and answer in time proportional to the slice.
//! - **Wire protocol** ([`proto`]) — length-prefixed, CRC-checked frames
//!   reusing the pinball container's own [`pinzip::frame`] encoding.
//!   Malformed input yields a typed error or a clean disconnect, never a
//!   panic.
//!
//! Transports are interchangeable: TCP ([`Server::listen`] /
//! [`connect`]) and an in-process loopback pipe
//! ([`Server::loopback_client`]) run the same blocking connection loop —
//! a reader and a writer thread per connection — so tests and benchmarks
//! exercise the real framing, routing, and admission path without
//! sockets. Clients may pipeline: replies always arrive in request order.
//!
//! ```
//! use drserve::{Server, ServeConfig, SliceAt};
//! use minivm::{assemble, LiveEnv, RoundRobin};
//! use pinplay::record_whole_program;
//! use slicer::SliceOptions;
//! use std::sync::Arc;
//!
//! let program = Arc::new(assemble(r"
//!     .text
//!     .func main
//!         movi r1, 2
//!         addi r1, r1, 3
//!         halt
//!     .endfunc
//! ").unwrap());
//! let rec = record_whole_program(
//!     &program, &mut RoundRobin::new(8), &mut LiveEnv::new(0), 10_000, "doc",
//! ).unwrap();
//!
//! let server = Server::new(ServeConfig::default());
//! let mut client = server.loopback_client();
//! let up = client.upload(&program, &rec.pinball).unwrap();
//! let session = client.open(up.digest).unwrap();
//! let reply = client
//!     .compute_slice(session, SliceAt::Failure, SliceOptions::default())
//!     .unwrap();
//! assert!(!reply.cached && !reply.slice.is_empty());
//! let again = client
//!     .compute_slice(session, SliceAt::Failure, SliceOptions::default())
//!     .unwrap();
//! assert!(again.cached, "second identical request hits the cache");
//! assert_eq!(again.slice.canonical_bytes(), reply.slice.canonical_bytes());
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod cluster;
pub mod loopback;
pub mod metrics;
pub mod pool;
pub mod proto;
pub mod server;
pub mod service;
pub mod store;

pub use cache::RelogOutcome;
pub use client::{
    Client, ClientError, PeerMapReply, RelogReply, RetryPolicy, SliceReply, StreamAck, TailReply,
    Uploaded, WireStats,
};
pub use cluster::{FleetClient, FleetSession, HashRing};
pub use loopback::{pipe, LoopbackStream};
pub use proto::{
    CacheStats, ClusterStats, NodeInfo, OpStats, RecvError, Request, Response, ServeError,
    ServeStats, SessionId, SessionStats, ShardStats, SliceAt, WireBreakpoint, WireSlice, WireStop,
    MAX_MESSAGE, REQUEST_KIND, RESPONSE_KIND,
};
pub use server::{connect, ServeConfig, Server, ServerHandle};
pub use service::{retry_hint, Service};
pub use store::PinballStore;
