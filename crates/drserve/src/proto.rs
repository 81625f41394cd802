//! The drserve wire protocol: length-prefixed, checksummed, typed.
//!
//! Every message — request or response — is one [`pinzip::frame`] frame on
//! the stream:
//!
//! ```text
//! +------+----------------+------------+------------------------+
//! | kind | varint(c_len)  | crc32 (LE) | payload (c_len bytes)  |
//! | 1 B  | 1..10 B        | 4 B        | LZSS-compressed binser |
//! +------+----------------+------------+------------------------+
//! ```
//!
//! `kind` is [`REQUEST_KIND`] (`'Q'`) client→server and [`RESPONSE_KIND`]
//! (`'R'`) server→client; the payload is the [`pinzip::binser`] binary
//! encoding of [`Request`] or [`Response`] — the same record codec the v3
//! pinball container uses on disk, so large messages (pinball uploads,
//! slice responses) skip JSON text entirely. Reusing the pinball
//! container's framing means the same guarantees apply on the wire as on
//! disk: the CRC is verified before decompression, a flipped bit or
//! truncated tail surfaces as a typed [`RecvError`] naming what went
//! wrong — never a panic — and the reader bounds the declared length
//! ([`MAX_MESSAGE`]) before allocating.
//!
//! The protocol is strictly request/response: the client writes one
//! request frame, the server answers with exactly one response frame.
//! Errors travel as an ordinary [`Response::Error`] carrying a typed
//! [`ServeError`], so clients can distinguish backpressure
//! ([`ServeError::Busy`], with a retry hint) from misuse
//! ([`ServeError::UnknownSession`]) from damage
//! ([`ServeError::Pinball`], naming the damaged chunk).

use std::fmt;
use std::io::{Read, Write};

use serde::{Deserialize, Serialize};

use minivm::{Pc, Program, Tid};
use pinplay::PinballDigest;
use slicer::{Criterion, LocKey, RecordId, Slice, SliceOptions, SliceStats};

/// Frame kind tag for client→server messages (`'Q'`).
pub const REQUEST_KIND: u8 = b'Q';
/// Frame kind tag for server→client messages (`'R'`).
pub const RESPONSE_KIND: u8 = b'R';
/// Upper bound on one message's *compressed* payload. A frame declaring
/// more is rejected before any allocation — a four-byte length field must
/// never convince the server to reserve gigabytes.
pub const MAX_MESSAGE: usize = 64 << 20;

/// Server-assigned handle of one pooled debug session.
pub type SessionId = u64;

/// A client→server message.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Request {
    /// Store a pinball (container bytes, any supported version) and the
    /// program it replays. Identical pinballs — by content digest — dedupe
    /// server-side.
    UploadPinball {
        /// The program the pinball was recorded from.
        program: Program,
        /// Serialized container ([`pinplay::PinballContainer::to_bytes`];
        /// v1/v2/v3 auto-detect server-side).
        container: Vec<u8>,
    },
    /// Open a pooled [`drdebug::DebugSession`] over an uploaded pinball.
    OpenSession {
        /// Content digest returned by a prior upload.
        digest: PinballDigest,
    },
    /// Set a breakpoint in a session.
    Break {
        /// The session to mutate.
        session: SessionId,
        /// Program point to stop at.
        pc: Pc,
        /// Restrict to one thread (`None` = any).
        tid: Option<Tid>,
    },
    /// Continue replay until a stop event (breakpoint, trap, region end).
    Run {
        /// The session to advance.
        session: SessionId,
    },
    /// Seek the session to the state after `target` retired instructions.
    Seek {
        /// The session to reposition.
        session: SessionId,
        /// Target position in retired instructions.
        target: u64,
    },
    /// Compute (or fetch from the content-addressed cache) a dynamic slice.
    ComputeSlice {
        /// The session whose pinball is sliced.
        session: SessionId,
        /// Where to anchor the slice.
        at: SliceAt,
        /// Traversal options; part of the cache key via
        /// [`SliceOptions::fingerprint`].
        options: SliceOptions,
    },
    /// Relog a dynamic slice into a *slice pinball*: a v3 container that
    /// replays only the slice statements (plus forced synchronization).
    /// The result is stored server-side under its own content digest —
    /// downloadable with [`Request::FetchPinball`] and sliceable like any
    /// upload — and cached by (pinball digest, criterion, options
    /// fingerprint) with single-flight dedup.
    Relog {
        /// The session whose pinball is relogged.
        session: SessionId,
        /// Where to anchor the slice being relogged.
        at: SliceAt,
        /// Traversal options; part of the cache key via
        /// [`SliceOptions::fingerprint`].
        options: SliceOptions,
    },
    /// Download a stored pinball container (an upload or a relogged slice
    /// pinball) as serialized bytes.
    FetchPinball {
        /// Content digest of the container to fetch.
        digest: PinballDigest,
    },
    /// List the breakpoints set in a session. A small, read-only request —
    /// like [`Request::Stats`] it is batch-drained by the worker shard
    /// (several queued requests answered per channel wakeup).
    BreakList {
        /// The session to inspect.
        session: SessionId,
    },
    /// Fetch server metrics: per-op latency, cache hit rate, pool state.
    Stats,
    /// Close a session, returning its pool slot.
    CloseSession {
        /// The session to close.
        session: SessionId,
    },
    /// Ask whether a pinball with this content digest is already stored —
    /// the digest-first dedupe probe. A client that hashes its container
    /// locally asks this before paying to send the body; a `known` answer
    /// means the upload can be skipped entirely.
    ProbePinball {
        /// Content digest the client is about to upload.
        digest: PinballDigest,
    },
    /// Open — or, after a reconnect, resume — a streaming upload. The
    /// server answers [`Response::StreamAck`] with the high-water mark,
    /// so a resuming client learns which chunks to resend. Every op
    /// naming this `stream` id routes to the same shard.
    BeginStream {
        /// Client-chosen stream id (the upload's digest makes a good,
        /// resumable choice); routing key for every stream op.
        stream: u64,
        /// The program the streamed pinball replays.
        program: Program,
        /// The container's content digest, when the client knows it up
        /// front. A match against the store short-circuits the upload:
        /// the server answers with `already_have` set and the client
        /// skips the body.
        expect_digest: Option<PinballDigest>,
    },
    /// Append one chunk of container bytes at sequence `seq`. Chunks may
    /// arrive out of order (buffered until the gap fills) and duplicates
    /// below the high-water mark are acknowledged idempotently, so a
    /// client may blindly resend after a reconnect.
    AppendChunk {
        /// The stream to extend.
        stream: u64,
        /// Zero-based chunk sequence number
        /// ([`pinplay::StreamWriter::chunks`] order).
        seq: u32,
        /// Raw container bytes of this chunk.
        bytes: Vec<u8>,
    },
    /// Seal a stream: absorb the footer (index frame + `PBIX` trailer),
    /// verify the reassembled container, and publish it into the
    /// content-addressed store under its digest — from then on it is an
    /// ordinary upload, openable with [`Request::OpenSession`].
    SealStream {
        /// The stream to seal.
        stream: u64,
        /// Footer bytes ([`pinplay::StreamWriter::footer`]).
        footer: Vec<u8>,
    },
    /// Report a stream's absorption state without changing it — the
    /// reconnect probe a resuming uploader sends first.
    StreamStatus {
        /// The stream to inspect.
        stream: u64,
    },
    /// Live-tail progress of a stream: chunks and instructions absorbed
    /// so far, and the published digest once sealed. A second process
    /// polls this to follow a recording while it is still uploading.
    Tail {
        /// The stream to follow.
        stream: u64,
    },
    /// Compute a dynamic slice over the prefix of a stream absorbed so
    /// far — without waiting for the seal. The server maintains the
    /// dependence index incrementally ([`slicer::DepIndex::append`]), so
    /// repeated slices as the stream grows pay only for the new suffix.
    SliceStream {
        /// The stream whose absorbed prefix is sliced.
        stream: u64,
        /// Where to anchor the slice ([`SliceAt::Here`] is meaningless
        /// without a stopped session and is rejected).
        at: SliceAt,
        /// Traversal options; changing them mid-stream rebuilds the
        /// incremental index.
        options: SliceOptions,
    },
    /// One anti-entropy round of the fleet's gossip protocol: the sender
    /// offers its whole peer view (including itself, so first contact is
    /// also the introduction) and the receiver merges it and answers
    /// [`Response::PeerView`] with *its* merged view — state flows both
    /// ways in one exchange. Sent between fleet nodes, never by ordinary
    /// clients.
    Gossip {
        /// Every node the sender knows about, liveness and store summary
        /// included.
        view: Vec<NodeInfo>,
    },
    /// Fetch the fleet's peer map and ring parameters. A digest-aware
    /// client asks this once, builds the same consistent-hash ring the
    /// servers use, and from then on sends every digest-keyed request
    /// straight to its owner — zero forwarding hops on the hot path.
    /// A node outside any fleet answers with an empty view.
    PeerMap,
    /// Peer-to-peer slice: compute (or serve from cache) a slice for a
    /// digest this node *owns*, with no session handle in play. Sent by a
    /// non-owner forwarding a client's `ComputeSlice`; always executed
    /// locally by the receiver — never re-forwarded, so transient ring
    /// disagreement cannot create forwarding cycles.
    PeerSlice {
        /// The owned pinball to slice.
        digest: PinballDigest,
        /// The already-resolved criterion (the forwarding node resolves
        /// `SliceAt` against its local session first).
        criterion: Criterion,
        /// Traversal options; part of the cache key.
        options: SliceOptions,
    },
    /// Peer-to-peer relog: like [`Request::PeerSlice`] but producing (or
    /// serving from cache) a slice pinball. Never re-forwarded.
    PeerRelog {
        /// The owned pinball to relog.
        digest: PinballDigest,
        /// The already-resolved criterion.
        criterion: Criterion,
        /// Traversal options; part of the cache key.
        options: SliceOptions,
    },
    /// Peer-to-peer fetch of a stored pinball *with its program* — what a
    /// node needs to open sessions locally after pulling a digest from its
    /// owner (peer-cache fill, or a rejoining node re-warming). Answered
    /// from the local store only, never re-forwarded.
    FetchStored {
        /// Content digest of the container to fetch.
        digest: PinballDigest,
    },
    /// Peer-to-peer store probe: like [`Request::ProbePinball`] but
    /// answered from the receiver's local store only — never re-forwarded,
    /// so transfer-dedupe probes between nodes cannot cycle.
    PeerProbe {
        /// Content digest to look up.
        digest: PinballDigest,
    },
}

impl Request {
    /// Short operation name, used as the metrics key.
    pub fn op(&self) -> &'static str {
        match self {
            Request::UploadPinball { .. } => "upload",
            Request::OpenSession { .. } => "open",
            Request::Break { .. } => "break",
            Request::Run { .. } => "run",
            Request::Seek { .. } => "seek",
            Request::ComputeSlice { .. } => "slice",
            Request::Relog { .. } => "relog",
            Request::FetchPinball { .. } => "fetch",
            Request::BreakList { .. } => "breaklist",
            Request::Stats => "stats",
            Request::CloseSession { .. } => "close",
            Request::ProbePinball { .. } => "probe",
            Request::BeginStream { .. } => "beginstream",
            Request::AppendChunk { .. } => "appendchunk",
            Request::SealStream { .. } => "sealstream",
            Request::StreamStatus { .. } => "streamstatus",
            Request::Tail { .. } => "tail",
            Request::SliceStream { .. } => "slicestream",
            Request::Gossip { .. } => "gossip",
            Request::PeerMap => "peermap",
            Request::PeerSlice { .. } => "peerslice",
            Request::PeerRelog { .. } => "peerrelog",
            Request::FetchStored { .. } => "fetchstored",
            Request::PeerProbe { .. } => "peerprobe",
        }
    }
}

/// One fleet node's liveness and store summary, as exchanged by gossip
/// and served in [`Response::PeerView`].
///
/// Merge precedence when two views disagree about a node: a higher
/// `incarnation` (chosen fresh at each process start) wins outright — how
/// a restarted node replaces its dead former self. Within one
/// incarnation, a higher `heartbeat` is fresher evidence and its `alive`
/// flag is adopted; at equal heartbeats a dead claim sticks (only
/// heartbeat progress, which a truly dead node cannot make, revives).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeInfo {
    /// The address the node advertises (and listens on).
    pub addr: String,
    /// Process-lifetime nonce; a restart picks a strictly higher one.
    pub incarnation: u64,
    /// Monotonic liveness counter, bumped once per gossip round.
    pub heartbeat: u64,
    /// Whether the fleet currently believes the node is serving. Only
    /// alive nodes own ring segments.
    pub alive: bool,
    /// Distinct pinballs in the node's content-addressed store — the
    /// gossiped store summary.
    pub pinballs: u64,
}

/// Where a [`Request::ComputeSlice`] anchors.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum SliceAt {
    /// The failure point: the last record of the trace.
    Failure,
    /// The session's current stop point — `None` slices on everything the
    /// stopped statement used, `Some(key)` on one location's value.
    Here {
        /// The location to explain, if any.
        key: Option<LocKey>,
    },
    /// An explicit criterion (record id already known to the client).
    Criterion {
        /// The criterion to slice for.
        criterion: Criterion,
    },
}

/// A server→client message.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Response {
    /// Upload accepted (or deduped against an identical prior upload).
    Uploaded {
        /// Content digest — the handle for [`Request::OpenSession`].
        digest: PinballDigest,
        /// Instructions the pinball's replay retires.
        instructions: u64,
        /// Whether an identical pinball was already stored.
        deduped: bool,
    },
    /// Session opened.
    SessionOpened {
        /// Handle for subsequent session-scoped requests.
        session: SessionId,
    },
    /// Breakpoint set.
    BreakpointSet {
        /// Breakpoint id within the session.
        id: u32,
    },
    /// The session stopped (after [`Request::Run`] or [`Request::Seek`]).
    Stopped {
        /// Why it stopped.
        reason: WireStop,
        /// Instructions retired at the stop.
        position: u64,
    },
    /// A computed (or cached) slice.
    Slice {
        /// The slice in canonical wire form.
        slice: WireSlice,
        /// Whether the content-addressed cache served it.
        cached: bool,
        /// Server-side time spent answering, in microseconds.
        micros: u64,
    },
    /// A slice pinball was produced (or served from the relog cache).
    Relogged {
        /// Content digest of the slice pinball — open it with
        /// [`Request::OpenSession`] or download it with
        /// [`Request::FetchPinball`].
        digest: PinballDigest,
        /// Instructions the slice pinball's replay retires.
        instructions: u64,
        /// Instructions kept by the relog (slice statements + forced
        /// synchronization); always equals `instructions`.
        kept: u64,
        /// Instructions of the original region the relog skipped.
        excluded: u64,
        /// Whether the relog cache served it without rebuilding.
        cached: bool,
        /// Server-side time spent answering, in microseconds.
        micros: u64,
    },
    /// The breakpoints currently set in a session.
    Breakpoints {
        /// The session that was inspected.
        session: SessionId,
        /// Every breakpoint, ascending by id.
        breakpoints: Vec<WireBreakpoint>,
    },
    /// Serialized container bytes for a [`Request::FetchPinball`].
    PinballData {
        /// The digest that was fetched.
        digest: PinballDigest,
        /// Container bytes ([`pinplay::PinballContainer::to_bytes`]).
        container: Vec<u8>,
    },
    /// Server statistics snapshot.
    Stats(ServeStats),
    /// Session closed.
    Closed {
        /// The session that was closed.
        session: SessionId,
    },
    /// Answer to [`Request::ProbePinball`].
    Probed {
        /// The digest that was probed.
        digest: PinballDigest,
        /// Whether the store already holds a pinball with this digest.
        known: bool,
    },
    /// Absorption state of a streaming upload — the answer to
    /// [`Request::BeginStream`], [`Request::AppendChunk`], and
    /// [`Request::StreamStatus`].
    StreamAck {
        /// The stream this describes.
        stream: u64,
        /// High-water mark: every chunk with `seq < next_seq` has been
        /// absorbed contiguously. A resuming client resends from here.
        next_seq: u32,
        /// Out-of-order chunks buffered beyond a gap, ascending by seq —
        /// a resuming client skips these when filling the gap.
        pending: Vec<u32>,
        /// Replay events decoded from the absorbed prefix.
        events: u64,
        /// Set on a [`Request::BeginStream`] whose `expect_digest`
        /// matched a stored pinball: the body need not be sent.
        already_have: bool,
    },
    /// Live-tail progress — the answer to [`Request::Tail`].
    TailUpdate {
        /// The stream this describes.
        stream: u64,
        /// Contiguous chunks absorbed (the high-water mark).
        chunks: u32,
        /// Replay events decoded from the absorbed prefix.
        events: u64,
        /// Instructions the absorbed prefix retires when replayed.
        instructions: u64,
        /// Total events the sealed container will hold (from the
        /// container header), or 0 before the header chunk arrives.
        expected_events: u64,
        /// Whether the stream has been sealed and published.
        sealed: bool,
        /// The published content digest, once sealed.
        digest: Option<PinballDigest>,
    },
    /// The node's merged fleet view — the answer to both
    /// [`Request::Gossip`] and [`Request::PeerMap`]. Empty (`self_addr`
    /// blank, no nodes) on a node outside any fleet.
    PeerView {
        /// The answering node's advertised address.
        self_addr: String,
        /// Virtual nodes per member on the consistent-hash ring — a
        /// client must build its ring with the same count to agree on
        /// ownership.
        virtual_nodes: u64,
        /// Every known node, the answerer included.
        nodes: Vec<NodeInfo>,
    },
    /// The request names a digest owned by another fleet node and must be
    /// re-sent there — the answer to a [`Request::BeginStream`] whose
    /// `expect_digest` hashes to a different owner. Streams transfer
    /// chunk-by-chunk state, so they start at the owner rather than being
    /// forwarded frame-by-frame.
    Redirect {
        /// Advertised address of the owning node.
        addr: String,
    },
    /// Program plus container bytes for a [`Request::FetchStored`] — what
    /// a peer needs to install the pinball in its own store and open
    /// sessions over it.
    StoredData {
        /// The digest that was fetched.
        digest: PinballDigest,
        /// The program the pinball replays.
        program: Program,
        /// Container bytes ([`pinplay::PinballContainer::to_bytes`]).
        container: Vec<u8>,
    },
    /// The request failed; the connection stays usable (except after
    /// [`ServeError::Malformed`], which is followed by disconnect because
    /// framing may be out of sync).
    Error(ServeError),
}

/// One breakpoint in serializable form — the payload of
/// [`Response::Breakpoints`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireBreakpoint {
    /// Breakpoint id within the session.
    pub id: u32,
    /// Program point it stops at.
    pub pc: Pc,
    /// Thread restriction (`None` = any thread).
    pub tid: Option<Tid>,
    /// Disabled breakpoints are kept but never hit.
    pub enabled: bool,
}

/// Why a session stopped — [`drdebug::StopReason`] in serializable form.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum WireStop {
    /// A breakpoint was hit.
    Breakpoint {
        /// Breakpoint id.
        id: u32,
        /// Thread that hit it.
        tid: Tid,
        /// The breakpoint's pc.
        pc: Pc,
    },
    /// A watchpoint was hit.
    Watchpoint {
        /// Watchpoint id.
        id: u32,
        /// Writing thread.
        tid: Tid,
        /// The writing instruction's pc.
        pc: Pc,
        /// Value written.
        value: i64,
    },
    /// The session is at the region entry.
    ReplayStart,
    /// One instruction retired (seek/step landings).
    Stepped {
        /// Thread that stepped.
        tid: Tid,
        /// The stepped instruction's pc.
        pc: Pc,
    },
    /// The replay log is exhausted.
    ReplayEnd,
    /// The recorded trap reproduced.
    Trapped {
        /// Human-readable trap description.
        error: String,
    },
}

impl From<drdebug::StopReason> for WireStop {
    fn from(r: drdebug::StopReason) -> WireStop {
        use drdebug::StopReason as S;
        match r {
            S::Breakpoint { id, tid, pc } => WireStop::Breakpoint { id, tid, pc },
            S::Watchpoint { id, tid, pc, value } => WireStop::Watchpoint { id, tid, pc, value },
            S::ReplayStart => WireStop::ReplayStart,
            S::Stepped { tid, pc } => WireStop::Stepped { tid, pc },
            S::ReplayEnd => WireStop::ReplayEnd,
            S::Trapped(e) => WireStop::Trapped {
                error: format!("{e:?}"),
            },
        }
    }
}

/// A dynamic slice in canonical wire form: every collection sorted, so two
/// computations of the same slice serialize byte-identically regardless of
/// traversal order or hash-set iteration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireSlice {
    /// The criterion the slice was computed for.
    pub criterion: Criterion,
    /// Included record ids, ascending.
    pub records: Vec<RecordId>,
    /// Data-dependence edges `(user, def, key)`, sorted.
    pub data_edges: Vec<(RecordId, RecordId, LocKey)>,
    /// Control-dependence edges `(dependent, branch)`, sorted.
    pub control_edges: Vec<(RecordId, RecordId)>,
    /// Traversal statistics of the compute that produced this slice. On a
    /// cache hit these describe the *original* compute.
    pub stats: SliceStats,
}

impl WireSlice {
    /// Canonicalizes a freshly computed [`Slice`].
    pub fn from_slice(slice: &Slice) -> WireSlice {
        let mut records: Vec<RecordId> = slice.records.iter().copied().collect();
        records.sort_unstable();
        let mut data_edges: Vec<(RecordId, RecordId, LocKey)> = slice
            .data_edges
            .iter()
            .map(|e| (e.user, e.def, e.key))
            .collect();
        data_edges.sort_unstable();
        data_edges.dedup();
        let mut control_edges = slice.control_edges.clone();
        control_edges.sort_unstable();
        control_edges.dedup();
        WireSlice {
            criterion: slice.criterion,
            records,
            data_edges,
            control_edges,
            stats: slice.stats,
        }
    }

    /// The canonical byte encoding — what "byte-identical slice results"
    /// means across server and local computation. Uses the same
    /// [`pinzip::binser`] codec as the wire frames; the encoding is
    /// deterministic (interned strings in first-appearance order, sorted
    /// collections), so equal slices encode to equal bytes.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        pinzip::binser::to_vec(self)
    }

    /// Number of statement instances in the slice.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the slice is empty (it never is: the criterion is included).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// A typed protocol-level failure.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServeError {
    /// The request frame or its payload could not be decoded. The server
    /// answers with this and then disconnects (framing may be out of sync).
    Malformed {
        /// What failed to decode.
        reason: String,
    },
    /// No pinball with this digest has been uploaded.
    UnknownPinball {
        /// The digest that missed.
        digest: PinballDigest,
    },
    /// No such session (never opened, closed, or evicted).
    UnknownSession {
        /// The missing session id.
        session: SessionId,
    },
    /// No streaming upload with this id exists on its shard (never begun,
    /// or the server restarted). Resume by re-sending
    /// [`Request::BeginStream`] and every chunk.
    UnknownStream {
        /// The missing stream id.
        stream: u64,
    },
    /// The pool is at capacity with every session in use — backpressure,
    /// not a queue. Retry after the hinted delay.
    Busy {
        /// Suggested client back-off in milliseconds.
        retry_after_ms: u64,
    },
    /// The uploaded pinball container is damaged or unreadable.
    Pinball {
        /// Damaged frame ordinal, when the damage is chunk-localized.
        chunk: Option<u64>,
        /// What the damaged frame holds (`"header"`, `"events"`, ...).
        kind: Option<String>,
        /// Decoder message.
        reason: String,
    },
    /// The request is well-formed but cannot be served (e.g. slicing
    /// `Here` while not stopped anywhere).
    BadRequest {
        /// Why the request cannot be served.
        reason: String,
    },
    /// A fleet forward failed in flight: the digest's owner was
    /// unreachable or its connection broke mid-exchange. Retryable, like
    /// [`ServeError::Busy`]: the forward either never executed or its
    /// answer was lost, and once gossip reroutes ownership a resend
    /// lands on a live owner.
    Peer {
        /// The owner that could not be reached.
        addr: String,
        /// What failed (connect, timeout, stream error).
        reason: String,
    },
}

impl From<pinplay::PinballError> for ServeError {
    fn from(e: pinplay::PinballError) -> ServeError {
        match e {
            pinplay::PinballError::Chunk {
                chunk,
                kind,
                reason,
            } => ServeError::Pinball {
                chunk: Some(chunk as u64),
                kind: Some(kind.to_string()),
                reason,
            },
            other => ServeError::Pinball {
                chunk: None,
                kind: None,
                reason: other.to_string(),
            },
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Malformed { reason } => write!(f, "malformed request: {reason}"),
            ServeError::UnknownPinball { digest } => write!(f, "unknown pinball {digest}"),
            ServeError::UnknownSession { session } => write!(f, "unknown session {session}"),
            ServeError::UnknownStream { stream } => write!(f, "unknown stream {stream}"),
            ServeError::Busy { retry_after_ms } => {
                write!(f, "server busy; retry after {retry_after_ms} ms")
            }
            ServeError::Pinball {
                chunk,
                kind,
                reason,
            } => match (chunk, kind) {
                (Some(c), Some(k)) => write!(f, "bad pinball: chunk {c} ({k}) damaged: {reason}"),
                _ => write!(f, "bad pinball: {reason}"),
            },
            ServeError::BadRequest { reason } => write!(f, "bad request: {reason}"),
            ServeError::Peer { addr, reason } => {
                write!(f, "peer {addr} unreachable: {reason} (retryable)")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Accumulated latency of one operation kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpStats {
    /// Requests observed.
    pub count: u64,
    /// Total handling time, microseconds.
    pub total_micros: u64,
    /// Worst single request, microseconds.
    pub max_micros: u64,
}

impl OpStats {
    /// Mean handling time in microseconds (0 when no requests).
    pub fn mean_micros(&self) -> u64 {
        self.total_micros.checked_div(self.count).unwrap_or(0)
    }
}

/// Slice-cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Entries evicted to stay within capacity.
    pub evictions: u64,
    /// Entries currently cached.
    pub entries: u64,
    /// Canonical bytes currently cached.
    pub bytes: u64,
}

impl CacheStats {
    /// Hits per lookup, in percent (0 when no lookups).
    pub fn hit_rate_percent(&self) -> u64 {
        (self.hits * 100)
            .checked_div(self.hits + self.misses)
            .unwrap_or(0)
    }
}

/// Session-pool counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionStats {
    /// Sessions currently open.
    pub open: u64,
    /// Sessions opened over the server's lifetime.
    pub opened_total: u64,
    /// Sessions evicted (least recently used) to admit new ones.
    pub evicted_lru: u64,
    /// Sessions expired by the idle timeout.
    pub expired_idle: u64,
    /// Opens rejected with [`ServeError::Busy`].
    pub rejected_busy: u64,
}

/// Fleet counters: gossip, forwarding, and peer-cache activity. In
/// [`ServeStats::cluster`] the forwarded-op fields are exact sums over
/// the per-shard entries ([`ShardStats::cluster`]); the membership and
/// gossip fields (`nodes_alive`, `nodes_dead`, `gossip_rounds`) are
/// node-global and attached only to the rollup.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterStats {
    /// Whether this node is part of a fleet. Always `false` in per-shard
    /// entries.
    pub enabled: bool,
    /// Fleet members currently believed alive, this node included.
    pub nodes_alive: u64,
    /// Known members currently believed dead (seeds never heard from
    /// included).
    pub nodes_dead: u64,
    /// Anti-entropy gossip rounds completed.
    pub gossip_rounds: u64,
    /// Requests forwarded to a digest's owner (slice, relog, upload,
    /// probe, peer fetches excluded — those are `peer_fetches`).
    pub forwards: u64,
    /// Forwards that failed in flight and surfaced as
    /// [`ServeError::Peer`].
    pub forward_errors: u64,
    /// `BeginStream` requests answered with [`Response::Redirect`]
    /// because the expected digest belongs to another node.
    pub redirects: u64,
    /// Digest-keyed requests for *remotely owned* digests answered from
    /// this node's local caches — repeat questions that never crossed the
    /// wire again.
    pub peer_cache_hits: u64,
    /// Containers pulled from peers into the local store (fetch-through
    /// on open/fetch, and re-warm after a rejoin).
    pub peer_fetches: u64,
    /// Containers pushed to their owner (a sealed stream publishing from
    /// a non-owner node).
    pub peer_pushes: u64,
}

/// One worker shard's private counters. The server routes every request
/// to a shard by pinball digest (or session id, which encodes its shard);
/// each shard owns its own session pool, slice cache, index cache, relog
/// cache, and metrics, so these numbers are contention-free to collect.
/// The `Stats` op rolls all shards up into one [`ServeStats`] and attaches
/// the per-shard breakdown in [`ServeStats::shards`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardStats {
    /// Shard index (`0..shards`).
    pub shard: u64,
    /// Requests this shard executed (including errors).
    pub requests: u64,
    /// Requests this shard answered with [`Response::Error`].
    pub errors: u64,
    /// Requests load-shed at admission with [`ServeError::Busy`] because
    /// this shard's queue was at capacity. Shed requests are rejected at
    /// submit time and never enter the queue; they are counted in
    /// `requests`/`errors` too.
    pub shed: u64,
    /// Queue depth (admitted, not yet completed) at snapshot time.
    pub depth: u64,
    /// Highest queue depth ever observed.
    pub peak_depth: u64,
    /// Batches drained from the queue (each batch is one channel wakeup
    /// answering up to `batch_max` requests).
    pub batches: u64,
    /// Session-pool counters of this shard.
    pub sessions: SessionStats,
    /// Slice-cache counters of this shard.
    pub cache: CacheStats,
    /// Dependence-index cache counters of this shard.
    pub index_cache: CacheStats,
    /// Relog-cache counters of this shard.
    pub relog_cache: CacheStats,
    /// Fleet forwarding counters of this shard (`enabled` and the
    /// node-global gossip fields stay zero here).
    pub cluster: ClusterStats,
}

/// One snapshot of the server's metrics — the payload of
/// [`Response::Stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeStats {
    /// Microseconds since the server started.
    pub uptime_micros: u64,
    /// Total requests handled (including errors).
    pub requests: u64,
    /// Requests answered with [`Response::Error`].
    pub errors: u64,
    /// Per-operation latency, keyed by [`Request::op`] name.
    pub per_op: Vec<(String, OpStats)>,
    /// Slice-cache counters.
    pub cache: CacheStats,
    /// Dependence-index cache counters. A miss is one index *build*; hits
    /// are queries (any criterion, same pinball and options) answered by
    /// an already-built index.
    pub index_cache: CacheStats,
    /// Relog-cache counters. A miss is one slice-pinball build; hits are
    /// repeat relog requests (same pinball, criterion, and options)
    /// answered by the stored digest.
    pub relog_cache: CacheStats,
    /// Session-pool counters.
    pub sessions: SessionStats,
    /// Distinct pinballs stored.
    pub pinballs: u64,
    /// Requests load-shed at admission across every shard (each one
    /// answered with a typed [`ServeError::Busy`] carrying a
    /// backlog-scaled retry hint).
    pub shed: u64,
    /// Fleet counters: membership, gossip rounds, forwards, redirects,
    /// peer-cache hits. The forwarded-op fields are exact sums over
    /// [`ShardStats::cluster`]; all zero (and `enabled` false) on a
    /// standalone node.
    pub cluster: ClusterStats,
    /// Per-shard breakdown. The rollup fields above are exact sums over
    /// these entries (caches, sessions, requests, errors, shed).
    pub shards: Vec<ShardStats>,
}

impl ServeStats {
    /// Requests per second over the server's uptime.
    pub fn requests_per_sec(&self) -> f64 {
        if self.uptime_micros == 0 {
            0.0
        } else {
            self.requests as f64 * 1e6 / self.uptime_micros as f64
        }
    }

    /// The stats for one op, if it was ever requested.
    pub fn op(&self, name: &str) -> Option<&OpStats> {
        self.per_op.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }
}

impl fmt::Display for ServeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "requests         {:>8}  ({} errors, {:.1} req/s over {:.1}s)",
            self.requests,
            self.errors,
            self.requests_per_sec(),
            self.uptime_micros as f64 / 1e6,
        )?;
        for (name, op) in &self.per_op {
            writeln!(
                f,
                "  {name:<14} {:>8}  mean {:>7} us  max {:>7} us",
                op.count,
                op.mean_micros(),
                op.max_micros
            )?;
        }
        writeln!(
            f,
            "slice cache      {:>8} hits / {} misses ({}% hit rate), {} entries, {} evictions",
            self.cache.hits,
            self.cache.misses,
            self.cache.hit_rate_percent(),
            self.cache.entries,
            self.cache.evictions,
        )?;
        writeln!(
            f,
            "index cache      {:>8} hits / {} misses ({}% hit rate), {} entries, {} evictions, {} bytes",
            self.index_cache.hits,
            self.index_cache.misses,
            self.index_cache.hit_rate_percent(),
            self.index_cache.entries,
            self.index_cache.evictions,
            self.index_cache.bytes,
        )?;
        writeln!(
            f,
            "relog cache      {:>8} hits / {} misses ({}% hit rate), {} entries, {} evictions, {} bytes",
            self.relog_cache.hits,
            self.relog_cache.misses,
            self.relog_cache.hit_rate_percent(),
            self.relog_cache.entries,
            self.relog_cache.evictions,
            self.relog_cache.bytes,
        )?;
        writeln!(
            f,
            "sessions         {:>8} open  ({} total, {} lru-evicted, {} idle-expired, {} busy-rejected)",
            self.sessions.open,
            self.sessions.opened_total,
            self.sessions.evicted_lru,
            self.sessions.expired_idle,
            self.sessions.rejected_busy,
        )?;
        writeln!(f, "pinballs stored  {:>8}", self.pinballs)?;
        if self.cluster.enabled {
            writeln!(
                f,
                "cluster          {:>8} alive / {} dead, {} gossip rounds, {} forwards ({} errors), {} redirects, {} peer hits, {} fetches, {} pushes",
                self.cluster.nodes_alive,
                self.cluster.nodes_dead,
                self.cluster.gossip_rounds,
                self.cluster.forwards,
                self.cluster.forward_errors,
                self.cluster.redirects,
                self.cluster.peer_cache_hits,
                self.cluster.peer_fetches,
                self.cluster.peer_pushes,
            )?;
        }
        write!(f, "shed at admission{:>8}", self.shed)?;
        for s in &self.shards {
            write!(
                f,
                "\n  shard {:<3} {:>8} reqs  {:>4} errors  {:>4} shed  depth {:>3} (peak {:>3})  {:>5} batches  {:>3} sessions",
                s.shard,
                s.requests,
                s.errors,
                s.shed,
                s.depth,
                s.peak_depth,
                s.batches,
                s.sessions.open,
            )?;
        }
        Ok(())
    }
}

/// Why a message could not be read from the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecvError {
    /// The peer closed the stream at a message boundary — a clean
    /// disconnect, not an error.
    Disconnected,
    /// The stream failed mid-message.
    Io(String),
    /// The frame was present but undecodable: truncated, failed its CRC,
    /// oversized, the wrong kind, or carrying an invalid payload.
    Frame {
        /// What was wrong with it.
        reason: String,
    },
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvError::Disconnected => f.write_str("peer disconnected"),
            RecvError::Io(e) => write!(f, "stream error: {e}"),
            RecvError::Frame { reason } => write!(f, "bad frame: {reason}"),
        }
    }
}

impl std::error::Error for RecvError {}

fn frame_err(reason: impl fmt::Display) -> RecvError {
    RecvError::Frame {
        reason: reason.to_string(),
    }
}

/// Serializes `value` as one protocol frame and writes it to the stream.
///
/// # Errors
///
/// Returns the underlying I/O error when the stream fails.
pub fn write_message<W: Write + ?Sized, T: Serialize>(
    w: &mut W,
    kind: u8,
    value: &T,
) -> std::io::Result<()> {
    let payload = pinzip::binser::to_vec(value);
    let mut buf = Vec::new();
    pinzip::frame::write_frame(&mut buf, kind, &payload);
    w.write_all(&buf)?;
    w.flush()
}

/// Reads exactly one protocol frame of the expected kind from the stream
/// and decodes its binary payload.
///
/// The header is consumed byte-wise (kind, LEB128 length, CRC), the
/// declared length is bounded by [`MAX_MESSAGE`] *before* the payload is
/// allocated, and the reassembled frame goes through
/// [`pinzip::frame::read_frame`] so the CRC is verified ahead of
/// decompression — the same order the pinball container uses.
///
/// # Errors
///
/// [`RecvError::Disconnected`] on EOF at a message boundary;
/// [`RecvError::Io`] on mid-message stream failure; [`RecvError::Frame`]
/// on anything undecodable.
pub fn read_message<R: Read + ?Sized, T: serde::Deserialize>(
    r: &mut R,
    expect_kind: u8,
) -> Result<T, RecvError> {
    let mut frame_buf: Vec<u8> = Vec::with_capacity(64);

    // Kind byte: EOF here is a clean disconnect.
    let mut byte = [0u8; 1];
    match r.read(&mut byte) {
        Ok(0) => return Err(RecvError::Disconnected),
        Ok(_) => frame_buf.push(byte[0]),
        Err(e) => return Err(RecvError::Io(e.to_string())),
    }
    if byte[0] != expect_kind {
        return Err(frame_err(format!(
            "unexpected frame kind {:#04x} (want {expect_kind:#04x})",
            byte[0]
        )));
    }

    // LEB128 compressed length, one byte at a time (10 bytes max for u64).
    let clen = {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            read_exact(r, &mut byte)?;
            frame_buf.push(byte[0]);
            if shift >= 64 {
                return Err(frame_err("length varint overflows u64"));
            }
            v |= u64::from(byte[0] & 0x7f) << shift;
            if byte[0] & 0x80 == 0 {
                break v;
            }
            shift += 7;
        }
    };
    if clen > MAX_MESSAGE as u64 {
        return Err(frame_err(format!(
            "declared payload of {clen} bytes exceeds the {MAX_MESSAGE}-byte message cap"
        )));
    }

    // CRC + payload, then verify/decompress through the shared frame reader.
    let start = frame_buf.len();
    frame_buf.resize(start + 4 + clen as usize, 0);
    read_exact(r, &mut frame_buf[start..])?;
    let mut pos = 0;
    let frame = pinzip::frame::read_frame(&frame_buf, &mut pos).map_err(frame_err)?;
    pinzip::binser::from_slice(&frame.payload).map_err(|e| frame_err(format!("bad payload: {e}")))
}

/// How far one frame extends into `buf`, without decoding its payload.
///
/// A connection's reader accumulates bytes from a stream and needs to know
/// when a whole frame has arrived. Returns `Ok(None)` while `buf`
/// holds only a prefix (read more and retry), `Ok(Some(total))` when
/// `buf[..total]` is exactly one frame, and [`RecvError::Frame`] when the
/// header is already provably invalid (wrong kind byte, varint overflow,
/// or a declared length beyond [`MAX_MESSAGE`]) — detectable before the
/// rest of the frame arrives, so oversized garbage is rejected early.
pub fn frame_extent(buf: &[u8], expect_kind: u8) -> Result<Option<usize>, RecvError> {
    let Some(&kind) = buf.first() else {
        return Ok(None);
    };
    if kind != expect_kind {
        return Err(frame_err(format!(
            "unexpected frame kind {kind:#04x} (want {expect_kind:#04x})"
        )));
    }
    let mut clen: u64 = 0;
    let mut shift = 0u32;
    let mut at = 1usize;
    loop {
        let Some(&byte) = buf.get(at) else {
            return Ok(None);
        };
        at += 1;
        if shift >= 64 {
            return Err(frame_err("length varint overflows u64"));
        }
        clen |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            break;
        }
        shift += 7;
    }
    if clen > MAX_MESSAGE as u64 {
        return Err(frame_err(format!(
            "declared payload of {clen} bytes exceeds the {MAX_MESSAGE}-byte message cap"
        )));
    }
    let total = at + 4 + clen as usize;
    Ok(if buf.len() >= total {
        Some(total)
    } else {
        None
    })
}

/// Decodes one message from the front of `buf` if a complete frame is
/// present, returning the value and the bytes consumed. `Ok(None)` means
/// "keep reading"; errors are as for [`read_message`].
///
/// # Errors
///
/// [`RecvError::Frame`] on an invalid header, failed CRC, or undecodable
/// payload.
pub fn try_decode<T: serde::Deserialize>(
    buf: &[u8],
    expect_kind: u8,
) -> Result<Option<(T, usize)>, RecvError> {
    match frame_extent(buf, expect_kind)? {
        None => Ok(None),
        Some(total) => {
            let mut cursor = &buf[..total];
            let value = read_message(&mut cursor, expect_kind)?;
            Ok(Some((value, total)))
        }
    }
}

fn read_exact<R: Read + ?Sized>(r: &mut R, buf: &mut [u8]) -> Result<(), RecvError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            frame_err("frame truncated")
        } else {
            RecvError::Io(e.to_string())
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_roundtrip() {
        let req = Request::Seek {
            session: 7,
            target: 4096,
        };
        let mut buf: Vec<u8> = Vec::new();
        write_message(&mut buf, REQUEST_KIND, &req).unwrap();
        let mut cursor = &buf[..];
        let back: Request = read_message(&mut cursor, REQUEST_KIND).unwrap();
        assert!(matches!(
            back,
            Request::Seek {
                session: 7,
                target: 4096
            }
        ));
        assert!(cursor.is_empty(), "message fully consumed");
    }

    #[test]
    fn eof_at_boundary_is_disconnect_elsewhere_truncation() {
        let mut buf: Vec<u8> = Vec::new();
        write_message(&mut buf, REQUEST_KIND, &Request::Stats).unwrap();
        let mut empty: &[u8] = &[];
        assert_eq!(
            read_message::<_, Request>(&mut empty, REQUEST_KIND).unwrap_err(),
            RecvError::Disconnected
        );
        for cut in 1..buf.len() {
            let mut cursor = &buf[..cut];
            let err = read_message::<_, Request>(&mut cursor, REQUEST_KIND).unwrap_err();
            assert!(
                matches!(err, RecvError::Frame { .. }),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let mut buf: Vec<u8> = Vec::new();
        write_message(&mut buf, RESPONSE_KIND, &Request::Stats).unwrap();
        let mut cursor = &buf[..];
        assert!(matches!(
            read_message::<_, Request>(&mut cursor, REQUEST_KIND).unwrap_err(),
            RecvError::Frame { .. }
        ));
    }

    #[test]
    fn try_decode_handles_partial_complete_and_pipelined_frames() {
        let mut buf: Vec<u8> = Vec::new();
        write_message(&mut buf, REQUEST_KIND, &Request::Stats).unwrap();
        let one = buf.len();
        write_message(
            &mut buf,
            REQUEST_KIND,
            &Request::Seek {
                session: 3,
                target: 99,
            },
        )
        .unwrap();
        // Every strict prefix of the first frame wants more bytes.
        for cut in 0..one {
            assert_eq!(
                frame_extent(&buf[..cut], REQUEST_KIND).unwrap(),
                None,
                "cut at {cut}"
            );
        }
        // Two pipelined frames decode front-to-back.
        let (first, used) = try_decode::<Request>(&buf, REQUEST_KIND).unwrap().unwrap();
        assert!(matches!(first, Request::Stats));
        assert_eq!(used, one);
        let (second, used2) = try_decode::<Request>(&buf[used..], REQUEST_KIND)
            .unwrap()
            .unwrap();
        assert!(matches!(
            second,
            Request::Seek {
                session: 3,
                target: 99
            }
        ));
        assert_eq!(used + used2, buf.len());
    }

    #[test]
    fn frame_extent_rejects_bad_headers_early() {
        assert!(matches!(
            frame_extent(b"X", REQUEST_KIND),
            Err(RecvError::Frame { .. })
        ));
        let mut oversized = vec![REQUEST_KIND];
        pinzip::varint::write_u64(&mut oversized, 1 << 40);
        assert!(matches!(
            frame_extent(&oversized, REQUEST_KIND),
            Err(RecvError::Frame { reason }) if reason.contains("message cap")
        ));
    }

    #[test]
    fn oversized_declared_length_is_rejected_without_allocation() {
        // kind + varint declaring ~2^40 bytes.
        let mut buf = vec![REQUEST_KIND];
        pinzip::varint::write_u64(&mut buf, 1 << 40);
        buf.extend_from_slice(&[0u8; 4]);
        let mut cursor = &buf[..];
        let err = read_message::<_, Request>(&mut cursor, REQUEST_KIND).unwrap_err();
        assert!(
            matches!(&err, RecvError::Frame { reason } if reason.contains("message cap")),
            "{err:?}"
        );
    }
}
