//! The transport-agnostic service layer: sharded request execution with
//! queue-depth admission control and small-request batching.
//!
//! [`Service`] is what [`crate::Server`] used to be, minus every byte of
//! I/O. It owns N worker *shards* (default: one per CPU), each a single
//! worker thread with its own [`SessionManager`], [`SliceCache`],
//! [`IndexCache`], [`RelogCache`], and [`ServeMetrics`] — shared-nothing,
//! so a slice computation on one shard never contends with another
//! shard's locks. The only cross-shard state is the content-addressed
//! [`PinballStore`] (lock-striped) and the `Stats` rollup.
//!
//! **Routing** is deterministic and stateless: requests naming a pinball
//! digest go to shard `digest % N`; session ids are allocated so that
//! `id % N` recovers the owning shard (see [`SessionManager::with_ids`]);
//! uploads and `Stats` round-robin (uploads only touch the global store).
//! The same digest therefore always lands on the same shard, which is
//! what keeps the single-flight index/relog caches effective: all clients
//! asking about one pinball funnel into one shard and share one build.
//!
//! **Admission control** is a per-shard depth counter checked *before*
//! the bounded queue: a submit that would exceed `queue_capacity` is
//! rejected immediately with [`ServeError::Busy`] whose
//! `retry_after_ms` hint scales with the backlog ([`retry_hint`]) —
//! load-shedding with a typed answer, never a blocked connection or an
//! unbounded queue.
//!
//! **Batching**: a worker wakes up, takes everything queued (up to
//! `batch_max`), and answers the batch in one pass. Small read-only
//! requests benefit the most — every `Stats` in a batch shares one
//! metrics rollup and one *encoded response frame* (an `Arc<Vec<u8>>`
//! written verbatim to each connection), so a fleet polling stats costs
//! one snapshot + one encode per batch instead of per request.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use minivm::Program;
use pinplay::{PinballContainer, PinballDigest, StreamReader};
use slicer::{
    compute_slice_indexed, Criterion, DepIndex, GlobalTrace, SliceOptions, SliceSession,
    SlicerOptions,
};

use crate::cache::{IndexCache, RelogCache, RelogOutcome, SliceCache};
use crate::cluster::Cluster;
use crate::metrics::ServeMetrics;
use crate::pool::SessionManager;
use crate::proto::{
    self, ClusterStats, OpStats, Request, Response, ServeError, ServeStats, ShardStats, SliceAt,
    WireBreakpoint, WireSlice, RESPONSE_KIND,
};
use crate::server::ServeConfig;
use crate::store::PinballStore;

/// Computes the [`ServeError::Busy`] back-off hint for a shard whose
/// queue holds `depth` admitted requests out of `capacity`.
///
/// The hint is `base` when the queue is empty and grows linearly to
/// `5 × base` at capacity — monotonically non-decreasing in `depth`, so a
/// client can read the hint as a direct signal of how backed up its shard
/// is and space retries accordingly.
pub fn retry_hint(base_ms: u64, depth: u64, capacity: u64) -> u64 {
    let base = base_ms.max(1);
    let cap = capacity.max(1);
    base + (4 * base * depth.min(cap)) / cap
}

/// A reply traveling from a worker shard back to the transport.
// One short-lived value per in-flight request; boxing the response to
// shrink the enum would cost an allocation on every reply.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Reply {
    /// A response the transport must encode itself.
    Response(Response),
    /// An already-encoded response frame, shared across a batch; the
    /// transport writes the bytes verbatim.
    Frame(Arc<Vec<u8>>),
}

/// One queued unit of work.
struct Job {
    request: Request,
    /// Whether the submitter can write a pre-encoded [`Reply::Frame`]
    /// directly to its stream. `false` for in-process callers that need a
    /// typed [`Response`] back.
    frame_ok: bool,
    reply: Sender<Reply>,
}

/// One worker shard's private state.
pub(crate) struct Shard {
    id: usize,
    pool: SessionManager,
    cache: SliceCache,
    index_cache: IndexCache,
    relog_cache: RelogCache,
    metrics: ServeMetrics,
    /// In-progress streaming uploads, keyed by client-chosen stream id.
    /// Every op naming a stream routes `stream % N`, so a stream lives
    /// entirely on one shard; the shard's single worker thread means the
    /// mutex is uncontended in practice.
    streams: Mutex<HashMap<u64, StreamState>>,
    /// Admitted-but-not-completed requests (the admission counter).
    depth: AtomicUsize,
    peak_depth: AtomicU64,
    shed: AtomicU64,
    batches: AtomicU64,
    /// Fleet-traffic counters (zero on a standalone node).
    cluster: ClusterCounters,
    /// Sessions serving peer-forwarded requests, keyed by digest. Kept
    /// outside the client session pool so pool eviction never invalidates
    /// a peer's in-flight work; bounded by periodic clearing (cheap —
    /// the expensive artifacts live in the shard caches).
    peer_sessions: Mutex<HashMap<PinballDigest, Arc<Mutex<drdebug::DebugSession>>>>,
}

/// Per-shard fleet counters. The node-global fields of [`ClusterStats`]
/// (liveness, gossip rounds) are attached at rollup time.
#[derive(Default)]
struct ClusterCounters {
    forwards: AtomicU64,
    forward_errors: AtomicU64,
    redirects: AtomicU64,
    peer_cache_hits: AtomicU64,
    peer_fetches: AtomicU64,
    peer_pushes: AtomicU64,
}

impl ClusterCounters {
    fn snapshot(&self) -> ClusterStats {
        ClusterStats {
            forwards: self.forwards.load(Ordering::Relaxed),
            forward_errors: self.forward_errors.load(Ordering::Relaxed),
            redirects: self.redirects.load(Ordering::Relaxed),
            peer_cache_hits: self.peer_cache_hits.load(Ordering::Relaxed),
            peer_fetches: self.peer_fetches.load(Ordering::Relaxed),
            peer_pushes: self.peer_pushes.load(Ordering::Relaxed),
            ..ClusterStats::default()
        }
    }
}

/// One in-progress streaming upload, owned by its routing shard.
struct StreamState {
    program: Arc<Program>,
    reader: StreamReader,
    /// Chunks that arrived ahead of the high-water mark, buffered until
    /// the gap before them fills.
    pending: BTreeMap<u32, Vec<u8>>,
    /// High-water mark: chunks `0..next_seq` are absorbed contiguously.
    next_seq: u32,
    /// The store digest once the stream sealed and published.
    published: Option<PinballDigest>,
    /// Incremental slicing state, invalidated when the slice options
    /// fingerprint changes.
    slicing: Option<StreamSlicing>,
}

/// The incrementally-grown trace and dependence index of one stream.
///
/// Each `SliceStream` replays the absorbed prefix to re-collect its
/// records (replay is deterministic, so previously seen records come back
/// unchanged), then extends the cached trace and appends to the cached
/// index — paying index-build cost only for the new suffix.
struct StreamSlicing {
    fingerprint: u64,
    trace: GlobalTrace,
    index: DepIndex,
}

/// The absorption-state ack shared by `BeginStream`, `AppendChunk`, and
/// `StreamStatus`.
fn stream_ack(stream: u64, st: &StreamState, already_have: bool) -> Response {
    Response::StreamAck {
        stream,
        next_seq: st.next_seq,
        pending: st.pending.keys().copied().collect(),
        events: st.reader.events_absorbed() as u64,
        already_have,
    }
}

/// State shared by every worker and every `Service` clone.
struct ServiceState {
    shards: Vec<Arc<Shard>>,
    store: PinballStore,
    started: Instant,
    config: ServeConfig,
    /// Fleet membership + forwarding, installed once at listen time when
    /// the config opts into cluster mode. `None` = standalone node.
    cluster: OnceLock<Arc<Cluster>>,
}

struct QueueHandle {
    tx: Sender<Job>,
    shard: Arc<Shard>,
    capacity: usize,
}

struct ServiceInner {
    state: Arc<ServiceState>,
    queues: Vec<QueueHandle>,
    rr: AtomicUsize,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Drop for ServiceInner {
    fn drop(&mut self) {
        // Stop gossiping first so no new forwards start mid-shutdown.
        if let Some(cluster) = self.state.cluster.get() {
            cluster.shutdown();
        }
        // Dropping the senders disconnects every worker's receive loop;
        // join so no worker outlives the service.
        self.queues.clear();
        for handle in self.workers.lock().expect("worker handles lock").drain(..) {
            let _ = handle.join();
        }
    }
}

/// The sharded, transport-agnostic request executor. Cheap to clone; all
/// clones share the shards. Dropping the last clone shuts the workers
/// down.
#[derive(Clone)]
pub struct Service {
    inner: Arc<ServiceInner>,
}

impl Service {
    /// Builds the shards and spawns one worker thread per shard.
    pub fn new(config: ServeConfig) -> Service {
        let nshards = resolved_shards(&config);
        let capacity = config.queue_capacity.max(1);
        let batch_max = config.batch_max.max(1);
        let shards: Vec<Arc<Shard>> = (0..nshards)
            .map(|id| {
                Arc::new(Shard {
                    id,
                    // Shard `id` allocates session ids n+id, 2n+id, … so
                    // `session % nshards` recovers the owning shard.
                    pool: SessionManager::with_ids(
                        config.max_sessions,
                        config.idle_timeout,
                        config.retry_after_ms,
                        nshards as u64 + id as u64,
                        nshards as u64,
                    ),
                    cache: SliceCache::new(config.cache_capacity),
                    index_cache: IndexCache::new(config.index_cache_capacity),
                    relog_cache: RelogCache::new(config.relog_cache_capacity),
                    metrics: ServeMetrics::new(),
                    streams: Mutex::new(HashMap::new()),
                    depth: AtomicUsize::new(0),
                    peak_depth: AtomicU64::new(0),
                    shed: AtomicU64::new(0),
                    batches: AtomicU64::new(0),
                    cluster: ClusterCounters::default(),
                    peer_sessions: Mutex::new(HashMap::new()),
                })
            })
            .collect();
        let state = Arc::new(ServiceState {
            shards,
            store: PinballStore::new(nshards * 4),
            started: Instant::now(),
            config,
            cluster: OnceLock::new(),
        });
        let mut queues = Vec::with_capacity(nshards);
        let mut workers = Vec::with_capacity(nshards);
        for shard in &state.shards {
            let (tx, rx) = bounded::<Job>(capacity);
            queues.push(QueueHandle {
                tx,
                shard: Arc::clone(shard),
                capacity,
            });
            let state = Arc::clone(&state);
            let shard = Arc::clone(shard);
            workers.push(thread::spawn(move || {
                worker_loop(&state, &shard, &rx, batch_max)
            }));
        }
        Service {
            inner: Arc::new(ServiceInner {
                state,
                queues,
                rr: AtomicUsize::new(0),
                workers: Mutex::new(workers),
            }),
        }
    }

    /// Number of worker shards.
    pub fn shard_count(&self) -> usize {
        self.inner.state.shards.len()
    }

    /// The configuration the service was built with.
    pub fn config(&self) -> &ServeConfig {
        &self.inner.state.config
    }

    /// Joins the fleet: builds the membership state and starts the gossip
    /// thread. Idempotent — the first call wins. Called by
    /// [`crate::Server::listen`] once the bound address is known.
    pub(crate) fn enable_cluster(&self, advertise: String, seeds: Vec<String>) {
        // The gossip thread holds only a Weak back-reference, so the
        // service's shutdown (which joins that thread) can still run.
        let weak = Arc::downgrade(&self.inner.state);
        self.inner.state.cluster.get_or_init(|| {
            Cluster::start(
                advertise,
                seeds,
                &self.inner.state.config,
                Box::new(move || weak.upgrade().map_or(0, |s| s.store.len())),
            )
        });
    }

    /// Which shard a request routes to.
    fn route(&self, request: &Request) -> usize {
        let n = self.inner.state.shards.len() as u64;
        let ix = match request {
            // Peer-forwarded ops route by digest like their client-facing
            // twins, so they land on the shard whose caches hold (or will
            // hold) the answer.
            Request::OpenSession { digest }
            | Request::FetchPinball { digest }
            | Request::ProbePinball { digest }
            | Request::PeerSlice { digest, .. }
            | Request::PeerRelog { digest, .. }
            | Request::FetchStored { digest }
            | Request::PeerProbe { digest } => digest.0 % n,
            // A stream lives entirely on one shard: its reader, pending
            // chunks, and incremental index are all shard-local.
            Request::BeginStream { stream, .. }
            | Request::AppendChunk { stream, .. }
            | Request::SealStream { stream, .. }
            | Request::StreamStatus { stream }
            | Request::Tail { stream }
            | Request::SliceStream { stream, .. } => stream % n,
            Request::Break { session, .. }
            | Request::Run { session }
            | Request::Seek { session, .. }
            | Request::ComputeSlice { session, .. }
            | Request::Relog { session, .. }
            | Request::BreakList { session }
            | Request::CloseSession { session } => session % n,
            // Uploads only touch the global store, Stats rolls up every
            // shard, and gossip only touches the cluster state: spread
            // them round-robin.
            Request::UploadPinball { .. }
            | Request::Stats
            | Request::Gossip { .. }
            | Request::PeerMap => self.inner.rr.fetch_add(1, Ordering::Relaxed) as u64 % n,
        };
        ix as usize
    }

    /// Admits a request onto its shard's queue, or sheds it.
    ///
    /// On admission the returned receiver yields exactly one [`Reply`].
    /// `frame_ok` tells the worker the caller can write a pre-encoded
    /// response frame verbatim (transports can; in-process callers
    /// cannot).
    ///
    /// # Errors
    ///
    /// [`ServeError::Busy`] with a backlog-scaled retry hint when the
    /// shard's queue is at capacity — the request was never enqueued.
    pub(crate) fn submit(
        &self,
        request: Request,
        frame_ok: bool,
    ) -> Result<Receiver<Reply>, ServeError> {
        let queue = &self.inner.queues[self.route(&request)];
        let shard = &queue.shard;
        let prev = shard.depth.fetch_add(1, Ordering::AcqRel);
        if prev >= queue.capacity {
            shard.depth.fetch_sub(1, Ordering::AcqRel);
            shard.shed.fetch_add(1, Ordering::Relaxed);
            shard.metrics.observe(request.op(), Duration::ZERO, true);
            return Err(ServeError::Busy {
                retry_after_ms: retry_hint(
                    self.inner.state.config.retry_after_ms,
                    prev as u64,
                    queue.capacity as u64,
                ),
            });
        }
        shard
            .peak_depth
            .fetch_max(prev as u64 + 1, Ordering::Relaxed);
        let (reply_tx, reply_rx) = bounded(1);
        match queue.tx.try_send(Job {
            request,
            frame_ok,
            reply: reply_tx,
        }) {
            Ok(()) => Ok(reply_rx),
            // The channel bound equals the admission capacity, so `Full`
            // is unreachable; `Disconnected` means the service is
            // shutting down.
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                shard.depth.fetch_sub(1, Ordering::AcqRel);
                Err(ServeError::Busy {
                    retry_after_ms: self.inner.state.config.retry_after_ms,
                })
            }
        }
    }

    /// Executes one request to completion, blocking the caller. Every
    /// failure — including admission shed — is a typed
    /// [`Response::Error`].
    pub fn call(&self, request: Request) -> Response {
        match self.submit(request, false) {
            Ok(rx) => match rx.recv() {
                Ok(Reply::Response(response)) => response,
                // Workers never send frames to `frame_ok: false` callers.
                Ok(Reply::Frame(_)) | Err(_) => Response::Error(ServeError::BadRequest {
                    reason: "service shut down mid-request".to_string(),
                }),
            },
            Err(e) => Response::Error(e),
        }
    }

    /// Counts one malformed frame against the metrics (transports call
    /// this when framing fails before a request exists to route).
    pub(crate) fn observe_malformed(&self) {
        let n = self.inner.state.shards.len();
        let ix = self.inner.rr.fetch_add(1, Ordering::Relaxed) % n;
        self.inner.state.shards[ix]
            .metrics
            .observe("malformed", Duration::ZERO, true);
    }

    /// Rolls every shard up into one [`ServeStats`] snapshot, with the
    /// per-shard breakdown attached.
    pub fn stats(&self) -> ServeStats {
        rollup(&self.inner.state)
    }
}

fn resolved_shards(config: &ServeConfig) -> usize {
    if config.shards > 0 {
        config.shards
    } else {
        thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8)
    }
}

/// One worker shard's main loop: drain a batch, answer it, repeat.
fn worker_loop(state: &ServiceState, shard: &Shard, rx: &Receiver<Job>, batch_max: usize) {
    let mut batch: Vec<Job> = Vec::with_capacity(batch_max);
    loop {
        match rx.recv() {
            Ok(job) => batch.push(job),
            Err(_) => return, // all senders gone: shutdown
        }
        while batch.len() < batch_max {
            match rx.try_recv() {
                Ok(job) => batch.push(job),
                Err(_) => break,
            }
        }
        shard.batches.fetch_add(1, Ordering::Relaxed);
        // Every `Stats` in the batch shares one rollup — and, for
        // transports that can take it, one already-encoded frame.
        let mut stats_snapshot: Option<ServeStats> = None;
        let mut stats_frame: Option<Arc<Vec<u8>>> = None;
        for job in batch.drain(..) {
            let op = job.request.op();
            let started = Instant::now();
            let reply = if matches!(job.request, Request::Stats) {
                if job.frame_ok {
                    let frame = stats_frame.get_or_insert_with(|| {
                        let stats = stats_snapshot.get_or_insert_with(|| rollup(state)).clone();
                        Arc::new(encode_response(&Response::Stats(stats)))
                    });
                    Reply::Frame(Arc::clone(frame))
                } else {
                    let stats = stats_snapshot.get_or_insert_with(|| rollup(state)).clone();
                    Reply::Response(Response::Stats(stats))
                }
            } else {
                Reply::Response(execute(state, shard, job.request))
            };
            let errored = matches!(&reply, Reply::Response(Response::Error(_)));
            shard.metrics.observe(op, started.elapsed(), errored);
            shard.depth.fetch_sub(1, Ordering::AcqRel);
            // A dropped receiver (disconnected client) is not an error.
            let _ = job.reply.send(reply);
        }
    }
}

fn encode_response(response: &Response) -> Vec<u8> {
    let mut buf = Vec::new();
    // Writing into a Vec cannot fail.
    let _ = proto::write_message(&mut buf, RESPONSE_KIND, response);
    buf
}

fn execute(state: &ServiceState, shard: &Shard, request: Request) -> Response {
    match try_execute(state, shard, request) {
        Ok(response) => response,
        Err(e) => Response::Error(e),
    }
}

fn try_execute(
    state: &ServiceState,
    shard: &Shard,
    request: Request,
) -> Result<Response, ServeError> {
    match request {
        Request::UploadPinball { program, container } => {
            let container = Arc::new(PinballContainer::from_bytes(&container)?);
            let digest = container.digest();
            let instructions = container.pinball.logged_instructions();
            let deduped = state
                .store
                .insert_if_absent(digest, Arc::new(program), container);
            Ok(Response::Uploaded {
                digest,
                instructions,
                deduped,
            })
        }
        Request::OpenSession { digest } => {
            let (program, container) = fetch_into_store(state, shard, digest)?;
            let session = shard.pool.open(digest, move || {
                drdebug::DebugSession::with_shared_container(program, container)
            })?;
            Ok(Response::SessionOpened { session })
        }
        Request::Break { session, pc, tid } => {
            let (slot, _) = shard.pool.checkout(session)?;
            let id = slot.lock().expect("session lock").add_breakpoint(pc, tid);
            Ok(Response::BreakpointSet { id })
        }
        Request::BreakList { session } => {
            let (slot, _) = shard.pool.checkout(session)?;
            let guard = slot.lock().expect("session lock");
            let mut breakpoints: Vec<WireBreakpoint> = guard
                .breakpoints()
                .map(|(id, bp)| WireBreakpoint {
                    id,
                    pc: bp.pc,
                    tid: bp.tid,
                    enabled: bp.enabled,
                })
                .collect();
            breakpoints.sort_by_key(|b| b.id);
            Ok(Response::Breakpoints {
                session,
                breakpoints,
            })
        }
        Request::Run { session } => {
            let (slot, _) = shard.pool.checkout(session)?;
            let mut guard = slot.lock().expect("session lock");
            let reason = guard.cont();
            Ok(Response::Stopped {
                reason: reason.into(),
                position: guard.position(),
            })
        }
        Request::Seek { session, target } => {
            let (slot, _) = shard.pool.checkout(session)?;
            let mut guard = slot.lock().expect("session lock");
            let reason = guard.seek_to(target);
            Ok(Response::Stopped {
                reason: reason.into(),
                position: guard.position(),
            })
        }
        Request::ComputeSlice {
            session,
            at,
            options,
        } => {
            let started = Instant::now();
            let (slot, digest) = shard.pool.checkout(session)?;
            // The criterion resolves locally even when the digest is
            // owned elsewhere — `SliceAt::Here`/`Failure` need *this*
            // session's replay position, which only this node has. The
            // owner receives the resolved criterion form.
            let criterion = resolve_criterion(&slot, at)?;
            if let Some((cluster, owner)) = remote_owner(state, digest) {
                let fingerprint = options.fingerprint();
                // A hit here is a previously forwarded answer: repeat
                // questions answer locally without touching the owner.
                if let Some(hit) = shard.cache.get(digest, criterion, fingerprint) {
                    shard
                        .cluster
                        .peer_cache_hits
                        .fetch_add(1, Ordering::Relaxed);
                    return Ok(Response::Slice {
                        slice: (*hit).clone(),
                        cached: true,
                        micros: started.elapsed().as_micros() as u64,
                    });
                }
                shard.cluster.forwards.fetch_add(1, Ordering::Relaxed);
                let reply = cluster
                    .forward_slice(
                        &owner,
                        digest,
                        criterion,
                        &options,
                        push_supply(state, digest),
                    )
                    .inspect_err(|_| {
                        shard.cluster.forward_errors.fetch_add(1, Ordering::Relaxed);
                    })?;
                let wire = Arc::new(reply.slice);
                shard
                    .cache
                    .insert(digest, criterion, fingerprint, Arc::clone(&wire));
                return Ok(Response::Slice {
                    slice: (*wire).clone(),
                    cached: false,
                    micros: started.elapsed().as_micros() as u64,
                });
            }
            let (wire, cached) = slice_local(shard, &slot, digest, criterion, options)?;
            Ok(Response::Slice {
                slice: (*wire).clone(),
                cached,
                micros: started.elapsed().as_micros() as u64,
            })
        }
        Request::Relog {
            session,
            at,
            options,
        } => {
            let started = Instant::now();
            let (slot, digest) = shard.pool.checkout(session)?;
            let criterion = resolve_criterion(&slot, at)?;
            if let Some((cluster, owner)) = remote_owner(state, digest) {
                let fingerprint = options.fingerprint();
                if let Some(hit) = shard.relog_cache.peek(digest, criterion, fingerprint) {
                    shard
                        .cluster
                        .peer_cache_hits
                        .fetch_add(1, Ordering::Relaxed);
                    return Ok(Response::Relogged {
                        digest: hit.digest,
                        instructions: hit.report.instructions,
                        kept: hit.report.kept,
                        excluded: hit.report.excluded,
                        cached: true,
                        micros: started.elapsed().as_micros() as u64,
                    });
                }
                shard.cluster.forwards.fetch_add(1, Ordering::Relaxed);
                let r = cluster
                    .forward_relog(
                        &owner,
                        digest,
                        criterion,
                        &options,
                        push_supply(state, digest),
                    )
                    .inspect_err(|_| {
                        shard.cluster.forward_errors.fetch_add(1, Ordering::Relaxed);
                    })?;
                // Cache the owner's verdict so repeats answer locally.
                // The slice pinball itself stays at the owner; a local
                // open/fetch of `r.digest` pulls it through the store.
                shard.relog_cache.insert(
                    digest,
                    criterion,
                    fingerprint,
                    Arc::new(RelogOutcome {
                        digest: r.digest,
                        report: drdebug::RelogReport {
                            digest: r.digest,
                            instructions: r.instructions,
                            kept: r.kept,
                            excluded: r.excluded,
                            ..drdebug::RelogReport::default()
                        },
                        bytes: 0,
                    }),
                );
                return Ok(Response::Relogged {
                    digest: r.digest,
                    instructions: r.instructions,
                    kept: r.kept,
                    excluded: r.excluded,
                    cached: false,
                    micros: started.elapsed().as_micros() as u64,
                });
            }
            let (outcome, cached) = relog_local(state, shard, &slot, digest, criterion, options)?;
            Ok(Response::Relogged {
                digest: outcome.digest,
                instructions: outcome.report.instructions,
                kept: outcome.report.kept,
                excluded: outcome.report.excluded,
                cached,
                micros: started.elapsed().as_micros() as u64,
            })
        }
        Request::FetchPinball { digest } => {
            let (_, container) = fetch_into_store(state, shard, digest)?;
            let bytes = container.to_bytes()?;
            Ok(Response::PinballData {
                digest,
                container: bytes,
            })
        }
        // Batched in the worker loop; this arm only serves direct calls.
        Request::Stats => Ok(Response::Stats(rollup(state))),
        Request::CloseSession { session } => {
            shard.pool.close(session)?;
            Ok(Response::Closed { session })
        }
        Request::ProbePinball { digest } => {
            let mut known = state.store.program_of(digest).is_some();
            if !known {
                // Ask the digest's owner before answering "no": the probe
                // dedupes peer transfers exactly like it dedupes uploads.
                // A dead owner degrades to "unknown" rather than erroring
                // — the worst case is a redundant transfer.
                if let Some((cluster, owner)) = remote_owner(state, digest) {
                    shard.cluster.forwards.fetch_add(1, Ordering::Relaxed);
                    match cluster.forward_probe(&owner, digest) {
                        Ok(k) => known = k,
                        Err(_) => {
                            shard.cluster.forward_errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
            Ok(Response::Probed { digest, known })
        }
        Request::BeginStream {
            stream,
            program,
            expect_digest,
        } => {
            // Digest-first dedupe: when the client already knows the
            // container's digest and the store holds it, the body never
            // has to cross the wire.
            if let Some(digest) = expect_digest {
                if state.store.program_of(digest).is_some() {
                    return Ok(Response::StreamAck {
                        stream,
                        next_seq: 0,
                        pending: Vec::new(),
                        events: 0,
                        already_have: true,
                    });
                }
                // Fleet mode: a digest-announced stream belongs at its
                // owner. Redirecting before any chunk arrives means the
                // body crosses the wire once, straight to where digest
                // routing will look for it.
                if let Some((_, owner)) = remote_owner(state, digest) {
                    shard.cluster.redirects.fetch_add(1, Ordering::Relaxed);
                    return Ok(Response::Redirect { addr: owner });
                }
            }
            let mut streams = shard.streams.lock().expect("streams lock");
            let st = streams.entry(stream).or_insert_with(|| StreamState {
                program: Arc::new(program),
                reader: StreamReader::new(),
                pending: BTreeMap::new(),
                next_seq: 0,
                published: None,
                slicing: None,
            });
            // Re-sending BeginStream for an existing stream is the resume
            // path: the ack carries the high-water mark, so a reconnected
            // client learns exactly which chunks to resend.
            Ok(stream_ack(stream, st, false))
        }
        Request::AppendChunk { stream, seq, bytes } => {
            let mut streams = shard.streams.lock().expect("streams lock");
            let st = streams
                .get_mut(&stream)
                .ok_or(ServeError::UnknownStream { stream })?;
            // Duplicates below the high-water mark (a reconnected client
            // blindly resending) and stragglers after sealing are
            // acknowledged idempotently without touching the reader.
            if st.published.is_none() && seq >= st.next_seq {
                if seq == st.next_seq {
                    let absorbed = st.reader.absorb(&bytes).and_then(|()| {
                        st.next_seq += 1;
                        // The new chunk may have filled the gap in front
                        // of buffered out-of-order arrivals.
                        while let Some(buffered) = st.pending.remove(&st.next_seq) {
                            st.reader.absorb(&buffered)?;
                            st.next_seq += 1;
                        }
                        Ok(())
                    });
                    if let Err(e) = absorbed {
                        // The reader holds undecodable bytes and can never
                        // make progress; drop the stream so a retry
                        // starts clean.
                        streams.remove(&stream);
                        return Err(e.into());
                    }
                } else {
                    st.pending.insert(seq, bytes);
                }
            }
            let st = streams.get(&stream).expect("stream still present");
            Ok(stream_ack(stream, st, false))
        }
        Request::SealStream { stream, footer } => {
            let mut streams = shard.streams.lock().expect("streams lock");
            let st = streams
                .get_mut(&stream)
                .ok_or(ServeError::UnknownStream { stream })?;
            if let Some(digest) = st.published {
                // Duplicate seal (the ack was lost to a reconnect):
                // answer idempotently.
                return Ok(Response::Uploaded {
                    digest,
                    instructions: st.reader.instructions_absorbed(),
                    deduped: true,
                });
            }
            if !st.pending.is_empty() {
                return Err(ServeError::BadRequest {
                    reason: format!(
                        "stream {stream} cannot seal: waiting for chunk {} \
                         ({} buffered beyond the gap)",
                        st.next_seq,
                        st.pending.len()
                    ),
                });
            }
            if let Err(e) = st.reader.absorb(&footer) {
                // Event counts or the trailer failed to validate — chunks
                // are missing or damaged, and the buffered bytes cannot
                // be repaired. Drop the stream so a retry starts clean.
                streams.remove(&stream);
                return Err(e.into());
            }
            if !st.reader.is_sealed() {
                return Err(ServeError::BadRequest {
                    reason: "footer bytes are incomplete; stream is still unsealed".to_string(),
                });
            }
            let bytes = st.reader.sealed_bytes().expect("sealed reader has bytes");
            // Re-parsing the reassembled bytes guarantees the published
            // container — and its digest — is exactly what a batch
            // upload of the same file would have stored.
            let container = Arc::new(PinballContainer::from_bytes(bytes)?);
            let digest = container.digest();
            let instructions = container.pinball.logged_instructions();
            // A stream that never announced its digest could not be
            // redirected at `BeginStream`: push the published container
            // to its owner (best effort, outside the streams lock) so
            // digest routing finds it where the ring says it lives.
            let push = remote_owner(state, digest)
                .map(|(cluster, owner)| (cluster, owner, Arc::clone(&st.program), bytes.to_vec()));
            let deduped = state
                .store
                .insert_if_absent(digest, Arc::clone(&st.program), container);
            st.published = Some(digest);
            drop(streams);
            if let Some((cluster, owner, program, bytes)) = push {
                shard.cluster.peer_pushes.fetch_add(1, Ordering::Relaxed);
                if cluster.forward_upload(&owner, &program, bytes).is_err() {
                    shard.cluster.forward_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
            Ok(Response::Uploaded {
                digest,
                instructions,
                deduped,
            })
        }
        Request::StreamStatus { stream } => {
            let streams = shard.streams.lock().expect("streams lock");
            let st = streams
                .get(&stream)
                .ok_or(ServeError::UnknownStream { stream })?;
            Ok(stream_ack(stream, st, false))
        }
        Request::Tail { stream } => {
            let streams = shard.streams.lock().expect("streams lock");
            let st = streams
                .get(&stream)
                .ok_or(ServeError::UnknownStream { stream })?;
            Ok(Response::TailUpdate {
                stream,
                chunks: st.next_seq,
                events: st.reader.events_absorbed() as u64,
                instructions: st.reader.instructions_absorbed(),
                expected_events: st.reader.events_expected().unwrap_or(0),
                sealed: st.reader.is_sealed(),
                digest: st.published,
            })
        }
        Request::SliceStream {
            stream,
            at,
            options,
        } => {
            let started = Instant::now();
            let mut streams = shard.streams.lock().expect("streams lock");
            let st = streams
                .get_mut(&stream)
                .ok_or(ServeError::UnknownStream { stream })?;
            if st.reader.events_absorbed() == 0 {
                return Err(ServeError::BadRequest {
                    reason: "stream has no replay events yet; nothing to slice".to_string(),
                });
            }
            // Replay the absorbed prefix to collect its records. Replay
            // is deterministic, so the records seen on earlier requests
            // come back unchanged and the cached trace/index below only
            // pay for the new suffix.
            let container = st.reader.partial_container()?;
            let collect_opts = SlicerOptions {
                // Appends must keep prefix positions stable.
                cluster: false,
                ..SlicerOptions::default()
            };
            let session =
                SliceSession::collect(Arc::clone(&st.program), &container.pinball, collect_opts);
            let fingerprint = options.fingerprint();
            match &mut st.slicing {
                Some(s) if s.fingerprint == fingerprint => {
                    let done = s.trace.records().len();
                    s.trace.extend(session.trace().records()[done..].to_vec());
                    s.index.append(&s.trace, session.pairs(), &options);
                }
                slot => {
                    let trace = GlobalTrace::build_with(
                        session.trace().records().to_vec(),
                        collect_opts.block_size,
                        collect_opts.track_sp,
                        false,
                    );
                    let index = DepIndex::build(&trace, session.pairs(), &options);
                    *slot = Some(StreamSlicing {
                        fingerprint,
                        trace,
                        index,
                    });
                }
            }
            let slicing = st.slicing.as_ref().expect("slicing state installed");
            let criterion = match at {
                SliceAt::Criterion { criterion } => criterion,
                SliceAt::Failure => Criterion::Record {
                    id: session
                        .failure_record()
                        .map(|r| r.id)
                        .ok_or(ServeError::BadRequest {
                            reason: "trace is empty; nothing to slice".to_string(),
                        })?,
                },
                SliceAt::Here { .. } => {
                    return Err(ServeError::BadRequest {
                        reason: "SliceAt::Here needs a stopped session; \
                                 a stream is not stopped anywhere"
                            .to_string(),
                    })
                }
            };
            if slicing.trace.position(criterion.record_id()).is_none() {
                return Err(ServeError::BadRequest {
                    reason: format!(
                        "criterion record is not in the absorbed prefix \
                         ({} events so far)",
                        st.reader.events_absorbed()
                    ),
                });
            }
            let slice = compute_slice_indexed(&slicing.index, criterion);
            Ok(Response::Slice {
                slice: WireSlice::from_slice(&slice),
                cached: false,
                micros: started.elapsed().as_micros() as u64,
            })
        }
        Request::Gossip { view } => match state.cluster.get() {
            Some(cluster) => {
                cluster.merge(&view, None);
                Ok(cluster.peer_view(state.store.len()))
            }
            None => Ok(empty_peer_view()),
        },
        Request::PeerMap => match state.cluster.get() {
            Some(cluster) => Ok(cluster.peer_view(state.store.len())),
            None => Ok(empty_peer_view()),
        },
        Request::PeerSlice {
            digest,
            criterion,
            options,
        } => {
            let started = Instant::now();
            let slot = peer_session(state, shard, digest)?;
            let (wire, cached) = slice_local(shard, &slot, digest, criterion, options)?;
            Ok(Response::Slice {
                slice: (*wire).clone(),
                cached,
                micros: started.elapsed().as_micros() as u64,
            })
        }
        Request::PeerRelog {
            digest,
            criterion,
            options,
        } => {
            let started = Instant::now();
            let slot = peer_session(state, shard, digest)?;
            let (outcome, cached) = relog_local(state, shard, &slot, digest, criterion, options)?;
            Ok(Response::Relogged {
                digest: outcome.digest,
                instructions: outcome.report.instructions,
                kept: outcome.report.kept,
                excluded: outcome.report.excluded,
                cached,
                micros: started.elapsed().as_micros() as u64,
            })
        }
        Request::FetchStored { digest } => {
            // Local store only — never forwarded, so peer fetch chains
            // terminate after one hop.
            let (program, container) = state
                .store
                .get(digest)
                .ok_or(ServeError::UnknownPinball { digest })?;
            Ok(Response::StoredData {
                digest,
                program: (*program).clone(),
                container: container.to_bytes()?,
            })
        }
        Request::PeerProbe { digest } => Ok(Response::Probed {
            digest,
            known: state.store.program_of(digest).is_some(),
        }),
    }
}

/// The answer a standalone (cluster-less) node gives to gossip traffic.
fn empty_peer_view() -> Response {
    Response::PeerView {
        self_addr: String::new(),
        virtual_nodes: 0,
        nodes: Vec::new(),
    }
}

/// The cluster handle and owning peer when `digest` belongs to another
/// node. `None` on a standalone node or when this node is the owner.
fn remote_owner(state: &ServiceState, digest: PinballDigest) -> Option<(&Arc<Cluster>, String)> {
    let cluster = state.cluster.get()?;
    let owner = cluster.remote_owner(digest)?;
    Some((cluster, owner))
}

/// The container supplier a forward hands to the cluster: on the owner's
/// `UnknownPinball` (a restart, or a fresh owner after a ring change) the
/// forwarder pushes its stored copy once and retries.
fn push_supply(
    state: &ServiceState,
    digest: PinballDigest,
) -> impl FnOnce() -> Option<(Program, Vec<u8>)> + '_ {
    move || {
        let (program, container) = state.store.get(digest)?;
        let bytes = container.to_bytes().ok()?;
        Some(((*program).clone(), bytes))
    }
}

/// The session a peer-forwarded request runs under: reused per digest,
/// outside the client pool so pool eviction can't interrupt peer work.
fn peer_session(
    state: &ServiceState,
    shard: &Shard,
    digest: PinballDigest,
) -> Result<Arc<Mutex<drdebug::DebugSession>>, ServeError> {
    let mut sessions = shard.peer_sessions.lock().expect("peer sessions lock");
    if let Some(slot) = sessions.get(&digest) {
        return Ok(Arc::clone(slot));
    }
    let (program, container) = state
        .store
        .get(digest)
        .ok_or(ServeError::UnknownPinball { digest })?;
    // Crude bound: sessions are cheap to rebuild (the expensive artifacts
    // — index, slices, relogs — live in the shard caches), so wholesale
    // clearing beats LRU bookkeeping here.
    if sessions.len() >= state.config.max_sessions.max(1) * 4 {
        sessions.clear();
    }
    let slot = Arc::new(Mutex::new(drdebug::DebugSession::with_shared_container(
        program, container,
    )));
    sessions.insert(digest, Arc::clone(&slot));
    Ok(slot)
}

/// Resolves a digest to its stored program + container, pulling it from a
/// peer when the local store misses — the fetch-through behind `open` and
/// `fetch`, and the re-warm path for a node that lost its store. Tries
/// the digest's owner first, then any alive peer, probing before each
/// transfer so no body crosses the wire speculatively.
fn fetch_into_store(
    state: &ServiceState,
    shard: &Shard,
    digest: PinballDigest,
) -> Result<(Arc<Program>, Arc<PinballContainer>), ServeError> {
    if let Some(found) = state.store.get(digest) {
        return Ok(found);
    }
    let Some(cluster) = state.cluster.get() else {
        return Err(ServeError::UnknownPinball { digest });
    };
    for addr in cluster.fetch_candidates(digest) {
        if !matches!(cluster.forward_probe(&addr, digest), Ok(true)) {
            continue;
        }
        let Ok((program, bytes)) = cluster.fetch_stored(&addr, digest) else {
            continue;
        };
        let Ok(container) = PinballContainer::from_bytes(&bytes) else {
            continue;
        };
        shard.cluster.peer_fetches.fetch_add(1, Ordering::Relaxed);
        let program = Arc::new(program);
        let container = Arc::new(container);
        state
            .store
            .insert_if_absent(digest, Arc::clone(&program), Arc::clone(&container));
        // Re-read so a concurrent insert and ours converge on one copy.
        return Ok(state.store.get(digest).unwrap_or((program, container)));
    }
    Err(ServeError::UnknownPinball { digest })
}

/// Computes (or serves from the shard caches) a slice for a checked-out
/// session — the shared tail of `ComputeSlice` and `PeerSlice`.
///
/// # Errors
///
/// [`ServeError::BadRequest`] when the criterion names a record the trace
/// does not have. A cache hit needs no check: only valid criteria are
/// ever cached.
fn slice_local(
    shard: &Shard,
    slot: &Arc<Mutex<drdebug::DebugSession>>,
    digest: PinballDigest,
    criterion: Criterion,
    options: SliceOptions,
) -> Result<(Arc<WireSlice>, bool), ServeError> {
    let fingerprint = options.fingerprint();
    if let Some(hit) = shard.cache.get(digest, criterion, fingerprint) {
        return Ok((hit, true));
    }
    // One dependence index answers every criterion on this pinball under
    // these options. Same-digest requests always route to this shard, so
    // the shard-local cache still builds at most once across all clients
    // — and, with cluster forwarding, across the whole fleet.
    let index = shard.index_cache.get_or_build(digest, fingerprint, || {
        slot.lock().expect("session lock").dep_index_for(&options)
    });
    check_criterion(&index, criterion)?;
    let slice = {
        let mut guard = slot.lock().expect("session lock");
        guard.install_dep_index(fingerprint, index);
        guard.slice_criterion(criterion, options)
    };
    let wire = Arc::new(WireSlice::from_slice(&slice));
    shard
        .cache
        .insert(digest, criterion, fingerprint, Arc::clone(&wire));
    Ok((wire, false))
}

/// Checks an untrusted criterion against the index it will be sliced on.
fn check_criterion(index: &DepIndex, criterion: Criterion) -> Result<(), ServeError> {
    match index.position(criterion.record_id()) {
        Some(_) => Ok(()),
        None => Err(ServeError::BadRequest {
            reason: format!(
                "criterion record {} is not in the trace ({} records)",
                criterion.record_id(),
                index.len()
            ),
        }),
    }
}

/// Relogs (or serves from the relog cache) — the shared tail of `Relog`
/// and `PeerRelog`. The slice pinball publishes into the global store.
///
/// # Errors
///
/// [`ServeError::BadRequest`] when the criterion names a record the trace
/// does not have, as in [`slice_local`].
fn relog_local(
    state: &ServiceState,
    shard: &Shard,
    slot: &Arc<Mutex<drdebug::DebugSession>>,
    digest: PinballDigest,
    criterion: Criterion,
    options: SliceOptions,
) -> Result<(Arc<RelogOutcome>, bool), ServeError> {
    let fingerprint = options.fingerprint();
    shard
        .relog_cache
        .get_or_build(digest, criterion, fingerprint, || {
            // Resolve the dependence index through the shard cache (one
            // build per pinball and options), relog under the session
            // lock, then publish the slice pinball into the global
            // content-addressed store so any shard can open, fetch, and
            // slice it.
            let index = shard.index_cache.get_or_build(digest, fingerprint, || {
                slot.lock().expect("session lock").dep_index_for(&options)
            });
            check_criterion(&index, criterion)?;
            let (container, report) = {
                let mut guard = slot.lock().expect("session lock");
                guard.install_dep_index(fingerprint, index);
                guard.relog_criterion(criterion, options)
            };
            let slice_digest = container.digest();
            let bytes = container.to_bytes().map(|b| b.len() as u64).unwrap_or(0);
            if let Some(program) = state.store.program_of(digest) {
                state
                    .store
                    .insert_if_absent(slice_digest, program, Arc::new(container));
            }
            Ok(Arc::new(RelogOutcome {
                digest: slice_digest,
                report,
                bytes,
            }))
        })
}

/// Resolves where a slice anchors into a concrete [`Criterion`].
fn resolve_criterion(
    slot: &Arc<Mutex<drdebug::DebugSession>>,
    at: SliceAt,
) -> Result<Criterion, ServeError> {
    match at {
        SliceAt::Criterion { criterion } => Ok(criterion),
        SliceAt::Failure => {
            let mut guard = slot.lock().expect("session lock");
            let id =
                guard
                    .slicer()
                    .failure_record()
                    .map(|r| r.id)
                    .ok_or(ServeError::BadRequest {
                        reason: "trace is empty; nothing to slice".to_string(),
                    })?;
            Ok(Criterion::Record { id })
        }
        SliceAt::Here { key } => {
            let mut guard = slot.lock().expect("session lock");
            let id = guard.record_at_stop().ok_or(ServeError::BadRequest {
                reason: "session is not stopped at a sliceable record".to_string(),
            })?;
            Ok(match key {
                Some(key) => Criterion::Value { id, key },
                None => Criterion::Record { id },
            })
        }
    }
}

/// Sums every shard into one rollup, attaching the per-shard breakdown.
fn rollup(state: &ServiceState) -> ServeStats {
    let mut total = ServeStats {
        uptime_micros: state.started.elapsed().as_micros() as u64,
        ..ServeStats::default()
    };
    let mut per_op: HashMap<String, OpStats> = HashMap::new();
    for shard in &state.shards {
        let snap = shard.metrics.snapshot();
        for (name, op) in &snap.per_op {
            let entry = per_op.entry(name.clone()).or_default();
            entry.count += op.count;
            entry.total_micros += op.total_micros;
            entry.max_micros = entry.max_micros.max(op.max_micros);
        }
        let s = ShardStats {
            shard: shard.id as u64,
            requests: snap.requests,
            errors: snap.errors,
            shed: shard.shed.load(Ordering::Relaxed),
            depth: shard.depth.load(Ordering::Relaxed) as u64,
            peak_depth: shard.peak_depth.load(Ordering::Relaxed),
            batches: shard.batches.load(Ordering::Relaxed),
            sessions: shard.pool.stats(),
            cache: shard.cache.stats(),
            index_cache: shard.index_cache.stats(),
            relog_cache: shard.relog_cache.stats(),
            cluster: shard.cluster.snapshot(),
        };
        total.requests += s.requests;
        total.errors += s.errors;
        total.shed += s.shed;
        add_cache(&mut total.cache, &s.cache);
        add_cache(&mut total.index_cache, &s.index_cache);
        add_cache(&mut total.relog_cache, &s.relog_cache);
        add_sessions(&mut total.sessions, &s.sessions);
        add_cluster(&mut total.cluster, &s.cluster);
        total.shards.push(s);
    }
    let mut per_op: Vec<(String, OpStats)> = per_op.into_iter().collect();
    per_op.sort_by(|a, b| a.0.cmp(&b.0));
    total.per_op = per_op;
    total.pinballs = state.store.len();
    // The traffic counters above are strictly Σ per-shard (the invariant
    // tests pin); liveness and gossip rounds are node-global.
    if let Some(cluster) = state.cluster.get() {
        let summary = cluster.summary();
        total.cluster.enabled = true;
        total.cluster.nodes_alive = summary.alive;
        total.cluster.nodes_dead = summary.dead;
        total.cluster.gossip_rounds = summary.rounds;
    }
    total
}

fn add_cluster(total: &mut ClusterStats, s: &ClusterStats) {
    total.forwards += s.forwards;
    total.forward_errors += s.forward_errors;
    total.redirects += s.redirects;
    total.peer_cache_hits += s.peer_cache_hits;
    total.peer_fetches += s.peer_fetches;
    total.peer_pushes += s.peer_pushes;
}

fn add_cache(total: &mut proto::CacheStats, s: &proto::CacheStats) {
    total.hits += s.hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
    total.entries += s.entries;
    total.bytes += s.bytes;
}

fn add_sessions(total: &mut proto::SessionStats, s: &proto::SessionStats) {
    total.open += s.open;
    total.opened_total += s.opened_total;
    total.evicted_lru += s.evicted_lru;
    total.expired_idle += s.expired_idle;
    total.rejected_busy += s.rejected_busy;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_hint_is_monotone_and_bounded() {
        let base = 50;
        let cap = 16;
        let mut last = 0;
        for depth in 0..=cap {
            let hint = retry_hint(base, depth, cap);
            assert!(hint >= last, "hint must not decrease with backlog");
            assert!((base..=5 * base).contains(&hint), "hint {hint} out of band");
            last = hint;
        }
        assert_eq!(retry_hint(base, 0, cap), base, "empty queue hints base");
        assert_eq!(retry_hint(base, cap, cap), 5 * base, "full queue hints 5x");
        // Past-capacity depths (races) clamp instead of overflowing.
        assert_eq!(retry_hint(base, cap * 10, cap), 5 * base);
        // Degenerate inputs are defensively clamped.
        assert!(retry_hint(0, 0, 0) >= 1);
    }

    #[test]
    fn stats_route_round_robins_and_digests_are_sticky() {
        let service = Service::new(ServeConfig {
            shards: 4,
            ..ServeConfig::default()
        });
        assert_eq!(service.shard_count(), 4);
        let d = pinplay::PinballDigest(10);
        let first = service.route(&Request::OpenSession { digest: d });
        for _ in 0..8 {
            assert_eq!(
                service.route(&Request::OpenSession { digest: d }),
                first,
                "same digest must always route to the same shard"
            );
        }
        assert_eq!(first, 10 % 4);
        // Session ids route to the shard that allocated them.
        for session in [4u64, 5, 6, 7, 9, 14] {
            assert_eq!(
                service.route(&Request::Run { session }),
                (session % 4) as usize
            );
        }
        // Stats spreads across shards.
        let hits: std::collections::HashSet<usize> =
            (0..8).map(|_| service.route(&Request::Stats)).collect();
        assert_eq!(hits.len(), 4, "round-robin touches every shard");
    }
}
