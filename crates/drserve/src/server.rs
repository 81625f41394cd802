//! The drserve front end: blocking transports over the sharded
//! [`Service`].
//!
//! The server is two layers. The [`Service`] (in [`crate::service`]) is
//! the whole protocol — sharded workers, admission control, batching — and
//! never touches a socket. This module is the I/O in front of it: one
//! blocking connection loop. Each connection gets a reader, which reads
//! whatever bytes arrived, carves complete request frames out with
//! [`proto::try_decode`] and submits them to the service (which routes
//! each to its shard), and a writer, which takes the reply slots in
//! request order and writes each reply as its shard finishes. A pipelined
//! client can have many requests in flight; replies still arrive in
//! order.
//!
//! TCP ([`Server::listen`] / [`connect`]), the in-process loopback pipe
//! ([`Server::loopback_client`] / [`Server::loopback_connect`]) and
//! caller-owned streams ([`Server::serve_stream`]) all run that same loop,
//! so tests and benchmarks drive the production path without sockets.
//! The thread budget is two threads per connection; a connection the OS
//! refuses a thread for gets one typed [`ServeError::Busy`] and is closed.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};

use crate::client::Client;
use crate::loopback::{pipe, LoopbackStream};
use crate::proto::{
    self, RecvError, Request, Response, ServeError, ServeStats, REQUEST_KIND, RESPONSE_KIND,
};
use crate::service::{Reply, Service};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum live debug sessions *per shard* (pool capacity).
    pub max_sessions: usize,
    /// Idle time after which a session may be reclaimed.
    pub idle_timeout: Duration,
    /// Maximum cached slices per shard.
    pub cache_capacity: usize,
    /// Maximum cached dependence indexes per shard (one per pinball digest
    /// and options fingerprint; each costs memory proportional to the
    /// trace).
    pub index_cache_capacity: usize,
    /// Maximum cached relog outcomes per shard (one per pinball digest,
    /// criterion, and options fingerprint; the slice pinballs themselves
    /// live in the content-addressed store).
    pub relog_cache_capacity: usize,
    /// Base back-off hint attached to [`ServeError::Busy`] rejections; the
    /// admission controller scales it up to 5× with queue depth
    /// ([`crate::service::retry_hint`]).
    pub retry_after_ms: u64,
    /// Worker shards, each with its own session pool, caches, and metrics.
    /// `0` (the default) sizes to the machine: one per CPU, capped at 8.
    pub shards: usize,
    /// Per-shard queue bound: admitted-but-unfinished requests beyond this
    /// are load-shed with [`ServeError::Busy`] instead of queueing.
    pub queue_capacity: usize,
    /// Most requests one worker wakeup drains. Requests batched together
    /// share one `Stats` rollup and one encoded response frame.
    pub batch_max: usize,
    /// Seed peer addresses for fleet membership. Non-empty peers enable
    /// cluster mode at [`Server::listen`] time: the node gossips with the
    /// seeds, learns the full peer map, and joins the consistent-hash
    /// ring over pinball digests.
    pub peers: Vec<String>,
    /// The address this node advertises to the fleet (what its ring
    /// points hash from). `None` uses the actual bound address — fine on
    /// one host; set it explicitly behind NAT or when binding `0.0.0.0`.
    pub advertise: Option<String>,
    /// Forces cluster mode on even with no seeds — the bootstrap node of
    /// a fresh fleet, which has nobody to gossip with until peers dial in.
    pub cluster: bool,
    /// Virtual nodes per member on the consistent-hash ring. More points
    /// flatten the keyspace imbalance (≈ `1/N + O(1/√(NV))`) at a small
    /// ring-build cost.
    pub virtual_nodes: usize,
    /// Anti-entropy period: how often the gossip thread bumps its
    /// heartbeat and exchanges views with one peer.
    pub gossip_interval: Duration,
    /// Liveness timeout: a peer whose heartbeat makes no progress for
    /// this long is marked dead (transport failures mark it dead sooner).
    pub peer_fail_after: Duration,
    /// Connect timeout for pooled peer connections.
    pub peer_connect_timeout: Duration,
    /// Read/write timeout for one forwarded peer operation (a cold slice
    /// at the owner can legitimately take a while).
    pub peer_op_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            max_sessions: 8,
            idle_timeout: Duration::from_secs(300),
            cache_capacity: 256,
            index_cache_capacity: 32,
            relog_cache_capacity: 32,
            retry_after_ms: 50,
            shards: 0,
            queue_capacity: 512,
            batch_max: 32,
            peers: Vec::new(),
            advertise: None,
            cluster: false,
            virtual_nodes: 64,
            gossip_interval: Duration::from_millis(500),
            peer_fail_after: Duration::from_millis(2500),
            peer_connect_timeout: Duration::from_secs(1),
            peer_op_timeout: Duration::from_secs(10),
        }
    }
}

/// Serves one connection until the peer hangs up, the stream fails, or a
/// malformed frame forces a close: the calling thread reads and submits,
/// a second thread writes the replies in request order. Frame errors are
/// answered with [`ServeError::Malformed`] after every earlier reply,
/// then the connection ends, because framing may be out of sync.
fn serve_conn<R: Read, W: Write + Send>(service: &Service, mut reader: R, mut writer: W) {
    let (tx, rx) = unbounded();
    let served = thread::scope(|scope| {
        let out = &mut writer;
        let spawned = thread::Builder::new()
            .name("drserve-writer".to_string())
            .spawn_scoped(scope, move || write_replies(out, &rx));
        if spawned.is_ok() {
            // Consumes the sender: the writer ends once it has drained.
            read_requests(service, &mut reader, tx);
        }
        spawned.is_ok()
    });
    if !served {
        refuse(service, &mut writer);
    }
}

/// The reader half: buffered reads (one syscall per burst), every
/// complete frame submitted as soon as it is carved out.
fn read_requests<R: Read>(service: &Service, reader: &mut R, replies: Sender<Receiver<Reply>>) {
    let mut buf = Vec::new();
    let mut scratch = vec![0u8; 64 * 1024];
    loop {
        let n = match reader.read(&mut scratch) {
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        if n == 0 {
            // EOF: in-flight replies still go out; a partial frame left
            // behind is a truncated one.
            if !buf.is_empty() {
                malformed(service, &replies, "frame truncated".to_string());
            }
            return;
        }
        buf.extend_from_slice(&scratch[..n]);
        let mut consumed = 0;
        loop {
            match proto::try_decode::<Request>(&buf[consumed..], REQUEST_KIND) {
                Ok(None) => break,
                Ok(Some((request, used))) => {
                    consumed += used;
                    let slot = match service.submit(request, true) {
                        Ok(rx) => rx,
                        // Shed at admission: the typed Busy goes out in
                        // order like any other reply.
                        Err(e) => answered(Response::Error(e)),
                    };
                    if replies.send(slot).is_err() {
                        return; // the writer failed
                    }
                }
                Err(RecvError::Frame { reason }) | Err(RecvError::Io(reason)) => {
                    malformed(service, &replies, reason);
                    return;
                }
                Err(RecvError::Disconnected) => return,
            }
        }
        buf.drain(..consumed);
    }
}

fn malformed(service: &Service, replies: &Sender<Receiver<Reply>>, reason: String) {
    service.observe_malformed();
    let _ = replies.send(answered(Response::Error(ServeError::Malformed { reason })));
}

/// A reply slot that already holds its answer (admission shed, malformed
/// frame), queued in order behind the requests still in flight.
fn answered(response: Response) -> Receiver<Reply> {
    let (tx, rx) = bounded(1);
    let _ = tx.send(Reply::Response(response));
    rx
}

/// The writer half: waits on the reply slots in request order, so one
/// slow slice holds back only the replies queued behind it. Each write
/// carries every later reply that has already finished too, so a
/// pipelined burst goes out in one write rather than one per reply.
fn write_replies<W: Write>(out: &mut W, replies: &Receiver<Receiver<Reply>>) {
    let mut waiting = None;
    loop {
        let Some(slot) = waiting.take().or_else(|| replies.recv().ok()) else {
            return; // the reader is done and every reply is out
        };
        let mut buf = Vec::new();
        encode(&mut buf, slot.recv().unwrap_or_else(|_| lost()));
        while let Ok(slot) = replies.try_recv() {
            match slot.try_recv() {
                Ok(reply) => encode(&mut buf, reply),
                Err(_) => {
                    waiting = Some(slot);
                    break;
                }
            }
        }
        if out.write_all(&buf).and_then(|()| out.flush()).is_err() {
            return;
        }
    }
}

/// The answer in place of a reply its shard dropped (a worker that died
/// mid-batch), so the connection never waits on a reply that cannot
/// come.
fn lost() -> Reply {
    Reply::Response(Response::Error(ServeError::BadRequest {
        reason: "service shut down mid-request".to_string(),
    }))
}

fn encode(buf: &mut Vec<u8>, reply: Reply) {
    match reply {
        Reply::Response(response) => {
            let _ = proto::write_message(buf, RESPONSE_KIND, &response);
        }
        Reply::Frame(frame) => buf.extend_from_slice(&frame),
    }
}

/// The answer for a connection the OS would not give a thread.
fn refuse<W: Write>(service: &Service, out: &mut W) {
    let busy = ServeError::Busy {
        retry_after_ms: service.config().retry_after_ms,
    };
    let _ = proto::write_message(out, RESPONSE_KIND, &Response::Error(busy));
}

fn close_tcp(socket: &TcpStream) {
    let _ = socket.shutdown(Shutdown::Both);
}

/// A live connection: how to close it and the thread serving it.
struct Live {
    close: Box<dyn Fn() + Send>,
    thread: JoinHandle<()>,
}

/// The service plus its live connections. Dropping it closes every
/// connection and joins its threads; only then does `service` drop,
/// joining the worker shards.
struct FrontEnd {
    service: Service,
    live: Arc<Mutex<HashMap<u64, Live>>>,
    next_id: AtomicU64,
}

impl FrontEnd {
    /// Gives `stream` its connection thread and registers it, so dropping
    /// the server can close it. `&S` is the reader and the writer at once,
    /// as with [`TcpStream`].
    fn spawn_conn<S>(&self, stream: S, close: fn(&S))
    where
        S: Send + Sync + 'static,
        for<'a> &'a S: Read + Write,
    {
        let stream = Arc::new(stream);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let service = self.service.clone();
        let live = Arc::clone(&self.live);
        let conn = Arc::clone(&stream);
        // Held across the spawn, so the thread deregisters only after it
        // was registered.
        let mut table = self.live.lock().expect("live connections lock");
        let spawned = thread::Builder::new()
            .name("drserve-conn".to_string())
            .spawn(move || {
                serve_conn(&service, &*conn, &*conn);
                close(&conn);
                // The service clone goes before the entry: a drop of the
                // server that no longer sees this thread must not find it
                // still holding the service.
                drop(service);
                live.lock().expect("live connections lock").remove(&id);
            });
        match spawned {
            Ok(thread) => {
                let closer = Arc::clone(&stream);
                table.insert(
                    id,
                    Live {
                        close: Box::new(move || close(&closer)),
                        thread,
                    },
                );
            }
            Err(_) => {
                drop(table);
                refuse(&self.service, &mut &*stream);
                close(&stream);
            }
        }
    }
}

impl Drop for FrontEnd {
    fn drop(&mut self) {
        let live: Vec<Live> = self
            .live
            .lock()
            .expect("live connections lock")
            .drain()
            .map(|(_, conn)| conn)
            .collect();
        for conn in &live {
            (conn.close)();
        }
        for conn in live {
            let _ = conn.thread.join();
        }
    }
}

/// A replay-and-slice server: the sharded [`Service`] plus its live
/// connections. Cheap to clone; all clones share state. Dropping the last
/// clone closes every TCP and loopback connection and joins their threads
/// before the service's workers are joined.
#[derive(Clone)]
pub struct Server {
    front: Arc<FrontEnd>,
}

impl Server {
    /// Creates a server with the given tuning: one worker thread per
    /// shard. Connections bring their own threads.
    pub fn new(config: ServeConfig) -> Server {
        Server {
            front: Arc::new(FrontEnd {
                service: Service::new(config),
                live: Arc::new(Mutex::new(HashMap::new())),
                next_id: AtomicU64::new(0),
            }),
        }
    }

    /// The sharded service behind this server.
    pub fn service(&self) -> &Service {
        &self.front.service
    }

    /// Handles one request on the calling thread's behalf — submitted to
    /// the owning shard like any other request, blocking until the worker
    /// answers. Never panics on bad input: every failure (including an
    /// admission shed) is a typed [`Response::Error`].
    pub fn handle(&self, request: Request) -> Response {
        self.front.service.call(request)
    }

    /// Current metrics snapshot (also served as [`Response::Stats`]):
    /// the cross-shard rollup with the per-shard breakdown attached.
    pub fn stats(&self) -> ServeStats {
        self.front.service.stats()
    }

    /// Serves one connection, given as its read and write halves, until
    /// the peer disconnects, the stream fails, or a malformed frame forces
    /// a close. The calling thread reads; one more thread writes. This is
    /// the loop every TCP and loopback connection runs.
    pub fn serve_stream<R: Read, W: Write + Send>(&self, reader: R, writer: W) {
        serve_conn(&self.front.service, reader, writer);
    }

    /// Binds a TCP listener and serves connections until
    /// [`ServerHandle::shutdown`]. The accept loop blocks; each accepted
    /// socket gets its own reader and writer threads.
    ///
    /// When the config names seed [`ServeConfig::peers`], an
    /// [`ServeConfig::advertise`] address, or sets
    /// [`ServeConfig::cluster`], the node joins the fleet here: the
    /// advertise address defaults to the bound one, and the gossip thread
    /// starts alongside the accept loop.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the address is unavailable, or the spawn
    /// error if the accept thread cannot start.
    pub fn listen<A: ToSocketAddrs>(&self, addr: A) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let config = self.front.service.config();
        if config.cluster || !config.peers.is_empty() || config.advertise.is_some() {
            let advertise = config
                .advertise
                .clone()
                .unwrap_or_else(|| local_addr.to_string());
            let seeds = config.peers.clone();
            self.front.service.enable_cluster(advertise, seeds);
        }
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        // Weak, so dropping the server is not held up by its listener.
        let front = Arc::downgrade(&self.front);
        let accept = thread::Builder::new()
            .name("drserve-accept".to_string())
            .spawn(move || {
                for socket in listener.incoming() {
                    if accept_stop.load(Ordering::SeqCst) {
                        return;
                    }
                    match socket {
                        Ok(socket) => {
                            let Some(front) = front.upgrade() else {
                                return; // the server is gone
                            };
                            let _ = socket.set_nodelay(true);
                            front.spawn_conn(socket, close_tcp);
                        }
                        // Out of file descriptors and the like: back off
                        // instead of spinning on the error.
                        Err(_) => thread::sleep(Duration::from_millis(10)),
                    }
                }
            })?;
        Ok(ServerHandle {
            addr: local_addr,
            stop,
            accept: Some(accept),
        })
    }

    /// Opens a raw in-process connection to this server: the returned
    /// stream speaks the full wire protocol against the same connection
    /// loop as TCP. Unlike [`Server::loopback_client`] there is no typed
    /// client in the way, so callers can pipeline many request frames
    /// before reading replies — the saturation benchmark's load generator.
    pub fn loopback_connect(&self) -> LoopbackStream {
        let (client_end, server_end) = pipe();
        self.front.spawn_conn(server_end, LoopbackStream::shutdown);
        client_end
    }

    /// Connects a [`Client`] to this server through an in-process pipe —
    /// the full wire protocol, served exactly like a TCP connection.
    pub fn loopback_client(&self) -> Client<LoopbackStream> {
        Client::new(self.loopback_connect())
    }
}

/// A running TCP front end. Dropping the handle shuts the listener down.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins the accept thread. Connections already
    /// accepted keep being served until the server itself drops.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // The accept blocks: wake it with a connection of our own. If the
        // connect fails the accept loop has already ended.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
        let _ = accept.join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Connects a TCP [`Client`] to a listening server.
///
/// # Errors
///
/// Returns the connect error if the server is unreachable.
pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client<TcpStream>> {
    let stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    Ok(Client::new(stream))
}
