//! One client connection with a per-request deadline and failure
//! accounting: a wedged shard turns into counted timeouts, not a hang.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use drserve::{Client, ClientError, RecvError, RetryPolicy, ServeError, WireStats};

use crate::stats::{ms, Cpu};

/// How long one request may take before it counts as timed out.
pub const DEADLINE: Duration = Duration::from_secs(30);

/// Request outcomes of one or more connections.
#[derive(Default, Clone)]
pub struct Tally {
    /// Requests sent while measuring.
    pub attempted: u64,
    /// Of those, requests that failed: refused, timed out or errored.
    pub failed: u64,
    /// Failures that were `Busy` refusals after the retries ran out.
    pub busy: u64,
    /// Failures that hit the deadline.
    pub timeouts: u64,
    /// Resends after a `Busy` answer (not failures).
    pub busy_retries: u64,
    /// Encoded request bytes sent.
    pub request_bytes: u64,
    /// Encoded reply bytes received.
    pub reply_bytes: u64,
    /// Client round trips per server op name: (count, total wall-clock
    /// ms), set against the server's own wall-clock handling times.
    pub rtt: BTreeMap<&'static str, (u64, f64)>,
}

impl Tally {
    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.busy += other.busy;
        self.timeouts += other.timeouts;
        self.busy_retries += other.busy_retries;
        self.request_bytes += other.request_bytes;
        self.reply_bytes += other.reply_bytes;
        for (op, (n, t)) in &other.rtt {
            let e = self.rtt.entry(op).or_default();
            e.0 += n;
            e.1 += t;
        }
    }
}

/// A TCP client that reconnects after a transport failure.
pub struct Conn {
    addr: SocketAddr,
    client: Option<Client<TcpStream>>,
    /// Whether calls count towards the tally (off during set-up and
    /// between measured windows).
    pub measuring: bool,
    /// Outcomes of the measured calls.
    pub tally: Tally,
    /// The last failure, for diagnostics.
    pub last_error: Option<String>,
    /// Requests sent so far, measured or not: the round trips a
    /// compound operation took are the difference across it.
    pub sent: u64,
}

fn open(addr: SocketAddr) -> std::io::Result<Client<TcpStream>> {
    let stream = TcpStream::connect_timeout(&addr, DEADLINE)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(DEADLINE))?;
    stream.set_write_timeout(Some(DEADLINE))?;
    Ok(Client::new(stream).with_retry(RetryPolicy::new(2, 100)))
}

impl Conn {
    /// Connects to `addr`.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        Ok(Conn {
            addr,
            client: Some(open(addr)?),
            measuring: false,
            tally: Tally::default(),
            last_error: None,
            sent: 0,
        })
    }

    /// One request through `f`, timed. `op` is the server's name for the
    /// request (`Request::op`). Returns the reply and the CPU time the
    /// process spent on the round trip in milliseconds, or `None` after
    /// counting the failure.
    pub fn call<T>(
        &mut self,
        op: &'static str,
        f: impl FnOnce(&mut Client<TcpStream>) -> Result<T, ClientError>,
    ) -> Option<(T, f64)> {
        self.sent += 1;
        if self.client.is_none() {
            match open(self.addr) {
                Ok(c) => self.client = Some(c),
                Err(e) => return self.fail(format!("reconnect: {e}"), false, false),
            }
        }
        let client = self.client.as_mut().expect("connected above");
        let before = client.wire_stats();
        let (cpu, wall) = (Cpu::now(), Instant::now());
        let result = f(client);
        let (cpu, wall) = (ms(cpu.elapsed()), ms(wall.elapsed()));
        let after = client.wire_stats();
        if self.measuring {
            self.count_wire(before, after);
        }
        match result {
            Ok(v) => {
                if self.measuring {
                    self.tally.attempted += 1;
                    let e = self.tally.rtt.entry(op).or_default();
                    e.0 += 1;
                    e.1 += wall;
                }
                Some((v, cpu))
            }
            Err(ClientError::Server(ServeError::Busy { .. })) => {
                self.fail(format!("{op}: busy"), true, false)
            }
            Err(ClientError::Transport(e)) => {
                // The stream may be out of sync; start over on a fresh one.
                self.client = None;
                let timeout = matches!(&e, RecvError::Io(m) if m.contains("timed out")
                    || m.contains("would block") || m.contains("temporarily unavailable"));
                self.fail(format!("{op}: transport: {e}"), false, timeout)
            }
            Err(e) => self.fail(format!("{op}: {e}"), false, false),
        }
    }

    fn count_wire(&mut self, before: WireStats, after: WireStats) {
        self.tally.busy_retries += after.busy_retries - before.busy_retries;
        self.tally.request_bytes += after.bytes_sent - before.bytes_sent;
        self.tally.reply_bytes += after.bytes_received - before.bytes_received;
    }

    fn fail<T>(&mut self, what: String, busy: bool, timeout: bool) -> Option<T> {
        if self.measuring {
            self.tally.attempted += 1;
            self.tally.failed += 1;
            self.tally.busy += u64::from(busy);
            self.tally.timeouts += u64::from(timeout);
        }
        self.last_error = Some(what);
        None
    }
}
