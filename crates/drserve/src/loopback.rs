//! In-process byte-stream transport: a pair of connected duplex endpoints.
//!
//! [`pipe`] returns two [`LoopbackStream`]s wired head-to-tail: bytes
//! written to one are read from the other, with blocking reads and
//! EOF-on-drop semantics — exactly the contract `TcpStream` gives the
//! protocol layer, minus the socket. Like `TcpStream`, a shared
//! `&LoopbackStream` is both a reader and a writer, so one thread can
//! block reading while another writes, and [`LoopbackStream::shutdown`]
//! closes the pipe under both. Tests and benchmarks drive a real server
//! through the real framing without touching the network, and the server
//! code cannot tell the difference.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::{Arc, Condvar, Mutex};

/// One direction of the pipe: a bounded-ish byte queue plus liveness.
struct Half {
    state: Mutex<HalfState>,
    readable: Condvar,
}

struct HalfState {
    buf: VecDeque<u8>,
    /// Set when the writing end is dropped; readers drain then see EOF.
    closed: bool,
}

impl Half {
    fn new() -> Arc<Half> {
        Arc::new(Half {
            state: Mutex::new(HalfState {
                buf: VecDeque::new(),
                closed: false,
            }),
            readable: Condvar::new(),
        })
    }

    fn close(&self) {
        self.state.lock().expect("pipe lock").closed = true;
        self.readable.notify_all();
    }
}

/// One endpoint of an in-process duplex byte stream.
///
/// Reading blocks until the peer writes or hangs up; writing never blocks
/// (the queue is unbounded — protocol messages are request/response, so at
/// most one message is in flight per direction). Dropping an endpoint
/// closes *both* directions it touches: the peer's pending read drains the
/// remaining bytes and then sees EOF, and the peer's writes fail with
/// [`io::ErrorKind::BrokenPipe`].
pub struct LoopbackStream {
    rx: Arc<Half>,
    tx: Arc<Half>,
}

/// Creates a connected pair of in-process streams.
pub fn pipe() -> (LoopbackStream, LoopbackStream) {
    let a = Half::new();
    let b = Half::new();
    (
        LoopbackStream {
            rx: Arc::clone(&a),
            tx: Arc::clone(&b),
        },
        LoopbackStream { rx: b, tx: a },
    )
}

impl LoopbackStream {
    /// Closes both directions now, as `TcpStream::shutdown(Both)` does:
    /// blocked reads on either end drain what is buffered and then see
    /// EOF, and later writes on either end fail. Dropping the endpoint
    /// does the same.
    pub fn shutdown(&self) {
        self.tx.close();
        self.rx.close();
    }
}

impl Read for &LoopbackStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let mut state = self.rx.state.lock().expect("pipe lock");
        loop {
            if !state.buf.is_empty() {
                let n = buf.len().min(state.buf.len());
                // Bulk-copy from the deque's (up to two) contiguous runs;
                // byte-at-a-time popping dominates profiles under load.
                let (head, tail) = state.buf.as_slices();
                if n <= head.len() {
                    buf[..n].copy_from_slice(&head[..n]);
                } else {
                    buf[..head.len()].copy_from_slice(head);
                    buf[head.len()..n].copy_from_slice(&tail[..n - head.len()]);
                }
                state.buf.drain(..n);
                return Ok(n);
            }
            if state.closed {
                return Ok(0); // EOF
            }
            state = self.rx.readable.wait(state).expect("pipe lock");
        }
    }
}

impl Write for &LoopbackStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut state = self.tx.state.lock().expect("pipe lock");
        if state.closed {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "loopback peer hung up",
            ));
        }
        state.buf.extend(buf);
        self.tx.readable.notify_all();
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Read for LoopbackStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        (&*self).read(buf)
    }
}

impl Write for LoopbackStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        (&*self).write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for LoopbackStream {
    fn drop(&mut self) {
        // Wake the peer's blocked read (EOF) and fail its future writes.
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn bytes_flow_both_ways() {
        let (mut a, mut b) = pipe();
        a.write_all(b"ping").unwrap();
        let mut got = [0u8; 4];
        b.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"ping");
        b.write_all(b"pong").unwrap();
        a.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"pong");
    }

    #[test]
    fn drop_unblocks_reader_with_eof() {
        let (a, mut b) = pipe();
        let reader = thread::spawn(move || {
            let mut buf = Vec::new();
            b.read_to_end(&mut buf).unwrap();
            buf
        });
        drop(a);
        assert!(reader.join().unwrap().is_empty());
    }

    #[test]
    fn pending_bytes_drain_before_eof() {
        let (mut a, mut b) = pipe();
        a.write_all(b"tail").unwrap();
        drop(a);
        let mut buf = Vec::new();
        b.read_to_end(&mut buf).unwrap();
        assert_eq!(buf, b"tail");
        assert!(b.write_all(b"x").is_err(), "write to hung-up peer fails");
    }

    #[test]
    fn shutdown_wakes_a_reader_sharing_the_endpoint() {
        let (mut a, b) = pipe();
        thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let mut buf = Vec::new();
                (&b).read_to_end(&mut buf).unwrap();
                buf
            });
            // The same endpoint writes while another thread blocks on it.
            (&b).write_all(b"tail").unwrap();
            a.write_all(b"tail").unwrap();
            thread::sleep(std::time::Duration::from_millis(20));
            b.shutdown();
            assert_eq!(reader.join().unwrap(), b"tail");
        });
        let mut got = Vec::new();
        a.read_to_end(&mut got).unwrap();
        assert_eq!(got, b"tail", "the peer drains, then sees EOF");
        assert!(a.write_all(b"x").is_err(), "and its writes fail");
    }

    #[test]
    fn blocking_read_wakes_on_write() {
        let (mut a, mut b) = pipe();
        let reader = thread::spawn(move || {
            let mut got = [0u8; 5];
            b.read_exact(&mut got).unwrap();
            got
        });
        thread::sleep(std::time::Duration::from_millis(20));
        a.write_all(b"hello").unwrap();
        assert_eq!(&reader.join().unwrap(), b"hello");
    }
}
