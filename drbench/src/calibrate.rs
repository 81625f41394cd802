//! The calibration kernel: fixed work, independent of the program, run
//! before each set-up and at every pause of the measured clock. The
//! shared host runs this machine at speeds that differ by up to 2x from
//! one minute to the next, in CPU time too; the kernel's CPU time follows
//! that speed, and the end-to-end figures are divided by the run's
//! [`slowdown`] (see the README's Clock section).
//!
//! The program's CPU time goes to computing in cache, to waiting on
//! memory and to the operating system (sockets, scheduling), and the host
//! slows each by its own amount, so the kernel has one part of each:
//! hashed dependent reads and writes in a 256 KiB table (inside a core's
//! L2), the same in a 16 MiB table (out in the shared L3 and memory), and
//! one-byte round trips over a Unix socket pair to an echo thread.

use std::io::{Read, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::stats::{median, ms, Cpu};

/// Each part's name, iterations, and CPU milliseconds at the reference
/// speed: near what it takes on a 2-vCPU Xeon VM at full speed (`rustc`
/// 1.95 release build), so scaled figures read as CPU time there.
const PARTS: [(&str, u64, f64); 3] = [
    ("cache", 500_000, 2.0),
    ("memory", 20_000, 1.7),
    ("syscalls", 300, 1.1),
];

struct Kernel {
    cache: Vec<u64>,
    memory: Vec<u64>,
    /// This end of the socket pair, and the thread echoing on the other.
    echo: Option<(UnixStream, JoinHandle<()>)>,
    /// CPU milliseconds of every run of each part.
    runs: [Vec<f64>; 3],
}

static KERNEL: Mutex<Option<Kernel>> = Mutex::new(None);

/// `steps` hashed reads and writes at places that depend on what was
/// read before, so each waits for the last.
fn walk(table: &mut [u64], steps: u64) -> u64 {
    let mask = table.len() as u64 - 1;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for _ in 0..steps {
        x = x
            .wrapping_add(0x9e37_79b9_7f4a_7c15)
            .wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 31;
        let i = ((x ^ acc) & mask) as usize;
        acc = acc.wrapping_add(table[i]);
        table[i] = acc ^ x;
    }
    acc
}

/// A table's CPU milliseconds for `steps`, on this thread's clock, after
/// a pass that brings the table back into cache, so what the program did
/// since the last run cannot change what the timed pass costs.
fn time_walk(table: &mut [u64], steps: u64) -> f64 {
    std::hint::black_box(table.iter().fold(0u64, |a, &v| a.wrapping_add(v)));
    let started = Cpu::thread_now();
    std::hint::black_box(walk(table, steps));
    ms(Cpu::thread_now().since(started))
}

/// Runs the kernel once and records each part's CPU time.
pub fn run() {
    // Lets server threads finish what the last reply left them (on the
    // one CPU they share with this thread) before the kernel runs, so
    // their work neither interleaves with it nor evicts its tables.
    std::thread::sleep(Duration::from_millis(2));
    let mut guard = KERNEL.lock().expect("no kernel run panicked");
    let k = guard.get_or_insert_with(|| {
        let (here, there) = UnixStream::pair().expect("a Unix socket pair");
        let echo = std::thread::spawn(move || {
            let mut there = there;
            let mut byte = [0u8; 1];
            while there.read_exact(&mut byte).is_ok() && there.write_all(&byte).is_ok() {}
        });
        Kernel {
            cache: vec![0; 1 << 15],
            memory: vec![0; 1 << 21],
            echo: Some((here, echo)),
            runs: Default::default(),
        }
    });
    let cache = time_walk(&mut k.cache, PARTS[0].1);
    let memory = time_walk(&mut k.memory, PARTS[1].1);
    // Process CPU time: both ends of each round trip.
    let (here, _) = k.echo.as_mut().expect("the echo runs until finish");
    let started = Cpu::now();
    let mut byte = [7u8; 1];
    for _ in 0..PARTS[2].1 {
        here.write_all(&byte).expect("the echo thread reads");
        here.read_exact(&mut byte).expect("the echo thread answers");
    }
    let syscalls = ms(started.elapsed());
    for (runs, t) in k.runs.iter_mut().zip([cache, memory, syscalls]) {
        runs.push(t);
    }
}

/// How much slower than the reference speed this run's machine was: the
/// geometric mean over the parts of each part's median CPU time over its
/// reference; 1 when the kernel never ran. Also returns how many times it
/// ran and each part's median, for the record.
pub fn slowdown() -> (f64, usize, String) {
    let guard = KERNEL.lock().expect("no kernel run panicked");
    let Some(k) = guard.as_ref() else {
        return (1.0, 0, String::new());
    };
    let medians: Vec<f64> = k.runs.iter().map(|r| median(r)).collect();
    let log_mean = PARTS
        .iter()
        .zip(&medians)
        .map(|(&(_, _, reference), m)| (m / reference).ln())
        .sum::<f64>()
        / PARTS.len() as f64;
    let parts: Vec<String> = PARTS
        .iter()
        .zip(&medians)
        .map(|(&(name, _, reference), m)| format!("{name} {m:.3}/{reference} ms"))
        .collect();
    (log_mean.exp(), k.runs[0].len(), parts.join(", "))
}

/// Stops the echo thread and waits for it to end.
pub fn finish() {
    let echo = KERNEL
        .lock()
        .expect("no kernel run panicked")
        .as_mut()
        .and_then(|k| k.echo.take());
    if let Some((here, thread)) = echo {
        let _ = here.shutdown(Shutdown::Both);
        let _ = thread.join();
    }
}
