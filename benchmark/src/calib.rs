//! Machine-speed calibration. The sandbox this benchmark runs in is a
//! few virtual CPUs of a shared host whose speed changes by a factor of
//! 1.3 to 4 within seconds and stays changed for minutes, separately for
//! arithmetic, for fresh memory and for wake-ups across threads (see
//! `README.md`, Hazards). No run length averages that out. So every timed
//! stretch is bracketed by three short probes that belong to the harness
//! and share no code with the program under test, and its times are
//! divided by how much slower than [`REFERENCE`] the probes ran.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// What the probes take on this sandbox while its host is quiet, in
/// milliseconds: (compute, memory, net). A reported time is the time the
/// call would have taken on a machine where the probes take this long.
pub const REFERENCE: [f64; 3] = [2.45, 0.85, 6.0];

/// Order of the matrix the compute probe sweeps: 4.5 MiB of f64, about
/// what a server holds while it factors the largest operand of any
/// workload (decoded matrix and the factorisation's copy of it, 2 MiB
/// each), so that it is fed from the same cache level.
const MATRIX_N: usize = 768;
const COMPUTE_STEPS: usize = 9;
const MEMORY_BYTES: usize = 2 << 20;
const MEMORY_ROUNDS: usize = 4;
const NET_DIALS: usize = 30;
const NET_PINGS: usize = 100;
const PING_BYTES: usize = 64;

/// One reading of the three probes, milliseconds each.
#[derive(Debug, Clone, Copy)]
pub struct Reading(pub [f64; 3]);

/// How much slower than the reference machine a stretch ran, given the
/// readings before and after it and the share of the stretch's time that
/// goes to each resource on the reference machine (`mix` sums to 1): time
/// spent on a resource grows with that resource's slow-down.
pub fn speed_factor(before: Reading, after: Reading, mix: [f64; 3]) -> f64 {
    (0..3)
        .map(|k| mix[k] * (before.0[k] + after.0[k]) / (2.0 * REFERENCE[k]))
        .sum()
}

/// The probes and the echo thread the net probe talks to.
pub struct Calibrator {
    matrix: Vec<f64>,
    source: Vec<u8>,
    echo_addr: SocketAddr,
    kept: TcpStream,
    stopping: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl Calibrator {
    pub fn start() -> io::Result<Calibrator> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let echo_addr = listener.local_addr()?;
        let stopping = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let stopping = Arc::clone(&stopping);
            std::thread::spawn(move || {
                // A thread per connection, as the daemons under test have;
                // each ends when its peer closes.
                let mut echoes = Vec::new();
                for conn in listener.incoming() {
                    if stopping.load(Ordering::Acquire) {
                        break;
                    }
                    if let Ok(conn) = conn {
                        echoes.push(std::thread::spawn(move || echo(conn)));
                    }
                    echoes.retain(|e| !e.is_finished());
                }
                for e in echoes {
                    let _ = e.join();
                }
            })
        };
        let kept = TcpStream::connect(echo_addr)?;
        kept.set_nodelay(true)?;
        let mut calibrator = Calibrator {
            matrix: (0..MATRIX_N * MATRIX_N)
                .map(|i| (i % 11) as f64 * 0.1 + 0.3)
                .collect(),
            source: vec![1u8; MEMORY_BYTES],
            echo_addr,
            kept,
            stopping,
            acceptor: Some(acceptor),
        };
        // The first reading pays for page faults and lazy set-up.
        calibrator.read()?;
        Ok(calibrator)
    }

    pub fn read(&mut self) -> io::Result<Reading> {
        let begun = Instant::now();
        self.compute();
        let compute = begun.elapsed();
        self.memory();
        let memory = begun.elapsed();
        self.net()?;
        let net = begun.elapsed();
        Ok(Reading([
            compute.as_secs_f64() * 1e3,
            (memory - compute).as_secs_f64() * 1e3,
            (net - memory).as_secs_f64() * 1e3,
        ]))
    }

    /// Rank-one updates sweeping a column-major matrix, as an unblocked
    /// factorisation makes them: arithmetic at the speed the caches feed it.
    fn compute(&mut self) {
        let n = MATRIX_N;
        for k in 0..COMPUTE_STEPS {
            let (head, tail) = self.matrix.split_at_mut((k + 1) * n);
            let multipliers = &head[k * n..];
            for column in tail.chunks_exact_mut(n) {
                // Small enough that the entries stay bounded over a run.
                let u = column[k] * 1e-6;
                for (x, l) in column.iter_mut().zip(multipliers) {
                    *x -= l * u;
                }
            }
        }
        std::hint::black_box(&self.matrix);
    }

    /// Copies into newly allocated buffers: what marshalling a large
    /// operand costs where a fresh page is dear.
    fn memory(&mut self) {
        for _ in 0..MEMORY_ROUNDS {
            let mut fresh: Vec<u8> = Vec::with_capacity(MEMORY_BYTES);
            fresh.extend_from_slice(&self.source);
            std::hint::black_box(&fresh);
        }
    }

    /// Dials with one round trip each, then round trips on a kept
    /// connection: connect, accept, thread start and wake-ups across
    /// threads, which is what a small call is made of.
    fn net(&mut self) -> io::Result<()> {
        let mut buf = [7u8; PING_BYTES];
        for _ in 0..NET_DIALS {
            let mut conn = TcpStream::connect(self.echo_addr)?;
            conn.set_nodelay(true)?;
            conn.write_all(&buf)?;
            conn.read_exact(&mut buf)?;
        }
        for _ in 0..NET_PINGS {
            self.kept.write_all(&buf)?;
            self.kept.read_exact(&mut buf)?;
        }
        Ok(())
    }
}

fn echo(mut conn: TcpStream) {
    let mut buf = [0u8; PING_BYTES];
    while conn.read_exact(&mut buf).is_ok() && conn.write_all(&buf).is_ok() {}
}

impl Drop for Calibrator {
    /// Stops the echo threads and waits for them.
    fn drop(&mut self) {
        self.stopping.store(true, Ordering::Release);
        let _ = self.kept.shutdown(Shutdown::Both);
        // Wakes the acceptor so that it sees the flag.
        let _ = TcpStream::connect(self.echo_addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_factor_is_the_mix_weighted_slow_down() {
        let reference = Reading(REFERENCE);
        assert!((speed_factor(reference, reference, [0.2, 0.3, 0.5]) - 1.0).abs() < 1e-12);
        // Net twice as slow before, four times after: three times on
        // average, weighted by the half of the call that is net.
        let slow_before = Reading([REFERENCE[0], REFERENCE[1], 2.0 * REFERENCE[2]]);
        let slow_after = Reading([REFERENCE[0], REFERENCE[1], 4.0 * REFERENCE[2]]);
        let f = speed_factor(slow_before, slow_after, [0.5, 0.0, 0.5]);
        assert!((f - 2.0).abs() < 1e-12, "{f}");
    }

    #[test]
    fn probes_read_positive_times_and_stop_cleanly() {
        let mut calibrator = Calibrator::start().unwrap();
        let Reading(ms) = calibrator.read().unwrap();
        assert!(ms.iter().all(|v| *v > 0.0 && v.is_finite()), "{ms:?}");
        drop(calibrator);
    }
}
