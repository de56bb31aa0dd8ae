//! The closed loop: each client sends its next call when the previous
//! reply has arrived and been checked, until the segment's time is up.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use netsolve_client::NetSolveClient;
use netsolve_core::DataObject;

use crate::domain::{ServerCounts, Setup};
use crate::spans::{self, HSpan};
use crate::sys;
use crate::workload::{backward_error, Case};

/// `server.cache_*` metrics count the calls up to this point of the
/// timed sequence, so that they repeat exactly for a seed.
pub const CACHE_WINDOW_CALLS: u64 = 2000;

/// One traced call, for matching harness spans to the program's trace.
pub struct CallRecord {
    pub call: u64,
    pub trace_id: u128,
    pub wall_ns: u64,
}

/// What one client's loop measured.
#[derive(Default)]
pub struct ClientLog {
    /// Wall milliseconds of each call that returned the right answer.
    pub ok_ms: Vec<f64>,
    pub failed: u64,
    /// First few failures, for the operator.
    pub errors: Vec<String>,
    /// Payload bytes of the calls in `ok_ms` (computed from object sizes).
    pub payload_bytes: u64,
    /// Loop time excluding the harness's own answer checking.
    pub active_secs: f64,
    pub verify_secs: f64,
    /// Sum of `CallReport.attempts` over the calls in `ok_ms`.
    pub attempts: u64,
    /// Wall minus server-reported compute, microseconds, of each call
    /// whose reply was freshly computed (cache hits echo the original
    /// solve's compute time, so they are left out).
    pub overhead_us: Vec<f64>,
    /// Traced run only.
    pub calls: Vec<CallRecord>,
    pub spans: Vec<HSpan>,
    pub backward_err_max: f64,
    /// Server counters when this client had made [`CACHE_WINDOW_CALLS`].
    pub cache_window: Option<ServerCounts>,
}

/// One timed segment over a set-up domain.
pub struct Segment {
    pub logs: Vec<ClientLog>,
    /// Process CPU seconds over the segment, answer checking excluded.
    pub cpu_secs: f64,
}

impl Segment {
    pub fn ok(&self) -> u64 {
        self.logs.iter().map(|l| l.ok_ms.len() as u64).sum()
    }

    pub fn failed(&self) -> u64 {
        self.logs.iter().map(|l| l.failed).sum()
    }

    /// Ascending wall milliseconds of the verified calls.
    pub fn ok_ms_sorted(&self) -> Vec<f64> {
        let mut ms: Vec<f64> = self
            .logs
            .iter()
            .flat_map(|l| l.ok_ms.iter().copied())
            .collect();
        ms.sort_by(f64::total_cmp);
        ms
    }

    /// Verified calls per second, summed over the clients' own clocks.
    pub fn calls_per_sec(&self) -> f64 {
        self.logs
            .iter()
            .map(|l| l.ok_ms.len() as f64 / l.active_secs)
            .sum()
    }

    /// Payload MiB per second of verified calls (computed byte counts).
    pub fn goodput_mib_per_sec(&self) -> f64 {
        self.logs
            .iter()
            .map(|l| l.payload_bytes as f64 / l.active_secs)
            .sum::<f64>()
            / (1024.0 * 1024.0)
    }
}

/// Run every client's closed loop for `duration`. With `trace_epoch` set
/// the harness records its spans and the per-call trace ids as well.
/// `cursors` holds how far each client has come in its call sequence, so
/// that consecutive segments continue it.
pub fn run_segment(
    setup: &Setup,
    duration: Duration,
    trace_epoch: Option<Instant>,
    cursors: &mut [u64],
) -> Segment {
    let barrier = Barrier::new(setup.clients.len());
    let cpu_before = sys::cpu_seconds();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let loops: Vec<_> = setup
            .clients
            .iter()
            .zip(&setup.plan.order)
            .zip(cursors.iter_mut())
            .enumerate()
            .map(|(lane, ((client, order), cursor))| {
                let barrier = &barrier;
                scope.spawn(move || {
                    if let Some(epoch) = trace_epoch {
                        spans::install(epoch, lane as u64 + 1);
                    }
                    barrier.wait();
                    let mut log = client_loop(
                        setup,
                        client,
                        order,
                        cursor,
                        duration,
                        trace_epoch.is_some(),
                    );
                    log.spans = spans::take();
                    log
                })
            })
            .collect();
        loops
            .into_iter()
            .map(|l| l.join().expect("client loop does not panic"))
            .collect()
    });
    let verify: f64 = logs.iter().map(|l| l.verify_secs).sum();
    let cpu_secs = match (cpu_before, sys::cpu_seconds()) {
        // Answer checking is single-threaded arithmetic, so its wall
        // time stands in for its CPU time.
        (Some(before), Some(after)) => (after - before - verify).max(0.0),
        _ => 0.0,
    };
    Segment { logs, cpu_secs }
}

fn client_loop(
    setup: &Setup,
    client: &NetSolveClient,
    order: &[u32],
    cursor: &mut u64,
    duration: Duration,
    traced: bool,
) -> ClientLog {
    let mut log = ClientLog::default();
    let cached_replies = client.metrics().counter("client.cached_replies");
    let started = Instant::now();
    let mut sent = 0u64;
    while started.elapsed() < duration {
        let case = &setup.plan.cases[order[*cursor as usize % order.len()] as usize];
        *cursor += 1;
        sent += 1;
        let call = if traced { spans::next_call() } else { 0 };
        let cached_before = cached_replies.get();
        let call_span = spans::span("harness.call", case.problem);
        let begun = Instant::now();
        let result = client.netsl_timed(case.problem, &case.inputs);
        let wall = begun.elapsed();
        drop(call_span);

        let checking = Instant::now();
        match result {
            Ok((outputs, report)) if case.matches(&outputs) => {
                log.ok_ms.push(wall.as_secs_f64() * 1e3);
                log.payload_bytes += case.payload_bytes;
                log.attempts += u64::from(report.attempts);
                if cached_replies.get() == cached_before {
                    log.overhead_us
                        .push((wall.as_secs_f64() - report.compute_secs) * 1e6);
                }
                if traced {
                    log.calls.push(CallRecord {
                        call,
                        trace_id: report.trace_id,
                        wall_ns: wall.as_nanos() as u64,
                    });
                    log.backward_err_max = log
                        .backward_err_max
                        .max(reply_backward_error(case, &outputs));
                }
            }
            Ok(_) => log.fail(format!("{}: wrong answer", case.problem)),
            Err(e) => log.fail(format!("{}: {e}", case.problem)),
        }
        if traced && sent == CACHE_WINDOW_CALLS {
            log.cache_window = Some(setup.domain.server_counts());
        }
        log.verify_secs += checking.elapsed().as_secs_f64();
    }
    log.active_secs = started.elapsed().as_secs_f64() - log.verify_secs;
    log
}

impl ClientLog {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 3 {
            self.errors.push(why);
        }
    }
}

/// Backward error of a `dgesv` reply; 0 for problems without a residual.
fn reply_backward_error(case: &Case, outputs: &[DataObject]) -> f64 {
    match (case.inputs.as_slice(), outputs) {
        ([DataObject::Matrix(a), DataObject::Vector(b)], [DataObject::Vector(x)]) => {
            backward_error(a, x, b)
        }
        _ => 0.0,
    }
}
