//! The server brain: validate a request against the problem catalogue,
//! run the solver, time it, and shape the reply.

use std::sync::Arc;
use std::time::Instant;

use netsolve_core::admission::AdmissionPolicy;
use netsolve_core::data::DataObject;
use netsolve_core::error::{NetSolveError, Result};
use netsolve_obs::{MetricsRegistry, SpanContext, Tracer};
use netsolve_pdl::ProblemRegistry;
use netsolve_proto::Message;
use netsolve_solvers::execute;

use crate::cache::{solve_key, Probe, SolveCache};

/// How the server satisfies requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecutionMode {
    /// Actually run the numerical routine.
    Real,
    /// Sleep for `complexity(n) / mflops` and return zero-filled outputs of
    /// the declared shapes. Used to emulate a machine of a chosen speed in
    /// live end-to-end experiments without requiring that hardware — the
    /// simulation substitute DESIGN.md documents.
    Synthetic {
        /// Emulated machine speed, Mflop/s.
        mflops: f64,
    },
}

/// Transport-free server logic.
pub struct ServerCore {
    problems: ProblemRegistry,
    mode: ExecutionMode,
    metrics: Arc<MetricsRegistry>,
    tracer: Arc<Tracer>,
    /// Optional content-addressed solve cache (+ in-flight coalescing).
    cache: Option<SolveCache>,
    /// Optional admission policy, shared with the daemon's accept-time
    /// gate. The core runs its dispatch-time checks and feeds observed
    /// service times back into the policy's per-problem histograms.
    admission: Option<Arc<AdmissionPolicy>>,
}

/// A computed reply plus how long the computation took.
#[derive(Debug)]
pub struct Execution {
    /// Output objects in catalogue order.
    pub outputs: Vec<DataObject>,
    /// Wall-clock compute seconds.
    pub compute_secs: f64,
}

impl ServerCore {
    /// Server offering the given problem catalogue.
    pub fn new(problems: ProblemRegistry, mode: ExecutionMode) -> Self {
        ServerCore {
            problems,
            mode,
            metrics: Arc::new(MetricsRegistry::new()),
            tracer: Arc::new(Tracer::new()),
            cache: None,
            admission: None,
        }
    }

    /// Replace the tracer (e.g. [`Tracer::disabled`] for overhead-free
    /// operation, or a shared tracer in tests).
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = tracer;
        self
    }

    /// Enable the content-addressed solve cache, bounded to `byte_budget`
    /// payload bytes (LRU). Identical concurrent requests additionally
    /// coalesce onto one in-flight solve. Counters land under
    /// `server.cache_*` in this core's metrics registry.
    pub fn with_cache(mut self, byte_budget: usize) -> Self {
        self.cache = Some(SolveCache::new(byte_budget, &self.metrics));
        self
    }

    /// The solve cache, if enabled via [`ServerCore::with_cache`].
    pub fn cache(&self) -> Option<&SolveCache> {
        self.cache.as_ref()
    }

    /// Install an admission policy. The daemon shares the same `Arc` for
    /// its accept-time queue gate; the core runs the policy's
    /// deadline checks at dispatch time and feeds observed service
    /// seconds into its per-problem histograms after every solve —
    /// the exact object `netsolve-sim` runs on virtual time.
    pub fn with_admission(mut self, policy: Arc<AdmissionPolicy>) -> Self {
        self.admission = Some(policy);
        self
    }

    /// The admission policy, if installed via [`ServerCore::with_admission`].
    pub fn admission(&self) -> Option<&Arc<AdmissionPolicy>> {
        self.admission.as_ref()
    }

    /// Server offering the full standard catalogue with real execution.
    pub fn with_standard_catalogue() -> Self {
        Self::new(ProblemRegistry::with_standard_catalogue(), ExecutionMode::Real)
    }

    /// The catalogue this server advertises.
    pub fn problems(&self) -> &ProblemRegistry {
        &self.problems
    }

    /// The execution mode.
    pub fn mode(&self) -> ExecutionMode {
        self.mode
    }

    /// The registry holding this server's `server.*` instruments. The
    /// daemon shares it for accept-loop metrics, and [`Message::StatsQuery`]
    /// snapshots it over the wire.
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics)
    }

    /// The tracer holding this server's `server.*` phase spans.
    /// [`Message::TraceQuery`] snapshots it over the wire.
    pub fn tracer(&self) -> Arc<Tracer> {
        Arc::clone(&self.tracer)
    }

    /// Validate and execute one request.
    pub fn run(&self, problem: &str, inputs: &[DataObject]) -> Result<Execution> {
        let spec = self.problems.require(problem)?;
        spec.check_inputs(inputs)?;
        let start = Instant::now();
        let outputs = match self.mode {
            ExecutionMode::Real => {
                let outputs = execute(problem, inputs)?;
                spec.check_outputs(&outputs).map_err(|e| {
                    NetSolveError::Internal(format!(
                        "executor output mismatch for '{problem}': {e}"
                    ))
                })?;
                outputs
            }
            ExecutionMode::Synthetic { mflops } => {
                let n = spec.dominant_dim(inputs);
                let secs = spec.complexity.seconds_at(n, mflops);
                // Cap synthetic sleeps so a mis-sized experiment cannot
                // wedge a test run for hours.
                std::thread::sleep(std::time::Duration::from_secs_f64(secs.min(30.0)));
                synthetic_outputs(spec, n)
            }
        };
        Ok(Execution { outputs, compute_secs: start.elapsed().as_secs_f64() })
    }

    /// Protocol-level dispatch: answer one client message.
    pub fn handle_message(&self, msg: &Message) -> Message {
        self.handle_message_at(msg, Instant::now())
    }

    /// Like [`ServerCore::handle_message`], but measuring deadline budgets
    /// from `received_at` — the instant the daemon pulled the message off
    /// the wire — so time spent queued behind other work counts against
    /// the request's deadline.
    pub fn handle_message_at(&self, msg: &Message, received_at: Instant) -> Message {
        match msg {
            Message::RequestSubmit {
                request_id,
                deadline_ms,
                problem,
                inputs,
                trace_id,
                parent_span,
            } => {
                // Adopt the wire-propagated trace context: the parent span
                // is the client's per-attempt span, so retries stitch as
                // distinct subtrees of one trace.
                let ctx = SpanContext {
                    trace_id: *trace_id,
                    parent_span: *parent_span,
                    request_id: *request_id,
                };
                self.metrics.counter("server.requests").inc();
                // One clock read serves as queue-span end, solve-span
                // start and the queue histogram sample — keeping the
                // traced path at two reads per request total.
                let dispatched = Instant::now();
                let queued = dispatched.saturating_duration_since(received_at);
                let queue_timer = self.tracer.start_at(received_at);
                self.metrics
                    .histogram("server.queue_secs")
                    .record_secs_traced(queued.as_secs_f64(), *trace_id);
                self.tracer.record_at(ctx, queue_timer, dispatched, "server", "queue", String::new());
                // Shed expired work: if the client's remaining budget was
                // already consumed before execution starts, nobody is
                // waiting for this result.
                // Execution-time backstop, distinct from the daemon's
                // admission gate: the gate sheds *before* a solve slot is
                // reserved (counted under `server.queue_deadline_shed` /
                // `server.admission_shed`); this catches budgets that
                // expire between slot reservation and dispatch.
                if *deadline_ms > 0 {
                    let budget = std::time::Duration::from_millis(*deadline_ms);
                    if queued >= budget {
                        self.metrics.counter("server.deadline_shed").inc();
                        self.tracer.point(
                            ctx,
                            "server",
                            "deadline_shed",
                            format!("budget={deadline_ms}ms"),
                        );
                        return Message::from_error(&NetSolveError::Timeout(format!(
                            "request {request_id} deadline ({deadline_ms} ms) expired before execution"
                        )));
                    }
                }
                // Non-deterministic problems (e.g. `quad_mc` drawing
                // fresh entropy) bypass the cache entirely: a cached or
                // coalesced reply would alias independent Monte Carlo
                // draws onto one sample.
                let cache = match &self.cache {
                    Some(c) if c.bypass_nondet(problem) => {
                        self.tracer.point(ctx, "server", "cache_bypass_nondet", String::new());
                        None
                    }
                    other => other.as_ref(),
                };
                // Cache + coalesce: hash the canonical encoding and
                // either serve a verified hit, join an identical solve
                // already in flight, or lead the solve and publish it.
                // Exactly one `solve` span exists per unique in-flight
                // problem — hits and joiners never reach the solver.
                let leader = match cache {
                    None => None,
                    Some(cache) => {
                        let lookup_timer = self.tracer.start_at(dispatched);
                        let key = solve_key(problem, inputs);
                        let probe = cache.probe(key);
                        let outcome = match &probe {
                            Probe::Hit { .. } => "hit",
                            Probe::Leader(_) => "miss",
                            Probe::Join(_) => "coalesced",
                        };
                        self.tracer.record(
                            ctx,
                            lookup_timer,
                            "server",
                            "cache_lookup",
                            outcome.to_string(),
                        );
                        match probe {
                            Probe::Hit { outputs, compute_secs } => {
                                self.tracer.point(ctx, "server", "cache_hit", String::new());
                                self.metrics.counter("server.requests_ok").inc();
                                return Message::RequestReply {
                                    request_id: *request_id,
                                    outputs,
                                    compute_secs,
                                    cached: true,
                                };
                            }
                            Probe::Join(waiter) => {
                                let wait_timer = self.tracer.start();
                                let joined = waiter.wait();
                                let detail = match &joined {
                                    Ok(_) => String::new(),
                                    Err(e) => format!("err={e}"),
                                };
                                self.tracer.record(
                                    ctx,
                                    wait_timer,
                                    "server",
                                    "coalesce_wait",
                                    detail,
                                );
                                return match joined {
                                    Ok((outputs, compute_secs)) => {
                                        self.metrics.counter("server.requests_ok").inc();
                                        Message::RequestReply {
                                            request_id: *request_id,
                                            outputs,
                                            compute_secs,
                                            cached: true,
                                        }
                                    }
                                    Err(e) => {
                                        self.metrics.counter("server.requests_failed").inc();
                                        Message::from_error(&e)
                                    }
                                };
                            }
                            Probe::Leader(token) => Some(token),
                        }
                    }
                };
                // Without a cache the dispatch clock read still doubles
                // as the solve-span start (the uncached path keeps its
                // two-reads-per-request budget — see the r9 experiment);
                // with one, the lookup sits in between.
                let solve_timer = if cache.is_some() {
                    self.tracer.start()
                } else {
                    self.tracer.start_at(dispatched)
                };
                let run = self.run(problem, inputs);
                let solve_detail = match &run {
                    // Success is the hot path: no allocation per event.
                    // The problem name already rides on the client's
                    // attempt span, so an empty detail loses nothing.
                    Ok(_) => String::new(),
                    Err(e) => format!("problem={problem} err={e}"),
                };
                self.tracer.record(ctx, solve_timer, "server", "solve", solve_detail);
                match run {
                    Ok(exec) => {
                        if let Some(token) = leader {
                            token.complete_ok(&exec.outputs, exec.compute_secs);
                        }
                        // Feed the admission policy's per-problem service
                        // histogram — the basis of its deadline-aware
                        // early rejects and retry hints.
                        if let Some(policy) = &self.admission {
                            policy.observe_service(problem, exec.compute_secs);
                        }
                        self.metrics.counter("server.requests_ok").inc();
                        self.metrics
                            .histogram("server.compute_secs")
                            .record_secs_traced(exec.compute_secs, *trace_id);
                        Message::RequestReply {
                            request_id: *request_id,
                            outputs: exec.outputs,
                            compute_secs: exec.compute_secs,
                            cached: false,
                        }
                    }
                    Err(e) => {
                        if let Some(token) = leader {
                            token.complete_err(&e);
                        }
                        self.metrics.counter("server.requests_failed").inc();
                        Message::from_error(&e)
                    }
                }
            }
            Message::TraceQuery { trace_id } => {
                // A trace pull from an old peer still surfaces in the counter.
                netsolve_proto::mirror_version_downgrades(&self.metrics);
                Message::TraceReply {
                    component: "server".to_string(),
                    spans: self.tracer.snapshot_trace(*trace_id),
                }
            }
            Message::StatsQuery => {
                netsolve_proto::mirror_version_downgrades(&self.metrics);
                Message::StatsReply(self.metrics.snapshot("server"))
            }
            Message::Ping => Message::Pong,
            Message::ListProblems => Message::ProblemCatalogue {
                names: self.problems.names(),
            },
            Message::DescribeProblem { problem } => match self.problems.get(problem) {
                Some(spec) => Message::ProblemDescription { pdl: netsolve_pdl::render(spec) },
                None => Message::from_error(&NetSolveError::ProblemNotFound(problem.clone())),
            },
            other => Message::from_error(&NetSolveError::Protocol(format!(
                "server cannot handle {}",
                other.name()
            ))),
        }
    }
}

/// Zero-filled outputs of the declared kinds/sizes for synthetic execution.
fn synthetic_outputs(spec: &netsolve_core::ProblemSpec, n: u64) -> Vec<DataObject> {
    use netsolve_core::ObjectKind;
    spec.outputs
        .iter()
        .map(|o| match o.kind {
            ObjectKind::IntScalar => DataObject::Int(0),
            ObjectKind::DoubleScalar => DataObject::Double(0.0),
            ObjectKind::Vector => DataObject::Vector(vec![0.0; n as usize]),
            ObjectKind::Matrix => {
                DataObject::Matrix(netsolve_core::Matrix::zeros(n as usize, n as usize))
            }
            ObjectKind::SparseMatrix => {
                DataObject::Sparse(netsolve_core::CsrMatrix::identity(n as usize))
            }
            ObjectKind::Text => DataObject::Text(String::new()),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsolve_core::matrix::{vec_max_abs_diff, Matrix};
    use netsolve_core::rng::Rng64;

    #[test]
    fn runs_real_dgesv() {
        let core = ServerCore::with_standard_catalogue();
        let mut rng = Rng64::new(7);
        let a = Matrix::random_diag_dominant(12, &mut rng);
        let x_true: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let b = a.matvec(&x_true).unwrap();
        let exec = core.run("dgesv", &[a.into(), b.into()]).unwrap();
        assert_eq!(exec.outputs.len(), 1);
        assert!(vec_max_abs_diff(exec.outputs[0].as_vector().unwrap(), &x_true) < 1e-9);
        assert!(exec.compute_secs >= 0.0);
    }

    #[test]
    fn rejects_unknown_problem_and_bad_inputs() {
        let core = ServerCore::with_standard_catalogue();
        assert!(matches!(
            core.run("made_up", &[]),
            Err(NetSolveError::ProblemNotFound(_))
        ));
        assert!(matches!(
            core.run("dgesv", &[DataObject::Int(1)]),
            Err(NetSolveError::BadArguments(_))
        ));
    }

    #[test]
    fn numerical_failures_propagate() {
        let core = ServerCore::with_standard_catalogue();
        let singular = Matrix::zeros(3, 3);
        let r = core.run("dgesv", &[singular.into(), vec![1.0, 2.0, 3.0].into()]);
        assert!(matches!(r, Err(NetSolveError::Numerical(_))));
    }

    #[test]
    fn synthetic_mode_sleeps_proportionally_and_shapes_outputs() {
        // 100 Mflop/s emulated machine, dgesv n = 200: (2/3)(8e6)/(1e8) ≈ 53 ms.
        let core = ServerCore::new(
            ProblemRegistry::with_standard_catalogue(),
            ExecutionMode::Synthetic { mflops: 100.0 },
        );
        let a = Matrix::identity(200);
        let b = vec![0.0; 200];
        let start = Instant::now();
        let exec = core.run("dgesv", &[a.into(), b.into()]).unwrap();
        let elapsed = start.elapsed().as_secs_f64();
        assert!(elapsed > 0.03, "too fast: {elapsed}");
        assert_eq!(exec.outputs.len(), 1);
        assert_eq!(exec.outputs[0].as_vector().unwrap().len(), 200);
    }

    /// After the process has decoded an old-version frame, a StatsQuery
    /// must surface `proto.version_downgrade` in the snapshot.
    #[test]
    fn stats_surface_version_downgrades() {
        // Force at least one downgraded decode through the real reader.
        let v1 = netsolve_proto::frame_bytes_versioned(&Message::Ping, 1).unwrap();
        let (msg, _) = netsolve_proto::parse_frame(&v1).unwrap();
        assert_eq!(msg, Message::Ping);

        let core = ServerCore::with_standard_catalogue();
        match core.handle_message(&Message::StatsQuery) {
            Message::StatsReply(snap) => {
                let n = snap
                    .counters
                    .iter()
                    .find(|(name, _)| name == "proto.version_downgrade")
                    .map(|(_, v)| *v)
                    .expect("proto.version_downgrade counter missing from stats");
                assert!(n >= 1, "downgrade not counted: {n}");
            }
            other => panic!("expected StatsReply, got {other:?}"),
        }
    }

    #[test]
    fn message_dispatch() {
        let core = ServerCore::with_standard_catalogue();
        let reply = core.handle_message(&Message::RequestSubmit {
            request_id: 77,
            deadline_ms: 0,
            problem: "ddot".into(),
            inputs: vec![vec![1.0, 2.0].into(), vec![3.0, 4.0].into()],
            trace_id: 0,
            parent_span: 0,
        });
        match reply {
            Message::RequestReply { request_id, outputs, .. } => {
                assert_eq!(request_id, 77);
                assert_eq!(outputs[0].as_double().unwrap(), 11.0);
            }
            other => panic!("unexpected {other:?}"),
        }

        assert_eq!(core.handle_message(&Message::Ping), Message::Pong);

        let reply = core.handle_message(&Message::ListProblems);
        assert!(matches!(reply, Message::ProblemCatalogue { names } if names.len() >= 16));

        let reply = core.handle_message(&Message::DescribeProblem { problem: "fft".into() });
        assert!(matches!(reply, Message::ProblemDescription { .. }));

        let reply = core.handle_message(&Message::DescribeProblem { problem: "zz".into() });
        assert!(matches!(reply, Message::Error { .. }));

        let reply = core.handle_message(&Message::ListProblems);
        assert!(!matches!(reply, Message::Error { .. }));

        // misdirected message
        let reply = core.handle_message(&Message::Pong);
        assert!(matches!(reply, Message::Error { .. }));
    }

    #[test]
    fn failed_request_reports_error_code() {
        let core = ServerCore::with_standard_catalogue();
        let reply = core.handle_message(&Message::RequestSubmit {
            request_id: 1,
            deadline_ms: 0,
            problem: "nope".into(),
            inputs: vec![],
            trace_id: 0,
            parent_span: 0,
        });
        match reply {
            Message::Error { code, .. } => {
                assert_eq!(code, NetSolveError::ProblemNotFound(String::new()).code());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_sheds_request() {
        let core = ServerCore::with_standard_catalogue();
        let msg = Message::RequestSubmit {
            request_id: 9,
            deadline_ms: 10,
            problem: "ddot".into(),
            inputs: vec![vec![1.0].into(), vec![1.0].into()],
            trace_id: 0,
            parent_span: 0,
        };
        // Received 50 ms ago with a 10 ms budget: shed with Timeout.
        let received = Instant::now() - std::time::Duration::from_millis(50);
        match core.handle_message_at(&msg, received) {
            Message::Error { code, detail } => {
                assert_eq!(code, NetSolveError::Timeout(String::new()).code());
                assert!(detail.contains("deadline"), "detail: {detail}");
            }
            other => panic!("unexpected {other:?}"),
        }
        // Fresh budget: executes normally.
        match core.handle_message_at(&msg, Instant::now()) {
            Message::RequestReply { request_id, .. } => assert_eq!(request_id, 9),
            other => panic!("unexpected {other:?}"),
        }
        // No deadline: never shed.
        let no_deadline = Message::RequestSubmit {
            request_id: 10,
            deadline_ms: 0,
            problem: "ddot".into(),
            inputs: vec![vec![1.0].into(), vec![1.0].into()],
            trace_id: 0,
            parent_span: 0,
        };
        assert!(matches!(
            core.handle_message_at(&no_deadline, received),
            Message::RequestReply { .. }
        ));
    }
}
