//! The server brain: the whole life of a request, stated once.
//!
//! `ServerCore::serve` is the request path — admit → dequeue → solve —
//! as one straight-line function whose stages are the methods below it,
//! in call order; the solve stage is the solver with the cache, when one
//! is installed, as its one layer. DESIGN.md §4n tabulates, per stage,
//! how a request can end there and the counter and span it leaves.

use std::sync::Arc;
use std::time::{Duration, Instant};

use netsolve_core::admission::{
    format_busy_detail, AdmissionDecision, AdmissionPolicy, ShedReason,
};
use netsolve_core::clock::{Clock, RealClock};
use netsolve_core::data::DataObject;
use netsolve_core::error::{NetSolveError, Result};
use netsolve_obs::{MetricsRegistry, SpanContext, SpanTimer, Tracer};
use netsolve_pdl::ProblemRegistry;
use netsolve_proto::Message;
use netsolve_solvers::execute;

use crate::cache::{Probe, SolveCache};
use crate::gate::{budget_left_ms, AdmissionGate};

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
    /// Optional admission policy and the solve slots it guards.
    gate: Option<AdmissionGate>,
    /// Where receipt, dispatch, deadlines and the synthetic solve's sleep
    /// are read and spent: the daemon's transport's clock.
    clock: Arc<dyn Clock>,
}

/// An answered request: the outputs and what they cost to compute.
#[derive(Debug)]
pub(crate) struct Solved {
    /// Output objects in catalogue order.
    pub(crate) outputs: Vec<DataObject>,
    /// Wall-clock compute seconds of the solve that produced them.
    pub(crate) compute_secs: f64,
    /// Whether they came from the cache (a hit, or a coalesced join)
    /// rather than from this request's own solve.
    pub(crate) cached: bool,
}

/// One `RequestSubmit`, borrowed from its message.
struct Request<'a> {
    ctx: SpanContext,
    deadline_ms: u64,
    problem: &'a str,
    inputs: &'a [DataObject],
    received_at: Instant,
}

/// The three points at which a request's deadline budget can be found
/// spent. Each keeps its own counter, span phase and message, so an
/// operator can tell "arrived dead" from "died waiting for a slot" from
/// "died between slot and dispatch".
#[derive(Debug, Clone, Copy)]
enum Expired {
    AtAdmission,
    WhileQueued,
    BeforeExecution,
}

impl Expired {
    /// This point's counter, span phase and message tail.
    fn names(self) -> (&'static str, &'static str, &'static str) {
        match self {
            Expired::AtAdmission => {
                ("server.admission_shed", "admission_shed", "expired at admission")
            }
            Expired::WhileQueued => {
                ("server.queue_deadline_shed", "queue_deadline_shed", "expired while queued")
            }
            Expired::BeforeExecution => {
                ("server.deadline_shed", "deadline_shed", "expired before execution")
            }
        }
    }
}

/// A request the server has taken on. Until dropped — on every way out of
/// [`ServerCore::serve`], error paths included — it holds a solve slot
/// (when a gate is installed) and counts in `server.active_requests`.
struct Admitted<'a> {
    core: &'a ServerCore,
    received_at: Instant,
}

impl Drop for Admitted<'_> {
    fn drop(&mut self) {
        if let Some(gate) = &self.core.gate {
            gate.release();
        }
        self.core.metrics.gauge("server.active_requests").dec();
        self.core
            .metrics
            .histogram("server.request_handle_secs")
            .record_secs(self.core.clock.since(self.received_at).as_secs_f64());
    }
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
            gate: None,
            clock: Arc::new(RealClock),
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

    /// Install admission control — the only way to. Requests then pass
    /// `policy` *before* reserving a solve slot (one slot, until a daemon
    /// sizes the gate from its `ServerConfig::capacity`): queue-depth shed
    /// with hysteresis, deadline-aware early reject, and a distinct shed
    /// for budgets that expire while queued. Every solve's seconds per
    /// predicted flop feed the policy's learned per-problem rate. The caller
    /// keeps its `Arc` to read the decision counters — it is the exact
    /// object `netsolve-sim` runs on virtual time.
    pub fn with_admission(mut self, policy: Arc<AdmissionPolicy>) -> Self {
        self.gate = Some(AdmissionGate::new(policy));
        self
    }

    /// Size the solve-slot gate (a no-op without admission): how many
    /// requests solve concurrently is the daemon's deployment config.
    pub(crate) fn with_solve_slots(mut self, slots: u32) -> Self {
        if let Some(gate) = &mut self.gate {
            gate.slots = slots.max(1);
        }
        self
    }

    /// Read and spend time on `clock`: a daemon hands its core the
    /// transport's clock, and a standalone core keeps the system clock.
    pub(crate) fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// The clock this core reads and spends time on.
    pub(crate) fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Server offering the full standard catalogue with real execution.
    pub fn with_standard_catalogue() -> Self {
        Self::new(ProblemRegistry::with_standard_catalogue(), ExecutionMode::Real)
    }

    /// The catalogue this server advertises.
    pub fn problems(&self) -> &ProblemRegistry {
        &self.problems
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

    /// Protocol-level dispatch: answer one client message.
    pub fn handle_message(&self, msg: &Message) -> Message {
        self.handle_message_at(msg, self.clock.now()).0
    }

    /// Like [`ServerCore::handle_message`], but measuring deadline budgets
    /// from `received_at` — the instant the daemon pulled the message off
    /// the wire — so time spent queued behind other work counts against
    /// the request's deadline. A `RequestSubmit` also hands back its span
    /// context, so the daemon can attribute the reply's `encode` span
    /// without looking inside the request.
    pub(crate) fn handle_message_at(
        &self,
        msg: &Message,
        received_at: Instant,
    ) -> (Message, Option<SpanContext>) {
        let Message::RequestSubmit {
            request_id,
            deadline_ms,
            problem,
            inputs,
            trace_id,
            parent_span,
        } = msg
        else {
            return (self.answer_query(msg), None);
        };
        // Adopt the wire-propagated trace context: the parent span is the
        // client's per-attempt span, so retries stitch as distinct subtrees
        // of one trace.
        let ctx = SpanContext {
            trace_id: *trace_id,
            parent_span: *parent_span,
            request_id: *request_id,
        };
        let req = Request { ctx, deadline_ms: *deadline_ms, problem, inputs, received_at };
        let reply = match self.serve(&req) {
            Ok(Solved { outputs, compute_secs, cached }) => Message::RequestReply {
                request_id: *request_id,
                outputs,
                compute_secs,
                cached,
            },
            Err(e) => Message::from_error(&e),
        };
        (reply, Some(ctx))
    }

    /// Everything a server answers that is not a solve.
    fn answer_query(&self, msg: &Message) -> Message {
        match msg {
            Message::TraceQuery { trace_id } => Message::TraceReply {
                component: "server".to_string(),
                spans: self.tracer.snapshot_trace(*trace_id),
            },
            Message::StatsQuery => Message::StatsReply(self.metrics.snapshot("server")),
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

    /// The request path. A request refused by `admit` or `dequeue` leaves
    /// through `?` with the refusing stage's own counter and span; one that
    /// gets past them is counted ok or failed, exactly once, here.
    fn serve(&self, req: &Request<'_>) -> Result<Solved> {
        let _admitted = self.admit(req)?;
        let dispatched = self.dequeue(req)?;
        let outcome = self.solve(req, dispatched);
        let counter = if outcome.is_ok() { "server.requests_ok" } else { "server.requests_failed" };
        self.metrics.counter(counter).inc();
        outcome
    }

    /// Stage 1 — take the request on, or shed it *before* it reserves a
    /// solve slot or counts as active: the policy decides on queue depth
    /// and remaining budget, then the request waits its turn for a slot.
    fn admit(&self, req: &Request<'_>) -> Result<Admitted<'_>> {
        if let Some(gate) = &self.gate {
            let depth = gate.depth();
            let left = budget_left_ms(req.deadline_ms, self.clock.since(req.received_at));
            if let AdmissionDecision::Shed { reason, retry_after_ms } =
                gate.policy.admit(req.problem, self.predicted_flops(req), depth, left)
            {
                let detail =
                    format!("reason={} depth={depth} hint={retry_after_ms}ms", reason.name());
                return Err(match reason {
                    // Budget already gone: a retry hint is meaningless, the
                    // client's deadline path owns what happens next.
                    ShedReason::DeadlineExpired => {
                        self.deadline_shed(req, Expired::AtAdmission, detail)
                    }
                    // Retryable Busy carrying the backoff hint.
                    ShedReason::QueueFull | ShedReason::DeadlineUnmeetable => {
                        self.metrics.counter("server.admission_shed").inc();
                        self.tracer.point(req.ctx, "server", "admission_shed", detail);
                        NetSolveError::Resource(format_busy_detail(reason, depth, retry_after_ms))
                    }
                });
            }
            if !gate.acquire(self.clock.as_ref(), req.received_at, req.deadline_ms) {
                let detail = format!("budget={}ms", req.deadline_ms);
                return Err(self.deadline_shed(req, Expired::WhileQueued, detail));
            }
        }
        self.metrics.gauge("server.active_requests").inc();
        Ok(Admitted { core: self, received_at: req.received_at })
    }

    /// Stage 2 — the request leaves the queue. One clock read serves as
    /// queue-span end, solve-span start and the queue histogram sample,
    /// keeping the traced path at two reads per request. Then the
    /// backstop for budgets that expired between slot and dispatch:
    /// nobody is waiting for that result any more.
    fn dequeue(&self, req: &Request<'_>) -> Result<Instant> {
        self.metrics.counter("server.requests").inc();
        let dispatched = self.clock.now();
        let queued = dispatched.saturating_duration_since(req.received_at);
        let queue_timer = self.tracer.start_at(req.received_at);
        self.metrics
            .histogram("server.queue_secs")
            .record_secs_traced(queued.as_secs_f64(), req.ctx.trace_id);
        self.tracer.record_at(req.ctx, queue_timer, dispatched, "server", "queue", String::new());
        if budget_left_ms(req.deadline_ms, queued) == Some(0) {
            let detail = format!("budget={}ms", req.deadline_ms);
            return Err(self.deadline_shed(req, Expired::BeforeExecution, detail));
        }
        Ok(dispatched)
    }

    /// The one way a spent deadline budget ends a request: `point`'s
    /// counter, `point`'s zero-length span, `point`'s Timeout message.
    fn deadline_shed(&self, req: &Request<'_>, point: Expired, detail: String) -> NetSolveError {
        let (counter, phase, tail) = point.names();
        self.metrics.counter(counter).inc();
        self.tracer.point(req.ctx, "server", phase, detail);
        NetSolveError::Timeout(format!(
            "request {} deadline ({} ms) {tail}",
            req.ctx.request_id, req.deadline_ms
        ))
    }

    /// The complexity model's flops for `req`: 0 for a problem this server
    /// does not offer (`run` refuses it).
    fn predicted_flops(&self, req: &Request<'_>) -> f64 {
        self.problems.get(req.problem).map_or(0.0, |spec| spec.predicted_flops(req.inputs))
    }

    /// Stage 3 — answer the request. Without a cache this is `execute`,
    /// its span started at the dispatch clock read (the uncached path's
    /// two-reads budget, which the ledger's `obs.harness_overhead_pct` row
    /// prices). With one, the cache is the one layer over the solver: it
    /// declines a non-deterministic problem, answers a verified hit or an
    /// identical solve already in flight, or makes this request the
    /// solve's leader. Exactly one `solve` span exists per unique
    /// in-flight problem: hits and joiners never reach the solver.
    fn solve(&self, req: &Request<'_>, dispatched: Instant) -> Result<Solved> {
        let Some(cache) = &self.cache else {
            return self.execute(req, self.tracer.start_at(dispatched));
        };
        let lookup_timer = self.tracer.start_at(dispatched);
        let looked_up = |outcome: &str| {
            self.tracer.record(req.ctx, lookup_timer, "server", "cache_lookup", outcome.to_string())
        };
        match cache.probe(req.problem, req.inputs) {
            Probe::Declined => {
                self.tracer.point(req.ctx, "server", "cache_bypass_nondet", String::new());
                self.execute(req, self.tracer.start_at(dispatched))
            }
            Probe::Hit(solved) => {
                looked_up("hit");
                self.tracer.point(req.ctx, "server", "cache_hit", String::new());
                Ok(solved)
            }
            Probe::Join(waiter) => {
                looked_up("coalesced");
                let wait_timer = self.tracer.start();
                let joined = waiter.wait();
                let detail = match &joined {
                    Ok(_) => String::new(),
                    Err(e) => format!("err={e}"),
                };
                self.tracer.record(req.ctx, wait_timer, "server", "coalesce_wait", detail);
                joined
            }
            Probe::Leader(token) => {
                looked_up("miss");
                let run = self.execute(req, self.tracer.start());
                token.complete(&run);
                run
            }
        }
    }

    /// Run the solver under the `solve` span. A solve that ran feeds the
    /// admission policy's learned per-problem rate — the basis of its
    /// deadline-aware early rejects and retry hints — and
    /// `server.compute_secs`.
    fn execute(&self, req: &Request<'_>, solve_timer: SpanTimer) -> Result<Solved> {
        let run = self.run(req.problem, req.inputs);
        let detail = match &run {
            // Success is the hot path: no allocation per event. The
            // problem name already rides on the client's attempt span, so
            // an empty detail loses nothing.
            Ok(_) => String::new(),
            Err(e) => format!("problem={} err={e}", req.problem),
        };
        self.tracer.record(req.ctx, solve_timer, "server", "solve", detail);
        if let Ok(solved) = &run {
            if let Some(gate) = &self.gate {
                gate.policy.observe_service(
                    req.problem,
                    self.predicted_flops(req),
                    solved.compute_secs,
                );
            }
            self.metrics
                .histogram("server.compute_secs")
                .record_secs_traced(solved.compute_secs, req.ctx.trace_id);
        }
        run
    }

    /// Validate and execute one request.
    fn run(&self, problem: &str, inputs: &[DataObject]) -> Result<Solved> {
        let spec = self.problems.require(problem)?;
        spec.check_inputs(inputs)?;
        let start = self.clock.now();
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
                self.clock.sleep(Duration::from_secs_f64(secs.min(30.0)));
                synthetic_outputs(spec, n)
            }
        };
        Ok(Solved { outputs, compute_secs: self.clock.since(start).as_secs_f64(), cached: false })
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
pub(crate) mod tests {
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

    #[test]
    fn message_dispatch() {
        let core = ServerCore::with_standard_catalogue();
        let reply = core.handle_message(&submit(77, 0, "ddot", vec![vec![1.0, 2.0].into(), vec![3.0, 4.0].into()]));
        match reply {
            Message::RequestReply { request_id, outputs, .. } => {
                assert_eq!(request_id, 77);
                assert_eq!(outputs[0].as_double().unwrap(), 11.0);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(paths(&core), ["77: queue, solve"], "the uncached path");

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
        let reply = core.handle_message(&submit(1, 0, "nope", vec![]));
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
        let msg = submit(9, 10, "ddot", vec![vec![1.0].into(), vec![1.0].into()]);
        // Received 50 ms ago with a 10 ms budget: shed with Timeout.
        let received = Instant::now() - std::time::Duration::from_millis(50);
        match core.handle_message_at(&msg, received).0 {
            Message::Error { code, detail } => {
                assert_eq!(code, NetSolveError::Timeout(String::new()).code());
                assert!(detail.contains("deadline"), "detail: {detail}");
            }
            other => panic!("unexpected {other:?}"),
        }
        // Fresh budget: executes normally.
        match core.handle_message_at(&msg, Instant::now()).0 {
            Message::RequestReply { request_id, .. } => assert_eq!(request_id, 9),
            other => panic!("unexpected {other:?}"),
        }
        // No deadline: never shed.
        let no_deadline = submit(10, 0, "ddot", vec![vec![1.0].into(), vec![1.0].into()]);
        assert!(matches!(
            core.handle_message_at(&no_deadline, received).0,
            Message::RequestReply { .. }
        ));
    }

    /// Receipt and admission read the core's clock: a virtual clock moved
    /// past a request's budget between the two sheds it at admission, and
    /// no wall time passes.
    #[test]
    fn a_budget_spent_on_the_core_clock_sheds_at_admission() {
        use netsolve_core::admission::{AdmissionConfig, AdmissionPolicy};
        use netsolve_core::clock::VirtualClock;
        let wall = Instant::now();
        let clock = VirtualClock::new();
        let policy = AdmissionPolicy::new(AdmissionConfig::with_max_queue(4));
        let core = ServerCore::with_standard_catalogue()
            .with_admission(Arc::new(policy))
            .with_clock(Arc::new(clock.clone()));
        let ddot = || vec![vec![1.0].into(), vec![1.0].into()];
        let received_at = clock.now();
        clock.advance(Duration::from_millis(11));
        match core.handle_message_at(&submit(1, 10, "ddot", ddot()), received_at).0 {
            Message::Error { code, detail } => {
                assert_eq!(code, NetSolveError::Timeout(String::new()).code());
                assert!(detail.contains("expired at admission"), "{detail}");
            }
            other => panic!("budget spent on the clock: {other:?}"),
        }
        let count = |name: &str| core.metrics.counter(name).get();
        assert_eq!((count("server.admission_shed"), count("server.requests")), (1, 0));
        // The same budget, received now, is served.
        let fresh = core.handle_message_at(&submit(2, 10, "ddot", ddot()), clock.now()).0;
        assert!(matches!(fresh, Message::RequestReply { request_id: 2, .. }), "{fresh:?}");
        assert!(wall.elapsed() < Duration::from_secs(1), "took {:?}", wall.elapsed());
    }

    pub(crate) fn submit(request_id: u64, deadline_ms: u64, problem: &str, inputs: Vec<DataObject>) -> Message {
        Message::RequestSubmit {
            request_id,
            deadline_ms,
            problem: problem.into(),
            inputs,
            trace_id: 0xbeef,
            parent_span: 1,
        }
    }

    fn server_phases(core: &ServerCore) -> Vec<&'static str> {
        core.tracer.spans().iter().filter(|s| s.component == "server").map(|s| s.phase).collect()
    }

    /// The three places a spent deadline budget can end a request share
    /// one test and one shaper; each keeps its own counter, span phase and
    /// message.
    #[test]
    fn each_deadline_point_keeps_its_own_counter_span_and_message() {
        use std::time::Duration;
        assert_eq!(budget_left_ms(0, Duration::from_secs(3600)), None, "no deadline never expires");
        assert_eq!(budget_left_ms(10, Duration::from_micros(9_900)), Some(1));
        assert_eq!(budget_left_ms(10, Duration::from_millis(10)), Some(0));
        assert_eq!(budget_left_ms(10, Duration::from_millis(50)), Some(0));

        let table = [
            (Expired::AtAdmission, "server.admission_shed", "admission_shed", "at admission"),
            (
                Expired::WhileQueued,
                "server.queue_deadline_shed",
                "queue_deadline_shed",
                "while queued",
            ),
            (Expired::BeforeExecution, "server.deadline_shed", "deadline_shed", "before execution"),
        ];
        for (point, counter, phase, tail) in table {
            let core = ServerCore::with_standard_catalogue();
            let req = Request {
                ctx: SpanContext { trace_id: 9, parent_span: 1, request_id: 7 },
                deadline_ms: 10,
                problem: "ddot",
                inputs: &[],
                received_at: Instant::now(),
            };
            match core.deadline_shed(&req, point, "budget=10ms".into()) {
                NetSolveError::Timeout(detail) => assert_eq!(
                    detail,
                    format!("request 7 deadline (10 ms) expired {tail}"),
                    "{point:?}"
                ),
                other => panic!("{point:?}: expected Timeout, got {other:?}"),
            }
            let snap = core.metrics.snapshot("server");
            for (_, name, ..) in table {
                assert_eq!(snap.counter(name), u64::from(name == counter), "{point:?}: {name}");
            }
            assert_eq!(server_phases(&core), [phase], "{point:?}");
        }
    }

    /// A virtual clock whose sleeps wait while the test holds them: a
    /// synthetic solve begun under a hold stays in flight until it is
    /// lifted, and no budget runs out on wall time.
    #[derive(Clone, Default)]
    struct HeldClock {
        time: netsolve_core::clock::VirtualClock,
        held: Arc<(std::sync::Mutex<bool>, std::sync::Condvar)>,
    }

    impl HeldClock {
        fn hold(&self, held: bool) {
            *self.held.0.lock().unwrap() = held;
            self.held.1.notify_all();
        }
    }

    impl Clock for HeldClock {
        fn now(&self) -> Instant {
            self.time.now()
        }

        fn sleep_until(&self, t: Instant) {
            let (held, lifted) = &*self.held;
            drop(lifted.wait_while(held.lock().unwrap(), |held| *held).unwrap());
            self.time.sleep_until(t);
        }
    }

    /// Each request's `server` spans, in order, as `id: phase, phase, …`;
    /// a `cache_lookup` carries its outcome and a refused solve reads
    /// `solve err`.
    fn paths(core: &ServerCore) -> Vec<String> {
        let mut paths = std::collections::BTreeMap::<u64, Vec<String>>::new();
        for span in core.tracer.spans().iter().filter(|s| s.component == "server") {
            let step = match (span.phase, span.detail.as_str()) {
                ("cache_lookup", outcome) => format!("cache_lookup {outcome}"),
                ("solve", detail) if detail.contains(" err=") => "solve err".to_string(),
                (phase, _) => phase.to_string(),
            };
            paths.entry(span.request_id).or_default().push(step);
        }
        paths.into_iter().map(|(id, steps)| format!("{id}: {}", steps.join(", "))).collect()
    }

    /// One request down every way out of the request path a gated, cached
    /// core has — miss, hit, non-deterministic bypass, solver error, budget
    /// spent on arrival, coalesced join, budget spent waiting for a slot,
    /// queue-full shed — checking each reply and each request's spans. The
    /// core is synthetic (~0.3 s for the slow `dgesv`, ~0 for everything
    /// else) with a cache, a depth-3 admission bound and two solve slots,
    /// on a held virtual clock: the slow solve stays in flight until the
    /// test lets it finish, and budgets are spent only when the test moves
    /// the clock, so no step races another request's budget.
    pub(crate) fn run_mixed_batch() -> ServerCore {
        use netsolve_core::admission::AdmissionConfig;
        let clock = HeldClock::default();
        let core = ServerCore::new(
            ProblemRegistry::with_standard_catalogue(),
            ExecutionMode::Synthetic { mflops: 20.0 },
        )
        .with_cache(1 << 20)
        .with_admission(Arc::new(AdmissionPolicy::new(AdmissionConfig::with_max_queue(3))))
        .with_solve_slots(2)
        .with_clock(Arc::new(clock.clone()));
        let ask = |msg: &Message| core.handle_message(msg);
        let ddot = || vec![vec![1.0, 2.0].into(), vec![3.0, 4.0].into()];
        let wait_until = |what: &str, cond: &dyn Fn() -> bool| {
            let give_up = Instant::now() + std::time::Duration::from_secs(10);
            while !cond() {
                assert!(Instant::now() < give_up, "never saw {what}");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        };
        let count = |name: &str| core.metrics.counter(name).get();
        let gate = core.gate.as_ref().expect("batch core is gated");

        for (id, cached) in [(1, false), (2, true)] {
            match ask(&submit(id, 0, "ddot", ddot())) {
                Message::RequestReply { request_id, cached: c, .. } => {
                    assert_eq!((request_id, c), (id, cached));
                }
                other => panic!("ddot {id}: {other:?}"),
            }
        }
        let mc = vec!["sin".into(), 0.0.into(), 1.0.into(), DataObject::Int(100), DataObject::Int(0)];
        assert!(matches!(
            ask(&submit(3, 0, "quad_mc", mc)),
            Message::RequestReply { cached: false, .. }
        ));
        match ask(&submit(4, 0, "no_such_problem", vec![])) {
            Message::Error { code, .. } => {
                assert_eq!(code, NetSolveError::ProblemNotFound(String::new()).code())
            }
            other => panic!("solver error: {other:?}"),
        }
        // Budget spent on arrival: with a gate installed the policy sheds
        // it at admission, before it can count as a request.
        let stale = clock.now() - std::time::Duration::from_millis(50);
        match core.handle_message_at(&submit(5, 10, "ddot", ddot()), stale).0 {
            Message::Error { code, detail } => {
                assert_eq!(code, NetSolveError::Timeout(String::new()).code());
                assert!(detail.contains("expired at admission"), "{detail}");
            }
            other => panic!("expired budget: {other:?}"),
        }

        // Fill both slots with one held slow solve and its coalesced twin,
        // park a short-budget request behind them, and overflow the bound.
        let slow = || -> Vec<DataObject> {
            vec![netsolve_core::Matrix::identity(208).into(), vec![1.0; 208].into()]
        };
        let misses = count("server.cache_misses");
        clock.hold(true);
        std::thread::scope(|scope| {
            let leader = scope.spawn(|| ask(&submit(6, 0, "dgesv", slow())));
            wait_until("the leader's miss", &|| count("server.cache_misses") > misses);
            let joiner = scope.spawn(|| ask(&submit(7, 0, "dgesv", slow())));
            wait_until("the join", &|| count("server.cache_coalesced") == 1);
            let parked = scope.spawn(|| ask(&submit(8, 30, "ddot", vec![vec![5.0].into(), vec![6.0].into()])));
            wait_until("a full queue", &|| gate.depth() == 3);
            match ask(&submit(9, 0, "ddot", ddot())) {
                Message::Error { code, detail } => {
                    assert_eq!(code, NetSolveError::Resource(String::new()).code(), "{detail}");
                    assert!(
                        netsolve_core::admission::parse_retry_after_ms(&detail).is_some(),
                        "busy reply must carry a retry hint: {detail}"
                    );
                }
                other => panic!("queue-full shed: {other:?}"),
            }
            // Spend the parked request's budget, then let the solve finish.
            clock.time.advance(std::time::Duration::from_millis(30));
            match parked.join().unwrap() {
                Message::Error { code, detail } => {
                    assert_eq!(code, NetSolveError::Timeout(String::new()).code());
                    assert!(detail.contains("expired while queued"), "{detail}");
                }
                other => panic!("parked request: {other:?}"),
            }
            clock.hold(false);
            assert!(matches!(
                leader.join().unwrap(),
                Message::RequestReply { request_id: 6, cached: false, .. }
            ));
            assert!(matches!(
                joiner.join().unwrap(),
                Message::RequestReply { request_id: 7, cached: true, .. }
            ));
        });
        assert_eq!(
            paths(&core),
            [
                "1: queue, cache_lookup miss, solve",
                "2: queue, cache_lookup hit, cache_hit",
                "3: queue, cache_bypass_nondet, solve",
                "4: queue, cache_lookup miss, solve err",
                "5: admission_shed",
                "6: queue, cache_lookup miss, solve",
                "7: queue, cache_lookup coalesced, coalesce_wait",
                "8: queue_deadline_shed",
                "9: admission_shed",
            ]
        );
        core
    }

    /// Admission prices a request by its flops, not by its problem's name:
    /// a core warmed on big solves admits a small one its history could
    /// never finish in budget, and one warmed on small solves sheds a big
    /// one it cannot finish.
    #[test]
    fn admission_prices_a_request_by_its_size_not_its_name() {
        use netsolve_core::admission::AdmissionConfig;
        let dgesv = |n: usize| -> Vec<DataObject> {
            vec![Matrix::identity(n).into(), vec![1.0; n].into()]
        };
        // 400 Mflop/s: n = 400 takes ~107 ms, n = 20 ~13 µs.
        for (warm, probe, admitted) in [(400, 20, true), (20, 400, false)] {
            let core = ServerCore::new(
                ProblemRegistry::with_standard_catalogue(),
                ExecutionMode::Synthetic { mflops: 400.0 },
            )
            .with_admission(Arc::new(AdmissionPolicy::new(AdmissionConfig::with_max_queue(64))));
            for id in 0..8 {
                let reply = core.handle_message(&submit(id, 0, "dgesv", dgesv(warm)));
                assert!(matches!(reply, Message::RequestReply { .. }), "warm-up: {reply:?}");
            }
            match (admitted, core.handle_message(&submit(8, 50, "dgesv", dgesv(probe)))) {
                (true, Message::RequestReply { .. }) => {}
                (false, Message::Error { code, detail }) => {
                    assert_eq!(code, NetSolveError::Resource(String::new()).code(), "{detail}");
                    assert!(detail.contains("deadline_unmeetable"), "{detail}");
                }
                (_, other) => panic!("warmed on n = {warm}, n = {probe} in 50 ms: {}", other.name()),
            }
        }
    }

    #[test]
    fn mixed_batch_accounts_for_every_request_and_frees_every_slot() {
        let core = run_mixed_batch();
        let snap = core.metrics.snapshot("server");
        let c = |name: &str| snap.counter(name);
        // Six requests got past admission: four ok + the slow pair, less
        // the one the solver refused.
        assert_eq!(c("server.requests"), 6);
        assert_eq!(
            c("server.requests"),
            c("server.requests_ok") + c("server.requests_failed") + c("server.deadline_shed")
        );
        assert_eq!((c("server.requests_ok"), c("server.requests_failed")), (5, 1));
        // The three refused ones never counted as requests.
        assert_eq!((c("server.admission_shed"), c("server.queue_deadline_shed")), (2, 1));
        assert_eq!(snap.histogram("server.request_handle_secs").map(|h| h.count), Some(6));
        assert_eq!(c("server.cache_bypass_nondet"), 1);
        // Error path included: no slot and no active count leaked.
        assert_eq!(core.gate.as_ref().unwrap().depth(), 0);
        assert_eq!(snap.gauge("server.active_requests"), 0);
    }
}
