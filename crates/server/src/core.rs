//! The server brain: the whole life of a request, stated once.
//!
//! `ServerCore::serve` is the request path — receive → solve — as one
//! straight-line function whose stages are the methods below it, in call
//! order; the solve stage is cache → gate → solver, each layer present
//! when installed. DESIGN.md §4n tabulates, per stage, how a request can
//! end there and the counter and span it leaves.

use std::sync::Arc;
use std::time::{Duration, Instant};

use netsolve_core::admission::{
    format_busy_detail, AdmissionDecision, AdmissionPolicy, ShedReason,
};
use netsolve_core::clock::{Clock, RealClock};
use netsolve_core::data::DataObject;
use netsolve_core::error::{NetSolveError, Result};
use netsolve_obs::{Counter, MetricsRegistry, SpanContext, SpanTimer, Tracer};
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

netsolve_obs::instruments! {
    /// Every `server.*` instrument but the cache's: the core's, its
    /// daemon's and the accept loop's.
    pub(crate) struct ServerInstruments {
        requests: counter = "server.requests",
        requests_ok: counter = "server.requests_ok",
        requests_failed: counter = "server.requests_failed",
        deadline_shed: counter = "server.deadline_shed",
        queue_deadline_shed: counter = "server.queue_deadline_shed",
        admission_shed: counter = "server.admission_shed",
        active_requests: gauge = "server.active_requests",
        queue_secs: histogram = "server.queue_secs",
        compute_secs: histogram = "server.compute_secs",
        request_handle_secs: histogram = "server.request_handle_secs",
        reply_marshal_secs: histogram = "server.reply_marshal_secs",
        accepts: counter = "server.accepts",
        busy_rejected: counter = "server.busy_rejected",
        spawn_failures: counter = "server.spawn_failures",
    }
}

/// Transport-free server logic.
pub struct ServerCore {
    problems: ProblemRegistry,
    mode: ExecutionMode,
    metrics: Arc<MetricsRegistry>,
    /// The instruments on `metrics`; the daemon records its own on them.
    pub(crate) m: Arc<ServerInstruments>,
    tracer: Arc<Tracer>,
    /// Optional content-addressed solve cache (+ in-flight coalescing).
    cache: Option<SolveCache>,
    /// Optional admission policy and the one solve slot it guards.
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

/// One of the end counters, picked out of a core's instruments.
type EndCounter = fn(&ServerInstruments) -> &Arc<Counter>;

/// A request that ends without an answer, and the one counter it ends
/// under: `server.requests_failed`, or the shed's own.
struct Refused(EndCounter, NetSolveError);

impl Refused {
    fn failed(error: NetSolveError) -> Self {
        Refused(|m| &m.requests_failed, error)
    }
}

/// A request's answer, or its refusal.
type Answer = std::result::Result<Solved, Refused>;

/// Where a request's deadline budget was found spent — "arrived dead" or
/// "died waiting for the slot" — as the counter, span phase and message
/// tail that keep the two apart.
#[derive(Debug, Clone, Copy)]
struct Expired(EndCounter, &'static str, &'static str);

const ON_ARRIVAL: Expired = Expired(|m| &m.deadline_shed, "deadline_shed", "expired on arrival");
const WHILE_QUEUED: Expired =
    Expired(|m| &m.queue_deadline_shed, "queue_deadline_shed", "expired while queued");

impl ServerCore {
    /// Server offering the given problem catalogue.
    pub fn new(problems: ProblemRegistry, mode: ExecutionMode) -> Self {
        let metrics = Arc::new(MetricsRegistry::new());
        ServerCore {
            problems,
            mode,
            m: Arc::new(ServerInstruments::new(&metrics)),
            metrics,
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

    /// Install admission control — the only way to. A request that needs
    /// the solver (not a cache hit or join) then passes `policy` *before*
    /// reserving the one solve slot: queue-depth shed with hysteresis,
    /// deadline-aware early reject, and a distinct shed for budgets that
    /// expire while queued. Every solve's seconds per predicted flop feed
    /// the policy's learned per-problem rate. The caller keeps its `Arc`
    /// to read the decision counters — it is the exact object
    /// `netsolve-sim` runs on virtual time.
    pub fn with_admission(mut self, policy: Arc<AdmissionPolicy>) -> Self {
        self.gate = Some(AdmissionGate::new(policy));
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

    /// The registry holding this server's `server.*` instruments.
    /// [`Message::StatsQuery`] snapshots it over the wire.
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

    /// The request path: receive → `solve`. Every request counts in
    /// `server.requests` and `server.request_handle_secs` once, and ends
    /// under exactly one of `server.requests_ok`, `server.requests_failed`
    /// or the counter of the shed that refused it.
    fn serve(&self, req: &Request<'_>) -> Result<Solved> {
        self.m.requests.inc();
        let ended = self.receive(req).and_then(|dispatched| self.solve(req, dispatched));
        let (counter, outcome): (EndCounter, _) = match ended {
            Ok(solved) => (|m| &m.requests_ok, Ok(solved)),
            Err(Refused(counter, e)) => (counter, Err(e)),
        };
        counter(&self.m).inc();
        self.m.request_handle_secs.record_secs(self.clock.since(req.received_at).as_secs_f64());
        outcome
    }

    /// Stage 1 — receipt. One clock read serves as the `queue` span's end,
    /// the next span's start and the `server.queue_secs` sample, keeping
    /// the traced path at two reads per request. A budget already spent
    /// ends the request here: nobody is waiting for that result any more.
    fn receive(&self, req: &Request<'_>) -> std::result::Result<Instant, Refused> {
        let dispatched = self.clock.now();
        self.queued(req, req.received_at, dispatched, String::new());
        let waited = dispatched.saturating_duration_since(req.received_at);
        if budget_left_ms(req.deadline_ms, waited) == Some(0) {
            let detail = format!("budget={}ms", req.deadline_ms);
            return Err(self.deadline_shed(req, ON_ARRIVAL, detail));
        }
        Ok(dispatched)
    }

    /// A `queue` span from `from` to `to` and its `server.queue_secs`
    /// sample: the wait from wire arrival to dispatch, and on a gated core
    /// also the wait for the solve slot (detail `slot`).
    fn queued(&self, req: &Request<'_>, from: Instant, to: Instant, detail: String) {
        let timer = self.tracer.start_at(from);
        let waited = to.saturating_duration_since(from).as_secs_f64();
        self.m.queue_secs.record_secs_traced(waited, req.ctx.trace_id);
        self.tracer.record_at(req.ctx, timer, to, "server", "queue", detail);
    }

    /// The one way a spent deadline budget ends a request: `point`'s
    /// counter, `point`'s zero-length span, `point`'s Timeout message.
    fn deadline_shed(&self, req: &Request<'_>, point: Expired, detail: String) -> Refused {
        let Expired(counter, phase, tail) = point;
        self.tracer.point(req.ctx, "server", phase, detail);
        Refused(
            counter,
            NetSolveError::Timeout(format!(
                "request {} deadline ({} ms) {tail}",
                req.ctx.request_id, req.deadline_ms
            )),
        )
    }

    /// The complexity model's flops for `req`: 0 for a problem this server
    /// does not offer (`run` refuses it).
    fn predicted_flops(&self, req: &Request<'_>) -> f64 {
        self.problems.get(req.problem).map_or(0.0, |spec| spec.predicted_flops(req.inputs))
    }

    /// Stage 2 — answer the request: cache → gate → `execute`. Without a
    /// cache this is the gate and the solver, the `solve` span started at
    /// the dispatch clock read (the uncached path's two-reads budget, which
    /// the ledger's `obs.harness_overhead_pct` row prices). With one, the
    /// cache is the outer layer: it declines a non-deterministic problem,
    /// answers a verified hit or an identical solve already in flight, or
    /// makes this request the solve's leader. Hits and joins never reach
    /// the gate or the solver: exactly one `solve` span exists per unique
    /// in-flight problem.
    fn solve(&self, req: &Request<'_>, dispatched: Instant) -> Answer {
        let Some(cache) = &self.cache else {
            return self.guarded(req, dispatched);
        };
        // Every span here starts and ends on the core's clock. The lookup
        // span's end is the one read the span after it starts at.
        let lookup_timer = self.tracer.start_at(dispatched);
        let looked_up = |outcome: &str| {
            let at = self.clock.now();
            let outcome = outcome.to_string();
            self.tracer.record_at(req.ctx, lookup_timer, at, "server", "cache_lookup", outcome);
            at
        };
        match cache.probe(req.problem, req.inputs) {
            Probe::Declined => {
                self.tracer.point(req.ctx, "server", "cache_bypass_nondet", String::new());
                self.guarded(req, dispatched)
            }
            Probe::Hit(solved) => {
                looked_up("hit");
                self.tracer.point(req.ctx, "server", "cache_hit", String::new());
                Ok(solved)
            }
            Probe::Join(waiter) => {
                let wait_timer = self.tracer.start_at(looked_up("coalesced"));
                let joined = waiter.wait();
                let detail = match &joined {
                    Ok(_) => String::new(),
                    Err(e) => format!("err={e}"),
                };
                let end = self.clock.now();
                self.tracer.record_at(req.ctx, wait_timer, end, "server", "coalesce_wait", detail);
                joined.map_err(Refused::failed)
            }
            Probe::Leader(token) => {
                // A shed leader's joiners get its shed error, as they get
                // any failure of the solve they joined.
                let run = self.guarded(req, looked_up("miss"));
                token.complete(run.as_ref().map_err(|Refused(_, e)| e));
                run
            }
        }
    }

    /// The innermost wrapper: the admission gate, when one is installed,
    /// in front of `execute`, so only a request that needs the solver asks
    /// the policy, waits for the slot or counts as load. The policy decides
    /// on queue depth and remaining budget, then the request waits its turn
    /// for the slot — a second `queue` span, from `from` — and solves while
    /// holding it. `server.active_requests` counts the requests at the
    /// solver: from the policy's admit (on an ungated core, from `execute`)
    /// until the solve ends, so on a gated core the gauge is the gate's
    /// depth. A hit or a join never counts.
    fn guarded(&self, req: &Request<'_>, from: Instant) -> Answer {
        let Some(gate) = &self.gate else {
            self.m.active_requests.inc();
            let solved = self.execute(req, self.tracer.start_at(from));
            self.m.active_requests.dec();
            return solved.map_err(Refused::failed);
        };
        let depth = gate.depth();
        let left = budget_left_ms(req.deadline_ms, self.clock.since(req.received_at));
        if let AdmissionDecision::Shed { reason, retry_after_ms } =
            gate.policy.admit(req.problem, self.predicted_flops(req), depth, left)
        {
            let detail = format!("reason={} depth={depth} hint={retry_after_ms}ms", reason.name());
            return Err(match reason {
                // Budget already gone: a retry hint is meaningless, the
                // client's deadline path owns what happens next.
                ShedReason::DeadlineExpired => self.deadline_shed(req, ON_ARRIVAL, detail),
                // Retryable Busy carrying the backoff hint.
                ShedReason::QueueFull | ShedReason::DeadlineUnmeetable => {
                    self.tracer.point(req.ctx, "server", "admission_shed", detail);
                    let busy = format_busy_detail(reason, depth, retry_after_ms);
                    Refused(|m| &m.admission_shed, NetSolveError::Resource(busy))
                }
            });
        }
        self.m.active_requests.inc();
        let answer = match gate.acquire(self.clock.as_ref(), req.received_at, req.deadline_ms) {
            Some(_slot) => {
                let acquired = self.clock.now();
                self.queued(req, from, acquired, "slot".to_string());
                self.execute(req, self.tracer.start_at(acquired)).map_err(Refused::failed)
            }
            None => {
                let detail = format!("budget={}ms", req.deadline_ms);
                Err(self.deadline_shed(req, WHILE_QUEUED, detail))
            }
        };
        self.m.active_requests.dec();
        answer
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
        self.tracer.record_at(req.ctx, solve_timer, self.clock.now(), "server", "solve", detail);
        if let Ok(solved) = &run {
            if let Some(gate) = &self.gate {
                gate.policy.observe_service(
                    req.problem,
                    self.predicted_flops(req),
                    solved.compute_secs,
                );
            }
            self.m.compute_secs.record_secs_traced(solved.compute_secs, req.ctx.trace_id);
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

    /// Receipt reads the core's clock: a virtual clock moved past a
    /// request's budget between receipt and dispatch sheds it on arrival,
    /// before it asks the gate, and no wall time passes.
    #[test]
    fn a_budget_spent_on_the_core_clock_sheds_on_arrival() {
        use netsolve_core::admission::AdmissionConfig;
        use netsolve_core::clock::VirtualClock;
        let wall = Instant::now();
        let clock = VirtualClock::new();
        let policy = Arc::new(AdmissionPolicy::new(AdmissionConfig::with_max_queue(4)));
        let core = ServerCore::with_standard_catalogue()
            .with_admission(Arc::clone(&policy))
            .with_clock(Arc::new(clock.clone()));
        let ddot = || vec![vec![1.0].into(), vec![1.0].into()];
        let received_at = clock.now();
        clock.advance(Duration::from_millis(11));
        match core.handle_message_at(&submit(1, 10, "ddot", ddot()), received_at).0 {
            Message::Error { code, detail } => {
                assert_eq!(code, NetSolveError::Timeout(String::new()).code());
                assert!(detail.contains("expired on arrival"), "{detail}");
            }
            other => panic!("budget spent on the clock: {other:?}"),
        }
        let count = |name: &str| core.metrics.counter(name).get();
        assert_eq!((count("server.deadline_shed"), count("server.requests")), (1, 1));
        assert_eq!(policy.stats().decisions, 0, "a dead request never asks the policy");
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

    /// The two places a spent deadline budget can end a request share one
    /// test and one shaper; each keeps its own counter, span phase and
    /// message.
    #[test]
    fn each_deadline_point_keeps_its_own_counter_span_and_message() {
        assert_eq!(budget_left_ms(0, Duration::from_secs(3600)), None, "no deadline never expires");
        assert_eq!(budget_left_ms(10, Duration::from_micros(9_900)), Some(1));
        assert_eq!(budget_left_ms(10, Duration::from_millis(10)), Some(0));
        assert_eq!(budget_left_ms(10, Duration::from_millis(50)), Some(0));

        let table = [
            (ON_ARRIVAL, "server.deadline_shed", "deadline_shed", "on arrival"),
            (WHILE_QUEUED, "server.queue_deadline_shed", "queue_deadline_shed", "while queued"),
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
                Refused(ends_under, NetSolveError::Timeout(detail)) => {
                    let named = core.metrics.counter(counter);
                    assert!(Arc::ptr_eq(ends_under(&core.m), &named), "{point:?}");
                    assert_eq!(detail, format!("request 7 deadline (10 ms) expired {tail}"));
                }
                Refused(_, other) => panic!("{point:?}: expected Timeout, got {other:?}"),
            }
            let spans = core.tracer.spans();
            let phases: Vec<_> = spans.iter().map(|s| s.phase).collect();
            assert_eq!(phases, [phase], "{point:?}");
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

    /// A synthetic core (20 Mflop/s: ~0.3 s for [`slow_dgesv`], ~0 for
    /// everything else) with a cache, on a held clock, behind an admission
    /// bound of `max_queue` when one is given.
    fn held_core(max_queue: Option<usize>) -> (ServerCore, HeldClock) {
        use netsolve_core::admission::AdmissionConfig;
        let clock = HeldClock::default();
        let mut core = ServerCore::new(
            ProblemRegistry::with_standard_catalogue(),
            ExecutionMode::Synthetic { mflops: 20.0 },
        )
        .with_cache(1 << 20)
        .with_clock(Arc::new(clock.clone()));
        if let Some(depth) = max_queue {
            let policy = AdmissionPolicy::new(AdmissionConfig::with_max_queue(depth));
            core = core.with_admission(Arc::new(policy));
        }
        (core, clock)
    }

    /// Each request's `server` spans, in order, as `id: phase, phase, …`;
    /// a `cache_lookup` carries its outcome, the slot wait reads
    /// `queue slot` and a refused solve reads `solve err`.
    fn paths(core: &ServerCore) -> Vec<String> {
        let mut paths = std::collections::BTreeMap::<u64, Vec<String>>::new();
        for span in core.tracer.spans().iter().filter(|s| s.component == "server") {
            let step = match (span.phase, span.detail.as_str()) {
                ("cache_lookup", outcome) => format!("cache_lookup {outcome}"),
                ("queue", "slot") => "queue slot".to_string(),
                ("solve", detail) if detail.contains(" err=") => "solve err".to_string(),
                (phase, _) => phase.to_string(),
            };
            paths.entry(span.request_id).or_default().push(step);
        }
        paths.into_iter().map(|(id, steps)| format!("{id}: {}", steps.join(", "))).collect()
    }

    /// Poll `cond` on wall time until it holds or `secs` pass; whether it
    /// held.
    fn within(secs: u64, cond: &dyn Fn() -> bool) -> bool {
        let give_up = Instant::now() + Duration::from_secs(secs);
        while !cond() {
            if Instant::now() >= give_up {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    /// Poll `cond` on wall time until it holds; fail after 10 s.
    fn wait_until(what: &str, cond: &dyn Fn() -> bool) {
        assert!(within(10, cond), "never saw {what}");
    }

    /// The slow `dgesv` of the tests below: ~0.3 s at 20 Mflop/s.
    fn slow_dgesv() -> Vec<DataObject> {
        vec![netsolve_core::Matrix::identity(208).into(), vec![1.0; 208].into()]
    }

    fn ddot(x: f64) -> Vec<DataObject> {
        vec![vec![x, 2.0].into(), vec![3.0, 4.0].into()]
    }

    /// One request down every way out of the request path a cached core
    /// has — miss, hit, non-deterministic bypass, solver error, budget
    /// spent on arrival, a join onto an identical solve in flight and,
    /// behind a gate (`max_queue` 2), budget spent waiting for the slot, a
    /// join onto that shed leader, and a queue-full shed — checking each
    /// reply and each request's spans.
    /// On a held virtual clock the slow solve stays in flight until the
    /// test lets it finish, and budgets are spent only when the test moves
    /// the clock, so no step races another request's budget. The gate adds
    /// its slot wait to a solving request's spans and changes nothing else.
    pub(crate) fn run_mixed_batch(gated: bool) -> ServerCore {
        let (core, clock) = held_core(gated.then_some(2));
        let ask = |msg: &Message| core.handle_message(msg);
        let count = |name: &str| core.metrics.counter(name).get();
        let depth = || core.gate.as_ref().map_or(0, |gate| gate.depth());
        // Asked one at a time, a request leaves nothing active however it
        // ends.
        let alone = |msg: &Message| {
            let reply = ask(msg);
            assert_eq!(core.m.active_requests.get(), 0, "after {reply:?}");
            reply
        };

        for (id, cached) in [(1, false), (2, true)] {
            match alone(&submit(id, 0, "ddot", ddot(1.0))) {
                Message::RequestReply { request_id, cached: c, .. } => {
                    assert_eq!((request_id, c), (id, cached));
                }
                other => panic!("ddot {id}: {other:?}"),
            }
        }
        let mc = vec!["sin".into(), 0.0.into(), 1.0.into(), DataObject::Int(100), DataObject::Int(0)];
        assert!(matches!(
            alone(&submit(3, 0, "quad_mc", mc)),
            Message::RequestReply { cached: false, .. }
        ));
        match alone(&submit(4, 0, "no_such_problem", vec![])) {
            Message::Error { code, .. } => {
                assert_eq!(code, NetSolveError::ProblemNotFound(String::new()).code())
            }
            other => panic!("solver error: {other:?}"),
        }
        let stale = clock.now() - Duration::from_millis(50);
        match core.handle_message_at(&submit(5, 10, "ddot", ddot(1.0)), stale).0 {
            Message::Error { code, detail } => {
                assert_eq!(code, NetSolveError::Timeout(String::new()).code());
                assert!(detail.contains("expired on arrival"), "{detail}");
            }
            other => panic!("expired budget: {other:?}"),
        }
        assert_eq!(core.m.active_requests.get(), 0, "after an expired budget");

        // Hold a slow solve in flight and join its twin. Behind a gate,
        // queue a short-budget request for the slot, overflow the bound,
        // then spend the parked request's budget.
        let misses = count("server.cache_misses");
        clock.hold(true);
        std::thread::scope(|scope| {
            let leader = scope.spawn(|| ask(&submit(6, 0, "dgesv", slow_dgesv())));
            wait_until("the leader's miss", &|| count("server.cache_misses") > misses);
            let twin = scope.spawn(|| ask(&submit(7, 0, "dgesv", slow_dgesv())));
            wait_until("the join", &|| count("server.cache_coalesced") == 1);
            if gated {
                wait_until("the leader's slot", &|| depth() == 1);
                let parked = scope.spawn(|| ask(&submit(8, 30, "ddot", ddot(8.0))));
                wait_until("a full queue", &|| depth() == 2);
                let parked_twin = scope.spawn(|| ask(&submit(10, 0, "ddot", ddot(8.0))));
                wait_until("the parked request's join", &|| count("server.cache_coalesced") == 2);
                match ask(&submit(9, 0, "ddot", ddot(9.0))) {
                    Message::Error { code, detail } => {
                        assert_eq!(code, NetSolveError::Resource(String::new()).code(), "{detail}");
                        assert!(
                            netsolve_core::admission::parse_retry_after_ms(&detail) > 0,
                            "busy reply must carry a retry hint: {detail}"
                        );
                    }
                    other => panic!("queue-full shed: {other:?}"),
                }
                clock.time.advance(Duration::from_millis(30));
                // The parked leader's shed reaches its joiner as its error.
                for parked in [parked, parked_twin] {
                    match parked.join().unwrap() {
                        Message::Error { code, detail } => {
                            assert_eq!(code, NetSolveError::Timeout(String::new()).code());
                            assert!(detail.contains("request 8 deadline (30 ms) expired while queued"), "{detail}");
                        }
                        other => panic!("parked request or its twin: {other:?}"),
                    }
                }
            }
            clock.hold(false);
            assert!(matches!(
                leader.join().unwrap(),
                Message::RequestReply { request_id: 6, cached: false, .. }
            ));
            assert!(matches!(
                twin.join().unwrap(),
                Message::RequestReply { request_id: 7, cached: true, .. }
            ));
        });
        let gated_paths = [
            "1: queue, cache_lookup miss, queue slot, solve",
            "2: queue, cache_lookup hit, cache_hit",
            "3: queue, cache_bypass_nondet, queue slot, solve",
            "4: queue, cache_lookup miss, queue slot, solve err",
            "5: queue, deadline_shed",
            "6: queue, cache_lookup miss, queue slot, solve",
            "7: queue, cache_lookup coalesced, coalesce_wait",
            "8: queue, cache_lookup miss, queue_deadline_shed",
            "9: queue, cache_lookup miss, admission_shed",
            "10: queue, cache_lookup coalesced, coalesce_wait",
        ];
        let expected: Vec<String> = if gated {
            gated_paths.map(String::from).to_vec()
        } else {
            gated_paths[..7].iter().map(|path| path.replace(", queue slot", "")).collect()
        };
        assert_eq!(paths(&core), expected);
        core
    }

    /// The order the gate moved for, and the one definition of load: on a
    /// gated and on an ungated cached core, a cached request is answered
    /// while another problem solves, and `server.active_requests` counts
    /// the solve, not the hit.
    #[test]
    fn a_hit_is_answered_and_not_counted_while_another_request_solves() {
        for gated in [true, false] {
            let (core, clock) = held_core(gated.then_some(4));
            let ask = |msg: &Message| core.handle_message(msg);
            let active = || core.m.active_requests.get();
            assert!(matches!(ask(&submit(1, 0, "ddot", ddot(1.0))), Message::RequestReply { .. }));
            clock.hold(true);
            std::thread::scope(|scope| {
                let slow = scope.spawn(|| ask(&submit(2, 0, "dgesv", slow_dgesv())));
                wait_until("the slow solve", &|| active() == 1);
                let hit = scope.spawn(|| ask(&submit(3, 0, "ddot", ddot(1.0))));
                let answered = within(2, &|| hit.is_finished());
                let during = active();
                clock.hold(false);
                assert!(answered, "gated: {gated}: the hit waited for the solver");
                assert_eq!(during, 1, "gated: {gated}: the hit counted as active");
                let (hit, slow) = (hit.join().unwrap(), slow.join().unwrap());
                assert!(matches!(hit, Message::RequestReply { cached: true, .. }), "{hit:?}");
                assert!(matches!(slow, Message::RequestReply { cached: false, .. }), "{slow:?}");
            });
            assert_eq!(active(), 0, "gated: {gated}");
        }
    }

    /// Identical requests that arrive while their twin solves join it
    /// without asking the policy, even at a bound of one: one solve, k
    /// joins, no shed.
    #[test]
    fn twins_of_a_solve_in_flight_join_it_past_a_full_queue() {
        let k = 3;
        let (core, clock) = held_core(Some(1));
        let ask = |msg: &Message| core.handle_message(msg);
        let count = |name: &str| core.metrics.counter(name).get();
        clock.hold(true);
        std::thread::scope(|scope| {
            let leader = scope.spawn(|| ask(&submit(0, 0, "dgesv", slow_dgesv())));
            wait_until("the leader's slot", &|| core.gate.as_ref().unwrap().depth() == 1);
            let twins: Vec<_> = (1..=k)
                .map(|id| scope.spawn(move || ask(&submit(id, 0, "dgesv", slow_dgesv()))))
                .collect();
            let joined = within(10, &|| count("server.cache_coalesced") == k || count("server.admission_shed") > 0);
            clock.hold(false);
            assert!(joined, "the twins never joined");
            assert!(matches!(leader.join().unwrap(), Message::RequestReply { cached: false, .. }));
            for twin in twins {
                let reply = twin.join().unwrap();
                assert!(matches!(reply, Message::RequestReply { cached: true, .. }), "{reply:?}");
            }
        });
        let solves = core.metrics.histogram("server.compute_secs").count();
        let counts = (solves, count("server.cache_coalesced"), count("server.admission_shed"));
        assert_eq!(counts, (1, k, 0), "(solves, joins, admission sheds)");
    }

    /// On a gated core the workload gauge is the gate's depth: one request
    /// solving and k waiting for the slot read `server.active_requests`
    /// k + 1, the sim's `jobs_in_system`.
    #[test]
    fn a_gated_core_counts_the_waiting_and_the_solving_as_active() {
        let k = 3;
        let (core, clock) = held_core(Some(16));
        let ask = |msg: &Message| core.handle_message(msg);
        let gate = core.gate.as_ref().unwrap();
        let active = || core.metrics.gauge("server.active_requests").get();
        clock.hold(true);
        let seen = std::thread::scope(|scope| {
            scope.spawn(|| ask(&submit(0, 0, "dgesv", slow_dgesv())));
            wait_until("the slow solve's slot", &|| gate.depth() == 1);
            for id in 1..=k {
                scope.spawn(move || ask(&submit(id, 0, "ddot", ddot(id as f64))));
            }
            wait_until("k waiting", &|| gate.depth() == k as usize + 1);
            let seen = active();
            clock.hold(false);
            seen
        });
        assert_eq!(seen, k as i64 + 1, "active requests with one solving and {k} waiting");
        assert_eq!((gate.depth(), active()), (0, 0));
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

    /// Every request ends under exactly one counter, is timed once, and
    /// leaves no slot or active count behind, on both cores. A join waits
    /// out exactly its leader's solve on the core's clock.
    #[test]
    fn mixed_batch_accounts_for_every_request_and_frees_every_slot() {
        for (gated, requests) in [(true, 10), (false, 7)] {
            let core = run_mixed_batch(gated);
            let snap = core.metrics.snapshot("server");
            let c = |name: &str| snap.counter(name);
            assert_eq!(c("server.requests"), requests, "gated: {gated}");
            let ended = [
                "server.requests_ok",
                "server.requests_failed",
                "server.deadline_shed",
                "server.queue_deadline_shed",
                "server.admission_shed",
            ]
            .map(c);
            let expected = if gated { [5, 2, 1, 1, 1] } else { [5, 1, 1, 0, 0] };
            assert_eq!(ended, expected, "gated: {gated}");
            assert_eq!(ended.iter().sum::<u64>(), c("server.requests"));
            let handled = snap.histogram("server.request_handle_secs").map(|h| h.count);
            assert_eq!(handled, Some(c("server.requests")));
            assert_eq!(c("server.cache_bypass_nondet"), 1);
            assert_eq!(core.gate.as_ref().map_or(0, |gate| gate.depth()), 0);
            assert_eq!(snap.gauge("server.active_requests"), 0);

            let spans = core.tracer.spans();
            let lasted = |id: u64, phase: &str| {
                let span = spans.iter().find(|s| s.request_id == id && s.phase == phase);
                span.expect(phase).duration().as_secs_f64()
            };
            assert!(lasted(6, "solve") > 0.2, "a virtual-time solve: {}", lasted(6, "solve"));
            assert!((lasted(7, "coalesce_wait") - lasted(6, "solve")).abs() < 1e-6);
        }
    }
}
