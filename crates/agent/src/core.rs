//! The agent brain: the server table + network view + load balancer,
//! behind one message-level interface.
//!
//! [`AgentCore`] is transport-free (time comes in as a parameter), so the
//! live daemon wraps it in a mutex and the simulator drives it directly
//! with virtual time — both exercise identical decision logic.

use std::collections::HashMap;
use std::sync::Arc;

use netsolve_core::clock::SimTime;
use netsolve_core::config::AgentConfig;
use netsolve_core::error::{ErrorClass, NetSolveError, Result};
use netsolve_core::ids::{HostId, ServerId};
use netsolve_core::problem::RequestShape;
use netsolve_net::NetworkView;
use netsolve_obs::{MetricsRegistry, SpanContext, StatsDigest, Tracer};
use netsolve_proto::{Candidate, GossipEntry, Message, QueryShape};

use crate::balance::{rank, BalancerState, Policy, Ranked, ServerSnapshot};
use crate::registry::{MergeOutcome, ServerRegistry};

/// How many ranked servers a query returns: NetSolve returned a short
/// ordered candidate list for client-side failover.
pub(crate) const CANDIDATES_RETURNED: usize = 5;

/// The instant something gossiped as `age_secs` old at `now` was fresh at
/// its origin — the scheme that lets copies arriving over different paths
/// compare without clock synchronisation.
fn fresh_at(now: SimTime, age_secs: f64) -> SimTime {
    SimTime::from_secs((now.as_secs() - age_secs.max(0.0)).max(0.0))
}

netsolve_obs::instruments! {
    /// Every `agent.*` instrument: the core's, its daemon's workers' and
    /// the accept loop's.
    pub(crate) struct AgentInstruments {
        registrations: counter = "agent.registrations",
        queries: counter = "agent.queries",
        rankings: counter = "agent.rankings",
        workload_reports: counter = "agent.workload_reports",
        success_reports: counter = "agent.success_reports",
        failure_reports: counter = "agent.failure_reports",
        report_id_remaps: counter = "agent.report_id_remaps",
        fault_down_marks: counter = "agent.fault_down_marks",
        pending_assignments: gauge = "agent.pending_assignments",
        probe_successes: counter = "agent.probe_successes",
        heartbeat_misses: counter = "agent.heartbeat_misses",
        gossip_rounds: counter = "agent.gossip_rounds",
        gossip_sends: counter = "agent.gossip_sends",
        gossip_send_failures: counter = "agent.gossip_send_failures",
        gossip_syncs_received: counter = "agent.gossip_syncs_received",
        gossip_merges: counter = "agent.gossip_merges",
        gossip_merge_conflicts: counter = "agent.gossip_merge_conflicts",
        gossip_expired: counter = "agent.gossip_expired",
        peers_up: gauge = "agent.peers_up",
        peer_down_marks: counter = "agent.peer_down_marks",
        peer_recoveries: counter = "agent.peer_recoveries",
        digest_merges: counter = "agent.digest_merges",
        digest_expired: counter = "agent.digest_expired",
        accepts: counter = "agent.accepts",
        busy_rejected: counter = "agent.busy_rejected",
        spawn_failures: counter = "agent.spawn_failures",
    }
}

/// The complete state of one NetSolve agent.
pub struct AgentCore {
    config: AgentConfig,
    policy: Policy,
    registry: ServerRegistry,
    network: NetworkView,
    balancer: BalancerState,
    /// This agent's own listen address, the identity stamped on gossip
    /// entries it originates (and used to drop echoes of its own entries
    /// arriving back through a peer cycle). Set by the daemon once the
    /// listener is bound; unset in simulator/unit use.
    self_address: Option<String>,
    /// Fleet stats digests keyed by origin daemon address, each with the
    /// origin-relative freshness instant it was computed at ([`fresh_at`],
    /// as registry gossip uses).
    digests: HashMap<String, (StatsDigest, SimTime)>,
    /// The instant `agent.pending_assignments` was last counted at. A
    /// success report carries no time, so it recounts at this one.
    pub(crate) pending_counted_at: SimTime,
    metrics: Arc<MetricsRegistry>,
    /// The instruments on `metrics`; the daemon records its own on them.
    pub(crate) m: Arc<AgentInstruments>,
    tracer: Arc<Tracer>,
}

impl AgentCore {
    /// Agent with the given configuration, scheduling policy and initial
    /// network assumptions.
    pub fn new(config: AgentConfig, policy: Policy, network: NetworkView) -> Self {
        let metrics = Arc::new(MetricsRegistry::new());
        AgentCore {
            config,
            policy,
            registry: ServerRegistry::new(),
            network,
            balancer: BalancerState::default(),
            self_address: None,
            digests: HashMap::new(),
            pending_counted_at: SimTime::ZERO,
            m: Arc::new(AgentInstruments::new(&metrics)),
            metrics,
            tracer: Arc::new(Tracer::new()),
        }
    }

    /// Replace the tracer (e.g. [`Tracer::disabled`] for overhead-free
    /// operation, or a shared tracer in tests).
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = tracer;
        self
    }

    /// The tracer holding this agent's `agent.*` phase spans.
    /// [`Message::TraceQuery`] snapshots it over the wire.
    pub fn tracer(&self) -> Arc<Tracer> {
        Arc::clone(&self.tracer)
    }

    /// The registry holding this agent's `agent.*` instruments.
    /// [`Message::StatsQuery`] snapshots it over the wire.
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics)
    }

    /// Agent with defaults: MCT policy, LAN network assumptions.
    pub fn with_defaults() -> Self {
        Self::new(AgentConfig::default(), Policy::MinimumCompletionTime, NetworkView::lan_defaults())
    }

    /// Immutable access to the server table.
    pub fn registry(&self) -> &ServerRegistry {
        &self.registry
    }

    /// Register a server (message-level entry point uses this too). A
    /// server restarting on its address replaces its old row.
    pub fn register_server(
        &mut self,
        desc: &netsolve_proto::ServerDescriptor,
        now: SimTime,
    ) -> Result<ServerId> {
        let id = self.registry.register_at(desc, now)?;
        self.m.registrations.inc();
        // A replaced row's pending assignments went with it.
        self.refresh_pending_gauge(now);
        Ok(id)
    }

    /// Record this agent's own listen address: the origin identity its
    /// gossip entries carry. The daemon calls this right after binding.
    pub fn set_self_address(&mut self, address: &str) {
        self.self_address = Some(address.to_string());
    }

    /// The full registration view this agent pushes to a peer in one
    /// gossip round: every live server it knows, local ones vouched for
    /// with age 0 (their liveness is this agent's telemetry probe's
    /// responsibility), gossip-learned ones with their accumulated age so
    /// staleness survives transitive hops. Local servers currently marked
    /// down are withheld — an agent never vouches for a server it
    /// believes dead.
    pub fn gossip_digest(&self, now: SimTime) -> Vec<GossipEntry> {
        let me = self.self_address.clone().unwrap_or_default();
        self.registry
            .all_servers()
            .into_iter()
            .filter_map(|s| {
                let local = s.origin.is_none();
                if local && s.is_down(&self.config.fault, now) {
                    return None;
                }
                let mut problems: Vec<String> = s.problems.iter().cloned().collect();
                problems.sort();
                // The registry holds parsed specs, not the registration's
                // original PDL text; re-render the advertised subset so
                // receivers can validate it exactly like a registration.
                let pdl_source = problems
                    .iter()
                    .filter_map(|p| self.registry.spec(p))
                    .map(netsolve_pdl::render)
                    .collect::<Vec<_>>()
                    .join("\n");
                Some(GossipEntry {
                    origin_agent: s.origin.clone().unwrap_or_else(|| me.clone()),
                    host: s.host_name.clone(),
                    address: s.address.clone(),
                    mflops: s.mflops,
                    problems,
                    pdl_source,
                    workload: s.reported_workload(&self.config.workload, now),
                    age_secs: if local { 0.0 } else { now.since(s.refreshed).max(0.0) },
                })
            })
            .collect()
    }

    /// Merge one incoming gossip round. Returns `(merged, refreshed,
    /// conflicts)` — the numbers the `GossipAck` reply carries back.
    /// Entries originating from this agent itself (its address echoed
    /// back through a peer cycle) are dropped, which keeps arbitrary peer
    /// topologies loop-safe.
    pub fn merge_gossip(
        &mut self,
        entries: &[GossipEntry],
        now: SimTime,
    ) -> (u32, u32, u32) {
        let (mut merged, mut refreshed, mut conflicts) = (0u32, 0u32, 0u32);
        for entry in entries {
            if self.self_address.as_deref() == Some(entry.origin_agent.as_str()) {
                continue;
            }
            match self.registry.merge_remote(entry, fresh_at(now, entry.age_secs)) {
                Ok(MergeOutcome::Merged(_)) => {
                    merged += 1;
                    self.m.gossip_merges.inc();
                }
                Ok(MergeOutcome::Refreshed(_)) => refreshed += 1,
                Ok(MergeOutcome::Stale) => {}
                Err(_) => {
                    conflicts += 1;
                    self.m.gossip_merge_conflicts.inc();
                }
            }
        }
        (merged, refreshed, conflicts)
    }

    /// Expire gossip-learned registrations that have not been
    /// re-confirmed within the configured TTL — workload, fault and
    /// pending state go with the row. Returns how many were dropped.
    pub fn expire_gossip(&mut self, now: SimTime) -> usize {
        let expired = self
            .registry
            .expire_remote(now, self.config.gossip.entry_ttl_secs)
            .len();
        if expired > 0 {
            self.m.gossip_expired.add(expired as u64);
            self.refresh_pending_gauge(now);
        }
        expired
    }

    /// The configuration in force (the daemon's gossip and telemetry
    /// loops read their policies from it).
    pub fn config(&self) -> &AgentConfig {
        &self.config
    }

    /// Store one stats digest, keeping the strictly-fresher copy when the
    /// origin is already known. `digest.age_secs` is relative to `now`
    /// (0 for a digest computed locally this instant), so freshness
    /// comparisons work across hops without clock synchronisation.
    /// Returns whether the digest was kept.
    pub fn store_digest(&mut self, digest: StatsDigest, now: SimTime) -> bool {
        let fresh_at = fresh_at(now, digest.age_secs);
        match self.digests.get(&digest.origin) {
            Some((_, held)) if fresh_at.as_secs() <= held.as_secs() => false,
            _ => {
                self.digests.insert(digest.origin.clone(), (digest, fresh_at));
                true
            }
        }
    }

    /// Merge digests from a peer's gossip round. Echoes of this agent's
    /// own digest (its address looping back through a peer cycle) are
    /// dropped; everything else keeps the strictly-fresher copy. Returns
    /// how many digests were kept.
    pub fn merge_digests(&mut self, digests: &[StatsDigest], now: SimTime) -> u32 {
        let mut kept = 0u32;
        for digest in digests {
            if self.self_address.as_deref() == Some(digest.origin.as_str()) {
                continue;
            }
            if self.store_digest(digest.clone(), now) {
                kept += 1;
                self.m.digest_merges.inc();
            }
        }
        kept
    }

    /// Every stored digest with its age recomputed to `now`, sorted by
    /// origin address — what `FleetStatsQuery` answers and what rides
    /// along on outgoing gossip.
    pub fn digest_snapshot(&self, now: SimTime) -> Vec<StatsDigest> {
        let mut out: Vec<StatsDigest> = self
            .digests
            .values()
            .map(|(digest, fresh_at)| {
                let mut d = digest.clone();
                d.age_secs = now.since(*fresh_at).max(0.0);
                d
            })
            .collect();
        out.sort_by(|a, b| a.origin.cmp(&b.origin));
        out
    }

    /// Expire digests whose freshness has aged past the gossip entry
    /// TTL — a dead daemon's series disappears from the fleet view the
    /// same way its registration ages out of the registry. Returns how
    /// many were dropped.
    pub fn expire_digests(&mut self, now: SimTime) -> usize {
        let ttl = self.config.gossip.entry_ttl_secs;
        let before = self.digests.len();
        self.digests.retain(|_, (_, fresh_at)| now.since(*fresh_at) <= ttl);
        let dropped = before - self.digests.len();
        self.m.digest_expired.add(dropped as u64);
        dropped
    }

    /// Store a workload report.
    pub fn workload_report(&mut self, server: ServerId, workload: f64, now: SimTime) {
        if let Some(entry) = self.registry.get_mut(server) {
            self.m.workload_reports.inc();
            entry.record_workload(workload, now);
        }
    }

    /// Resolve the server a completion/failure report is about. The
    /// address is authoritative: ids are per-agent, and after a client
    /// fails over from a dead agent its cached ids were minted by someone
    /// else, so crediting by raw id would corrupt a random server's fault
    /// and network estimates. The raw id is only trusted when the report
    /// carries no address or names one this agent has not learned yet.
    fn resolve_report_server(&mut self, server_id: u64, server_address: &str) -> ServerId {
        if !server_address.is_empty() {
            if let Some(sid) = self.registry.id_by_address(server_address) {
                if sid.raw() != server_id {
                    self.m.report_id_remaps.inc();
                }
                return sid;
            }
        }
        ServerId(server_id)
    }

    /// Record a client failure report of the given class. A `Link` or
    /// `Fault` report counts toward mark-down and clears one pending
    /// assignment — the failed request is no longer heading for that
    /// server. A `Load` report (a shed) never counts: it clears the
    /// assignment too, but holds one assignment's weight on the server
    /// until `retry_after_ms` from `now`, so the busy server ranks lower
    /// until then. A `Request` report, and a report about a server the
    /// table does not hold, change nothing.
    pub fn failure_report(&mut self, server: ServerId, class: ErrorClass, now: SimTime) {
        self.m.failure_reports.inc();
        let Some(entry) = self.registry.get_mut(server) else { return };
        match class {
            ErrorClass::Request => return,
            ErrorClass::Load { retry_after_ms } => entry.hold_after_shed(retry_after_ms, now),
            ErrorClass::Link | ErrorClass::Fault => {
                entry.settle_one_pending();
                if entry.record_failure(&self.config.fault, now) {
                    self.m.fault_down_marks.inc();
                }
            }
        }
        self.refresh_pending_gauge(now);
    }

    /// Record a client success (clears fault state and one pending
    /// assignment) — on a server the table holds.
    pub fn success_report(&mut self, server: ServerId) {
        self.m.success_reports.inc();
        if let Some(entry) = self.registry.get_mut(server) {
            entry.settle_one_pending();
            entry.record_success();
            self.refresh_pending_gauge(self.pending_counted_at);
        }
    }

    /// Set `agent.pending_assignments` to the assignments unexpired at
    /// `now`. The daemon's telemetry tick calls this too, so an assignment
    /// whose client never reported stops counting once its TTL passes.
    pub(crate) fn refresh_pending_gauge(&mut self, now: SimTime) {
        self.pending_counted_at = now;
        self.m.pending_assignments.set(self.registry.pending_total(now) as i64);
    }

    fn note_assignment(&mut self, server: ServerId, now: SimTime) {
        if !self.config.pending_tracking {
            return;
        }
        if let Some(entry) = self.registry.get_mut(server) {
            entry.note_assignment(now);
            self.refresh_pending_gauge(now);
        }
    }

    /// Record an observed network measurement between two hosts.
    pub fn observe_network(
        &mut self,
        from: HostId,
        to: HostId,
        latency_secs: f64,
        bandwidth_bps: f64,
    ) {
        self.network.observe(from, to, latency_secs, bandwidth_bps);
    }

    /// Whether a server is currently excluded by its fault record.
    pub fn is_down(&self, server: ServerId, now: SimTime) -> bool {
        self.registry.get(server).is_some_and(|s| s.is_down(&self.config.fault, now))
    }

    /// The servers the telemetry round probes: every local server, down
    /// or not, with its address so the round dials without the core lock.
    /// A gossip-learned server's liveness is its origin agent's to judge;
    /// its digest arrives by gossip too.
    pub fn probe_targets(&self) -> Vec<(ServerId, String)> {
        self.registry
            .all_servers()
            .into_iter()
            .filter(|s| s.origin.is_none())
            .map(|s| (s.server_id, s.address.clone()))
            .collect()
    }

    /// Record at `now` the reply, if any, to one probe of `server`: the
    /// telemetry round's `FleetStatsQuery`. A Busy reply from a server at
    /// its connection cap (class `Load`) changes nothing, as a shed is
    /// load, not a fault. Any other reply is an answer: a
    /// `FleetStatsReply`'s digests are stored, and the failures earlier
    /// probes made are taken back, which re-admits a server they marked
    /// down. No reply — a failed dial, a timeout, a reset, a bad CRC — is
    /// one failure, like a `Link` report that settles no pending
    /// assignment.
    pub fn probe_result(&mut self, server: ServerId, reply: Result<Message>, now: SimTime) {
        match reply {
            Ok(Message::Error { code, detail })
                if matches!(
                    NetSolveError::from_code(code, detail.clone()).class(),
                    ErrorClass::Load { .. }
                ) => {}
            Ok(reply) => {
                if let Message::FleetStatsReply { digests } = reply {
                    for digest in digests {
                        self.store_digest(digest, now);
                    }
                }
                self.m.probe_successes.inc();
                if let Some(entry) = self.registry.get_mut(server) {
                    entry.probe_answered(&self.config.fault);
                }
            }
            Err(_) => {
                self.m.heartbeat_misses.inc();
                if let Some(entry) = self.registry.get_mut(server) {
                    if entry.probe_unanswered(&self.config.fault, now) {
                        self.m.fault_down_marks.inc();
                    }
                }
            }
        }
    }

    /// Snapshot the eligible servers for a problem at `now` (advertise it,
    /// not marked down), with aged workloads.
    pub fn snapshots_for(&self, problem: &str, now: SimTime) -> Vec<ServerSnapshot> {
        self.registry
            .servers_for(problem)
            .filter(|s| !s.is_down(&self.config.fault, now))
            .map(|s| ServerSnapshot {
                server_id: s.server_id,
                host: s.host,
                address: s.address.clone(),
                mflops: s.mflops,
                workload: s.effective_workload(&self.config.workload, now),
            })
            .collect()
    }

    /// The full ranking for a request (every eligible server, best first).
    pub fn rank_request(
        &mut self,
        shape: &RequestShape,
        client_host: HostId,
        now: SimTime,
    ) -> Result<Vec<Ranked>> {
        let spec = self
            .registry
            .spec(&shape.problem)
            .ok_or_else(|| NetSolveError::ProblemNotFound(shape.problem.clone()))?;
        let complexity = spec.complexity;
        let snapshots = self.snapshots_for(&shape.problem, now);
        if snapshots.is_empty() {
            return Err(NetSolveError::NoServerAvailable(shape.problem.clone()));
        }
        let ranked = rank(
            self.policy,
            &snapshots,
            shape,
            complexity,
            &self.network,
            client_host,
            &mut self.balancer,
        );
        // The top candidate is where the client will (almost certainly)
        // send the request: count it as pending until confirmed.
        if let Some(first) = ranked.first() {
            self.note_assignment(first.server.server_id, now);
        }
        Ok(ranked)
    }

    /// Answer a client's server query with the top-k candidate list.
    pub fn query(&mut self, q: &QueryShape, now: SimTime) -> Result<Vec<Candidate>> {
        self.m.queries.inc();
        let shape = RequestShape {
            problem: q.problem.clone(),
            n: q.n,
            bytes_in: q.bytes_in,
            bytes_out: q.bytes_out,
        };
        let ranked = self.rank_request(&shape, HostId(q.client_host), now)?;
        self.m.rankings.inc();
        Ok(ranked
            .into_iter()
            .take(CANDIDATES_RETURNED)
            .map(|r| Candidate {
                server_id: r.server.server_id.raw(),
                address: r.server.address,
                predicted_secs: r.predicted_secs,
            })
            .collect())
    }

    /// Protocol-level dispatch: consume one incoming message, produce the
    /// reply. Unknown or inappropriate messages produce `Error` replies;
    /// this function never fails (the transport loop must always have
    /// something to send back).
    pub fn handle_message(&mut self, msg: &Message, now: SimTime) -> Message {
        match msg {
            Message::RegisterServer(desc) => match self.register_server(desc, now) {
                Ok(id) => Message::RegisterAck {
                    accepted: true,
                    detail: id.raw().to_string(),
                },
                Err(e) => Message::RegisterAck { accepted: false, detail: e.to_string() },
            },
            Message::WorkloadReport { server_id, workload } => {
                self.workload_report(ServerId(*server_id), *workload, now);
                Message::Pong
            }
            Message::ServerQuery(q) | Message::ServerQueryForwarded(q) => {
                // Adopt the wire-propagated context: the parent span is the
                // client's rank span, so the scoring work nests under it in
                // the stitched timeline. Queries carry no request id.
                let ctx = SpanContext {
                    trace_id: q.trace_id,
                    parent_span: q.parent_span,
                    request_id: 0,
                };
                let score_timer = self.tracer.start();
                let ranked = self.query(q, now);
                let detail = match &ranked {
                    Ok(c) => format!("problem={} candidates={}", q.problem, c.len()),
                    Err(e) => format!("problem={} err={e}", q.problem),
                };
                self.tracer.record(ctx, score_timer, "agent", "score", detail);
                match ranked {
                    Ok(candidates) => Message::ServerList { candidates },
                    Err(e) => Message::from_error(&e),
                }
            }
            Message::ListProblems => Message::ProblemCatalogue {
                names: self.registry.problem_names(),
            },
            Message::ListServers => Message::ServerInfoList {
                servers: self
                    .registry
                    .all_servers()
                    .into_iter()
                    .map(|s| netsolve_proto::ServerInfo {
                        server_id: s.server_id.raw(),
                        host: s.host_name.clone(),
                        address: s.address.clone(),
                        mflops: s.mflops,
                        workload: s.effective_workload(&self.config.workload, now),
                        down: s.is_down(&self.config.fault, now),
                        problems: s.problems.len() as u32,
                    })
                    .collect(),
            },
            Message::DescribeProblem { problem }
            | Message::DescribeProblemForwarded { problem } => match self.registry.spec(problem) {
                Some(spec) => Message::ProblemDescription { pdl: netsolve_pdl::render(spec) },
                None => Message::from_error(&NetSolveError::ProblemNotFound(problem.clone())),
            },
            Message::FailureReport { server_id, server_address, code, detail, .. } => {
                let sid = self.resolve_report_server(*server_id, server_address);
                let class = NetSolveError::from_code(*code, detail.clone()).class();
                self.failure_report(sid, class, now);
                Message::Pong
            }
            Message::CompletionReport {
                server_id,
                server_address,
                client_host,
                total_secs,
                compute_secs,
                bytes,
                ..
            } => {
                let sid = self.resolve_report_server(*server_id, server_address);
                self.success_report(sid);
                // Refresh the network estimate for this pair: the
                // non-compute part of the call moved `bytes` across the
                // link (NetSolve updated its network table the same way).
                let transfer = total_secs - compute_secs;
                if let Some(server) = self.registry.get(sid) {
                    if *bytes > 0 && transfer > 1e-9 && transfer.is_finite() {
                        let bandwidth = *bytes as f64 / transfer;
                        let server_host = server.host;
                        let client = HostId(*client_host);
                        // Negative latency sample = "no latency info":
                        // NetworkView ignores invalid latency samples and
                        // only updates bandwidth.
                        self.network.observe(client, server_host, -1.0, bandwidth);
                        self.network.observe(server_host, client, -1.0, bandwidth);
                    }
                }
                Message::Pong
            }
            Message::GossipSync { from_agent, entries, digests } => {
                self.m.gossip_syncs_received.inc();
                let sync_timer = self.tracer.start();
                let (merged, refreshed, conflicts) = self.merge_gossip(entries, now);
                self.expire_gossip(now);
                self.merge_digests(digests, now);
                self.expire_digests(now);
                // Traceless: gossip rounds belong to no client request.
                self.tracer.record(
                    SpanContext::NONE,
                    sync_timer,
                    "agent",
                    "gossip_merge",
                    format!(
                        "from={from_agent} entries={} merged={merged} \
                         refreshed={refreshed} conflicts={conflicts}",
                        entries.len()
                    ),
                );
                Message::GossipAck { merged, refreshed, conflicts }
            }
            Message::Ping => Message::Pong,
            Message::StatsQuery => Message::StatsReply(self.metrics.snapshot("agent")),
            Message::FleetStatsQuery => {
                Message::FleetStatsReply { digests: self.digest_snapshot(now) }
            }
            Message::TraceQuery { trace_id } => Message::TraceReply {
                component: "agent".to_string(),
                spans: self.tracer.snapshot_trace(*trace_id),
            },
            other => Message::from_error(&NetSolveError::Protocol(format!(
                "agent cannot handle {}",
                other.name()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::standard_descriptor;

    impl AgentCore {
        /// Unexpired pending assignments and shed holds on a server.
        pub(crate) fn pending_load(&self, server: ServerId, now: SimTime) -> usize {
            self.registry.get(server).map_or(0, |s| s.pending_load(now))
        }
    }

    fn agent_with_servers(specs: &[(&str, f64)]) -> AgentCore {
        let mut agent = AgentCore::with_defaults();
        for (i, (host, mflops)) in specs.iter().enumerate() {
            agent
                .register_server(
                    &standard_descriptor(host, &format!("srv{i}"), *mflops),
                    SimTime::ZERO,
                )
                .unwrap();
        }
        agent
    }

    fn query(n: u64) -> QueryShape {
        QueryShape {
            client_host: 0,
            problem: "dgesv".into(),
            n,
            bytes_in: 8 * n * n,
            bytes_out: 8 * n,
            trace_id: 0,
            parent_span: 0,
        }
    }

    #[test]
    fn query_returns_ranked_candidates() {
        let mut agent = agent_with_servers(&[("slow", 10.0), ("fast", 1000.0)]);
        let candidates = agent.query(&query(400), SimTime::ZERO).unwrap();
        assert_eq!(candidates.len(), 2);
        assert_eq!(candidates[0].address, "srv1", "fast server first");
        assert!(candidates[0].predicted_secs <= candidates[1].predicted_secs);
    }

    #[test]
    fn query_unknown_problem_errors() {
        let mut agent = agent_with_servers(&[("h", 100.0)]);
        let mut q = query(10);
        q.problem = "nonexistent".into();
        assert!(matches!(
            agent.query(&q, SimTime::ZERO),
            Err(NetSolveError::ProblemNotFound(_))
        ));
    }

    #[test]
    fn query_with_no_servers_errors() {
        let mut agent = AgentCore::with_defaults();
        // A fresh agent knows no server and so no problem: the query is
        // refused.
        assert!(agent.query(&query(10), SimTime::ZERO).is_err());
    }

    #[test]
    fn down_server_excluded_until_cooldown() {
        let mut agent = agent_with_servers(&[("a", 100.0), ("b", 100.0)]);
        let now = SimTime::ZERO;
        // two failures mark server 1 down (default policy threshold = 2)
        agent.failure_report(ServerId(1), ErrorClass::Link, now);
        agent.failure_report(ServerId(1), ErrorClass::Link, now);
        assert!(agent.is_down(ServerId(1), now));

        let candidates = agent.query(&query(100), now).unwrap();
        assert_eq!(candidates.len(), 1);
        assert_eq!(candidates[0].server_id, 2);

        // after the cooldown it is eligible again
        let later = SimTime::from_secs(120.0);
        let candidates = agent.query(&query(100), later).unwrap();
        assert_eq!(candidates.len(), 2);
    }

    #[test]
    fn all_servers_down_yields_no_server_available() {
        let mut agent = agent_with_servers(&[("a", 100.0)]);
        let now = SimTime::ZERO;
        agent.failure_report(ServerId(1), ErrorClass::Link, now);
        agent.failure_report(ServerId(1), ErrorClass::Link, now);
        assert!(matches!(
            agent.query(&query(10), now),
            Err(NetSolveError::NoServerAvailable(_))
        ));
    }

    /// A shed is load, not a fault: Busy reports never mark a server
    /// down, and the assignment each would have cleared keeps the server
    /// ranked below an equal twin until the retry hint passes. Link
    /// reports still mark it down; a report naming a bad request changes
    /// nothing.
    #[test]
    fn a_shed_ranks_the_server_lower_and_never_marks_it_down() {
        use netsolve_core::admission::{format_busy_detail, ShedReason};
        let report = |code, detail: &str| Message::FailureReport {
            server_id: 1,
            server_address: "srv0".into(),
            problem: "dgesv".into(),
            code,
            detail: detail.into(),
        };
        let busy = report(13, &format_busy_detail(ShedReason::QueueFull, 1, 50));
        let first = |agent: &mut AgentCore, at| agent.query(&query(100), at).unwrap()[0].server_id;

        let mut agent = agent_with_servers(&[("a", 100.0), ("b", 100.0)]);
        let t0 = SimTime::from_secs(1.0);
        assert_eq!(first(&mut agent, t0), 1, "equal twins: the lower id first");
        agent.handle_message(&busy, t0);
        agent.handle_message(&busy, t0);
        assert!(!agent.is_down(ServerId(1), t0), "two sheds marked the server down");
        let snap = agent.metrics().snapshot("agent");
        assert_eq!(snap.counter("agent.failure_reports"), 2);
        assert_eq!(snap.counter("agent.fault_down_marks"), 0);
        assert_eq!(first(&mut agent, t0.plus(0.049)), 2, "the shed server ranks second");
        agent.success_report(ServerId(2));
        assert_eq!(first(&mut agent, t0.plus(0.051)), 1, "the hint has passed");

        let refused = report(3, "connection refused");
        agent.handle_message(&refused, t0);
        agent.handle_message(&refused, t0);
        assert!(agent.is_down(ServerId(1), t0), "two link failures mark it down");

        let mut agent = agent_with_servers(&[("a", 100.0), ("b", 100.0)]);
        agent.query(&query(100), t0).unwrap();
        let before = agent.handle_message(&Message::ListServers, t0);
        for _ in 0..3 {
            agent.handle_message(&report(5, "bad arguments"), t0);
        }
        assert_eq!(agent.handle_message(&Message::ListServers, t0), before);
        assert_eq!(agent.pending_load(ServerId(1), t0), 1);
    }

    /// A shed's hold is no request in flight: a completion that arrives
    /// after it clears the request that completed, not the hold. The
    /// hold lapses with its hint, and a hint off the wire is held no
    /// longer than an assignment's TTL.
    #[test]
    fn a_shed_hold_lapses_with_its_hint_and_no_completion_clears_it() {
        use netsolve_core::admission::{format_busy_detail, ShedReason};
        let shed = |ms| Message::FailureReport {
            server_id: 1,
            server_address: "srv0".into(),
            problem: "dgesv".into(),
            code: 13,
            detail: format_busy_detail(ShedReason::QueueFull, 1, ms),
        };
        let gauge = |agent: &AgentCore| agent.metrics().gauge("agent.pending_assignments").get();
        let t0 = SimTime::from_secs(1.0);

        let mut agent = agent_with_servers(&[("a", 100.0)]);
        agent.query(&query(100), t0).unwrap();
        agent.handle_message(&shed(50), t0);
        agent.query(&query(100), t0.plus(0.02)).unwrap();
        assert_eq!(agent.pending_load(ServerId(1), t0.plus(0.02)), 2, "a hold and a request");
        agent.success_report(ServerId(1));
        assert_eq!(agent.pending_load(ServerId(1), t0.plus(0.02)), 1, "the hold is left");
        assert_eq!(agent.pending_load(ServerId(1), t0.plus(1.0)), 0, "and lapses at 50 ms");
        assert_eq!(gauge(&agent), 0, "nothing is in flight");

        let mut agent = agent_with_servers(&[("a", 100.0)]);
        agent.query(&query(100), t0).unwrap();
        agent.handle_message(&shed(u64::MAX), t0);
        assert_eq!(agent.pending_load(ServerId(1), t0.plus(299.0)), 1);
        assert_eq!(agent.pending_load(ServerId(1), t0.plus(300.0)), 0, "held for the TTL at most");
        assert_eq!(gauge(&agent), 0);
    }

    #[test]
    fn workload_reports_shift_ranking() {
        // Two identical servers; load one up and it must drop to 2nd.
        let mut agent = agent_with_servers(&[("a", 100.0), ("b", 100.0)]);
        let now = SimTime::from_secs(1.0);
        agent.workload_report(ServerId(1), 300.0, now);
        agent.workload_report(ServerId(2), 0.0, now);
        let candidates = agent.query(&query(400), now).unwrap();
        assert_eq!(candidates[0].server_id, 2);
    }

    #[test]
    fn stale_workload_degrades_server() {
        let mut agent = agent_with_servers(&[("a", 100.0), ("b", 100.0)]);
        // server 1 reported long ago (its report will age out);
        // server 2 reports fresh idleness at query time.
        agent.workload_report(ServerId(1), 0.0, SimTime::ZERO);
        let later = SimTime::from_secs(500.0);
        agent.workload_report(ServerId(2), 0.0, later);
        let candidates = agent.query(&query(400), later).unwrap();
        assert_eq!(candidates[0].server_id, 2, "fresh server preferred over stale");
    }

    #[test]
    fn candidate_list_truncated_to_config() {
        let servers: Vec<(String, f64)> = (0..10).map(|i| (format!("h{i}"), 100.0)).collect();
        let refs: Vec<(&str, f64)> = servers.iter().map(|(h, m)| (h.as_str(), *m)).collect();
        let mut agent = agent_with_servers(&refs);
        let candidates = agent.query(&query(50), SimTime::ZERO).unwrap();
        assert_eq!(candidates.len(), 5, "default candidate cap is 5");
    }

    #[test]
    fn message_dispatch_register_and_query() {
        let mut agent = AgentCore::with_defaults();
        let now = SimTime::ZERO;
        let reply = agent.handle_message(
            &Message::RegisterServer(standard_descriptor("h", "srv0", 100.0)),
            now,
        );
        match reply {
            Message::RegisterAck { accepted, detail } => {
                assert!(accepted);
                assert_eq!(detail, "1");
            }
            other => panic!("unexpected {other:?}"),
        }

        let reply = agent.handle_message(&Message::ServerQuery(query(100)), now);
        match reply {
            Message::ServerList { candidates } => assert_eq!(candidates.len(), 1),
            other => panic!("unexpected {other:?}"),
        }

        let reply = agent.handle_message(&Message::ListProblems, now);
        match reply {
            Message::ProblemCatalogue { names } => assert!(names.contains(&"dgesv".to_string())),
            other => panic!("unexpected {other:?}"),
        }

        let reply = agent.handle_message(
            &Message::DescribeProblem { problem: "dgesv".into() },
            now,
        );
        match reply {
            Message::ProblemDescription { pdl } => assert!(pdl.contains("@PROBLEM dgesv")),
            other => panic!("unexpected {other:?}"),
        }

        assert_eq!(agent.handle_message(&Message::Ping, now), Message::Pong);
    }

    #[test]
    fn message_dispatch_rejects_misdirected_messages() {
        let mut agent = AgentCore::with_defaults();
        let reply = agent.handle_message(
            &Message::RequestSubmit {
                request_id: 1,
                deadline_ms: 0,
                problem: "x".into(),
                inputs: vec![],
                trace_id: 0,
                parent_span: 0,
            },
            SimTime::ZERO,
        );
        assert!(matches!(reply, Message::Error { .. }));
    }

    #[test]
    fn pending_assignments_expire_and_clear() {
        let mut agent = agent_with_servers(&[("a", 100.0)]);
        let now = SimTime::ZERO;
        // Each query notes one pending assignment on the top candidate.
        agent.query(&query(100), now).unwrap();
        agent.query(&query(100), now).unwrap();
        assert_eq!(agent.pending_load(ServerId(1), now), 2);
        // A success clears one, a failure clears another.
        agent.success_report(ServerId(1));
        assert_eq!(agent.pending_load(ServerId(1), now), 1);
        agent.failure_report(ServerId(1), ErrorClass::Link, now);
        assert_eq!(agent.pending_load(ServerId(1), now), 0);
        // Unconfirmed assignments expire after the TTL.
        agent.query(&query(100), now).unwrap();
        assert_eq!(agent.pending_load(ServerId(1), SimTime::from_secs(299.0)), 1);
        assert_eq!(agent.pending_load(ServerId(1), SimTime::from_secs(301.0)), 0);
    }

    #[test]
    fn completion_reports_teach_the_network_view() {
        let mut agent = agent_with_servers(&[("a", 100.0)]);
        let now = SimTime::ZERO;
        let before = agent.query(&query(200), now).unwrap()[0].predicted_secs;
        // Report a completion that proves the link is ~100x faster than the
        // LAN default: 8 MB in 10 ms of non-compute time.
        for _ in 0..50 {
            let reply = agent.handle_message(
                &Message::CompletionReport {
                    server_id: 1,
                    server_address: String::new(),
                    client_host: 0,
                    problem: "dgesv".into(),
                    total_secs: 0.020,
                    compute_secs: 0.010,
                    bytes: 8_000_000,
                },
                now,
            );
            assert_eq!(reply, Message::Pong);
        }
        let after = agent.query(&query(200), now).unwrap()[0].predicted_secs;
        assert!(
            after < before / 5.0,
            "prediction should drop once the real bandwidth is learned: {before} -> {after}"
        );
    }

    #[test]
    fn bogus_completion_reports_are_harmless() {
        let mut agent = agent_with_servers(&[("a", 100.0)]);
        let now = SimTime::ZERO;
        let before = agent.query(&query(200), now).unwrap()[0].predicted_secs;
        for (total, compute, bytes, server_id) in [
            (0.0, 0.0, 1_000u64, 1u64),          // zero transfer time
            (1.0, 2.0, 1_000, 1),                 // negative transfer
            (f64::NAN, 0.0, 1_000, 1),            // NaN
            (1.0, 0.5, 0, 1),                     // zero bytes
            (1.0, 0.5, 1_000, 999),               // unknown server
        ] {
            agent.handle_message(
                &Message::CompletionReport {
                    server_id,
                    server_address: String::new(),
                    client_host: 0,
                    problem: "dgesv".into(),
                    total_secs: total,
                    compute_secs: compute,
                    bytes,
                },
                now,
            );
        }
        let after = agent.query(&query(200), now).unwrap()[0].predicted_secs;
        assert!((after - before).abs() < before * 0.05, "{before} vs {after}");

        // Regression: reports naming servers the agent never issued used
        // to mint fault state per id — unbounded growth from outside
        // input. They must leave nothing behind: same rows, no pending,
        // no down mark, and the next ranking exactly as before.
        agent.success_report(ServerId(1));
        agent.success_report(ServerId(1));
        let before = agent.query(&query(200), now).unwrap();
        agent.success_report(ServerId(1));
        for ghost in 0..10_000u64 {
            let (server_id, server_address) = (1_000 + ghost, format!("ghost:{ghost}"));
            let failure = Message::FailureReport {
                server_id,
                server_address: server_address.clone(),
                problem: "dgesv".into(),
                code: 3,
                detail: "refused".into(),
            };
            // Two failures are the down threshold — for a server that exists.
            agent.handle_message(&failure, now);
            agent.handle_message(&failure, now);
            assert!(!agent.is_down(ServerId(server_id), now));
            agent.handle_message(
                &Message::CompletionReport {
                    server_id,
                    server_address,
                    client_host: 0,
                    problem: "dgesv".into(),
                    total_secs: 1.0,
                    compute_secs: 0.5,
                    bytes: 1_000,
                },
                now,
            );
            agent.probe_result(ServerId(server_id), Ok(Message::Pong), now);
            for _ in 0..2 {
                let gone = NetSolveError::Transport("refused".into());
                agent.probe_result(ServerId(server_id), Err(gone), now);
            }
            assert!(!agent.is_down(ServerId(server_id), now));
        }
        assert_eq!(agent.registry().server_count(), 1);
        assert_eq!(agent.registry().pending_total(now), 0);
        assert_eq!(agent.metrics().gauge("agent.pending_assignments").get(), 0);
        assert_eq!(agent.metrics().counter("agent.failure_reports").get(), 20_000);
        assert_eq!(agent.metrics().counter("agent.fault_down_marks").get(), 0);
        assert_eq!(agent.query(&query(200), now).unwrap(), before);
    }

    /// Regression: `register_at` used to mint a fresh id unconditionally,
    /// so a server restarting on its fixed port became two rows — two of
    /// the client's failover slots on one machine, two heartbeat dials,
    /// reports credited to whichever duplicate a scan found first.
    #[test]
    fn a_restarted_server_replaces_its_row() {
        let mut agent = AgentCore::with_defaults();
        let now = SimTime::ZERO;
        let desc = standard_descriptor("h", "10.0.0.1:9001", 100.0);
        let id = agent.register_server(&desc, now).unwrap();
        // Dynamic state the restart must reset.
        agent.query(&query(100), now).unwrap();
        agent.failure_report(id, ErrorClass::Link, now);
        agent.query(&query(100), now).unwrap();
        assert_eq!(agent.metrics().gauge("agent.pending_assignments").get(), 1);

        assert_eq!(agent.register_server(&desc, now), Ok(id));
        assert_eq!(agent.pending_load(id, now), 0);
        assert_eq!(agent.metrics().gauge("agent.pending_assignments").get(), 0);
        let slow = agent.query(&query(400), now).unwrap();
        agent.success_report(id);

        let faster = standard_descriptor("h", "10.0.0.1:9001", 400.0);
        let reply = agent.handle_message(&Message::RegisterServer(faster), now);
        assert_eq!(
            reply,
            Message::RegisterAck { accepted: true, detail: id.raw().to_string() },
            "the ack carries the existing row's id"
        );
        assert_eq!(agent.registry().server_count(), 1);
        assert_eq!(agent.probe_targets(), vec![(id, "10.0.0.1:9001".to_string())]);
        let fast = agent.query(&query(400), now).unwrap();
        assert_eq!((slow.len(), fast.len()), (1, 1));
        assert!(
            fast[0].predicted_secs < slow[0].predicted_secs,
            "ranked with the new rating: {fast:?} vs {slow:?}"
        );

        // One failure before the restart, one after: the count restarted.
        let report = Message::FailureReport {
            server_id: 77,
            server_address: "10.0.0.1:9001".into(),
            problem: "dgesv".into(),
            code: 3,
            detail: "connection refused".into(),
        };
        agent.handle_message(&report, now);
        assert!(!agent.is_down(id, now));
        agent.handle_message(&report, now);
        assert!(agent.is_down(id, now), "a report by address lands on the one row");

        // A failed re-registration commits nothing: the row stays as it was.
        let mut bad = standard_descriptor("h", "10.0.0.1:9001", -1.0);
        bad.problems.clear();
        assert!(agent.register_server(&bad, now).is_err());
        assert_eq!(agent.registry().get(id).unwrap().mflops, 400.0);
        assert!(agent.is_down(id, now));
    }

    #[test]
    fn reports_resolve_by_address_across_agent_id_spaces() {
        // Regression for the cross-agent report bug: each agent mints its
        // own ServerIds, so a client that failed over from another agent
        // reports ids from the *dead* agent's numbering. The address is
        // the stable identity — a report carrying a wrong id but a known
        // address must credit/blame the server at that address.
        let mut agent = agent_with_servers(&[("a", 100.0), ("b", 100.0)]);
        let now = SimTime::ZERO;
        // Id 7 doesn't exist here; "srv1" is server 2's address.
        for _ in 0..2 {
            let reply = agent.handle_message(
                &Message::FailureReport {
                    server_id: 7,
                    server_address: "srv1".into(),
                    problem: "dgesv".into(),
                    code: 3,
                    detail: "connection refused".into(),
                },
                now,
            );
            assert_eq!(reply, Message::Pong);
        }
        assert!(agent.is_down(ServerId(2), now), "address must win over id");
        assert!(!agent.is_down(ServerId(1), now));
        let snap = agent.metrics().snapshot("agent");
        assert_eq!(snap.counter("agent.report_id_remaps"), 2);

        // v4 peers send no address: the raw id is still honoured.
        agent.handle_message(
            &Message::FailureReport {
                server_id: 1,
                server_address: String::new(),
                problem: "dgesv".into(),
                code: 3,
                detail: "reset".into(),
            },
            now,
        );
        agent.handle_message(
            &Message::FailureReport {
                server_id: 1,
                server_address: String::new(),
                problem: "dgesv".into(),
                code: 3,
                detail: "reset".into(),
            },
            now,
        );
        assert!(agent.is_down(ServerId(1), now));
        // An unknown address also falls back to the raw id (harmless when
        // the id is unknown too — bogus reports stay inert).
        agent.handle_message(
            &Message::FailureReport {
                server_id: 999,
                server_address: "nowhere:1".into(),
                problem: "dgesv".into(),
                code: 3,
                detail: "reset".into(),
            },
            now,
        );
        assert_eq!(
            agent.metrics().snapshot("agent").counter("agent.report_id_remaps"),
            2,
            "fallback paths must not count as remaps"
        );
    }

    #[test]
    fn completion_report_with_foreign_id_teaches_the_addressed_server() {
        let mut agent = agent_with_servers(&[("a", 100.0)]);
        let now = SimTime::ZERO;
        let before = agent.query(&query(200), now).unwrap()[0].predicted_secs;
        // Same payload as completion_reports_teach_the_network_view, but
        // carrying a foreign id — only the address identifies server 1.
        for _ in 0..50 {
            agent.handle_message(
                &Message::CompletionReport {
                    server_id: 42,
                    server_address: "srv0".into(),
                    client_host: 0,
                    problem: "dgesv".into(),
                    total_secs: 0.020,
                    compute_secs: 0.010,
                    bytes: 8_000_000,
                },
                now,
            );
        }
        let after = agent.query(&query(200), now).unwrap()[0].predicted_secs;
        assert!(
            after < before / 5.0,
            "remapped completions must still teach the link: {before} -> {after}"
        );
    }

    #[test]
    fn gossip_digest_vouches_for_live_local_servers_only() {
        let mut agent = agent_with_servers(&[("a", 100.0), ("b", 200.0)]);
        agent.set_self_address("agent-1");
        let now = SimTime::from_secs(10.0);
        let digest = agent.gossip_digest(now);
        assert_eq!(digest.len(), 2);
        for e in &digest {
            assert_eq!(e.origin_agent, "agent-1");
            assert_eq!(e.age_secs, 0.0, "local entries are vouched fresh");
            assert!(e.problems.contains(&"dgesv".to_string()));
        }
        // A down-marked server is withheld from the digest.
        agent.failure_report(ServerId(1), ErrorClass::Link, now);
        agent.failure_report(ServerId(1), ErrorClass::Link, now);
        assert_eq!(agent.gossip_digest(now).len(), 1);
    }

    #[test]
    fn merged_gossip_servers_become_rankable_and_expire() {
        let mut agent = AgentCore::with_defaults();
        agent.set_self_address("agent-2");
        let mut donor = agent_with_servers(&[("remoteH", 150.0)]);
        donor.set_self_address("agent-1");
        let now = SimTime::from_secs(1.0);

        let digest = donor.gossip_digest(now);
        let (merged, refreshed, conflicts) = agent.merge_gossip(&digest, now);
        assert_eq!((merged, refreshed, conflicts), (1, 0, 0));

        // The learned server answers queries like a direct registration.
        let candidates = agent.query(&query(100), now).unwrap();
        assert_eq!(candidates.len(), 1);
        assert_eq!(candidates[0].address, "srv0");
        // Its liveness is its origin agent's to probe, not this agent's.
        assert!(agent.probe_targets().is_empty());

        // Re-merging the same round is a no-op (anti-entropy idempotence).
        assert_eq!(agent.merge_gossip(&digest, now), (0, 0, 0));

        // A later round refreshes; without rounds the entry expires.
        let later = SimTime::from_secs(5.0);
        assert_eq!(agent.merge_gossip(&donor.gossip_digest(later), later), (0, 1, 0));
        let long_after = SimTime::from_secs(5.0 + 61.0);
        assert_eq!(agent.expire_gossip(long_after), 1);
        assert!(agent.query(&query(100), long_after).is_err());
    }

    #[test]
    fn gossip_echo_of_own_entries_is_dropped() {
        let mut agent = agent_with_servers(&[("a", 100.0)]);
        agent.set_self_address("agent-1");
        let now = SimTime::from_secs(1.0);
        // Simulate our own digest coming back through a peer cycle.
        let echo = agent.gossip_digest(now);
        assert_eq!(agent.merge_gossip(&echo, now), (0, 0, 0));
        assert_eq!(agent.registry().server_count(), 1, "no duplicate minted");
    }

    #[test]
    fn gossip_sync_message_round_trips_through_dispatch() {
        let mut donor = agent_with_servers(&[("remoteH", 150.0)]);
        donor.set_self_address("agent-1");
        let now = SimTime::from_secs(2.0);
        let mut agent = AgentCore::with_defaults();
        agent.set_self_address("agent-2");
        let reply = agent.handle_message(
            &Message::GossipSync {
                from_agent: "agent-1".into(),
                entries: donor.gossip_digest(now),
                digests: vec![],
            },
            now,
        );
        assert_eq!(
            reply,
            Message::GossipAck { merged: 1, refreshed: 0, conflicts: 0 }
        );
        assert_eq!(agent.metrics().counter("agent.gossip_syncs_received").get(), 1);
        assert_eq!(agent.metrics().counter("agent.gossip_merges").get(), 1);
    }

    #[test]
    fn failed_registration_reports_reason() {
        let mut agent = AgentCore::with_defaults();
        let mut bad = standard_descriptor("h", "srv0", 100.0);
        bad.mflops = -1.0;
        let reply = agent.handle_message(&Message::RegisterServer(bad), SimTime::ZERO);
        match reply {
            Message::RegisterAck { accepted, detail } => {
                assert!(!accepted);
                assert!(detail.contains("performance"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
