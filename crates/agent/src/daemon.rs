//! The live agent daemon: an [`AgentCore`] served over a transport.
//!
//! Built on the [`netsolve_net::Daemon`] skeleton: its accept loop gives
//! each connection (up to [`AgentDaemon::MAX_CONNECTIONS`]) a handler
//! thread running a simple request/reply protocol (every incoming message
//! is answered), and the rounds below are its periodic workers. Works
//! identically over TCP and the in-process channel transport.
//!
//! The daemon's telemetry round is also its liveness probe: every tick it
//! scrapes each local server, down or not, with one `FleetStatsQuery` and
//! feeds the outcome into that server's fault record, so dead servers
//! drop out of rankings even when no client ever reports them, and a
//! server that probes alone marked down is re-admitted by the first probe
//! it answers.
//!
//! Federated daemons additionally run a gossip loop: every gossip interval
//! the agent pushes its full registration view (`GossipSync`) to each
//! peer, merges nothing itself on the send side (merging happens when
//! peers' rounds arrive), and treats the round as a peer liveness probe —
//! a peer that misses enough consecutive rounds is marked down (skipped by
//! the one-hop query widening path) and re-probed every round until it
//! answers again.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use netsolve_core::clock::{Clock, SimTime};
use netsolve_core::config::AgentConfig;
use netsolve_core::error::Result;
use netsolve_net::{call_once, AcceptCounters, Daemon, StopSignal, Transport, KEEP_ALIVE};
use netsolve_proto::{Candidate, Message, QueryShape};
use parking_lot::Mutex;

use crate::core::{AgentCore, AgentInstruments, CANDIDATES_RETURNED};

/// Handle to a running agent daemon.
pub struct AgentDaemon {
    shared: Arc<Shared>,
    daemon: Daemon,
}

/// What the accept loop's handlers and the periodic workers share.
struct Shared {
    core: Arc<Mutex<AgentCore>>,
    metrics: Arc<netsolve_obs::MetricsRegistry>,
    m: Arc<AgentInstruments>,
    tracer: Arc<netsolve_obs::Tracer>,
    /// The core's configuration, copied at start so the workers read
    /// their policies without the core lock.
    config: AgentConfig,
    /// The transport's clock, and its reading when the daemon started.
    clock: Arc<dyn Clock>,
    epoch: Instant,
    transport: Arc<dyn Transport>,
    address: String,
    peers: Mutex<Vec<Peer>>,
    stop: Arc<StopSignal>,
}

/// One federation peer: its address and how many gossip rounds in a row
/// it has left unanswered. A peer *is* down while that count is at or
/// past the gossip policy's `peer_miss_threshold`.
struct Peer {
    address: String,
    misses: u32,
}

/// How long a federated agent waits for each peer's answer.
const PEER_TIMEOUT: Duration = Duration::from_secs(5);

/// How long the telemetry round waits for a local server's scrape reply
/// before counting the probe as missed.
const PROBE_TIMEOUT: Duration = Duration::from_secs(2);

impl AgentDaemon {
    /// Hard cap on concurrently served connections; one arriving past it
    /// is answered with a retryable Busy error (`agent.busy_rejected`).
    /// Kept below the common 1024-descriptor process limit.
    pub const MAX_CONNECTIONS: u32 = 512;

    /// Start an agent listening at `hint` on the given transport, serving
    /// the given core. Time is the transport's clock, counted from now:
    /// the core ages workloads and cools down servers in seconds since
    /// the daemon started. The agent starts with no federation peers; see
    /// [`AgentDaemon::set_peers`].
    pub fn start(
        transport: Arc<dyn Transport>,
        hint: &str,
        mut core: AgentCore,
    ) -> Result<AgentDaemon> {
        let listener = transport.listen(hint)?;
        let address = listener.address();
        core.set_self_address(&address);
        let (metrics, m, tracer) = (core.metrics(), Arc::clone(&core.m), core.tracer());
        let config = core.config().clone();
        let AgentConfig { gossip, telemetry, .. } = config;
        let mut daemon = Daemon::new(Arc::clone(&transport));
        let clock = transport.clock();
        let shared = Arc::new(Shared {
            core: Arc::new(Mutex::new(core)),
            metrics: Arc::clone(&metrics),
            m: Arc::clone(&m),
            tracer,
            config,
            epoch: clock.now(),
            clock,
            transport,
            address,
            peers: Mutex::new(Vec::new()),
            stop: daemon.stop_signal(),
        });

        // The gossip loop runs even while the peer list is empty: peers
        // arrive later via `set_peers` (live demos bind ephemeral ports
        // first, then wire the mesh).
        {
            let shared = Arc::clone(&shared);
            daemon.every(
                "agent-gossip",
                Duration::from_secs_f64(gossip.interval_secs.max(0.001)),
                move || shared.gossip_round(),
            )?;
        }
        // Telemetry sampler: ticks this agent's own windowed series,
        // scrapes locally-registered servers for their digests and their
        // liveness, and expires dead peers' series — the state gossip
        // replicates.
        {
            let shared = Arc::clone(&shared);
            let series = netsolve_obs::WindowedSeries::default();
            // Seed the series baseline now so events that land before the
            // first tick show up in the first tick's change instead of
            // vanishing into it.
            series.record(metrics.snapshot("agent"), shared.now().as_secs());
            daemon.every("agent-telemetry", telemetry.tick(), move || {
                shared.telemetry_round(&series)
            })?;
        }
        {
            let shared = Arc::clone(&shared);
            let counters = AcceptCounters(&m.accepts, &m.busy_rejected, &m.spawn_failures);
            daemon.serve(
                listener,
                Self::MAX_CONNECTIONS,
                KEEP_ALIVE,
                counters,
                "agent",
                move |msg| (shared.answer(msg), || {}),
            )?;
        }
        Ok(AgentDaemon { shared, daemon })
    }

    /// Address clients and servers should dial.
    pub fn address(&self) -> &str {
        &self.shared.address
    }

    /// Shared handle to the core (experiments inspect and tweak state).
    pub fn core(&self) -> Arc<Mutex<AgentCore>> {
        Arc::clone(&self.shared.core)
    }

    /// Replace the peer agent list, making this agent *federated*: it
    /// gossips its registrations to the peers, and a client query that
    /// finds nothing locally is forwarded to them and their candidate
    /// lists merged (best predicted time first). Peers answer from local
    /// state only, so federation depth is one hop and loops are impossible
    /// even when peers list each other. The gossip loop and the
    /// query-widening path both read the list per use, so a new mesh takes
    /// effect on the next round/request — live TCP deployments bind
    /// ephemeral ports first and only then know each other's addresses.
    /// Every listed peer starts out up: miss counts belong to the roster
    /// they were counted in.
    pub fn set_peers(&self, peers: Vec<String>) {
        *self.shared.peers.lock() =
            peers.into_iter().map(|address| Peer { address, misses: 0 }).collect();
    }

    /// Stop accepting connections and join the daemon's threads (also
    /// done on drop). Existing per-connection threads drop their
    /// connection at the next request boundary without replying
    /// ([`Daemon::serve`]) — a stopped agent goes silent the way a crashed
    /// one does, so pinned clients fail over instead of talking to a zombie.
    pub fn stop(&mut self) {
        self.daemon.stop();
    }
}

impl Shared {
    /// Seconds since the daemon started, on its transport's clock: the
    /// time the core's table ages and cools down by.
    fn now(&self) -> SimTime {
        SimTime::from_secs(self.clock.since(self.epoch).as_secs_f64())
    }

    fn call_once(&self, address: &str, msg: &Message, timeout: Duration) -> Result<Message> {
        call_once(self.transport.as_ref(), address, msg, timeout)
    }

    /// Whether a peer with this many missed rounds is down.
    fn peer_is_down(&self, peer: &Peer) -> bool {
        peer.misses >= self.config.gossip.peer_miss_threshold
    }

    /// Addresses of the peers the gossip loop has not marked down.
    fn live_peers(&self) -> Vec<String> {
        let peers = self.peers.lock();
        peers.iter().filter(|p| !self.peer_is_down(p)).map(|p| p.address.clone()).collect()
    }

    /// Gossip round: push the full local registration view to each peer
    /// and treat the answer as a liveness signal. Expiry of stale
    /// gossip-learned entries also runs here, so a dead peer's servers age
    /// out even when no further gossip arrives to trigger merge-side
    /// expiry.
    fn gossip_round(&self) {
        // Down peers are still dialled: the round is their recovery probe.
        let round_peers: Vec<String> =
            self.peers.lock().iter().map(|p| p.address.clone()).collect();
        if round_peers.is_empty() {
            return;
        }
        let round_timeout =
            Duration::from_secs_f64(self.config.gossip.round_timeout_secs.max(0.001));
        let now = self.now();
        let (m, tracer) = (&self.m, &self.tracer);
        let sync = {
            let mut core = self.core.lock();
            core.expire_gossip(now);
            core.expire_digests(now);
            Message::GossipSync {
                from_agent: self.address.clone(),
                entries: core.gossip_digest(now),
                digests: core.digest_snapshot(now),
            }
        };
        m.gossip_rounds.inc();
        for peer in &round_peers {
            if self.stop.is_stopped() {
                return;
            }
            // Push outside the core lock — a black-holed peer may cost the
            // full round timeout. Gossip is traceless (no request context).
            let push_timer = tracer.start();
            let (counter, detail, alive) = match self.call_once(peer, &sync, round_timeout) {
                Ok(Message::GossipAck {
                    merged,
                    refreshed,
                    conflicts,
                }) => (
                    &m.gossip_sends,
                    format!(
                        "peer={peer} merged={merged} refreshed={refreshed} conflicts={conflicts}"
                    ),
                    true,
                ),
                _ => (&m.gossip_send_failures, format!("peer={peer} failed"), false),
            };
            counter.inc();
            tracer.record(
                netsolve_obs::SpanContext::NONE,
                push_timer,
                "agent",
                "gossip_push",
                detail,
            );
            // `set_peers` may have dropped the peer while it was dialled.
            let mut peers = self.peers.lock();
            let Some(entry) = peers.iter_mut().find(|p| p.address == *peer) else {
                continue;
            };
            let was_down = self.peer_is_down(entry);
            entry.misses = if alive { 0 } else { entry.misses.saturating_add(1) };
            match (was_down, self.peer_is_down(entry)) {
                (true, false) => m.peer_recoveries.inc(),
                (false, true) => m.peer_down_marks.inc(),
                _ => {}
            }
        }
        m.peers_up.set(self.live_peers().len() as i64);
    }

    /// Telemetry tick, which is also the liveness probe: (1) recount the
    /// pending assignments, so lapsed ones stop counting, snapshot the
    /// agent's metrics registry into its windowed series and fold the
    /// series into the digest store as this agent's own entry, (2) scrape
    /// every local server, down or not, with `FleetStatsQuery` and
    /// record the reply, or its absence, in its fault record and its
    /// digest in the store ([`AgentCore::probe_result`]), (3) TTL-expire
    /// digests of daemons nobody has refreshed. Gossip then carries the
    /// whole store to peers, so one scrape of any agent returns the
    /// fleet's recent history.
    fn telemetry_round(&self, series: &netsolve_obs::WindowedSeries) {
        self.core.lock().refresh_pending_gauge(self.now());
        series.record(self.metrics.snapshot("agent"), self.now().as_secs());
        let own = series.digest(&self.address, "agent");
        let targets = {
            let now = self.now();
            let mut core = self.core.lock();
            core.store_digest(own, now);
            core.expire_digests(now);
            core.probe_targets()
        };
        // Scrape outside the core lock — a wedged server may cost the
        // full probe timeout, and queries must keep flowing meanwhile.
        // Probes are traceless: no request context exists (stitching
        // skips trace 0).
        for (server, address) in targets {
            if self.stop.is_stopped() {
                return;
            }
            let probe_timer = self.tracer.start();
            let reply = self.call_once(&address, &Message::FleetStatsQuery, PROBE_TIMEOUT);
            self.tracer.record(
                netsolve_obs::SpanContext::NONE,
                probe_timer,
                "agent",
                "heartbeat",
                format!("server={} answered={}", server.raw(), reply.is_ok()),
            );
            self.core.lock().probe_result(server, reply, self.now());
        }
    }

    /// The reply to one message: the core's, widened through the peers
    /// when the core had nothing.
    fn answer(&self, msg: &Message) -> Message {
        let mut reply = self.core.lock().handle_message(msg, self.now());
        // Federation: client requests that found nothing locally are
        // widened to the peer agents (outside the core lock — peers
        // may be slow). Forwarded variants are answered locally only,
        // so federation is one hop deep and loop-free. Peers the
        // gossip loop has marked down are skipped; the widening path
        // must not pay connect timeouts to a known-dead agent on the
        // client's clock.
        if matches!(reply, Message::Error { .. }) {
            let live_peers = self.live_peers();
            match msg {
                Message::ServerQuery(q) => {
                    if let Some(candidates) = self.query_peers(&live_peers, q) {
                        reply = Message::ServerList { candidates };
                    }
                }
                Message::DescribeProblem { problem } => {
                    if let Some(pdl) = self.describe_via_peers(&live_peers, problem) {
                        reply = Message::ProblemDescription { pdl };
                    }
                }
                _ => {}
            }
        }
        reply
    }

    /// Ask every peer agent for candidates; merge and rank by predicted
    /// time. Returns `None` when no peer had anything either. Server ids
    /// are per-agent counters — two peers' "server 1" are different
    /// machines, and one machine known to two peers carries two ids — so
    /// the address is what tells candidates apart.
    fn query_peers(&self, peers: &[String], q: &QueryShape) -> Option<Vec<Candidate>> {
        let ask = Message::ServerQueryForwarded(q.clone());
        let mut merged: Vec<Candidate> = Vec::new();
        for peer in peers {
            if let Ok(Message::ServerList { candidates }) = self.call_once(peer, &ask, PEER_TIMEOUT)
            {
                merged.extend(candidates);
            }
        }
        if merged.is_empty() {
            return None;
        }
        merged.sort_by(|a, b| a.predicted_secs.total_cmp(&b.predicted_secs));
        let mut seen = HashSet::new();
        merged.retain(|c| seen.insert(c.address.clone()));
        merged.truncate(CANDIDATES_RETURNED);
        Some(merged)
    }

    /// Ask peers to describe a problem unknown locally.
    fn describe_via_peers(&self, peers: &[String], problem: &str) -> Option<String> {
        let ask = Message::DescribeProblemForwarded {
            problem: problem.to_string(),
        };
        peers
            .iter()
            .find_map(|peer| match self.call_once(peer, &ask, PEER_TIMEOUT) {
                Ok(Message::ProblemDescription { pdl }) => Some(pdl),
                _ => None,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::standard_descriptor;
    use netsolve_core::clock::VirtualClock;
    use netsolve_core::ids::ServerId;
    use netsolve_core::ErrorClass;
    use netsolve_net::{call, ChannelNetwork, ChaosPolicy, ChaosTransport};
    use netsolve_proto::{Message, QueryShape};
    use std::time::Duration;

    fn timeout() -> Duration {
        Duration::from_secs(5)
    }

    #[test]
    fn daemon_serves_registration_and_queries() {
        let net = ChannelNetwork::new();
        let transport: Arc<dyn Transport> = Arc::new(net.clone());
        let mut daemon =
            AgentDaemon::start(Arc::clone(&transport), "agent", AgentCore::with_defaults())
                .unwrap();

        // register a server over the wire
        let mut conn = net.connect("agent").unwrap();
        let reply = call(
            conn.as_mut(),
            &Message::RegisterServer(standard_descriptor("h1", "srv1", 200.0)),
            timeout(),
        )
        .unwrap();
        assert!(matches!(reply, Message::RegisterAck { accepted: true, .. }));

        // query from a different connection (like a real client)
        let mut conn2 = net.connect("agent").unwrap();
        let reply = call(
            conn2.as_mut(),
            &Message::ServerQuery(QueryShape {
                client_host: 0,
                problem: "dgesv".into(),
                n: 100,
                bytes_in: 80_000,
                bytes_out: 800,
                trace_id: 0,
                parent_span: 0,
            }),
            timeout(),
        )
        .unwrap();
        match reply {
            Message::ServerList { candidates } => {
                assert_eq!(candidates.len(), 1);
                assert_eq!(candidates[0].address, "srv1");
            }
            other => panic!("unexpected {other:?}"),
        }

        daemon.stop();
    }

    #[test]
    fn daemon_serves_concurrent_clients() {
        let net = ChannelNetwork::new();
        let transport: Arc<dyn Transport> = Arc::new(net.clone());
        let mut daemon =
            AgentDaemon::start(Arc::clone(&transport), "agent", AgentCore::with_defaults())
                .unwrap();

        let handles: Vec<_> = (0..8)
            .map(|_| {
                let net = net.clone();
                std::thread::spawn(move || {
                    let mut conn = net.connect("agent").unwrap();
                    for _ in 0..20 {
                        let reply = call(conn.as_mut(), &Message::Ping, timeout()).unwrap();
                        assert_eq!(reply, Message::Pong);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        daemon.stop();
    }

    #[test]
    fn daemon_stop_is_idempotent() {
        let net = ChannelNetwork::new();
        let transport: Arc<dyn Transport> = Arc::new(net);
        let mut daemon =
            AgentDaemon::start(transport, "agent", AgentCore::with_defaults()).unwrap();
        daemon.stop();
        daemon.stop();
    }

    #[test]
    fn federation_widens_queries_and_describes() {
        let net = ChannelNetwork::new();
        let transport: Arc<dyn Transport> = Arc::new(net.clone());
        // Agent B holds the only server; agent A federates with B.
        let mut agent_b = AgentDaemon::start(
            Arc::clone(&transport),
            "agent-b",
            AgentCore::with_defaults(),
        )
        .unwrap();
        let mut agent_a =
            AgentDaemon::start(Arc::clone(&transport), "agent-a", AgentCore::with_defaults()).unwrap();
        agent_a.set_peers(vec!["agent-b".into()]);
        // Register a server with B only.
        let mut conn = net.connect("agent-b").unwrap();
        let reply = call(
            conn.as_mut(),
            &Message::RegisterServer(standard_descriptor("hb", "srvb", 150.0)),
            timeout(),
        )
        .unwrap();
        assert!(matches!(reply, Message::RegisterAck { accepted: true, .. }));

        // A client of agent A can describe and place dgesv via federation.
        let mut client_conn = net.connect("agent-a").unwrap();
        let reply = call(
            client_conn.as_mut(),
            &Message::DescribeProblem { problem: "dgesv".into() },
            timeout(),
        )
        .unwrap();
        assert!(matches!(reply, Message::ProblemDescription { .. }), "{reply:?}");

        let reply = call(
            client_conn.as_mut(),
            &Message::ServerQuery(QueryShape {
                client_host: 0,
                problem: "dgesv".into(),
                n: 50,
                bytes_in: 20_400,
                bytes_out: 408,
                trace_id: 0,
                parent_span: 0,
            }),
            timeout(),
        )
        .unwrap();
        match reply {
            Message::ServerList { candidates } => {
                assert_eq!(candidates.len(), 1);
                assert_eq!(candidates[0].address, "srvb");
            }
            other => panic!("unexpected {other:?}"),
        }
        agent_a.stop();
        agent_b.stop();
    }

    /// Regression: every agent numbers its servers from 1, so the merge of
    /// two peers' lists must tell candidates apart by address. Keyed on the
    /// id, B's and C's "server 1" collapsed into one candidate (no failover
    /// target left), a server both peers know under different ids was
    /// listed twice, and the cut-off ignored `CANDIDATES_RETURNED`.
    #[test]
    fn federated_candidates_merge_by_address_up_to_the_candidate_count() {
        let net = ChannelNetwork::new();
        let transport: Arc<dyn Transport> = Arc::new(net.clone());
        let start = |address: &str| {
            AgentDaemon::start(Arc::clone(&transport), address, AgentCore::with_defaults())
                .unwrap()
        };
        let mut agent_b = start("agent-b");
        let mut agent_c = start("agent-c");
        // Each peer knows three servers of its own, numbered from 1, and
        // both know `shared`, the fastest, so its two copies rank first.
        // Seven distinct addresses in all, two more than a reply holds.
        for (agent, own) in [("agent-b", "srvb"), ("agent-c", "srvc")] {
            let mut conn = net.connect(agent).unwrap();
            let own: Vec<String> = (1..=3).map(|i| format!("{own}{i}")).collect();
            let servers = own.iter().map(|a| (a.as_str(), 100.0)).chain([("shared", 300.0)]);
            for (address, mflops) in servers {
                let register =
                    Message::RegisterServer(standard_descriptor(address, address, mflops));
                let reply = call(conn.as_mut(), &register, timeout()).unwrap();
                assert!(matches!(reply, Message::RegisterAck { accepted: true, .. }));
            }
        }
        let mut agent = start("agent-a");
        agent.set_peers(vec!["agent-b".into(), "agent-c".into()]);
        let query = Message::ServerQuery(QueryShape {
            client_host: 0,
            problem: "dgesv".into(),
            n: 50,
            bytes_in: 20_400,
            bytes_out: 408,
            trace_id: 0,
            parent_span: 0,
        });
        let mut conn = net.connect(agent.address()).unwrap();
        match call(conn.as_mut(), &query, timeout()).unwrap() {
            Message::ServerList { candidates } => {
                let got: HashSet<&str> = candidates.iter().map(|c| c.address.as_str()).collect();
                assert_eq!(
                    (got.len(), candidates.len()),
                    (CANDIDATES_RETURNED, CANDIDATES_RETURNED),
                    "{candidates:?}"
                );
                assert!(got.contains("shared"), "{candidates:?}");
            }
            other => panic!("unexpected {other:?}"),
        }
        for agent in [&mut agent, &mut agent_b, &mut agent_c] {
            agent.stop();
        }
    }

    #[test]
    fn mutual_federation_does_not_loop_on_unknown_problem() {
        let net = ChannelNetwork::new();
        let transport: Arc<dyn Transport> = Arc::new(net.clone());
        let mut agent_a =
            AgentDaemon::start(Arc::clone(&transport), "agent-a", AgentCore::with_defaults()).unwrap();
        agent_a.set_peers(vec!["agent-b".into()]);
        let mut agent_b =
            AgentDaemon::start(Arc::clone(&transport), "agent-b", AgentCore::with_defaults()).unwrap();
        agent_b.set_peers(vec!["agent-a".into()]);
        let mut conn = net.connect("agent-a").unwrap();
        // Nothing anywhere: must come back as an error promptly, not hang.
        let reply = call(
            conn.as_mut(),
            &Message::ServerQuery(QueryShape {
                client_host: 0,
                problem: "nothing".into(),
                n: 1,
                bytes_in: 8,
                bytes_out: 8,
                trace_id: 0,
                parent_span: 0,
            }),
            timeout(),
        )
        .unwrap();
        assert!(matches!(reply, Message::Error { .. }));
        agent_a.stop();
        agent_b.stop();
    }

    /// Register `address` with `agent` over the wire; its row's id.
    fn register(net: &ChannelNetwork, agent: &AgentDaemon, address: &str) -> ServerId {
        let msg = Message::RegisterServer(standard_descriptor(address, address, 100.0));
        let reply = call(net.connect(agent.address()).unwrap().as_mut(), &msg, timeout());
        assert!(matches!(reply, Ok(Message::RegisterAck { accepted: true, .. })), "{reply:?}");
        agent.core().lock().registry().id_by_address(address).unwrap()
    }

    /// With no client traffic at all, the telemetry round alone marks a
    /// killed local server down after `failures_to_mark_down` rounds,
    /// keeps probing it while it is down, marks it down again on the first
    /// miss after its cooldown, and re-admits it on the first probe it
    /// answers, cooling down or not. Virtual clock; the test thread runs
    /// every round.
    #[test]
    fn probes_alone_mark_a_dead_local_server_down_and_readmit_it() {
        let clock = VirtualClock::new();
        let net = ChannelNetwork::new().with_clock(Arc::new(clock.clone()));
        let chaos = Arc::new(ChaosTransport::new(Arc::new(net.clone()), ChaosPolicy::calm(), 0));
        stub(&net, "srv", |_| Message::FleetStatsReply { digests: vec![] });
        let mut agent = AgentDaemon::start(chaos.clone(), "agent", parked_core()).unwrap();
        let id = register(&net, &agent, "srv");
        let fault = agent.shared.config.fault;
        let core = agent.core();
        let count = |name: &str| core.lock().metrics().counter(name).get();
        let round = || agent.shared.telemetry_round(&netsolve_obs::WindowedSeries::default());
        let down = || core.lock().is_down(id, agent.shared.now());

        round();
        assert!(!down());
        assert_eq!(count("agent.probe_successes"), 1);

        chaos.kill("srv");
        for missed in 1..=fault.failures_to_mark_down {
            round();
            assert_eq!(down(), missed == fault.failures_to_mark_down, "after {missed} misses");
        }
        assert_eq!(count("agent.fault_down_marks"), 1);
        // Down, and still probed: one more miss, no second mark.
        round();
        assert_eq!(count("agent.heartbeat_misses"), u64::from(fault.failures_to_mark_down) + 1);
        assert_eq!(count("agent.fault_down_marks"), 1);

        // Half-open and still dead: one miss sends it straight back down.
        clock.advance(Duration::from_secs_f64(fault.down_cooldown_secs));
        assert!(!down());
        round();
        assert!(down());
        assert_eq!(count("agent.fault_down_marks"), 2);

        // Revived: the next round re-admits it, inside its cooldown.
        chaos.revive("srv");
        round();
        assert!(!down());
        assert_eq!(count("agent.probe_successes"), 2);
        agent.stop();
    }

    /// Probes that a server answers say nothing of the calls it fails: two
    /// `Fault` reports several ticks apart mark a server down whose every
    /// probe is answered, answered probes keep it down for its cooldown,
    /// and once it is half-open one more report marks it down again.
    #[test]
    fn answered_probes_do_not_undo_client_reports() {
        let clock = VirtualClock::new();
        let net = ChannelNetwork::new().with_clock(Arc::new(clock.clone()));
        stub(&net, "srv", |_| Message::FleetStatsReply { digests: vec![] });
        let mut agent = AgentDaemon::start(Arc::new(net.clone()), "agent", parked_core()).unwrap();
        let id = register(&net, &agent, "srv");
        let fault = agent.shared.config.fault;
        let core = agent.core();
        let ticks = |n: u32| {
            for _ in 0..n {
                agent.shared.telemetry_round(&netsolve_obs::WindowedSeries::default());
                clock.advance(Duration::from_secs(1));
            }
        };
        let report = || core.lock().failure_report(id, ErrorClass::Fault, agent.shared.now());
        let down = || core.lock().is_down(id, agent.shared.now());

        for _ in 0..fault.failures_to_mark_down {
            ticks(5);
            assert!(!down());
            report();
        }
        assert!(down());
        ticks(5);
        assert!(down(), "answered probes re-admitted a server clients saw fail");

        clock.advance(Duration::from_secs_f64(fault.down_cooldown_secs));
        ticks(5);
        assert!(!down(), "half-open after the cooldown");
        report();
        assert!(down());
        let snap = core.lock().metrics().snapshot("agent");
        assert_eq!(snap.counter("agent.fault_down_marks"), 2);
        assert_eq!(snap.counter("agent.probe_successes"), 20);
        agent.stop();
    }

    /// A server at its connection cap answers the probe with Busy before
    /// it reads it. A shed is load, not a fault: the round leaves the
    /// fault record as it was, counts no miss and no success, and stores
    /// no digest. The cap is `Daemon::serve`'s, the accept loop every
    /// `ServerDaemon` runs, held at one connection.
    #[test]
    fn a_probe_shed_at_the_connection_cap_changes_nothing() {
        let net = ChannelNetwork::new();
        let transport: Arc<dyn Transport> = Arc::new(net.clone());
        let metrics = netsolve_obs::MetricsRegistry::new();
        let [accepts, busy, spawn] = ["s.accepts", "s.busy", "s.spawn"].map(|n| metrics.counter(n));
        let mut server = Daemon::new(Arc::clone(&transport));
        let digest = netsolve_obs::StatsDigest { origin: "srv".into(), ..Default::default() };
        let reply = Message::FleetStatsReply { digests: vec![digest] };
        let counters = AcceptCounters(&accepts, &busy, &spawn);
        let listener = net.listen("srv").unwrap();
        let answer = move |_: &Message| (reply.clone(), || {});
        server.serve(listener, 1, KEEP_ALIVE, counters, "server", answer).unwrap();
        let mut agent = AgentDaemon::start(Arc::clone(&transport), "agent", parked_core()).unwrap();
        let id = register(&net, &agent, "srv");

        // Hold the server's one connection; the reply proves it is served.
        let mut held = net.connect("srv").unwrap();
        let served = call(held.as_mut(), &Message::FleetStatsQuery, timeout());
        assert!(matches!(served, Ok(Message::FleetStatsReply { .. })), "{served:?}");

        let core = agent.core();
        let now = agent.shared.now();
        core.lock().failure_report(id, ErrorClass::Link, now);
        for _ in 0..3 {
            agent.shared.telemetry_round(&netsolve_obs::WindowedSeries::default());
        }
        assert_eq!(busy.get(), 3, "every probe was shed");
        let snap = core.lock().metrics().snapshot("agent");
        for name in ["agent.heartbeat_misses", "agent.probe_successes", "agent.fault_down_marks"] {
            assert_eq!(snap.counter(name), 0, "{name}");
        }
        assert!(core.lock().digest_snapshot(now).iter().all(|d| d.origin != "srv"));
        // The record holds the one failure still: one more reaches the
        // threshold of two.
        assert!(!core.lock().is_down(id, now));
        core.lock().failure_report(id, ErrorClass::Link, now);
        assert!(core.lock().is_down(id, now));
        agent.stop();
        server.stop();
    }

    /// An AgentConfig with gossip fast enough for tests: rounds every
    /// 30 ms, entries expire after `ttl` seconds, one missed round marks
    /// a peer down.
    fn fast_gossip_config(ttl: f64) -> netsolve_core::config::AgentConfig {
        netsolve_core::config::AgentConfig {
            gossip: netsolve_core::config::GossipPolicy {
                interval_secs: 0.03,
                entry_ttl_secs: ttl,
                peer_miss_threshold: 1,
                round_timeout_secs: 0.5,
            },
            ..netsolve_core::config::AgentConfig::default()
        }
    }

    fn fast_gossip_core(ttl: f64) -> AgentCore {
        use crate::balance::Policy;
        use netsolve_net::NetworkView;
        AgentCore::new(fast_gossip_config(ttl), Policy::MinimumCompletionTime, NetworkView::lan_defaults())
    }

    fn wait_for(what: &str, cond: &dyn Fn() -> bool) {
        use std::time::Instant;
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// An assignment whose client never reports stops counting once its
    /// TTL passes: the telemetry tick recounts `agent.pending_assignments`
    /// on the daemon's clock, with no query or report to prompt it.
    #[test]
    fn a_lapsed_assignment_leaves_the_pending_gauge_at_the_next_tick() {
        let clock = VirtualClock::new();
        let net = ChannelNetwork::new().with_clock(Arc::new(clock.clone()));
        let core = parked_core();
        let metrics = core.metrics();
        let pending = || metrics.snapshot("agent").gauge("agent.pending_assignments");
        let mut agent = AgentDaemon::start(Arc::new(net.clone()), "agent", core).unwrap();
        let send = |msg: Message| call(net.connect("agent").unwrap().as_mut(), &msg, timeout());
        let register = Message::RegisterServer(standard_descriptor("h", "srv", 100.0));
        assert!(matches!(send(register), Ok(Message::RegisterAck { accepted: true, .. })));
        assert!(matches!(send(query_dgesv_msg()), Ok(Message::ServerList { .. })));
        assert_eq!(pending(), 1, "the query's assignment");
        clock.advance(Duration::from_secs(301));
        agent.shared.telemetry_round(&netsolve_obs::WindowedSeries::default());
        assert_eq!(pending(), 0, "the lapsed assignment still counts");
        agent.stop();
    }

    fn query_dgesv_msg() -> Message {
        Message::ServerQuery(QueryShape {
            client_host: 0,
            problem: "dgesv".into(),
            n: 50,
            bytes_in: 20_400,
            bytes_out: 408,
            trace_id: 0,
            parent_span: 0,
        })
    }

    fn query_dgesv(net: &ChannelNetwork, agent: &str) -> Message {
        let mut conn = net.connect(agent).unwrap();
        call(conn.as_mut(), &query_dgesv_msg(), timeout()).unwrap()
    }

    #[test]
    fn gossip_replicates_registrations_to_peers() {
        let net = ChannelNetwork::new();
        let transport: Arc<dyn Transport> = Arc::new(net.clone());
        // B gossips to A; the server registers with B only. A must be able
        // to answer the query from its *own* registry (no widening: A has
        // no peers configured, so the answer can only come from gossip).
        let mut agent_a = AgentDaemon::start(
            Arc::clone(&transport),
            "agent-a",
            fast_gossip_core(60.0),
        )
        .unwrap();
        let mut agent_b =
            AgentDaemon::start(Arc::clone(&transport), "agent-b", fast_gossip_core(60.0)).unwrap();
        agent_b.set_peers(vec!["agent-a".into()]);

        let mut conn = net.connect("agent-b").unwrap();
        let reply = call(
            conn.as_mut(),
            &Message::RegisterServer(standard_descriptor("hb", "srvb", 150.0)),
            timeout(),
        )
        .unwrap();
        assert!(matches!(reply, Message::RegisterAck { accepted: true, .. }));

        wait_for("gossip to replicate srvb to agent-a", &|| {
            matches!(query_dgesv(&net, "agent-a"), Message::ServerList { .. })
        });
        match query_dgesv(&net, "agent-a") {
            Message::ServerList { candidates } => {
                assert_eq!(candidates[0].address, "srvb");
            }
            other => panic!("unexpected {other:?}"),
        }
        // The replica is marked with its origin, not adopted as local.
        let core = agent_a.core();
        let core = core.lock();
        let servers = core.registry().all_servers();
        assert_eq!(servers.len(), 1);
        assert_eq!(servers[0].origin.as_deref(), Some("agent-b"));
        drop(core);

        agent_a.stop();
        agent_b.stop();
    }

    #[test]
    fn dead_peer_is_down_marked_and_its_entries_expire() {
        let net = ChannelNetwork::new();
        let transport: Arc<dyn Transport> = Arc::new(net.clone());
        // Mutual federation; B owns the only server. Short TTL so B's
        // entries age out of A quickly once B stops vouching for them.
        let mut agent_a =
            AgentDaemon::start(Arc::clone(&transport), "agent-a", fast_gossip_core(0.3)).unwrap();
        agent_a.set_peers(vec!["agent-b".into()]);
        let mut agent_b =
            AgentDaemon::start(Arc::clone(&transport), "agent-b", fast_gossip_core(0.3)).unwrap();
        agent_b.set_peers(vec!["agent-a".into()]);

        let mut conn = net.connect("agent-b").unwrap();
        let reply = call(
            conn.as_mut(),
            &Message::RegisterServer(standard_descriptor("hb", "srvb", 150.0)),
            timeout(),
        )
        .unwrap();
        assert!(matches!(reply, Message::RegisterAck { accepted: true, .. }));
        wait_for("replication to agent-a", &|| {
            !agent_a.core().lock().registry().all_servers().is_empty()
        });

        // Kill B (a real stop: its listener drops and its gossip loop
        // dies, so it stops vouching for srvb). A must mark the peer down
        // and expire B's replica, so a query at A fails *fast* (widening
        // skips the dead peer) instead of returning a ghost server.
        agent_b.stop();
        let a_metrics = agent_a.core().lock().metrics();
        wait_for("peer down-mark at agent-a", &|| {
            a_metrics.snapshot("agent").counter("agent.peer_down_marks") >= 1
        });
        wait_for("ghost entries to expire at agent-a", &|| {
            agent_a.core().lock().registry().all_servers().is_empty()
        });
        assert!(matches!(query_dgesv(&net, "agent-a"), Message::Error { .. }));
        assert_eq!(a_metrics.snapshot("agent").gauge("agent.peers_up"), 0);

        // Restart B under the same name (the stop freed the listener) and
        // re-register the server with it: A re-admits the peer on its
        // next answered round and the replica comes back.
        let mut agent_b =
            AgentDaemon::start(Arc::clone(&transport), "agent-b", fast_gossip_core(0.3)).unwrap();
        agent_b.set_peers(vec!["agent-a".into()]);
        let mut conn = net.connect("agent-b").unwrap();
        let reply = call(
            conn.as_mut(),
            &Message::RegisterServer(standard_descriptor("hb", "srvb", 150.0)),
            timeout(),
        )
        .unwrap();
        assert!(matches!(reply, Message::RegisterAck { accepted: true, .. }));
        wait_for("peer recovery at agent-a", &|| {
            a_metrics.snapshot("agent").counter("agent.peer_recoveries") >= 1
        });
        wait_for("re-replication after recovery", &|| {
            matches!(query_dgesv(&net, "agent-a"), Message::ServerList { .. })
        });
        assert_eq!(a_metrics.snapshot("agent").gauge("agent.peers_up"), 1);

        agent_a.stop();
        agent_b.stop();
    }

    /// A listener that answers every message with `reply(message)` — a
    /// stand-in for a server.
    fn stub(net: &ChannelNetwork, name: &str, reply: fn(Message) -> Message) {
        let listener = net.listen(name).unwrap();
        std::thread::spawn(move || {
            while let Ok(mut conn) = listener.accept() {
                std::thread::spawn(move || {
                    while let Ok(msg) = conn.recv() {
                        if conn.send(&reply(msg)).is_err() {
                            return;
                        }
                    }
                });
            }
        });
    }

    fn unsupported() -> Message {
        Message::Error { code: 1, detail: "unknown message".into() }
    }

    /// A core whose own loops never run during a test: gossip and
    /// telemetry each wait 60 s of wall time, so the test thread drives
    /// the rounds itself.
    fn parked_core() -> AgentCore {
        use netsolve_core::config::{GossipPolicy, TelemetryPolicy};
        let config = AgentConfig {
            gossip: GossipPolicy { interval_secs: 60.0, ..GossipPolicy::default() },
            telemetry: TelemetryPolicy { tick_secs: 60.0 },
            ..AgentConfig::default()
        };
        let policy = crate::balance::Policy::MinimumCompletionTime;
        AgentCore::new(config, policy, netsolve_net::NetworkView::lan_defaults())
    }

    /// One `FleetStatsQuery` scrape of `agent`.
    fn scrape(net: &ChannelNetwork, agent: &str) -> Vec<netsolve_obs::StatsDigest> {
        let mut conn = net.connect(agent).unwrap();
        match call(conn.as_mut(), &Message::FleetStatsQuery, timeout()).unwrap() {
            Message::FleetStatsReply { digests } => digests,
            other => panic!("unexpected {other:?}"),
        }
    }

    /// The sampler stamps its samples on the daemon's clock, so a digest's
    /// rates are per second of that clock: on a virtual clock, five
    /// connections accepted between two ticks 10 s apart read 0.5 a second.
    #[test]
    fn a_digest_rates_events_per_second_of_the_daemons_clock() {
        let clock = VirtualClock::new();
        let net = ChannelNetwork::new().with_clock(Arc::new(clock.clone()));
        let mut agent = AgentDaemon::start(Arc::new(net.clone()), "agent", parked_core()).unwrap();
        let series = netsolve_obs::WindowedSeries::default();
        agent.shared.telemetry_round(&series);
        for _ in 0..5 {
            let mut conn = net.connect("agent").unwrap();
            assert_eq!(call(conn.as_mut(), &Message::Ping, timeout()).unwrap(), Message::Pong);
        }
        clock.advance(Duration::from_secs(10));
        agent.shared.telemetry_round(&series);
        let own = scrape(&net, "agent").into_iter().find(|d| d.origin == "agent").unwrap();
        assert_eq!((own.window_secs, own.rate("agent.accepts")), (10.0, 0.5));
        agent.stop();
    }

    /// How stale the fleet view runs, on a virtual schedule. Agent A runs
    /// its telemetry round (which scrapes its one server) every `tick` and
    /// its gossip round every `gossip`, each from its own phase, and B does
    /// the same; B is scraped every quarter second, before the rounds due
    /// at that instant. B's copy of A's digest, and of A's server's, was
    /// minted at A's last round before A's last gossip, so its age peaks
    /// just before a gossip round at `gossip + max over rounds j of
    /// ((gossip phase + j·gossip − tick phase) mod tick)`: at most
    /// `gossip + tick`, which is ≤ 2 gossip intervals while `tick ≤ gossip`.
    /// Every time is a multiple of a quarter second, so each age is exact.
    #[test]
    fn a_gossiped_digest_is_at_most_two_gossip_intervals_old() {
        use netsolve_obs::{StatsDigest, WindowedSeries};
        // (tick, gossip, tick phase, gossip phase) in quarter seconds, and
        // the worst age in seconds.
        let cases = [
            ((4, 8, 0, 0), 2.0),
            ((4, 8, 0, 1), 2.25),
            ((4, 8, 2, 1), 2.75),
            ((4, 10, 0, 1), 3.25),
            ((8, 8, 0, 7), 3.75),
            ((8, 8, 1, 0), 3.75),
        ];
        for ((tick, gossip, tick_phase, gossip_phase), worst) in cases {
            let clock = VirtualClock::new();
            let net = ChannelNetwork::new().with_clock(Arc::new(clock.clone()));
            stub(&net, "srv-a", |_| {
                let digest = StatsDigest { origin: "srv-a".into(), ..StatsDigest::default() };
                Message::FleetStatsReply { digests: vec![digest] }
            });
            let start = |name: &str, peer: &str| {
                let agent = AgentDaemon::start(Arc::new(net.clone()), name, parked_core()).unwrap();
                agent.set_peers(vec![peer.into()]);
                (agent, WindowedSeries::default())
            };
            let agents = [start("agent-a", "agent-b"), start("agent-b", "agent-a")];
            let register = Message::RegisterServer(standard_descriptor("srv-a", "srv-a", 100.0));
            let reply = call(net.connect("agent-a").unwrap().as_mut(), &register, timeout());
            assert!(matches!(reply, Ok(Message::RegisterAck { accepted: true, .. })));

            let due =
                |period: u32, phase: u32, q: u32| q >= phase && (q - phase).is_multiple_of(period);
            let mut seen = [0.0f64; 2];
            for q in 0..6 * gossip {
                for d in scrape(&net, "agent-b") {
                    if let Some(i) = ["agent-a", "srv-a"].iter().position(|o| *o == d.origin) {
                        seen[i] = seen[i].max(d.age_secs);
                    }
                }
                for (agent, series) in &agents {
                    if due(tick, tick_phase, q) {
                        agent.shared.telemetry_round(series);
                    }
                    if due(gossip, gossip_phase, q) {
                        agent.shared.gossip_round();
                    }
                }
                clock.advance(Duration::from_millis(250));
            }
            let case = (tick, gossip, tick_phase, gossip_phase);
            assert_eq!(seen, [worst; 2], "worst ages of agent-a and srv-a at agent-b, {case:?}");
            assert!(worst <= 2.0 * f64::from(gossip) / 4.0, "{case:?}");
        }
    }

    /// `docs/OBSERVABILITY.md` is the catalogue dashboards rely on: every
    /// `agent.*` instrument the declaration names and every `agent` span
    /// phase the code emits must be listed there, and nothing listed there
    /// may have stopped being declared or emitted. The span half drives a
    /// federated pair (plus a lone agent whose probes of a server that is
    /// not there miss until they mark it down) through registration,
    /// query, reports, probes, gossip both ways, and a dead and recovered
    /// peer.
    #[test]
    fn observability_doc_lists_exactly_the_names_the_agent_emits() {
        use crate::balance::Policy;
        use netsolve_core::config::TelemetryPolicy;
        use netsolve_net::NetworkView;
        use std::collections::BTreeSet;

        let net = ChannelNetwork::new();
        let transport: Arc<dyn Transport> = Arc::new(net.clone());
        let config = AgentConfig {
            telemetry: TelemetryPolicy { tick_secs: 0.02 },
            ..fast_gossip_config(0.3)
        };
        let start = |name: &str| {
            let policy = Policy::MinimumCompletionTime;
            let core = AgentCore::new(config.clone(), policy, NetworkView::lan_defaults());
            let daemon = AgentDaemon::start(Arc::clone(&transport), name, core).unwrap();
            let (metrics, tracer) = {
                let core = daemon.core();
                let core = core.lock();
                (core.metrics(), core.tracer())
            };
            (daemon, metrics, tracer)
        };
        let send = |agent: &str, msg: Message| {
            let mut conn = net.connect(agent).unwrap();
            call(conn.as_mut(), &msg, timeout()).unwrap()
        };
        let register = |agent: &str, address: &str| {
            let msg = Message::RegisterServer(standard_descriptor(address, address, 150.0));
            assert!(matches!(send(agent, msg), Message::RegisterAck { accepted: true, .. }));
        };
        let count = |metrics: &Arc<netsolve_obs::MetricsRegistry>, name: &str| {
            metrics.snapshot("agent").counter(name)
        };

        // Servers that refuse every message, a digest scrape included:
        // a reply all the same, so their probes succeed.
        for name in ["srv-a", "srv-b", "srv-quiet"] {
            stub(&net, name, |_| unsupported());
        }

        let (mut agent_a, a, a_tracer) = start("agent-a");
        let (mut agent_b, b, b_tracer) = start("agent-b");
        let (mut agent_c, c, c_tracer) = start("agent-c");
        agent_a.set_peers(vec!["agent-b".into()]);
        agent_b.set_peers(vec!["agent-a".into()]);

        // The lone agent: one server that answers its probes, one that is
        // not there at all and goes down by probes alone.
        register("agent-c", "srv-quiet");
        register("agent-c", "srv-gone");
        wait_for("probes at agent-c", &|| {
            ["agent.probe_successes", "agent.heartbeat_misses", "agent.fault_down_marks"]
                .iter()
                .all(|name| count(&c, name) >= 1)
        });

        // The pair: a server each; gossip and digests flow both ways.
        register("agent-a", "srv-a");
        register("agent-b", "srv-b");
        wait_for("gossip, digests and probes at agent-a", &|| {
            [
                "agent.gossip_sends",
                "agent.gossip_syncs_received",
                "agent.gossip_merges",
                "agent.digest_merges",
                "agent.probe_successes",
            ]
            .iter()
            .all(|name| count(&a, name) >= 1)
        });
        let mut conflicting = crate::core::AgentCore::with_defaults();
        conflicting.set_self_address("agent-x");
        let mut evil = standard_descriptor("hx", "srv-x", 10.0);
        evil.problems = vec!["dgesv".into()];
        evil.pdl_source = "@PROBLEM dgesv\n@DESCRIPTION \"fake\"\n@INPUT a : matrix\n\
            @INPUT b : vector\n@OUTPUT x : vector\n@COMPLEXITY 99 1\n@END\n"
            .into();
        conflicting.register_server(&evil, netsolve_core::clock::SimTime::ZERO).unwrap();
        let sync = Message::GossipSync {
            from_agent: "agent-x".into(),
            entries: conflicting.gossip_digest(netsolve_core::clock::SimTime::ZERO),
            digests: vec![],
        };
        assert!(matches!(send("agent-a", sync), Message::GossipAck { conflicts: 1, .. }));

        // Client traffic at agent-b.
        assert!(matches!(send("agent-b", query_dgesv_msg()), Message::ServerList { .. }));
        send("agent-b", Message::WorkloadReport { server_id: 1, workload: 10.0 });
        send(
            "agent-b",
            Message::CompletionReport {
                server_id: 99,
                server_address: "srv-b".into(),
                client_host: 0,
                problem: "dgesv".into(),
                total_secs: 0.02,
                compute_secs: 0.01,
                bytes: 1_000,
            },
        );
        for _ in 0..2 {
            send(
                "agent-b",
                Message::FailureReport {
                    server_id: 1,
                    server_address: String::new(),
                    problem: "dgesv".into(),
                    code: 3,
                    detail: "refused".into(),
                },
            );
        }
        assert_eq!(count(&b, "agent.failure_reports"), 2);
        assert_eq!(count(&b, "agent.fault_down_marks"), 1, "reports mark a probed server down");

        // A dead peer whose entries and digest expire, then its recovery.
        agent_b.stop();
        wait_for("dead peer at agent-a", &|| {
            [
                "agent.gossip_send_failures",
                "agent.peer_down_marks",
                "agent.gossip_expired",
                "agent.digest_expired",
            ]
            .iter()
            .all(|name| count(&a, name) >= 1)
        });
        let (mut agent_b2, _, b2_tracer) = start("agent-b");
        wait_for("peer recovery", &|| count(&a, "agent.peer_recoveries") >= 1);
        for agent in [&mut agent_a, &mut agent_b2, &mut agent_c] {
            agent.stop();
        }

        let declared: BTreeSet<String> =
            AgentInstruments::NAMES.iter().map(|n| n.to_string()).collect();
        let mut emitted_phases = BTreeSet::new();
        for tracer in [a_tracer, b_tracer, b2_tracer, c_tracer] {
            emitted_phases.extend(
                tracer.spans().iter().filter(|s| s.component == "agent").map(|s| s.phase),
            );
        }

        let doc = include_str!("../../../docs/OBSERVABILITY.md");
        // Backticked tokens are the odd segments of a split on '`'.
        let ticked = |text: &'static str| text.split('`').skip(1).step_by(2);
        let doc_metrics: BTreeSet<String> = ticked(doc)
            .filter(|t| {
                t.strip_prefix("agent.")
                    .is_some_and(|rest| rest.bytes().all(|b| b.is_ascii_lowercase() || b == b'_'))
            })
            .map(str::to_string)
            .collect();
        let span_names = doc.split("## Span names").nth(1).expect("doc has a span section");
        let agent_set = span_names
            .split("`agent` ×")
            .nth(1)
            .and_then(|rest| rest.split('}').next())
            .expect("span section lists the agent's phases in braces");
        let doc_phases: BTreeSet<&str> = ticked(agent_set).collect();

        assert_eq!(declared, doc_metrics, "agent.* instruments: declared vs documented");
        assert_eq!(emitted_phases, doc_phases, "agent span phases: emitted vs documented");
        // What the benchmark's attribution reads must survive any rename.
        assert!(emitted_phases.contains("score"), "attribution reads agent/score");
    }

    #[test]
    fn daemon_over_tcp() {
        let transport: Arc<dyn Transport> = Arc::new(netsolve_net::TcpTransport::new());
        let mut daemon = AgentDaemon::start(
            Arc::clone(&transport),
            "127.0.0.1:0",
            AgentCore::with_defaults(),
        )
        .unwrap();
        let mut conn = transport.connect(daemon.address()).unwrap();
        let reply = call(conn.as_mut(), &Message::ListProblems, timeout()).unwrap();
        assert!(matches!(reply, Message::ProblemCatalogue { .. }));
        daemon.stop();
    }
}
