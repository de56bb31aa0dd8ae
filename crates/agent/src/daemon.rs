//! The live agent daemon: an [`AgentCore`] served over a transport.
//!
//! Built on the [`netsolve_net::Daemon`] skeleton: its accept loop gives
//! each connection (up to [`AgentDaemon::MAX_CONNECTIONS`]) a handler
//! thread running a simple request/reply protocol (every incoming message
//! is answered), and the rounds below are its periodic workers. Works
//! identically over TCP and the in-process channel transport.
//!
//! The daemon also runs a heartbeat prober: every probe interval it dials
//! each registered server with a `Ping` and feeds the outcome into the
//! core's server table, so dead servers drop out of rankings even when no
//! client ever reports them, and recovered servers are re-admitted.
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
        let AgentConfig { heartbeat, gossip, telemetry, .. } = config;
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

        {
            let shared = Arc::clone(&shared);
            daemon.every(
                "agent-heartbeat",
                Duration::from_secs_f64(heartbeat.probe_interval_secs.max(0.001)),
                move || shared.heartbeat_round(),
            )?;
        }
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
        // scrapes locally-registered servers for their digests, and
        // expires dead peers' series — the state gossip replicates.
        {
            let shared = Arc::clone(&shared);
            let series = netsolve_obs::WindowedSeries::default();
            // Seed the series baseline now so events that land before the
            // first tick show up in the first tick's change instead of
            // vanishing into it.
            series.record(metrics.snapshot("agent"), netsolve_obs::unix_now_secs());
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

    /// Heartbeat round: dial each registered server with a `Ping`. A
    /// `Pong` within the probe timeout clears the server's fault record;
    /// the table counts the misses and force-marks it down at the
    /// policy's `miss_threshold`.
    fn heartbeat_round(&self) {
        let probe_timeout =
            Duration::from_secs_f64(self.config.heartbeat.probe_timeout_secs.max(0.001));
        let tracer = &self.tracer;
        let targets = self.core.lock().probe_targets(self.now());
        for (server, address) in targets {
            if self.stop.is_stopped() {
                return;
            }
            // Probe outside the core lock: a black-holed dial may block
            // for the full probe timeout. Heartbeats are traceless — no
            // request context exists (stitching skips trace 0).
            let probe_timer = tracer.start();
            let alive = matches!(
                self.call_once(&address, &Message::Ping, probe_timeout),
                Ok(Message::Pong)
            );
            tracer.record(
                netsolve_obs::SpanContext::NONE,
                probe_timer,
                "agent",
                "heartbeat",
                format!("server={} alive={alive}", server.raw()),
            );
            let mut core = self.core.lock();
            if alive {
                core.probe_succeeded(server);
            } else {
                core.probe_missed(server, self.now());
            }
        }
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

    /// Telemetry tick: (1) recount the pending assignments, so lapsed ones
    /// stop counting, snapshot the agent's metrics registry into its
    /// windowed series and fold the series into the digest store as this
    /// agent's own entry, (2) scrape every live locally-registered server
    /// with `FleetStatsQuery` and store its digest, (3) TTL-expire digests
    /// of daemons nobody has refreshed. Gossip then carries the whole
    /// store to peers, so one scrape of any agent returns the fleet's
    /// recent history.
    fn telemetry_round(&self, series: &netsolve_obs::WindowedSeries) {
        self.core.lock().refresh_pending_gauge(self.now());
        series.record(self.metrics.snapshot("agent"), netsolve_obs::unix_now_secs());
        let own = series.digest(&self.address, "agent");
        let targets = {
            let now = self.now();
            let mut core = self.core.lock();
            core.store_digest(own, now);
            core.expire_digests(now);
            core.local_server_addresses(now)
        };
        // Scrape outside the core lock — a wedged server may cost the
        // full call timeout, and queries must keep flowing meanwhile.
        for address in targets {
            if self.stop.is_stopped() {
                return;
            }
            match self.call_once(&address, &Message::FleetStatsQuery, Duration::from_secs(2)) {
                Ok(Message::FleetStatsReply { digests }) => {
                    let now = self.now();
                    let mut core = self.core.lock();
                    for digest in digests {
                        core.store_digest(digest, now);
                    }
                }
                _ => self.m.digest_scrape_failures.inc(),
            }
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

    #[test]
    fn heartbeat_marks_unresponsive_server_down_and_readmits_it() {
        use crate::balance::Policy;
        use netsolve_core::config::{AgentConfig, FaultPolicy, HeartbeatPolicy};
        use netsolve_net::NetworkView;
        use std::time::Instant;

        let net = ChannelNetwork::new();
        let chaos = Arc::new(ChaosTransport::new(Arc::new(net.clone()), ChaosPolicy::calm(), 0));
        let transport: Arc<dyn Transport> = chaos.clone();

        // A bare Ping/Pong responder standing in for a server daemon.
        let listener = net.listen("srv1").unwrap();
        std::thread::spawn(move || {
            while let Ok(mut conn) = listener.accept() {
                std::thread::spawn(move || {
                    while let Ok(msg) = conn.recv() {
                        let reply = match msg {
                            Message::Ping => Message::Pong,
                            other => panic!("probe sent {other:?}"),
                        };
                        if conn.send(&reply).is_err() {
                            return;
                        }
                    }
                });
            }
        });

        // Short cooldown so the half-open re-admission probe happens
        // within the test; fast probing so the whole cycle is quick.
        let config = AgentConfig {
            fault: FaultPolicy { failures_to_mark_down: 2, down_cooldown_secs: 0.2 },
            heartbeat: HeartbeatPolicy {
                probe_interval_secs: 0.03,
                miss_threshold: 2,
                probe_timeout_secs: 0.5,
            },
            ..AgentConfig::default()
        };
        let core = AgentCore::new(config, Policy::MinimumCompletionTime, NetworkView::lan_defaults());
        let mut daemon = AgentDaemon::start(Arc::clone(&transport), "agent", core).unwrap();
        // The daemon's own reading: fault state is kept in its seconds.
        let clock = Arc::clone(&daemon.shared);

        let mut conn = net.connect("agent").unwrap();
        let reply = call(
            conn.as_mut(),
            &Message::RegisterServer(standard_descriptor("h1", "srv1", 200.0)),
            timeout(),
        )
        .unwrap();
        assert!(matches!(reply, Message::RegisterAck { accepted: true, .. }));
        let sid = daemon.core().lock().registry().all_servers()[0].server_id;

        let wait_for = |what: &str, cond: &dyn Fn() -> bool| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !cond() {
                assert!(Instant::now() < deadline, "timed out waiting for {what}");
                std::thread::sleep(Duration::from_millis(5));
            }
        };

        // Healthy server: probes succeed, fault state stays clean.
        let core_handle = daemon.core();
        wait_for("first successful probe", &|| {
            core_handle.lock().probe_targets(clock.now()).len() == 1
                && !core_handle.lock().is_down(sid, clock.now())
        });

        // Kill the server: within probe_interval x miss_threshold (plus
        // slack) the heartbeat must mark it down without any client report.
        chaos.kill("srv1");
        wait_for("heartbeat down-mark", &|| core_handle.lock().is_down(sid, clock.now()));

        // While down and cooling, the prober leaves it alone.
        assert!(core_handle.lock().probe_targets(clock.now()).is_empty());

        // Revive it: the half-open probe after the cooldown re-admits it.
        chaos.revive("srv1");
        wait_for("re-admission after recovery", &|| {
            let now = clock.now();
            let core = core_handle.lock();
            !core.is_down(sid, now) && !core.registry().all_servers().is_empty()
        });
        // And it stays up: fault record was fully cleared by the probe.
        std::thread::sleep(Duration::from_millis(100));
        assert!(!core_handle.lock().is_down(sid, clock.now()));

        daemon.stop();
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
        use netsolve_core::clock::VirtualClock;
        use netsolve_core::config::TelemetryPolicy;
        let clock = VirtualClock::new();
        let net = ChannelNetwork::new().with_clock(Arc::new(clock.clone()));
        let telemetry = TelemetryPolicy { tick_secs: 0.01 };
        let config = AgentConfig { telemetry, ..AgentConfig::default() };
        let core = AgentCore::new(
            config,
            crate::balance::Policy::MinimumCompletionTime,
            netsolve_net::NetworkView::lan_defaults(),
        );
        let metrics = core.metrics();
        let pending = || metrics.snapshot("agent").gauge("agent.pending_assignments");
        let mut agent = AgentDaemon::start(Arc::new(net.clone()), "agent", core).unwrap();
        let send = |msg: Message| call(net.connect("agent").unwrap().as_mut(), &msg, timeout());
        let register = Message::RegisterServer(standard_descriptor("h", "srv", 100.0));
        assert!(matches!(send(register), Ok(Message::RegisterAck { accepted: true, .. })));
        assert!(matches!(send(query_dgesv_msg()), Ok(Message::ServerList { .. })));
        assert_eq!(pending(), 1, "the query's assignment");
        clock.advance(Duration::from_secs(301));
        wait_for("the lapsed assignment to stop counting", &|| pending() == 0);
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

    /// `docs/OBSERVABILITY.md` is the catalogue dashboards rely on: every
    /// `agent.*` instrument the declaration names and every `agent` span
    /// phase the code emits must be listed there, and nothing listed there
    /// may have stopped being declared or emitted. The span half drives a
    /// federated pair (plus a lone agent whose slow default heartbeat never
    /// marks a dead server down, so its telemetry scrapes keep failing)
    /// through registration, query, reports, a missed heartbeat, gossip
    /// both ways, and a dead and recovered peer.
    #[test]
    fn observability_doc_lists_exactly_the_names_the_agent_emits() {
        use crate::balance::Policy;
        use netsolve_core::config::{HeartbeatPolicy, TelemetryPolicy};
        use netsolve_net::NetworkView;
        use std::collections::BTreeSet;

        let net = ChannelNetwork::new();
        let chaos = Arc::new(ChaosTransport::new(Arc::new(net.clone()), ChaosPolicy::calm(), 0));
        let transport: Arc<dyn Transport> = chaos.clone();
        let config = |heartbeat: HeartbeatPolicy| AgentConfig {
            heartbeat,
            telemetry: TelemetryPolicy { tick_secs: 0.02 },
            ..fast_gossip_config(0.3)
        };
        let start = |name: &str, heartbeat: HeartbeatPolicy| {
            let core = AgentCore::new(
                config(heartbeat),
                Policy::MinimumCompletionTime,
                NetworkView::lan_defaults(),
            );
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

        // Servers that answer probes and refuse everything else, a digest
        // scrape included.
        let probe_only: fn(Message) -> Message = |msg| match msg {
            Message::Ping => Message::Pong,
            _ => unsupported(),
        };
        stub(&net, "srv-a", probe_only);
        stub(&net, "srv-quiet", probe_only);

        let fast = HeartbeatPolicy {
            probe_interval_secs: 0.03,
            miss_threshold: 2,
            probe_timeout_secs: 0.5,
        };
        let (mut agent_a, a, a_tracer) = start("agent-a", fast);
        let (mut agent_b, b, b_tracer) = start("agent-b", HeartbeatPolicy::default());
        let (mut agent_c, c, c_tracer) = start("agent-c", HeartbeatPolicy::default());
        agent_a.set_peers(vec!["agent-b".into()]);
        agent_b.set_peers(vec!["agent-a".into()]);

        // The lone agent: one server that refuses a digest scrape, one
        // that is not there at all. Both scrapes fail.
        register("agent-c", "srv-quiet");
        register("agent-c", "srv-gone");
        wait_for("failed scrapes", &|| count(&c, "agent.digest_scrape_failures") >= 2);

        // The pair: a server each; gossip and digests flow both ways, the
        // live server answers its probes.
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

        // Client traffic at agent-b, whose slow heartbeat cannot clear a
        // failure count between the two reports that mark srv-b down.
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
        assert_eq!(count(&b, "agent.fault_down_marks"), 1);

        // A missed heartbeat, then a dead peer whose entries and digest
        // expire, then its recovery.
        chaos.kill("srv-a");
        wait_for("heartbeat down-mark", &|| count(&a, "agent.heartbeat_down_marks") >= 1);
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
        let (mut agent_b2, _, b2_tracer) = start("agent-b", HeartbeatPolicy::default());
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
