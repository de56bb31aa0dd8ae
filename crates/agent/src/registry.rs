//! The agent's server table: everything the agent knows about each
//! server, in one entry behind one id and one address index.
//!
//! The paper's agent "keeps a database of computational servers"; this is
//! it. A [`ServerEntry`] carries what the server registered (address,
//! Mflop/s, problems), where the entry came from (direct registration or
//! federation gossip) and the dynamic state the scheduler ranks from: the
//! last workload report, the fault record, the heartbeat prober's miss
//! count and the assignments the agent has routed there but not yet seen
//! finish. The rules over that state are the entry's methods; they take
//! their thresholds from the policies in the one `AgentConfig`. Removing a
//! server is one removal, and nothing about a server the table does not
//! hold exists anywhere.
//!
//! Registration carries the server's catalogue as rendered PDL source; the
//! agent parses it, merges new problems into its domain-wide problem index
//! and checks that re-registrations of a known problem agree with the
//! existing signature (two servers advertising incompatible `dgesv`s would
//! corrupt every prediction).

use std::collections::{BTreeMap, HashMap, HashSet};

use netsolve_core::clock::SimTime;
use netsolve_core::config::{FaultPolicy, HeartbeatPolicy, WorkloadPolicy};
use netsolve_core::error::{NetSolveError, Result};
use netsolve_core::ids::{HostId, ServerId};
use netsolve_core::problem::ProblemSpec;
use netsolve_pdl::parse;
use netsolve_proto::{GossipEntry, ServerDescriptor};

/// How long an unconfirmed assignment keeps counting against a server.
/// Clients normally clear assignments promptly with `CompletionReport` /
/// `FailureReport`; the TTL only bounds the damage of a client that
/// vanished mid-request.
const PENDING_TTL_SECS: f64 = 300.0;

/// One server as the agent sees it: what it registered plus everything
/// the agent has learned about it since.
#[derive(Debug, Clone)]
pub struct ServerEntry {
    /// Identity assigned when the address was first seen; never reused.
    pub server_id: ServerId,
    /// Host identity (shared by servers on the same host name).
    pub host: HostId,
    /// Host name as reported.
    pub host_name: String,
    /// Connect address for clients — the table's second key.
    pub address: String,
    /// Benchmarked Mflop/s.
    pub mflops: f64,
    /// Problems this server advertises.
    pub problems: HashSet<String>,
    /// Where this entry came from: `None` means the server registered with
    /// this agent directly (authoritative — gossip can never override it);
    /// `Some(agent_address)` means it was learned through federation
    /// gossip and ages out unless peers keep re-confirming it.
    pub origin: Option<String>,
    /// Last time this entry was confirmed fresh. Direct registrations
    /// carry their registration time (their liveness is the heartbeat
    /// prober's job, not this field's); gossip entries carry the origin
    /// agent's last-heard time, reconstructed from the entry's wire age.
    pub refreshed: SimTime,
    /// The last workload report as received, and when.
    workload: f64,
    workload_at: SimTime,
    /// Failures reported since the last success.
    consecutive_failures: u32,
    /// When the server was marked down, if it is.
    down_since: Option<SimTime>,
    /// Heartbeat probes missed since the last answered one.
    probe_misses: u32,
    /// Assignment times of requests the agent has routed here but not yet
    /// seen complete or fail — NetSolve's defence against the herd effect:
    /// between two workload reports, the agent itself is the only one who
    /// knows it just sent a server three jobs.
    pending: Vec<SimTime>,
}

impl ServerEntry {
    /// Store a workload report received at `now`.
    pub(crate) fn record_workload(&mut self, workload: f64, now: SimTime) {
        self.workload = workload;
        self.workload_at = now;
    }

    /// The last reported workload as the agent trusts it at `now`: the
    /// report if it is fresh and finite — negative values clamped to zero,
    /// a confused server must not make itself infinitely attractive — the
    /// pessimistic stale value otherwise.
    pub fn reported_workload(&self, policy: &WorkloadPolicy, now: SimTime) -> f64 {
        if now.since(self.workload_at) <= policy.ttl_secs && self.workload.is_finite() {
            self.workload.max(0.0)
        } else {
            policy.stale_workload
        }
    }

    /// Unexpired pending assignments at `now`.
    pub fn pending_load(&self, now: SimTime) -> usize {
        self.pending.iter().filter(|t| now.since(**t) < PENDING_TTL_SECS).count()
    }

    /// The workload the balancer ranks with: the reported workload, aged
    /// by TTL, plus 100 % per request the agent itself routed here since.
    pub fn effective_workload(&self, policy: &WorkloadPolicy, now: SimTime) -> f64 {
        self.reported_workload(policy, now) + 100.0 * self.pending_load(now) as f64
    }

    /// Whether the server is excluded from rankings at `now`. After the
    /// cooldown expires it becomes eligible again (one probe or request
    /// will either succeed — clearing the record — or push it straight
    /// back down).
    pub fn is_down(&self, policy: &FaultPolicy, now: SimTime) -> bool {
        self.down_since.is_some_and(|since| now.since(since) < policy.down_cooldown_secs)
    }

    /// Whether a down server's cooldown has elapsed, making it half-open:
    /// it should receive a probe whose outcome either recovers it or
    /// pushes it straight back down. A server that was never marked down
    /// returns `false` — it needs no probe, it is taking live traffic.
    pub fn should_probe(&self, policy: &FaultPolicy, now: SimTime) -> bool {
        self.down_since.is_some_and(|since| now.since(since) >= policy.down_cooldown_secs)
    }

    /// Record a reported failure at `now`. Returns `true` if this report
    /// transitioned the server to down.
    pub(crate) fn record_failure(&mut self, policy: &FaultPolicy, now: SimTime) -> bool {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        let marks_down =
            self.down_since.is_none() && self.consecutive_failures >= policy.failures_to_mark_down;
        if marks_down {
            self.down_since = Some(now);
        }
        marks_down
    }

    /// Record a success: clears consecutive failures and any down mark.
    pub(crate) fn record_success(&mut self) {
        self.consecutive_failures = 0;
        self.down_since = None;
    }

    /// Record an answered heartbeat probe: a success that also resets the
    /// prober's miss count.
    pub(crate) fn probe_hit(&mut self) {
        self.probe_misses = 0;
        self.record_success();
    }

    /// Record a missed heartbeat probe at `now`. At the prober's own miss
    /// threshold the server is marked down immediately, bypassing the
    /// client-report failure threshold; returns whether it was. The miss
    /// count deliberately survives the down-mark, so the half-open probe
    /// after the cooldown sends the server straight back down on a single
    /// further miss.
    pub(crate) fn probe_miss(&mut self, policy: &HeartbeatPolicy, now: SimTime) -> bool {
        self.probe_misses = self.probe_misses.saturating_add(1);
        let exhausted = self.probe_misses >= policy.miss_threshold;
        if exhausted {
            self.down_since = Some(now);
        }
        exhausted
    }

    /// Count one more request routed here at `now`, dropping expired ones.
    pub(crate) fn note_assignment(&mut self, now: SimTime) {
        self.pending.retain(|t| now.since(*t) < PENDING_TTL_SECS);
        self.pending.push(now);
    }

    /// One routed request finished or failed. Oldest first: completions
    /// generally arrive in dispatch order.
    pub(crate) fn clear_one_pending(&mut self) {
        if !self.pending.is_empty() {
            self.pending.remove(0);
        }
    }
}

/// What merging one gossip entry did to the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeOutcome {
    /// A new remote registration was created.
    Merged(ServerId),
    /// An existing remote entry was re-confirmed with a fresher timestamp.
    Refreshed(ServerId),
    /// Nothing changed: we already hold a fresher view of this server, or
    /// it is registered here directly and the local view is authoritative.
    Stale,
}

/// The domain's server table and problem index.
#[derive(Debug, Default)]
pub struct ServerRegistry {
    /// Id-ordered, so every walk (ranking, listing, gossip, probing) is
    /// deterministic without a sort.
    servers: BTreeMap<ServerId, ServerEntry>,
    /// Address → id, maintained by the same insert and remove as
    /// `servers`. The address is the only server key that survives
    /// crossing agents — every agent mints its own `ServerId`s — and a
    /// restart: one row per address.
    by_address: HashMap<String, ServerId>,
    specs: HashMap<String, ProblemSpec>,
    hosts: HashMap<String, HostId>,
    next_server: u64,
    next_host: u64,
}

impl ServerRegistry {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a server from its wire descriptor at `now`. Validates:
    /// * Mflop/s is positive and finite;
    /// * the PDL parses and covers every advertised problem name;
    /// * re-advertised problems match the known signature exactly.
    ///
    /// A registration for an address the table already holds is that
    /// server restarted: it replaces the row in place — same id, the new
    /// descriptor, dynamic state reset, origin local even if the row was
    /// gossip-learned. A failed validation commits nothing. Returns the
    /// row's [`ServerId`].
    pub fn register_at(&mut self, desc: &ServerDescriptor, now: SimTime) -> Result<ServerId> {
        // A fresh server is assumed idle until its first report.
        self.admit(desc, None, 0.0, now)
    }

    fn admit(
        &mut self,
        desc: &ServerDescriptor,
        origin: Option<String>,
        workload: f64,
        now: SimTime,
    ) -> Result<ServerId> {
        // NaN falls to the is_finite arm.
        if desc.mflops <= 0.0 || !desc.mflops.is_finite() {
            return Err(NetSolveError::Registration(format!(
                "invalid performance {} Mflop/s",
                desc.mflops
            )));
        }
        if desc.problems.is_empty() {
            return Err(NetSolveError::Registration(
                "server advertises no problems".into(),
            ));
        }
        let parsed = parse(&desc.pdl_source)?;
        let parsed_by_name: HashMap<&str, &ProblemSpec> =
            parsed.iter().map(|p| (p.name.as_str(), p)).collect();
        for name in &desc.problems {
            let spec = parsed_by_name.get(name.as_str()).ok_or_else(|| {
                NetSolveError::Registration(format!(
                    "advertised problem '{name}' missing from PDL source"
                ))
            })?;
            if let Some(known) = self.specs.get(name) {
                if known != *spec {
                    return Err(NetSolveError::Registration(format!(
                        "problem '{name}' conflicts with an existing registration"
                    )));
                }
            }
        }
        // All validated: commit.
        for name in &desc.problems {
            let spec = parsed_by_name[name.as_str()];
            self.specs.entry(name.clone()).or_insert_with(|| spec.clone());
        }
        let host = *self.hosts.entry(desc.host.clone()).or_insert_with(|| {
            self.next_host += 1;
            HostId(self.next_host)
        });
        // Ids are never reused: a report or probe result in flight for a
        // removed server must not land on its successor.
        let server_id = *self.by_address.entry(desc.address.clone()).or_insert_with(|| {
            self.next_server += 1;
            ServerId(self.next_server)
        });
        self.servers.insert(
            server_id,
            ServerEntry {
                server_id,
                host,
                host_name: desc.host.clone(),
                address: desc.address.clone(),
                mflops: desc.mflops,
                problems: desc.problems.iter().cloned().collect(),
                origin,
                refreshed: now,
                workload,
                workload_at: now,
                consecutive_failures: 0,
                down_since: None,
                probe_misses: 0,
                pending: Vec::new(),
            },
        );
        Ok(server_id)
    }

    /// Merge one gossip-learned registration, fresh as of `refreshed`.
    /// The entry is keyed by its connect address. Rules, in order:
    ///
    /// * a direct (local) registration at that address is authoritative
    ///   and never overridden by gossip;
    /// * a known remote entry adopts the incoming view only if
    ///   `refreshed` is strictly fresher than what we hold (anti-entropy:
    ///   rounds can arrive through any peer path, in any order);
    /// * an unknown address is validated exactly like a direct
    ///   registration (PDL parse, catalogue-conflict check) and inserted
    ///   with the gossip origin recorded.
    ///
    /// An adopted view brings the origin's workload report with it.
    /// Catalogue conflicts surface as `Err` so the caller can count them.
    pub fn merge_remote(
        &mut self,
        entry: &GossipEntry,
        refreshed: SimTime,
    ) -> Result<MergeOutcome> {
        match self.id_by_address(&entry.address) {
            Some(id) => {
                let existing = self.servers.get_mut(&id).expect("the two indexes agree");
                if existing.origin.is_none()
                    || refreshed.as_secs() <= existing.refreshed.as_secs()
                {
                    return Ok(MergeOutcome::Stale);
                }
                existing.refreshed = refreshed;
                existing.origin = Some(entry.origin_agent.clone());
                existing.mflops = entry.mflops;
                existing.record_workload(entry.workload, refreshed);
                Ok(MergeOutcome::Refreshed(id))
            }
            None => {
                let desc = ServerDescriptor {
                    server_id: 0,
                    host: entry.host.clone(),
                    address: entry.address.clone(),
                    mflops: entry.mflops,
                    problems: entry.problems.clone(),
                    pdl_source: entry.pdl_source.clone(),
                };
                let origin = Some(entry.origin_agent.clone());
                self.admit(&desc, origin, entry.workload, refreshed).map(MergeOutcome::Merged)
            }
        }
    }

    /// Drop every gossip-learned entry whose freshness is older than
    /// `ttl_secs` — the mechanism by which a dead peer's servers age out
    /// of surviving agents instead of lingering as ghosts. Direct
    /// registrations are never expired here (the heartbeat prober owns
    /// their liveness). Returns the removed ids.
    pub fn expire_remote(&mut self, now: SimTime, ttl_secs: f64) -> Vec<ServerId> {
        // The whole of forgetting a server: its row, and the index entry
        // that pointed at it. Its problems stay in the domain index (other
        // servers may still serve them).
        self.servers
            .extract_if(.., |_, s| s.origin.is_some() && now.since(s.refreshed) > ttl_secs)
            .map(|(id, gone)| {
                self.by_address.remove(&gone.address);
                id
            })
            .collect()
    }

    /// Look up a server.
    pub fn get(&self, id: ServerId) -> Option<&ServerEntry> {
        self.servers.get(&id)
    }

    /// Look up a server to record an event on it.
    pub(crate) fn get_mut(&mut self, id: ServerId) -> Option<&mut ServerEntry> {
        self.servers.get_mut(&id)
    }

    /// The *local* id of the server listening on `address`, if known —
    /// how completion/failure reports from clients that failed over from
    /// another agent, and gossip from peers, find their row.
    pub fn id_by_address(&self, address: &str) -> Option<ServerId> {
        self.by_address.get(address).copied()
    }

    /// Servers advertising `problem`, in `ServerId` order (deterministic).
    pub fn servers_for<'a>(
        &'a self,
        problem: &'a str,
    ) -> impl Iterator<Item = &'a ServerEntry> + 'a {
        self.servers.values().filter(move |s| s.problems.contains(problem))
    }

    /// The domain-wide spec for a problem.
    pub fn spec(&self, problem: &str) -> Option<&ProblemSpec> {
        self.specs.get(problem)
    }

    /// Sorted names of every problem any server has ever advertised.
    pub fn problem_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.specs.keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of live servers.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// All live servers in id order.
    pub fn all_servers(&self) -> Vec<&ServerEntry> {
        self.servers.values().collect()
    }

    /// Pending assignments over all servers, expired or not — what the
    /// `agent.pending_assignments` gauge shows.
    pub fn pending_total(&self) -> usize {
        self.servers.values().map(|s| s.pending.len()).sum()
    }
}

/// Build the descriptor a standard-catalogue server would send, used by
/// tests and the simulator.
pub fn standard_descriptor(host: &str, address: &str, mflops: f64) -> ServerDescriptor {
    let specs = netsolve_pdl::standard_catalogue().expect("catalogue parses");
    let problems: Vec<String> = specs.iter().map(|p| p.name.clone()).collect();
    ServerDescriptor {
        server_id: 0,
        host: host.to_string(),
        address: address.to_string(),
        mflops,
        problems,
        pdl_source: netsolve_pdl::STANDARD_PDL.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::AgentCore;
    use netsolve_proto::{Message, QueryShape};
    use proptest::prelude::*;

    fn register(reg: &mut ServerRegistry, desc: &ServerDescriptor) -> Result<ServerId> {
        reg.register_at(desc, SimTime::ZERO)
    }

    #[test]
    fn register_standard_server() {
        let mut reg = ServerRegistry::new();
        let id = register(&mut reg, &standard_descriptor("hostA", "addr:1", 100.0)).unwrap();
        assert_eq!(reg.server_count(), 1);
        let s = reg.get(id).unwrap();
        assert_eq!(s.mflops, 100.0);
        assert!(s.problems.contains("dgesv"));
        assert!(reg.spec("dgesv").is_some());
        assert!(reg.problem_names().len() >= 16);
    }

    #[test]
    fn multiple_servers_same_host_share_host_id() {
        let mut reg = ServerRegistry::new();
        let a = register(&mut reg, &standard_descriptor("hostA", "a:1", 50.0)).unwrap();
        let b = register(&mut reg, &standard_descriptor("hostA", "a:2", 60.0)).unwrap();
        let c = register(&mut reg, &standard_descriptor("hostB", "b:1", 70.0)).unwrap();
        assert_eq!(reg.get(a).unwrap().host, reg.get(b).unwrap().host);
        assert_ne!(reg.get(a).unwrap().host, reg.get(c).unwrap().host);
    }

    #[test]
    fn servers_for_filters_and_orders() {
        let mut reg = ServerRegistry::new();
        let mut limited = standard_descriptor("h1", "a:1", 10.0);
        limited.problems = vec!["dgesv".into()];
        register(&mut reg, &limited).unwrap();
        register(&mut reg, &standard_descriptor("h2", "a:2", 20.0)).unwrap();
        assert_eq!(reg.servers_for("dgesv").count(), 2);
        assert_eq!(reg.servers_for("fft").count(), 1);
        assert_eq!(reg.servers_for("unknown").count(), 0);
        let ids: Vec<u64> = reg.servers_for("dgesv").map(|s| s.server_id.raw()).collect();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn invalid_registrations_rejected() {
        let mut reg = ServerRegistry::new();
        let mut bad = standard_descriptor("h", "a:1", 0.0);
        assert!(register(&mut reg, &bad).is_err(), "zero mflops");
        bad.mflops = f64::NAN;
        assert!(register(&mut reg, &bad).is_err(), "NaN mflops");

        let mut empty = standard_descriptor("h", "a:1", 10.0);
        empty.problems.clear();
        assert!(register(&mut reg, &empty).is_err(), "no problems");

        let mut phantom = standard_descriptor("h", "a:1", 10.0);
        phantom.problems.push("made_up".into());
        assert!(register(&mut reg, &phantom).is_err(), "problem not in PDL");

        let mut garbage = standard_descriptor("h", "a:1", 10.0);
        garbage.pdl_source = "@NOT A VALID FILE".into();
        assert!(register(&mut reg, &garbage).is_err(), "unparseable PDL");

        assert_eq!(reg.server_count(), 0, "failed registrations must not commit");
        assert_eq!(reg.id_by_address("a:1"), None, "nor index the address");
    }

    #[test]
    fn conflicting_spec_rejected() {
        let mut reg = ServerRegistry::new();
        register(&mut reg, &standard_descriptor("h1", "a:1", 10.0)).unwrap();
        // Second server advertises dgesv with a different complexity.
        let mut evil = standard_descriptor("h2", "a:2", 10.0);
        evil.problems = vec!["dgesv".into()];
        evil.pdl_source = "\
@PROBLEM dgesv\n@DESCRIPTION \"fake\"\n@INPUT a : matrix\n@INPUT b : vector\n\
@OUTPUT x : vector\n@COMPLEXITY 99 1\n@END\n"
            .into();
        match register(&mut reg, &evil) {
            Err(NetSolveError::Registration(m)) => assert!(m.contains("conflict"), "{m}"),
            other => panic!("expected conflict, got {other:?}"),
        }
    }

    #[test]
    fn identical_readvertisement_accepted() {
        let mut reg = ServerRegistry::new();
        register(&mut reg, &standard_descriptor("h1", "a:1", 10.0)).unwrap();
        register(&mut reg, &standard_descriptor("h2", "a:2", 20.0)).unwrap();
        assert_eq!(reg.server_count(), 2);
    }

    fn gossip_entry(origin: &str, host: &str, address: &str, mflops: f64) -> GossipEntry {
        let desc = standard_descriptor(host, address, mflops);
        GossipEntry {
            origin_agent: origin.into(),
            host: desc.host,
            address: desc.address,
            mflops: desc.mflops,
            problems: desc.problems,
            pdl_source: desc.pdl_source,
            workload: 0.0,
            age_secs: 0.0,
        }
    }

    #[test]
    fn merge_creates_refreshes_and_expires_remote_entries() {
        let mut reg = ServerRegistry::new();
        let e = gossip_entry("peer-a", "remoteH", "r:1", 80.0);
        let id = match reg.merge_remote(&e, SimTime::from_secs(1.0)).unwrap() {
            MergeOutcome::Merged(id) => id,
            other => panic!("expected merge, got {other:?}"),
        };
        assert_eq!(reg.get(id).unwrap().origin.as_deref(), Some("peer-a"));

        // Stale re-announcement (same or older freshness) changes nothing.
        assert_eq!(
            reg.merge_remote(&e, SimTime::from_secs(1.0)).unwrap(),
            MergeOutcome::Stale
        );
        assert_eq!(
            reg.merge_remote(&e, SimTime::from_secs(0.5)).unwrap(),
            MergeOutcome::Stale
        );

        // A fresher view (possibly via a different peer path) refreshes,
        // and brings the origin's workload report with it.
        let mut via_b = e.clone();
        via_b.origin_agent = "peer-b".into();
        via_b.workload = 35.0;
        assert_eq!(
            reg.merge_remote(&via_b, SimTime::from_secs(5.0)).unwrap(),
            MergeOutcome::Refreshed(id)
        );
        assert_eq!(reg.get(id).unwrap().origin.as_deref(), Some("peer-b"));
        assert_eq!(reg.get(id).unwrap().reported_workload(&policy(), SimTime::from_secs(5.0)), 35.0);

        // Unrefreshed remote entries expire after the TTL; fresh ones stay.
        assert!(reg.expire_remote(SimTime::from_secs(30.0), 60.0).is_empty());
        assert_eq!(reg.expire_remote(SimTime::from_secs(66.0), 60.0), vec![id]);
        assert_eq!(reg.server_count(), 0);
        assert_eq!(reg.id_by_address("r:1"), None, "one removal drops both indexes");
        assert!(reg.spec("dgesv").is_some(), "spec survives for future servers");
    }

    #[test]
    fn local_registration_is_authoritative_over_gossip() {
        let mut reg = ServerRegistry::new();
        let id = register(&mut reg, &standard_descriptor("h", "srv:1", 100.0)).unwrap();
        let e = gossip_entry("peer-a", "h", "srv:1", 999.0);
        assert_eq!(
            reg.merge_remote(&e, SimTime::from_secs(50.0)).unwrap(),
            MergeOutcome::Stale
        );
        let s = reg.get(id).unwrap();
        assert_eq!(s.mflops, 100.0, "gossip must not override local facts");
        assert!(s.origin.is_none());
        // Direct registrations never expire via the gossip TTL.
        assert!(reg.expire_remote(SimTime::from_secs(1e6), 60.0).is_empty());
        assert_eq!(reg.server_count(), 1);
    }

    /// Regression (a restarted server used to become two servers): a
    /// direct registration at an address learned through gossip promotes
    /// that row instead of minting a second one.
    #[test]
    fn direct_registration_promotes_a_gossip_learned_row() {
        let mut reg = ServerRegistry::new();
        let e = gossip_entry("peer-a", "h", "srv:1", 80.0);
        let MergeOutcome::Merged(id) = reg.merge_remote(&e, SimTime::from_secs(1.0)).unwrap()
        else {
            panic!("expected merge");
        };
        let again = reg
            .register_at(&standard_descriptor("h", "srv:1", 120.0), SimTime::from_secs(2.0))
            .unwrap();
        assert_eq!(again, id, "the address keeps its row and id");
        assert_eq!(reg.server_count(), 1);
        let s = reg.get(id).unwrap();
        assert_eq!((s.origin.as_deref(), s.mflops), (None, 120.0));
        // Now local: gossip no longer touches it and the TTL never expires it.
        assert_eq!(
            reg.merge_remote(&e, SimTime::from_secs(50.0)).unwrap(),
            MergeOutcome::Stale
        );
        assert!(reg.expire_remote(SimTime::from_secs(1e6), 60.0).is_empty());
    }

    #[test]
    fn conflicting_gossip_catalogue_rejected() {
        let mut reg = ServerRegistry::new();
        register(&mut reg, &standard_descriptor("h1", "a:1", 10.0)).unwrap();
        let mut evil = gossip_entry("peer-x", "h2", "a:2", 10.0);
        evil.problems = vec!["dgesv".into()];
        evil.pdl_source = "\
@PROBLEM dgesv\n@DESCRIPTION \"fake\"\n@INPUT a : matrix\n@INPUT b : vector\n\
@OUTPUT x : vector\n@COMPLEXITY 99 1\n@END\n"
            .into();
        assert!(reg.merge_remote(&evil, SimTime::from_secs(1.0)).is_err());
        assert_eq!(reg.server_count(), 1, "conflicting entry must not commit");
    }

    // ---- the workload rules (were workload.rs) ----

    fn policy() -> WorkloadPolicy {
        WorkloadPolicy {
            report_interval_secs: 10.0,
            report_threshold: 10.0,
            ttl_secs: 60.0,
            stale_workload: 100.0,
        }
    }

    /// A table holding one server, registered at t = 0, and its id.
    fn one_server() -> (ServerRegistry, ServerId) {
        let mut reg = ServerRegistry::new();
        let id = register(&mut reg, &standard_descriptor("h", "a:1", 100.0)).unwrap();
        (reg, id)
    }

    #[test]
    fn fresh_report_is_used() {
        let (mut reg, id) = one_server();
        let s = reg.get_mut(id).unwrap();
        s.record_workload(42.0, SimTime::from_secs(100.0));
        assert_eq!(s.reported_workload(&policy(), SimTime::from_secs(130.0)), 42.0);
    }

    #[test]
    fn stale_report_falls_back_to_pessimistic() {
        let (mut reg, id) = one_server();
        let s = reg.get_mut(id).unwrap();
        s.record_workload(5.0, SimTime::from_secs(0.0));
        assert_eq!(s.reported_workload(&policy(), SimTime::from_secs(61.0)), 100.0);
        // exactly at the TTL boundary it is still fresh
        assert_eq!(s.reported_workload(&policy(), SimTime::from_secs(60.0)), 5.0);
    }

    #[test]
    fn silent_server_is_idle_then_pessimistic() {
        // A fresh registration is assumed idle; one that never reports
        // ages to the stale value like any other report.
        let (reg, id) = one_server();
        let s = reg.get(id).unwrap();
        assert_eq!(s.reported_workload(&policy(), SimTime::ZERO), 0.0);
        assert_eq!(s.reported_workload(&policy(), SimTime::from_secs(61.0)), 100.0);
    }

    #[test]
    fn newer_report_replaces_older() {
        let (mut reg, id) = one_server();
        let s = reg.get_mut(id).unwrap();
        s.record_workload(80.0, SimTime::from_secs(0.0));
        s.record_workload(10.0, SimTime::from_secs(30.0));
        assert_eq!(s.reported_workload(&policy(), SimTime::from_secs(40.0)), 10.0);
    }

    #[test]
    fn bogus_workloads_sanitized() {
        let (mut reg, id) = one_server();
        let s = reg.get_mut(id).unwrap();
        s.record_workload(-50.0, SimTime::ZERO);
        assert_eq!(s.reported_workload(&policy(), SimTime::ZERO), 0.0);
        s.record_workload(f64::NAN, SimTime::ZERO);
        assert_eq!(s.reported_workload(&policy(), SimTime::ZERO), 100.0);
    }

    #[test]
    fn pending_assignments_add_a_full_load_each_until_they_expire() {
        let (mut reg, id) = one_server();
        let s = reg.get_mut(id).unwrap();
        s.record_workload(20.0, SimTime::ZERO);
        s.note_assignment(SimTime::ZERO);
        s.note_assignment(SimTime::from_secs(10.0));
        assert_eq!(s.effective_workload(&policy(), SimTime::from_secs(10.0)), 220.0);
        // Oldest first; an empty list stays empty.
        s.clear_one_pending();
        assert_eq!(s.pending_load(SimTime::from_secs(10.0)), 1);
        assert_eq!(s.pending_load(SimTime::from_secs(309.0)), 1);
        assert_eq!(s.pending_load(SimTime::from_secs(310.0)), 0, "TTL counts from t=10");
        s.clear_one_pending();
        s.clear_one_pending();
        assert_eq!(reg.pending_total(), 0);
    }

    // ---- the fault rules (were fault.rs) ----

    const FAULT: FaultPolicy = FaultPolicy { failures_to_mark_down: 2, down_cooldown_secs: 60.0 };
    const HEARTBEAT: HeartbeatPolicy =
        HeartbeatPolicy { probe_interval_secs: 15.0, miss_threshold: 1, probe_timeout_secs: 2.0 };

    #[test]
    fn fresh_server_is_up() {
        let (reg, id) = one_server();
        assert!(!reg.get(id).unwrap().is_down(&FAULT, SimTime::ZERO));
    }

    #[test]
    fn marks_down_after_threshold() {
        let (mut reg, id) = one_server();
        let s = reg.get_mut(id).unwrap();
        let now = SimTime::ZERO;
        assert!(!s.record_failure(&FAULT, now), "first failure not enough");
        assert!(!s.is_down(&FAULT, now));
        assert!(s.record_failure(&FAULT, now), "second failure marks down");
        assert!(s.is_down(&FAULT, now));
        // further failures don't re-transition
        assert!(!s.record_failure(&FAULT, now));
    }

    #[test]
    fn success_resets_consecutive_count() {
        let (mut reg, id) = one_server();
        let s = reg.get_mut(id).unwrap();
        s.record_failure(&FAULT, SimTime::ZERO);
        s.record_success();
        assert!(!s.record_failure(&FAULT, SimTime::ZERO), "count restarted");
        assert!(!s.is_down(&FAULT, SimTime::ZERO));
    }

    #[test]
    fn cooldown_expires() {
        let (mut reg, id) = one_server();
        let s = reg.get_mut(id).unwrap();
        s.record_failure(&FAULT, SimTime::ZERO);
        s.record_failure(&FAULT, SimTime::ZERO);
        assert!(s.is_down(&FAULT, SimTime::from_secs(59.0)));
        assert!(!s.is_down(&FAULT, SimTime::from_secs(60.0)), "cooldown over");
    }

    #[test]
    fn success_clears_down_mark() {
        let (mut reg, id) = one_server();
        let s = reg.get_mut(id).unwrap();
        s.record_failure(&FAULT, SimTime::ZERO);
        s.record_failure(&FAULT, SimTime::ZERO);
        assert!(s.is_down(&FAULT, SimTime::ZERO));
        s.record_success();
        assert!(!s.is_down(&FAULT, SimTime::ZERO));
    }

    #[test]
    fn re_registration_erases_history() {
        let (mut reg, id) = one_server();
        let s = reg.get_mut(id).unwrap();
        s.record_failure(&FAULT, SimTime::ZERO);
        s.record_failure(&FAULT, SimTime::ZERO);
        s.probe_miss(&HEARTBEAT, SimTime::ZERO);
        s.record_workload(70.0, SimTime::ZERO);
        s.note_assignment(SimTime::ZERO);
        let now = SimTime::from_secs(1.0);
        assert_eq!(reg.register_at(&standard_descriptor("h", "a:1", 100.0), now), Ok(id));
        let s = reg.get_mut(id).unwrap();
        assert!(!s.is_down(&FAULT, now));
        assert_eq!(s.effective_workload(&policy(), now), 0.0, "idle, nothing pending");
        // Neither the failure count nor the probe misses carried over.
        assert!(!s.record_failure(&FAULT, now));
        let two_misses = HeartbeatPolicy { miss_threshold: 2, ..HEARTBEAT };
        assert!(!s.probe_miss(&two_misses, now));
    }

    #[test]
    fn half_open_lifecycle_down_cooldown_probe_recovered() {
        let (mut reg, id) = one_server();
        let s = reg.get_mut(id).unwrap();
        // Healthy: no probing needed.
        assert!(!s.should_probe(&FAULT, SimTime::ZERO));

        // Down (via the probe path: the prober's own threshold, not the
        // client-report one).
        assert!(s.probe_miss(&HEARTBEAT, SimTime::ZERO));
        assert!(s.is_down(&FAULT, SimTime::ZERO));
        assert!(!s.should_probe(&FAULT, SimTime::ZERO), "still cooling down");
        assert!(!s.should_probe(&FAULT, SimTime::from_secs(59.0)));

        // Cooldown elapsed: half-open — excluded no longer, probe due.
        let probe_time = SimTime::from_secs(60.0);
        assert!(!s.is_down(&FAULT, probe_time));
        assert!(s.should_probe(&FAULT, probe_time));

        // Failed probe pushes it straight back down; a fresh cooldown runs.
        assert!(s.probe_miss(&HEARTBEAT, probe_time));
        assert!(s.is_down(&FAULT, SimTime::from_secs(119.0)));
        assert!(s.should_probe(&FAULT, SimTime::from_secs(120.0)));

        // Successful probe recovers it fully.
        s.probe_hit();
        assert!(!s.is_down(&FAULT, SimTime::from_secs(120.0)));
        assert!(!s.should_probe(&FAULT, SimTime::from_secs(1000.0)));
    }

    #[test]
    fn probe_misses_survive_the_down_mark_and_a_client_success() {
        let (mut reg, id) = one_server();
        let s = reg.get_mut(id).unwrap();
        let two_misses = HeartbeatPolicy { miss_threshold: 2, ..HEARTBEAT };
        assert!(!s.probe_miss(&two_misses, SimTime::ZERO), "one miss is not enough");
        assert!(s.probe_miss(&two_misses, SimTime::ZERO));
        // A client success re-admits the server but is not a probe answer:
        // the half-open probe after it needs a single further miss.
        s.record_success();
        assert!(!s.is_down(&FAULT, SimTime::ZERO));
        assert!(s.probe_miss(&two_misses, SimTime::from_secs(60.0)));
        // Only an answered probe resets the count.
        s.probe_hit();
        assert!(!s.probe_miss(&two_misses, SimTime::from_secs(61.0)));
    }

    /// One step of the model test below: `(kind, slot, id, x)`. `slot`
    /// picks one of six addresses, `id` a raw server id that may or may
    /// not exist, `x` a workload, an age or a time step.
    fn apply(agent: &mut AgentCore, (kind, slot, id, x): (u8, usize, u64, f64), now: &mut SimTime) {
        let address = format!("srv{slot}");
        match kind {
            0 => drop(agent.register_server(&standard_descriptor("h", &address, 50.0 + x), *now)),
            1 => drop(agent.register_server(&standard_descriptor("h", &address, -x), *now)),
            2 => {
                let mut entry = gossip_entry(&format!("peer{}", id % 2), "rh", &address, 80.0);
                (entry.workload, entry.age_secs) = (x, x / 4.0);
                agent.merge_gossip(&[entry], *now);
            }
            3 => drop(agent.expire_gossip(*now)),
            4 => agent.workload_report(ServerId(id), x - 50.0, *now),
            5 => drop(agent.failure_report(ServerId(id), *now)),
            6 => agent.success_report(ServerId(id)),
            7 => drop(agent.handle_message(
                &Message::FailureReport {
                    server_id: id,
                    server_address: address,
                    problem: "dgesv".into(),
                    code: 3,
                    detail: String::new(),
                },
                *now,
            )),
            8 => agent.probe_succeeded(ServerId(id)),
            9 => agent.probe_missed(ServerId(id), *now),
            10 => *now = now.plus(x),
            _ => {} // a query: every step ends with one
        }
    }

    fn pending_gauge(agent: &AgentCore) -> i64 {
        agent.metrics().gauge("agent.pending_assignments").get()
    }

    proptest! {
        /// Whatever registrations, gossip, reports, probes and queries
        /// arrive in whatever order, the table stays one table: the two
        /// indexes agree, an address has one row, ids only grow, nothing
        /// is observable about an id the table does not hold, a ranking
        /// never repeats an address or names a down server, and the
        /// pending gauge is the sum of the rows' pending lists.
        #[test]
        fn the_table_stays_one_table(
            steps in prop::collection::vec((0u8..12, 0usize..6, 0u64..10, 0.0..300.0f64), 1..80),
        ) {
            let mut agent = AgentCore::with_defaults();
            let mut now = SimTime::ZERO;
            let mut highest_id = 0u64;
            let mut last_id_at: HashMap<String, u64> = HashMap::new();
            for step in steps {
                apply(&mut agent, step, &mut now);
                prop_assert_eq!(pending_gauge(&agent), agent.registry().pending_total() as i64);
                let ranking = agent.query(
                    &QueryShape {
                        client_host: 0,
                        problem: "dgesv".into(),
                        n: 100,
                        bytes_in: 80_000,
                        bytes_out: 800,
                        trace_id: 0,
                        parent_span: 0,
                    },
                    now,
                );

                let reg = agent.registry();
                prop_assert_eq!(reg.by_address.len(), reg.servers.len());
                let ids: Vec<u64> = reg.all_servers().iter().map(|s| s.server_id.raw()).collect();
                prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "id order: {:?}", ids);
                for (id, s) in &reg.servers {
                    prop_assert_eq!(s.server_id, *id);
                    prop_assert_eq!(reg.id_by_address(&s.address), Some(*id));
                    // A row is either the one this address had last step,
                    // or one minted after every id ever seen.
                    if last_id_at.get(&s.address) != Some(&id.raw()) {
                        prop_assert!(id.raw() > highest_id, "id {} reused", id.raw());
                    }
                }
                highest_id = highest_id.max(ids.last().copied().unwrap_or(0));
                last_id_at =
                    reg.servers.values().map(|s| (s.address.clone(), s.server_id.raw())).collect();

                for ghost in (0..12).map(ServerId).filter(|id| reg.get(*id).is_none()) {
                    prop_assert!(!agent.is_down(ghost, now));
                    prop_assert_eq!(agent.pending_load(ghost, now), 0);
                }
                let candidates = ranking.unwrap_or_default();
                let addresses: HashSet<&str> =
                    candidates.iter().map(|c| c.address.as_str()).collect();
                prop_assert_eq!(addresses.len(), candidates.len());
                for c in &candidates {
                    prop_assert!(!agent.is_down(ServerId(c.server_id), now));
                    prop_assert_eq!(reg.id_by_address(&c.address), Some(ServerId(c.server_id)));
                }
                let pending: usize = reg.servers.values().map(|s| s.pending.len()).sum();
                prop_assert_eq!(pending_gauge(&agent), pending as i64);
            }
        }
    }

    #[test]
    fn servers_tracked_independently() {
        let mut reg = ServerRegistry::new();
        let a = register(&mut reg, &standard_descriptor("h", "a:1", 10.0)).unwrap();
        let b = register(&mut reg, &standard_descriptor("h", "a:2", 10.0)).unwrap();
        let s = reg.get_mut(a).unwrap();
        s.record_failure(&FAULT, SimTime::ZERO);
        s.record_failure(&FAULT, SimTime::ZERO);
        assert!(reg.get(a).unwrap().is_down(&FAULT, SimTime::ZERO));
        assert!(!reg.get(b).unwrap().is_down(&FAULT, SimTime::ZERO));
    }
}
