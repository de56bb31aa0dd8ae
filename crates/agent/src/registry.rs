//! The agent's server table: everything the agent knows about each
//! server, in one entry behind one id and one address index.
//!
//! The paper's agent "keeps a database of computational servers"; this is
//! it. A [`ServerEntry`] carries what the server registered (address,
//! Mflop/s, problems), where the entry came from (direct registration or
//! federation gossip) and the dynamic state the scheduler ranks from: the
//! last workload report, the fault record and the assignments the agent
//! has routed there but not yet seen finish. The rules over that state
//! are the entry's methods; they take their thresholds from the policies
//! in the one `AgentConfig`. Removing a server is one removal, and
//! nothing about a server the table does not hold exists anywhere.
//!
//! Registration carries the server's catalogue as rendered PDL source; the
//! agent parses it, merges new problems into its domain-wide problem index
//! and checks that re-registrations of a known problem agree with the
//! existing signature (two servers advertising incompatible `dgesv`s would
//! corrupt every prediction).

use std::collections::{BTreeMap, HashMap, HashSet};

use netsolve_core::clock::SimTime;
use netsolve_core::config::{FaultPolicy, WorkloadPolicy};
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

/// Workload assumed for a server whose report has gone stale: a fully
/// loaded server, so the balancer deprioritizes silent servers.
const STALE_WORKLOAD: f64 = 100.0;

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
    /// carry their registration time (their liveness is the telemetry
    /// probe's job, not this field's); gossip entries carry the origin
    /// agent's last-heard time, reconstructed from the entry's wire age.
    pub refreshed: SimTime,
    /// The last workload report as received, and when.
    workload: f64,
    workload_at: SimTime,
    /// Failures, reported or probed, since the last success.
    consecutive_failures: u32,
    /// How many of those failures were unanswered probes: the part an
    /// answered probe takes back.
    probed_failures: u32,
    /// When the server was last marked down, if no success has come since.
    down_since: Option<SimTime>,
    /// When each assignment the agent routed here, and has not yet seen
    /// complete or fail, stops counting — NetSolve's defence against the
    /// herd effect: between two workload reports, the agent itself is the
    /// only one who knows it just sent a server three jobs.
    pending: Vec<SimTime>,
    /// When each shed request stops counting: its retry hint. A hold
    /// weighs like an assignment but is no request in flight, so no
    /// completion or failure report ever clears one; it only lapses.
    /// Sorted, so counting the live ones is a binary search: a burst
    /// past a full queue leaves thousands. Lapsed ones go when the next
    /// shed lands.
    holds: Vec<SimTime>,
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
            STALE_WORKLOAD
        }
    }

    /// Assignments routed here that are unexpired at `now`.
    fn live_pending(&self, now: SimTime) -> usize {
        self.pending.iter().filter(|until| now < **until).count()
    }

    /// Unexpired pending assignments and shed holds at `now`.
    pub fn pending_load(&self, now: SimTime) -> usize {
        let live_holds = self.holds.len() - self.holds.partition_point(|until| *until <= now);
        self.live_pending(now) + live_holds
    }

    /// The workload the balancer ranks with: the reported workload, aged
    /// by TTL, plus 100 % per request the agent itself routed here since.
    pub fn effective_workload(&self, policy: &WorkloadPolicy, now: SimTime) -> f64 {
        self.reported_workload(policy, now) + 100.0 * self.pending_load(now) as f64
    }

    /// Whether the server is excluded from rankings at `now`. After the
    /// cooldown expires it is half-open: eligible again, and the next
    /// request either succeeds, clearing the record, or fails and pushes
    /// it straight back down.
    pub fn is_down(&self, policy: &FaultPolicy, now: SimTime) -> bool {
        self.down_since.is_some_and(|since| now.since(since) < policy.down_cooldown_secs)
    }

    /// Record a failure, reported or probed, at `now`. A server not down
    /// is marked down at the policy's threshold of consecutive failures;
    /// a half-open one has reached it already, so one failure marks it
    /// down again. Returns whether this failure marked it down.
    pub(crate) fn record_failure(&mut self, policy: &FaultPolicy, now: SimTime) -> bool {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        let marks_down =
            !self.is_down(policy, now) && self.consecutive_failures >= policy.failures_to_mark_down;
        if marks_down {
            self.down_since = Some(now);
        }
        marks_down
    }

    /// Record a success: clears consecutive failures and any down mark.
    pub(crate) fn record_success(&mut self) {
        self.consecutive_failures = 0;
        self.probed_failures = 0;
        self.down_since = None;
    }

    /// Record at `now` a probe that got no reply: a failure like a
    /// reported one. Returns whether it marked the server down.
    pub(crate) fn probe_unanswered(&mut self, policy: &FaultPolicy, now: SimTime) -> bool {
        self.probed_failures = self.probed_failures.saturating_add(1);
        self.record_failure(policy, now)
    }

    /// Record an answered probe. It shows that the agent reaches the
    /// server, not that the server serves its clients, so it takes back
    /// only the failures probes made. A server whose remaining failures
    /// are under the threshold is re-admitted at once, down or not; one
    /// that client reports marked down stays down for its cooldown.
    pub(crate) fn probe_answered(&mut self, policy: &FaultPolicy) {
        self.consecutive_failures = self.consecutive_failures.saturating_sub(self.probed_failures);
        self.probed_failures = 0;
        if self.consecutive_failures < policy.failures_to_mark_down {
            self.down_since = None;
        }
    }

    /// Count one more request routed here at `now`, dropping expired ones.
    pub(crate) fn note_assignment(&mut self, now: SimTime) {
        self.pending.retain(|until| now < *until);
        self.pending.push(now.plus(PENDING_TTL_SECS));
    }

    /// One routed request finished or failed: its assignment goes, oldest
    /// first, since completions generally arrive in dispatch order.
    pub(crate) fn settle_one_pending(&mut self) {
        if !self.pending.is_empty() {
            self.pending.remove(0);
        }
    }

    /// One routed request was shed at `now`: its assignment goes, and
    /// the server weighs one assignment more until the retry hint
    /// passes. The hint comes off the wire, so it is held no longer than
    /// an assignment's TTL.
    pub(crate) fn hold_after_shed(&mut self, retry_after_ms: u64, now: SimTime) {
        if !self.pending.is_empty() {
            self.pending.remove(0);
            self.holds.drain(..self.holds.partition_point(|held| *held <= now));
            let until = now.plus((retry_after_ms as f64 / 1e3).min(PENDING_TTL_SECS));
            self.holds.insert(self.holds.partition_point(|held| *held <= until), until);
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
                probed_failures: 0,
                down_since: None,
                pending: Vec::new(),
                holds: Vec::new(),
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
    /// registrations are never expired here (the telemetry probe owns
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

    /// Pending assignments over all servers unexpired at `now` — what the
    /// `agent.pending_assignments` gauge shows. Shed holds are not
    /// requests in flight and are not counted.
    pub fn pending_total(&self, now: SimTime) -> usize {
        self.servers.values().map(|s| s.live_pending(now)).sum()
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
    use netsolve_core::rng::cases;
    use netsolve_core::ErrorClass;
    use netsolve_proto::{Message, QueryShape};

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
        s.settle_one_pending();
        assert_eq!(s.pending_load(SimTime::from_secs(10.0)), 1);
        assert_eq!(s.pending_load(SimTime::from_secs(309.0)), 1);
        assert_eq!(s.pending_load(SimTime::from_secs(310.0)), 0, "TTL counts from t=10");
        s.settle_one_pending();
        s.settle_one_pending();
        assert_eq!(reg.pending_total(SimTime::ZERO), 0);
    }

    #[test]
    fn each_shed_hold_counts_until_its_own_hint_passes() {
        let (mut reg, id) = one_server();
        let s = reg.get_mut(id).unwrap();
        let at = SimTime::from_secs;
        for _ in 0..3 {
            s.note_assignment(at(0.0));
        }
        // Hints out of order: 200 ms, 50 ms, 100 ms.
        s.hold_after_shed(200, at(0.0));
        s.hold_after_shed(50, at(0.0));
        s.hold_after_shed(100, at(0.01));
        assert_eq!(s.pending_load(at(0.01)), 3, "three holds, no assignment");
        assert_eq!(s.pending_load(at(0.05)), 2);
        assert_eq!(s.pending_load(at(0.11)), 1);
        assert_eq!(s.pending_load(at(0.2)), 0);
        // A shed with no assignment to clear holds nothing.
        s.hold_after_shed(100, at(0.2));
        assert_eq!(s.pending_load(at(0.2)), 0);
        assert_eq!(reg.pending_total(SimTime::ZERO), 0);
    }

    // ---- the fault rules (were fault.rs) ----

    const FAULT: FaultPolicy = FaultPolicy { failures_to_mark_down: 2, down_cooldown_secs: 60.0 };

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
        s.record_workload(70.0, SimTime::ZERO);
        s.note_assignment(SimTime::ZERO);
        let now = SimTime::from_secs(1.0);
        assert_eq!(reg.register_at(&standard_descriptor("h", "a:1", 100.0), now), Ok(id));
        let s = reg.get_mut(id).unwrap();
        assert!(!s.is_down(&FAULT, now));
        assert_eq!(s.effective_workload(&policy(), now), 0.0, "idle, nothing pending");
        // The failure count did not carry over.
        assert!(!s.record_failure(&FAULT, now));
        assert!(!s.is_down(&FAULT, now));
    }

    #[test]
    fn half_open_lifecycle_down_cooldown_failure_success() {
        let (mut reg, id) = one_server();
        let s = reg.get_mut(id).unwrap();
        s.record_failure(&FAULT, SimTime::ZERO);
        assert!(s.record_failure(&FAULT, SimTime::ZERO));
        assert!(s.is_down(&FAULT, SimTime::from_secs(59.0)), "still cooling down");
        // A failure inside the cooldown does not extend it.
        assert!(!s.record_failure(&FAULT, SimTime::from_secs(30.0)));

        // Cooldown elapsed: half-open, eligible again.
        let half_open = SimTime::from_secs(60.0);
        assert!(!s.is_down(&FAULT, half_open));

        // One failure pushes it straight back down; a fresh cooldown runs.
        assert!(s.record_failure(&FAULT, half_open));
        assert!(s.is_down(&FAULT, SimTime::from_secs(119.0)));
        assert!(!s.is_down(&FAULT, SimTime::from_secs(120.0)));

        // A success recovers it fully: the count starts again.
        s.record_success();
        assert!(!s.record_failure(&FAULT, SimTime::from_secs(120.0)));
        assert!(!s.is_down(&FAULT, SimTime::from_secs(120.0)));
    }

    /// An answered probe shows that the agent reaches the server, not
    /// that its clients are served: it takes back the failures probes
    /// made and no others.
    #[test]
    fn an_answered_probe_takes_back_only_the_failures_probes_made() {
        let (mut reg, id) = one_server();
        let s = reg.get_mut(id).unwrap();
        let now = SimTime::ZERO;
        // Two client reports mark the server down across answered probes,
        // and it stays down for its cooldown.
        assert!(!s.record_failure(&FAULT, now));
        s.probe_answered(&FAULT);
        assert!(s.record_failure(&FAULT, now), "the report before the answer still counts");
        s.probe_answered(&FAULT);
        assert!(s.is_down(&FAULT, now));
        s.record_success();

        // Probe misses alone mark it down, and one answer re-admits it.
        assert!(!s.probe_unanswered(&FAULT, now));
        assert!(s.probe_unanswered(&FAULT, now));
        s.probe_answered(&FAULT);
        assert!(!s.is_down(&FAULT, now));

        // A report and a miss mark it down; the answer re-admits it but
        // keeps the report, so one more report marks it down again.
        assert!(!s.record_failure(&FAULT, now));
        assert!(s.probe_unanswered(&FAULT, now));
        s.probe_answered(&FAULT);
        assert!(!s.is_down(&FAULT, now));
        assert!(s.record_failure(&FAULT, now));
    }

    /// Regression: a failure only marked a server down when it had never
    /// been marked, so once a crashed server's cooldown passed it stayed
    /// up however many client reports said it was gone, and every query
    /// ranked it again.
    #[test]
    fn after_the_cooldown_one_link_failure_marks_the_server_down_again() {
        let mut agent = AgentCore::with_defaults();
        let id = agent.register_server(&standard_descriptor("h", "a:1", 100.0), SimTime::ZERO);
        let (id, cooldown) = (id.unwrap(), agent.config().fault.down_cooldown_secs);
        for _ in 0..agent.config().fault.failures_to_mark_down {
            agent.failure_report(id, ErrorClass::Link, SimTime::ZERO);
        }
        let half_open = SimTime::from_secs(cooldown);
        assert!(agent.is_down(id, SimTime::ZERO) && !agent.is_down(id, half_open));
        agent.failure_report(id, ErrorClass::Link, half_open);
        assert!(agent.is_down(id, half_open), "a half-open server failed again");
        assert_eq!(agent.metrics().counter("agent.fault_down_marks").get(), 2);
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
            5 => {
                let load = ErrorClass::Load { retry_after_ms: x as u64 };
                let class = [ErrorClass::Link, ErrorClass::Fault, load, ErrorClass::Request];
                agent.failure_report(ServerId(id), class[slot % 4], *now);
            }
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
            8 => {
                // A probe of the telemetry round: answered, missed, or
                // shed at the connection cap, which must change nothing.
                let id = ServerId(id);
                let reply = match slot % 3 {
                    0 => Ok(Message::Pong),
                    1 => Err(NetSolveError::Transport("refused".into())),
                    _ => {
                        let before = fault_view(agent, id, *now);
                        let busy = NetSolveError::Resource("server busy".into());
                        agent.probe_result(id, Ok(Message::from_error(&busy)), *now);
                        assert_eq!(fault_view(agent, id, *now), before, "a shed probe counted");
                        return;
                    }
                };
                agent.probe_result(id, reply, *now);
            }
            9 => *now = now.plus(x),
            _ => {} // a query: every step ends with one
        }
    }

    /// What a probe may change: whether `id` is down, and the down-mark,
    /// miss and probe-success counts.
    fn fault_view(agent: &AgentCore, id: ServerId, now: SimTime) -> (bool, [u64; 3]) {
        let names = ["agent.fault_down_marks", "agent.heartbeat_misses", "agent.probe_successes"];
        (agent.is_down(id, now), names.map(|name| agent.metrics().counter(name).get()))
    }

    fn pending_gauge(agent: &AgentCore) -> i64 {
        agent.metrics().gauge("agent.pending_assignments").get()
    }

    /// Whatever registrations, gossip, reports, probes and queries
    /// arrive in whatever order, the table stays one table: the two
    /// indexes agree, an address has one row, a row's probed failures
    /// are part of its failure count, ids only grow, nothing
    /// is observable about an id the table does not hold, a ranking
    /// never repeats an address or names a down server, and the
    /// pending gauge is the sum of the rows' pending lists unexpired at
    /// the instant it was last counted.
    #[test]
    fn the_table_stays_one_table() {
        cases("the_table_stays_one_table", 64, |rng| {
            let mut agent = AgentCore::with_defaults();
            let mut now = SimTime::ZERO;
            let mut highest_id = 0u64;
            let mut last_id_at: HashMap<String, u64> = HashMap::new();
            for _ in 0..rng.range(1..80) {
                let (kind, slot, id) = (rng.below(11) as u8, rng.below(6), rng.below(10) as u64);
                let step = (kind, slot, id, rng.uniform(0.0, 300.0));
                apply(&mut agent, step, &mut now);
                let counted = agent.registry().pending_total(agent.pending_counted_at);
                assert_eq!(pending_gauge(&agent), counted as i64);
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
                assert_eq!(reg.by_address.len(), reg.servers.len());
                let ids: Vec<u64> = reg.all_servers().iter().map(|s| s.server_id.raw()).collect();
                assert!(ids.windows(2).all(|w| w[0] < w[1]), "id order: {:?}", ids);
                for (id, s) in &reg.servers {
                    assert_eq!(s.server_id, *id);
                    assert_eq!(reg.id_by_address(&s.address), Some(*id));
                    // Probed failures are a part of the one failure count.
                    assert!(s.probed_failures <= s.consecutive_failures);
                    // A row is either the one this address had last step,
                    // or one minted after every id ever seen.
                    if last_id_at.get(&s.address) != Some(&id.raw()) {
                        assert!(id.raw() > highest_id, "id {} reused", id.raw());
                    }
                }
                highest_id = highest_id.max(ids.last().copied().unwrap_or(0));
                last_id_at =
                    reg.servers.values().map(|s| (s.address.clone(), s.server_id.raw())).collect();

                for ghost in (0..12).map(ServerId).filter(|id| reg.get(*id).is_none()) {
                    assert!(!agent.is_down(ghost, now));
                    assert_eq!(agent.pending_load(ghost, now), 0);
                }
                let candidates = ranking.unwrap_or_default();
                let addresses: HashSet<&str> =
                    candidates.iter().map(|c| c.address.as_str()).collect();
                assert_eq!(addresses.len(), candidates.len());
                for c in &candidates {
                    assert!(!agent.is_down(ServerId(c.server_id), now));
                    assert_eq!(reg.id_by_address(&c.address), Some(ServerId(c.server_id)));
                }
                let counted = reg.pending_total(agent.pending_counted_at);
                assert_eq!(pending_gauge(&agent), counted as i64);
            }
        });
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
