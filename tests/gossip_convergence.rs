//! Gossip convergence properties: a federation of agents exchanging
//! anti-entropy digests must agree on the full server registry within a
//! bounded number of rounds, for any topology that is strongly
//! connected and any placement of the authoritative registrations.
//!
//! These tests drive [`AgentCore`]s directly — no threads, no
//! transport — so the round/bound arithmetic is exact: one "round"
//! snapshots every agent's digest, then delivers each digest along
//! every directed edge of the topology. With full-view push gossip,
//! information travels one hop per round, so the convergence bound is
//! the topology's diameter: `n - 1` rounds for a directed ring, one
//! round for a full mesh.

use netsolve::agent::{standard_descriptor, AgentCore, Policy};
use netsolve::core::config::AgentConfig;
use netsolve::core::rng::{cases, Rng64};
use netsolve::core::SimTime;
use netsolve::net::NetworkView;

/// Build an `n`-agent federation with no transport attached.
fn make_cores(n: usize) -> Vec<AgentCore> {
    (0..n)
        .map(|i| {
            let mut core = AgentCore::new(
                AgentConfig::default(),
                Policy::MinimumCompletionTime,
                NetworkView::lan_defaults(),
            );
            core.set_self_address(&format!("agent-{i}"));
            core
        })
        .collect()
}

/// Register one server per placement entry: server `j` is authoritative
/// at agent `placements[j]`.
fn place_servers(cores: &mut [AgentCore], placements: &[usize], t0: SimTime) {
    for (j, &slot) in placements.iter().enumerate() {
        let desc =
            standard_descriptor(&format!("host{j}"), &format!("srv{j}"), 100.0 + j as f64);
        cores[slot]
            .register_server(&desc, t0)
            .expect("registration is valid");
    }
}

/// One synchronous gossip round: snapshot every digest first (so a round
/// moves information exactly one hop), then deliver along each directed
/// edge `(from, to)`.
fn gossip_round(cores: &mut [AgentCore], edges: &[(usize, usize)], now: SimTime) {
    let digests: Vec<_> = cores.iter().map(|c| c.gossip_digest(now)).collect();
    for &(from, to) in edges {
        cores[to].merge_gossip(&digests[from], now);
    }
}

/// The set of server addresses an agent currently knows.
fn known(core: &AgentCore) -> Vec<String> {
    let mut addrs: Vec<String> = core
        .registry()
        .all_servers()
        .into_iter()
        .map(|s| s.address.clone())
        .collect();
    addrs.sort();
    addrs
}

/// Run rounds until every agent knows every placed server, returning how
/// many rounds it took (or `None` if `max_rounds` was not enough).
fn rounds_to_converge(
    cores: &mut [AgentCore],
    edges: &[(usize, usize)],
    n_servers: usize,
    max_rounds: usize,
) -> Option<usize> {
    let mut expected: Vec<String> = (0..n_servers).map(|j| format!("srv{j}")).collect();
    expected.sort();
    for round in 0..=max_rounds {
        if cores.iter().all(|c| known(c) == expected) {
            return Some(round);
        }
        if round == max_rounds {
            break;
        }
        // Advance time a second per round: far below the 60 s TTL, so
        // nothing expires while the view is still spreading.
        let now = SimTime::from_secs(1.0 + round as f64);
        gossip_round(cores, edges, now);
    }
    None
}

fn ring_edges(n: usize) -> Vec<(usize, usize)> {
    (0..n).map(|i| (i, (i + 1) % n)).collect()
}

fn mesh_edges(n: usize) -> Vec<(usize, usize)> {
    let mut edges = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if i != j {
                edges.push((i, j));
            }
        }
    }
    edges
}

/// `n` agents and one to five servers, each placed at a slot drawn from
/// 0..64 modulo `n`.
fn arb_federation(rng: &mut Rng64, n: std::ops::Range<usize>) -> (usize, Vec<usize>) {
    let n = rng.range(n);
    (n, (0..rng.range(1..6)).map(|_| rng.below(64) % n).collect())
}

/// Directed ring: whatever the placement, every agent holds the full
/// registry after at most `n - 1` rounds (the ring's diameter).
#[test]
fn ring_converges_within_diameter_rounds() {
    cases("ring_converges_within_diameter_rounds", 64, |rng| {
        let (n, placements) = arb_federation(rng, 2..7);
        let mut cores = make_cores(n);
        place_servers(&mut cores, &placements, SimTime::from_secs(0.0));
        let rounds =
            rounds_to_converge(&mut cores, &ring_edges(n), placements.len(), n - 1);
        assert!(
            rounds.is_some(),
            "ring of {} agents did not converge within {} rounds", n, n - 1
        );
    });
}

/// Full mesh: one round is always enough, and the converged view is
/// stable — further rounds change nothing.
#[test]
fn mesh_converges_in_one_round_and_stays_converged() {
    cases("mesh_converges_in_one_round_and_stays_converged", 64, |rng| {
        let (n, placements) = arb_federation(rng, 2..6);
        let mut cores = make_cores(n);
        place_servers(&mut cores, &placements, SimTime::from_secs(0.0));
        let edges = mesh_edges(n);
        let rounds = rounds_to_converge(&mut cores, &edges, placements.len(), 1);
        assert!(rounds.is_some(), "mesh of {} agents did not converge in one round", n);

        // Stability: replaying rounds leaves every registry unchanged.
        let before: Vec<_> = cores.iter().map(known).collect();
        for extra in 0..3 {
            let now = SimTime::from_secs(10.0 + extra as f64);
            gossip_round(&mut cores, &edges, now);
        }
        let after: Vec<_> = cores.iter().map(known).collect();
        assert_eq!(before, after);
    });
}

/// A dead agent's entries age out everywhere: after its peers stop
/// hearing from it for longer than the TTL, the survivors' registries
/// drop exactly the dead agent's servers and keep everything else.
#[test]
fn dead_agents_entries_expire_at_survivors() {
    let n = 3;
    let mut cores = make_cores(n);
    // One server per agent.
    place_servers(&mut cores, &[0, 1, 2], SimTime::from_secs(0.0));
    let edges = mesh_edges(n);
    let rounds = rounds_to_converge(&mut cores, &edges, 3, 1);
    assert_eq!(rounds, Some(1), "mesh converges in one round");

    // Agent 2 dies: only edges between 0 and 1 keep gossiping. Its
    // entries stop being refreshed and cross the 60 s default TTL.
    let live_edges = [(0usize, 1usize), (1, 0)];
    for round in 0..5 {
        let now = SimTime::from_secs(10.0 + 20.0 * round as f64);
        gossip_round(&mut cores[..2], &live_edges, now);
        for core in cores[..2].iter_mut() {
            core.expire_gossip(now);
        }
    }
    for (i, core) in cores[..2].iter().enumerate() {
        assert_eq!(
            known(core),
            vec!["srv0".to_string(), "srv1".to_string()],
            "survivor {i} must drop the dead agent's server and keep the rest"
        );
    }
}
