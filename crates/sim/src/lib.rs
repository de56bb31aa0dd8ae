//! # netsolve-sim
//!
//! Deterministic discrete-event simulator reproducing the NetSolve
//! evaluation at scales the original authors ran on a multi-machine
//! testbed.
//!
//! The simulator's defining property: it schedules with the **production
//! agent code** ([`netsolve_agent::AgentCore`] — registry, workload
//! manager with TTL aging, fault tracker, and the MCT ranking) driven on a
//! virtual clock. Servers are FCFS queues with `complexity(n)/mflops`
//! service times; the network is the analytic
//! `latency + bytes/bandwidth` model; failures are injected per attempt or
//! by scheduled crashes. Experiments R2–R7 are parameterizations of
//! [`Scenario`] run through [`engine::run`].
//!
//! ```
//! use netsolve_sim::{run, Scenario, SimServer};
//!
//! // 100 requests over a fast and a slow machine, MCT policy, seed 42.
//! let scenario = Scenario::default_with(
//!     vec![SimServer::new(400.0), SimServer::new(50.0)], 100);
//! let report = run(&scenario).unwrap();
//! assert_eq!(report.succeeded(), 100);
//! let counts = report.per_server_counts();
//! assert!(counts[0] > counts[1], "fast server does more work: {counts:?}");
//! ```

#![warn(missing_docs)]

pub mod calendar;
pub mod engine;
pub mod metrics;
pub mod scenario;

pub use calendar::EventCalendar;
pub use engine::{run, run_policies};
pub use metrics::{CompletedRequest, SimReport};
pub use scenario::{Arrivals, RequestMix, Scenario, SimNetwork, SimServer};

#[cfg(test)]
mod proptests {
    use super::*;
    use netsolve_agent::Policy;
    use proptest::prelude::*;

    prop_compose! {
        fn arb_scenario()(
            seed in any::<u64>(),
            n_servers in 1usize..6,
            speeds in prop::collection::vec(10.0..500.0f64, 6),
            requests in 1usize..60,
            rate in 0.5..8.0f64,
            policy_idx in 0usize..6,
        ) -> Scenario {
            let servers = (0..n_servers).map(|i| SimServer::new(speeds[i])).collect();
            let mut sc = Scenario::default_with(servers, requests);
            sc.seed = seed;
            sc.arrivals = Arrivals::Poisson { rate };
            sc.policy = Policy::all()[policy_idx];
            sc
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// On a reliable pool every request completes, exactly once, under
        /// every policy, for any seed.
        #[test]
        fn conservation_of_requests(sc in arb_scenario()) {
            let report = run(&sc).unwrap();
            prop_assert_eq!(report.total(), sc.requests);
            prop_assert_eq!(report.succeeded(), sc.requests);
            let served: usize = report.per_server_counts().iter().sum();
            prop_assert_eq!(served, sc.requests);
            // finish times never precede arrivals
            for r in report.requests() {
                prop_assert!(r.finish_secs >= r.arrival_secs);
            }
        }

        /// Simulation is a pure function of the scenario.
        #[test]
        fn determinism(sc in arb_scenario()) {
            let a = run(&sc).unwrap();
            let b = run(&sc).unwrap();
            prop_assert_eq!(a.makespan_secs(), b.makespan_secs());
            prop_assert_eq!(a.per_server_counts(), b.per_server_counts());
            prop_assert_eq!(a.mean_turnaround_secs(), b.mean_turnaround_secs());
        }

        /// With failures and failover enabled, attempts are bounded by the
        /// configured budget.
        #[test]
        fn attempts_bounded(seed in any::<u64>(), fail in 0.0..0.6f64) {
            let servers = vec![
                SimServer::new(100.0).with_fail_prob(fail),
                SimServer::new(100.0).with_fail_prob(fail),
                SimServer::new(100.0),
            ];
            let mut sc = Scenario::default_with(servers, 40);
            sc.seed = seed;
            let report = run(&sc).unwrap();
            for r in report.requests() {
                prop_assert!(r.attempts as usize <= sc.max_attempts);
            }
        }
    }
}
