//! Set-up: boot a real agent and server(s) on loopback TCP, build the
//! workload for the seed, create the clients and warm everything up.

use std::sync::Arc;
use std::time::Instant;

use netsolve_agent::{AgentCore, AgentDaemon};
use netsolve_client::NetSolveClient;
use netsolve_net::{TcpTransport, Transport};
use netsolve_obs::{MetricsRegistry, Tracer};
use netsolve_server::{ServerConfig, ServerCore, ServerDaemon};

use crate::spans::TracedTransport;
use crate::workload::{self, Plan, Spec};

/// Spans each component's tracer retains in the traced run (the shipped
/// default keeps 1024, which a fraction of a second of `tiny_call` fills).
const TRACED_SPAN_CAPACITY: usize = 1 << 14;

/// Advertised server speed. Only the agent's ranking reads it, and every
/// server of a workload advertises the same.
const ADVERTISED_MFLOPS: f64 = 300.0;

/// A live domain. Daemons stop when this is dropped.
pub struct Domain {
    pub transport: Arc<dyn Transport>,
    pub agent: AgentDaemon,
    pub servers: Vec<ServerDaemon>,
    pub server_metrics: Vec<Arc<MetricsRegistry>>,
    /// Agent and server tracers, in the traced run only.
    pub tracers: Vec<Arc<Tracer>>,
}

/// Server-side counters the per-layer metrics are differences of.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServerCounts {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub shed: u64,
}

impl Domain {
    fn boot(spec: &Spec, cache_budget: Option<usize>, traced: bool) -> Result<Domain, String> {
        let transport: Arc<dyn Transport> = Arc::new(TcpTransport::new());
        let mut tracers = Vec::new();
        let mut tracer = || {
            let t = Arc::new(Tracer::with_capacity(TRACED_SPAN_CAPACITY));
            tracers.push(Arc::clone(&t));
            t
        };
        let mut agent_core = AgentCore::with_defaults();
        if traced {
            agent_core = agent_core.with_tracer(tracer());
        }
        let agent = AgentDaemon::start(Arc::clone(&transport), "127.0.0.1:0", agent_core)
            .map_err(|e| format!("agent failed to start: {e}"))?;
        let mut servers = Vec::new();
        let mut server_metrics = Vec::new();
        for i in 0..spec.servers {
            let mut core = ServerCore::with_standard_catalogue();
            if let Some(budget) = cache_budget {
                core = core.with_cache(budget);
            }
            if traced {
                core = core.with_tracer(tracer());
            }
            server_metrics.push(core.metrics());
            let config =
                ServerConfig::quick(&format!("bench-host-{i}"), "127.0.0.1:0", ADVERTISED_MFLOPS);
            servers.push(
                ServerDaemon::start(Arc::clone(&transport), agent.address(), core, config)
                    .map_err(|e| format!("server {i} failed to start: {e}"))?,
            );
        }
        Ok(Domain {
            transport,
            agent,
            servers,
            server_metrics,
            tracers,
        })
    }

    pub fn server_counts(&self) -> ServerCounts {
        let sum = |name: &str| {
            self.server_metrics
                .iter()
                .map(|m| m.counter(name).get())
                .sum::<u64>()
        };
        ServerCounts {
            cache_hits: sum("server.cache_hits"),
            cache_misses: sum("server.cache_misses"),
            cache_evictions: sum("server.cache_evictions"),
            shed: sum("server.admission_shed") + sum("server.busy_rejected"),
        }
    }
}

/// Everything a timed run needs, and how long it took to get there.
pub struct Setup {
    pub domain: Domain,
    pub plan: Plan,
    /// One client per closed loop, in the shipped default configuration
    /// unless the run is traced.
    pub clients: Vec<NetSolveClient>,
    pub secs: f64,
}

/// One complete set-up: boot, registration visible at the agent, seeded
/// operands with checked reference answers, warm-up calls.
pub fn set_up(spec: &Spec, seed: u64, traced: bool) -> Result<Setup, String> {
    let started = Instant::now();
    let plan = workload::build(spec, seed)?;
    let domain = Domain::boot(spec, plan.cache_budget, traced)?;
    let clients: Vec<NetSolveClient> = (0..spec.clients)
        .map(|_| {
            if traced {
                let transport: Arc<dyn Transport> =
                    Arc::new(TracedTransport::new(Arc::clone(&domain.transport)));
                NetSolveClient::new(transport, domain.agent.address()).with_observability(
                    Arc::new(MetricsRegistry::new()),
                    Arc::new(Tracer::with_capacity(TRACED_SPAN_CAPACITY)),
                )
            } else {
                NetSolveClient::new(Arc::clone(&domain.transport), domain.agent.address())
            }
        })
        .collect();
    let visible = clients[0]
        .list_servers()
        .map_err(|e| format!("agent unreachable: {e}"))?
        .len();
    if visible != spec.servers {
        return Err(format!(
            "agent lists {visible} server(s), expected {}",
            spec.servers
        ));
    }
    std::thread::scope(|scope| {
        let warmers: Vec<_> = clients
            .iter()
            .zip(&plan.warmup)
            .map(|(client, calls)| {
                let cases = &plan.cases;
                scope.spawn(move || {
                    for &i in calls {
                        let case = &cases[i as usize];
                        match client.netsl(case.problem, &case.inputs) {
                            Ok(outputs) if case.matches(&outputs) => {}
                            Ok(_) => {
                                return Err(format!(
                                    "warm-up {} returned a wrong answer",
                                    case.problem
                                ))
                            }
                            Err(e) => return Err(format!("warm-up {} failed: {e}", case.problem)),
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        warmers.into_iter().try_for_each(|w| {
            w.join()
                .map_err(|_| "warm-up thread panicked".to_string())?
        })
    })?;
    Ok(Setup {
        domain,
        plan,
        clients,
        secs: started.elapsed().as_secs_f64(),
    })
}
