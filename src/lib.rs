//! # netsolve
//!
//! A comprehensive Rust reproduction of **NetSolve: A Network Server for
//! Solving Computational Science Problems** (Casanova & Dongarra,
//! Supercomputing '96): a client–agent–server system giving applications
//! network access to scientific solvers, with predictive load balancing
//! and client-side fault tolerance.
//!
//! This facade crate re-exports the full workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `netsolve-core` | data objects, problem model, errors, clocks |
//! | [`xdr`] | `netsolve-xdr` | hand-written XDR-style wire marshaling |
//! | [`pdl`] | `netsolve-pdl` | the problem description language + catalogue |
//! | [`solvers`] | `netsolve-solvers` | the numerical substrate (LAPACK-style) |
//! | [`proto`] | `netsolve-proto` | protocol messages and framing |
//! | [`net`] | `netsolve-net` | TCP + in-process transports, the link-model / fault layer over both |
//! | [`obs`] | `netsolve-obs` | metrics registry + request tracing |
//! | [`agent`] | `netsolve-agent` | the resource broker (the paper's core) |
//! | [`server`] | `netsolve-server` | the computational server |
//! | [`client`] | `netsolve-client` | `netsl` blocking / non-blocking calls |
//! | [`sim`] | `netsolve-sim` | the discrete-event evaluation harness |
//! | [`script`] | `netsolve-script` | the MATLAB-like interactive front end |
//!
//! ## Quickstart
//!
//! ```
//! use netsolve::testbed::InProcessDomain;
//! use netsolve::core::{DataObject, Matrix};
//!
//! // Bring up an agent plus two servers in this process.
//! let domain = InProcessDomain::start(&[("fast-host", 500.0), ("slow-host", 50.0)]).unwrap();
//! let client = domain.client();
//!
//! // Solve A x = b somewhere on the "network".
//! let a = Matrix::identity(4);
//! let b = vec![1.0, 2.0, 3.0, 4.0];
//! let x = client.netsl("dgesv", &[a.into(), b.clone().into()]).unwrap();
//! assert_eq!(x[0].as_vector().unwrap(), b.as_slice());
//! ```

#![warn(missing_docs)]

pub use netsolve_agent as agent;
pub use netsolve_client as client;
pub use netsolve_core as core;
pub use netsolve_net as net;
pub use netsolve_obs as obs;
pub use netsolve_pdl as pdl;
pub use netsolve_proto as proto;
pub use netsolve_script as script;
pub use netsolve_server as server;
pub use netsolve_sim as sim;
pub use netsolve_solvers as solvers;
pub use netsolve_xdr as xdr;

pub mod testbed {
    //! Convenience harness: a complete in-process NetSolve domain (one
    //! agent, N servers, a shared channel network under one chaos layer)
    //! for examples, tests and the live experiments.

    use std::sync::Arc;

    use netsolve_agent::{AgentCore, AgentDaemon, Policy};
    use netsolve_client::NetSolveClient;
    use netsolve_core::error::{ErrorClass, Result};
    use netsolve_net::{ChannelNetwork, ChaosPolicy, ChaosTransport, NetworkView};
    use netsolve_server::{ExecutionMode, ServerConfig, ServerCore, ServerDaemon};

    /// How many times a server tries to register before its start fails.
    const REGISTRATION_TRIES: u32 = 4;

    /// A running in-process domain: agent, servers and clients all dial
    /// through one [`ChaosTransport`] over a shared channel network.
    pub struct InProcessDomain {
        transport: Arc<ChaosTransport>,
        agent: Option<AgentDaemon>,
        servers: Vec<ServerDaemon>,
    }

    impl InProcessDomain {
        /// Start an agent (MCT policy) and one real-execution server per
        /// `(host_name, mflops)` entry. Server `i` listens at `"srv{i}"`.
        pub fn start(servers: &[(&str, f64)]) -> Result<Self> {
            Self::start_with(servers, ChaosPolicy::calm(), Policy::MinimumCompletionTime, ExecutionMode::Real)
        }

        /// Start with full control over the link and faults every dial in
        /// the domain crosses, scheduling policy and execution mode.
        pub fn start_with(
            servers: &[(&str, f64)],
            chaos: ChaosPolicy,
            policy: Policy,
            mode: ExecutionMode,
        ) -> Result<Self> {
            let transport =
                Arc::new(ChaosTransport::new(Arc::new(ChannelNetwork::new()), chaos, 0xD0_0D));
            let core = AgentCore::new(Default::default(), policy, NetworkView::lan_defaults());
            let agent = AgentDaemon::start(transport.clone(), "agent", core)?;
            let mut daemons = Vec::with_capacity(servers.len());
            for (i, (host, mflops)) in servers.iter().enumerate() {
                let start = || {
                    let server_core = match mode {
                        ExecutionMode::Real => ServerCore::with_standard_catalogue(),
                        ExecutionMode::Synthetic { .. } => ServerCore::new(
                            netsolve_pdl::ProblemRegistry::with_standard_catalogue(),
                            ExecutionMode::Synthetic { mflops: *mflops },
                        ),
                    };
                    ServerDaemon::start(
                        transport.clone(),
                        "agent",
                        server_core,
                        ServerConfig::quick(host, &format!("srv{i}"), *mflops),
                    )
                };
                // The registration crosses the chaos layer like any other
                // exchange, so a lossy policy can lose it. A failed start
                // frees its address, and the server registers again.
                let mut tries = 1;
                let daemon = loop {
                    let again = tries < REGISTRATION_TRIES;
                    match start() {
                        Err(e) if again && e.class() != ErrorClass::Request => tries += 1,
                        started => break started?,
                    }
                };
                daemons.push(daemon);
            }
            Ok(InProcessDomain { transport, agent: Some(agent), servers: daemons })
        }

        /// A new client bound to this domain's agent.
        pub fn client(&self) -> Arc<NetSolveClient> {
            Arc::new(NetSolveClient::new(self.transport.clone(), "agent"))
        }

        /// The chaos layer every component dials through: a
        /// [`ChaosTransport::kill`] here is seen by the agent, the servers
        /// and every client alike.
        pub fn transport(&self) -> &ChaosTransport {
            &self.transport
        }

        /// Handle to the agent daemon.
        pub fn agent(&self) -> &AgentDaemon {
            self.agent.as_ref().expect("agent running")
        }

        /// The running server daemons.
        pub fn servers(&self) -> &[ServerDaemon] {
            &self.servers
        }

        /// Stop everything (also happens on drop).
        pub fn shutdown(&mut self) {
            for s in &mut self.servers {
                s.stop();
            }
            if let Some(mut agent) = self.agent.take() {
                agent.stop();
            }
        }
    }

    impl Drop for InProcessDomain {
        fn drop(&mut self) {
            self.shutdown();
        }
    }
}
