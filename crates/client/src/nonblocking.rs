//! Non-blocking calls — NetSolve's `netslnb()` / `netslpr()` / `netslwt()`
//! trio — plus the task-farming helper built on top of them.
//!
//! A non-blocking call runs the whole blocking pipeline (describe → query
//! → submit → failover) on a worker thread and hands back a
//! [`RequestHandle`] the caller can poll or block on, overlapping local
//! work with remote computation exactly as the original C API encouraged.

use std::sync::Arc;
use std::thread::JoinHandle;

use netsolve_core::data::DataObject;
use netsolve_core::error::{NetSolveError, Result};

use crate::client::{CallReport, NetSolveClient};

/// Outcome of a finished non-blocking call.
pub type CallOutcome = Result<(Vec<DataObject>, CallReport)>;

/// Handle to an in-flight non-blocking request: the worker thread running
/// the call, or why no worker could be started.
pub struct RequestHandle {
    worker: Result<JoinHandle<CallOutcome>>,
}

impl RequestHandle {
    /// Non-blocking readiness check (`netslpr`): `true` once the result is
    /// available locally.
    pub fn probe(&mut self) -> bool {
        self.worker.as_ref().map_or(true, |worker| worker.is_finished())
    }

    /// Block until the result arrives and return it (`netslwt`).
    pub fn wait(self) -> Result<Vec<DataObject>> {
        self.wait_timed().map(|(outputs, _)| outputs)
    }

    /// Block until the result arrives, returning the measurement report
    /// alongside the outputs.
    pub fn wait_timed(self) -> CallOutcome {
        self.worker?
            .join()
            .unwrap_or_else(|_| Err(NetSolveError::Internal("request worker vanished".into())))
    }
}

impl NetSolveClient {
    /// Start a non-blocking call (`netslnb`). The returned handle can be
    /// probed or waited on; the computation proceeds on a worker thread.
    ///
    /// If the OS refuses to spawn the worker (thread exhaustion, resource
    /// limits), the handle is returned already resolved to an `Internal`
    /// error instead of panicking the caller — probe/wait report the
    /// failure like any finished request.
    pub fn netsl_nb(self: &Arc<Self>, problem: &str, inputs: Vec<DataObject>) -> RequestHandle {
        let client = Arc::clone(self);
        let problem = problem.to_string();
        let worker = std::thread::Builder::new()
            .name("netsl-nb".into())
            .spawn(move || client.netsl_timed(&problem, &inputs))
            .map_err(|e| NetSolveError::Internal(format!("spawn request worker: {e}")));
        RequestHandle { worker }
    }

    /// Task farming: submit every input set concurrently and wait for all
    /// results, preserving order. Failures are per-task.
    pub fn netsl_farm(
        self: &Arc<Self>,
        problem: &str,
        input_sets: Vec<Vec<DataObject>>,
    ) -> Vec<Result<Vec<DataObject>>> {
        let handles: Vec<RequestHandle> = input_sets
            .into_iter()
            .map(|inputs| self.netsl_nb(problem, inputs))
            .collect();
        handles.into_iter().map(|h| h.wait()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsolve_agent::{AgentCore, AgentDaemon};
    use netsolve_net::{ChannelNetwork, Transport};
    use netsolve_server::{ServerConfig, ServerCore, ServerDaemon};

    fn bring_up(n_servers: usize) -> (ChannelNetwork, AgentDaemon, Vec<ServerDaemon>) {
        let net = ChannelNetwork::new();
        let transport: Arc<dyn Transport> = Arc::new(net.clone());
        let agent =
            AgentDaemon::start(Arc::clone(&transport), "agent", AgentCore::with_defaults())
                .unwrap();
        let servers = (0..n_servers)
            .map(|i| {
                ServerDaemon::start(
                    Arc::clone(&transport),
                    "agent",
                    ServerCore::with_standard_catalogue(),
                    ServerConfig::quick(&format!("h{i}"), &format!("srv{i}"), 100.0),
                )
                .unwrap()
            })
            .collect();
        (net, agent, servers)
    }

    #[test]
    fn nonblocking_call_probe_then_wait() {
        let (net, mut agent, mut servers) = bring_up(1);
        let client = Arc::new(NetSolveClient::new(Arc::new(net), "agent"));
        let mut handle = client.netsl_nb(
            "quad",
            vec![
                "sin".into(),
                DataObject::Double(0.0),
                DataObject::Double(std::f64::consts::PI),
                DataObject::Double(1e-9),
            ],
        );
        // Eventually probe turns true; then wait returns instantly.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !handle.probe() {
            assert!(std::time::Instant::now() < deadline, "request never completed");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let outputs = handle.wait().unwrap();
        assert!((outputs[0].as_double().unwrap() - 2.0).abs() < 1e-8);
        for s in &mut servers {
            s.stop();
        }
        agent.stop();
    }

    #[test]
    fn wait_without_probe_blocks_until_done() {
        let (net, mut agent, mut servers) = bring_up(1);
        let client = Arc::new(NetSolveClient::new(Arc::new(net), "agent"));
        let handle = client.netsl_nb("dnrm2", vec![vec![3.0, 4.0].into()]);
        let outputs = handle.wait().unwrap();
        assert!((outputs[0].as_double().unwrap() - 5.0).abs() < 1e-12);
        for s in &mut servers {
            s.stop();
        }
        agent.stop();
    }

    #[test]
    fn nonblocking_error_propagates() {
        let (net, mut agent, mut servers) = bring_up(1);
        let client = Arc::new(NetSolveClient::new(Arc::new(net), "agent"));
        let handle = client.netsl_nb("no_such_problem", vec![]);
        assert!(matches!(
            handle.wait(),
            Err(NetSolveError::ProblemNotFound(_))
        ));
        for s in &mut servers {
            s.stop();
        }
        agent.stop();
    }

    #[test]
    fn farm_distributes_and_preserves_order() {
        let (net, mut agent, mut servers) = bring_up(3);
        let client = Arc::new(NetSolveClient::new(Arc::new(net), "agent"));
        let tasks: Vec<Vec<DataObject>> = (1..=8)
            .map(|k| vec![vec![k as f64; 4].into()])
            .collect();
        let results = client.netsl_farm("dnrm2", tasks);
        assert_eq!(results.len(), 8);
        for (k, r) in results.into_iter().enumerate() {
            let norm = r.unwrap()[0].as_double().unwrap();
            let expect = 2.0 * (k + 1) as f64; // ||[k;4]|| = 2k
            assert!((norm - expect).abs() < 1e-12, "task {k}");
        }
        // the farm really used the domain: every server saw at least one
        // request OR at minimum all requests were served somewhere
        let total: u64 = servers.iter().map(|s| s.requests_served()).sum();
        assert_eq!(total, 8);
        for s in &mut servers {
            s.stop();
        }
        agent.stop();
    }

    /// A handle degraded at spawn time (the shape `netsl_nb` returns when
    /// the OS refuses a worker thread) must resolve through probe/wait
    /// like any finished request — never panic.
    #[test]
    fn degraded_handle_reports_spawn_failure_via_outcome() {
        let mut handle = RequestHandle {
            worker: Err(NetSolveError::Internal("spawn request worker: test".into())),
        };
        assert!(handle.probe(), "pre-resolved handle must probe ready");
        match handle.wait() {
            Err(NetSolveError::Internal(m)) => assert!(m.contains("spawn request worker")),
            other => panic!("expected Internal spawn error, got {other:?}"),
        }
    }

    #[test]
    fn farm_with_mixed_success_and_failure() {
        let (net, mut agent, mut servers) = bring_up(1);
        let client = Arc::new(NetSolveClient::new(Arc::new(net), "agent"));
        let results = client.netsl_farm(
            "vsort",
            vec![
                vec![vec![3.0, 1.0].into()],
                vec![vec![f64::NAN].into()], // NaN sort is rejected server-side
            ],
        );
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
        for s in &mut servers {
            s.stop();
        }
        agent.stop();
    }
}
