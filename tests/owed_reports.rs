//! The report flusher against an agent that stops answering. The flusher
//! is one thread per process, and this test holds it on a mute agent for
//! an attempt timeout on purpose, so it runs in a process of its own.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use netsolve::client::NetSolveClient;
use netsolve::core::config::{Backoff, RetryPolicy};
use netsolve::core::DataObject;
use netsolve::net::{ChannelNetwork, Transport};
use netsolve::pdl::ProblemRegistry;
use netsolve::proto::{Candidate, Message};

/// A scripted peer at `address`: every frame is answered with
/// `script(frame)`; `None` reads on without replying.
fn stub(
    net: &ChannelNetwork,
    address: &str,
    script: impl Fn(Message) -> Option<Message> + Send + Sync + 'static,
) {
    let listener = net.listen(address).unwrap();
    let script = Arc::new(script);
    std::thread::spawn(move || {
        while let Ok(mut conn) = listener.accept() {
            let script = Arc::clone(&script);
            std::thread::spawn(move || {
                while let Ok(msg) = conn.recv() {
                    if script(msg).is_some_and(|reply| conn.send(&reply).is_err()) {
                        return;
                    }
                }
            });
        }
    });
}

/// The flusher's send to an agent that has gone mute holds no lock a call
/// needs: a call made while the flusher waits out its 1.5 s attempt
/// timeout dials its own agent connection and ends well inside its 0.5 s
/// deadline, and only the report the mute agent took is dropped.
#[test]
fn a_call_made_while_the_flusher_waits_on_a_mute_agent_keeps_its_deadline() {
    let net = ChannelNetwork::new();
    stub(&net, "srv", |msg| match msg {
        Message::RequestSubmit { request_id, .. } => Some(Message::RequestReply {
            request_id,
            outputs: vec![DataObject::Double(11.0)],
            compute_secs: 0.001,
            cached: false,
        }),
        _ => None,
    });
    let pdl = netsolve::pdl::render(ProblemRegistry::with_standard_catalogue().get("ddot").unwrap());
    // Answers everything but the first completion report it reads.
    let first_report = AtomicBool::new(true);
    stub(&net, "agent", move |msg| {
        Some(match msg {
            Message::DescribeProblem { .. } => Message::ProblemDescription { pdl: pdl.clone() },
            Message::ServerQuery(_) => Message::ServerList {
                candidates: vec![Candidate {
                    server_id: 1,
                    address: "srv".into(),
                    predicted_secs: 0.01,
                }],
            },
            Message::CompletionReport { .. } if first_report.swap(false, Ordering::SeqCst) => {
                return None
            }
            _ => Message::Pong,
        })
    });
    let retry = RetryPolicy {
        max_attempts: 1,
        attempt_timeout_secs: 1.5,
        backoff: Backoff::None,
        deadline_secs: 0.5,
    };
    let client = NetSolveClient::new(Arc::new(net.clone()), "agent").with_retry(retry);
    let inputs = [vec![1.0, 2.0].into(), vec![3.0, 4.0].into()];
    client.netsl("ddot", &inputs).unwrap();
    // Long past the 50 ms flush period: the flusher has sent the report
    // on the kept connection and waits for its `Pong`.
    std::thread::sleep(Duration::from_millis(200));
    let start = Instant::now();
    assert_eq!(client.netsl("ddot", &inputs).unwrap()[0].as_double().unwrap(), 11.0);
    assert!(start.elapsed() < Duration::from_millis(500), "took {:?}", start.elapsed());
    let dropped = || client.metrics().snapshot("client").counter("client.reports_dropped");
    while dropped() == 0 {
        assert!(start.elapsed() < Duration::from_secs(5), "the flusher never gave up");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(start.elapsed() >= Duration::from_secs(1), "gave up early: {:?}", start.elapsed());
    assert_eq!(dropped(), 1, "only the report the mute agent took");
}
