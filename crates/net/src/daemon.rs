//! The one daemon skeleton: "serve connections and run periodic work
//! until stopped", shared by the agent and the computational server.
//!
//! A [`Daemon`] owns every thread it starts: one accept loop per
//! [`Daemon::serve`] (connection cap, retryable-Busy shed, spawn-failure
//! degrade), one stop-aware worker per [`Daemon::every`], and a single
//! [`Daemon::stop`] that wakes them all and joins them. Connection threads
//! are the exception: nothing can interrupt a blocked `recv` on a live
//! connection, so each ends when its peer hangs up or has sent nothing
//! for the keep-alive time, and a stopped daemon's threads answer nothing
//! in the meantime.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use netsolve_core::error::{NetSolveError, Result};
use netsolve_obs::Counter;
use netsolve_proto::Message;

use crate::transport::{Listener, Transport};

/// How long agent and server keep a connection nobody sends on. Clients
/// keep their connections between calls, so this is what bounds how long
/// an idle client holds one of a daemon's connection slots; a client that
/// comes back later finds the connection closed and dials again.
pub const KEEP_ALIVE: Duration = Duration::from_secs(30);

/// What an accept loop counts, on handles the serving component declares
/// under its own names: connections accepted, connections shed at the
/// cap, and connections shed because their thread could not be spawned.
pub struct AcceptCounters<'a>(pub &'a Arc<Counter>, pub &'a Arc<Counter>, pub &'a Arc<Counter>);

/// The daemon-wide stop flag, waitable so sleeping workers wake at once.
#[derive(Debug, Default)]
pub struct StopSignal {
    stopped: AtomicBool,
    lock: Mutex<()>,
    wake: Condvar,
}

impl StopSignal {
    /// Whether [`Daemon::stop`] has been called.
    pub fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::Acquire)
    }

    /// Sleep up to `timeout`, returning early — and `true` — once stopped.
    fn wait(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        // The mutex guards no data, so a poisoned guard is still valid.
        let mut guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        while !self.is_stopped() {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return false;
            }
            guard = self
                .wake
                .wait_timeout(guard, remaining)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        true
    }

    /// Set the flag and wake every waiter; returns the previous value.
    fn trigger(&self) -> bool {
        // Taken so a waiter between its flag check and its wait cannot
        // miss the notification.
        let _guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        let was = self.stopped.swap(true, Ordering::AcqRel);
        self.wake.notify_all();
        was
    }
}

/// Handle to the threads of one running daemon. Dropping it stops them.
pub struct Daemon {
    transport: Arc<dyn Transport>,
    stop: Arc<StopSignal>,
    listening: Vec<String>,
    threads: Vec<JoinHandle<()>>,
}

impl Daemon {
    /// A daemon with no threads yet, whose listeners live on `transport`.
    pub fn new(transport: Arc<dyn Transport>) -> Self {
        Daemon {
            transport,
            stop: Arc::new(StopSignal::default()),
            listening: Vec::new(),
            threads: Vec::new(),
        }
    }

    /// The stop flag, for handlers and workers that must notice a stop
    /// in the middle of their own work.
    pub fn stop_signal(&self) -> Arc<StopSignal> {
        Arc::clone(&self.stop)
    }

    fn spawn(&mut self, name: String, body: impl FnOnce() + Send + 'static) -> Result<()> {
        let handle = std::thread::Builder::new()
            .name(name.clone())
            .spawn(body)
            .map_err(|e| NetSolveError::Resource(format!("cannot spawn {name} thread: {e}")))?;
        self.threads.push(handle);
        Ok(())
    }

    /// Accept connections on `listener` until stopped and serve each on a
    /// thread of its own: every message received is answered with what
    /// `handler` makes of it, and the closure `handler` returns beside the
    /// reply runs once the reply is on the wire. A connection ends when
    /// its peer hangs up or sends nothing for `idle`, so an idle peer
    /// cannot hold a slot forever. A stopped daemon answers nothing: it
    /// drops a connection at its next message without a reply, which is
    /// what a crashed daemon looks like on the wire — a peer that kept the
    /// connection fails over or dials again instead of talking to a zombie.
    ///
    /// At most `max_connections` are served at once: one arriving past the
    /// cap — or one whose thread cannot be spawned — is answered with a
    /// retryable Busy error and dropped, so a flood degrades into shed load
    /// instead of unbounded thread growth or a dead accept loop. Each is
    /// counted on `counters`; `component` names the threads and the Busy
    /// message.
    pub fn serve<A: FnOnce()>(
        &mut self,
        listener: Box<dyn Listener>,
        max_connections: u32,
        idle: Duration,
        counters: AcceptCounters<'_>,
        component: &str,
        handler: impl Fn(&Message) -> (Message, A) + Send + Sync + 'static,
    ) -> Result<()> {
        let stop = Arc::clone(&self.stop);
        let handler = Arc::new(handler);
        let max_conns = max_connections.max(1);
        let live_conns = Arc::new(AtomicU32::new(0));
        let AcceptCounters(accepts, busy_rejected, spawn_failures) = counters;
        let (accepts, busy_rejected) = (Arc::clone(accepts), Arc::clone(busy_rejected));
        let spawn_failures = Arc::clone(spawn_failures);
        let component = component.to_string();
        self.listening.push(listener.address());
        self.spawn(format!("{component}-accept"), move || loop {
            let accepted = listener.accept();
            if stop.is_stopped() {
                break;
            }
            let Ok(mut conn) = accepted else {
                // Transient accept failure (descriptor exhaustion, say):
                // keep serving, but never spin on it.
                if stop.wait(Duration::from_millis(10)) {
                    break;
                }
                continue;
            };
            accepts.inc();
            // The protocol is strictly client-sends-then-recvs, so an
            // unsolicited Busy error is the first frame a rejected
            // client's recv sees.
            if live_conns.fetch_add(1, Ordering::AcqRel) >= max_conns {
                live_conns.fetch_sub(1, Ordering::AcqRel);
                busy_rejected.inc();
                let _ = conn.send(&Message::from_error(&NetSolveError::Resource(format!(
                    "{component} busy: {max_conns} connection(s) already open"
                ))));
                continue;
            }
            // Park the connection where a failed spawn can still reach it
            // to answer Busy.
            let slot = Arc::new(Mutex::new(Some(conn)));
            let thread_slot = Arc::clone(&slot);
            let (handler, stop) = (Arc::clone(&handler), Arc::clone(&stop));
            let conns = Arc::clone(&live_conns);
            let spawned = std::thread::Builder::new()
                .name(format!("{component}-conn"))
                .spawn(move || {
                    let conn = thread_slot
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .take();
                    if let Some(mut conn) = conn {
                        while let Ok(msg) = conn.recv_timeout(idle) {
                            if stop.is_stopped() {
                                break;
                            }
                            let (reply, sent) = handler(&msg);
                            if conn.send(&reply).is_err() {
                                break;
                            }
                            sent();
                        }
                    }
                    conns.fetch_sub(1, Ordering::AcqRel);
                });
            if spawned.is_err() {
                live_conns.fetch_sub(1, Ordering::AcqRel);
                spawn_failures.inc();
                if let Some(mut conn) = slot.lock().unwrap_or_else(PoisonError::into_inner).take() {
                    let _ = conn.send(&Message::from_error(&NetSolveError::Resource(format!(
                        "{component} busy: cannot spawn connection thread"
                    ))));
                }
            }
        })
    }

    /// Run `f` every `interval` on a thread named `name` until stopped.
    /// The first run comes one interval after the call; the wait between
    /// runs ends the moment [`Daemon::stop`] is called.
    pub fn every(
        &mut self,
        name: &str,
        interval: Duration,
        mut f: impl FnMut() + Send + 'static,
    ) -> Result<()> {
        let stop = Arc::clone(&self.stop);
        self.spawn(name.to_string(), move || {
            while !stop.wait(interval) {
                f();
            }
        })
    }

    /// Stop: wake every worker and accept loop and join them. Idempotent.
    pub fn stop(&mut self) {
        if self.stop.trigger() {
            return;
        }
        for address in &self.listening {
            self.transport.unblock(address);
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelNetwork;
    use crate::transport::{call, Connection};
    use netsolve_core::ErrorClass;
    use netsolve_obs::MetricsRegistry;

    const TIMEOUT: Duration = Duration::from_secs(5);

    /// Poll `cond` until it holds; the bounded wait every test here uses
    /// instead of a fixed sleep.
    fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Accept-loop counters under `test.*` names on `metrics`.
    fn counters(metrics: &MetricsRegistry) -> [Arc<Counter>; 3] {
        ["test.accepts", "test.busy_rejected", "test.spawn_failures"].map(|n| metrics.counter(n))
    }

    /// A daemon answering every message with `Pong` at `address`.
    fn ping_daemon(
        net: &ChannelNetwork,
        address: &str,
        cap: u32,
        idle: Duration,
        metrics: &MetricsRegistry,
    ) -> Daemon {
        let mut daemon = Daemon::new(Arc::new(net.clone()));
        let listener = net.listen(address).unwrap();
        let [a, b, c] = counters(metrics);
        let counted = AcceptCounters(&a, &b, &c);
        daemon.serve(listener, cap, idle, counted, "test", |_| (Message::Pong, || {})).unwrap();
        daemon
    }

    fn ping(conn: &mut dyn Connection) -> Result<Message> {
        call(conn, &Message::Ping, TIMEOUT)
    }

    #[test]
    fn connections_past_the_cap_get_busy_and_service_resumes() {
        let net = ChannelNetwork::new();
        let metrics = MetricsRegistry::new();
        let mut daemon = ping_daemon(&net, "capped", 2, KEEP_ALIVE, &metrics);

        // Fill both slots and prove their connection threads are live.
        let mut held: Vec<Box<dyn Connection>> = (0..2)
            .map(|_| {
                let mut c = net.connect("capped").unwrap();
                assert_eq!(ping(c.as_mut()).unwrap(), Message::Pong);
                c
            })
            .collect();

        // The next one is answered with an unsolicited retryable Busy.
        let mut rejected = net.connect("capped").unwrap();
        match rejected.recv_timeout(TIMEOUT).unwrap() {
            Message::Error { code, detail } => {
                let e = NetSolveError::from_code(code, detail);
                assert!(matches!(e, NetSolveError::Resource(_)), "got {e}");
                assert_eq!(e.class(), ErrorClass::Load { retry_after_ms: 0 }, "Busy is load: {e}");
            }
            other => panic!("expected Busy error, got {other:?}"),
        }
        // The held connections are still served while the cap sheds.
        assert_eq!(ping(held[0].as_mut()).unwrap(), Message::Pong);

        // One closes: the daemon serves newcomers again.
        held.pop();
        wait_for("a freed slot to serve a new connection", || {
            let mut c = net.connect("capped").unwrap();
            matches!(ping(c.as_mut()), Ok(Message::Pong))
        });

        let snap = metrics.snapshot("test");
        assert!(snap.counter("test.busy_rejected") >= 1);
        assert!(snap.counter("test.accepts") >= 4);
        assert_eq!(snap.counter("test.spawn_failures"), 0);
        daemon.stop();
    }

    #[test]
    fn every_runs_its_closure_until_stopped() {
        let net = ChannelNetwork::new();
        let mut daemon = Daemon::new(Arc::new(net));
        let runs = Arc::new(AtomicU32::new(0));
        let counted = Arc::clone(&runs);
        daemon
            .every("ticker", Duration::from_millis(2), move || {
                counted.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        wait_for("three ticks", || runs.load(Ordering::Relaxed) >= 3);
        daemon.stop();
        assert_eq!(
            Arc::strong_count(&runs),
            1,
            "stop() must have joined the worker"
        );
    }

    /// `stop()` must not wait out a worker's interval, and once it returns
    /// every thread the skeleton started has exited: each thread owns a
    /// clone of `alive` through its closure, so a count of one proves the
    /// closures — and with them the threads — are gone.
    #[test]
    fn stop_wakes_a_waiting_worker_and_leaves_no_thread_behind() {
        let net = ChannelNetwork::new();
        let metrics = MetricsRegistry::new();
        let alive = Arc::new(());
        let mut daemon = Daemon::new(Arc::new(net.clone()));
        let (in_handler, in_worker) = (Arc::clone(&alive), Arc::clone(&alive));
        let [a, b, c] = counters(&metrics);
        let counted = AcceptCounters(&a, &b, &c);
        daemon
            .serve(net.listen("d").unwrap(), 4, KEEP_ALIVE, counted, "test", move |_| {
                let _held = &in_handler;
                (Message::Pong, || {})
            })
            .unwrap();
        daemon
            .every("slow", Duration::from_secs(60), move || {
                let _held = &in_worker;
            })
            .unwrap();
        // A connection that comes and goes: its thread must be gone too.
        {
            let mut c = net.connect("d").unwrap();
            assert_eq!(ping(c.as_mut()).unwrap(), Message::Pong);
        }
        assert_eq!(Arc::strong_count(&alive), 3);

        let started = Instant::now();
        daemon.stop();
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "stop() waited out the worker's interval: {:?}",
            started.elapsed()
        );
        wait_for("the closed connection's thread to exit", || {
            Arc::strong_count(&alive) == 1
        });
        assert!(daemon.stop_signal().is_stopped());
        // The accept thread took its listener with it.
        assert!(net.listen("d").is_ok(), "listener still bound after stop()");
        daemon.stop(); // idempotent
    }

    /// An idle connection gives its slot back after the keep-alive time:
    /// with a cap of one, a newcomer is shed while the holder is active
    /// and served once the holder has gone quiet. The holder then finds
    /// its connection closed — the failure a client answers by dialling
    /// again — and a fresh dial is served.
    #[test]
    fn an_idle_connection_frees_its_slot_after_the_keep_alive_time() {
        let net = ChannelNetwork::new();
        let metrics = MetricsRegistry::new();
        let mut daemon = ping_daemon(&net, "idle", 1, Duration::from_millis(50), &metrics);

        let mut holder = net.connect("idle").unwrap();
        assert_eq!(ping(holder.as_mut()).unwrap(), Message::Pong);
        let mut shed = net.connect("idle").unwrap();
        assert!(matches!(shed.recv_timeout(TIMEOUT).unwrap(), Message::Error { .. }));

        let fresh_dial_served = || {
            let mut c = net.connect("idle").unwrap();
            matches!(ping(c.as_mut()), Ok(Message::Pong))
        };
        // The holder never hangs up; only its silence frees the slot.
        wait_for("the idle holder's slot to serve a newcomer", fresh_dial_served);
        match ping(holder.as_mut()) {
            Err(NetSolveError::Transport(_)) => {}
            other => panic!("expected the kept connection to be closed, got {other:?}"),
        }
        wait_for("the holder's fresh dial to be served", fresh_dial_served);
        daemon.stop();
    }

    /// A stopped daemon answers nothing on a connection it still holds:
    /// the message is read and the connection dropped without a reply.
    #[test]
    fn a_stopped_daemon_goes_silent_on_its_kept_connections() {
        let net = ChannelNetwork::new();
        let metrics = MetricsRegistry::new();
        let mut daemon = ping_daemon(&net, "zombie", 4, KEEP_ALIVE, &metrics);
        let mut kept = net.connect("zombie").unwrap();
        assert_eq!(ping(kept.as_mut()).unwrap(), Message::Pong);
        daemon.stop();
        match ping(kept.as_mut()) {
            Err(NetSolveError::Transport(_)) => {}
            other => panic!("a stopped daemon answered: {other:?}"),
        }
    }
}
