//! In-process transport over crossbeam channels with a link model.
//!
//! This is the reproducible substitute for the paper's multi-machine
//! testbed: every component runs in one process (threads), messages are
//! really marshaled to frame bytes (so marshaling cost is honest), and
//! each delivery is delayed according to a [`LinkModel`] — latency plus
//! bytes/bandwidth — with optional failure injection.
//!
//! A [`ChannelNetwork`] is an isolated universe: listeners register by
//! name, connections are made by name, and hosts can be taken down to
//! exercise the client's fault-tolerance path.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use netsolve_core::error::{NetSolveError, Result};
use netsolve_core::rng::Rng64;
use netsolve_proto::{encode_frame_into, parse_frame, Message};
use parking_lot::Mutex;

use crate::link::LinkModel;
use crate::transport::{Connection, Listener, Transport};

/// An envelope in flight: frame bytes plus the instant they "arrive".
struct Envelope {
    bytes: Vec<u8>,
    deliver_at: Instant,
}

struct ConnRequest {
    to_server: Receiver<Envelope>,
    to_client: Sender<Envelope>,
    peer: String,
}

#[derive(Default)]
struct Registry {
    listeners: HashMap<String, Sender<ConnRequest>>,
    down: HashMap<String, bool>,
}

/// An isolated in-process network. Cloning shares the universe.
#[derive(Clone)]
pub struct ChannelNetwork {
    registry: Arc<Mutex<Registry>>,
    link: Arc<Mutex<LinkModel>>,
    rng: Arc<Mutex<Rng64>>,
}

impl ChannelNetwork {
    /// A network with an ideal link model.
    pub fn new() -> Self {
        Self::with_link(LinkModel::ideal(), 0x5EED)
    }

    /// A network whose every connection obeys `link`, with deterministic
    /// jitter/failure sampling from `seed`.
    pub fn with_link(link: LinkModel, seed: u64) -> Self {
        ChannelNetwork {
            registry: Arc::new(Mutex::new(Registry::default())),
            link: Arc::new(Mutex::new(link)),
            rng: Arc::new(Mutex::new(Rng64::new(seed))),
        }
    }

    /// Current link model.
    pub fn link(&self) -> LinkModel {
        *self.link.lock()
    }

    /// Mark an address as down: new connections to it fail with
    /// `ServerUnreachable` until [`ChannelNetwork::set_up`] is called.
    /// Existing connections keep working (matching a crashed-host model
    /// where the TCP reset arrives on next send) — sends to a down address
    /// also fail.
    pub fn set_down(&self, address: &str) {
        self.registry.lock().down.insert(address.to_string(), true);
    }

    /// Bring an address back up.
    pub fn set_up(&self, address: &str) {
        self.registry.lock().down.remove(address);
    }

    /// Whether an address is currently marked down.
    pub fn is_down(&self, address: &str) -> bool {
        self.registry.lock().down.get(address).copied().unwrap_or(false)
    }

    fn delay_for(&self, bytes: usize) -> Result<Duration> {
        let link = *self.link.lock();
        let mut rng = self.rng.lock();
        if link.sample_failure(&mut rng) {
            return Err(NetSolveError::Transport("injected link failure".into()));
        }
        let secs = link.sample_transfer_secs(bytes as u64, &mut rng);
        Ok(Duration::from_secs_f64(secs))
    }
}

impl Default for ChannelNetwork {
    fn default() -> Self {
        Self::new()
    }
}

impl Transport for ChannelNetwork {
    fn unblock(&self, address: &str) {
        // Bypass the down-marking: shutdown must always be possible.
        let listener_tx = self.registry.lock().listeners.get(address).cloned();
        if let Some(tx) = listener_tx {
            let (_c2s_tx, c2s_rx) = unbounded();
            let (s2c_tx, _s2c_rx) = unbounded();
            let _ = tx.send(ConnRequest {
                to_server: c2s_rx,
                to_client: s2c_tx,
                peer: "shutdown-wake".to_string(),
            });
        }
    }

    fn listen(&self, hint: &str) -> Result<Box<dyn Listener>> {
        let mut reg = self.registry.lock();
        if reg.listeners.contains_key(hint) {
            return Err(NetSolveError::Transport(format!(
                "address '{hint}' already in use"
            )));
        }
        let (tx, rx) = unbounded();
        reg.listeners.insert(hint.to_string(), tx);
        Ok(Box::new(ChannelListener {
            address: hint.to_string(),
            incoming: rx,
            network: self.clone(),
        }))
    }

    fn connect(&self, address: &str) -> Result<Box<dyn Connection>> {
        let listener_tx = {
            let reg = self.registry.lock();
            if reg.down.get(address).copied().unwrap_or(false) {
                return Err(NetSolveError::ServerUnreachable(format!(
                    "{address} is down"
                )));
            }
            reg.listeners
                .get(address)
                .cloned()
                .ok_or_else(|| {
                    NetSolveError::ServerUnreachable(format!("no listener at '{address}'"))
                })?
        };
        let (c2s_tx, c2s_rx) = unbounded();
        let (s2c_tx, s2c_rx) = unbounded();
        listener_tx
            .send(ConnRequest {
                to_server: c2s_rx,
                to_client: s2c_tx,
                peer: "client".to_string(),
            })
            .map_err(|_| NetSolveError::ServerUnreachable(format!("{address} stopped listening")))?;
        Ok(Box::new(ChannelConnection {
            tx: c2s_tx,
            rx: s2c_rx,
            peer: address.to_string(),
            network: self.clone(),
            scratch: Vec::new(),
        }))
    }
}

struct ChannelListener {
    address: String,
    incoming: Receiver<ConnRequest>,
    network: ChannelNetwork,
}

impl Listener for ChannelListener {
    fn accept(&self) -> Result<Box<dyn Connection>> {
        let req = self
            .incoming
            .recv()
            .map_err(|_| NetSolveError::Transport("listener closed".into()))?;
        Ok(Box::new(ChannelConnection {
            tx: req.to_client,
            rx: req.to_server,
            peer: req.peer,
            network: self.network.clone(),
            scratch: Vec::new(),
        }))
    }

    fn address(&self) -> String {
        self.address.clone()
    }
}

impl Drop for ChannelListener {
    fn drop(&mut self) {
        self.network.registry.lock().listeners.remove(&self.address);
    }
}

struct ChannelConnection {
    tx: Sender<Envelope>,
    rx: Receiver<Envelope>,
    peer: String,
    network: ChannelNetwork,
    /// Reused single-pass frame buffer; the envelope still needs owned
    /// bytes, so a send costs one clone of the scratch — but marshaling
    /// stays one pass with the CRC folded in.
    scratch: Vec<u8>,
}

impl ChannelConnection {
    fn unwrap_envelope(env: Envelope) -> Result<Message> {
        // Honour the link model's delivery time.
        let now = Instant::now();
        if env.deliver_at > now {
            std::thread::sleep(env.deliver_at - now);
        }
        let (msg, used) = parse_frame(&env.bytes)?;
        if used != env.bytes.len() {
            return Err(NetSolveError::Protocol("envelope contains trailing bytes".into()));
        }
        Ok(msg)
    }
}

impl Connection for ChannelConnection {
    fn send(&mut self, msg: &Message) -> Result<()> {
        if self.network.is_down(&self.peer) {
            return Err(NetSolveError::ServerUnreachable(format!(
                "{} is down",
                self.peer
            )));
        }
        encode_frame_into(msg, &mut self.scratch)?;
        let bytes = self.scratch.clone();
        let delay = self.network.delay_for(bytes.len())?;
        let env = Envelope { bytes, deliver_at: Instant::now() + delay };
        self.tx
            .send(env)
            .map_err(|_| NetSolveError::Transport(format!("{} hung up", self.peer)))
    }

    fn recv(&mut self) -> Result<Message> {
        let env = self
            .rx
            .recv()
            .map_err(|_| NetSolveError::Transport(format!("{} hung up", self.peer)))?;
        Self::unwrap_envelope(env)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Message> {
        let env = self.rx.recv_timeout(timeout).map_err(|e| match e {
            crossbeam::channel::RecvTimeoutError::Timeout => {
                NetSolveError::Timeout(format!("no reply from {} within {timeout:?}", self.peer))
            }
            crossbeam::channel::RecvTimeoutError::Disconnected => {
                NetSolveError::Transport(format!("{} hung up", self.peer))
            }
        })?;
        Self::unwrap_envelope(env)
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::call;

    #[test]
    fn listen_connect_roundtrip() {
        let net = ChannelNetwork::new();
        let listener = net.listen("agent").unwrap();
        let handle = std::thread::spawn(move || {
            let mut conn = listener.accept().unwrap();
            let msg = conn.recv().unwrap();
            assert_eq!(msg, Message::Ping);
            conn.send(&Message::Pong).unwrap();
        });
        let mut conn = net.connect("agent").unwrap();
        let reply = call(conn.as_mut(), &Message::Ping, Duration::from_secs(5)).unwrap();
        assert_eq!(reply, Message::Pong);
        handle.join().unwrap();
    }

    #[test]
    fn connect_to_unknown_address_fails() {
        let net = ChannelNetwork::new();
        match net.connect("nowhere") {
            Err(NetSolveError::ServerUnreachable(_)) => {}
            Err(other) => panic!("expected unreachable, got {other}"),
            Ok(_) => panic!("expected unreachable, got a connection"),
        }
    }

    #[test]
    fn duplicate_listen_rejected() {
        let net = ChannelNetwork::new();
        let _l = net.listen("x").unwrap();
        assert!(net.listen("x").is_err());
    }

    #[test]
    fn listener_drop_frees_address() {
        let net = ChannelNetwork::new();
        {
            let _l = net.listen("x").unwrap();
        }
        assert!(net.listen("x").is_ok());
    }

    #[test]
    fn down_host_refuses_connections_and_sends() {
        let net = ChannelNetwork::new();
        let _listener = net.listen("srv").unwrap();
        let mut conn = net.connect("srv").unwrap();
        net.set_down("srv");
        assert!(net.connect("srv").is_err());
        assert!(conn.send(&Message::Ping).is_err());
        net.set_up("srv");
        assert!(net.connect("srv").is_ok());
        assert!(conn.send(&Message::Ping).is_ok());
    }

    #[test]
    fn link_latency_delays_delivery() {
        let link = LinkModel::ideal().with_latency(0.05);
        let net = ChannelNetwork::with_link(link, 7);
        let listener = net.listen("slow").unwrap();
        let handle = std::thread::spawn(move || {
            let mut conn = listener.accept().unwrap();
            let start = Instant::now();
            let _ = conn.recv().unwrap();
            start.elapsed()
        });
        let mut conn = net.connect("slow").unwrap();
        conn.send(&Message::Ping).unwrap();
        let elapsed = handle.join().unwrap();
        assert!(elapsed >= Duration::from_millis(45), "{elapsed:?}");
    }

    #[test]
    fn bandwidth_delays_scale_with_size() {
        // 1 MB/s: a ~80 KB message takes ~80 ms, a tiny one ~0.
        let link = LinkModel::ideal().with_bandwidth(1e6);
        let net = ChannelNetwork::with_link(link, 8);
        let listener = net.listen("bw").unwrap();
        let handle = std::thread::spawn(move || {
            let mut conn = listener.accept().unwrap();
            let start = Instant::now();
            let _ = conn.recv().unwrap();
            let small = start.elapsed();
            let start = Instant::now();
            let _ = conn.recv().unwrap();
            let big = start.elapsed();
            (small, big)
        });
        let mut conn = net.connect("bw").unwrap();
        conn.send(&Message::Ping).unwrap();
        // ~80 KB payload
        conn.send(&Message::RequestSubmit {
            request_id: 1,
            deadline_ms: 0,
            problem: "dnrm2".into(),
            inputs: vec![vec![0.0f64; 10_000].into()],
            trace_id: 0,
            parent_span: 0,
        })
        .unwrap();
        let (small, big) = handle.join().unwrap();
        assert!(big > small + Duration::from_millis(40), "small={small:?} big={big:?}");
    }

    #[test]
    fn injected_failures_surface_as_transport_errors() {
        let link = LinkModel::ideal().with_failure_prob(1.0);
        let net = ChannelNetwork::with_link(link, 9);
        let _listener = net.listen("flaky").unwrap();
        let mut conn = net.connect("flaky").unwrap();
        assert!(matches!(
            conn.send(&Message::Ping),
            Err(NetSolveError::Transport(_))
        ));
    }

    #[test]
    fn recv_timeout_fires() {
        let net = ChannelNetwork::new();
        let _listener = net.listen("quiet").unwrap();
        let mut conn = net.connect("quiet").unwrap();
        match conn.recv_timeout(Duration::from_millis(30)) {
            Err(NetSolveError::Timeout(_)) => {}
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn networks_are_isolated_universes() {
        let net1 = ChannelNetwork::new();
        let net2 = ChannelNetwork::new();
        let _l = net1.listen("only-in-net1").unwrap();
        assert!(net2.connect("only-in-net1").is_err());
    }

    #[test]
    fn peer_address_reported() {
        let net = ChannelNetwork::new();
        let _l = net.listen("abc").unwrap();
        let conn = net.connect("abc").unwrap();
        assert_eq!(conn.peer(), "abc");
    }
}
