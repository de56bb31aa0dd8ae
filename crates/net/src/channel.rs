//! In-process transport over crossbeam channels: a perfect pipe.
//!
//! This is the reproducible substitute for the paper's multi-machine
//! testbed: every component runs in one process (threads) and messages are
//! really marshaled to frame bytes (so marshaling cost is honest), but
//! delivery is instant, lossless and fault-free — the in-process twin of
//! loopback TCP. Everything that perturbs traffic (a modelled link's
//! latency, bandwidth and jitter, loss, refused dials, killed hosts) is
//! [`crate::chaos::ChaosTransport`]'s job, over this transport or TCP alike.
//!
//! A [`ChannelNetwork`] is an isolated universe: listeners register by
//! name and connections are made by name, and every component on it reads
//! one clock — a virtual one replays the whole domain without waiting.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use netsolve_core::clock::{Clock, RealClock};
use netsolve_core::error::{NetSolveError, Result};
use netsolve_proto::{encode_frame_into, parse_frame, Body, Message, RequestView};
use parking_lot::Mutex;

use crate::transport::{Connection, Listener, Transport};

struct ConnRequest {
    to_server: Receiver<Vec<u8>>,
    to_client: Sender<Vec<u8>>,
}

/// An isolated in-process network. Cloning shares the universe.
#[derive(Clone)]
pub struct ChannelNetwork {
    listeners: Arc<Mutex<HashMap<String, Sender<ConnRequest>>>>,
    clock: Arc<dyn Clock>,
}

impl ChannelNetwork {
    /// An empty network on the system clock.
    pub fn new() -> Self {
        ChannelNetwork { listeners: Arc::default(), clock: Arc::new(RealClock) }
    }

    /// This network with every component on it reading `clock`.
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }
}

impl Default for ChannelNetwork {
    fn default() -> Self {
        Self::new()
    }
}

impl Transport for ChannelNetwork {
    fn listen(&self, hint: &str) -> Result<Box<dyn Listener>> {
        let mut listeners = self.listeners.lock();
        if listeners.contains_key(hint) {
            return Err(NetSolveError::Transport(format!(
                "address '{hint}' already in use"
            )));
        }
        let (tx, rx) = unbounded();
        listeners.insert(hint.to_string(), tx);
        Ok(Box::new(ChannelListener {
            address: hint.to_string(),
            incoming: rx,
            network: self.clone(),
        }))
    }

    fn connect(&self, address: &str) -> Result<Box<dyn Connection>> {
        let listener_tx = self.listeners.lock().get(address).cloned().ok_or_else(|| {
            NetSolveError::ServerUnreachable(format!("no listener at '{address}'"))
        })?;
        let (c2s_tx, c2s_rx) = unbounded();
        let (s2c_tx, s2c_rx) = unbounded();
        listener_tx
            .send(ConnRequest { to_server: c2s_rx, to_client: s2c_tx })
            .map_err(|_| NetSolveError::ServerUnreachable(format!("{address} stopped listening")))?;
        Ok(Box::new(ChannelConnection {
            tx: c2s_tx,
            rx: s2c_rx,
            peer: address.to_string(),
        }))
    }

    fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.clock)
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
            peer: "client".to_string(),
        }))
    }

    fn address(&self) -> String {
        self.address.clone()
    }
}

impl Drop for ChannelListener {
    fn drop(&mut self) {
        self.network.listeners.lock().remove(&self.address);
    }
}

/// One end of a connection: whole frames, one `Vec` per message.
struct ChannelConnection {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    peer: String,
}

impl ChannelConnection {
    fn hung_up(&self) -> NetSolveError {
        NetSolveError::Transport(format!("{} hung up", self.peer))
    }

    /// Frame `body` into the `Vec` the receiver will own.
    fn write(&mut self, body: &dyn Body) -> Result<()> {
        let mut bytes = Vec::new();
        encode_frame_into(body, &mut bytes)?;
        self.tx.send(bytes).map_err(|_| self.hung_up())
    }
}

fn unframe(bytes: Vec<u8>) -> Result<Message> {
    let (msg, used) = parse_frame(&bytes)?;
    if used != bytes.len() {
        return Err(NetSolveError::Protocol("channel frame has trailing bytes".into()));
    }
    Ok(msg)
}

impl Connection for ChannelConnection {
    fn send(&mut self, msg: &Message) -> Result<()> {
        self.write(msg)
    }

    fn send_request(&mut self, req: &RequestView<'_>) -> Result<()> {
        self.write(req)
    }

    fn recv(&mut self) -> Result<Message> {
        unframe(self.rx.recv().map_err(|_| self.hung_up())?)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Message> {
        let bytes = self.rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => {
                NetSolveError::Timeout(format!("no reply from {} within {timeout:?}", self.peer))
            }
            RecvTimeoutError::Disconnected => self.hung_up(),
        })?;
        unframe(bytes)
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
