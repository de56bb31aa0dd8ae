//! Transport abstraction: how NetSolve components exchange protocol
//! messages.
//!
//! Two implementations share this trait surface:
//!
//! * [`crate::tcp::TcpTransport`] — real sockets, for running an actual
//!   distributed demo;
//! * [`crate::channel::ChannelNetwork`] — fault-free in-process channels,
//!   so a whole domain runs in one process.
//!
//! [`crate::chaos::ChaosTransport`] decorates either with a modelled link
//! and seeded faults, the reproducible substitute for the paper's
//! multi-machine testbed.

use std::sync::Arc;
use std::time::Duration;

use netsolve_core::clock::{Clock, RealClock};
use netsolve_core::error::Result;
use netsolve_proto::{Message, RequestView};

/// A bidirectional, message-oriented connection between two components.
pub trait Connection: Send {
    /// Send one message (blocking until handed to the transport).
    fn send(&mut self, msg: &Message) -> Result<()>;

    /// Send a `RequestSubmit` framed straight from the caller's borrowed
    /// operands. The peer receives exactly what [`Connection::send`] of
    /// `req.to_message()` would deliver; that is also what this default
    /// does, copying every operand first. The crate's transports override
    /// it to encode from the borrow.
    fn send_request(&mut self, req: &RequestView<'_>) -> Result<()> {
        self.send(&req.to_message())
    }

    /// Receive the next message, blocking indefinitely.
    fn recv(&mut self) -> Result<Message>;

    /// Receive with a deadline; `Err(Timeout)` if nothing arrives in time.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Message>;

    /// Address of the remote peer, for logs and failure reports.
    fn peer(&self) -> String;
}

/// A listening endpoint producing [`Connection`]s.
pub trait Listener: Send {
    /// Block until a peer connects.
    fn accept(&self) -> Result<Box<dyn Connection>>;

    /// The address peers should dial to reach this listener.
    fn address(&self) -> String;
}

/// Factory for listeners and outbound connections.
pub trait Transport: Send + Sync {
    /// Open a listening endpoint. `hint` is transport-specific: a
    /// `host:port` for TCP (port 0 picks a free one), a registry name for
    /// the channel transport.
    fn listen(&self, hint: &str) -> Result<Box<dyn Listener>>;

    /// Dial a listener by address.
    fn connect(&self, address: &str) -> Result<Box<dyn Connection>>;

    /// Wake a blocked [`Listener::accept`] at `address` during shutdown.
    ///
    /// The default implementation simply dials the address and drops the
    /// connection. A transport that can refuse dials while the listener is
    /// still blocked (the chaos layer's `kill`) must override this so
    /// daemons can always shut down.
    fn unblock(&self, address: &str) {
        let _ = self.connect(address);
    }

    /// The clock every component on this transport reads and spends time
    /// through (DESIGN.md §4q): the system clock, unless the transport
    /// carries another — [`crate::ChannelNetwork::with_clock`] does, and
    /// the chaos layer forwards its inner transport's.
    fn clock(&self) -> Arc<dyn Clock> {
        Arc::new(RealClock)
    }
}

/// Blocking request/response helper used by every client-side call path.
pub fn call(conn: &mut dyn Connection, msg: &Message, timeout: Duration) -> Result<Message> {
    conn.send(msg)?;
    conn.recv_timeout(timeout)
}

/// One-shot exchange: dial `address`, send `msg`, wait up to `timeout` for
/// the reply, hang up.
pub fn call_once(
    transport: &dyn Transport,
    address: &str,
    msg: &Message,
    timeout: Duration,
) -> Result<Message> {
    call(transport.connect(address)?.as_mut(), msg, timeout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChannelNetwork, TcpTransport};
    use netsolve_core::error::NetSolveError;

    /// A zero wait is a poll: with no reply pending it is a `Timeout` — a
    /// socket refuses a zero read timeout, which must not surface as a
    /// transport fault — and the connection completes the next exchange.
    #[test]
    fn a_zero_wait_with_nothing_pending_is_a_timeout() {
        let (tcp, channel) = (TcpTransport::new(), ChannelNetwork::new());
        let transports: [(&dyn Transport, &str); 2] =
            [(&tcp, "127.0.0.1:0"), (&channel, "zero-wait")];
        for (transport, hint) in transports {
            let listener = transport.listen(hint).unwrap();
            let address = listener.address();
            let peer = std::thread::spawn(move || {
                let mut conn = listener.accept().unwrap();
                while let Ok(Message::Ping) = conn.recv() {
                    conn.send(&Message::Pong).unwrap();
                }
            });
            let mut conn = transport.connect(&address).unwrap();
            match conn.recv_timeout(Duration::ZERO) {
                Err(NetSolveError::Timeout(_)) => {}
                other => panic!("{hint}: expected a timeout, got {other:?}"),
            }
            let reply = call(conn.as_mut(), &Message::Ping, Duration::from_secs(5));
            assert_eq!(reply.unwrap(), Message::Pong, "{hint}");
            drop(conn);
            peer.join().unwrap();
        }
    }
}
