//! Real TCP transport over `std::net`, for running an actual distributed
//! NetSolve domain (agent, servers and clients in separate processes).

use std::io::BufWriter;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::time::Duration;

use netsolve_core::config::RetryPolicy;
use netsolve_core::error::{NetSolveError, Result};
use netsolve_proto::{
    write_message_into, write_message_streamed, FrameReader, Message, DEFAULT_STREAM_CHUNK,
    DEFAULT_STREAM_THRESHOLD, VERSION,
};

use crate::transport::{Connection, Listener, Transport};

/// TCP transport factory. Addresses are `host:port` strings.
///
/// Dials are bounded by a connect timeout and writes by a write timeout,
/// so a black-holed host (routing loop, dropped SYN, wedged peer) turns
/// into a clean retryable error instead of an indefinite hang.
#[derive(Debug, Clone)]
pub struct TcpTransport {
    connect_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
}

/// Upper bound on a dial before the target counts as unreachable.
const DEFAULT_CONNECT_TIMEOUT: Duration = Duration::from_secs(10);
/// Upper bound on a blocked write before the peer counts as wedged.
const DEFAULT_WRITE_TIMEOUT: Duration = Duration::from_secs(30);

impl TcpTransport {
    /// TCP transport with the default connect/write timeouts.
    pub fn new() -> Self {
        TcpTransport {
            connect_timeout: Some(DEFAULT_CONNECT_TIMEOUT),
            write_timeout: Some(DEFAULT_WRITE_TIMEOUT),
        }
    }

    /// TCP transport whose connect and write timeouts follow a client
    /// retry policy: no single attempt should block longer than the
    /// policy's per-attempt timeout.
    pub fn from_retry_policy(retry: &RetryPolicy) -> Self {
        let bound = Duration::from_secs_f64(retry.attempt_timeout_secs.max(0.001));
        TcpTransport { connect_timeout: Some(bound), write_timeout: Some(bound) }
    }

    /// Override the timeouts explicitly; `None` means block indefinitely.
    pub fn with_timeouts(
        connect_timeout: Option<Duration>,
        write_timeout: Option<Duration>,
    ) -> Self {
        TcpTransport { connect_timeout, write_timeout }
    }
}

impl Default for TcpTransport {
    fn default() -> Self {
        Self::new()
    }
}

impl Transport for TcpTransport {
    fn listen(&self, hint: &str) -> Result<Box<dyn Listener>> {
        let listener = TcpListener::bind(hint)
            .map_err(|e| NetSolveError::Transport(format!("bind {hint}: {e}")))?;
        let address = listener
            .local_addr()
            .map_err(|e| NetSolveError::Transport(e.to_string()))?
            .to_string();
        Ok(Box::new(TcpListenerWrapper { listener, address, write_timeout: self.write_timeout }))
    }

    fn connect(&self, address: &str) -> Result<Box<dyn Connection>> {
        let stream = match self.connect_timeout {
            Some(bound) => {
                let addr = address
                    .to_socket_addrs()
                    .map_err(|e| NetSolveError::ServerUnreachable(format!("{address}: {e}")))?
                    .next()
                    .ok_or_else(|| {
                        NetSolveError::ServerUnreachable(format!("{address}: no addresses"))
                    })?;
                TcpStream::connect_timeout(&addr, bound)
            }
            None => TcpStream::connect(address),
        }
        .map_err(|e| NetSolveError::ServerUnreachable(format!("{address}: {e}")))?;
        TcpConnection::wrap(stream, self.write_timeout)
    }
}

struct TcpListenerWrapper {
    listener: TcpListener,
    address: String,
    write_timeout: Option<Duration>,
}

impl Listener for TcpListenerWrapper {
    fn accept(&self) -> Result<Box<dyn Connection>> {
        let (stream, _) = self
            .listener
            .accept()
            .map_err(|e| NetSolveError::Transport(format!("accept: {e}")))?;
        TcpConnection::wrap(stream, self.write_timeout)
    }

    fn address(&self) -> String {
        self.address.clone()
    }
}

struct TcpConnection {
    reader: TcpStream,
    writer: BufWriter<TcpStream>,
    peer: String,
    /// Reused frame buffer: steady-state sends marshal into warm memory
    /// and allocate nothing (see `write_message_into`). Messages above
    /// the streaming threshold bypass it entirely (chunked sends), so it
    /// never grows past the threshold either.
    scratch: Vec<u8>,
    /// Per-connection bounded-memory reader: every frame decodes through
    /// one reused window, however large the operand.
    frames: FrameReader,
}

impl TcpConnection {
    fn wrap(stream: TcpStream, write_timeout: Option<Duration>) -> Result<Box<dyn Connection>> {
        stream
            .set_nodelay(true)
            .map_err(|e| NetSolveError::Transport(e.to_string()))?;
        stream
            .set_write_timeout(write_timeout)
            .map_err(|e| NetSolveError::Transport(e.to_string()))?;
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "unknown".to_string());
        let writer_stream = stream
            .try_clone()
            .map_err(|e| NetSolveError::Transport(e.to_string()))?;
        Ok(Box::new(TcpConnection {
            reader: stream,
            writer: BufWriter::new(writer_stream),
            peer,
            scratch: Vec::new(),
            frames: FrameReader::default(),
        }))
    }
}

impl Connection for TcpConnection {
    fn send(&mut self, msg: &Message) -> Result<()> {
        // A counting pass (O(1) per bulk array) decides the route: large
        // operands stream through bounded chunks so the connection never
        // materializes a multi-megabyte frame, everything else takes the
        // single-pass scratch-buffer writer.
        if msg.encoded_len(VERSION) as usize > DEFAULT_STREAM_THRESHOLD {
            write_message_streamed(&mut self.writer, msg, DEFAULT_STREAM_CHUNK)?;
            Ok(())
        } else {
            write_message_into(&mut self.writer, msg, &mut self.scratch)
        }
    }

    fn recv(&mut self) -> Result<Message> {
        self.reader
            .set_read_timeout(None)
            .map_err(|e| NetSolveError::Transport(e.to_string()))?;
        self.frames.read_from(&mut self.reader)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Message> {
        self.reader
            .set_read_timeout(Some(timeout))
            .map_err(|e| NetSolveError::Transport(e.to_string()))?;
        self.frames.read_from(&mut self.reader).map_err(|e| match e {
            NetSolveError::Timeout(_) => {
                NetSolveError::Timeout(format!("no reply from {} within {timeout:?}", self.peer))
            }
            other => other,
        })
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
    fn tcp_roundtrip_on_loopback() {
        let transport = TcpTransport::new();
        let listener = transport.listen("127.0.0.1:0").unwrap();
        let address = listener.address();
        let handle = std::thread::spawn(move || {
            let mut conn = listener.accept().unwrap();
            loop {
                match conn.recv() {
                    Ok(Message::Ping) => conn.send(&Message::Pong).unwrap(),
                    Ok(other) => panic!("unexpected {other:?}"),
                    Err(_) => break, // client hung up
                }
            }
        });
        let mut conn = transport.connect(&address).unwrap();
        for _ in 0..3 {
            let reply = call(conn.as_mut(), &Message::Ping, Duration::from_secs(5)).unwrap();
            assert_eq!(reply, Message::Pong);
        }
        drop(conn);
        handle.join().unwrap();
    }

    #[test]
    fn tcp_large_payload_roundtrip() {
        let transport = TcpTransport::new();
        let listener = transport.listen("127.0.0.1:0").unwrap();
        let address = listener.address();
        let handle = std::thread::spawn(move || {
            let mut conn = listener.accept().unwrap();
            let msg = conn.recv().unwrap();
            conn.send(&msg).unwrap(); // echo
        });
        let mut conn = transport.connect(&address).unwrap();
        let payload = Message::RequestSubmit {
            request_id: 5,
            deadline_ms: 0,
            problem: "dnrm2".into(),
            inputs: vec![vec![1.25f64; 100_000].into()],
            trace_id: 0,
            parent_span: 0,
        };
        conn.send(&payload).unwrap();
        let echoed = conn.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(echoed, payload);
        handle.join().unwrap();
    }

    #[test]
    fn connect_to_closed_port_is_unreachable() {
        let transport = TcpTransport::new();
        // Bind and immediately drop to find a port that is now closed.
        let port = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        match transport.connect(&format!("127.0.0.1:{port}")) {
            Err(NetSolveError::ServerUnreachable(_)) => {}
            Err(other) => panic!("expected unreachable, got {other}"),
            Ok(_) => panic!("expected unreachable, got a connection"),
        }
    }

    #[test]
    fn connect_timeout_bounds_the_dial() {
        // A tight connect timeout must turn an unresponsive target into a
        // prompt ServerUnreachable, never an indefinite hang. The target
        // is a TEST-NET-1 address that nothing answers for.
        let transport = TcpTransport::with_timeouts(Some(Duration::from_millis(150)), None);
        let started = std::time::Instant::now();
        match transport.connect("192.0.2.1:9") {
            Err(NetSolveError::ServerUnreachable(_)) => {}
            Err(other) => panic!("expected unreachable, got {other}"),
            // Some CI sandboxes transparently proxy outbound dials and
            // answer for TEST-NET-1; the boundedness check below is the
            // part that must hold everywhere.
            Ok(_) => {}
        }
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "dial not bounded: took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn retry_policy_derived_transport_works_on_loopback() {
        let retry = netsolve_core::config::RetryPolicy::default();
        let transport = TcpTransport::from_retry_policy(&retry);
        let listener = transport.listen("127.0.0.1:0").unwrap();
        let address = listener.address();
        let handle = std::thread::spawn(move || {
            let mut conn = listener.accept().unwrap();
            if let Ok(Message::Ping) = conn.recv() {
                conn.send(&Message::Pong).unwrap();
            }
        });
        let mut conn = transport.connect(&address).unwrap();
        let reply = call(conn.as_mut(), &Message::Ping, Duration::from_secs(5)).unwrap();
        assert_eq!(reply, Message::Pong);
        handle.join().unwrap();
    }

    #[test]
    fn recv_timeout_on_silent_peer() {
        let transport = TcpTransport::new();
        let listener = transport.listen("127.0.0.1:0").unwrap();
        let address = listener.address();
        let _keepalive = std::thread::spawn(move || {
            let _conn = listener.accept().unwrap();
            std::thread::sleep(Duration::from_millis(400));
        });
        let mut conn = transport.connect(&address).unwrap();
        match conn.recv_timeout(Duration::from_millis(50)) {
            Err(NetSolveError::Timeout(_)) => {}
            other => panic!("expected timeout, got {other:?}"),
        }
    }
}
