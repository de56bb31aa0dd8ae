//! Real TCP transport over `std::net`, for running an actual distributed
//! NetSolve domain (agent, servers and clients in separate processes).

use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use netsolve_core::config::RetryPolicy;
use netsolve_core::error::{NetSolveError, Result};
use netsolve_proto::{FrameReader, FrameWriter, Message, RequestView};

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
/// How long the dialling end looks for its reply before it sleeps in the
/// kernel (see [`TcpConnection::poll_for_reply`]): about two wake-ups of
/// an idle core on a virtual machine, so a reply that is already on its
/// way never costs one, and a call that takes milliseconds pays a few
/// percent of itself at most.
const REPLY_POLL: Duration = Duration::from_micros(100);

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
        TcpConnection::wrap(stream, self.write_timeout, true)
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
        TcpConnection::wrap(stream, self.write_timeout, false)
    }

    fn address(&self) -> String {
        self.address.clone()
    }
}

struct TcpConnection {
    stream: TcpStream,
    peer: String,
    /// The connection's two windows, one per direction: every frame,
    /// small or large, is decoded through `reader`'s and sent through
    /// `writer`'s, both reused across frames and bounded whatever the
    /// operand size.
    reader: FrameReader,
    writer: FrameWriter,
    /// This end dialled: what it waits for with a timeout is the reply to
    /// a request it has just sent, so it polls for it before it sleeps.
    /// The accepting end waits for requests, which come when they come.
    dialled: bool,
}

impl TcpConnection {
    fn wrap(
        stream: TcpStream,
        write_timeout: Option<Duration>,
        dialled: bool,
    ) -> Result<Box<dyn Connection>> {
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
        Ok(Box::new(TcpConnection {
            stream,
            peer,
            reader: FrameReader::default(),
            writer: FrameWriter::default(),
            dialled,
        }))
    }

    /// Look for the first byte of the reply for up to [`REPLY_POLL`]
    /// without sleeping, offering the core to any other runnable thread
    /// between looks.
    ///
    /// A caller that sleeps the moment its request is sent leaves its
    /// core idle, and the kernel moves whichever thread wakes next onto
    /// an idle core. With connections kept, the threads of a call — the
    /// caller, the agent's and the server's connection threads — are
    /// long-lived, and whether they ended up on one core or across two
    /// (each hand-off then a wake-up of a halted core) made the same
    /// loopback workload run at 12 000 or 42 000 calls a second from one
    /// quarter second to the next (EXPERIMENTS, "Kept connections"). A
    /// caller that stays runnable until the reply is due takes the core's
    /// idleness, and with it the lottery, out of the call.
    fn poll_for_reply(&self, limit: Duration) -> Result<()> {
        let transport = |e: std::io::Error| NetSolveError::Transport(e.to_string());
        self.stream.set_nonblocking(true).map_err(transport)?;
        let begun = Instant::now();
        // Data, end of stream or an error: all are the blocking read's to
        // report. Only "nothing yet" keeps the poll going.
        while matches!(self.stream.peek(&mut [0]), Err(e) if e.kind() == ErrorKind::WouldBlock)
            && begun.elapsed() < limit
        {
            std::thread::yield_now();
        }
        self.stream.set_nonblocking(false).map_err(transport)
    }
}

impl Connection for TcpConnection {
    fn send(&mut self, msg: &Message) -> Result<()> {
        self.writer.write_to(&mut self.stream, msg).map(drop)
    }

    fn send_request(&mut self, req: &RequestView<'_>) -> Result<()> {
        self.writer.write_to(&mut self.stream, req).map(drop)
    }

    fn recv(&mut self) -> Result<Message> {
        self.stream
            .set_read_timeout(None)
            .map_err(|e| NetSolveError::Transport(e.to_string()))?;
        self.reader.read_from(&mut self.stream)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Message> {
        if self.dialled {
            self.poll_for_reply(REPLY_POLL.min(timeout))?;
        }
        // A zero read timeout means "block forever" to the socket, and std
        // refuses it; the shortest one it takes (1 µs) is a zero wait.
        self.stream
            .set_read_timeout(Some(timeout.max(Duration::from_micros(1))))
            .map_err(|e| NetSolveError::Transport(e.to_string()))?;
        self.reader.read_from(&mut self.stream).map_err(|e| match e {
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
    use netsolve_core::DataObject;
    use netsolve_proto::frame::HEADER_LEN;
    use netsolve_proto::{DEFAULT_STREAM_THRESHOLD, VERSION};

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

    /// A request whose frame is exactly `frame_len` bytes (a multiple of
    /// four, as every XDR payload is): half of it a vector operand, the
    /// rest a text operand.
    fn request_of_frame_len(frame_len: usize) -> Message {
        let build = |elems: usize, text: usize| Message::RequestSubmit {
            request_id: frame_len as u64,
            deadline_ms: 0,
            problem: "dnrm2".into(),
            inputs: vec![vec![1.25f64; elems].into(), DataObject::Text("t".repeat(text))],
            trace_id: 0,
            parent_span: 0,
        };
        let elems = frame_len / 16;
        let framing = HEADER_LEN + build(elems, 0).encoded_len(VERSION) as usize + 4;
        build(elems, frame_len - framing)
    }

    #[test]
    fn tcp_large_payload_roundtrip() {
        // An 800 KB operand, then frames one word inside, exactly at and
        // one word past the send window (header, 1 MiB payload, CRC), and
        // 2.5 MiB.
        let mut payloads = vec![Message::RequestSubmit {
            request_id: 5,
            deadline_ms: 0,
            problem: "dnrm2".into(),
            inputs: vec![vec![1.25f64; 100_000].into()],
            trace_id: 0,
            parent_span: 0,
        }];
        let window = HEADER_LEN + DEFAULT_STREAM_THRESHOLD + 4;
        for frame_len in [window - 4, window, window + 4, 5 << 19] {
            let msg = request_of_frame_len(frame_len);
            assert_eq!(HEADER_LEN + msg.encoded_len(VERSION) as usize + 4, frame_len);
            payloads.push(msg);
        }
        let rounds = payloads.len();
        let transport = TcpTransport::new();
        let listener = transport.listen("127.0.0.1:0").unwrap();
        let address = listener.address();
        let handle = std::thread::spawn(move || {
            let mut conn = listener.accept().unwrap();
            for _ in 0..rounds {
                let msg = conn.recv().unwrap();
                conn.send(&msg).unwrap(); // echo
            }
        });
        let mut conn = transport.connect(&address).unwrap();
        for payload in &payloads {
            conn.send(payload).unwrap();
            let echoed = conn.recv_timeout(Duration::from_secs(10)).unwrap();
            assert_eq!(&echoed, payload);
        }
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
    fn the_reply_poll_gives_way_to_an_ordinary_blocking_wait() {
        let transport = TcpTransport::new();
        let listener = transport.listen("127.0.0.1:0").unwrap();
        let address = listener.address();
        let late = REPLY_POLL * 50;
        let peer = std::thread::spawn(move || {
            let mut conn = listener.accept().unwrap();
            // One reply long after the poll has given up, one at once,
            // none to the third ping: silence until the dialler hangs up.
            for wait in [late, Duration::ZERO] {
                assert_eq!(conn.recv().unwrap(), Message::Ping);
                std::thread::sleep(wait);
                conn.send(&Message::Pong).unwrap();
            }
            assert_eq!(conn.recv().unwrap(), Message::Ping);
            assert!(conn.recv().is_err());
        });
        let mut conn = transport.connect(&address).unwrap();
        for _ in 0..2 {
            let reply = call(conn.as_mut(), &Message::Ping, Duration::from_secs(5)).unwrap();
            assert_eq!(reply, Message::Pong);
        }
        // Had the poll left the socket non-blocking, this would return
        // the moment it found nothing instead of waiting the timeout out.
        let timeout = Duration::from_millis(50);
        let begun = Instant::now();
        match call(conn.as_mut(), &Message::Ping, timeout) {
            Err(NetSolveError::Timeout(_)) => {}
            other => panic!("expected timeout, got {other:?}"),
        }
        assert!(begun.elapsed() >= timeout, "gave up after {:?}", begun.elapsed());
        drop(conn);
        peer.join().unwrap();
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
