//! The one layer that perturbs live traffic, over any [`Transport`].
//!
//! [`ChaosTransport`] wraps an inner transport — the fault-free
//! [`crate::channel::ChannelNetwork`] or real TCP — and perturbs the
//! *outbound* side, every connection obtained through
//! [`Transport::connect`], with seeded, reproducible effects:
//!
//! * **a modelled link** — every exchange crosses [`ChaosPolicy::link`]
//!   (latency + bytes/bandwidth + jitter, see below);
//! * **connection refusal** — `connect` fails with `ServerUnreachable`;
//! * **mid-stream resets** — a send or receive fails with `Transport`
//!   (this is also how a lossy link loses a message);
//! * **byte corruption** — a received frame has one byte flipped in its
//!   payload/CRC region before re-parsing, so the real CRC32 validation
//!   path catches it and the caller sees a retryable `Corrupt` error;
//! * **black-holed reads** — a receive consumes its timeout (bounded by
//!   [`ChaosPolicy::black_hole_cap`]) and reports `Timeout`;
//! * **killed hosts** — [`ChaosTransport::kill`] refuses dials to an
//!   address and resets live connections to it until
//!   [`ChaosTransport::revive`].
//!
//! All draws come from a [`Rng64`] seeded at construction: the transport
//! forks an independent stream per connection, so a fixed seed plus a
//! fixed per-connection message sequence replays the same faults and the
//! same jitter. Listeners are passed through untouched — daemons run clean
//! while the chaos is applied on the dialling side, which is where every
//! exchange in this system starts and where the client's
//! retry/backoff/deadline machinery lives.
//!
//! **Link timing.** A frame of `b` bytes (header and CRC included) takes
//! [`LinkModel::sample_transfer_secs`]`(b)` each way. Both legs of an
//! exchange are charged on the dialling side: `send` hands the request to
//! the inner transport at once, and the receive that takes the reply
//! hands it over no earlier than `transfer(request) + transfer(reply)`
//! after the inner transport produced it. The server therefore sees each
//! request `transfer(request)` earlier than a real link would deliver it;
//! the caller's round trip is the modelled one. That receive never
//! returns later than its timeout: a reply the link makes late is a
//! `Timeout`, as on a real link, and is lost to the caller.
//!
//! All link time and black-holed waits are spent on the inner transport's
//! clock (DESIGN.md §4q), so over a virtual-clock
//! [`crate::channel::ChannelNetwork`] an exchange moves the clock by
//! exactly its sampled legs and takes no wall time.
//!
//! Every injected fault is counted; [`ChaosTransport::stats`] exposes a
//! snapshot so tests can assert, e.g., that every injected corruption was
//! detected by CRC validation. [`ChaosTransport::with_metrics`] keeps
//! the same counts in a [`MetricsRegistry`] under `chaos.*` names, so
//! the injected-equals-detected invariant is assertable from a metrics
//! snapshot (including one scraped over the wire) rather than only from
//! a test-local handle.

use std::collections::HashSet;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use netsolve_core::clock::Clock;
use netsolve_core::error::{NetSolveError, Result};
use netsolve_core::rng::Rng64;
use netsolve_obs::{MetricsRegistry, SpanContext, Tracer};
use netsolve_proto::frame::HEADER_LEN;
use netsolve_proto::{encode_frame_into, parse_frame, Body, Message, RequestView};
use parking_lot::Mutex;

use crate::link::LinkModel;
use crate::transport::{Connection, Listener, Transport};

/// The link and fault mix applied by a [`ChaosTransport`]. Probabilities
/// are per opportunity: `refuse_prob` per dial, the others per
/// send/receive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosPolicy {
    /// The link every exchange crosses (see the module docs for how its
    /// time is charged). [`LinkModel::ideal`] adds no delay and draws
    /// nothing from the fault stream.
    pub link: LinkModel,
    /// Probability a `connect` is refused outright.
    pub refuse_prob: f64,
    /// Probability a send or receive dies with a connection reset.
    pub reset_prob: f64,
    /// Probability a received message is delivered corrupted (one byte
    /// flipped in the frame's payload/CRC region — always CRC-detectable).
    pub corrupt_prob: f64,
    /// Probability a receive is black-holed: nothing arrives and the
    /// caller's timeout (capped by `black_hole_cap`) is consumed.
    pub black_hole_prob: f64,
    /// Ceiling on how long a black-holed read actually blocks, keeping
    /// soak tests bounded even when callers pass long timeouts.
    pub black_hole_cap: Duration,
}

impl Default for ChaosPolicy {
    fn default() -> Self {
        ChaosPolicy {
            link: LinkModel::ideal(),
            refuse_prob: 0.0,
            reset_prob: 0.0,
            corrupt_prob: 0.0,
            black_hole_prob: 0.0,
            black_hole_cap: Duration::from_millis(250),
        }
    }
}

impl ChaosPolicy {
    /// An ideal link and no faults — the wrapper becomes a transparent
    /// pass-through.
    pub fn calm() -> Self {
        ChaosPolicy::default()
    }

    /// Set the link every exchange crosses.
    pub fn with_link(mut self, link: LinkModel) -> Self {
        self.link = link;
        self
    }

    /// Set the connection-refusal probability.
    pub fn with_refusals(mut self, p: f64) -> Self {
        self.refuse_prob = p;
        self
    }

    /// Set the mid-stream reset probability.
    pub fn with_resets(mut self, p: f64) -> Self {
        self.reset_prob = p;
        self
    }

    /// Set the received-message corruption probability.
    pub fn with_corruption(mut self, p: f64) -> Self {
        self.corrupt_prob = p;
        self
    }

    /// Set the black-holed-read probability.
    pub fn with_black_holes(mut self, p: f64) -> Self {
        self.black_hole_prob = p;
        self
    }
}

netsolve_obs::instruments! {
    /// Every fault count, under `chaos.*` names: on a registry of its own
    /// until [`ChaosTransport::with_metrics`] resolves them on another.
    pub(crate) struct ChaosInstruments {
        connects: counter = "chaos.connects",
        refused: counter = "chaos.refused",
        resets: counter = "chaos.resets",
        corruptions_injected: counter = "chaos.corruptions_injected",
        corruptions_detected: counter = "chaos.corruptions_detected",
        black_holes: counter = "chaos.black_holes",
        delays: counter = "chaos.delays",
        delivered_clean: counter = "chaos.delivered_clean",
        kill_faults: counter = "chaos.kill_faults",
    }
}

struct Counters {
    m: ChaosInstruments,
    /// Optional tracer attached via [`ChaosTransport::with_tracer`]: each
    /// injected fault becomes a traceless point span, so a stitched run's
    /// tracer output shows *when* the chaos struck relative to the
    /// requests it perturbed.
    tracer: OnceLock<Arc<Tracer>>,
}

impl Counters {
    fn fault_point(&self, phase: &'static str, detail: String) {
        if let Some(t) = self.tracer.get() {
            t.point(SpanContext::NONE, "chaos", phase, detail);
        }
    }
}

/// Snapshot of everything a [`ChaosTransport`] has injected so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosStats {
    /// Successful dials through the wrapper (refused dials excluded).
    pub connects: u64,
    /// Dials refused.
    pub refused: u64,
    /// Sends/receives killed with a reset.
    pub resets: u64,
    /// Messages delivered with an injected byte flip.
    pub corruptions_injected: u64,
    /// Injected corruptions that frame validation caught. A correct CRC
    /// path keeps this equal to `corruptions_injected`.
    pub corruptions_detected: u64,
    /// Receives black-holed.
    pub black_holes: u64,
    /// Receives the link slowed (a nonzero transfer time charged).
    pub delays: u64,
    /// Messages delivered untouched.
    pub delivered_clean: u64,
    /// Dials, sends, and receives failed because the target was in the
    /// killed set (see [`ChaosTransport::kill`]).
    pub kill_faults: u64,
}

/// A [`Transport`] decorator applying a modelled link and seeded faults
/// to outbound connections. See the module docs for the catalogue.
pub struct ChaosTransport {
    inner: Arc<dyn Transport>,
    /// The inner transport's clock, read once.
    clock: Arc<dyn Clock>,
    policy: ChaosPolicy,
    rng: Mutex<Rng64>,
    counters: Arc<Counters>,
    /// Addresses currently "killed": dials are refused and established
    /// connections to them die with a reset, which is what a SIGKILLed
    /// daemon looks like from the dialing side. Shared with every
    /// connection so a kill takes effect mid-stream.
    dead: Arc<Mutex<HashSet<String>>>,
}

impl ChaosTransport {
    /// Wrap `inner`, drawing every fault decision and jitter sample from
    /// `seed`.
    pub fn new(inner: Arc<dyn Transport>, policy: ChaosPolicy, seed: u64) -> Self {
        ChaosTransport {
            clock: inner.clock(),
            inner,
            policy,
            rng: Mutex::new(Rng64::new(seed)),
            counters: Arc::new(Counters {
                m: ChaosInstruments::new(&MetricsRegistry::new()),
                tracer: OnceLock::new(),
            }),
            dead: Arc::new(Mutex::new(HashSet::new())),
        }
    }

    /// Kill `address`: from now on every dial to it is refused and every
    /// send/receive on an existing connection to it dies with a reset —
    /// the process-crash fault, deterministic rather than probabilistic.
    /// The daemon behind the address keeps running; only this transport's
    /// view of it dies, so [`ChaosTransport::revive`] models a restart.
    pub fn kill(&self, address: &str) {
        self.dead.lock().insert(address.to_string());
        self.counters.fault_point("kill", format!("address={address}"));
    }

    /// Undo a [`ChaosTransport::kill`]: the address accepts dials again.
    pub fn revive(&self, address: &str) {
        self.dead.lock().remove(address);
        self.counters.fault_point("revive", format!("address={address}"));
    }

    /// Count every fault in `registry` under `chaos.*` names
    /// (`chaos.refused`, `chaos.corruptions_injected`, …), so injected
    /// faults are assertable from the same metrics surface the daemons
    /// expose; [`ChaosTransport::stats`] reads the same counts. Call it
    /// before traffic starts: the counts start afresh on `registry`.
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> Self {
        let tracer = self.counters.tracer.clone();
        self.counters = Arc::new(Counters { m: ChaosInstruments::new(registry), tracer });
        self
    }

    /// Record every injected fault as a point span in `tracer` (component
    /// `chaos`), timestamped on the same epoch as real request spans.
    /// Attach before traffic starts, like [`ChaosTransport::with_metrics`].
    pub fn with_tracer(self, tracer: Arc<Tracer>) -> Self {
        let _ = self.counters.tracer.set(tracer);
        self
    }

    /// Snapshot of the injected-fault counters.
    pub fn stats(&self) -> ChaosStats {
        let c = &self.counters.m;
        ChaosStats {
            connects: c.connects.get(),
            refused: c.refused.get(),
            resets: c.resets.get(),
            corruptions_injected: c.corruptions_injected.get(),
            corruptions_detected: c.corruptions_detected.get(),
            black_holes: c.black_holes.get(),
            delays: c.delays.get(),
            delivered_clean: c.delivered_clean.get(),
            kill_faults: c.kill_faults.get(),
        }
    }

    /// The policy this transport injects.
    pub fn policy(&self) -> ChaosPolicy {
        self.policy
    }
}

impl Transport for ChaosTransport {
    fn listen(&self, hint: &str) -> Result<Box<dyn Listener>> {
        // Listeners pass through clean; chaos applies on the dialing side.
        self.inner.listen(hint)
    }

    fn connect(&self, address: &str) -> Result<Box<dyn Connection>> {
        // Fork an independent stream per dial so connections perturb each
        // other's fault schedules as little as possible.
        let mut rng = {
            let mut parent = self.rng.lock();
            let stream = parent.next_u64();
            parent.fork(stream)
        };
        if self.dead.lock().contains(address) {
            self.counters.m.kill_faults.inc();
            self.counters.fault_point("kill_refused", format!("address={address}"));
            return Err(NetSolveError::ServerUnreachable(format!(
                "chaos: {address} is killed"
            )));
        }
        if rng.chance(self.policy.refuse_prob) {
            self.counters.m.refused.inc();
            self.counters.fault_point("refused", format!("address={address}"));
            return Err(NetSolveError::ServerUnreachable(format!(
                "chaos: connection to {address} refused"
            )));
        }
        let inner = self.inner.connect(address)?;
        self.counters.m.connects.inc();
        Ok(Box::new(ChaosConnection {
            inner,
            clock: Arc::clone(&self.clock),
            policy: self.policy,
            rng,
            counters: Arc::clone(&self.counters),
            scratch: Vec::new(),
            address: address.to_string(),
            dead: Arc::clone(&self.dead),
            owed: Duration::ZERO,
        }))
    }

    fn unblock(&self, address: &str) {
        self.inner.unblock(address);
    }

    fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.clock)
    }
}

struct ChaosConnection {
    inner: Box<dyn Connection>,
    clock: Arc<dyn Clock>,
    policy: ChaosPolicy,
    rng: Rng64,
    counters: Arc<Counters>,
    /// Reused buffer for re-framing messages under corruption injection.
    scratch: Vec<u8>,
    /// Who this connection dials, for mid-stream kill checks.
    address: String,
    dead: Arc<Mutex<HashSet<String>>>,
    /// Link time of the requests sent since the last reply was taken,
    /// charged to the receive that takes the next one.
    owed: Duration,
}

impl ChaosConnection {
    /// A connection to a killed address dies with a reset on its next
    /// send or receive, like a TCP stream whose process was SIGKILLed.
    fn check_killed(&mut self, during: &str) -> Result<()> {
        if self.dead.lock().contains(&self.address) {
            self.counters.m.kill_faults.inc();
            self.counters
                .fault_point("kill_reset", format!("address={} during={during}", self.address));
            return Err(NetSolveError::Transport(format!(
                "chaos: {} killed during {during}",
                self.address
            )));
        }
        Ok(())
    }

    /// One leg of the link: `body`'s whole frame through the link model.
    fn transfer(&mut self, body: &dyn Body) -> Duration {
        let crc_len = 4;
        let frame = (HEADER_LEN + crc_len) as u64 + body.encoded_len();
        Duration::from_secs_f64(self.policy.link.sample_transfer_secs(frame, &mut self.rng))
    }

    /// Send `bodies` through `send` on the inner connection, past the
    /// send-side faults, and owe their legs of the link to the next
    /// receive. The faults are drawn once a write, not once a body, so a
    /// batch fails whole, as one TCP write does.
    fn outbound<'b>(
        &mut self,
        bodies: impl IntoIterator<Item = &'b dyn Body>,
        send: impl FnOnce(&mut dyn Connection) -> Result<()>,
    ) -> Result<()> {
        self.check_killed("send")?;
        self.maybe_reset("send")?;
        send(self.inner.as_mut())?;
        for body in bodies {
            let leg = self.transfer(body);
            self.owed += leg;
        }
        Ok(())
    }

    /// Hold `reply` until the link has carried both legs of its exchange,
    /// counted from the moment the inner transport produced it. A reply
    /// due after `deadline` is not handed over: the wait ends at the
    /// deadline with a `Timeout`.
    fn cross_link(&mut self, reply: &Message, deadline: Option<Instant>) -> Result<()> {
        let delay = std::mem::take(&mut self.owed) + self.transfer(reply);
        if delay.is_zero() {
            return Ok(());
        }
        self.counters.m.delays.inc();
        let due = self.clock.now() + delay;
        if let Some(deadline) = deadline.filter(|deadline| due > *deadline) {
            self.clock.sleep_until(deadline);
            return Err(NetSolveError::Timeout(format!(
                "chaos: the link delivers {}'s reply after the timeout",
                self.address
            )));
        }
        self.clock.sleep_until(due);
        Ok(())
    }

    /// Take the next reply, through every receive-side fault; `timeout`
    /// of `None` blocks as long as the inner transport does.
    fn receive(&mut self, timeout: Option<Duration>) -> Result<Message> {
        self.check_killed("recv")?;
        if self.rng.chance(self.policy.black_hole_prob) {
            self.counters.m.black_holes.inc();
            self.counters.fault_point("black_hole", String::new());
            let cap = self.policy.black_hole_cap;
            self.clock.sleep(timeout.map_or(cap, |t| t.min(cap)));
            return Err(NetSolveError::Timeout("chaos: read black-holed".into()));
        }
        self.maybe_reset("recv")?;
        let deadline = timeout.map(|t| self.clock.now() + t);
        let msg = match timeout {
            Some(t) => self.inner.recv_timeout(t)?,
            None => self.inner.recv()?,
        };
        self.cross_link(&msg, deadline)?;
        self.deliver(msg)
    }

    fn maybe_reset(&mut self, during: &str) -> Result<()> {
        if self.rng.chance(self.policy.reset_prob) {
            self.counters.m.resets.inc();
            self.counters.fault_point("reset", format!("during={during}"));
            return Err(NetSolveError::Transport(format!(
                "chaos: connection reset during {during}"
            )));
        }
        Ok(())
    }

    /// Deliver a message the inner transport produced, possibly after
    /// corrupting it. Corruption flips one byte in the frame's
    /// payload/CRC region and re-runs the *real* frame parser, so
    /// detection exercises the same CRC path live traffic uses; a
    /// single-byte flip there is always caught by CRC32.
    fn deliver(&mut self, msg: Message) -> Result<Message> {
        if !self.rng.chance(self.policy.corrupt_prob) {
            self.counters.m.delivered_clean.inc();
            return Ok(msg);
        }
        encode_frame_into(&msg, &mut self.scratch)
            .map_err(|e| NetSolveError::Internal(format!("chaos re-frame: {e}")))?;
        // Everything after the header (magic, version, length) — payload
        // plus trailing CRC — is covered by the checksum comparison, so a
        // flip here is deterministically detectable.
        let idx = HEADER_LEN + self.rng.below(self.scratch.len() - HEADER_LEN);
        let bit = 1u8 << self.rng.below(8);
        self.scratch[idx] ^= bit;
        self.counters.m.corruptions_injected.inc();
        self.counters.fault_point("corrupt", format!("byte={idx}"));
        match parse_frame(&self.scratch) {
            Ok(_) => Err(NetSolveError::Internal(
                "chaos: injected corruption escaped frame validation".into(),
            )),
            Err(e) => {
                self.counters.m.corruptions_detected.inc();
                Err(e)
            }
        }
    }
}

impl Connection for ChaosConnection {
    fn send(&mut self, msg: &Message) -> Result<()> {
        self.outbound([msg as &dyn Body], |inner| inner.send(msg))
    }

    fn send_request(&mut self, req: &RequestView<'_>) -> Result<()> {
        self.outbound([req as &dyn Body], |inner| inner.send_request(req))
    }

    fn send_batch(&mut self, msgs: &[&Message]) -> Result<()> {
        self.outbound(msgs.iter().map(|msg| *msg as &dyn Body), |inner| inner.send_batch(msgs))
    }

    fn recv(&mut self) -> Result<Message> {
        self.receive(None)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Message> {
        self.receive(Some(timeout))
    }

    fn peer(&self) -> String {
        self.inner.peer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelNetwork;
    use crate::tcp::TcpTransport;
    use crate::transport::call;
    use netsolve_core::ErrorClass;
    use std::thread;

    /// Echo daemon on `transport`: answers `Ping` with `Pong` and sends
    /// every other message straight back. Returns the address to dial.
    fn spawn_echo(transport: &dyn Transport, hint: &str) -> String {
        let listener = transport.listen(hint).unwrap();
        let address = listener.address();
        thread::spawn(move || {
            while let Ok(mut conn) = listener.accept() {
                thread::spawn(move || {
                    while let Ok(msg) = conn.recv_timeout(Duration::from_secs(5)) {
                        let reply = if msg == Message::Ping { Message::Pong } else { msg };
                        if conn.send(&reply).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        address
    }

    /// Each inner transport the link and loss cases run over — the
    /// in-process pipe and loopback TCP — with an echo daemon listening.
    fn echo_on_both() -> [(Arc<dyn Transport>, String); 2] {
        [
            (Arc::new(ChannelNetwork::new()) as Arc<dyn Transport>, "echo"),
            (Arc::new(TcpTransport::new()) as Arc<dyn Transport>, "127.0.0.1:0"),
        ]
        .map(|(transport, hint)| {
            let address = spawn_echo(transport.as_ref(), hint);
            (transport, address)
        })
    }

    fn chaotic(net: &ChannelNetwork, policy: ChaosPolicy, seed: u64) -> ChaosTransport {
        ChaosTransport::new(Arc::new(net.clone()), policy, seed)
    }

    /// An ~80 KB request: 10,000 doubles.
    fn bulky() -> Message {
        Message::RequestSubmit {
            request_id: 1,
            deadline_ms: 0,
            problem: "dnrm2".into(),
            inputs: vec![vec![0.0f64; 10_000].into()],
            trace_id: 0,
            parent_span: 0,
        }
    }

    /// How long one round trip of `msg` takes through `conn`.
    fn timed_call(conn: &mut dyn Connection, msg: &Message) -> (Result<Message>, Duration) {
        let start = Instant::now();
        let reply = call(conn, msg, Duration::from_secs(5));
        (reply, start.elapsed())
    }

    #[test]
    fn calm_policy_is_transparent() {
        for (inner, address) in echo_on_both() {
            let chaos = ChaosTransport::new(inner, ChaosPolicy::calm(), 1);
            let mut conn = chaos.connect(&address).unwrap();
            for _ in 0..20 {
                let reply = call(conn.as_mut(), &Message::Ping, Duration::from_secs(2)).unwrap();
                assert_eq!(reply, Message::Pong);
            }
            let stats = chaos.stats();
            assert_eq!(stats.delivered_clean, 20, "{address}");
            assert_eq!(stats.refused + stats.resets + stats.corruptions_injected + stats.delays, 0);
        }
    }

    #[test]
    fn link_latency_delays_the_round_trip() {
        let link = LinkModel::ideal().with_latency(0.02);
        for (inner, address) in echo_on_both() {
            let chaos = ChaosTransport::new(inner, ChaosPolicy::calm().with_link(link), 7);
            let mut conn = chaos.connect(&address).unwrap();
            let (reply, rtt) = timed_call(conn.as_mut(), &Message::Ping);
            assert_eq!(reply.unwrap(), Message::Pong);
            assert!(rtt >= Duration::from_millis(40), "{address}: one 20 ms leg each way, {rtt:?}");
            assert_eq!(chaos.stats().delays, 1);
        }
    }

    #[test]
    fn link_bandwidth_delays_scale_with_size() {
        // 1 MB/s: ~80 KB takes ~80 ms each way, a Ping's ~16 bytes ~0.
        let link = LinkModel::ideal().with_bandwidth(1e6);
        for (inner, address) in echo_on_both() {
            let chaos = ChaosTransport::new(inner, ChaosPolicy::calm().with_link(link), 8);
            let mut conn = chaos.connect(&address).unwrap();
            let (reply, small) = timed_call(conn.as_mut(), &Message::Ping);
            assert_eq!(reply.unwrap(), Message::Pong);
            let (reply, big) = timed_call(conn.as_mut(), &bulky());
            assert_eq!(reply.unwrap(), bulky());
            assert!(big >= Duration::from_millis(160), "{address}: {big:?}");
            assert!(small * 2 < big, "{address}: small={small:?} big={big:?}");
        }
    }

    /// Over a virtual-clock network the link spends its time on that
    /// clock: each exchange moves it by exactly the two legs the seeded
    /// stream samples — replayed here draw for draw — and costs no wall
    /// time, though the legs add up to seconds.
    #[test]
    fn a_virtual_clock_link_advances_by_exactly_the_sampled_legs() {
        use netsolve_core::clock::VirtualClock;
        let clock = VirtualClock::new();
        let net = ChannelNetwork::new().with_clock(Arc::new(clock.clone()));
        spawn_echo(&net, "echo");
        let (link, seed) = (LinkModel::wan_1996(), 12);
        let chaos = chaotic(&net, ChaosPolicy::calm().with_link(link), seed);
        let mut conn = chaos.connect("echo").unwrap();
        // The connection's stream as `connect` forks it, past its refusal draw.
        let mut parent = Rng64::new(seed);
        let stream = parent.next_u64();
        let mut rng = parent.fork(stream);
        rng.next_f64();
        let wall = Instant::now();
        for msg in [Message::Ping, bulky(), Message::Ping] {
            let reply = if msg == Message::Ping { Message::Pong } else { msg.clone() };
            // Draws in order: send reset, the request's leg, black hole,
            // receive reset, the reply's leg, corruption.
            let mut legs = Duration::ZERO;
            for draw in [None, Some(&msg), None, None, Some(&reply), None] {
                let Some(m) = draw else {
                    rng.next_f64();
                    continue;
                };
                let frame = (HEADER_LEN + 4) as u64 + Body::encoded_len(m);
                legs += Duration::from_secs_f64(link.sample_transfer_secs(frame, &mut rng));
            }
            let before = clock.now();
            assert_eq!(call(conn.as_mut(), &msg, Duration::from_secs(5)).unwrap(), reply);
            assert_eq!(clock.since(before), legs, "{}", msg.name());
        }
        assert!(wall.elapsed() < Duration::from_millis(500), "took {:?}", wall.elapsed());
    }

    /// A reply the link makes later than the caller's timeout is a
    /// `Timeout` at the timeout, never an `Ok` after it.
    #[test]
    fn a_reply_the_link_makes_late_is_a_timeout() {
        let link = LinkModel::ideal().with_latency(0.05);
        for (inner, address) in echo_on_both() {
            let chaos = ChaosTransport::new(inner, ChaosPolicy::calm().with_link(link), 10);
            let mut conn = chaos.connect(&address).unwrap();
            let start = Instant::now();
            let err = call(conn.as_mut(), &Message::Ping, Duration::from_millis(70)).unwrap_err();
            let waited = start.elapsed();
            assert!(matches!(err, NetSolveError::Timeout(_)), "{address}: {err}");
            assert!(waited >= Duration::from_millis(70), "{address}: {waited:?}");
            assert!(waited < Duration::from_millis(100), "{address}: {waited:?}");
        }
    }

    #[test]
    fn refusal_probability_one_refuses_every_dial() {
        let net = ChannelNetwork::new();
        let chaos = chaotic(&net, ChaosPolicy::calm().with_refusals(1.0), 2);
        for _ in 0..10 {
            let err = match chaos.connect("anywhere") {
                Err(e) => e,
                Ok(_) => panic!("dial unexpectedly succeeded"),
            };
            assert!(matches!(err, NetSolveError::ServerUnreachable(_)));
            assert_eq!(err.class(), ErrorClass::Link);
        }
        assert_eq!(chaos.stats().refused, 10);
        assert_eq!(chaos.stats().connects, 0);
    }

    #[test]
    fn corruption_is_always_detected_and_retryable() {
        let net = ChannelNetwork::new();
        spawn_echo(&net, "echo");
        let chaos = chaotic(&net, ChaosPolicy::calm().with_corruption(1.0), 3);
        let mut conn = chaos.connect("echo").unwrap();
        for _ in 0..30 {
            let err = call(conn.as_mut(), &Message::Ping, Duration::from_secs(2)).unwrap_err();
            assert!(matches!(err, NetSolveError::Corrupt(_)), "got {err}");
            assert_eq!(err.class(), ErrorClass::Link);
        }
        let stats = chaos.stats();
        assert_eq!(stats.corruptions_injected, 30);
        assert_eq!(stats.corruptions_detected, 30);
        assert_eq!(stats.delivered_clean, 0);
    }

    /// Mid-stream corruption of multi-megabyte operand frames: a byte
    /// flip anywhere in a large payload must surface as `Corrupt`, never
    /// as a silently wrong operand — the invariant the CRC exists for,
    /// checked here on whole frames decoded from memory.
    #[test]
    fn corruption_of_large_operands_is_always_detected() {
        let net = ChannelNetwork::new();
        spawn_echo(&net, "bigecho");
        let chaos = chaotic(&net, ChaosPolicy::calm().with_corruption(1.0), 11);
        let mut conn = chaos.connect("bigecho").unwrap();
        let payload = Message::RequestSubmit {
            request_id: 9,
            deadline_ms: 0,
            trace_id: 0,
            parent_span: 0,
            problem: "dnrm2".into(),
            inputs: vec![vec![0.5f64; 262_144].into()], // 2 MiB operand
        };
        for _ in 0..8 {
            let err = call(conn.as_mut(), &payload, Duration::from_secs(10)).unwrap_err();
            assert!(matches!(err, NetSolveError::Corrupt(_)), "got {err}");
            assert_eq!(err.class(), ErrorClass::Link);
        }
        let stats = chaos.stats();
        assert_eq!(stats.corruptions_injected, 8);
        assert_eq!(stats.corruptions_detected, 8, "a flip escaped CRC validation");
    }

    /// Loss on a link is a reset: over either transport it surfaces as a
    /// retryable `Transport` error.
    #[test]
    fn resets_surface_as_transport_errors() {
        for (inner, address) in echo_on_both() {
            let chaos = ChaosTransport::new(inner, ChaosPolicy::calm().with_resets(1.0), 4);
            let mut conn = chaos.connect(&address).unwrap();
            let err = conn.send(&Message::Ping).unwrap_err();
            assert!(matches!(err, NetSolveError::Transport(ref m) if m.contains("reset")), "{err}");
            assert_eq!(err.class(), ErrorClass::Link);
            assert_eq!(chaos.stats().resets, 1);
        }
    }

    #[test]
    fn black_hole_consumes_timeout_but_stays_bounded() {
        let net = ChannelNetwork::new();
        spawn_echo(&net, "echo");
        let mut policy = ChaosPolicy::calm().with_black_holes(1.0);
        policy.black_hole_cap = Duration::from_millis(50);
        let chaos = chaotic(&net, policy, 5);
        let mut conn = chaos.connect("echo").unwrap();
        conn.send(&Message::Ping).unwrap();
        let start = Instant::now();
        let err = conn.recv_timeout(Duration::from_secs(30)).unwrap_err();
        let waited = start.elapsed();
        assert!(matches!(err, NetSolveError::Timeout(_)));
        assert!(waited >= Duration::from_millis(45), "waited {waited:?}");
        assert!(waited < Duration::from_secs(5), "cap not applied: {waited:?}");
        assert_eq!(chaos.stats().black_holes, 1);
    }

    #[test]
    fn kill_severs_dials_and_live_connections_until_revived() {
        let net = ChannelNetwork::new();
        spawn_echo(&net, "echo");
        let chaos = chaotic(&net, ChaosPolicy::calm(), 7);

        // A healthy connection, established before the kill.
        let mut conn = chaos.connect("echo").unwrap();
        let reply = call(conn.as_mut(), &Message::Ping, Duration::from_secs(2)).unwrap();
        assert_eq!(reply, Message::Pong);

        chaos.kill("echo");
        // The established stream dies with a reset...
        let err = conn.send(&Message::Ping).unwrap_err();
        assert!(matches!(err, NetSolveError::Transport(ref m) if m.contains("killed")), "{err}");
        assert_eq!(err.class(), ErrorClass::Link);
        // ...and new dials are refused.
        let err = match chaos.connect("echo") {
            Err(e) => e,
            Ok(_) => panic!("dial to killed address succeeded"),
        };
        assert!(matches!(err, NetSolveError::ServerUnreachable(_)), "{err}");
        assert_eq!(err.class(), ErrorClass::Link);
        // Other addresses are untouched by the kill.
        spawn_echo(&net, "other");
        let mut conn2 = chaos.connect("other").unwrap();
        assert_eq!(
            call(conn2.as_mut(), &Message::Ping, Duration::from_secs(2)).unwrap(),
            Message::Pong
        );

        chaos.revive("echo");
        let mut conn3 = chaos.connect("echo").unwrap();
        let reply = call(conn3.as_mut(), &Message::Ping, Duration::from_secs(2)).unwrap();
        assert_eq!(reply, Message::Pong);
        // Only this transport's view of the address died, so the stream
        // that outlived the kill carries traffic again.
        let reply = call(conn.as_mut(), &Message::Ping, Duration::from_secs(2)).unwrap();
        assert_eq!(reply, Message::Pong);
        assert_eq!(chaos.stats().kill_faults, 2);
    }

    #[test]
    fn same_seed_same_fault_schedule() {
        // Drive two transports with identical seeds through an identical
        // call sequence; the observed fault pattern must match exactly.
        let policy = ChaosPolicy::calm()
            .with_refusals(0.3)
            .with_corruption(0.3)
            .with_resets(0.2);
        let run = |seed: u64| -> Vec<String> {
            let net = ChannelNetwork::new();
            spawn_echo(&net, "echo");
            let chaos = chaotic(&net, policy, seed);
            let mut outcomes = Vec::new();
            for _ in 0..40 {
                match chaos.connect("echo") {
                    Err(e) => outcomes.push(format!("dial:{}", e.kind())),
                    Ok(mut conn) => {
                        match call(conn.as_mut(), &Message::Ping, Duration::from_secs(2)) {
                            Ok(_) => outcomes.push("ok".into()),
                            Err(e) => outcomes.push(format!("call:{}", e.kind())),
                        }
                    }
                }
            }
            outcomes
        };
        let a = run(42);
        let b = run(42);
        let c = run(43);
        assert_eq!(a, b, "same seed must replay the same faults");
        assert_ne!(a, c, "different seeds should diverge");
        // The mix must actually contain faults and successes.
        assert!(a.iter().any(|o| o == "ok"));
        assert!(a.iter().any(|o| o != "ok"));
    }
}

