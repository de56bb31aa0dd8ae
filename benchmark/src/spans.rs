//! The harness's own spans. In the traced run every call, and every
//! transport operation the client library makes under it, is recorded
//! from outside the program: name, start, end, parent, call id. Spans
//! stay in a per-thread buffer until the run ends.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

use netsolve_core::error::Result;
use netsolve_net::{Connection, Listener, Transport};
use netsolve_proto::Message;

/// One harness span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct HSpan {
    pub id: u64,
    /// 0 for a root.
    pub parent: u64,
    /// The harness's call number (client index in the high bits).
    pub call: u64,
    pub name: &'static str,
    /// The message a transport span carried, when known.
    pub detail: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl HSpan {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    epoch: Instant,
    /// Distinguishes span and call ids of different client threads.
    lane: u64,
    next: u64,
    call: u64,
    open: Vec<u64>,
    spans: Vec<HSpan>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording on this thread. `lane` must differ between threads.
pub fn install(epoch: Instant, lane: u64) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch,
            lane: lane << 40,
            next: 0,
            call: 0,
            open: Vec::new(),
            spans: Vec::new(),
        });
    });
}

/// Stop recording on this thread and hand back what was recorded.
pub fn take() -> Vec<HSpan> {
    RECORDER.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// Begin the next call on this thread; returns its call id.
pub fn next_call() -> u64 {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut().expect("recorder installed on this thread");
        rec.call += 1;
        rec.lane | rec.call
    })
}

/// An open span; records itself when dropped. A no-op on threads without
/// a recorder, so the same code runs untraced.
pub struct Guard {
    id: u64,
    name: &'static str,
    detail: &'static str,
    start: Instant,
}

pub fn span(name: &'static str, detail: &'static str) -> Guard {
    let id = RECORDER.with(|r| match r.borrow_mut().as_mut() {
        Some(rec) => {
            rec.next += 1;
            let id = rec.lane | rec.next;
            rec.open.push(id);
            id
        }
        None => 0,
    });
    Guard {
        id,
        name,
        detail,
        start: Instant::now(),
    }
}

impl Guard {
    pub fn set_detail(&mut self, detail: &'static str) {
        self.detail = detail;
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end = Instant::now();
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.open.pop();
                let parent = rec.open.last().copied().unwrap_or(0);
                let since = |t: Instant| t.saturating_duration_since(rec.epoch).as_nanos() as u64;
                rec.spans.push(HSpan {
                    id: self.id,
                    parent,
                    call: rec.lane | rec.call,
                    name: self.name,
                    detail: self.detail,
                    start_ns: since(self.start),
                    end_ns: since(end),
                });
            }
        });
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[HSpan]) -> Vec<u64> {
    let index: std::collections::HashMap<u64, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// A transport that records a span around every dial, send and receive
/// the client library makes, then delegates to the real transport.
pub struct TracedTransport {
    inner: Arc<dyn Transport>,
}

impl TracedTransport {
    pub fn new(inner: Arc<dyn Transport>) -> Self {
        TracedTransport { inner }
    }
}

impl Transport for TracedTransport {
    fn listen(&self, hint: &str) -> Result<Box<dyn Listener>> {
        self.inner.listen(hint)
    }

    fn connect(&self, address: &str) -> Result<Box<dyn Connection>> {
        let _span = span("net.connect", "");
        let inner = self.inner.connect(address)?;
        Ok(Box::new(TracedConnection { inner }))
    }
}

struct TracedConnection {
    inner: Box<dyn Connection>,
}

impl TracedConnection {
    fn traced_recv(
        &mut self,
        recv: impl FnOnce(&mut dyn Connection) -> Result<Message>,
    ) -> Result<Message> {
        let mut span = span("net.recv", "");
        let reply = recv(self.inner.as_mut());
        if let Ok(msg) = &reply {
            span.set_detail(msg.name());
        }
        reply
    }
}

impl Connection for TracedConnection {
    fn send(&mut self, msg: &Message) -> Result<()> {
        let _span = span("net.send", msg.name());
        self.inner.send(msg)
    }

    fn recv(&mut self) -> Result<Message> {
        self.traced_recv(|c| c.recv())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Message> {
        self.traced_recv(|c| c.recv_timeout(timeout))
    }

    fn peer(&self) -> String {
        self.inner.peer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> HSpan {
        HSpan {
            id,
            parent,
            call: 1,
            name: "t",
            detail: "",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = [
            s(1, 0, 0, 100),  // root
            s(2, 1, 10, 30),  // child
            s(3, 1, 20, 50),  // overlaps child 2: union is 10..50
            s(4, 1, 90, 120), // sticks out of the parent: only 90..100 counts
            s(5, 2, 12, 18),  // grandchild: charged to span 2, not the root
            s(6, 9, 0, 40),   // parent never recorded: a root of its own
        ];
        assert_eq!(self_times(&spans), vec![50, 14, 30, 30, 6, 40]);
    }

    #[test]
    fn guards_nest_and_number_calls_per_thread() {
        install(Instant::now(), 3);
        let call = next_call();
        {
            let _outer = span("harness.call", "");
            let _inner = span("net.send", "Ping");
        }
        let spans = take();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!(
            (inner.name, inner.detail, inner.parent),
            ("net.send", "Ping", outer.id)
        );
        assert_eq!((outer.name, outer.parent), ("harness.call", 0));
        assert!(spans.iter().all(|s| s.call == call && s.call >> 40 == 3));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        // Without a recorder the guard is inert.
        drop(span("net.send", ""));
        assert!(take().is_empty());
    }
}
