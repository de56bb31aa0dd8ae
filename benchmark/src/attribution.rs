//! Turns the traced run's spans into per-layer numbers: the program's
//! own spans through `netsolve_obs::stitch`, the harness's spans through
//! [`spans::self_times`], and both into `<workload>.spans.jsonl`.

use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::path::Path;

use netsolve_obs::{stitch, SpanRecord};

use crate::driver::ClientLog;
use crate::json::Json;
use crate::spans;
use crate::stats::median;

/// Program phases `(component, phase)` and the metric each is reported
/// as: the median, over stitched calls that have the phase, of its total
/// duration in the call.
const PHASES: [((&str, &str), &str); 8] = [
    (("client", "rank"), "client.rank_us"),
    (("client", "connect"), "client.connect_us"),
    (("client", "marshal"), "client.marshal_us"),
    (("client", "wait"), "client.wait_us"),
    (("agent", "score"), "agent.score_us"),
    (("server", "queue"), "server.queue_us"),
    (("server", "solve"), "server.solve_us"),
    (("server", "encode"), "server.encode_us"),
];

/// The span file holds the most recent calls only; a `tiny_call` run
/// makes tens of thousands.
const SPAN_FILE_CALLS: usize = 1000;

pub struct Attribution {
    /// `(metric name, value)` pairs, units given by the name's suffix.
    pub metrics: Vec<(&'static str, f64)>,
    /// Trace ids of the calls whose program spans were still retained
    /// from the client's root span down, oldest first.
    pub stitched: Vec<u128>,
}

/// `program` holds every span drained from the client, agent and server
/// tracers; `logs` the harness's side of the same run.
pub fn attribute(logs: &[ClientLog], program: &[SpanRecord]) -> Attribution {
    let wall_by_trace: HashMap<u128, u64> = logs
        .iter()
        .flat_map(|l| &l.calls)
        .map(|c| (c.trace_id, c.wall_ns))
        .collect();
    let mut phase_us: HashMap<(&str, &str), Vec<f64>> = HashMap::new();
    let (mut attributed_ns, mut wall_ns, mut stitched) = (0u64, 0u64, Vec::new());
    let is_root = |s: &SpanRecord| s.component == "client" && s.phase == "call";
    for timeline in stitch(program) {
        let Some(&wall) = wall_by_trace.get(&timeline.trace_id) else {
            continue; // warm-up and probe traffic
        };
        // The servers' tracers outlive the clients' (fewer spans per
        // call): a trace whose client half is gone explains nothing.
        if !timeline.entries.iter().any(|e| is_root(&e.span)) {
            continue;
        }
        stitched.push(timeline.trace_id);
        wall_ns += wall;
        // The root span's self time is what no phase inside it explains.
        attributed_ns += timeline
            .breakdown
            .iter()
            .filter(|share| !(share.component == "client" && share.phase == "call"))
            .map(|share| share.nanos)
            .sum::<u64>();
        for (key, _) in PHASES {
            let total: u64 = timeline
                .entries
                .iter()
                .filter(|e| e.span.component == key.0 && e.span.phase == key.1)
                .map(|e| e.span.duration_nanos())
                .sum();
            if total > 0 {
                phase_us.entry(key).or_default().push(total as f64 / 1e3);
            }
        }
    }
    let mut metrics: Vec<(&'static str, f64)> = PHASES
        .iter()
        .map(|(key, metric)| (*metric, phase_us.get_mut(key).map_or(0.0, |v| median(v))))
        .collect();
    let coverage = if wall_ns == 0 {
        0.0
    } else {
        100.0 * attributed_ns as f64 / wall_ns as f64
    };
    metrics.push(("obs.coverage_pct", coverage));
    metrics.extend(harness_metrics(logs));
    Attribution { metrics, stitched }
}

/// What the harness's own spans say about each call: the client
/// library's time outside the transport, the transport time by
/// operation, the dial count, and the completion report's round trip
/// (for which the program records no span).
fn harness_metrics(logs: &[ClientLog]) -> Vec<(&'static str, f64)> {
    let (mut self_us, mut send_us, mut recv_us, mut report_us) = (vec![], vec![], vec![], vec![]);
    let (mut dials, mut calls) = (0u64, 0u64);
    for log in logs {
        let own = spans::self_times(&log.spans);
        let mut by_call: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, span) in log.spans.iter().enumerate() {
            by_call.entry(span.call).or_default().push(i);
        }
        for indices in by_call.values_mut() {
            indices.sort_by_key(|&i| log.spans[i].start_ns);
            let (mut send, mut recv, mut report_from) = (0u64, 0u64, None);
            for &i in indices.iter() {
                let span = &log.spans[i];
                match span.name {
                    "harness.call" => {
                        calls += 1;
                        self_us.push(own[i] as f64 / 1e3);
                    }
                    "net.connect" => dials += 1,
                    "net.send" => {
                        send += span.duration_ns();
                        if span.detail == "CompletionReport" {
                            report_from = Some(span.start_ns);
                        }
                    }
                    "net.recv" => {
                        recv += span.duration_ns();
                        if let Some(from) = report_from.take() {
                            report_us.push((span.end_ns - from) as f64 / 1e3);
                        }
                    }
                    _ => {}
                }
            }
            send_us.push(send as f64 / 1e3);
            recv_us.push(recv as f64 / 1e3);
        }
    }
    vec![
        ("client.report_us", median(&mut report_us)),
        ("client.self_us", median(&mut self_us)),
        ("net.send_us", median(&mut send_us)),
        ("net.recv_us", median(&mut recv_us)),
        (
            "net.dials_per_call",
            if calls == 0 {
                0.0
            } else {
                dials as f64 / calls as f64
            },
        ),
    ]
}

/// Write the program spans and the harness spans of the last
/// [`SPAN_FILE_CALLS`] of the `stitched` calls, one JSON object per line.
/// `epoch_unix_ns` places the harness spans on the program spans' clock.
pub fn write_spans(
    path: &Path,
    logs: &[ClientLog],
    program: &[SpanRecord],
    stitched: &[u128],
    epoch_unix_ns: u64,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let hex = |id: u128| Json::str(format!("{id:032x}"));
    let written: HashSet<u128> = stitched
        .iter()
        .rev()
        .take(SPAN_FILE_CALLS)
        .copied()
        .collect();
    for span in program.iter().filter(|s| written.contains(&s.trace_id)) {
        let line = Json::obj([
            ("src", Json::str("program")),
            ("trace", hex(span.trace_id)),
            ("component", Json::str(&span.component)),
            ("name", Json::str(&span.phase)),
            ("id", Json::Int(span.span_id)),
            ("parent", Json::Int(span.parent_span)),
            ("start_ns", Json::Int(span.start_unix_nanos)),
            ("end_ns", Json::Int(span.end_unix_nanos)),
            ("detail", Json::str(&span.detail)),
        ]);
        writeln!(out, "{}", line.render())?;
    }
    for log in logs {
        let trace_of: HashMap<u64, u128> = log.calls.iter().map(|c| (c.call, c.trace_id)).collect();
        for span in &log.spans {
            let Some(trace) = trace_of.get(&span.call).filter(|t| written.contains(t)) else {
                continue;
            };
            let line = Json::obj([
                ("src", Json::str("harness")),
                ("trace", hex(*trace)),
                ("call", Json::Int(span.call)),
                ("name", Json::str(span.name)),
                ("id", Json::Int(span.id)),
                ("parent", Json::Int(span.parent)),
                ("start_ns", Json::Int(epoch_unix_ns + span.start_ns)),
                ("end_ns", Json::Int(epoch_unix_ns + span.end_ns)),
                ("detail", Json::str(span.detail)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::CallRecord;
    use crate::spans::HSpan;

    fn h(
        id: u64,
        parent: u64,
        name: &'static str,
        detail: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> HSpan {
        HSpan {
            id,
            parent,
            call: 1,
            name,
            detail,
            start_ns,
            end_ns,
        }
    }

    fn p(
        span_id: u64,
        parent_span: u64,
        component: &str,
        phase: &str,
        start: u64,
        end: u64,
    ) -> SpanRecord {
        SpanRecord {
            trace_id: 77,
            span_id,
            parent_span,
            request_id: 5,
            component: component.into(),
            phase: phase.into(),
            start_unix_nanos: start,
            end_unix_nanos: end,
            detail: String::new(),
        }
    }

    #[test]
    fn attribution_reads_phases_coverage_and_the_report_leg() {
        let log = ClientLog {
            calls: vec![CallRecord {
                call: 1,
                trace_id: 77,
                wall_ns: 1000,
            }],
            spans: vec![
                h(2, 1, "net.connect", "", 100, 200),
                h(3, 1, "net.send", "RequestSubmit", 200, 300),
                h(4, 1, "net.recv", "RequestReply", 300, 700),
                h(5, 1, "net.send", "CompletionReport", 800, 850),
                h(6, 1, "net.recv", "Pong", 850, 950),
                h(1, 0, "harness.call", "ddot", 0, 1000),
            ],
            ..ClientLog::default()
        };
        let program = [
            p(10, 0, "client", "call", 0, 1000),
            p(11, 10, "client", "rank", 0, 100),
            p(12, 10, "client", "wait", 300, 700),
            p(13, 12, "server", "solve", 400, 600),
        ];
        let got = attribute(&[log], &program);
        assert_eq!(got.stitched, vec![77]);
        let value = |name: &str| got.metrics.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(value("client.rank_us"), 0.1);
        assert_eq!(value("client.wait_us"), 0.4);
        assert_eq!(value("server.solve_us"), 0.2);
        assert_eq!(value("server.queue_us"), 0.0);
        // rank 100 + wait 400 (solve nested inside it) of 1000 ns.
        assert_eq!(value("obs.coverage_pct"), 50.0);
        assert_eq!(value("client.report_us"), 0.15);
        assert_eq!(value("client.self_us"), 0.25);
        assert_eq!(value("net.dials_per_call"), 1.0);
        assert_eq!(value("net.send_us"), 0.15);
        assert_eq!(value("net.recv_us"), 0.5);
    }
}
