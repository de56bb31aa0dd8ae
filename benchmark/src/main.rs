//! `netsl-benchmark`: one workload per process, over a real agent and
//! server(s) on loopback TCP. `--trace 0` measures the end-to-end
//! metrics with everything in its shipped default configuration;
//! `--trace 1` measures the per-layer metrics. See `README.md`.
//!
//! The last line of standard output is the result the driver reads; the
//! line before it (`DETAIL {...}`) carries sample counts and notes.

mod attribution;
mod calib;
mod domain;
mod driver;
mod json;
mod probes;
mod spans;
mod stats;
mod sys;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use calib::{speed_factor, Calibrator};
use driver::{run_segment, Segment, CACHE_WINDOW_CALLS};
use json::Json;
use stats::{median, percentile, percentile_with_failures, tail_supported};
use workload::Spec;

/// An end-to-end run sets the domain up this many times, one after the
/// other, and reports the mean of the middle three as `setup_s`; the
/// timed run is made on the last one.
const SETUPS: usize = 5;
/// The timed run is cut into slices of this length with a calibration
/// reading between them: the host's speed changes within seconds.
const SLICE: Duration = Duration::from_millis(250);
/// Share of a traced run spent untraced, half before and half after the
/// traced stretch, as the base for `obs.harness_overhead_pct`.
const UNTRACED_SHARE: f64 = 0.25;

/// Every end-to-end metric with its unit, as `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("calls_per_s", "1/s"),
    ("call_p50_ms", "ms"),
    ("goodput_mib_per_s", "MiB/s"),
    ("cpu_ms_per_call", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Every per-layer metric with its unit, as `BENCHMARK.json` lists them.
const PER_LAYER: [(&str, &str); 42] = [
    ("xdr.encode_mib_per_s", "MiB/s"),
    ("xdr.decode_mib_per_s", "MiB/s"),
    ("proto.encode_frame_us", "us"),
    ("proto.read_frame_us", "us"),
    ("proto.wire_bytes_per_call", "B"),
    ("net.connect_us", "us"),
    ("net.ping_rtt_us", "us"),
    ("net.dials_per_call", "count"),
    ("net.send_us", "us"),
    ("net.recv_us", "us"),
    ("net.timewait_start", "count"),
    ("net.timewait_end", "count"),
    ("agent.query_us", "us"),
    ("agent.query_rtt_us", "us"),
    ("agent.score_us", "us"),
    ("server.handle_us", "us"),
    ("server.queue_us", "us"),
    ("server.solve_us", "us"),
    ("server.encode_us", "us"),
    ("server.cache_key_us", "us"),
    ("server.cache_hit_us", "us"),
    ("server.cache_miss_us", "us"),
    ("server.cache_hit_ratio", "ratio"),
    ("server.cache_hits", "count"),
    ("server.cache_lookups", "count"),
    ("server.cache_evictions", "count"),
    ("server.shed", "count"),
    ("solvers.execute_us", "us"),
    ("solvers.gflops", "Gflop/s"),
    ("solvers.backward_err_max", "ratio"),
    ("client.rank_us", "us"),
    ("client.connect_us", "us"),
    ("client.marshal_us", "us"),
    ("client.wait_us", "us"),
    ("client.report_us", "us"),
    ("client.self_us", "us"),
    ("client.overhead_us", "us"),
    ("client.call_p95_ms", "ms"),
    ("client.remote_over_local", "ratio"),
    ("client.attempts_per_call", "count"),
    ("obs.coverage_pct", "%"),
    ("obs.harness_overhead_pct", "%"),
];

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut out_dir) =
        (None, 1u64, None, None, None);
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: '{value}' is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad("a number"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let names: Vec<&str> = workload::SPECS.iter().map(|s| s.name).collect();
    let spec = workload::spec(&name)
        .ok_or_else(|| format!("unknown workload '{name}', one of {names:?}"))?;
    let seconds = seconds
        .filter(|s| *s > 0.0 && s.is_finite())
        .ok_or("--seconds must be a positive number")?;
    Ok(Args {
        spec,
        seed,
        seconds,
        trace: trace.ok_or("--trace 0|1 is required")?,
        out_dir: out_dir.unwrap_or_else(|| PathBuf::from("benchmark/out")),
    })
}

/// What a run hands back: the metrics in table order plus the counts and
/// notes that go into the `DETAIL` line.
struct Outcome {
    metrics: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    detail: Vec<(&'static str, Json)>,
}

fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|v| Json::Num(*v)).collect())
}

/// Failure count and the first failures' reasons over `segments`.
fn failures(segments: &[&Segment]) -> (u64, Vec<String>) {
    let errors = segments
        .iter()
        .flat_map(|s| &s.logs)
        .flat_map(|l| l.errors.iter().cloned());
    (segments.iter().map(|s| s.failed()).sum(), errors.collect())
}

/// One slice of the end-to-end run, its times already divided by the
/// speed factor measured around it.
struct Slice {
    factor: f64,
    calls_per_s: f64,
    goodput_mib_per_s: f64,
    cpu_ms_per_call: f64,
    /// Ascending wall milliseconds of the verified calls.
    ok_ms: Vec<f64>,
    failed: u64,
}

/// Median of `value` over `slices`.
fn across(slices: &[Slice], value: impl Fn(&Slice) -> f64) -> f64 {
    median(&mut slices.iter().map(value).collect::<Vec<_>>())
}

/// The end-to-end run: nothing is recorded but each call's wall time,
/// outcome and `CallReport`, and the calibration readings between slices.
fn end_to_end(args: &Args) -> Result<Outcome, String> {
    let mix = args.spec.mix;
    let mut calibrator =
        Calibrator::start().map_err(|e| format!("calibration probes failed to start: {e}"))?;
    let mut read = move || {
        calibrator
            .read()
            .map_err(|e| format!("calibration probe failed: {e}"))
    };

    let (mut setups, mut setups_raw) = (Vec::new(), Vec::new());
    let setup = loop {
        // The previous domain has been dropped, so its daemons have
        // stopped, before the next set-up is timed.
        let before = read()?;
        let setup = domain::set_up(args.spec, args.seed, false)?;
        setups.push(setup.secs / speed_factor(before, read()?, mix));
        setups_raw.push(setup.secs);
        if setups.len() == SETUPS {
            break setup;
        }
    };

    let mut cursors = vec![0; setup.clients.len()];
    let mut slices = Vec::new();
    let mut readings = vec![read()?];
    let (mut raw_calls, mut raw_secs) = (0u64, 0.0);
    let mut errors = Vec::new();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < args.seconds {
        let run = run_segment(&setup, SLICE, None, &mut cursors);
        readings.push(read()?);
        let factor = speed_factor(
            readings[readings.len() - 2],
            readings[readings.len() - 1],
            mix,
        );
        let ok = run.ok();
        raw_calls += ok;
        raw_secs += run.logs.iter().map(|l| l.active_secs).sum::<f64>() / run.logs.len() as f64;
        errors.extend(run.logs.iter().flat_map(|l| l.errors.iter().cloned()));
        slices.push(Slice {
            factor,
            calls_per_s: run.calls_per_sec() * factor,
            goodput_mib_per_s: run.goodput_mib_per_sec() * factor,
            cpu_ms_per_call: run.cpu_secs * 1e3 / ok.max(1) as f64 / factor,
            ok_ms: run.ok_ms_sorted().iter().map(|ms| ms / factor).collect(),
            failed: run.failed(),
        });
    }
    drop(setup);

    // Percentiles are taken over every call attempted: a failed call
    // ranks beyond every completed one.
    let failed: u64 = slices.iter().map(|s| s.failed).sum();
    let mut pooled: Vec<f64> = slices
        .iter()
        .flat_map(|s| s.ok_ms.iter().copied())
        .collect();
    pooled.sort_by(f64::total_cmp);
    let penalty_ms = args.seconds * 1e3;
    let of_attempted = |q: f64| percentile_with_failures(&pooled, failed as usize, q, penalty_ms);
    let p99 = tail_supported(pooled.len(), 0.99).then(|| percentile(&pooled, 0.99));
    let shape = [0.1, 0.25, 0.5, 0.75, 0.9, 0.95].map(|q| percentile(&pooled, q));

    let ok = pooled.len() as u64;
    let mut factors: Vec<f64> = slices.iter().map(|s| s.factor).collect();
    let detail = vec![
        ("samples", Json::Int(ok)),
        (
            "p95_has_tail_samples",
            Json::Bool(tail_supported(pooled.len(), 0.95)),
        ),
        (
            "call_p99_ms_info",
            p99.map_or(Json::str("too few samples"), Json::Num),
        ),
        ("call_p95_ms_info", Json::Num(of_attempted(0.95))),
        ("call_p10_p25_p50_p75_p90_p95_ms", nums(&shape)),
        (
            "times",
            Json::str("divided by the speed factor; *_raw are as the clock read them"),
        ),
        ("speed_factor_median", Json::Num(median(&mut factors))),
        (
            "speed_factor_min_max",
            nums(&[factors[0], factors[factors.len() - 1]]),
        ),
        ("calls_per_s_raw", Json::Num(raw_calls as f64 / raw_secs)),
        ("setup_s_raw_each", nums(&setups_raw)),
        ("setup_s_each", nums(&setups)),
        (
            "probe_ms_compute_memory_net",
            Json::Arr(readings.iter().map(|r| nums(&r.0)).collect()),
        ),
        (
            "slices_factor_calls_per_s_p50_ms_cpu_ms",
            Json::Arr(
                slices
                    .iter()
                    .map(|s| {
                        nums(&[
                            s.factor,
                            s.calls_per_s,
                            percentile(&s.ok_ms, 0.5),
                            s.cpu_ms_per_call,
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    let metrics = vec![
        ("setup_s", stats::middle_mean(&mut setups)),
        ("calls_per_s", across(&slices, |s| s.calls_per_s)),
        ("call_p50_ms", of_attempted(0.5)),
        (
            "goodput_mib_per_s",
            across(&slices, |s| s.goodput_mib_per_s),
        ),
        ("cpu_ms_per_call", across(&slices, |s| s.cpu_ms_per_call)),
        (
            "peak_rss_mib",
            sys::peak_rss_mib().ok_or("cannot read VmHWM")?,
        ),
    ];
    Ok(Outcome {
        metrics,
        attempted: ok + failed,
        failed,
        errors,
        detail,
    })
}

/// The traced run: a short untraced base, then the same loop with the
/// harness recording spans and the program's tracers sized to keep
/// theirs, then the layer probes.
fn per_layer(args: &Args) -> Result<Outcome, String> {
    let timewait_start = sys::timewait_sockets().ok_or("cannot read /proc/net/sockstat")?;
    let base_setup = domain::set_up(args.spec, args.seed, false)?;
    let base_for = Duration::from_secs_f64(args.seconds * UNTRACED_SHARE / 2.0);
    let mut base_cursors = vec![0; base_setup.clients.len()];
    let base_before = run_segment(&base_setup, base_for, None, &mut base_cursors);

    let setup = domain::set_up(args.spec, args.seed, true)?;
    let counts_before = setup.domain.server_counts();
    let epoch = Instant::now();
    let epoch_unix_ns = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    let traced_for = Duration::from_secs_f64(args.seconds * (1.0 - UNTRACED_SHARE));
    let traced = run_segment(
        &setup,
        traced_for,
        Some(epoch),
        &mut vec![0; setup.clients.len()],
    );
    let counts_after = setup.domain.server_counts();
    let base_after = run_segment(&base_setup, base_for, None, &mut base_cursors);
    drop(base_setup);

    let program: Vec<_> = setup
        .clients
        .iter()
        .map(|c| c.tracer())
        .chain(setup.domain.tracers.iter().cloned())
        .flat_map(|tracer| tracer.snapshot_trace(0))
        .collect();
    let attribution = attribution::attribute(&traced.logs, &program);
    let spans_path = args.out_dir.join(format!("{}.spans.jsonl", args.spec.name));
    attribution::write_spans(
        &spans_path,
        &traced.logs,
        &program,
        &attribution.stitched,
        epoch_unix_ns,
    )
    .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;

    // The second case of the first client's sequence: for `tiny_call`
    // that is a two-operand `ddot`, elsewhere any member of the pool.
    let case = &setup.plan.cases[setup.plan.order[0][1] as usize];
    let probed = probes::run(&setup, case)?;
    let execute_us = probed
        .iter()
        .find(|(n, _)| *n == "solvers.execute_us")
        .map_or(0.0, |(_, v)| *v);

    // Cache counters over a fixed stretch of the seeded call sequence.
    let window = traced.logs[0].cache_window.unwrap_or(counts_after);
    let hits = window.cache_hits - counts_before.cache_hits;
    let lookups = hits + window.cache_misses - counts_before.cache_misses;

    let (failed, errors) = failures(&[&base_before, &traced, &base_after]);
    let ok = base_before.ok() + traced.ok() + base_after.ok();
    let base_rate = (base_before.calls_per_sec() + base_after.calls_per_sec()) / 2.0;
    let traced_ms = traced.ok_ms_sorted();
    let mut overhead_us: Vec<f64> = traced
        .logs
        .iter()
        .flat_map(|l| l.overhead_us.iter().copied())
        .collect();
    let attempts: u64 = traced.logs.iter().map(|l| l.attempts).sum();
    let p50_us = percentile(&traced_ms, 0.5) * 1e3;

    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut metrics = probed;
    metrics.extend(attribution.metrics);
    metrics.extend([
        ("net.timewait_start", timewait_start as f64),
        (
            "net.timewait_end",
            sys::timewait_sockets().unwrap_or(0) as f64,
        ),
        ("server.cache_hit_ratio", ratio(hits as f64, lookups as f64)),
        ("server.cache_hits", hits as f64),
        ("server.cache_lookups", lookups as f64),
        (
            "server.cache_evictions",
            (window.cache_evictions - counts_before.cache_evictions) as f64,
        ),
        (
            "server.shed",
            (counts_after.shed - counts_before.shed) as f64,
        ),
        (
            "solvers.backward_err_max",
            traced
                .logs
                .iter()
                .map(|l| l.backward_err_max)
                .fold(0.0, f64::max),
        ),
        ("client.overhead_us", median(&mut overhead_us)),
        ("client.call_p95_ms", percentile(&traced_ms, 0.95)),
        ("client.remote_over_local", ratio(p50_us, execute_us)),
        (
            "client.attempts_per_call",
            ratio(attempts as f64, traced.ok() as f64),
        ),
        (
            "obs.harness_overhead_pct",
            100.0 * (1.0 - traced.calls_per_sec() / base_rate),
        ),
    ]);
    drop(setup);

    let detail = vec![
        (
            "samples_untraced",
            Json::Int(base_before.ok() + base_after.ok()),
        ),
        ("samples_traced", Json::Int(traced.ok())),
        (
            "calls_stitched",
            Json::Int(attribution.stitched.len() as u64),
        ),
        ("traced_call_p50_ms", Json::Num(p50_us / 1e3)),
        (
            "cache_window_calls",
            Json::Int(CACHE_WINDOW_CALLS.min(traced.ok())),
        ),
        ("spans_file", Json::str(spans_path.display().to_string())),
    ];
    Ok(Outcome {
        metrics,
        attempted: ok + failed,
        failed,
        errors,
        detail,
    })
}

fn run(args: &Args) -> Result<(), String> {
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    // Both drop their domains: every daemon the run started has stopped
    // before anything is reported.
    let outcome = if args.trace {
        per_layer(args)?
    } else {
        end_to_end(args)?
    };

    for error in &outcome.errors {
        eprintln!("failed call: {error}");
    }
    let mut reported = Vec::new();
    for (name, unit) in table {
        let value = outcome
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("metric {name} is missing"))?;
        // Residuals and the like would read 0.000000 in fixed notation.
        let shown = if value != 0.0 && value.abs() < 1e-3 {
            format!("{value:e}")
        } else {
            format!("{value:.6}")
        };
        println!("{:<14} {name:<28} {shown:>16} {unit}", args.spec.name);
        reported.push((
            *name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(*unit))]),
        ));
    }
    println!(
        "{:<14} ops_attempted {} ops_failed {}",
        args.spec.name, outcome.attempted, outcome.failed
    );

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let mut detail = vec![
        ("workload", Json::str(args.spec.name)),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("client_threads", Json::Int(args.spec.clients as u64)),
        ("servers", Json::Int(args.spec.servers as u64)),
        ("nproc", Json::Int(nproc)),
        (
            "load",
            Json::str("closed loop, generated from this process"),
        ),
        (
            "link",
            Json::str("loopback, not a real link: link rate and wire latency are not measured"),
        ),
        (
            "byte_counts",
            Json::str("computed from object sizes, not measured on the wire"),
        ),
    ];
    detail.extend(outcome.detail);
    println!("DETAIL {}", Json::obj(detail).render());

    let result = Json::obj([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Int(outcome.attempted.max(1))),
        ("failed", Json::Int(outcome.failed)),
        ("metrics", Json::obj(reported)),
    ]);
    println!("{}", result.render());
    Ok(())
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(fault) => {
            eprintln!("netsl-benchmark: {fault}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; these tables are what
    /// the program prints. They must name the same things.
    #[test]
    fn benchmark_json_lists_what_the_program_reports() {
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text =
            std::fs::read_to_string(manifest).expect("BENCHMARK.json at the repository root");
        let listed = |section: &str, table: &[(&str, &str)]| {
            let from = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &text[from..from + text[from..].find(']').expect("section closes")];
            for (name, unit) in table {
                assert!(
                    body.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                    "{section}: {name} [{unit}]"
                );
            }
            assert_eq!(
                body.matches("\"name\"").count(),
                table.len(),
                "{section} has extra entries"
            );
        };
        listed("end_to_end", &END_TO_END);
        listed("per_layer", &PER_LAYER);
        for spec in &workload::SPECS {
            assert!(
                text.contains(&format!("\"name\": \"{}\"", spec.name)),
                "workload {}",
                spec.name
            );
        }
    }
}
