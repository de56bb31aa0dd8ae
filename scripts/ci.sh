#!/usr/bin/env bash
# The tier-1 gate: everything a PR must pass before merge.
# Usage: scripts/ci.sh
set -euo pipefail

cd "$(dirname "$0")/.."

echo "=== build (release) ==="
cargo build --release --workspace

echo "=== build (all bins, incl. netsl-stats and netsl-trace) ==="
cargo build --bins

echo "=== non-test lines per crate (what a refactor PR quotes; not a gate) ==="
scripts/loc.sh

echo "=== public surface: every pub fn has a caller or an allowlisted reason ==="
scripts/surface.sh

echo "=== time only through the clock (DESIGN §4q) ==="
# The client, server, agent and chaos link read and spend time through the
# `core::clock::Clock` their transport carries, so a virtual clock replays
# them. Non-test code is scripts/loc.sh's rule: a file up to its first
# top-level `#[cfg(test)]`, comment lines skipped.
wall=$(find crates/client/src crates/server/src crates/agent/src crates/net/src/chaos.rs \
        -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*\/\// { next }
    /Instant::now|\.elapsed\(\)|thread::sleep/ { print FILENAME ":" FNR ": " $0 }')
[ -z "${wall}" ] || { echo "${wall}"; echo "wall time read or spent past the clock"; exit 1; }

echo "=== instruments resolved at construction, each name written once ==="
# The client, server, agent and net crates name each instrument in one
# `instruments!` declaration, which resolves it when the component is
# built; a `.counter("…")`, `.gauge("…")` or `.histogram("…")` call with a
# literal in their non-test code (scripts/loc.sh's rule) is a lookup by
# name, which takes the registry lock and allocates the name. A declared
# field that nothing past its declaration touches is an instrument no path
# records (`dead_code` cannot see through a macro from another crate).
nontest_rs() { # PATH... — "FILE:LINE: TEXT" for each non-test, non-comment line
    find "$@" -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests || /^[[:space:]]*\/\// { next }
        { print FILENAME ":" FNR ": " $0 }'
}
for crate in client server agent net; do
    code=$(nontest_rs "crates/${crate}/src")
    named=$(echo "${code}" | grep -E '\.(counter|gauge|histogram)\("' || true)
    [ -z "${named}" ] || { echo "${named}"; echo "instrument looked up by name"; exit 1; }
    declared='^[^ ]+ +([a-z_]+): (counter|gauge|histogram) = "'
    uses=$(echo "${code}" | grep -Ev "${declared}" || true)
    # A here-string, not a pipe: `grep -q` quits at its first match, and
    # under pipefail the writer's SIGPIPE would fail the check spuriously.
    for field in $(echo "${code}" | sed -nE "s/${declared}.*/\1/p"); do
        grep -Eq "\.${field}\b" <<< "${uses}" || {
            echo "crates/${crate}: instrument '${field}' is declared but never recorded"; exit 1; }
    done
done

echo "=== unsafe only in the three kernel files (DESIGN's inventory) ==="
# Product `unsafe` is a call into a `#[target_feature]` instance right after
# the feature check that makes it sound, and only the CRC, byte-order and
# GEMM kernels have one. Non-test code is scripts/loc.sh's rule.
stray=$(nontest_rs crates/*/src shims/*/src src | grep -Ew 'unsafe' |
    grep -Ev '^crates/xdr/src/(checksum|be64)\.rs:|^crates/solvers/src/blas\.rs:' || true)
[ -z "${stray}" ] || { echo "${stray}"; echo "unsafe outside the kernel files"; exit 1; }

echo "=== tests ==="
# The root package is a workspace member, so this runs every root
# integration test (observability, chaos_soak, tracing, …) exactly once.
cargo test --workspace -q

echo "=== examples (cargo test builds them but runs none) ==="
cargo run --release --example quickstart
FAULT_DEMO=$(cargo run --release --example fault_tolerance)
echo "${FAULT_DEMO}"
echo "${FAULT_DEMO}" | grep -q "every call succeeded" || {
    echo "fault_tolerance example: a call failed after a kill"; exit 1; }

echo "=== benchmark harness (the public API and dependency sets it is locked to) ==="
# benchmark/ is its own workspace on path deps with a committed lock file:
# deleting or re-signing a public item it uses, or changing any crate's
# [dependencies], fails here instead of in the benchmark driver.
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml
cargo test --offline --locked --manifest-path benchmark/Cargo.toml

echo "=== benchmark runs (frames inside and past the 1 MiB send window: every reply correct, none failed) ==="
# Run the ruler, not just build it: one short traced run over the live TCP
# stack per workload. The last stdout line is the result document; every
# run must be all-correct with no failed call, and a workload may add
# ceilings on any of its metrics.
bench_run() { # WORKLOAD [METRIC CEILING]...
    bash benchmark/run.sh --workload "$1" --seed 1 --seconds 2 --trace 1 | tail -1 \
        | python3 -c '
import json, sys
workload, pairs = sys.argv[1], sys.argv[2:]
doc = json.loads(sys.stdin.read())
ceilings = [(metric, float(ceiling), doc["metrics"][metric]["value"])
            for metric, ceiling in zip(pairs[::2], pairs[1::2])]
print(workload, "correct", doc["correct"], "attempted", doc["attempted"], "failed", doc["failed"],
      *[f"{metric} {value}" for metric, _, value in ceilings])
ok = (doc["correct"] is True and doc["failed"] == 0 and len(pairs) % 2 == 0
      and all(value <= ceiling for _, ceiling, value in ceilings))
sys.exit(0 if ok else 1)
' "$@" || { echo "benchmark run $*: wrong reply, failed call or metric over its ceiling"; exit 1; }
}
# 2 MiB request, compute-bound: 9.6-10 ms of LU on the portable 4x4 kernel,
# 5.9-6.6 ms on the AVX2 8x4 instance with a column-loop panel and U12
# solve, 4.6-5.3 ms with the recursive panel and GEMM-form solve (slow
# phases of a shared host read up to 10.2 and 7.6 ms respectively). On an
# AVX-512 host the 24x8 instance reads 4.4-5.5 ms here, and 5.4-6.2 ms in
# a slow phase in which the AVX2 one reads 7.4-11.7 (ten runs a side).
bench_run solve_dgesv solvers.backward_err_max 1e-10 solvers.execute_us 8000
bench_run tiny_call net.dials_per_call 0.1           # ~100-byte frames: one read window; a steady client dials nothing
bench_run bulk_reply                                 # 2 MiB reply: a client-side read 32 windows long
# 2 MiB request: 1.8-2.2 ms of frame read on the CRC tables; ~90 us of
# ddot as one add chain, ~43 us in eight lanes.
bench_run bulk_request proto.read_frame_us 1200 solvers.execute_us 60
# 296 KB request, about half of them hits: 108-160 us of content key
# hashing a re-encoded copy, ~28 us hashing the operands in place.
# Evictions over the first 2,000 lookups are exact for a seed whatever the
# host's speed: seed 1 reads 686 under S3-FIFO, 783 under LRU.
bench_run cached_mix server.cache_key_us 60 server.cache_evictions 686

# One way to boot a live trio. Every daemon a smoke starts lands in PIDS;
# stop_daemons ends a smoke, and the one EXIT trap runs it too, so a failed
# check leaves nothing behind. A boot returns only once the daemon answers,
# so no smoke sleeps a guess.
PIDS=()
TRACE_DUMP=$(mktemp)
stop_daemons() {
    [ ${#PIDS[@]} -eq 0 ] || { kill -9 "${PIDS[@]}"; wait "${PIDS[@]}"; } 2>/dev/null || true
    PIDS=()
}
trap 'stop_daemons; rm -f "${TRACE_DUMP}"' EXIT

boot_agent() { # PORT [ns-agent flags…] — ready once it answers a registry query
    ./target/debug/ns-agent --listen 127.0.0.1:$1 "${@:2}" &
    PIDS+=($!)
    for _ in $(seq 1 100); do
        ./target/debug/ns-client --agent 127.0.0.1:$1 servers >/dev/null 2>&1 && return 0
        sleep 0.1
    done
    echo "agent on port $1 never answered"; exit 1
}

listed() { # AGENT_PORT REGEX — poll until a row of the agent's roster matches
    for _ in $(seq 1 100); do
        ./target/debug/ns-client --agent 127.0.0.1:$1 servers 2>/dev/null \
            | grep -Eq "$2" && return 0
        sleep 0.1
    done
    return 1
}

# A server started without --mflops rates itself before it registers (one
# LU at n=256: milliseconds in release, longer in these debug builds), so
# ready means registered, not merely listening.
boot_server() { # AGENT_PORT PORT [ns-server flags…] — ready once the agent lists it
    ./target/debug/ns-server --agent 127.0.0.1:$1 --listen 127.0.0.1:$2 "${@:3}" &
    PIDS+=($!)
    listed $1 "127\.0\.0\.1:$2" && return 0
    echo "server on port $2 never registered with the agent on port $1"; exit 1
}

echo "=== netsl-trace smoke (live TCP trio, stitched timeline) ==="
# Boot a real agent + server on loopback, run one traced call, then pull
# and stitch the request timeline exactly as an operator would.
AGENT_PORT=19751
SERVER_PORT=19752
boot_agent ${AGENT_PORT}
boot_server ${AGENT_PORT} ${SERVER_PORT}
SERVER_PID=${PIDS[-1]}
./target/debug/ns-client --agent 127.0.0.1:${AGENT_PORT} \
    --trace-dump "${TRACE_DUMP}" demo dnrm2 256
TIMELINE=$(./target/debug/netsl-trace --dump "${TRACE_DUMP}" \
    127.0.0.1:${AGENT_PORT} 127.0.0.1:${SERVER_PORT})
echo "${TIMELINE}"
echo "${TIMELINE}" | grep -q "server/solve" || {
    echo "netsl-trace smoke: no server/solve span in stitched timeline"; exit 1; }
echo "${TIMELINE}" | grep -q "critical path:" || {
    echo "netsl-trace smoke: no critical-path breakdown"; exit 1; }

echo "=== restart smoke (same trio: SIGKILL the server, restart it on its port) ==="
# With no client traffic, the agent's telemetry scrape (its liveness
# probe, one a second) must mark the dead server DOWN within the poll.
# Then the agent must replace the dead server's row, not add a second one.
# The old row still lists the address until the re-registration lands, so
# ready means the roster shows the replacement's rating.
kill -9 ${SERVER_PID}
wait ${SERVER_PID} 2>/dev/null || true
listed ${AGENT_PORT} "127\.0\.0\.1:${SERVER_PORT} .* DOWN " || {
    echo "restart smoke: the agent never marked the killed server DOWN"; exit 1; }
boot_server ${AGENT_PORT} ${SERVER_PORT} --mflops 321
listed ${AGENT_PORT} "127\.0\.0\.1:${SERVER_PORT} +321\.0 Mflop/s" || {
    echo "restart smoke: the agent never listed the restarted server's rating"; exit 1; }
ROSTER=$(./target/debug/ns-client --agent 127.0.0.1:${AGENT_PORT} servers)
echo "${ROSTER}"
[ "$(echo "${ROSTER}" | grep -c "127\.0\.0\.1:${SERVER_PORT}")" -eq 1 ] || {
    echo "restart smoke: the restarted server has more than one row"; exit 1; }
./target/debug/ns-client --agent 127.0.0.1:${AGENT_PORT} demo dnrm2 256 || {
    echo "restart smoke: solve failed after the restart"; exit 1; }
stop_daemons

echo "=== solve-cache smoke (live TCP trio, repeated solve must hit) ==="
# Boot a trio with the content-addressed cache on, run the SAME demo
# twice (demo inputs are seeded, so the encodings are identical), and
# check netsl-stats shows the repeat as a cache hit.
CACHE_AGENT_PORT=19771
CACHE_SERVER_PORT=19772
boot_agent ${CACHE_AGENT_PORT}
boot_server ${CACHE_AGENT_PORT} ${CACHE_SERVER_PORT} --cache-bytes 16777216
for run in 1 2; do
    ./target/debug/ns-client --agent 127.0.0.1:${CACHE_AGENT_PORT} demo dnrm2 256 || {
        echo "cache smoke: demo run ${run} failed"; exit 1; }
done
CACHE_STATS=$(./target/debug/netsl-stats 127.0.0.1:${CACHE_SERVER_PORT})
echo "${CACHE_STATS}"
echo "${CACHE_STATS}" | grep -q "cache" || {
    echo "cache smoke: no cache section in netsl-stats output"; exit 1; }
echo "${CACHE_STATS}" | grep -E "server.cache_hits +[1-9]" -q || {
    echo "cache smoke: repeated demo never hit the cache"; exit 1; }
echo "${CACHE_STATS}" | grep -E "server.cache_corrupt_dropped +0" -q || {
    echo "cache smoke: corrupt entries dropped on a clean run"; exit 1; }
stop_daemons
echo "cache smoke passed: repeated solve served from cache"

echo "=== federation smoke (three agents, SIGKILL one, batch still completes) ==="
# A full-mesh three-agent federation with two servers registered at
# different agents. Gossip replicates both registrations everywhere,
# then one agent is SIGKILLed — the scripted client batch (roster lists
# the dead agent FIRST) must complete with zero failed solves.
FA1=19761; FA2=19762; FA3=19763
FS1=19764; FS2=19765
boot_agent ${FA1} --gossip-interval 0.2 --peer 127.0.0.1:${FA2} --peer 127.0.0.1:${FA3}
FED_A1=${PIDS[-1]}
boot_agent ${FA2} --gossip-interval 0.2 --peer 127.0.0.1:${FA1} --peer 127.0.0.1:${FA3}
boot_agent ${FA3} --gossip-interval 0.2 --peer 127.0.0.1:${FA1} --peer 127.0.0.1:${FA2}
boot_server ${FA1} ${FS1} --mflops 250
boot_server ${FA2} ${FS2} --mflops 150
# Poll for gossip convergence (a fixed sleep flakes on loaded machines):
# agent 3 must learn server 1 purely from gossip before we proceed.
FED_CONVERGED=0
for attempt in $(seq 1 20); do
    if ./target/debug/ns-client --agent 127.0.0.1:${FA3} servers 2>/dev/null \
        | grep -q "${FS1}"; then
        FED_CONVERGED=1; break
    fi
    sleep 0.5
done
[ "${FED_CONVERGED}" -eq 1 ] || {
    echo "federation smoke: agent 3 never learned server 1 via gossip"; exit 1; }
kill -9 ${FED_A1}
for problem in "demo dnrm2 256" "demo dgesv 120" "demo dposv 100" "demo vsort 400"; do
    ./target/debug/ns-client \
        --agent 127.0.0.1:${FA1} --agent 127.0.0.1:${FA2} --agent 127.0.0.1:${FA3} \
        ${problem} || {
        echo "federation smoke: solve '${problem}' failed after agent SIGKILL"; exit 1; }
done
FED_STATS=$(./target/debug/netsl-stats 127.0.0.1:${FA2})
echo "${FED_STATS}" | grep -q "federation" || {
    echo "federation smoke: no federation section in netsl-stats output"; exit 1; }
echo "${FED_STATS}" | grep -q "agent.gossip_rounds" || {
    echo "federation smoke: no gossip_rounds counter in netsl-stats output"; exit 1; }
stop_daemons
echo "federation smoke passed: batch completed with zero failed solves"

echo "=== admission overload smoke (queue-bound shed with retry hints) ==="
# A synthetic ~0.2 s/solve server (dnrm2 n=256 at 0.0025 Mflop/s) behind
# a depth-2 admission gate: an 8-client parallel burst must overflow the
# bound and shed with retryable Busy replies, while the gate keeps the
# server itself healthy — a calm follow-up request still solves.
ADM_AGENT_PORT=19781
ADM_SERVER_PORT=19782
boot_agent ${ADM_AGENT_PORT}
boot_server ${ADM_AGENT_PORT} ${ADM_SERVER_PORT} --synthetic --mflops 0.0025 --max-queue 2
ADM_PIDS=()
for i in $(seq 1 8); do
    ./target/debug/ns-client --agent 127.0.0.1:${ADM_AGENT_PORT} demo dnrm2 256 \
        >/dev/null 2>&1 &
    ADM_PIDS+=($!)
done
ADM_OK=0
for pid in "${ADM_PIDS[@]}"; do
    if wait ${pid}; then ADM_OK=$((ADM_OK+1)); fi
done
[ "${ADM_OK}" -ge 1 ] || {
    echo "admission smoke: every client failed under overload"; exit 1; }
ADM_STATS=$(./target/debug/netsl-stats 127.0.0.1:${ADM_SERVER_PORT})
echo "${ADM_STATS}" | grep -E "server.admission_shed +[1-9]" -q || {
    echo "admission smoke: overload burst never shed"; exit 1; }
./target/debug/ns-client --agent 127.0.0.1:${ADM_AGENT_PORT} demo dnrm2 256 || {
    echo "admission smoke: server wedged after overload"; exit 1; }
stop_daemons
echo "admission smoke passed: ${ADM_OK}/8 burst clients served, the rest shed"

echo "=== fleet-view smoke (netsl-top over a live trio, exemplar chase) ==="
# An agent with two registered servers: after a scripted burst, one
# netsl-top scrape of the agent must show a row per server with a
# nonzero solve rate, and the p99 exemplar it prints must resolve
# through netsl-trace to a stitched timeline containing the solve span.
TOP_AGENT_PORT=19791
TOP_SERVER1_PORT=19792
TOP_SERVER2_PORT=19793
boot_agent ${TOP_AGENT_PORT}
boot_server ${TOP_AGENT_PORT} ${TOP_SERVER1_PORT} --mflops 250
boot_server ${TOP_AGENT_PORT} ${TOP_SERVER2_PORT} --mflops 150
for i in $(seq 1 6); do
    ./target/debug/ns-client --agent 127.0.0.1:${TOP_AGENT_PORT} demo dnrm2 256 \
        >/dev/null || { echo "fleet smoke: burst solve ${i} failed"; exit 1; }
done
# Digests appear one telemetry tick (1 s) after the burst and reach the
# agent on its next server scrape; poll rather than sleep a guess.
TOP_OK=0
for attempt in $(seq 1 30); do
    TOP_VIEW=$(./target/debug/netsl-top 127.0.0.1:${TOP_AGENT_PORT}) || true
    # Column 3 of a server row is SOLVE/S; the burst must show up as a
    # nonzero rate summed across the two servers.
    TOP_RATE=$(echo "${TOP_VIEW}" | awk -v s1="127.0.0.1:${TOP_SERVER1_PORT}" \
        -v s2="127.0.0.1:${TOP_SERVER2_PORT}" \
        '$1 == s1 || $1 == s2 { sum += $3 } END { print sum + 0 }')
    if echo "${TOP_VIEW}" | grep -q "127.0.0.1:${TOP_SERVER1_PORT}" \
        && echo "${TOP_VIEW}" | grep -q "127.0.0.1:${TOP_SERVER2_PORT}" \
        && awk -v r="${TOP_RATE}" 'BEGIN { exit !(r > 0) }' \
        && echo "${TOP_VIEW}" | grep -Eq "[0-9a-f]{32}"; then
        TOP_OK=1; break
    fi
    sleep 0.5
done
echo "${TOP_VIEW}"
[ "${TOP_OK}" -eq 1 ] || {
    echo "fleet smoke: netsl-top never showed both servers with a solve rate and exemplar"
    exit 1; }
TOP_EXEMPLAR=$(echo "${TOP_VIEW}" | grep -Eo "[0-9a-f]{32}" | head -1)
TOP_TIMELINE=$(./target/debug/netsl-trace --trace "${TOP_EXEMPLAR}" \
    127.0.0.1:${TOP_AGENT_PORT} 127.0.0.1:${TOP_SERVER1_PORT} \
    127.0.0.1:${TOP_SERVER2_PORT})
echo "${TOP_TIMELINE}" | grep -q "server/solve" || {
    echo "fleet smoke: p99 exemplar ${TOP_EXEMPLAR} did not stitch to a solve span"
    exit 1; }
stop_daemons
echo "fleet smoke passed: one scrape covered both servers, exemplar stitched"

echo "=== netsl-stats --watch smoke (rates and rolling quantiles from a live server) ==="
# Each watch interval is the newest scrape minus the one before it, and the
# quantiles cover the whole window. With demo calls running in the
# background, some interval must show a nonzero rate and the window a p50.
# timeout ends the watch loop, so its exit status 124 is the expected one.
WATCH_AGENT_PORT=19795
WATCH_SERVER_PORT=19796
boot_agent ${WATCH_AGENT_PORT}
boot_server ${WATCH_AGENT_PORT} ${WATCH_SERVER_PORT} --mflops 250
(
    for i in $(seq 1 12); do
        ./target/debug/ns-client --agent 127.0.0.1:${WATCH_AGENT_PORT} demo dnrm2 256 \
            >/dev/null 2>&1 || true
        sleep 0.2
    done
) &
WATCH_LOAD=$!
WATCH_STATUS=0
WATCH_OUT=$(timeout 3 ./target/debug/netsl-stats --watch 0.5 127.0.0.1:${WATCH_SERVER_PORT}) \
    || WATCH_STATUS=$?
wait ${WATCH_LOAD}
stop_daemons
echo "${WATCH_OUT}"
[ "${WATCH_STATUS}" -eq 124 ] || {
    echo "watch smoke: netsl-stats --watch exited ${WATCH_STATUS} before the timeout"; exit 1; }
echo "${WATCH_OUT}" | grep -Eq "[0-9]/s$" || {
    echo "watch smoke: no counter rate line"; exit 1; }
echo "${WATCH_OUT}" | grep -q " p50 " || {
    echo "watch smoke: no windowed p50 line"; exit 1; }
echo "watch smoke passed: rates per interval and quantiles over the window"

echo "=== admission bench smoke (sim vs live shed agreement, closed-loop scale) ==="
cargo build --release -p netsolve-bench --bin r11_admission
./target/release/r11_admission --quick

echo "=== clippy (deny warnings) ==="
cargo clippy --workspace --all-targets -- -D warnings

echo "=== rustdoc (deny warnings: no broken link, no public doc naming a private item) ==="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo
echo "CI gate passed."
