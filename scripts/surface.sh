#!/usr/bin/env bash
# Public-surface census: every `pub fn` / `pub const fn` in the non-test part
# of `crates/*/src` and `src/` must have a caller, or sit on the allowlist
# below with its reason. "Non-test" is scripts/loc.sh's rule: a file up to
# its first top-level `#[cfg(test)]`, comment lines skipped. A caller is the
# name as a whole word in the non-test Rust of `crates/*/src`,
# `crates/*/benches`, `src/`, `examples/` or `benchmark/src`, not counting
# any `fn NAME` definition, comment lines or `pub use` lines. The census is by
# name, so a name that some other item shares counts as called.
#
# Prints one line per uncalled public function (allowed, with its reason, or
# offending) and exits 1 when an offender remains or an allowlist entry no
# longer names an uncalled public function.
# Usage: scripts/surface.sh [REPO_ROOT]   (default: this checkout)
set -euo pipefail
export LC_ALL=C

# Each entry: NAME, then the reason it stays without a non-test caller.
ALLOWLIST=$(cat <<'EOF'
advance                   test hook: VirtualClock::advance moves virtual time from a test
corrupt_entries_for_test  test hook: SolveCache poisons stored answers for the corruption tests
with_link                 test hook: ChaosPolicy::with_link puts a modelled link under a test domain
with_black_holes          test hook: ChaosPolicy::with_black_holes swallows frames for the timeout tests
with_timeouts             test hook: TcpTransport::with_timeouts shortens the timeouts the timeout tests wait on
buffered_capacity         observer: tests assert a FrameWriter's warm buffer keeps its capacity
idle_connections          observer: tests assert how many connections the client keeps idle
requests_served           observer: tests assert how many requests a daemon answered
spans_recorded            observer: tests assert how many spans a tracer took
approx_eq                 observer: Matrix::approx_eq compares solver answers in tests
dft_reference             reference: the O(n^2) DFT the FFT is checked against
convolve_reference        reference: the direct convolution the FFT convolution is checked against
with_exponential_service  reference: SimServer's exponential service feeds the M/M/1 and Erlang-C closed-form checks
netsl_farm                client API: the documented task-farm call (README, DESIGN)
wan_1996                  planned caller: the wan_link workload's modelled 1996 WAN link (ROADMAP item 1)
with_latency              planned caller: wan_link sets the modelled link's latency (ROADMAP item 1)
with_bandwidth            planned caller: wan_link sets the modelled link's bandwidth (ROADMAP item 1)
EOF
)

cd "${1:-$(dirname "$0")/..}"

# nontest PATH...: "FILE:LINE:TEXT" for each non-test, non-comment line.
nontest() {
    find "$@" -name '*.rs' -print0 2>/dev/null | sort -z | xargs -0 awk '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests || /^[[:space:]]*\/\// { next }
        { print FILENAME ":" FNR ":" $0 }'
}

defs=$(nontest crates/*/src src | awk '
    match($0, /pub (const )?fn [A-Za-z_][A-Za-z0-9_]*/) {
        name = substr($0, RSTART, RLENGTH); sub(/.* fn /, "", name)
        split($0, at, ":"); print name, at[1] ":" at[2]
    }')

# Every distinct word of the corpus, with `fn NAME` definitions dropped.
used=$(nontest crates/*/src crates/*/benches src examples benchmark/src | awk '
    { sub(/^[^:]*:[0-9]+:/, "") }
    /^[[:space:]]*pub use / { next }
    {
        gsub(/fn[[:space:]]+[A-Za-z_][A-Za-z0-9_]*/, " ")
        n = split($0, words, /[^A-Za-z0-9_]+/)
        for (i = 1; i <= n; i++) if (words[i] != "") print words[i]
    }' | sort -u)

uncalled=$(echo "${defs}" | sort -k1,1 | join -v 1 - <(echo "${used}") || true)

status=0
offenders=0
while read -r name where; do
    [ -n "${name}" ] || continue
    reason=$(echo "${ALLOWLIST}" | awk -v n="${name}" '$1 == n { $1 = ""; sub(/^ +/, ""); print }')
    if [ -n "${reason}" ]; then
        printf '%-30s %-44s allowed: %s\n' "${name}" "${where}" "${reason}"
    else
        printf '%-30s %-44s NO CALLER\n' "${name}" "${where}"
        offenders=$((offenders + 1))
    fi
done <<< "${uncalled}"

while read -r name reason; do
    [ -n "${reason}" ] || { echo "allowlist entry ${name} gives no reason"; status=1; }
    echo "${uncalled}" | awk -v n="${name}" '$1 == n { found = 1 } END { exit !found }' || {
        echo "allowlist entry ${name} names no uncalled public function: drop it"
        status=1
    }
done <<< "${ALLOWLIST}"

names=$(echo "${uncalled}" | awk 'NF { print $1 }' | sort -u | wc -l)
echo "${names} uncalled public function names, ${offenders} definitions with no caller and no allowlist entry"
[ "${offenders}" -eq 0 ] || status=1
exit "${status}"
