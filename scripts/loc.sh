#!/usr/bin/env bash
# Non-test Rust lines per crate: the number a refactor PR quotes before
# and after. A file counts up to its first top-level `#[cfg(test)]` (the
# test module runs to end of file by this repo's convention); blank lines
# and `//` comment lines (doc comments included) are skipped. The last line
# is the test-line total a refactor quotes beside it (ROADMAP rule (f)):
# every `tests/*.rs` file plus each file's part from its first top-level
# `#[cfg(test)]` on, by the same blank-line and comment rule.
# Usage: scripts/loc.sh [REPO_ROOT]   (default: this checkout; pass a
# checkout of the parent commit to get the "before" column)
set -euo pipefail

cd "${1:-$(dirname "$0")/..}"

# count TESTS PATH...: lines of the non-test (TESTS=0) or test (TESTS=1) part
# of every .rs file under the paths; a file under tests/ is test code whole.
count() {
    local tests=$1
    shift
    find "$@" -name '*.rs' -print0 | xargs -0 awk -v tests="${tests}" '
        FNR == 1 { in_tests = (FILENAME ~ /^tests\//) }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests != tests || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }'
}

total=0
for src in crates/*/src shims/*/src src; do
    lines=$(count 0 "${src}")
    printf '%-22s %6d\n' "${src%/src}" "${lines}"
    total=$((total + lines))
done
printf '%-22s %6d\n' "workspace" "${total}"
printf '%-22s %6d\n' "test lines" "$(count 1 tests/*.rs crates/*/src shims/*/src src)"
