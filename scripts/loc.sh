#!/usr/bin/env bash
# Non-test Rust lines per crate: the number a refactor PR quotes before
# and after. A file counts up to its first top-level `#[cfg(test)]` (the
# test module runs to end of file by this repo's convention); blank lines
# and `//` comment lines (doc comments included) are skipped.
# Usage: scripts/loc.sh [REPO_ROOT]   (default: this checkout; pass a
# checkout of the parent commit to get the "before" column)
set -euo pipefail

cd "${1:-$(dirname "$0")/..}"

total=0
for src in crates/*/src shims/*/src src; do
    lines=$(find "${src}" -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }')
    printf '%-22s %6d\n' "${src%/src}" "${lines}"
    total=$((total + lines))
done
printf '%-22s %6d\n' "workspace" "${total}"
