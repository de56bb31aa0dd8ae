#!/usr/bin/env python3
"""Run the whole benchmark set: every workload, end to end and traced,
each in a fresh process. Called by run.sh, which builds the binary first.

  --seed N        workload seed (default 1)
  --workload W    only this workload (repeatable)
  --smoke         1-second runs without cool-down, to check that everything still works
  --repeat K      run the set K times and compare the end-to-end metrics

Before each run the suite waits until fewer than 1000 sockets are in
TIME_WAIT (70 s at most), so that every run starts from the same socket
table; the wait is reported as cooldown_s and is part of no metric. Each
set is written to benchmark/out/result-<time>-<i>.json. With --repeat the
relative spread of every (metric, workload) is printed beside its bound
from BENCHMARK.json; the exit code is 1 if one exceeds it or a call failed.
"""

import argparse
import json
import pathlib
import platform
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
CONTRACT = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# A run starts once fewer sockets than this are in TIME_WAIT, or after the cap.
COOLDOWN_BELOW = 1000
COOLDOWN_CAP_S = 70


def capture(*cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, cwd=HERE, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def timewait_sockets():
    """Sockets in TIME_WAIT on this host (`tw` in /proc/net/sockstat)."""
    words = next(l for l in open("/proc/net/sockstat") if l.startswith("TCP:")).split()
    return int(words[words.index("tw") + 1])


def cool_down():
    """Wait for the TIME_WAIT table to drain; returns the seconds waited."""
    started = time.monotonic()
    while timewait_sockets() >= COOLDOWN_BELOW and time.monotonic() - started < COOLDOWN_CAP_S:
        time.sleep(1)
    return time.monotonic() - started


def run_one(args, workload, seconds, trace):
    """One workload in one fresh process; returns its result and detail."""
    cooldown_s = 0.0 if args.smoke else cool_down()
    print(f"{workload:<14} {'cooldown_s':<28} {cooldown_s:>16.6f} s")
    cmd = [args.bin, "--out-dir", str(HERE / "out"), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("DETAIL "):
        sys.exit(f"{workload} (trace {trace}) exited with code {proc.returncode} and no result")
    for line in lines[:-2]:
        print(line)
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2][len("DETAIL "):])
    result["cooldown_s"] = cooldown_s
    return result


def run_set(args, seconds):
    doc = {
        "benchmark": "netsl-benchmark",
        "note": "loopback, not a real link; byte counts are computed, not measured",
        "git_rev": capture("git", "rev-parse", "HEAD"),
        "rustc": capture("rustc", "--version"),
        "kernel": platform.release(),
        "seed": args.seed,
        "run_seconds": seconds,
        "workloads": {},
    }
    for workload in args.workload:
        doc["workloads"][workload] = {
            "end_to_end": run_one(args, workload, seconds, 0),
            "per_layer": run_one(args, workload, seconds, 1),
        }
    return doc


def spread(values):
    """Interquartile range over the median, as the driver computes it;
    with fewer than four values, the full range over the median."""
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        width = q3 - q1
    else:
        width = max(values) - min(values)
    return width / statistics.median(values)


def compare(docs):
    """Print every end-to-end metric's spread beside its bound."""
    ok = True
    print(f"\n{'workload':<14} {'metric':<20} {'median':>14} {'spread':>8} {'bound':>6}")
    for workload in docs[0]["workloads"]:
        for metric in CONTRACT["end_to_end"]:
            name = metric["name"]
            values = [d["workloads"][workload]["end_to_end"]["metrics"][name]["value"] for d in docs]
            got = spread(values)
            over = got > metric["bound"]
            ok &= not over
            print(f"{workload:<14} {name:<20} {statistics.median(values):>14.4f} {got:>8.3f} "
                  f"{metric['bound']:>6.2f}{'  OVER' if over else ''}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--bin", required=True, help=argparse.SUPPRESS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in CONTRACT["workloads"]])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args()
    args.workload = args.workload or [w["name"] for w in CONTRACT["workloads"]]
    seconds = 1 if args.smoke else CONTRACT["run_seconds"]

    (HERE / "out").mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    docs = []
    for i in range(args.repeat):
        doc = run_set(args, seconds)
        path = HERE / "out" / f"result-{stamp}-{i}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {path}")
        docs.append(doc)

    failed = sum(run["failed"] for d in docs for w in d["workloads"].values() for run in w.values())
    ok = failed == 0
    if failed:
        print(f"{failed} call(s) failed")
    if args.repeat > 1:
        ok &= compare(docs)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
