#!/usr/bin/env python3
"""Invariant check for the serve chaos soak (bench/soak_serve.cpp).

Runs the soak binary (the ctest `soak` label runs it twice: soak_smoke in
--smoke mode, soak_full without) with GPAPRIORI_BENCH_JSON_DIR pointed at a
temporary directory, then re-asserts the hard invariants against the BENCH
json it emitted:

  * the binary exited 0 (it already self-checks; a nonzero exit is final);
  * zero hangs and zero kOk-vs-serial mismatches;
  * every request reached a terminal status (the status counts sum to the
    request count) and at least one completed kOk;
  * the salvage drills fired: at least one request was truncated (its
    deadline or a cancellation stopped it mid-run or in the queue) and at
    least one cancellation hit a queued or running request;
  * the hedge drill fired: at least one failed mine was retried on
    CPU_TEST (service_stats.hedges > 0).

The committed release-build numbers live in results/BENCH_soak_serve.json
and EXPERIMENTS.md.

Usage:
  soak_check.py --soak <soak_serve binary> [--smoke]
  soak_check.py --json <already-emitted BENCH_soak_serve.json>
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile


def run_soak(binary, smoke, workdir):
    env = dict(os.environ)
    env["GPAPRIORI_BENCH_JSON_DIR"] = workdir
    cmd = [binary] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, env=env)
    if proc.returncode != 0:
        sys.exit(f"soak_check: {binary} exited {proc.returncode} — the soak "
                 f"harness found an invariant violation (see its output)")
    path = os.path.join(workdir, "BENCH_soak_serve.json")
    if not os.path.exists(path):
        sys.exit(f"soak_check: soak binary exited 0 but wrote no {path}")
    return path


def check(report):
    failures = []
    if report.get("pass") is not True:
        failures.append(f"pass flag is {report.get('pass')!r}")
    if report.get("hangs", 1) != 0:
        failures.append(f"hangs = {report.get('hangs')}")
    if report.get("mismatches", 1) != 0:
        failures.append(
            f"{report.get('mismatches')} kOk results differ from the serial "
            f"reference — determinism contract broken")
    counts = report.get("status_counts", {})
    terminal = sum(counts.values())
    requests = report.get("requests", -1)
    if terminal != requests:
        failures.append(f"{terminal} terminal results for {requests} requests")
    if counts.get("ok", 0) == 0:
        failures.append("no request completed ok")
    if report.get("compared", 0) == 0:
        failures.append("no kOk result was compared against a reference")
    if counts.get("truncated", 0) == 0:
        failures.append("no request was truncated: the deadline and cancel "
                        "drills salvaged nothing")
    if report.get("cancel_hits", 0) == 0:
        failures.append("no cancellation hit a queued or running request")
    hedges = report.get("service_stats", {}).get("hedges", 0)
    if hedges == 0:
        failures.append("no failed mine was hedged: the storm wave's device "
                        "faults were never retried on CPU_TEST")

    print(f"soak_check: {requests} requests -> "
          + ", ".join(f"{k} {v}" for k, v in sorted(counts.items()))
          + f"; {report.get('shed_retries', 0)} client retries, "
            f"{report.get('cancel_hits', 0)} cancel hits, {hedges} hedges, "
            f"{report.get('compared', 0)} kOk results byte-identical to "
            f"serial")

    if failures:
        for f in failures:
            print(f"soak_check: FAIL {f}", file=sys.stderr)
        sys.exit(1)
    print("soak_check: PASS")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--soak", help="soak_serve binary to run")
    ap.add_argument("--smoke", action="store_true",
                    help="run the bounded smoke soak (ctest mode)")
    ap.add_argument("--json", help="already-emitted BENCH_soak_serve.json")
    args = ap.parse_args()
    if bool(args.soak) == bool(args.json):
        ap.error("exactly one of --soak / --json is required")
    if args.soak:
        with tempfile.TemporaryDirectory(prefix="gpapriori-soak-") as tmp:
            path = run_soak(args.soak, args.smoke, tmp)
            with open(path, "r", encoding="utf-8") as f:
                report = json.load(f)
    else:
        with open(args.json, "r", encoding="utf-8") as f:
            report = json.load(f)
    check(report)


if __name__ == "__main__":
    main()
