#!/usr/bin/env python3
"""Compares benchmark results of a parent commit and a change.

  python3 benchmark/compare.py --parent P1.json P2.json ... \
                               --change C1.json C2.json ...

Each file is a result run.py saved under build-benchmark/results/. Run the
two commits alternately, at least ten times each, with the same seeds.
For every workload and metric it prints both sides' median and quartiles,
the change's win fraction over the pairs (pairs match by seed, else by
order; ties count for neither side) and a verdict:

  REGRESSED   the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json
  unresolved  the parent's own interquartile range, as a share of its
              median, is wider than the bound, and not every change run
              beats every parent run
  improved    the change wins at least 9 of 10 pairs and the medians differ
              by more than the parent's interquartile range
  same        none of the above

Per-layer metrics have no bound and get only the `improved` verdict. The
script refuses results whose settings differ: benchmark code, core count,
build type, compiler, run lengths or host threads. Exit status: 0, 1 when
a metric regressed, 2 when the inputs cannot be compared.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETTINGS = ("bench_digest", "nproc", "build_type", "compiler", "seconds",
            "traced_seconds", "host_threads")


def load(paths):
    runs = []
    for p in paths:
        with open(p) as f:
            runs.append(json.load(f))
    return runs


def check_settings(runs):
    """Returns an error message when the runs' settings differ, else None."""
    per_workload = defaultdict(list)
    for r in runs:
        per_workload[r["workload"]].append(r)
    for w, rs in per_workload.items():
        for key in SETTINGS:
            seen = {json.dumps(r["provenance"].get(key)) for r in rs}
            if len(seen) > 1:
                return f"{w}: runs differ in {key}: {', '.join(sorted(seen))}"
    return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(parent, change):
    """(parent value index, change value index) pairs: by seed when every
    run has a partner of the same seed, else by position."""
    ps = [r["provenance"]["seed"] for r in parent]
    cs = [r["provenance"]["seed"] for r in change]
    if sorted(ps) == sorted(cs) and len(set(ps)) == len(ps):
        return [(i, cs.index(s)) for i, s in enumerate(ps)]
    return list(zip(range(len(parent)), range(len(change))))


def verdict(pv, cv, matched, better, bound):
    """Verdict and win fraction of one metric (lists of values)."""
    sign = 1 if better == "lower" else -1
    wins = sum(1 for i, j in matched if sign * (pv[i] - cv[j]) > 0)
    win = wins / len(matched) if matched else 0.0
    q1, pmed, q3 = quartiles(pv)
    cmed = statistics.median(cv)
    iqr = q3 - q1
    if bound is not None and pmed != 0:
        worse = sign * (cmed - pmed) / abs(pmed)
        all_better = all(sign * (p - c) > 0 for p in pv for c in cv)
        if iqr / abs(pmed) > bound and not all_better:
            return "unresolved", win
        if worse > bound:
            return "REGRESSED", win
    if len(matched) >= 10 and win >= 0.9 and abs(cmed - pmed) > iqr:
        return "improved", win
    return "same", win


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    args = ap.parse_args()

    parent, change = load(args.parent), load(args.change)
    problem = check_settings(parent + change)
    if problem:
        print(f"compare.py: refusing to compare: {problem}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    by_w = defaultdict(lambda: ([], []))
    for r in parent:
        by_w[r["workload"]][0].append(r)
    for r in change:
        by_w[r["workload"]][1].append(r)

    regressed = False
    for side, runs in (("parent", parent), ("change", change)):
        shas = sorted({r["provenance"]["git_sha"] for r in runs})
        dirty = any(r["provenance"].get("dirty") for r in runs)
        print(f"{side}: {len(runs)} runs at {', '.join(shas)}"
              f"{' (dirty tree)' if dirty else ''}")
    for w, (par, chg) in sorted(by_w.items()):
        if not par or not chg:
            print(f"\n{w}: runs on one side only; skipped")
            continue
        par.sort(key=lambda r: r["provenance"]["time_utc"])
        chg.sort(key=lambda r: r["provenance"]["time_utc"])
        matched = pairs(par, chg)
        note = "" if len(matched) >= 10 else \
            " (fewer than 10 pairs: no gain can be claimed)"
        print(f"\n{w}: {len(par)} parent runs, {len(chg)} change runs"
              f"{note}")
        print(f"  {'metric':32} {'parent median [q1, q3]':>34} "
              f"{'change median [q1, q3]':>34} {'delta':>8} {'win':>5}  "
              "verdict")
        names = [n for n in par[0]["metrics"] if n in meta]
        for name in names:
            if not all(name in r["metrics"] for r in par + chg):
                continue
            pv = [r["metrics"][name]["value"] for r in par]
            cv = [r["metrics"][name]["value"] for r in chg]
            m = meta[name]
            v, win = verdict(pv, cv, matched, m["better"], m.get("bound"))
            regressed |= v == "REGRESSED"
            p1, p2, p3 = quartiles(pv)
            c1, c2, c3 = quartiles(cv)
            delta = (c2 - p2) / abs(p2) * 100 if p2 else 0.0
            print(f"  {name:32} {p2:12.5g} [{p1:9.5g}, {p3:9.5g}] "
                  f"{c2:12.5g} [{c1:9.5g}, {c3:9.5g}] {delta:+7.2f}% "
                  f"{win:5.2f}  {v}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
