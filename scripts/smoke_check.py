#!/usr/bin/env python3
"""Smoke-regression check for the bench harness.

Runs a figure binary in --smoke mode (first support point, GPApriori +
CPU_TEST only, single repeat) and diffs the emitted BENCH json against the
committed reference in results/.  Itemset-count mismatches are hard
failures (exit 1): the mined result changed, which the determinism
contract forbids.  So is a GPApriori row whose wall_ms exceeds
max(3 x baseline, baseline + 20 ms): a fixed per-mine cost coming back
(such as a zero-filled device arena) costs 10x or more, while VM noise
stays under 2x.  Other wall-clock regressions beyond --wall-tolerance
(default 25%) only warn — timing on shared CI boxes is too noisy to gate
on, but the number is printed so a human can notice a trend.

Usage:
  smoke_check.py --bench <fig6c_chess binary> --baseline results/BENCH_fig6c.json
  smoke_check.py --smoke-json <fresh BENCH json> --baseline <committed json>
  smoke_check.py --serve-cli <gpapriori_cli> --dataset-tool <dataset_tool>

With --bench the binary is executed with --smoke and
GPAPRIORI_BENCH_JSON_DIR pointed at a temporary directory; with
--smoke-json an existing output file is checked instead.

With --serve-cli the MiningService batch path is smoked instead: a small
chess dataset is generated, an 8-request batch (4 thresholds x 2) is run
through `gpapriori_cli serve` twice (four workers; then one worker and
--queue-depth 1), and the check asserts that every request succeeded and
none was rejected, that the repeated requests hit the dataset cache, and
that each request's itemset file is byte-identical to a serial
`gpapriori_cli mine` run at the same threshold.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile


# Hard wall-time gate for the GPApriori smoke row (see the module docstring).
GATED_MINER = "GPApriori"
GATE_FACTOR = 3.0
GATE_SLACK_MS = 20.0


def wall_gate_ms(baseline_ms):
    return max(GATE_FACTOR * baseline_ms, baseline_ms + GATE_SLACK_MS)


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def run_bench(binary, workdir):
    env = dict(os.environ)
    env["GPAPRIORI_BENCH_JSON_DIR"] = workdir
    env["GPAPRIORI_BENCH_CSV_DIR"] = ""  # no CSV litter from the probe
    proc = subprocess.run([binary, "--smoke"], env=env)
    if proc.returncode != 0:
        sys.exit(f"smoke_check: {binary} exited {proc.returncode}")
    files = [f for f in os.listdir(workdir)
             if f.startswith("BENCH_") and f.endswith(".json")]
    if len(files) != 1:
        sys.exit(f"smoke_check: expected one BENCH json in {workdir}, "
                 f"found {files}")
    return os.path.join(workdir, files[0])


def run_serve_smoke(cli, dataset_tool):
    """Two serve batches of 8 requests: byte-identity vs serial, cache hits,
    and no request rejected behind a queue of depth one."""
    supports = ["0.95", "0.9", "0.85", "0.8"]
    with tempfile.TemporaryDirectory(prefix="gpapriori-serve-smoke-") as tmp:
        dataset = os.path.join(tmp, "chess.dat")
        proc = subprocess.run([dataset_tool, "gen", "chess", dataset, "0.2"],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"smoke_check: dataset_tool exited {proc.returncode}: "
                     f"{proc.stderr}")

        # Serial references: one mine per distinct threshold.
        for s in supports:
            out = os.path.join(tmp, f"serial_{s}.txt")
            proc = subprocess.run(
                [cli, "mine", dataset, "--support", s, "--out", out],
                capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"smoke_check: serial mine at {s} exited "
                         f"{proc.returncode}: {proc.stderr}")

        # The batch: every threshold twice, so the second of each pair must
        # be answered from the dataset cache (or deduped in flight). It runs
        # twice: on four workers, then on one worker behind a queue of depth
        # one, which the CLI must never overflow with its own batch.
        for run, flags in ((0, ["--workers", "4"]),
                           (1, ["--workers", "1", "--queue-depth", "1"])):
            results, stderr = serve_batch(cli, tmp, dataset, supports, run,
                                          flags)
            if len(results) != 8:
                sys.exit(f"smoke_check: expected 8 result lines, got "
                         f"{len(results)}")
            bad = [r for r in results if r.get("status") != "ok"]
            if bad:
                sys.exit(f"smoke_check: non-ok serve results ({flags}): "
                         f"{bad}")
            if " 0 rejected" not in stderr:
                sys.exit(f"smoke_check: serve {flags} rejected requests of "
                         f"its own batch: {stderr}")
            shared = sum(r.get("db_cache_hit", 0) or r.get("deduped", 0)
                         for r in results)
            if shared < 1:
                sys.exit("smoke_check: no request reused the dataset cache "
                         "or deduped — sharing layer is not engaging")

            for i, s in enumerate(supports * 2):
                serve_out = os.path.join(tmp, f"serve{run}_{i}_{s}.txt")
                with open(serve_out, "rb") as f:
                    got = f.read()
                with open(os.path.join(tmp, f"serial_{s}.txt"), "rb") as f:
                    want = f.read()
                if got != want:
                    sys.exit(f"smoke_check: FAIL serve request r{i} (support "
                             f"{s}, {flags}) differs from the serial mine — "
                             f"determinism contract broken")
            print(f"smoke_check: PASS ({' '.join(flags)}: 8 serve results "
                  f"byte-identical to serial, {shared} answered via "
                  f"cache/dedup, none rejected)")


def serve_batch(cli, tmp, dataset, supports, run, flags):
    """Runs one `serve` batch; returns its JSON results and its stderr."""
    reqfile = os.path.join(tmp, f"requests{run}.txt")
    with open(reqfile, "w", encoding="utf-8") as f:
        for i, s in enumerate(supports * 2):
            out = os.path.join(tmp, f"serve{run}_{i}_{s}.txt")
            f.write(f"id=r{i} dataset={dataset} support={s} "
                    f"algo=GPApriori out={out}\n")
    proc = subprocess.run([cli, "serve", "--requests", reqfile] + flags,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"smoke_check: serve {flags} exited {proc.returncode}: "
                 f"{proc.stderr}")
    return ([json.loads(line) for line in proc.stdout.splitlines()
             if line.strip()], proc.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bench", help="figure binary to run with --smoke")
    ap.add_argument("--smoke-json", help="already-emitted smoke BENCH json")
    ap.add_argument("--baseline",
                    help="committed BENCH json to diff against "
                         "(required with --bench/--smoke-json)")
    ap.add_argument("--serve-cli",
                    help="gpapriori_cli binary: smoke the serve batch path")
    ap.add_argument("--dataset-tool",
                    help="dataset_tool binary (required with --serve-cli)")
    ap.add_argument("--wall-tolerance", type=float, default=0.25,
                    help="warn when a row's smoke wall_ms exceeds baseline "
                         "by more than this fraction (default 0.25); the "
                         "GPApriori row fails past its hard gate instead")
    args = ap.parse_args()
    if args.serve_cli:
        if not args.dataset_tool:
            ap.error("--serve-cli needs --dataset-tool")
        run_serve_smoke(args.serve_cli, args.dataset_tool)
        return
    if bool(args.bench) == bool(args.smoke_json):
        ap.error("exactly one of --bench / --smoke-json / --serve-cli is "
                 "required")
    if not args.baseline:
        ap.error("--baseline is required with --bench / --smoke-json")

    if args.bench:
        with tempfile.TemporaryDirectory(prefix="gpapriori-smoke-") as tmp:
            smoke = load(run_bench(args.bench, tmp))
    else:
        smoke = load(args.smoke_json)
    base = load(args.baseline)

    for key in ("dataset", "scale"):
        if smoke.get(key) != base.get(key):
            sys.exit(f"smoke_check: {key} mismatch (smoke={smoke.get(key)!r} "
                     f"baseline={base.get(key)!r}); results not comparable — "
                     f"unset GPAPRIORI_BENCH_SCALE or pick the right baseline")

    by_key = {(r["minsup"], r["miner"]): r for r in base["rows"]}
    checked = 0
    failures = []
    for row in smoke["rows"]:
        ref = by_key.get((row["minsup"], row["miner"]))
        if ref is None:
            print(f"smoke_check: WARNING no baseline row for minsup="
                  f"{row['minsup']} miner={row['miner']!r}; skipping")
            continue
        checked += 1
        if row["itemsets"] != ref["itemsets"]:
            failures.append(
                f"itemset count mismatch at minsup={row['minsup']} "
                f"miner={row['miner']!r}: smoke={row['itemsets']} "
                f"baseline={ref['itemsets']}")
            continue
        if row["miner"] == GATED_MINER and \
                row["wall_ms"] > wall_gate_ms(ref["wall_ms"]):
            failures.append(
                f"wall_ms regression at minsup={row['minsup']} "
                f"miner={row['miner']!r}: smoke={row['wall_ms']:.3f}ms "
                f"exceeds the gate {wall_gate_ms(ref['wall_ms']):.3f}ms "
                f"(baseline {ref['wall_ms']:.3f}ms)")
            continue
        if ref["wall_ms"] > 0 and \
                row["wall_ms"] > (1.0 + args.wall_tolerance) * ref["wall_ms"]:
            print(f"smoke_check: WARNING wall_ms regression at minsup="
                  f"{row['minsup']} miner={row['miner']!r}: "
                  f"smoke={row['wall_ms']:.3f}ms baseline="
                  f"{ref['wall_ms']:.3f}ms "
                  f"(+{100.0 * (row['wall_ms'] / ref['wall_ms'] - 1):.0f}%)")
        print(f"smoke_check: ok minsup={row['minsup']} miner={row['miner']!r} "
              f"itemsets={row['itemsets']} wall_ms={row['wall_ms']:.3f} "
              f"(baseline {ref['wall_ms']:.3f})")

    if failures:
        for f in failures:
            print(f"smoke_check: FAIL {f}", file=sys.stderr)
        sys.exit(1)
    if checked == 0:
        sys.exit("smoke_check: no comparable rows — nothing was checked")
    print(f"smoke_check: PASS ({checked} rows match baseline itemset counts, "
          f"{GATED_MINER} wall time within its gate)")


if __name__ == "__main__":
    main()
