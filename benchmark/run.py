#!/usr/bin/env python3
"""The repository benchmark: one command that builds, prepares data, runs
the workloads, checks every answer and prints every metric with its unit.

  python3 benchmark/run.py                 all workloads, end-to-end metrics
  python3 benchmark/run.py --traced        all workloads, per-layer metrics
  python3 benchmark/run.py --check         3 s per workload; checks answers
                                           and that every declared metric
                                           is emitted with its unit
  python3 benchmark/run.py --check --corrupt-reference
                                           the same against a corrupted
                                           reference; must fail
  python3 benchmark/run.py prepare --seed N
  python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
                                           one run; the last stdout line is
                                           a JSON object with the metrics

Workloads, metrics and bounds are declared in BENCHMARK.json at the
repository root; README.md in this directory defines them. Everything the
benchmark builds or writes goes under build-benchmark/ at the repository
root. Every run also leaves a result file with its provenance under
build-benchmark/results/ for compare.py.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import layers  # noqa: E402

WORKLOADS = ["chess-dense", "t40-kernel", "pumsb-host", "serve-mix"]

# latency_ms_tail: the highest percentile with at least ten samples beyond
# it at the seed commit's speed over run_seconds; on serve-mix p85, whose
# spread over ten runs was 0.06 against 0.09 for p90 (README.md).
TAIL_PERCENTILE = {"chess-dense": 90, "t40-kernel": 75, "pumsb-host": 80,
                   "serve-mix": 85}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def declared():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Build and data


def build(build_dir):
    """Configures (once) and builds gpa_bench. Returns its path or None."""
    exe = build_dir / "gpa_bench"
    if not (build_dir / "CMakeCache.txt").exists():
        r = subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                            "-DCMAKE_BUILD_TYPE=Release",
                            f"-DPython3_EXECUTABLE={sys.executable}"],
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            # A half-configured tree would be reused by the next call.
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    r = subprocess.run(["cmake", "--build", str(build_dir), "--target",
                        "gpa_bench", "-j", "4"],
                       stdout=sys.stderr, stderr=sys.stderr)
    return exe if r.returncode == 0 and exe.exists() else None


def prepare(exe, build_dir, workload, seed):
    """Generates the workload's data and references for `seed` (cached).
    Other seeds' data for the workload is removed to bound disk use."""
    data = build_dir / "data" / str(seed) / workload
    if not (data / "ref.txt").exists():
        shutil.rmtree(data, ignore_errors=True)
        r = subprocess.run([str(exe), "prepare", "--data", str(data),
                            "--workload", workload, "--seed", str(seed)],
                           stdout=sys.stderr, stderr=sys.stderr, timeout=600)
        if r.returncode != 0:
            return None
    for other in (build_dir / "data").iterdir():
        if other.name != str(seed):
            shutil.rmtree(other / workload, ignore_errors=True)
            if other.is_dir() and not any(other.iterdir()):
                other.rmdir()
    return data


def corrupted_reference(data):
    """A copy of the reference with one digest bit flipped."""
    lines = (data / "ref.txt").read_text().splitlines()
    key, count, digest = lines[0].split()
    lines[0] = f"{key} {count} {int(digest, 16) ^ 1:016x}"
    path = data / "ref.corrupt.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


# ---------------------------------------------------------------------------
# Running


def run_workload(exe, build_dir, data, workload, seed, seconds,
                 traced_seconds, ref=None):
    """Runs gpa_bench once; returns (raw result dict, trace path) or None."""
    out = build_dir / "raw" / f"{workload}.json"
    trace = build_dir / "traces" / f"{workload}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    trace.parent.mkdir(parents=True, exist_ok=True)
    out.unlink(missing_ok=True)
    cmd = [str(exe), "run", "--data", str(data), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--out", str(out)]
    if ref is not None:
        cmd += ["--ref", str(ref)]
    if traced_seconds > 0:
        cmd += ["--traced-seconds", repr(traced_seconds),
                "--trace-out", str(trace)]
    env = dict(os.environ)
    # The benchmark fixes its own parallelism; nothing may leak in.
    for var in ("GPAPRIORI_HOST_THREADS", "GPAPRIORI_TRACE",
                "GPAPRIORI_METRICS", "GPAPRIORI_DEADLINE_MS",
                "GPAPRIORI_NO_NATIVE", "GPAPRIORI_NO_TILED",
                "GPAPRIORI_MAX_GROUP_SIZE"):
        env.pop(var, None)
    limit = 2 * (seconds + traced_seconds) + 150
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           env=env, timeout=limit)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} exceeded {limit:.0f} s and was killed")
        return None
    if r.returncode != 0 or not out.exists():
        return None
    with open(out) as f:
        return json.load(f), trace


def failures(phase):
    return phase["exceptions"] + phase["bad_status"] + phase["mismatches"]


def end_to_end(raw):
    """The end-to-end metrics of the untraced phase: name -> (value, unit).

    Every time is scaled to the nominal machine speed (layers.speed_scale).
    BENCHMARK.json bounds the first six. error_rate and sim_device_ms are
    exact rather than measured (0 on every correct run; the same modeled
    time on every run), so they get no regression bound: a failed request
    fails the run, and sim_device_ms is also a per-layer metric. ref_ms and
    latency_ms_p50_unscaled show the machine's speed and what it did to the
    median."""
    p = raw["untraced"]
    lat = layers.scaled_latencies(raw, p)
    tail = TAIL_PERCENTILE[raw["workload"]]
    scale = layers.speed_scale(raw, p["ref_ms"])
    # A closed loop's elapsed time is the program's own; the open loop's is
    # its fixed arrival schedule, which machine speed does not change.
    elapsed_s = p["elapsed_ms"] / 1e3
    if raw["workload"] != "serve-mix":
        elapsed_s *= scale
    return {
        "latency_ms_p50": (layers.pct(lat, 50), "ms"),
        "latency_ms_tail": (layers.pct(lat, tail), "ms"),
        "goodput_rps": (p["good"] / elapsed_s, "req/s"),
        "cpu_ms_per_req": (p["cpu_ms"] * scale / max(p["completed"], 1),
                           "ms"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(raw["setup_s"]) *
                    layers.speed_scale(raw, raw["setup_ref_ms"]), "s"),
        "error_rate": (failures(p) / max(p["attempted"], 1), "ratio"),
        "sim_device_ms": (raw["sim_device_ms"], "ms"),
        "ref_ms": (statistics.median(p["ref_ms"]), "ms"),
        "latency_ms_p50_unscaled": (layers.pct(p["latency_ms"], 50), "ms"),
    }


def correctness(raw):
    phases = [raw["untraced"]] + ([raw["traced"]["phase"]]
                                  if raw["traced"] else [])
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(failures(p) for p in phases)
    ok = raw["warm_ok"] and failed == 0 and raw["untraced"]["latency_ms"]
    return bool(ok), attempted, failed


def git(*args):
    if not (ROOT / ".git").exists():
        return None  # an exported tree: git would answer for a parent repo
    try:
        r = subprocess.run(["git", "-C", str(ROOT), *args],
                           capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def bench_digest():
    """Fingerprint of the benchmark's own files: compare.py refuses to put
    results from different benchmark code side by side."""
    h = hashlib.sha256()
    for path in sorted(HERE.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(HERE).as_posix().encode())
            h.update(path.read_bytes())
    h.update((ROOT / "BENCHMARK.json").read_bytes())
    return h.hexdigest()[:16]


def provenance(raw, seconds, traced_seconds):
    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if sha else None
    return {
        "git_sha": sha or "unknown",
        "dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "seed": raw["seed"],
        "seconds": seconds,
        "traced_seconds": traced_seconds,
        "build_type": raw["build_type"],
        "compiler": raw["compiler"],
        "host_threads": raw["host_threads"],
        "bench_digest": bench_digest(),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def save_result(build_dir, raw, metrics, seconds, traced_seconds, correct):
    doc = {"workload": raw["workload"],
           "provenance": provenance(raw, seconds, traced_seconds),
           "correct": correct,
           "metrics": {k: {"value": v, "unit": u}
                       for k, (v, u) in metrics.items()}}
    d = build_dir / "results"
    d.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    kind = "traced" if traced_seconds > 0 else "e2e"
    path = d / f"{stamp}-{raw['workload']}-seed{raw['seed']}-{kind}.json"
    n = 1
    while path.exists():
        path = path.with_name(f"{path.stem}-{n}.json")
        n += 1
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def measure(exe, build_dir, workload, seed, seconds, trace, ref=None):
    """One run of one workload. trace=False gives the end-to-end metrics of
    `seconds` untraced; trace=True splits `seconds` into an untraced and a
    traced half and gives the per-layer metrics. Returns
    (metrics, correct, attempted, failed) or None when it could not run."""
    data = prepare(exe, build_dir, workload, seed)
    if data is None:
        return None
    if ref == "corrupt":
        ref = corrupted_reference(data)
    untraced = seconds / 2 if trace else seconds
    got = run_workload(exe, build_dir, data, workload, seed, untraced,
                       seconds - untraced, ref)
    if got is None:
        return None
    raw, trace_path = got
    correct, attempted, failed = correctness(raw)
    metrics = layers.analyze(raw, trace_path) if trace else end_to_end(raw)
    lag = layers.pct(raw["untraced"]["gen_lag_ms"], 99)
    if lag > 5:
        log(f"run.py: {workload}: generator ran {lag:.1f} ms late at p99; "
            "the open-loop schedule was not kept and the run is invalid")
    saved = save_result(build_dir, raw, metrics, untraced,
                        seconds - untraced, correct)
    log(f"run.py: {workload}: result saved to {saved}")
    return metrics, correct, attempted, failed


# ---------------------------------------------------------------------------
# Modes


def single_run(args, exe, build_dir):
    """--workload W --seed N --seconds S --trace 0|1."""
    spec = declared()
    got = measure(exe, build_dir, args.workload, args.seed, args.seconds,
                  args.trace == 1)
    if got is None:
        log("run.py: the workload did not run")
        return 1
    metrics, correct, attempted, failed = got
    names = spec["per_layer" if args.trace else "end_to_end"]
    out = {}
    for m in names:
        value, _ = metrics[m["name"]]
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


def table_run(args, exe, build_dir):
    """The human-readable modes: the default run, --traced and --check."""
    spec = declared()
    workloads = [args.workload] if args.workload else WORKLOADS
    if args.check:
        seconds = 3.0
    else:
        seconds = args.seconds or float(spec["run_seconds"])
    ok = True
    for w in workloads:
        passes = [False, True] if args.check else [args.traced]
        for trace in passes:
            # --check runs a traced pass too, so the per-layer metrics are
            # emitted; it gives it its own 3 s.
            got = measure(exe, build_dir, w, args.seed,
                          2 * seconds if trace and args.check else seconds,
                          trace, "corrupt" if args.corrupt_reference else None)
            if got is None:
                print(f"CHECK FAILED: {w} did not run", flush=True)
                ok = False
                continue
            metrics, correct, attempted, failed = got
            for name, (value, unit) in metrics.items():
                print(f"{w} {name} {value:.6g} {unit}")
            print(f"{w} requests {attempted} attempted, {failed} failed",
                  flush=True)
            if not correct:
                print(f"CHECK FAILED: {w}: {failed} of {attempted} requests "
                      "disagree with the reference or failed", flush=True)
                ok = False
            if args.check:
                want = spec["per_layer" if trace else "end_to_end"]
                for m in want:
                    got_m = metrics.get(m["name"])
                    if got_m is None or got_m[1] != m["unit"]:
                        print(f"CHECK FAILED: {w}: metric {m['name']} "
                              f"missing or not in {m['unit']}", flush=True)
                        ok = False
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("action", nargs="?", default="run",
                    choices=["run", "prepare"])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--corrupt-reference", action="store_true")
    ap.add_argument("--build-dir", default=str(ROOT / "build-benchmark"))
    args = ap.parse_args()
    if args.seconds is not None and not args.seconds > 0:
        ap.error("--seconds must be positive")

    build_dir = Path(args.build_dir).resolve()
    exe = build(build_dir)
    if exe is None:
        log("run.py: build failed")
        return 2
    if args.action == "prepare":
        for w in [args.workload] if args.workload else WORKLOADS:
            if prepare(exe, build_dir, w, args.seed) is None:
                return 1
        return 0
    if args.trace is not None:
        if not args.workload or args.seconds is None:
            ap.error("--trace needs --workload and --seconds")
        return single_run(args, exe, build_dir)
    return table_run(args, exe, build_dir)


if __name__ == "__main__":
    sys.exit(main())
