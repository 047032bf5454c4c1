#!/usr/bin/env python3
"""Per-layer attribution of a traced benchmark run.

  python3 benchmark/layers.py RAW.json TRACE.json

RAW.json is the result file gpa_bench writes for a run with a traced phase,
TRACE.json the Chrome trace of that phase (both under build-benchmark/ after
`run.py --traced`). Prints one `metric value unit` line per layer metric.

How the trace is read:
  * spans are rebuilt from the B/E events of each thread; a span's self
    time is its duration minus the time its children on the same thread
    cover (spans nest properly within one thread);
  * every span gets a request id: the `req` argument of the benchmark's own
    spans, the `r<N>` name of the service's per-request span, else its
    parent's id on the same thread, else the request span that contains it
    in time (executor pool threads of the closed-loop workloads);
  * every `dispatch` span (one executor chunk) is assigned to the `kernel`
    span that contains it: its own thread's enclosing kernel, or the kernel
    running on another thread at the time;
  * each metric is a median over requests, except the serving workload's
    counters, which interleave between concurrent requests and are
    reported as totals divided by the requests completed;
  * layer times are as measured, not scaled to the nominal machine speed
    the end-to-end metrics use; harness.ref_ms is the reference unit's
    time during the run, the machine's speed.

Metrics of a layer a workload does not use read 0.
"""

import bisect
import json
import statistics
import sys
from collections import defaultdict

# Unit of every metric this module emits; BENCHMARK.json declares the same.
UNITS = {
    "fim.parse_ms": "ms",
    "fim.parse_mb_per_s": "MB/s",
    "fim.output_ms": "ms",
    "fim.output_bytes": "bytes",
    "fim.checkpoint_write_ms": "ms",
    "fim.checkpoint_read_ms": "ms",
    "fim.checkpoint_bytes": "bytes",
    "fim.checkpoints_written": "count",
    "gpusim.device_setup_ms": "ms",
    "gpusim.arena_use_ratio": "ratio",
    "gpusim.kernel_ms": "ms",
    "gpusim.dispatch_busy_ms": "ms",
    "gpusim.ns_per_word_anded": "ns",
    "gpusim.kernel_launches": "count",
    "gpusim.words_anded": "count",
    "gpusim.popc_ops": "count",
    "gpusim.warp_instructions": "count",
    "gpusim.global_load_bytes": "bytes",
    "gpusim.native_block_share": "ratio",
    "gpusim.transfer_ms": "ms",
    "gpusim.h2d_bytes": "bytes",
    "gpusim.d2h_bytes": "bytes",
    "gpusim.sim_device_ms": "ms",
    "core.mine_ms": "ms",
    "core.mine_untraced_ms": "ms",
    "core.resume_ms": "ms",
    "core.candgen_ms": "ms",
    "core.flatten_ms": "ms",
    "core.build_ms": "ms",
    "core.emit_ms": "ms",
    "core.candidates": "count",
    "core.survivor_ratio": "ratio",
    "core.levels": "count",
    "serve.queue_ms_p50": "ms",
    "serve.queue_ms_p90": "ms",
    "serve.exec_ms_p50": "ms",
    "serve.submit_ms": "ms",
    "serve.db_cache_hit_ratio": "ratio",
    "serve.layout_cache_hit_ratio": "ratio",
    "serve.stale_reparses": "count",
    "serve.dedup_ratio": "ratio",
    "serve.shed": "count",
    "serve.rejected": "count",
    "serve.hedges": "count",
    "serve.plan_share.gpapriori": "ratio",
    "serve.plan_share.cpu_test": "ratio",
    "serve.plan_share.topk": "ratio",
    "serve.plan_share.other": "ratio",
    "obs.trace_overhead_pct": "%",
    "obs.spans_dropped": "count",
    "obs.request_coverage": "ratio",
    "harness.gen_lag_ms_p99": "ms",
    "harness.samples": "count",
    "harness.ref_ms": "ms",
    "harness.latency_ms_p50_unscaled": "ms",
}

PLAN_SHARE = {"GPApriori": "gpapriori", "CPU_TEST": "cpu_test",
              "top-k (native)": "topk"}


class Span:
    __slots__ = ("name", "cat", "tid", "begin", "end", "args", "parent",
                 "child_us", "req", "dispatch_us")

    def __init__(self, ev, parent):
        self.name = ev["name"]
        self.cat = ev["cat"]
        self.tid = ev["tid"]
        self.begin = float(ev["ts"])
        self.end = self.begin
        self.args = ev.get("args", {})
        self.parent = parent
        self.child_us = 0.0
        self.dispatch_us = 0.0
        self.req = None
        if self.cat == "other" and "req" in self.args:
            r = int(self.args["req"])
            self.req = r if r >= 0 else None
        elif self.cat == "serve" and self.name[1:].isdigit():
            self.req = int(self.name[1:])
        elif parent is not None:
            self.req = parent.req

    @property
    def dur(self):
        return self.end - self.begin

    @property
    def self_us(self):
        return max(self.dur - self.child_us, 0.0)

    def ancestor(self, cat):
        p = self.parent
        while p is not None and p.cat != cat:
            p = p.parent
        return p


def load_spans(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    stacks = defaultdict(list)
    spans = []
    for ev in events:
        ph = ev["ph"]
        if ph == "B":
            stack = stacks[ev["tid"]]
            s = Span(ev, stack[-1] if stack else None)
            stack.append(s)
            spans.append(s)
        elif ph == "E":
            s = stacks[ev["tid"]].pop()
            s.end = float(ev["ts"])
            if s.parent is not None:
                s.parent.child_us += s.dur
    return spans


def stamp_by_containment(spans):
    """Gives unstamped spans the request whose span contains them in time,
    when requests ran one at a time."""
    reqs = sorted((s for s in spans if s.name == "request"),
                  key=lambda s: s.begin)
    if any(a.end > b.begin for a, b in zip(reqs, reqs[1:])):
        return  # concurrent requests: time does not identify the owner
    begins = [s.begin for s in reqs]
    for s in spans:
        if s.req is not None or s.cat == "other":
            continue
        i = bisect.bisect_right(begins, s.begin) - 1
        if i >= 0 and s.end <= reqs[i].end:
            s.req = reqs[i].req


def assign_dispatch(spans):
    """Adds every dispatch span's duration to the kernel that ran it."""
    kernels = sorted((s for s in spans if s.cat == "kernel"),
                     key=lambda s: s.begin)
    begins = [k.begin for k in kernels]
    for d in spans:
        if d.cat != "dispatch":
            continue
        k = d.ancestor("kernel")
        if k is None:
            i = bisect.bisect_right(begins, d.begin) - 1
            while i >= 0 and not kernels[i].end >= d.end:
                i -= 1
            k = kernels[i] if i >= 0 else None
        if k is not None:
            k.dispatch_us += d.dur


def med(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def pct(values, p):
    """Percentile by linear interpolation between closest ranks."""
    s = sorted(values)
    if not s:
        return 0.0
    x = (len(s) - 1) * p / 100.0
    lo = int(x)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (x - lo)


def speed_scale(raw, ref_ms):
    """Factor that brings times measured next to the reference unit times
    `ref_ms` to the nominal speed of gpa_bench's kReferenceNominalMs."""
    return raw["ref_nominal_ms"] / statistics.median(ref_ms)


def scaled_latencies(raw, phase):
    """The phase's latencies, each scaled by the median of the nine
    reference units that started nearest its completion."""
    at, ref = phase["ref_at_ms"], phase["ref_ms"]
    out = []
    for lat, end in zip(phase["latency_ms"], phase["end_ms"]):
        i = bisect.bisect_left(at, end)
        out.append(lat * speed_scale(raw, ref[max(i - 4, 0):i + 5]))
    return out


def per_request(spans):
    """Request id -> summed layer times (ms) of that request's spans."""
    acc = defaultdict(lambda: defaultdict(float))
    for s in spans:
        if s.req is None:
            continue
        a = acc[s.req]
        if s.cat == "kernel":
            a["kernel"] += s.dur / 1e3
            a["dispatch"] += s.dispatch_us / 1e3
        elif s.cat in ("h2d", "d2h"):
            a["transfer"] += s.dur / 1e3
        elif s.cat == "serve" or (s.cat == "other" and s.name == "mine"):
            a["mine"] += s.dur / 1e3
            a["mine_self"] += s.self_us / 1e3
        elif s.cat == "other" and s.name == "request":
            a["request"] += s.dur / 1e3
            a["covered"] += s.child_us / 1e3
    return acc


def analyze(raw, trace_path):
    """Per-layer metrics of a traced run: name -> (value, unit)."""
    traced = raw["traced"]
    phase = traced["phase"]
    serve = raw["workload"] == "serve-mix"
    spans = load_spans(trace_path)
    stamp_by_containment(spans)
    assign_dispatch(spans)
    reqs = per_request(spans)
    by_name = defaultdict(list)
    for s in spans:
        if s.cat == "other":
            by_name[s.name].append(s)

    m = {}

    def durations(name):
        return [s.dur / 1e3 for s in by_name[name]]

    def arg(name, key):
        return [s.args.get(key, 0) for s in by_name[name]]

    # fim
    m["fim.parse_ms"] = med(durations("parse"))
    m["fim.parse_mb_per_s"] = med(
        s.args.get("bytes", 0) / 1e6 / (s.dur / 1e6)
        for s in by_name["parse"] if s.dur > 0)
    m["fim.output_ms"] = med(durations("output"))
    m["fim.output_bytes"] = med(arg("output", "bytes"))
    m["fim.checkpoint_write_ms"] = med(durations("ckpt-write"))
    m["fim.checkpoint_read_ms"] = med(durations("ckpt-read"))
    m["fim.checkpoint_bytes"] = med(arg("ckpt-write", "bytes"))
    m["gpusim.device_setup_ms"] = med(durations("device-setup"))

    # Counters: per-request deltas on the closed loops, totals over the
    # completed requests on the service.
    counters = traced["counters"]
    done = max(phase["completed"], 1)
    rows = phase["requests"]
    if serve:
        def per_req(counter):
            return counters[counter] / done
    else:
        def per_req(counter):
            return med(r["counters"][counter] for r in rows)

    m["fim.checkpoints_written"] = per_req("checkpoints_written")
    m["gpusim.kernel_launches"] = per_req("kernel_launches")
    m["gpusim.words_anded"] = per_req("words_anded")
    m["gpusim.popc_ops"] = per_req("popc_ops")
    m["gpusim.warp_instructions"] = per_req("warp_instructions")
    m["gpusim.global_load_bytes"] = per_req("global_load_bytes")
    m["gpusim.h2d_bytes"] = per_req("h2d_bytes")
    m["gpusim.d2h_bytes"] = per_req("d2h_bytes")
    native = per_req("native_blocks")
    blocks = native + per_req("interpreted_blocks")
    m["gpusim.native_block_share"] = native / blocks if blocks else 0.0
    m["gpusim.arena_use_ratio"] = (counters["device_mem_peak_bytes"] /
                                   traced["arena_bytes"])
    m["gpusim.sim_device_ms"] = raw["sim_device_ms"]

    # Layer times of each request, from its spans.
    r = list(reqs.values())
    m["gpusim.kernel_ms"] = med(a["kernel"] for a in r)
    m["gpusim.dispatch_busy_ms"] = med(a["dispatch"] for a in r)
    words = m["gpusim.words_anded"]
    m["gpusim.ns_per_word_anded"] = (m["gpusim.kernel_ms"] * 1e6 / words
                                     if words else 0.0)
    m["gpusim.transfer_ms"] = med(a["transfer"] for a in r)
    m["core.mine_ms"] = med(a["mine"] for a in r if a["mine"])
    m["core.mine_untraced_ms"] = med(a["mine_self"] for a in r if a["mine"])
    m["core.resume_ms"] = med(durations("ckpt-resume"))

    # Host phases and level shape.
    if serve:
        for phase_name, counter in (("candgen", "host_candgen_us"),
                                    ("flatten", "host_flatten_us"),
                                    ("build", "host_build_us"),
                                    ("emit", "host_emit_us")):
            m[f"core.{phase_name}_ms"] = counters[counter] / 1e3 / done
        cands = counters["candidates"] / done
        survivors = counters["survivors"] / done
        m["core.levels"] = traced["level_table_size"]
    else:
        for phase_name in ("candgen", "flatten", "build", "emit"):
            m[f"core.{phase_name}_ms"] = med(x[f"{phase_name}_ms"]
                                             for x in rows)
        cands = med(x["candidates"] for x in rows)
        survivors = med(x["survivors"] for x in rows)
        m["core.levels"] = med(x["levels"] for x in rows)
    m["core.candidates"] = cands
    m["core.survivor_ratio"] = survivors / cands if cands else 0.0

    # Serving layer.
    zero = ("serve.queue_ms_p50", "serve.queue_ms_p90", "serve.exec_ms_p50",
            "serve.submit_ms", "serve.db_cache_hit_ratio",
            "serve.layout_cache_hit_ratio", "serve.stale_reparses",
            "serve.dedup_ratio", "serve.shed", "serve.rejected",
            "serve.hedges", "serve.plan_share.gpapriori",
            "serve.plan_share.cpu_test", "serve.plan_share.topk",
            "serve.plan_share.other", "harness.gen_lag_ms_p99")
    for k in zero:
        m[k] = 0.0
    if serve:
        svc = phase["service"]
        n = len(rows) or 1
        queue = [x["queue_ms"] for x in rows]
        m["serve.queue_ms_p50"] = pct(queue, 50)
        m["serve.queue_ms_p90"] = pct(queue, 90)
        m["serve.exec_ms_p50"] = med(x["exec_ms"] for x in rows)
        m["serve.submit_ms"] = med(durations("submit"))
        m["serve.db_cache_hit_ratio"] = sum(x["db_cache_hit"]
                                            for x in rows) / n
        layout = [x for x in rows if x["algo"] == "GPApriori"]
        m["serve.layout_cache_hit_ratio"] = (
            sum(x["layout_cache_hit"] for x in layout) / len(layout)
            if layout else 0.0)
        m["serve.stale_reparses"] = svc["db_misses"]
        m["serve.dedup_ratio"] = sum(x["deduped"] for x in rows) / n
        m["serve.shed"] = svc["shed"]
        m["serve.rejected"] = svc["rejected"]
        m["serve.hedges"] = svc["hedges"]
        for x in rows:
            key = PLAN_SHARE.get(x["algo"], "other")
            m[f"serve.plan_share.{key}"] += 1 / n
        m["harness.gen_lag_ms_p99"] = pct(phase["gen_lag_ms"], 99)
        # The request span runs from the due time to completion on the
        # collector thread; its layers are queue wait and execution.
        m["obs.request_coverage"] = med(
            (x["queue_ms"] + x["exec_ms"]) / x["latency_ms"]
            for x in rows if x["latency_ms"] > 0)
    else:
        m["obs.request_coverage"] = med(a["covered"] / a["request"]
                                        for a in r if a["request"] > 0)

    # Observability itself, compared at one machine speed.
    untraced_p50 = pct(scaled_latencies(raw, raw["untraced"]), 50)
    traced_p50 = pct(scaled_latencies(raw, phase), 50)
    m["obs.trace_overhead_pct"] = (
        (traced_p50 / untraced_p50 - 1) * 100 if untraced_p50 else 0.0)
    m["obs.spans_dropped"] = traced["spans_dropped"]
    m["harness.samples"] = len(raw["untraced"]["latency_ms"])
    # The machine's speed and the latency before scaling to the nominal one.
    m["harness.ref_ms"] = statistics.median(raw["untraced"]["ref_ms"])
    m["harness.latency_ms_p50_unscaled"] = pct(raw["untraced"]["latency_ms"],
                                               50)

    return {k: (float(v), UNITS[k]) for k, v in m.items()}


def main():
    if len(sys.argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 64
    with open(sys.argv[1]) as f:
        raw = json.load(f)
    if not raw.get("traced"):
        print(f"{sys.argv[1]} has no traced phase", file=sys.stderr)
        return 1
    for name, (value, unit) in analyze(raw, sys.argv[2]).items():
        print(f"{name} {value:.6g} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
