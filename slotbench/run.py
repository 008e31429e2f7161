#!/usr/bin/env python3
"""End-to-end slot-pipeline benchmark for the RBCAer scheduler.

Usage, from the repository root, with W one of paper_day, city_day_h8000
or overload_hourly:

    python3 slotbench/run.py --workload W --seed 1 --seconds 15 --trace 0

Builds slotbench/slot_pipeline from the repository sources into
.bench_build/slotbench on first use, runs one workload in a fresh process,
and prints as its last stdout line one JSON object with the keys
"correct", "attempted", "failed" and "metrics". With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones folded from the
traced drive's spans. The line before it carries the host and build context,
the slot-time tail and the gate's failures. Exit status is non-zero when
any slot fails the correctness gate or the program cannot be built or run.
See slotbench/README.md for the workloads and every metric.
"""

import argparse
import json
import os
from pathlib import Path
import statistics
import subprocess
import sys

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics as m  # noqa: E402  (sibling module, path set just above)

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
BUILD = REPO / ".bench_build" / "slotbench"
OUT = REPO / ".bench_build" / "slotbench-out"
WORKLOADS = ("paper_day", "city_day_h8000", "overload_hourly")
PIPELINE_TIMEOUT_S = 170

# Span names folded into per-layer self-time metrics (metric = name + "_s").
TRACED_LAYERS = (
    "geo.nearest", "model.slotting", "model.demand", "model.topsets",
    "cluster.jd", "cluster.dendrogram", "core.plan", "core.partition",
    "core.graph", "flow.mcmf", "core.replication", "sim.admit",
    "verify.digest", "verify.audit",
)
SETUP_LAYERS = ("trace.generate", "geo.index_build")
COUNTERS = (
    "cluster.jd_pairs", "cluster.clusters", "flow.potential_reprices",
    "core.theta_iterations", "core.guide_nodes", "core.max_movable",
    "core.moved", "core.replicas", "core.miss_rerouted",
    "sim.rejected_capacity", "sim.rejected_placement", "sim.sent_to_cdn",
)


def fail(message):
    print(f"slotbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then bring slot_pipeline up to date."""
    if not (REPO / "CMakeLists.txt").is_file() or not (
            REPO / "src" / "sim" / "simulator.h").is_file():
        fail(f"no scheduler sources under {REPO}; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        # No build type is passed: the root project's default applies, so
        # the benchmark times the repository's default build.
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD)])
    steps.append(["cmake", "--build", str(BUILD), "--target", "slot_pipeline",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            fail("build failed: " + " ".join(step))
    return BUILD / "slot_pipeline"


def end_to_end(raw):
    requests = raw["requests"]
    q = raw["quality"]
    return {
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "requests_per_s": (statistics.median(
            requests / wall for wall in raw["pass_wall_s"]), "1/s"),
        "slot_p50_s": (statistics.median(
            t for row in raw["slot_s"] for t in row), "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "serving_ratio": (q["serving_ratio"], "ratio"),
        "avg_distance_km": (q["avg_distance_km"], "km"),
        "replication_cost": (q["replication_cost"], "replicas/video"),
        "cdn_server_load": (q["cdn_server_load"], "ratio"),
    }


def per_layer(raw, spans):
    [(per_name, unattributed)] = m.fold(spans, "bench.traced_run")
    out = {f"{name}_s": (per_name.get(name, 0.0), "s")
           for name in TRACED_LAYERS}
    setups = m.fold(spans, "bench.setup")
    for name in SETUP_LAYERS:
        out[f"{name}_s"] = (statistics.median(
            layers.get(name, 0.0) for layers, _ in setups), "s")
    counters = raw["counters"]
    for name in COUNTERS:
        out[name] = (counters[name], "count")
    out["core.moved_ratio"] = (
        counters["core.moved"] / counters["core.max_movable"]
        if counters["core.max_movable"] else 0.0, "ratio")
    traced = raw["traced"]
    out["sim.parallel_speedup"] = (
        traced["slot_work_s"] / statistics.median(raw["pass_wall_s"]), "ratio")
    out["bench.unattributed_s"] = (unattributed, "s")
    out["bench.tracing_overhead"] = (
        traced["stage_work_s"] / traced["untraced_stage_work_s"] - 1.0,
        "ratio")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    binary = build()
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = OUT / f"{stem}.spans.jsonl"
    command = [str(binary), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds}",
               f"--spans={spans_path}"]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=PIPELINE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"slot_pipeline exceeded {PIPELINE_TIMEOUT_S} s")
    if proc.returncode not in (0, 1):
        fail(f"slot_pipeline exited with {proc.returncode}")
    try:
        raw = json.loads(proc.stdout)
    except json.JSONDecodeError:
        fail("slot_pipeline printed no result")

    slots = raw["slots"]
    failed = raw["failed_slots"]
    if args.trace:
        with open(spans_path) as f:
            spans = [json.loads(line) for line in f]
        chosen = per_layer(raw, spans)
    else:
        chosen = end_to_end(raw)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "context": raw["context"],
        "requests": raw["requests"],
        "slots": slots,
        "untraced_passes": len(raw["pass_wall_s"]),
        "slot_tail_s": m.slot_tail(raw["slot_s"]),
        "failed_slot_frac": failed / slots if slots else 1.0,
        "failures": raw["failures"],
        "spans_file": str(spans_path.relative_to(REPO)),
    }
    result = {
        "correct": proc.returncode == 0 and failed == 0,
        "attempted": slots,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in chosen.items()},
    }
    (OUT / f"{stem}.result.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
