#!/usr/bin/env python3
"""Benchmark of the Catapult simulator: three single-threaded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload frontier|blackout|scoring|all \\
        [--seed N] [--seconds S] [--trace 0|1]

The first call configures and builds perfbench_driver (Release) into
.bench_build/. A run then starts one driver process per repetition, one
after another, until --seconds of host time have passed, and reports
host times from the fastest repetition and every other metric as the
median over the repetitions. Every repetition of a seed must reproduce
the same simulated outputs (event count and digest).

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics, which come from untraced repetitions (the baseline) and traced
ones (leaf-PC sampling, call spans, rank replay). See README.md. The
last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")

WORKLOADS = ("frontier", "blackout", "scoring")

# Repetitions per run, whatever --seconds says.
MIN_REPS = 3
MIN_TRACED_REPS = 2
# One repetition takes a few seconds; this only bounds a hung process.
REP_TIMEOUT_S = 120

END_TO_END = [
    ("setup_s", "s"),
    ("simulate_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_latency_p50_us", "us"),
    ("sim_latency_p99_us", "us"),
    ("sim_goodput_per_s", "1/s"),
]
# Host times, reported from the fastest repetition of a run; see estimate().
FASTEST = {"setup_s", "simulate_s", "wall_s", "model_gen_s", "build_s",
           "deploy_s"}

# Leaf-PC attribution of the simulate phase (see sampler.h).
SAMPLED_LAYERS = [
    "sim.kernel_s", "sim.group_s", "shell.self_s", "host.self_s",
    "rank.cost_model_s", "rank.kernels_s", "rank.other_s", "service.ring_s",
    "service.front_s", "mgmt.self_s", "alloc.self_s", "common.self_s",
    "obs.self_s", "other.self_s",
]

# Values the driver reports in its "layer" map, with their units.
DRIVER_LAYER = [
    ("rank.fe_us_per_doc", "us"),
    ("rank.ffe_us_per_doc", "us"),
    ("rank.score_us_per_doc", "us"),
    ("rank.compress_us_per_doc", "us"),
    ("rank.cost_model_us_per_doc", "us"),
    ("service.submit_us", "us"),
    ("sim.group_rounds", "count"),
    ("sim.group_items_per_round", "items/round"),
    ("sim.group_messages", "count"),
    ("shell.sl3_flits", "count"),
    ("shell.router_stalls", "count"),
    ("shell.dma_output_stalls", "count"),
    ("host.slot_timeouts", "count"),
    ("host.late_responses", "count"),
    ("service.failovers", "count"),
    ("service.failover_ratio", "ratio"),
    ("service.gathers_partial", "count"),
    ("service.stragglers", "count"),
    ("mgmt.heartbeats", "count"),
    ("mgmt.investigations", "count"),
    ("service.model_reloads", "count"),
    ("service.reloads_per_doc", "ratio"),
]

PER_LAYER = (
    [("setup.model_gen_s", "s"), ("setup.build_s", "s"),
     ("setup.deploy_s", "s")]
    + [(name, "s") for name in SAMPLED_LAYERS]
    + DRIVER_LAYER
    + [("sim.events_fired", "count"), ("sim.host_ns_per_event", "ns"),
       ("trace.samples", "count"), ("trace.overhead_frac", "ratio")]
)


def build():
    """Configure (once) and build the driver; build output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"] + generator,
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver",
         "-j", jobs],
        stdout=sys.stderr, check=True)


def run_driver(workload, seed, traced, cpu=None):
    """One repetition: one driver process, pinned to `cpu` when given;
    returns its JSON record."""
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    pin = None if cpu is None else lambda: os.sched_setaffinity(0, {cpu})
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=REP_TIMEOUT_S, check=False,
                          preexec_fn=pin)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: "
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repeat(workload, seed, traced, until, min_reps):
    """Repetitions until `until`, rotating over the CPUs this process may
    use: on a shared host a neighbour can slow one CPU and not another,
    and a pinned repetition does not migrate mid-run."""
    cpus = sorted(os.sched_getaffinity(0))
    reps = []
    while len(reps) < min_reps or time.monotonic() < until:
        reps.append(run_driver(workload, seed, traced,
                               cpus[len(reps) % len(cpus)]))
    return reps


def median(reps, key):
    return statistics.median(r[key] for r in reps)


def estimate(reps, key):
    """A run's value of one metric over its repetitions.

    Host times take the fastest repetition: every repetition does the
    same work, and load from other tenants of a shared host only ever
    slows one down, for tens of seconds at a time, which moved 30-second
    medians by up to 40% on a 4-core host. Everything else takes the
    median (the simulated metrics are identical across repetitions).
    """
    if key in FASTEST:
        return min(r[key] for r in reps)
    return median(reps, key)


def problems_of(reps):
    """Failed output checks, plus any repetition that simulated differently."""
    problems = sorted({c for r in reps for c in r["checks_failed"]})
    if len({(r["events"], r["digest"]) for r in reps}) != 1:
        problems.append("repetitions differ in events_fired or digest")
    return problems


def end_to_end(workload, seed, seconds):
    reps = repeat(workload, seed, False, time.monotonic() + seconds, MIN_REPS)
    metrics = {name: {"value": estimate(reps, name), "unit": unit}
               for name, unit in END_TO_END}
    return reps, metrics


def per_layer(workload, seed, seconds):
    start = time.monotonic()
    plain = repeat(workload, seed, False, start + seconds / 2, MIN_REPS)
    traced = repeat(workload, seed, True, start + seconds, MIN_TRACED_REPS)
    plain_sim = estimate(plain, "simulate_s")
    traced_sim = estimate(traced, "simulate_s")
    counts = {name: 0 for name in SAMPLED_LAYERS}
    for rep in traced:
        for name, n in rep["sample_layers"].items():
            counts[name] += n
    total = sum(counts.values()) or 1
    events = traced[0]["events"]
    values = {
        "setup.model_gen_s": estimate(plain + traced, "model_gen_s"),
        "setup.build_s": estimate(plain + traced, "build_s"),
        "setup.deploy_s": estimate(plain + traced, "deploy_s"),
        "sim.events_fired": events,
        "sim.host_ns_per_event": plain_sim / max(events, 1) * 1e9,
        "trace.samples": total / len(traced),
        "trace.overhead_frac": traced_sim / plain_sim - 1.0,
    }
    for name in SAMPLED_LAYERS:
        values[name] = counts[name] / total * traced_sim
    for name, _ in DRIVER_LAYER:
        values[name] = statistics.median(
            r["layer"].get(name, 0.0) for r in traced)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in PER_LAYER}
    return plain + traced, metrics, traced[0].get("top_symbols", [])


def run_workload(workload, seed, seconds, trace):
    if trace:
        reps, metrics, top = per_layer(workload, seed, seconds)
    else:
        reps, metrics = end_to_end(workload, seed, seconds)
        top = []
    problems = problems_of(reps)
    print(f"{workload} seed={seed}: {len(reps)} repetitions, "
          f"events_fired={reps[0]['events']} digest={reps[0]['digest']} "
          f"checks={'ok' if not problems else ', '.join(problems)}")
    sim = sorted(r["simulate_s"] for r in reps)
    print(f"  simulate_s per repetition: fastest {sim[0]:.4f}, "
          f"median {statistics.median(sim):.4f}, slowest {sim[-1]:.4f}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    if top:
        print("  top sampled symbols (samples, layer, symbol):")
        for line in top[:12]:
            print(f"    {line[:160]}")
    return {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"build failed: {err}", file=sys.stderr)
        return 1

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(workload, args.seed, args.seconds,
                                             args.trace == 1)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        print(f"run failed: {err}", file=sys.stderr)
        return 1
    if len(results) == 1:
        result = results[workloads[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
