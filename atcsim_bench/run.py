#!/usr/bin/env python3
"""Builds the atcsim benchmark, runs one workload and prints its metrics.

    python3 atcsim_bench/run.py --workload mixed512_atcpm --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout of the repository.  The binary is built
from source under .bench_build/ at the repository root.  Every run is a
fresh process of that binary (see bench.cc), so each sample also draws a
fresh memory placement from the host.

--trace 0  repeats runs until their timed windows add up to --seconds (at
           least MIN_RUNS) and reports medians over the runs.
--trace 1  one untraced run and one traced run of the same seed; the
           per-layer metrics come from the traced run's observers.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics (every end_to_end metric of BENCHMARK.json
with --trace 0, every per_layer metric with --trace 1).  A run fails when it
crashes, times out or prints no record, when its digest differs from the
first record's, or when the trace observers did not count exactly one
dispatch per executed event.  The gate therefore detects nondeterminism
only: a change that alters the simulated outputs the same way in every run
passes it, and the repository's golden-trace tests are what catch that.
The full record (run metadata, raw samples and digests) is appended to a
JSON history file, which is parsed before it is extended and never
rewritten when it cannot be parsed.  --smoke runs every workload at a
fraction of its size.
"""
import argparse
import datetime
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "atcsim_bench"
DEFAULT_HISTORY = ROOT / ".bench_build" / "atcsim_bench_history.json"

MIN_RUNS = 2  # the digest gate needs two
# No new run starts once this much time has passed unless MIN_RUNS are still
# missing, and every run is killed at RUN_DEADLINE_S: an invocation must end
# within 180 s of its build.
BUDGET_S = 120
RUN_DEADLINE_S = 170

# Seed never used while tuning the benchmark or a change: confirm a claimed
# gain on it before accepting the claim.
HELD_OUT_SEED = 20160523

# Trace category (obs::cat_name) behind each layer's self time and counts.
LAYER_CATEGORY = {"simcore": "sim", "pdes": "pdes", "sched": "sched",
                  "virt": "vcpu", "sync": "sync", "atc": "atc", "net": "net",
                  "control": "mig"}
TRACE_COUNTS = ["sched.enqueue", "sched.pick", "sched.steal", "sched.credit",
                "sched.tick_preempt", "virt.dispatch", "virt.wake",
                "sync.spin_start", "sync.signal", "atc.candidate",
                "atc.apply", "atc.clamp", "net.guest_tx", "net.wire",
                "net.guest_rx", "net.inject", "net.disk_submit"]


class BenchError(Exception):
    pass


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    return units, [w["name"] for w in spec["workloads"]]


def load_history(path):
    if not path.exists():
        return {"schema": 1, "suite": "atcsim_bench", "history": []}
    try:
        data = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError, ValueError) as e:
        raise BenchError(f"history {path} is not valid JSON ({e}); "
                         "refusing to extend it")
    if not isinstance(data, dict) or not isinstance(data.get("history"), list):
        raise BenchError(f"history {path} has no 'history' list; "
                         "refusing to extend it")
    return data


def write_history(path, data):
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(data, indent=1) + "\n")
    os.replace(tmp, path)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        raise BenchError(f"simulator sources not found under {ROOT / 'src'}")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "atcsim_bench", "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return BUILD_DIR / "atcsim_bench"


def git_rev():
    if not (ROOT / ".git").exists():
        return None
    p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return p.stdout.strip() if p.returncode == 0 else None


def source_sha256():
    """Identifies the measured code where no git revision is available."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for f in sorted(base.rglob("*")):
            if f.is_file() and "__pycache__" not in f.parts:
                h.update(str(f.relative_to(ROOT)).encode() + b"\0")
                h.update(f.read_bytes())
    return h.hexdigest()


def run_once(binary, args, deadline, *flags):
    """One fresh process of the binary.  Returns its record, or None when it
    crashed, timed out at the deadline or printed no record."""
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed)]
    cmd += list(flags) + (["--smoke"] if args.smoke else [])
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"atcsim_bench: {' '.join(cmd)} timed out", file=sys.stderr)
        return None
    if p.returncode != 0:
        print(f"atcsim_bench: {' '.join(cmd)} exited with {p.returncode}",
              file=sys.stderr)
        return None
    try:
        return json.loads(p.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        print(f"atcsim_bench: {' '.join(cmd)} printed no record",
              file=sys.stderr)
        return None


def measure(binary, args):
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    runs, measured, last = [], 0.0, 0.0
    while len(runs) < MIN_RUNS or (
            measured < args.seconds and
            time.monotonic() - start + last < BUDGET_S):
        t = time.monotonic()
        runs.append(run_once(binary, args, deadline))
        last = time.monotonic() - t
        measured += runs[-1]["wall_s"] if runs[-1] else 0.0
    return runs


def gate(runs, traced):
    """Flags each run that produced no record or whose digest differs from
    the first record's; the traced run also fails unless its observers
    counted one dispatch per event."""
    records = [r for r in runs if r is not None]
    first = records[0]["digest"] if records else None
    flags = [r is None or r["digest"] != first or first["events"] <= 0
             for r in runs]
    t = runs[-1]
    if traced and t is not None:
        if t["trace"]["count"]["sim"]["dispatch"] != t["digest"]["events"]:
            flags[-1] = True
    return flags


def end_to_end(runs):
    window = runs[0]["window_sim_s"]
    return {
        "sim_speed": statistics.median(window / r["wall_s"] for r in runs),
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in runs),
        "cpu_per_sim_s": statistics.median(r["cpu_s"] / window for r in runs),
    }


def per_layer(plain, traced):
    """Counts and self times from the traced run; host rates, PDES timing
    and allocations from the untraced run, which tracing does not slow."""
    pc, tc = plain["counters"], traced["counters"]
    count, self_s = traced["trace"]["count"], traced["trace"]["self_s"]
    queries = pc["pdes_bound_recomputes"] + pc["pdes_bound_cache_hits"]
    digest = traced["digest"]
    m = {
        "simcore.events": tc["events"],
        "simcore.events_per_s": pc["events"] / plain["wall_s"],
        "simcore.allocs_per_event": plain["allocs"] / pc["events"],
        "pdes.rounds": pc["pdes_rounds"],
        "pdes.horizon_extensions": pc["pdes_horizon_extensions"],
        "pdes.serial_s": pc["pdes_serial_s"],
        "pdes.critical_s": pc["pdes_critical_s"],
        "pdes.barrier_wait_s": pc["pdes_barrier_wait_s"],
        "pdes.bound_hit_ratio":
            pc["pdes_bound_cache_hits"] / queries if queries else 0.0,
        "pdes.bound_queries": queries,
        "pdes.fabric_posted": pc["fabric_posted"],
        "virt.switches": tc["switches"],
        "atc.vc_superstep_s": digest["vc_superstep_s"],
        "atc.spin_latency_s": digest["spin_latency_s"],
        "cache.llc_miss_rate": digest["llc_miss_rate"],
        "workload.supersteps": digest["supersteps"],
        "control.migrations": digest["migrations"],
        "control.periods_observed": tc["periods_observed"],
        "trace.overhead": traced["wall_s"] / plain["wall_s"],
    }
    for layer, cat in LAYER_CATEGORY.items():
        m[f"{layer}.self_s"] = self_s[cat]
    for name in TRACE_COUNTS:
        layer, kind = name.split(".")
        m[name] = count[LAYER_CATEGORY[layer]][kind]
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced-size workloads for the smoke test")
    ap.add_argument("--history", type=Path, default=DEFAULT_HISTORY,
                    help="JSON history file the run record is appended to")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    units, workloads = load_spec()
    if args.workload not in workloads:
        ap.error(f"unknown workload {args.workload!r}; one of {workloads}")
    history = load_history(args.history)
    binary = build()

    if args.trace == 0:
        runs = measure(binary, args)
    else:
        deadline = time.monotonic() + RUN_DEADLINE_S
        runs = [run_once(binary, args, deadline),
                run_once(binary, args, deadline, "--trace")]
    flags = gate(runs, traced=args.trace == 1)
    records = [r for r in runs if r is not None]
    # The per-layer metrics need both runs of the pair.
    if len(records) < (1 if args.trace == 0 else 2):
        raise BenchError(f"{sum(flags)} of {len(runs)} runs produced no "
                         "record; no metrics to report")
    if args.trace == 0:
        metrics = end_to_end(records)
        samples = {"runs": len(records)}
    else:
        metrics = per_layer(*records)
        samples = {"runs": 1, "traced_runs": 1}
    if set(metrics) != set(units[args.trace]):
        raise BenchError("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units[args.trace]))}")
    result = {
        "correct": not any(flags),
        "attempted": len(flags),
        "failed": sum(flags),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units[args.trace].items()},
    }

    meta_keys = ("nodes", "shards", "threads", "host_cores", "build_type",
                 "warmup_sim_s", "window_sim_s")
    history["history"].append({
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "smoke": args.smoke,
        "git_rev": git_rev(),
        "source_sha256": source_sha256(),
        **{k: records[0][k] for k in meta_keys},
        "samples": samples,
        "runs": runs,
        "failed_runs": [i for i, f in enumerate(flags) if f],
        "result": result,
    })
    write_history(args.history, history)
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        print(f"atcsim_bench: {e}", file=sys.stderr)
        sys.exit(2)
