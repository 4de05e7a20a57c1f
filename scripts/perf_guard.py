#!/usr/bin/env python3
"""Informational performance guard over a bench history JSON.

Usage:
    perf_guard.py BENCH_pdes.json [--key macro_lu512_s1 ...]
                  [--metric per_sec] [--threshold 0.20]

Takes a bench history file (schema 1: {"history": [run, run, ...]}) where
the FRESH run — appended by the report binary moments earlier — is the last
entry.  For every requested key (default: every "macro_*" object in the
fresh entry that carries the metric), finds the most recent EARLIER entry
containing the same key and recorded on the same host class (equal
host_cores) — the committed baseline — and compares the metric.  A key
whose only earlier entries come from another core count is skipped with a
line naming both counts: throughput across host classes is not comparable.
A relative drop beyond the threshold emits a GitHub Actions `::warning`
annotation.

The guard never turns the job red: it always exits 0 apart from CLI misuse.
CI runners are noisy, so a drop here is a nudge to re-measure on quiet
hardware, not a verdict.
"""

import argparse
import json
import sys


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("history", help="bench history JSON (e.g. BENCH_pdes.json)")
    ap.add_argument("--key", action="append", default=[],
                    help="benchmark key(s) to check; default: every macro_* "
                         "key present in the freshest entry")
    ap.add_argument("--metric", default="per_sec")
    ap.add_argument("--threshold", type=float, default=0.20,
                    help="relative drop that triggers a warning (0.20 = 20%%)")
    args = ap.parse_args()

    try:
        with open(args.history, encoding="utf-8") as f:
            history = json.load(f).get("history", [])
    except (OSError, ValueError) as e:
        print(f"perf_guard: cannot read {args.history}: {e} (informational "
              "guard; not failing the job)")
        return 0
    if len(history) < 2:
        print("perf_guard: fewer than two history entries; nothing to compare")
        return 0

    fresh = history[-1]
    cores = fresh.get("host_cores")
    keys = args.key or sorted(
        k for k, v in fresh.items()
        if k.startswith("macro_") and isinstance(v, dict) and args.metric in v)
    if not keys:
        print(f"perf_guard: no comparable keys in the freshest entry "
              f"({fresh.get('label', '?')})")
        return 0

    warned = 0
    for key in keys:
        cell = fresh.get(key)
        if not isinstance(cell, dict) or args.metric not in cell:
            print(f"perf_guard: {key}: absent from the freshest entry; skipped")
            continue
        earlier = [e for e in reversed(history[:-1])
                   if isinstance(e.get(key), dict) and args.metric in e[key]]
        if not earlier:
            print(f"perf_guard: {key}: no earlier entry carries it; skipped")
            continue
        base = next((e for e in earlier if e.get("host_cores") == cores),
                    None)
        if base is None:
            print(f"perf_guard: {key}: fresh entry has host_cores={cores}, "
                  f"latest earlier entry has host_cores="
                  f"{earlier[0].get('host_cores')}; no same-class baseline, "
                  "skipped")
            continue
        base_v = float(base[key][args.metric])
        fresh_v = float(cell[args.metric])
        if base_v <= 0:
            print(f"perf_guard: {key}: non-positive baseline; skipped")
            continue
        drop = (base_v - fresh_v) / base_v
        line = (f"{key}.{args.metric}: {fresh_v:.6g} vs baseline "
                f"{base_v:.6g} ('{base.get('label', '?')}', "
                f"host_cores={cores}) — "
                f"{'-' if drop >= 0 else '+'}{abs(drop):.1%}")
        if drop > args.threshold:
            print(f"::warning title=perf_guard {key}::{line} exceeds the "
                  f"{args.threshold:.0%} drop threshold (informational; "
                  "re-measure on quiet hardware before acting)")
            warned += 1
        else:
            print(f"perf_guard: {line}")
    print(f"perf_guard: {warned} warning(s) over {len(keys)} key(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
