#!/usr/bin/env python3
"""CI benchmark-regression gate.

Compares the current run's Google-Benchmark JSON files (BENCH_*.json)
against the cached last-main baseline and fails (exit 1) when:

  * throughput regresses by more than --threshold (default 25%):
    items_per_second when both runs report it, otherwise real_time
    (inverted: slower is worse), or
  * an allocs_per_point counter increases beyond a small absolute epsilon
    (allocation regressions are deterministic, so no noise allowance), or
  * a broad-phase precision counter (candidate_ratio, pairs_evaluated)
    increases by more than --threshold: the fleet workloads are seeded, so
    these move only when the index starts admitting pairs it used to prune
    — a precision regression wall time can hide in noise, or
  * a fixed-cost rate counter (disarmed_checks_per_s) *decreases* by more
    than --threshold: the disarmed failpoint check must stay one relaxed
    atomic load, and a slow path sneaking in (a lock, a registry lookup)
    shows up here long before end-to-end numbers move.

Byte-size counters (bytes/update, full_bytes/delta_bytes, ...) are
deterministic protocol properties pinned by tests, so they are reported
here but not gated. Prefilter telemetry (reject%, simd_reject%,
scalar_reject%, cache_refreshes) is likewise printed for trend-watching
but never gated: rejection *totals* are deterministic, but the tier split
depends on which ISA the runner dispatches to.

A missing baseline (first run on a branch, cache evicted) is not an
error: the gate prints a notice and passes, and the main-branch job saves
the fresh baseline for the next run. The reverse, a baseline row or file
with no counterpart in this run, is printed as "absent from this run (gate
dropped)" so a deleted benchmark cannot drop its gate silently; it does not
fail the gate, because deleting a benchmark is legitimate.

Usage:
  bench_compare.py --baseline DIR --current DIR [--threshold 0.25]
"""

import argparse
import json
import pathlib
import sys

ALLOC_EPSILON = 0.01  # Absolute allowance on allocs/point counters.

# Informational counters printed when they move, never gated.
TREND_COUNTERS = ("reject%", "simd_reject%", "scalar_reject%",
                  "cache_refreshes")

# Broad-phase precision counters: gated on *increase* only (one-sided —
# pruning getting better is progress, not noise). The relative allowance
# absorbs the per-run iteration-count wobble in averaged counters; the
# small absolute epsilon keeps near-zero ratios from tripping on rounding.
PRECISION_COUNTERS = ("candidate_ratio", "pairs_evaluated")
PRECISION_EPSILON = 1e-12

# Fixed-cost rate counters: gated on *decrease* only (one-sided — the
# check getting faster is progress). These guard must-stay-cheap code on
# hot paths, e.g. the disarmed fault-injection probe.
COST_COUNTERS = ("disarmed_checks_per_s",)


def load_benchmarks(path):
    """Returns {benchmark name: entry} for one benchmark JSON file."""
    with open(path) as f:
        data = json.load(f)
    out = {}
    for entry in data.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev of repetitions).
        if entry.get("run_type") == "aggregate":
            continue
        out[entry["name"]] = entry
    return out


def compare_file(name, baseline, current, threshold):
    """Compares one JSON file pair; returns a list of failure strings."""
    failures = []
    for bench in sorted(baseline.keys() - current.keys()):
        print(f"  {bench}: absent from this run (gate dropped)")
    for bench, cur in sorted(current.items()):
        base = baseline.get(bench)
        if base is None:
            print(f"  {bench}: new benchmark (no baseline)")
            continue

        if "items_per_second" in cur and "items_per_second" in base:
            b, c = base["items_per_second"], cur["items_per_second"]
            ratio = c / b if b > 0 else 1.0
            verdict = "OK"
            if ratio < 1.0 - threshold:
                verdict = "REGRESSION"
                failures.append(
                    f"{name}:{bench}: items/s fell {100 * (1 - ratio):.1f}% "
                    f"({b:.3g} -> {c:.3g})")
            print(f"  {bench}: items/s {b:.3g} -> {c:.3g} "
                  f"({100 * (ratio - 1):+.1f}%) {verdict}")
        else:
            b, c = base["real_time"], cur["real_time"]
            ratio = c / b if b > 0 else 1.0
            verdict = "OK"
            if ratio > 1.0 + threshold:
                verdict = "REGRESSION"
                failures.append(
                    f"{name}:{bench}: real_time rose {100 * (ratio - 1):.1f}% "
                    f"({b:.3g} -> {c:.3g} {cur.get('time_unit', 'ns')})")
            print(f"  {bench}: time {b:.3g} -> {c:.3g} "
                  f"({100 * (ratio - 1):+.1f}%) {verdict}")

        for counter, cur_val in cur.items():
            if "allocs_per_point" not in counter:
                continue
            base_val = base.get(counter)
            if base_val is None:
                continue
            if cur_val > base_val + ALLOC_EPSILON:
                failures.append(
                    f"{name}:{bench}: {counter} increased "
                    f"{base_val:.4f} -> {cur_val:.4f}")
                print(f"  {bench}: {counter} {base_val:.4f} -> "
                      f"{cur_val:.4f} REGRESSION")

        for counter in PRECISION_COUNTERS:
            cur_val = cur.get(counter)
            base_val = base.get(counter)
            if cur_val is None or base_val is None:
                continue
            if cur_val > base_val * (1.0 + threshold) + PRECISION_EPSILON:
                failures.append(
                    f"{name}:{bench}: {counter} increased "
                    f"{base_val:.4g} -> {cur_val:.4g}")
                print(f"  {bench}: {counter} {base_val:.4g} -> "
                      f"{cur_val:.4g} REGRESSION")
            elif abs(cur_val - base_val) > PRECISION_EPSILON:
                print(f"  {bench}: {counter} {base_val:.4g} -> "
                      f"{cur_val:.4g} OK")

        for counter in COST_COUNTERS:
            cur_val = cur.get(counter)
            base_val = base.get(counter)
            if cur_val is None or base_val is None:
                continue
            if cur_val < base_val * (1.0 - threshold):
                failures.append(
                    f"{name}:{bench}: {counter} decreased "
                    f"{base_val:.4g} -> {cur_val:.4g}")
                print(f"  {bench}: {counter} {base_val:.4g} -> "
                      f"{cur_val:.4g} REGRESSION")
            else:
                print(f"  {bench}: {counter} {base_val:.4g} -> "
                      f"{cur_val:.4g} OK")

        for counter in TREND_COUNTERS:
            cur_val = cur.get(counter)
            base_val = base.get(counter)
            if cur_val is None or base_val is None:
                continue
            if abs(cur_val - base_val) > 1e-9:
                print(f"  {bench}: {counter} {base_val:.2f} -> "
                      f"{cur_val:.2f} (informational)")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True, type=pathlib.Path)
    parser.add_argument("--current", required=True, type=pathlib.Path)
    parser.add_argument("--threshold", type=float, default=0.25)
    args = parser.parse_args()

    current_files = sorted(args.current.glob("BENCH_*.json"))
    if not current_files:
        print(f"error: no BENCH_*.json under {args.current}", file=sys.stderr)
        return 2

    if not args.baseline.is_dir():
        print(f"no baseline at {args.baseline}: first run, gate passes")
        return 0

    failures = []
    compared = 0
    for cur_path in current_files:
        base_path = args.baseline / cur_path.name
        if not base_path.exists():
            print(f"{cur_path.name}: no baseline file, skipping")
            continue
        print(f"{cur_path.name}:")
        failures += compare_file(cur_path.name, load_benchmarks(base_path),
                                 load_benchmarks(cur_path), args.threshold)
        compared += 1

    current_names = {path.name for path in current_files}
    for base_path in sorted(args.baseline.glob("BENCH_*.json")):
        if base_path.name not in current_names:
            print(f"{base_path.name}: absent from this run (gate dropped)")

    if compared == 0:
        print("no comparable baseline files: gate passes")
        return 0
    if failures:
        print(f"\n{len(failures)} benchmark regression(s) beyond "
              f"{100 * args.threshold:.0f}%:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nall {compared} benchmark file(s) within "
          f"{100 * args.threshold:.0f}% of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
