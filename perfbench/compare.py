#!/usr/bin/env python3
"""Compare two sets of perfbench results, workload by workload.

Each result file is the standard output of one benchmark run (its last
two lines are the provenance record and the result object):

    cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload fleet_calm --seed 7 --seconds 20 --trace 0 > base/calm-7.out

    python3 perfbench/compare.py --base base/*.out --head head/*.out

For every workload and metric it prints the median and quartile spread
of each side and the change of the head median against the base
median. An end-to-end metric whose head median is worse than the base
median by more than its bound in BENCHMARK.json is flagged; with
--fail-on-regression the script then exits with status 1.

The script refuses (exit status 2) to compare traced with untraced
results, results measured with different worker counts, runs pinned to
one processor with unpinned ones, or runs whose provenance is missing.
"""

import argparse
import json
import os
import statistics
import sys


def load(path):
    with open(path, encoding="utf-8") as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if len(lines) < 2:
        raise ValueError(f"{path}: expected a provenance line and a result line")
    provenance = json.loads(lines[-2]).get("provenance")
    result = json.loads(lines[-1])
    if provenance is None:
        raise ValueError(f"{path}: no provenance record before the result line")
    return provenance, result


def spread(values):
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True, help="result files of the base commit")
    parser.add_argument("--head", nargs="+", required=True, help="result files of the changed commit")
    parser.add_argument(
        "--benchmark",
        default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json"),
        help="BENCHMARK.json holding the metric bounds",
    )
    parser.add_argument("--fail-on-regression", action="store_true")
    args = parser.parse_args()

    with open(args.benchmark, encoding="utf-8") as f:
        benchmark = json.load(f)
    bounds = {m["name"]: m for m in benchmark["end_to_end"]}

    runs = {"base": [], "head": []}
    for side in runs:
        for path in getattr(args, side):
            try:
                runs[side].append(load(path))
            except (OSError, ValueError) as e:
                print(f"refusing: {e}", file=sys.stderr)
                return 2

    every = runs["base"] + runs["head"]
    settings = {
        "traced": lambda p: p["traced"],
        "workers": lambda p: p["workers"],
        "pinned": lambda p: p.get("pinned_cpu") is not None,
    }
    for key, setting in settings.items():
        seen = {setting(p) for p, _ in every}
        if len(seen) > 1:
            print(f"refusing: results mix {key} = {sorted(seen, key=str)}", file=sys.stderr)
            return 2

    regressions = 0
    workloads = sorted({p["workload"] for p, _ in every})
    for workload in workloads:
        sides = {
            side: [r for p, r in runs[side] if p["workload"] == workload] for side in runs
        }
        if not sides["base"] or not sides["head"]:
            print(f"{workload}: missing on one side, skipped")
            continue
        print(f"\n{workload}  (base {len(sides['base'])} runs, head {len(sides['head'])} runs)")
        for side, results in sides.items():
            bad = [r for r in results if not r["correct"] or r["failed"]]
            if bad:
                print(f"  {side}: {len(bad)} run(s) incorrect or with failed operations")
        names = list(sides["base"][0]["metrics"])
        for name in names:
            base = [r["metrics"][name]["value"] for r in sides["base"] if name in r["metrics"]]
            head = [r["metrics"][name]["value"] for r in sides["head"] if name in r["metrics"]]
            if not base or not head:
                continue
            unit = sides["base"][0]["metrics"][name]["unit"]
            b_med, b_spread = spread(base)
            h_med, h_spread = spread(head)
            change = (h_med - b_med) / abs(b_med) if b_med else 0.0
            flag = ""
            bound = bounds.get(name)
            if bound is not None:
                worse = change if bound["better"] == "lower" else -change
                if worse > bound["bound"]:
                    flag = f"  REGRESSION (bound {bound['bound']:.0%})"
                    regressions += 1
                elif b_spread > bound["bound"] or h_spread > bound["bound"]:
                    flag = "  unresolved (spread wider than bound)"
            print(
                f"  {name:26s} {b_med:14.6g} ±{b_spread:5.1%}  ->  {h_med:14.6g} ±{h_spread:5.1%}"
                f"  {change:+7.1%} {unit}{flag}"
            )

    if regressions and args.fail_on_regression:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
