"""Alternating before/after runs of the benchmark on two checkouts.

    python3 tools/pairs.py PARENT CHANGE --workload search-fs1-n8 [--workload ...]
        [--pairs 10] [--first-seed 1] [--seconds 20] [--trace]

PARENT and CHANGE are each a directory holding a speclab checkout or a
git revision of this repository, which is exported with ``git archive``
into a temporary directory.  For each workload and pair i the two sides
run ``perfbench/run.py`` from their own checkout with the same seed
(first seed + i), the parent first on even i and the change first on odd
i, so drift of a shared host falls on both sides.  The output is one
JSON object: per workload and metric, each side's runs, median and
quartiles (``statistics.quantiles``, n=4), the number of pairs the
change wins by the direction in the checkout's ``BENCHMARK.json``, and
two verdicts.  ``claim_met``: the change wins at least nine tenths of
the pairs, ties counting for neither, and its median is better than the
parent's by more than the parent's interquartile range.  ``within_bound``,
for end-to-end metrics only: the change's median is no worse than the
parent's by more than the metric's bound, a fraction of the parent's
median.  A failed run stops the tool with its stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile


def checkout(where: str, scratch: str) -> str:
    """A directory with the files of where: itself, or an exported revision."""
    if os.path.isdir(where):
        return os.path.abspath(where)
    out = os.path.join(scratch, where.replace("/", "_"))
    os.makedirs(out)
    archive = subprocess.run(["git", "archive", where], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", out], input=archive, check=True)
    return out


def run(root: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"pairs.py: {' '.join(cmd)} in {root} exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list[float]) -> tuple[float, float, float]:
    """Median, first and third quartile (statistics.quantiles, n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return statistics.median(values), q1, q3


def rounded(value: float) -> float:
    """value to 4 decimals, or to 4 significant digits where that keeps
    more of a value below 1, such as a query latency of 0.008 ms."""
    if value == 0 or not math.isfinite(value):
        return value
    return round(value, max(4, 3 - math.floor(math.log10(abs(value)))))


def side(values: list[float]) -> dict:
    median, q1, q3 = spread(values)
    return {
        "median": rounded(median),
        "q1": rounded(q1),
        "q3": rounded(q3),
        "runs": [rounded(v) for v in values],
    }


def summarize(runs: dict, spec: dict) -> dict:
    """Per metric: both sides, pairs won and verdicts, from runs = {"parent":
    [...], "change": [...]}, one {metric: value} per run, pair i at index i
    on both sides, and spec, the BENCHMARK.json object."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    metrics = {}
    for metric in runs["parent"][0]:
        before = [r[metric] for r in runs["parent"]]
        after = [r[metric] for r in runs["change"]]
        sign = -1 if better.get(metric, "lower") == "lower" else 1
        median, q1, q3 = spread(before)
        wins = sum(sign * (a - b) > 0 for a, b in zip(after, before))
        gain = sign * (statistics.median(after) - median)
        metrics[metric] = {
            "better": better.get(metric),
            "parent": side(before),
            "change": side(after),
            "change_wins": wins,
            "claim_met": 10 * wins >= 9 * len(before) and gain > q3 - q1,
        }
        if metric in bounds:
            metrics[metric]["within_bound"] = -gain <= bounds[metric] * abs(median)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", action="store_true", help="per-layer metrics of traced runs")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        roots = {"parent": checkout(args.parent, scratch), "change": checkout(args.change, scratch)}
        with open(os.path.join(roots["change"], "BENCHMARK.json")) as f:
            spec = json.load(f)
        report = {}
        for workload in args.workload:
            runs = {"parent": [], "change": []}
            for i in range(args.pairs):
                seed = args.first_seed + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for name in order:
                    runs[name].append(run(roots[name], workload, seed, args.seconds, args.trace))
                    print(f"{workload} pair {i + 1}/{args.pairs} {name} done", file=sys.stderr)
            seeds = [args.first_seed, args.first_seed + args.pairs - 1]
            report[workload] = {
                "pairs": args.pairs,
                "seeds": seeds,
                "metrics": summarize(runs, spec),
            }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
