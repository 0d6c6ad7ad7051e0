"""speclab benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a speclab checkout; speclab is imported from its
``src``.  This process is the single closed-loop caller: it never imports
speclab itself but starts fresh interpreters (``unit.py``) that do the
timed work and check every answer.  With ``--trace 0`` the last line of
stdout is a JSON object with the end-to-end metrics; with ``--trace 1``
it holds the per-layer metrics of a traced run and the tracing overhead.
The line before it describes the machine and the samples.  The exit code
is 1 when any answer fails a check and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import workloads  # noqa: E402
from hostspeed import REFERENCE_LOOP_S  # noqa: E402

ROOT = os.getcwd()
DEADLINE_S = 170.0
SETUP_SAMPLES = 5
class BenchError(Exception):
    pass


class Runner:
    """Starts unit.py interpreters and keeps what they report."""

    def __init__(self, args):
        self.args = args
        self.start = time.perf_counter()
        self.children = []

    def spawn(self, *extra):
        left = DEADLINE_S - (time.perf_counter() - self.start)
        if left <= 0:
            raise BenchError("ran out of time before the next unit")
        flags = ["--workload", self.args.workload, "--seed", str(self.args.seed)]
        flags += ["--seconds", str(self.args.seconds), "--root", ROOT]
        if self.args.smoke:
            flags.append("--smoke")
        launched = time.time()
        cmd = [sys.executable, os.path.join(BENCH_DIR, "unit.py"), *flags, *extra]
        proc = subprocess.Popen(
            cmd + ["--launched", repr(launched)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=left)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"unit {' '.join(extra)} passed the {DEADLINE_S:.0f} s deadline")
        if proc.returncode != 0:
            raise BenchError(f"unit exited {proc.returncode}: {err.strip()[-2000:]}")
        result = json.loads(out.splitlines()[-1])
        result["elapsed"] = time.time() - launched
        result["host_factor"] = REFERENCE_LOOP_S / statistics.mean(result["loop_s"])
        self.children.append(result)
        return result

    def setup_probes(self):
        while sum("setup_s" in c for c in self.children) < SETUP_SAMPLES:
            self.spawn("--setup-only")


def tail(values):
    """Highest percentile with at least ten samples beyond it.

    With fewer than ten samples beyond the median this is the maximum.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_search(runner, args, workers):
    """Searches in fresh interpreters; the -w2 reports must match workers=1."""
    timed = []
    if args.trace:
        timed.append(runner.spawn("--workers", str(workers)))
        traced = runner.spawn("--workers", str(workers), "--trace")
        layers = dict(traced["layers"])
        layers["trace.overhead_frac"] = traced["units"][0]["wall"] / timed[0]["units"][0]["wall"] - 1
        timed.append(traced)
    else:
        # at least two searches, so one slow moment of a shared host is
        # not the whole sample; more while the next would end in time
        layers = None
        while True:
            timed.append(runner.spawn("--workers", str(workers)))
            typical = statistics.median(c["elapsed"] for c in timed)
            if len(timed) >= 2 and time.perf_counter() - runner.start + typical > args.seconds:
                break
    extra_failed = 0
    problems = [p for c in timed for p in c["problems"]]
    if workers > 1:
        ref = runner.spawn("--workers", "1")["report"]
        for c in timed:
            if c["report"] != ref:
                extra_failed += 1
                problems.append(f"workers={workers} report {c['report']} != workers=1 {ref}")
    return timed, layers, extra_failed, problems


def end_to_end(runner, timed, scaled=True):
    """End-to-end metrics; times are scaled to the reference host speed.

    A shared host changes speed by tens of percent from one minute to the
    next.  Each interpreter's times are multiplied by its host factor,
    REFERENCE_LOOP_S over the mean time of the calibrate() loops it ran
    around its timed work, so that the metrics follow the program and not
    the host.  With scaled=False the factors are 1 and the times are as
    measured.
    """

    def factor(c):
        return c["host_factor"] if scaled else 1.0

    units = [(u, factor(c)) for c in timed for u in c["units"]]
    lats = [x * factor(c) for c in timed for x in c["latencies"]]
    total_wall = sum(u["wall"] * f for u, f in units)
    tail_value, tail_pct = tail(lats)
    metrics = {
        "wall_s": statistics.median(u["wall"] * f for u, f in units),
        "cpu_s": statistics.median(u["cpu"] * f for u, f in units),
        "setup_s": statistics.median(c["setup_s"] * factor(c) for c in runner.children),
        "graphs_per_s": sum(u["graphs"] for u, _ in units) / total_wall,
        "queries_per_s": sum(u["queries"] for u, _ in units) / total_wall,
        "query_ms.p50": statistics.median(lats) * 1000,
        "query_ms.tail": tail_value * 1000,
        "peak_rss_mb": max(c["peak_rss_mb"] for c in timed),
    }
    samples = {
        "units": len(units),
        "queries": len(lats),
        "setups": sum("setup_s" in c for c in runner.children),
        "query_ms.tail_percentile": round(tail_pct, 3),
    }
    return metrics, samples


def read_loadavg():
    try:
        with open("/proc/loadavg") as f:
            return f.read().split()[:3]
    except OSError:
        return None


def machine(loadavg_start):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "loadavg_start": loadavg_start,
        "loadavg_end": read_loadavg(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="small sizes, for the benchmark's tests")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "speclab", "search.py")):
        print(f"run.py: no speclab sources under {ROOT}/src", file=sys.stderr)
        return 2
    loadavg_start = read_loadavg()
    runner = Runner(args)
    try:
        if args.workload in workloads.SEARCH_WORKERS:
            workers = workloads.SEARCH_WORKERS[args.workload]
            timed, layers, extra_failed, problems = run_search(runner, args, workers)
        else:
            timed = [runner.spawn(*(["--trace"] if args.trace else []))]
            layers = timed[0].get("layers")
            extra_failed = 0
            problems = timed[0]["problems"]
        if not args.trace:
            runner.setup_probes()
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    attempted = sum(c["attempted"] for c in timed)
    failed = min(attempted, sum(c["failed"] for c in timed) + extra_failed)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    host = {
        "loop_s": [round(statistics.mean(c["loop_s"]), 4) for c in runner.children],
        "reference_loop_s": REFERENCE_LOOP_S,
    }
    if args.trace:
        metrics, samples = layers, {"queries": attempted}
    else:
        metrics, samples = end_to_end(runner, timed)
        host["unscaled"] = end_to_end(runner, timed, scaled=False)[0]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine(loadavg_start),
        "host_speed": host,
        "samples": samples,
        "failed_frac": failed / attempted,
        "problems": problems[:5],
    }
    print(json.dumps(detail))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
