"""One fresh interpreter of the benchmark: set up, run timed work, check it.

    python3 perfbench/unit.py --root DIR --workload NAME --seed N
        --seconds S --launched EPOCH [--trace] [--setup-only] [--workers K]
        [--smoke]

speclab is imported from DIR/src.  Set-up ends at the first timed call;
``--launched`` is the wall-clock time at which the caller started this
process, so set-up includes interpreter start.  A search workload runs
one search per process, because enumerate keeps levels in a module-level
cache that would let a second search skip enumeration.  A query workload
runs rounds until their measured time would pass ``--seconds``; with
``--trace`` it runs a fixed number of rounds once untraced and once
traced instead.  Answers are checked after each round, outside its
timing.  Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time

import oracles
import workloads
from hostspeed import calibrate
from spans import Tracer

# rounds in a traced query run: about five untraced seconds each
TRACE_ROUNDS = {"closure-fs2": 2, "minor-fuzz": 80}
MAX_PROBLEMS = 5
# measured seconds between host-speed probes in a query run
CALIBRATE_EVERY_S = 2.0


def cpu_now():
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def load_speclab(root):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "speclab", "search.py")):
        raise SystemExit(f"no speclab sources under {src}")
    sys.path.insert(0, src)
    names = ("graph", "enumerate", "families", "matching", "spectral", "minor", "search")
    mods = {f"speclab.{n}": importlib.import_module(f"speclab.{n}") for n in names}
    for mod in mods.values():
        if not os.path.abspath(mod.__file__).startswith(os.path.abspath(src) + os.sep):
            raise SystemExit(f"{mod.__name__} imported from {mod.__file__}, not {src}")
    return mods


def layer_metrics(tracer, wall, cpu, workers, t_start):
    """Per-layer numbers from one traced interval of `wall` seconds."""
    spans = tracer.summary()
    counts = tracer.counts

    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    self_total = sum(v["self_s"] for v in spans.values())
    m = {
        "graph.canonical_code.calls": get("graph.canonical_code", "calls"),
        "graph.canonical_code.s": get("graph.canonical_code", "s"),
        "graph.canonical_perm.calls": get("graph.canonical_perm", "calls"),
        "graph.canonical_perm.s": get("graph.canonical_perm", "s"),
        "enumerate.classes": counts["enumerate.classes"],
        "enumerate.s": get("enumerate", "s"),
        "enumerate.self_s": get("enumerate", "self_s"),
        "enumerate.canonical_per_class": ratio(
            get("graph.canonical_code", "calls"), counts["enumerate.classes"]
        ),
        "families.construct.calls": get("families.construct", "calls"),
        "families.construct.s": get("families.construct", "s"),
        "matching.max_matching.calls": get("matching.max_matching", "calls"),
        "matching.max_matching.s": get("matching.max_matching", "s"),
        "spectral.spectral_radius.calls": get("spectral.spectral_radius", "calls"),
        "spectral.spectral_radius.s": get("spectral.spectral_radius", "s"),
        "spectral.iterations": counts["spectral.iterations"],
        "minor.calls": get("minor", "calls"),
        "minor.s": get("minor", "s"),
        "minor.self_s": get("minor", "self_s"),
        "minor.nodes": counts["minor.nodes"],
        "minor.nodes_max": counts["minor.nodes_max"],
        "minor.us_per_node": ratio(get("minor", "s") * 1e6, counts["minor.nodes"]),
        "minor.found": counts["minor.found"],
        "minor.not_found": counts["minor.not_found"],
        "minor.exhausted": counts["minor.exhausted"],
        "minor.engine_found": counts["minor.engine_found"],
        "minor.verify_model.calls": get("minor.verify_model", "calls"),
        "minor.verify_model.s": get("minor.verify_model", "s"),
        "search.self_s": get("search", "self_s"),
        "search.pool.serial_s": tracer.pool_start - t_start if tracer.pool_start else 0.0,
        "search.pool.busy_frac": ratio(cpu, workers * wall),
        "query.self_s": get("query", "self_s"),
        "trace.wall_s": wall,
        "trace.accounted_frac": ratio(self_total, wall),
    }
    return m


# -- search ------------------------------------------------------------------


def run_search(mods, args, size):
    search = mods["speclab.search"]
    n = size["search_n"]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(mods)
    setup_done = time.time()
    loops = [calibrate()]
    c0 = cpu_now()
    t0 = time.perf_counter()
    if tracer:
        report = tracer.span(
            "search", search.extremal_search, n, workloads.SEARCH_CONSTRAINT, workers=args.workers
        )
    else:
        report = search.extremal_search(n, workloads.SEARCH_CONSTRAINT, workers=args.workers)
    wall = time.perf_counter() - t0
    cpu = cpu_now() - c0
    loops.append(calibrate())
    out = {
        "setup_s": setup_done - args.launched,
        "loop_s": loops,
        "units": [{"wall": wall, "cpu": cpu, "queries": 1, "graphs": report.enumerated}],
        "latencies": [wall],
        "report": report.to_json(include_elapsed=False),
    }
    if tracer:
        tracer.uninstall()
        out["layers"] = layer_metrics(tracer, wall, cpu, args.workers, t0)
    problems = oracles.check_search_report(report.as_dict(), n)
    out["attempted"] = 1
    out["failed"] = 1 if problems else 0
    out["problems"] = problems
    return out


# -- query workloads ---------------------------------------------------------


class Queries:
    """Builds, answers and checks the rounds of one query workload."""

    def __init__(self, mods, workload, seed, size):
        self.mods = mods
        self.workload = workload
        self.seed = seed
        self.size = size
        graph = mods["speclab.graph"]
        self.Graph = graph.Graph
        fs2_order, fs2_edges = oracles.friendship_edges(2)
        self.fs2 = graph.Graph.from_edges(fs2_order, fs2_edges)

    def round(self, r):
        if self.workload == "closure-fs2":
            qs = workloads.closure_round(self.seed, r, self.size["closure_order"])
            return [(mode, p, self.Graph(rows), clique) for mode, p, rows, clique in qs]
        qs = workloads.fuzz_round(self.seed, r, self.size["fuzz_max_n"])
        return [(kind, p, self.Graph(rows)) for kind, p, rows in qs]

    def ask(self, q):
        # module attributes are looked up per call, so a tracer sees them
        minor = self.mods["speclab.minor"]
        if self.workload == "closure-fs2":
            mode, p, g, clique = q
            return minor.clique_closure_check(g, clique, mode, p, workloads.CLOSURE_BUDGET)
        kind, p, g = q
        if kind == "fs-minor":
            return minor.has_fs_minor(g, p)
        if kind == "qt-minor":
            return minor.has_qt_minor(g, p)
        if kind == "fs-subgraph":
            return minor.fs_subgraph_witness(g, p)
        return minor.qt_subgraph_witness(g, p)

    def graphs(self, n_queries):
        # a closure settles the host and its closure
        return 2 * n_queries if self.workload == "closure-fs2" else n_queries

    def check(self, q, ans):
        """(exhausted, problems) for one answer."""
        if self.workload == "closure-fs2":
            statuses = (ans.base.status, ans.closed.status)
            exhausted = "exhausted" in statuses
            if statuses != ("not_found", "not_found"):
                return exhausted, [f"closure {q[0]}{q[1]} answered {statuses}"]
            return False, []
        kind, p, g = q
        rows = g.rows
        if kind == "fs-subgraph":
            if ans is None:
                ok = not oracles.has_fs_subgraph(rows, p)
                return False, [] if ok else ["fs-subgraph None on a host with F_2"]
            return False, oracles.check_fs_witness(rows, p, ans.center, ans.pairs)
        if ans.status == "exhausted":
            return True, []
        if kind == "qt-subgraph":
            if ans.status == "found":
                return False, oracles.check_qt_witness(rows, p, ans.witness.center, ans.witness.arms)
            return False, [] if not oracles.has_c4_subgraph(rows) else ["qt-subgraph not_found on a host with C_4"]
        pattern = oracles.friendship_edges(p) if kind == "fs-minor" else oracles.quadrilaterals_edges(p)
        if ans.status == "found":
            return False, oracles.check_model(rows, pattern, ans.model.branch_sets)
        return False, self.check_absence(kind, p, g)

    def check_absence(self, kind, p, g):
        if (kind, p) == ("fs-minor", 1):
            bad = oracles.has_cycle(g.rows)
        elif (kind, p) == ("qt-minor", 1):
            bad = oracles.has_long_cycle(g.rows)
        elif oracles.cyclomatic_number(g.rows) < 2:
            bad = False  # F_2 has two independent cycles, and minors never gain one
        else:
            generic = self.mods["speclab.minor"].find_minor_model(g, self.fs2)
            bad = generic.status != "not_found"
        return [f"{kind} {p} not_found on a host that has it"] if bad else []

    def run_round(self, queries, tracer=None):
        """Answer one round; returns the timed record and the answers."""
        lat = []
        answers = []
        c0 = cpu_now()
        t0 = time.perf_counter()
        for q in queries:
            t = time.perf_counter()
            ans = tracer.span("query", self.ask, q) if tracer else self.ask(q)
            lat.append(time.perf_counter() - t)
            answers.append(ans)
        unit = {
            "wall": time.perf_counter() - t0,
            "cpu": cpu_now() - c0,
            "queries": len(queries),
            "graphs": self.graphs(len(queries)),
        }
        return unit, lat, answers


def run_queries(mods, args, size):
    qs = Queries(mods, args.workload, args.seed, size)
    first = qs.round(0)
    setup_done = time.time()
    out = {"setup_s": setup_done - args.launched, "units": [], "latencies": []}
    out["loop_s"] = loops = [calibrate()]
    attempted = failed = 0
    problems: list[str] = []

    def one(r, queries, tracer=None):
        nonlocal attempted, failed
        if tracer:
            tracer.install(mods)
        unit, lat, answers = qs.run_round(queries, tracer)
        if tracer:
            tracer.uninstall()
        for q, ans in zip(queries, answers):
            exhausted, bad = qs.check(q, ans)
            attempted += 1
            if exhausted or bad:
                failed += 1
                problems.extend(f"round {r}: {b}" for b in bad or ["exhausted"])
        return unit, lat

    if args.trace:
        # each round runs untraced and traced, in alternating order, so
        # warm-up and drift fall on both sides of the overhead ratio
        tracer = Tracer()
        plain_wall = wall = cpu = 0.0
        for r in range(TRACE_ROUNDS[args.workload]):
            queries = first if r == 0 else qs.round(r)
            for traced in (False, True) if r % 2 == 0 else (True, False):
                unit = one(r, queries, tracer if traced else None)[0]
                if traced:
                    wall += unit["wall"]
                    cpu += unit["cpu"]
                else:
                    plain_wall += unit["wall"]
        out["layers"] = layer_metrics(tracer, wall, cpu, 1, 0.0)
        out["layers"]["trace.overhead_frac"] = wall / plain_wall - 1
    else:
        measured = since_probe = 0.0
        r = 0
        queries = first
        while True:
            unit, lat = one(r, queries)
            out["units"].append(unit)
            out["latencies"].extend(lat)
            measured += unit["wall"]
            since_probe += unit["wall"]
            typical = statistics.median(u["wall"] for u in out["units"])
            if measured + typical > args.seconds:
                break
            if since_probe >= CALIBRATE_EVERY_S:
                loops.append(calibrate())
                since_probe = 0.0
            r += 1
            queries = qs.round(r)
        loops.append(calibrate())
    out["attempted"] = attempted
    out["failed"] = failed
    out["problems"] = problems[:MAX_PROBLEMS]
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    mods = load_speclab(args.root)
    size = workloads.sizes(args.smoke)
    if args.setup_only:
        if args.workload in workloads.QUERY_WORKLOADS:
            Queries(mods, args.workload, args.seed, size).round(0)
        out = {"setup_s": time.time() - args.launched, "loop_s": [calibrate()]}
    elif args.workload in workloads.SEARCH_WORKERS:
        out = run_search(mods, args, size)
    else:
        out = run_queries(mods, args, size)
    out["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
