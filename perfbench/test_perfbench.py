"""Tests of the benchmark itself: small-size runs and the answer oracles.

    PYTHONPATH=src python3 -m pytest perfbench

The smoke runs use ``--smoke`` sizes (n=6 search, order-7 closure hosts,
fuzz hosts up to 6 vertices), so the whole file takes well under a
minute.
"""

import itertools
import json
import os
import random
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import unit  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

EXACT_COUNTS = ("minor.nodes", "graph.canonical_code.calls", "enumerate.classes", "spectral.iterations")


def bench(workload, trace, seed=1, cwd=ROOT):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    result = result_of(bench(workload, trace))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["search-fs1-n8", "minor-fuzz"])
def test_exact_counts_repeat_for_one_seed(workload):
    runs = [result_of(bench(workload, 1, seed=7))["metrics"] for _ in range(2)]
    for name in EXACT_COUNTS:
        assert runs[0][name]["value"] == runs[1][name]["value"], name
    if workload == "search-fs1-n8":
        assert runs[0]["enumerate.classes"]["value"] == 112


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("minor-fuzz", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_rounds_depend_on_seed_and_round_only():
    assert workloads.fuzz_round(3, 5, 10) == workloads.fuzz_round(3, 5, 10)
    assert workloads.fuzz_round(3, 5, 10) != workloads.fuzz_round(4, 5, 10)
    closure = workloads.closure_round(3, 0, 10)
    assert [len(rows) for _, _, rows, _ in closure] == [10] * len(closure)


# -- oracles -------------------------------------------------------------------


def rows_of(n, edges):
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return tuple(rows)


def brute_longest_cycle(rows):
    n = len(rows)
    best = 0

    def walk(path, seen):
        nonlocal best
        for w in range(n):
            if not (rows[path[-1]] >> w) & 1 or w < path[0]:
                continue
            if w == path[0] and len(path) >= 3:
                best = max(best, len(path))
            elif not (seen >> w) & 1:
                walk(path + [w], seen | (1 << w))

    for r in range(n):
        walk([r], 1 << r)
    return best


def test_cycle_oracles_match_brute_force():
    pairs = list(itertools.combinations(range(5), 2))
    graphs = [
        rows_of(5, [e for i, e in enumerate(pairs) if (mask >> i) & 1])
        for mask in range(1 << len(pairs))
    ]
    rng = random.Random(11)
    graphs += [workloads.random_host(rng, 8, rng.choice((0.2, 0.35))) for _ in range(200)]
    for rows in graphs:
        longest = brute_longest_cycle(rows)
        assert oracles.has_cycle(rows) == (longest >= 3)
        assert oracles.has_long_cycle(rows) == (longest >= 4)


def test_search_oracle_rejects_a_wrong_maximizer():
    good = {
        "enumerated": 11117,
        "feasible": 23,
        "maximizers": ["G???F{"],
        "best_rho": 7 ** 0.5,
        "exhausted_count": 0,
    }
    assert oracles.check_search_report(good, 8) == []
    assert oracles.check_search_report(dict(good, maximizers=["G??CF{"]), 8)
    assert oracles.check_search_report(dict(good, best_rho=2.64), 8)


@pytest.fixture(scope="module")
def fuzz():
    mods = unit.load_speclab(ROOT)
    return mods, unit.Queries(mods, "minor-fuzz", 1, workloads.sizes(True))


def test_fuzz_oracle_rejects_a_model_with_a_branch_set_dropped(fuzz):
    mods, queries = fuzz
    g = mods["speclab.graph"].Graph(rows_of(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]))
    q = ("fs-minor", 1, g)
    ans = mods["speclab.minor"].has_fs_minor(g, 1)
    assert ans.status == "found"
    assert queries.check(q, ans) == (False, [])
    model = ans.model
    dropped = SimpleNamespace(
        status="found", model=SimpleNamespace(branch_sets=model.branch_sets[:-1])
    )
    assert queries.check(q, dropped)[1]


@pytest.mark.parametrize(
    "kind,param,n,edges",
    [
        ("fs-minor", 1, 4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        ("qt-minor", 1, 5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
        ("fs-minor", 2, 5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]),
        ("qt-subgraph", 1, 4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
    ],
)
def test_fuzz_oracle_rejects_not_found_on_a_host_that_has_the_pattern(fuzz, kind, param, n, edges):
    mods, queries = fuzz
    g = mods["speclab.graph"].Graph(rows_of(n, edges))
    not_found = SimpleNamespace(status="not_found", model=None, witness=None)
    assert queries.check((kind, param, g), not_found)[1]


def test_witness_oracles_check_every_edge():
    bowtie = rows_of(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    assert oracles.check_fs_witness(bowtie, 2, 0, ((1, 2), (3, 4))) == []
    assert oracles.check_fs_witness(bowtie, 2, 0, ((1, 3), (2, 4)))
    square = rows_of(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert oracles.check_qt_witness(square, 1, 0, ((1, 2, 3),)) == []
    assert oracles.check_qt_witness(square, 1, 0, ((1, 3, 2),))
