"""Pinned JSON and CSV shapes of the result records that no golden file covers.

The expected strings were captured from the hand-written serializers that
the shared ``Record.as_dict`` replaced; they fix key order, nesting, float
text and the sorted-list form of vertex sets.
"""

import json

import pytest

from speclab.families import FamilySpec, construct
from speclab.graph import Graph
from speclab.minor import (
    check_structure_qt,
    clique_closure_check,
    fs_subgraph_witness,
    qt_subgraph_witness,
)
from speclab.search import SearchReport, reports_to_csv
from speclab.spectral import spectral_radius, verify_perron_bound


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def family(kind, **params):
    return construct(FamilySpec(kind, **params))[0]


REPORT_A = SearchReport(
    6, "qt-minor-free:t=1", 112, 20, 2.5, ("E?~o", "E@~o"), "E?~o", True, 0, 0.25
)
REPORT_B = SearchReport(4, "fs-minor-free:s=1", 6, 0, None, (), "C^", False, 2, 1.5)

RECORDS = {
    "closure_found": lambda: clique_closure_check(path(5), range(5), "fs", 2),
    "closure_ok": lambda: clique_closure_check(path(5), {1, 2}, "qt", 1),
    "perron": lambda: verify_perron_bound(family("cycle", n=5)),
    "perron_single_vertex": lambda: verify_perron_bound(Graph.empty(1)),
    "fs_witness": lambda: fs_subgraph_witness(family("friendship", s=2), 2),
    "structure_qt": lambda: check_structure_qt(
        family("kt-join-matching", t=1, n=9), {0}, set(range(1, 9))
    ),
    "witness_found": lambda: qt_subgraph_witness(family("cycle", n=4), 1),
    "witness_not_found": lambda: qt_subgraph_witness(path(5), 1),
    "witness_exhausted": lambda: qt_subgraph_witness(
        family("complete-bipartite", a=2, b=6), 2, node_budget=2
    ),
    "search_report": lambda: REPORT_A,
}

EXPECTED = {
    "closure_found": '{"mode": "fs", "param": 2, "base": {"status": "not_found", "model": null, "nodes_used": 0}, "closed": {"status": "found", "model": {"pattern_g6": "D{c", "host_n": 5, "branch_sets": [[0], [1], [2], [3], [4]]}, "nodes_used": 6}, "ok": false}',
    "closure_ok": '{"mode": "qt", "param": 1, "base": {"status": "not_found", "model": null, "nodes_used": 0}, "closed": {"status": "not_found", "model": null, "nodes_used": 0}, "ok": true}',
    "perron": '{"rho": 2.0, "bound": 0.5, "min_entry": 1.0, "min_vertex": 0, "slack": 1e-08, "ok": true}',
    "perron_single_vertex": '{"rho": 0.0, "bound": 0.0, "min_entry": 1.0, "min_vertex": 0, "slack": 1e-08, "ok": true}',
    "fs_witness": '{"center": 0, "pairs": [[1, 2], [3, 4]]}',
    "structure_qt": '{"mode": "qt", "A": [0], "B": [1, 2, 3, 4, 5, 6, 7, 8], "R": [], "D": [1, 2, 3, 4, 5, 6, 7, 8], "bipartite_complete": true, "b_path_free": true, "max_outside_b_neighbors": 0, "delta": 0.11111111111111116, "d_threshold": 5.999999999999998, "d_meets_threshold": true}',
    "witness_found": '{"status": "found", "witness": {"center": 0, "arms": [[1, 2, 3]]}, "nodes_used": 2}',
    "witness_not_found": '{"status": "not_found", "witness": null, "nodes_used": 3}',
    "witness_exhausted": '{"status": "exhausted", "witness": null, "nodes_used": 3}',
    "search_report": '{"n": 6, "constraint": "qt-minor-free:t=1", "enumerated": 112, "feasible": 20, "best_rho": 2.5, "maximizers": ["E?~o", "E@~o"], "predicted_g6": "E?~o", "match": true, "exhausted_count": 0, "elapsed": 0.25}',
}

HEADER = "n,constraint,enumerated,feasible,best_rho,maximizers,predicted_g6,match,exhausted_count"
ROW_A = "6,qt-minor-free:t=1,112,20,2.5,E?~o;E@~o,E?~o,True,0"
ROW_B = "4,fs-minor-free:s=1,6,0,,,C^,False,2"


def assert_no_tuples(value):
    """as_dict output is plain JSON data: dicts, lists and scalars only."""
    assert not isinstance(value, (tuple, set, frozenset)), value
    if isinstance(value, dict):
        for v in value.values():
            assert_no_tuples(v)
    elif isinstance(value, list):
        for v in value:
            assert_no_tuples(v)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_json_shape(name):
    d = RECORDS[name]().as_dict()
    assert json.dumps(d) == EXPECTED[name]
    assert_no_tuples(d)


def test_search_report_without_elapsed():
    d = REPORT_B.as_dict(include_elapsed=False)
    assert json.dumps(d) == (
        '{"n": 4, "constraint": "fs-minor-free:s=1", "enumerated": 6, "feasible": 0, '
        '"best_rho": null, "maximizers": [], "predicted_g6": "C^", "match": false, '
        '"exhausted_count": 2}'
    )
    assert REPORT_B.to_json(include_elapsed=False) == json.dumps(d)
    assert_no_tuples(d)


def test_spectral_result_vector_is_a_list():
    d = spectral_radius(path(3)).as_dict()
    assert list(d) == ["rho", "vector", "residual", "iterations"]
    assert len(d["vector"]) == 3
    assert_no_tuples(d)


@pytest.mark.parametrize(
    "reports, include_elapsed, expected",
    [
        ([REPORT_A, REPORT_B], True, f"{HEADER},elapsed\r\n{ROW_A},0.25\r\n{ROW_B},1.5\r\n"),
        ([REPORT_A, REPORT_B], False, f"{HEADER}\r\n{ROW_A}\r\n{ROW_B}\r\n"),
        ([], True, f"{HEADER},elapsed\r\n"),
        ([], False, f"{HEADER}\r\n"),
    ],
)
def test_csv_shape(reports, include_elapsed, expected):
    assert reports_to_csv(reports, include_elapsed) == expected
