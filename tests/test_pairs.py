"""tools/pairs.py verdicts on synthetic runs; no benchmark is run."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "pairs.py")
_SPEC = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

SPEC = {
    "end_to_end": [
        {"name": "wall_s", "better": "lower", "bound": 0.24},
        {"name": "queries_per_s", "better": "higher", "bound": 0.24},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
    ],
    "per_layer": [{"name": "minor.nodes", "better": "lower"}],
}

# ten parent runs: median 1.0, quartiles 0.9775 and 1.0225 (IQR 0.045)
PARENT = [0.97, 1.03, 0.99, 1.01, 1.0, 1.0, 0.98, 1.02, 0.96, 1.04]


def runs_of(metric, before, after):
    return {
        "parent": [{metric: v} for v in before],
        "change": [{metric: v} for v in after],
    }


def verdict(metric, before, after):
    return pairs.summarize(runs_of(metric, before, after), SPEC)[metric]


class TestSummarize:
    def test_sides_and_wins(self):
        m = verdict("wall_s", PARENT, [v - 0.1 for v in PARENT])
        assert m["better"] == "lower"
        assert m["parent"]["median"] == 1.0
        assert (m["parent"]["q1"], m["parent"]["q3"]) == (0.9775, 1.0225)
        assert m["change"]["median"] == 0.9
        assert m["change_wins"] == 10

    def test_claim_needs_nine_tenths_of_pairs(self):
        after = [v - 0.1 for v in PARENT]
        assert verdict("wall_s", PARENT, after)["claim_met"]
        nine = after[:9] + [PARENT[9]]  # a tie counts for neither side
        m = verdict("wall_s", PARENT, nine)
        assert m["change_wins"] == 9 and m["claim_met"]
        eight = after[:8] + PARENT[8:]
        m = verdict("wall_s", PARENT, eight)
        assert m["change_wins"] == 8 and not m["claim_met"]

    def test_claim_needs_gap_above_parent_iqr(self):
        # wins every pair, but the median moves 0.04 against an IQR of 0.045
        m = verdict("wall_s", PARENT, [v - 0.04 for v in PARENT])
        assert m["change_wins"] == 10 and not m["claim_met"]
        m = verdict("wall_s", PARENT, [v - 0.05 for v in PARENT])
        assert m["claim_met"]

    def test_higher_is_better(self):
        m = verdict("queries_per_s", PARENT, [v + 0.1 for v in PARENT])
        assert m["change_wins"] == 10 and m["claim_met"] and m["within_bound"]
        m = verdict("queries_per_s", PARENT, [v - 0.1 for v in PARENT])
        assert m["change_wins"] == 0 and not m["claim_met"] and m["within_bound"]

    @pytest.mark.parametrize(
        "metric, factor, ok",
        [
            ("peak_rss_mb", 1.09, True),
            ("peak_rss_mb", 1.11, False),
            ("wall_s", 1.23, True),
            ("wall_s", 1.25, False),
            ("queries_per_s", 0.77, True),
            ("queries_per_s", 0.75, False),
        ],
    )
    def test_within_bound(self, metric, factor, ok):
        m = verdict(metric, PARENT, [v * factor for v in PARENT])
        assert m["within_bound"] is ok and not m["claim_met"]

    def test_per_layer_and_unlisted_metrics_have_no_bound(self):
        runs = {
            "parent": [{"minor.nodes": 10, "extra": 1.0}] * 3,
            "change": [{"minor.nodes": 10, "extra": 0.5}] * 3,
        }
        got = pairs.summarize(runs, SPEC)
        assert "within_bound" not in got["minor.nodes"]
        assert got["minor.nodes"]["change_wins"] == 0
        assert not got["minor.nodes"]["claim_met"]
        # a metric BENCHMARK.json does not list is read as lower-is-better
        assert got["extra"]["better"] is None and got["extra"]["change_wins"] == 3
        assert "within_bound" not in got["extra"]
