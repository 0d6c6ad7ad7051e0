import dataclasses
import io
import json
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

jsonschema = pytest.importorskip("jsonschema")

from speclab.cli import run
from speclab.families import FamilySpec, construct
from speclab.graph import g6_encode

GOLDEN = pathlib.Path(__file__).parent / "golden"


def invoke(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        assert monkeypatch is not None
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name):
    import importlib.resources as res

    path = res.files("speclab") / "schemas" / name
    return json.loads(path.read_text())


def g6_of(spec):
    g, _ = construct(spec)
    return g6_encode(g).decode("ascii")


class TestGolden:
    def test_construct(self, capsys):
        code, out, _ = invoke(
            capsys, ["construct", "friendship:s=2", "--format", "g6", "--layout"]
        )
        assert code == 0
        assert out == (GOLDEN / "construct_f2.txt").read_text()

    def test_rho(self, capsys):
        code, out, _ = invoke(
            capsys, ["rho", "--family", "complete-bipartite:a=2,b=9", "--closed-form"]
        )
        assert code == 0
        assert out == (GOLDEN / "rho_k29.json").read_text()

    def test_minor(self, capsys):
        code, out, _ = invoke(
            capsys, ["minor", "--pattern", "fs:s=2", "--host", "F?B~w"]
        )
        assert code == 0
        assert out == (GOLDEN / "minor_join.json").read_text()

    def test_subgraph(self, capsys):
        c4 = g6_of(FamilySpec("cycle", n=4))
        code, out, _ = invoke(capsys, ["subgraph", "--pattern", "qt:t=1", "--host", c4])
        assert code == 0
        assert out == (GOLDEN / "subgraph_c4.json").read_text()

    def test_lemmas(self, capsys):
        code, out, _ = invoke(
            capsys, ["lemmas", "--check", "l33", "--host", "F?B~w", "--A", "5,6"]
        )
        assert code == 0
        assert out == (GOLDEN / "lemmas_l33.json").read_text()

    def test_search(self, capsys):
        code, out, _ = invoke(
            capsys,
            ["search", "--constraint", "qt-minor:t=1", "--n", "6", "--workers", "1"],
        )
        assert code == 0
        got = json.loads(out)
        assert got.pop("elapsed") >= 0
        assert got == json.loads((GOLDEN / "search_n6.json").read_text())

    def test_verify(self, capsys):
        code, out, _ = invoke(
            capsys,
            ["verify", "--mode", "fs:s=1", "--n-from", "4", "--n-to", "6", "--workers", "1"],
        )
        assert code == 0
        got = json.loads(out)
        for r in got:
            assert r.pop("elapsed") >= 0
        assert got == json.loads((GOLDEN / "verify_fs1.json").read_text())

    def test_audit(self, capsys):
        code, out, _ = invoke(
            capsys,
            [
                "audit",
                "--family", "efgg:s=3,n=450",
                "--family", "ks-join-independent:s=2,n=50",
                "--family", "complete-bipartite:a=5,b=20",
                "--c-constant", "5.0",
            ],
        )
        assert code == 0
        assert out == (GOLDEN / "audit.json").read_text()


class TestSchemas:
    def test_spectral_json_validates(self, capsys):
        _, out, _ = invoke(
            capsys, ["rho", "--family", "complete-bipartite:a=2,b=9", "--closed-form"]
        )
        jsonschema.validate(json.loads(out), load_schema("spectral_result.json"))

    def test_certificate_validates(self, capsys):
        k5 = g6_of(FamilySpec("complete", n=5))
        code, out, _ = invoke(capsys, ["minor", "--pattern", "fs:s=2", "--host", k5])
        assert code == 0
        answer = json.loads(out)
        assert answer["status"] == "found"
        jsonschema.validate(answer["model"], load_schema("certificate.json"))

    def test_search_report_validates(self, capsys):
        _, out, _ = invoke(
            capsys,
            ["search", "--constraint", "fs-minor:s=1", "--n", "5", "--workers", "1"],
        )
        jsonschema.validate(json.loads(out), load_schema("search_report.json"))

    def test_structure_report_validates(self, capsys):
        _, out, _ = invoke(
            capsys, ["lemmas", "--check", "l53", "--host", "F?B~w", "--A", "5,6"]
        )
        jsonschema.validate(json.loads(out), load_schema("structure_report.json"))


class TestExitCodes:
    def test_usage_errors(self, capsys):
        assert invoke(capsys, [])[0] == 1
        assert invoke(capsys, ["frobnicate"])[0] == 1
        assert invoke(capsys, ["construct", "friendship:s=0"])[0] == 1
        assert invoke(capsys, ["construct", "friendship:s=2", "--format", "csv"])[0] == 1
        assert invoke(capsys, ["rho", "--g6", "Bw", "--closed-form"])[0] == 1
        assert invoke(capsys, ["subgraph", "--pattern", "Bw", "--host", "Bw"])[0] == 1
        assert invoke(capsys, ["minor", "--pattern", "fs:s=2", "--host", "!!!"])[0] == 1
        assert invoke(capsys, ["lemmas", "--check", "l99", "--host", "Bw", "--A", "0"])[0] == 1

    def test_repeated_vertex_is_usage_error(self, capsys):
        # a repeated hub made the default --param of l34 count it twice
        for check, flags in [("l34", "--A=0,0"), ("l33", "--A=0,0"), ("l33", "--A=0 --B=1,1")]:
            argv = ["lemmas", "--check", check, "--host", "DQo", *flags.split()]
            code, out, err = invoke(capsys, argv)
            assert (code, out) == (1, "")
            assert "repeated vertex" in err

    def test_non_finite_c_constant_is_usage_error(self, capsys):
        for value in ("nan", "inf", "-inf"):
            argv = ["audit", "--family", "complete-bipartite:a=2,b=3", f"--c-constant={value}"]
            assert invoke(capsys, argv) == (1, "", "speclab: c-constant must be finite\n")

    def test_help_exits_zero(self, capsys):
        assert invoke(capsys, ["--help"])[0] == 0
        assert invoke(capsys, ["search", "--help"])[0] == 0

    def test_claim_failure_rho(self, capsys):
        code, out, _ = invoke(
            capsys,
            [
                "rho",
                "--family", "ks-join-independent:s=2,n=50",
                "--closed-form",
                "--tolerance", "1e-1",
            ],
        )
        assert code == 2
        assert json.loads(out)["within_tolerance"] is False

    def test_claim_failure_lemma(self, capsys):
        # plant an edge inside B of K_{2,6}: the side is no longer edgeless
        g, _ = construct(FamilySpec("complete-bipartite", a=2, b=6))
        g = g.with_edge(2, 3)
        code, out, _ = invoke(
            capsys,
            ["lemmas", "--check", "l33", "--host", g6_encode(g).decode(), "--A", "0,1"],
        )
        assert code == 2
        assert json.loads(out)["b_path_free"] is False

    def test_search_radius_disagreement_is_claim_failure(self, capsys, monkeypatch):
        from speclab import search
        from speclab.spectral import spectral_radius

        def perturbed(g):
            r = spectral_radius(g)
            return dataclasses.replace(r, rho=r.rho + 1e-7)

        monkeypatch.setattr(search, "spectral_radius", perturbed)
        code, out, err = invoke(
            capsys, ["search", "--constraint", "fs-minor:s=1", "--n", "5", "--workers", "1"]
        )
        assert (code, out) == (2, "")
        assert "eigvalsh" in err

    def test_search_maximizer_feasible_with_an_edge_is_claim_failure(
        self, capsys, monkeypatch
    ):
        from test_search import plant_feasible, unwalked_non_edge

        g6, (u, v), target = unwalked_non_edge(monkeypatch, 5, "fs-minor-free:s=1")
        plant_feasible(monkeypatch, target)
        code, out, err = invoke(
            capsys, ["search", "--constraint", "fs-minor:s=1", "--n", "5", "--workers", "1"]
        )
        assert (code, out) == (2, "")
        assert f"{g6} plus edge {u}-{v}" in err

    def test_exhaustion_exit(self, capsys):
        k8 = g6_of(FamilySpec("complete", n=8))
        code, out, _ = invoke(
            capsys,
            ["minor", "--pattern", "fs:s=2", "--host", k8, "--budget", "3"],
        )
        assert code == 3
        assert json.loads(out)["status"] == "exhausted"

    def test_verify_unsettled_prediction_exit(self, capsys):
        argv = ["verify", "--mode", "fs:s=2", "--n-from", "5", "--n-to", "5", "--budget", "1"]
        code, out, err = invoke(capsys, argv)
        assert (code, out) == (3, "")
        assert "exhausted" in err

    def test_search_exhaustion_exit(self, capsys):
        code, out, _ = invoke(
            capsys,
            ["search", "--constraint", "fs-minor:s=2", "--n", "5", "--budget", "5", "--workers", "1"],
        )
        assert code == 3
        assert json.loads(out)["exhausted_count"] > 0
        assert json.loads(out)["match"] is False


class TestContractPaths:
    def test_minor_generic_pattern_has_a_verified_model(self, capsys):
        from speclab.graph import g6_decode
        from speclab.minor import MinorModel, verify_model

        code, out, _ = invoke(capsys, ["minor", "--pattern", "Bw", "--host", "Bw"])
        assert code == 0
        answer = json.loads(out)
        assert answer["status"] == "found"
        model = answer["model"]
        assert model["pattern_g6"] == "Bw"
        k3 = g6_decode("Bw")
        branch_sets = tuple(frozenset(s) for s in model["branch_sets"])
        assert verify_model(k3, MinorModel(model["host_n"], k3, branch_sets))

    def test_subgraph_budget_exhausted_exit(self, capsys):
        argv = ["subgraph", "--pattern", "qt:t=2", "--host", "I~~~~~~~w", "--budget", "1"]
        code, out, _ = invoke(capsys, argv)
        assert code == 3
        assert json.loads(out)["status"] == "exhausted"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["minor", "--pattern", "Bw", "--host", "Bw", "--budget", "0"], "node budget must be >= 1"),
            (["search", "--constraint", "fs-minor:s=1", "--n", "4", "--workers", "-1"], "workers must be >= 0"),
            (["lemmas", "--check", "l34", "--host", "DqK", "--A", "1,x"], "bad vertex list '1,x'"),
            (["lemmas", "--check", "l34", "--host", "DqK", "--A", ","], "--A must name at least one vertex"),
            (["verify", "--mode", "fs:t=1", "--n-from", "4", "--n-to", "4"], "mode must be"),
        ],
    )
    def test_bad_values_are_usage_errors(self, capsys, argv, message):
        code, out, err = invoke(capsys, argv)
        assert (code, out) == (1, "")
        assert message in err

    def test_verify_closed_form_disagreement_is_claim_failure(self, capsys, monkeypatch):
        from speclab import search

        real = search.rho_closed_form
        monkeypatch.setattr(search, "rho_closed_form", lambda spec: real(spec) + 1e-6)
        argv = ["verify", "--mode", "fs:s=1", "--n-from", "4", "--n-to", "4", "--workers", "1"]
        code, out, err = invoke(capsys, argv)
        assert (code, out) == (2, "")
        assert "disagrees with closed form" in err

    @pytest.mark.parametrize("check", ["l34", "l54"])
    def test_lemmas_side_flag_with_closure_check_is_usage_error(self, capsys, monkeypatch, check):
        monkeypatch.setattr("speclab.cli.clique_closure_check", None)
        argv = ["lemmas", "--check", check, "--host", K210, "--A", "0,1", "--B", "99"]
        assert invoke(capsys, argv) == (1, "", f"speclab: --B is not read by {check}\n")

    @pytest.mark.parametrize("check", ["l33", "l53"])
    def test_lemmas_param_with_structure_check_is_usage_error(self, capsys, monkeypatch, check):
        monkeypatch.setattr(f"speclab.cli.check_structure_{'fs' if check == 'l33' else 'qt'}", None)
        argv = ["lemmas", "--check", check, "--host", K210, "--A", "0,1", "--param", "7"]
        assert invoke(capsys, argv) == (1, "", f"speclab: --param is not read by {check}\n")


class TestConfigPrecedence:
    def test_env_budget_applies(self, capsys, monkeypatch):
        monkeypatch.setenv("SPECLAB_BUDGET", "3")
        k8 = g6_of(FamilySpec("complete", n=8))
        code, _, _ = invoke(capsys, ["minor", "--pattern", "fs:s=2", "--host", k8])
        assert code == 3

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SPECLAB_BUDGET", "3")
        k8 = g6_of(FamilySpec("complete", n=8))
        code, out, _ = invoke(
            capsys,
            ["minor", "--pattern", "fs:s=2", "--host", k8, "--budget", "10000000"],
        )
        assert code == 0
        assert json.loads(out)["status"] == "found"

    def test_bad_env_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("SPECLAB_TOLERANCE", "abc")
        code, _, err = invoke(capsys, ["rho", "--g6", "Bw"])
        assert code == 1
        assert "SPECLAB_TOLERANCE" in err

    def test_bad_tolerance_value(self, capsys, monkeypatch):
        for value in ["-1", "inf", "nan"]:
            code, _, err = invoke(capsys, ["rho", "--family", "path:n=5", "--tolerance", value])
            assert (code, err) == (1, "speclab: tolerance must be > 0 and finite\n")
            monkeypatch.setenv("SPECLAB_TOLERANCE", value)
            assert invoke(capsys, ["rho", "--family", "path:n=5"])[0] == 1
            monkeypatch.delenv("SPECLAB_TOLERANCE")


class TestPiping:
    def test_rho_stdin(self, capsys, monkeypatch):
        code, out, _ = invoke(
            capsys, ["rho", "--stdin"], stdin="Bw\n", monkeypatch=monkeypatch
        )
        assert code == 0
        assert abs(json.loads(out)["rho"] - 2.0) < 1e-9

    def test_minor_host_dash(self, capsys, monkeypatch):
        code, out, _ = invoke(
            capsys,
            ["minor", "--pattern", "qt:t=1", "--host", "-"],
            stdin="F?B~w\n",
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert json.loads(out)["status"] == "found"

    def test_empty_stdin(self, capsys, monkeypatch):
        code, _, _ = invoke(
            capsys, ["rho", "--stdin"], stdin="", monkeypatch=monkeypatch
        )
        assert code == 1

    def test_construct_pipes_into_rho(self, capsys, monkeypatch):
        _, g6line, _ = invoke(capsys, ["construct", "friendship:s=3", "--format", "g6"])
        code, out, _ = invoke(
            capsys, ["rho", "--stdin"], stdin=g6line, monkeypatch=monkeypatch
        )
        assert code == 0
        # hub-with-pendant-triangles quotient: x^2 - x - 6 at n=7
        assert abs(json.loads(out)["rho"] - 3.0) < 1e-9


class TestTextFormats:
    def test_rho_text(self, capsys):
        code, out, _ = invoke(capsys, ["rho", "--g6", "Bw", "--format", "text"])
        assert code == 0
        assert out.startswith("rho = 2.0")

    def test_search_csv(self, capsys):
        code, out, _ = invoke(
            capsys,
            ["search", "--constraint", "fs-minor:s=1", "--n", "5", "--workers", "1", "--format", "csv"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,constraint")
        assert len(lines) == 2

    def test_verify_csv(self, capsys):
        code, out, _ = invoke(
            capsys,
            ["verify", "--mode", "qt:t=1", "--n-from", "5", "--n-to", "6", "--workers", "1", "--format", "csv"],
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    def test_lemmas_closure_text(self, capsys):
        k210 = g6_of(FamilySpec("complete-bipartite", a=2, b=10))
        code, out, _ = invoke(
            capsys,
            ["lemmas", "--check", "l34", "--host", k210, "--A", "0,1", "--format", "text"],
        )
        assert code == 0
        assert "ok=True" in out

    def test_lemmas_closure_budget_exhausted(self, capsys):
        k210 = g6_of(FamilySpec("complete-bipartite", a=2, b=10))
        code, _, err = invoke(
            capsys, ["lemmas", "--check", "l34", "--host", k210, "--A", "0,1", "--budget", "2"]
        )
        assert code == 3
        assert "budget" in err

    @pytest.mark.parametrize("check,host", [("l34", "DqK"), ("l54", "FqGOW")])
    def test_lemmas_closure_exhausted_after_base_settles(self, capsys, check, host):
        # the base search settles without a node; closing 0-3 needs more than one
        argv = ["lemmas", "--check", check, "--host", host, "--A", "0,3", "--budget", "1"]
        code, out, _ = invoke(capsys, argv)
        assert code == 3
        report = json.loads(out)
        assert (report["base"]["status"], report["closed"]["status"]) == ("not_found", "exhausted")
        assert report["ok"] is False

    def test_lemmas_closure_host_has_minor(self, capsys):
        k5 = g6_of(FamilySpec("complete", n=5))
        code, _, err = invoke(capsys, ["lemmas", "--check", "l34", "--host", k5, "--A", "0,1"])
        assert code == 1
        assert "already contains" in err


class TestSubprocess:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "speclab", "construct", "friendship:s=2", "--format", "g6"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "D{c"

    def test_pipe_between_processes(self):
        p1 = subprocess.run(
            [sys.executable, "-m", "speclab", "construct", "ks-join-independent:s=2,n=8", "--format", "g6"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        p2 = subprocess.run(
            [sys.executable, "-m", "speclab", "minor", "--pattern", "fs:s=2", "--host", "-"],
            input=p1.stdout,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert p2.returncode == 0
        assert json.loads(p2.stdout)["status"] == "not_found"

    @pytest.mark.parametrize(
        "spec", ["independent:n=1000000000", "path:n=100000000", "complete:n=100000"]
    )
    def test_spec_over_the_cap_rejected_before_allocating(self, spec):
        import resource

        def two_gigabytes():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "speclab", "construct", spec],
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=two_gigabytes,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert re.fullmatch(r"speclab: .* exceeds the cap of 4096\n", proc.stderr)

    def test_minor_queries_leave_numpy_unloaded(self):
        # numpy is imported only where a spectral radius is computed
        code = (
            "import sys\n"
            "import speclab.search, speclab.minor\n"
            "from speclab.cli import run\n"
            "assert run(['minor', '--pattern', 'fs:s=2', '--host', 'F?B~w']) == 0\n"
            "print('numpy' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"


def _mask_elapsed(out):
    # the csv elapsed column is the only field that varies between runs
    return re.sub(r",[0-9.e-]+\r\n", ",E\r\n", out)


K210 = "K]rEEB?oE?W?"
_CSV_HEAD = "n,constraint,enumerated,feasible,best_rho,maximizers,predicted_g6,match,exhausted_count,elapsed\r\n"

# stdout of every non-json format, one case per (command, format) and a
# few variants; json is pinned by the goldens above
FORMAT_MATRIX = [
    (["construct", "friendship:s=2", "--format", "g6"], "D{c\n"),
    (["construct", "friendship:s=2", "--format", "g6", "--layout"], 'D{c\n{"center": [0], "B": [1, 2, 3, 4]}\n'),
    (["construct", "friendship:s=2", "--format", "text"], "friendship:s=2: n=5 edges=6 g6=D{c\n"),
    (
        ["construct", "friendship:s=2", "--format", "text", "--layout"],
        'friendship:s=2: n=5 edges=6 g6=D{c\n{"center": [0], "B": [1, 2, 3, 4]}\n',
    ),
    (["rho", "--g6", "Bw", "--format", "text"], "rho = 2.0 (iterations=1, residual=0.000e+00)\n"),
    (
        ["rho", "--family", "complete-bipartite:a=2,b=9", "--closed-form", "--format", "text"],
        "rho = 4.242640687119286 (iterations=52, residual=6.964e-11) closed_form=4.242640687119285 delta=8.882e-16\n",
    ),
    (["minor", "--pattern", "fs:s=2", "--host", "F?B~w", "--format", "text"], "status=not_found nodes=4065\n"),
    (["subgraph", "--pattern", "qt:t=1", "--host", "Cl", "--format", "text"], "status=found\n"),
    (["subgraph", "--pattern", "fs:s=1", "--host", "F?B~w", "--format", "text"], "status=found\n"),
    (
        ["lemmas", "--check", "l33", "--host", "F?B~w", "--A", "5,6", "--format", "text"],
        "mode=fs bipartite_complete=True b_path_free=True |D|=5 threshold=3.000 meets=True\n",
    ),
    (
        ["lemmas", "--check", "l34", "--host", K210, "--A", "0,1", "--format", "text"],
        "base=not_found closed=not_found ok=True\n",
    ),
    (
        ["search", "--constraint", "qt-minor:t=1", "--n", "6", "--workers", "1", "--format", "text"],
        "n=6 qt-minor-free:t=1: enumerated=112 feasible=16 best_rho=2.7092753594369228 match=True exhausted=0\n",
    ),
    (
        ["search", "--constraint", "qt-minor:t=1", "--n", "6", "--workers", "1", "--format", "csv"],
        _CSV_HEAD + "6,qt-minor-free:t=1,112,16,2.7092753594369228,E@Rw,E@Rw,True,0,E\r\n",
    ),
    (
        ["verify", "--mode", "fs:s=1", "--n-from", "4", "--n-to", "6", "--workers", "1", "--format", "text"],
        "n=4 match=True best_rho=1.7320508075688772 maximizers=1\n"
        "n=5 match=True best_rho=1.9999999999999996 maximizers=1\n"
        "n=6 match=True best_rho=2.23606797749979 maximizers=1\n",
    ),
    (
        ["verify", "--mode", "fs:s=1", "--n-from", "4", "--n-to", "6", "--workers", "1", "--format", "csv"],
        _CSV_HEAD
        + "4,fs-minor-free:s=1,6,2,1.7320508075688772,CF,CF,True,0,E\r\n"
        + "5,fs-minor-free:s=1,21,3,1.9999999999999996,D?{,D?{,True,0,E\r\n"
        + "6,fs-minor-free:s=1,112,6,2.23606797749979,E?Bw,E?Bw,True,0,E\r\n",
    ),
    (
        [
            "audit",
            "--family", "efgg:s=3,n=450",
            "--family", "complete-bipartite:a=5,b=20",
            "--c-constant", "5.0",
            "--format", "text",
        ],
        "efgg:s=3,n=450: edges=50631 expected=50631 ok=True\n"
        "complete-bipartite:a=5,b=20: edges=100 expected=100 ok=True\n",
    ),
]


_SEARCH = ["search", "--n", "5", "--workers", "1", "--constraint"]
_VERIFY = ["verify", "--n-from", "4", "--n-to", "5", "--workers", "1", "--mode"]
_FS1_N4_N5 = "n=4 match=True best_rho=1.7320508075688772 maximizers=1\nn=5 match=True best_rho=1.9999999999999996 maximizers=1\n"
_QT1_N4_N5 = "n=4 match=True best_rho=2.1700864866260337 maximizers=1\nn=5 match=True best_rho=2.5615528128088307 maximizers=1\n"

# The constraint spellings of the four commands that read one, in groups
# of one meaning: (argv before the spelling, spellings, the constraint
# that search and verify report, --format text stdout).  A short form
# fs:s=N or qt:t=N names the command's own relation, minor for search and
# verify.  Each spelling's json is compared with that of its group's first.
SPELLINGS = [
    (["minor", "--host", "F?B~w", "--pattern"], ["fs:s=2", "fs-minor:s=2", "fs-minor-free:s=2"], None, "status=not_found nodes=4065\n"),
    (["minor", "--host", "F?B~w", "--pattern"], ["qt:t=1", "qt-minor:t=1", "qt-minor-free:t=1"], None, "status=found nodes=9\n"),
    (["subgraph", "--host", "F?B~w", "--pattern"], ["fs:s=1", "fs-subgraph:s=1", "fs-subgraph-free:s=1"], None, "status=found\n"),
    (["subgraph", "--host", "Cl", "--pattern"], ["qt:t=1", "qt-subgraph:t=1", "qt-subgraph-free:t=1"], None, "status=found\n"),
    (
        _SEARCH,
        ["fs-minor-free:s=1", "fs-minor:s=1", "fs:s=1", "fs-minor-free:s=01"],
        "fs-minor-free:s=1",
        "n=5 fs-minor-free:s=1: enumerated=21 feasible=3 best_rho=1.9999999999999996 match=True exhausted=0\n",
    ),
    (
        _SEARCH,
        ["qt-subgraph-free:t=1", "qt-subgraph:t=1"],
        "qt-subgraph-free:t=1",
        "n=5 qt-subgraph-free:t=1: enumerated=21 feasible=8 best_rho=2.5615528128088307 match=True exhausted=0\n",
    ),
    (_VERIFY, ["fs:s=1", "fs-minor:s=1", "fs-minor-free:s=1"], "fs-minor-free:s=1", _FS1_N4_N5),
    (_VERIFY, ["qt:t=1", "qt-minor:t=1", "qt-minor-free:t=1"], "qt-minor-free:t=1", _QT1_N4_N5),
    (_VERIFY, ["qt-subgraph:t=1", "qt-subgraph-free:t=1"], "qt-subgraph-free:t=1", _QT1_N4_N5),
    (
        _VERIFY,
        ["fs-subgraph:s=1", "fs-subgraph-free:s=1"],
        "fs-subgraph-free:s=1",
        "n=4 match=False best_rho=2.0 maximizers=1\nn=5 match=False best_rho=2.449489742783178 maximizers=1\n",
    ),
]

# spellings refused with exit 1 and a message that names the accepted forms
REFUSED = [
    (["minor", "--host", "F?B~w", "--pattern", "fs-subgraph:s=2"], "minor pattern must be a g6 string or fs:s=N, qt:t=N, fs-minor:s=N"),
    (["minor", "--host", "F?B~w", "--pattern", "qt-subgraph-free:t=1"], "minor pattern must be"),
    (["minor", "--host", "F?B~w", "--pattern", "fs:t=2"], "minor pattern must be"),
    (["minor", "--host", "F?B~w", "--pattern", "qt:t=0"], "(N >= 1)"),
    (["subgraph", "--host", "F?B~w", "--pattern", "fs-minor:s=1"], "subgraph pattern must be fs:s=N, qt:t=N, fs-subgraph:s=N"),
    (["subgraph", "--host", "F?B~w", "--pattern", "qt-minor-free:t=1"], "subgraph pattern must be"),
    (["subgraph", "--host", "F?B~w", "--pattern", "Bw"], "subgraph pattern must be"),
    (_SEARCH[:-1] + ["--constraint", "fs:t=1"], "constraint must be fs:s=N, qt:t=N, fs-R:s=N"),
    (_SEARCH[:-1] + ["--constraint", "fs-minorfree:s=1"], "R minor or subgraph"),
    (_VERIFY[:-1] + ["--mode", "fs:t=1"], "mode must be fs:s=N, qt:t=N, fs-R:s=N"),
    (_VERIFY[:-1] + ["--mode", "zz-minor-free:s=1"], "mode must be"),
    (_VERIFY[:-1] + ["--mode", "fs-minor-free:s=0"], "N >= 1"),
]


def _without_elapsed(out):
    got = json.loads(out)
    for report in got if isinstance(got, list) else [got]:
        if isinstance(report, dict):
            report.pop("elapsed", None)
    return got


class TestSpellings:
    @pytest.mark.parametrize(
        "head,first,spelling,constraint,text",
        [(head, sp[0], spelling, c, text) for head, sp, c, text in SPELLINGS for spelling in sp],
        ids=[f"{head[0]} {spelling}" for head, sp, _, _ in SPELLINGS for spelling in sp],
    )
    def test_spellings_of_one_constraint_print_the_same(self, capsys, head, first, spelling, constraint, text):
        assert invoke(capsys, [*head, spelling, "--format", "text"]) == (0, text, "")
        code, out, _ = invoke(capsys, [*head, spelling])
        want = invoke(capsys, [*head, first])[1]
        assert code == 0 and _without_elapsed(out) == _without_elapsed(want)
        if constraint is not None:
            reports = _without_elapsed(out)
            for report in reports if isinstance(reports, list) else [reports]:
                assert report["constraint"] == constraint

    @pytest.mark.parametrize("argv,message", REFUSED, ids=[" ".join(argv[-2:]) for argv, _ in REFUSED])
    def test_other_spellings_are_usage_errors(self, capsys, argv, message):
        code, out, err = invoke(capsys, argv)
        assert (code, out) == (1, "")
        assert message in err


class TestCommandTable:
    @pytest.mark.parametrize("argv,expected", FORMAT_MATRIX, ids=[" ".join(argv) for argv, _ in FORMAT_MATRIX])
    def test_format_stdout(self, capsys, argv, expected):
        code, out, _ = invoke(capsys, argv)
        assert code == 0
        assert _mask_elapsed(out) == expected

    def test_unsupported_format_rejected_before_work(self, capsys, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("search ran for a format it cannot write")

        monkeypatch.setattr("speclab.cli.extremal_search", must_not_run)
        code, out, err = invoke(
            capsys, ["search", "--constraint", "fs-minor:s=1", "--n", "8", "--format", "g6"]
        )
        assert code == 1
        assert out == "" and "--format" in err

    def test_usage_checked_before_budget(self, capsys):
        # the budget would run out first; the bad format is still exit 1
        argv = ["lemmas", "--check", "l34", "--host", K210, "--A", "0,1", "--budget", "2", "--format", "csv"]
        assert invoke(capsys, argv)[0] == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", "friendship:s=2", "--budget", "5"],
            ["search", "--constraint", "fs-minor:s=1", "--n", "5", "--tolerance", "1e-3"],
            ["verify", "--mode", "fs:s=1", "--n-from", "4", "--n-to", "5", "--max-iter", "10"],
            ["rho", "--g6", "Bw", "--workers", "2"],
            ["audit", "--family", "complete:n=4", "--budget", "5"],
        ],
    )
    def test_unread_shared_flag_is_usage_error(self, capsys, argv):
        code, out, _ = invoke(capsys, argv)
        assert code == 1
        assert out == ""

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_max_iter_below_one_is_usage_error(self, capsys, value):
        code, _, err = invoke(capsys, ["rho", "--g6", "Bw", "--max-iter", value])
        assert code == 1
        assert "max_iter" in err

    def test_env_read_only_by_commands_taking_the_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("SPECLAB_TOLERANCE", "abc")
        monkeypatch.setenv("SPECLAB_WORKERS", "x")
        code, out, _ = invoke(capsys, ["construct", "friendship:s=2", "--format", "g6"])
        assert (code, out) == (0, "D{c\n")
        assert invoke(capsys, ["rho", "--g6", "Bw"])[0] == 1

    @pytest.mark.parametrize("flag", [["--workers", "4096"], ["--workers", "0"], []])
    def test_workers_capped_at_cores(self, capsys, monkeypatch, flag):
        import speclab.cli

        real = speclab.cli.extremal_search
        seen = []

        def record(n, constraint, node_budget, workers):
            seen.append(workers)
            return real(n, constraint, node_budget=node_budget, workers=1)

        monkeypatch.setattr("os.cpu_count", lambda: 2)
        monkeypatch.setattr("speclab.cli.extremal_search", record)
        monkeypatch.delenv("SPECLAB_WORKERS", raising=False)
        code, _, _ = invoke(capsys, ["search", "--constraint", "fs-minor:s=1", "--n", "5", *flag])
        assert code == 0
        assert seen == [2]

    def test_readme_examples_exit_zero(self, capsys, monkeypatch):
        readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
        block = readme.split("## CLI", 1)[1].split("```")[1]
        lines = [line for line in block.splitlines() if "speclab " in line]
        assert len(lines) >= 10
        monkeypatch.setenv("SPECLAB_WORKERS", "1")
        for line in lines:
            stdin = None
            if "|" in line:
                feed, line = line.split("|")
                stdin = shlex.split(feed)[1] + "\n"
            argv = shlex.split(line)
            assert argv[0] == "speclab"
            code, _, err = invoke(capsys, argv[1:], stdin=stdin, monkeypatch=monkeypatch)
            assert code == 0, (line, err)
