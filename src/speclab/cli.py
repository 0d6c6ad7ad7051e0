"""Command-line front end.

Subcommands cover construction, spectral radius, minor and subgraph
testing, structural lemma checks, exhaustive search, multi-n
verification, and edge-count audits.  Exit codes are part of the
contract: 0 success, 1 usage error, 2 a checked claim failed, 3 a
search hit its resource budget.  Scripted runs need no output parsing.

One table, _COMMANDS, declares per subcommand its arguments, the output
formats it writes and the shared flags it reads; the parser is built
from it, so anything else is a usage error before any work is done.
Handlers return their exit code with the output lines of every format.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from typing import Callable

from .errors import (
    BudgetExhausted,
    ConvergenceFailure,
    SpeclabError,
    VerificationFailed,
)
from .families import construct, parse_family_spec
from .graph import Graph, g6_decode, g6_encode
from .minor import (
    DEFAULT_NODE_BUDGET,
    EXHAUSTED,
    check_structure_fs,
    check_structure_qt,
    clique_closure_check,
    find_minor_model,
    fs_subgraph_witness,
    has_fs_minor,
    has_qt_minor,
    qt_subgraph_witness,
)
from .search import (
    edge_bound_audit,
    extremal_search,
    reports_to_csv,
    verify_theorem_small_n,
)
from .spectral import CLOSED_FORM_TOLERANCE, rho_closed_form, spectral_radius

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CLAIM = 2
EXIT_EXHAUSTED = 3

# shared flag -> (type, environment variable, default, help)
_SHARED = {
    "tolerance": (float, "SPECLAB_TOLERANCE", 1e-10, "power iteration residual tolerance (default 1e-10, env SPECLAB_TOLERANCE)"),
    "max_iter": (int, None, 100_000, "power iteration cap (default 100000)"),
    "budget": (int, "SPECLAB_BUDGET", DEFAULT_NODE_BUDGET, "search node budget (default 10^7, env SPECLAB_BUDGET)"),
    "workers": (int, "SPECLAB_WORKERS", 0, "worker processes for search, 0 = all cores, capped at the core count (env SPECLAB_WORKERS)"),
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract reserves 2 for failed
    # claims, so route usage problems through our own exception
    def error(self, message):
        raise _UsageError(message)


def _env(name, kind, default):
    raw = os.environ.get(name) if name is not None else None
    if raw is None:
        return default
    try:
        return kind(raw)
    except ValueError:
        noun = "a number" if kind is float else "an integer"
        raise _UsageError(f"{name} is not {noun}: {raw!r}")


def _resolve(args) -> None:
    """Fill in the shared flags the command reads: flag > environment > default."""
    flags = _COMMANDS[args.command].flags
    for name in flags:
        if getattr(args, name) is None:
            kind, env, default, _ = _SHARED[name]
            setattr(args, name, _env(env, kind, default))
    if "tolerance" in flags and not 0 < args.tolerance < float("inf"):
        raise _UsageError("tolerance must be > 0 and finite")
    if "budget" in flags and args.budget < 1:
        raise _UsageError("node budget must be >= 1")
    if "workers" in flags:
        if args.workers < 0:
            raise _UsageError("workers must be >= 0")
        # the work is CPU-bound and reports are identical for every count
        cores = os.cpu_count() or 1
        args.workers = min(args.workers, cores) if args.workers > 0 else cores


def _read_g6_arg(value: str) -> Graph:
    if value == "-":
        data = sys.stdin.read().split()
        if not data:
            raise _UsageError("no g6 string on stdin")
        value = data[0]
    return g6_decode(value)


def _parse_indices(text: str) -> list[int]:
    try:
        indices = [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise _UsageError(f"bad vertex list {text!r}")
    if len(set(indices)) < len(indices):
        raise _UsageError(f"repeated vertex in {text!r}")
    return indices


_PATTERN_RE = re.compile(r"^(fs:s|qt:t)=(\d+)$")


def _parse_fsqt(text: str):
    m = _PATTERN_RE.match(text)
    if m is None:
        return None
    return m.group(1)[:2], int(m.group(2))


def _normalize_constraint(text: str) -> str:
    return re.sub(r"^(fs|qt)-(minor|subgraph):", r"\1-\2-free:", text)


def _cmd_construct(args):
    spec = parse_family_spec(args.family)
    g, layout = construct(spec)
    g6 = g6_encode(g).decode("ascii")
    out = {"spec": spec.text(), "n": g.n, "edges": g.edge_count, "g6": g6}
    layout_lines = []
    if args.layout:
        out["layout"] = layout.as_dict()
        layout_lines.append(json.dumps(out["layout"]))
    return EXIT_OK, {
        "g6": [g6, *layout_lines],
        "json": [json.dumps(out)],
        "text": [f"{spec.text()}: n={g.n} edges={g.edge_count} g6={g6}", *layout_lines],
    }


def _cmd_rho(args):
    spec = None
    if args.family is not None:
        spec = parse_family_spec(args.family)
        g, _ = construct(spec)
    elif args.g6 is not None:
        g = g6_decode(args.g6)
    else:
        g = _read_g6_arg("-")
    if args.closed_form and spec is None:
        raise _UsageError("--closed-form needs --family")
    result = spectral_radius(g, tol=args.tolerance, max_iter=args.max_iter)
    out = result.as_dict()
    line = f"rho = {result.rho!r} (iterations={result.iterations}, residual={result.residual:.3e})"
    code = EXIT_OK
    if args.closed_form:
        analytic = rho_closed_form(spec)
        out["closed_form"] = analytic
        out["delta"] = result.rho - analytic
        out["within_tolerance"] = abs(out["delta"]) <= CLOSED_FORM_TOLERANCE
        line += f" closed_form={analytic!r} delta={out['delta']:.3e}"
        if not out["within_tolerance"]:
            code = EXIT_CLAIM
    return code, {"json": [json.dumps(out)], "text": [line]}


def _cmd_minor(args):
    host = _read_g6_arg(args.host)
    fsqt = _parse_fsqt(args.pattern)
    if fsqt is not None:
        family, param = fsqt
        run = has_fs_minor if family == "fs" else has_qt_minor
        answer = run(host, param, node_budget=args.budget)
    else:
        pattern = g6_decode(args.pattern)
        answer = find_minor_model(host, pattern, node_budget=args.budget)
    code = EXIT_EXHAUSTED if answer.status == EXHAUSTED else EXIT_OK
    return code, {
        "json": [json.dumps(answer.as_dict())],
        "text": [f"status={answer.status} nodes={answer.nodes_used}"],
    }


def _cmd_subgraph(args):
    host = _read_g6_arg(args.host)
    fsqt = _parse_fsqt(args.pattern)
    if fsqt is None:
        raise _UsageError("subgraph pattern must be fs:s=N or qt:t=N")
    family, param = fsqt
    code = EXIT_OK
    if family == "fs":
        w = fs_subgraph_witness(host, param)
        out = {
            "status": "found" if w is not None else "not_found",
            "witness": w.as_dict() if w is not None else None,
        }
    else:
        answer = qt_subgraph_witness(host, param, node_budget=args.budget)
        out = answer.as_dict()
        if answer.status == EXHAUSTED:
            code = EXIT_EXHAUSTED
    return code, {"json": [json.dumps(out)], "text": [f"status={out['status']}"]}


def _common_neighborhood(g: Graph, A: list[int]) -> list[int]:
    mask = (1 << g.n) - 1
    for v in A:
        g.check_vertex(v)
        mask &= g.rows[v]
    for v in A:
        mask &= ~(1 << v)
    return [v for v in range(g.n) if (mask >> v) & 1]


def _cmd_lemmas(args):
    structure = args.check in ("l33", "l53")
    if (args.param if structure else args.B) is not None:
        raise _UsageError(f"{'--param' if structure else '--B'} is not read by {args.check}")
    host = _read_g6_arg(args.host)
    A = _parse_indices(args.A)
    if not A:
        raise _UsageError("--A must name at least one vertex")
    if structure:
        B = _parse_indices(args.B) if args.B is not None else _common_neighborhood(host, A)
        checker = check_structure_fs if args.check == "l33" else check_structure_qt
        report = checker(host, A, B)
        cap = 1 if args.check == "l33" else 2
        holds = (
            report.bipartite_complete
            and report.b_path_free
            and report.d_meets_threshold
            and report.max_outside_b_neighbors <= cap
        )
        return EXIT_OK if holds else EXIT_CLAIM, {
            "json": [json.dumps(report.as_dict())],
            "text": [
                f"mode={report.mode} bipartite_complete={report.bipartite_complete} "
                f"b_path_free={report.b_path_free} |D|={len(report.D)} "
                f"threshold={report.d_threshold:.3f} meets={report.d_meets_threshold}"
            ],
        }
    mode = "fs" if args.check == "l34" else "qt"
    param = args.param if args.param is not None else len(A)
    report = clique_closure_check(host, A, mode, param, node_budget=args.budget)
    if report.closed.status == EXHAUSTED:
        code = EXIT_EXHAUSTED
    else:
        code = EXIT_OK if report.ok else EXIT_CLAIM
    return code, {
        "json": [json.dumps(report.as_dict())],
        "text": [f"base={report.base.status} closed={report.closed.status} ok={report.ok}"],
    }


def _cmd_search(args):
    constraint = _normalize_constraint(args.constraint)
    report = extremal_search(args.n, constraint, node_budget=args.budget, workers=args.workers)
    return EXIT_EXHAUSTED if report.exhausted_count > 0 else EXIT_OK, {
        "json": [report.to_json()],
        "csv": [reports_to_csv([report])],
        "text": [
            f"n={report.n} {report.constraint}: enumerated={report.enumerated} "
            f"feasible={report.feasible} best_rho={report.best_rho!r} "
            f"match={report.match} exhausted={report.exhausted_count}"
        ],
    }


_MODE_RE = re.compile(r"^(fs:s|qt:t|qt-subgraph:t)=(\d+)$")


def _cmd_verify(args):
    m = _MODE_RE.match(args.mode)
    if m is None:
        raise _UsageError("mode must be fs:s=N, qt:t=N, or qt-subgraph:t=N")
    mode = m.group(1).rsplit(":", 1)[0]
    param = int(m.group(2))
    reports = verify_theorem_small_n(
        mode, param, (args.n_from, args.n_to), node_budget=args.budget, workers=args.workers
    )
    code = EXIT_EXHAUSTED if any(r.exhausted_count > 0 for r in reports) else EXIT_OK
    return code, {
        "json": [json.dumps([r.as_dict() for r in reports])],
        "csv": [reports_to_csv(reports)],
        "text": [
            f"n={r.n} match={r.match} best_rho={r.best_rho!r} maximizers={len(r.maximizers)}"
            for r in reports
        ],
    }


def _cmd_audit(args):
    if args.c_constant is not None and not math.isfinite(args.c_constant):
        raise _UsageError("c-constant must be finite")
    specs = [parse_family_spec(text) for text in args.family]
    param = args.param
    if param is None:
        # the first s or t among the specs
        param = next((p for spec in specs for p in (spec.s, spec.t) if p is not None), 1)
    report = edge_bound_audit(specs, param, args.mode, c_constant=args.c_constant)
    ok = all(
        row["matches_expected"]
        and all(
            flag
            for chk in row["checks"].values()
            for key, flag in chk.items()
            if isinstance(flag, bool)
        )
        for row in report["rows"]
    )
    return EXIT_OK if ok else EXIT_CLAIM, {
        "json": [json.dumps(report)],
        "text": [
            f"{row['spec']}: edges={row['edges']} expected={row['expected_edges']} ok={row['matches_expected']}"
            for row in report["rows"]
        ],
    }


def _arg(*names, **options):
    return names, options


@dataclass(frozen=True)
class _Command:
    handler: Callable  # args -> (exit code, {format: lines})
    help: str
    formats: tuple[str, ...]
    flags: tuple[str, ...]  # keys of _SHARED the handler reads
    arguments: tuple  # _arg(...) each, or a list of them of which exactly one is required


_HOST = _arg("--host", required=True, help="host g6 string, or - for stdin")

_COMMANDS = {
    "construct": _Command(_cmd_construct, "build a family member, print g6", ("g6", "json", "text"), (), (
        _arg("family", help="family spec, e.g. friendship:s=2"),
        _arg("--layout", action="store_true", help="also print the region layout as JSON"),
    )),
    "rho": _Command(_cmd_rho, "spectral radius of a graph", ("json", "text"), ("tolerance", "max_iter"), (
        [
            _arg("--g6", help="graph as a g6 string"),
            _arg("--family", help="family spec to construct"),
            _arg("--stdin", action="store_true", help="read one g6 string from stdin"),
        ],
        _arg("--closed-form", action="store_true", help=f"compare against the analytic value (families only); mismatch over {CLOSED_FORM_TOLERANCE:g} exits 2"),
    )),
    "minor": _Command(_cmd_minor, "minor containment with certificate", ("json", "text"), ("budget",), (
        _arg("--pattern", required=True, help="fs:s=N, qt:t=N, or a g6 string"),
        _HOST,
    )),
    "subgraph": _Command(_cmd_subgraph, "direct subgraph witness search", ("json", "text"), ("budget",), (
        _arg("--pattern", required=True, help="fs:s=N or qt:t=N"),
        _HOST,
    )),
    "lemmas": _Command(_cmd_lemmas, "structural lemma checks on a host", ("json", "text"), ("budget",), (
        _arg("--check", required=True, choices=("l33", "l53", "l34", "l54"), help="l33/l53: hub-and-side structure report; l34/l54: clique closure"),
        _HOST,
        _arg("--A", required=True, help="comma-separated hub vertex indices"),
        _arg("--B", default=None, help="l33/l53: comma-separated side vertices (default: common neighborhood of A)"),
        _arg("--param", type=int, default=None, help="l34/l54: s or t (default: |A|)"),
    )),
    "search": _Command(_cmd_search, "exhaustive extremal search at one n", ("json", "csv", "text"), ("budget", "workers"), (
        _arg("--constraint", required=True, help="e.g. fs-minor-free:s=1 (the -free infix may be omitted)"),
        _arg("--n", type=int, required=True),
    )),
    "verify": _Command(_cmd_verify, "per-n searches with predicted-graph sanity checks", ("json", "csv", "text"), ("budget", "workers"), (
        _arg("--mode", required=True, help="fs:s=N, qt:t=N, or qt-subgraph:t=N"),
        _arg("--n-from", type=int, required=True),
        _arg("--n-to", type=int, required=True),
    )),
    "audit": _Command(_cmd_audit, "edge counts of constructions vs closed-form bounds", ("json", "text"), (), (
        _arg("--family", action="append", required=True, help="family spec, repeatable"),
        _arg("--mode", choices=("fs", "qt"), default="fs"),
        _arg("--param", type=int, default=None, help="s or t for the bound checks (default: from the first spec)"),
        _arg("--c-constant", type=float, default=None, help="C for the bipartite C*a + param*n slack check"),
    )),
}


def _build_parser() -> _Parser:
    top = _Parser(prog="speclab", description=__doc__)
    sub = top.add_subparsers(dest="command", metavar="command")
    for name, cmd in _COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        for arg in cmd.arguments:
            if isinstance(arg, list):
                group = p.add_mutually_exclusive_group(required=True)
                for names, options in arg:
                    group.add_argument(*names, **options)
            else:
                p.add_argument(*arg[0], **arg[1])
        for flag in cmd.flags:
            kind, _, _, text = _SHARED[flag]
            p.add_argument("--" + flag.replace("_", "-"), type=kind, default=None, help=text)
        p.add_argument("--format", choices=cmd.formats, default="json", help="output format")
    return top


def run(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command is None:
            raise _UsageError("a subcommand is required")
        _resolve(args)
        code, outputs = _COMMANDS[args.command].handler(args)
    except (ConvergenceFailure, BudgetExhausted) as exc:
        sys.stderr.write(f"speclab: {exc}\n")
        return EXIT_EXHAUSTED
    except VerificationFailed as exc:
        sys.stderr.write(f"speclab: {exc}\n")
        return EXIT_CLAIM
    except (_UsageError, SpeclabError, ValueError) as exc:
        sys.stderr.write(f"speclab: {exc}\n")
        return EXIT_USAGE
    except SystemExit as exc:  # argparse --help
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    for line in outputs[args.format]:
        sys.stdout.write(line if line.endswith("\n") else f"{line}\n")
    return code


def main() -> None:
    sys.exit(run())
