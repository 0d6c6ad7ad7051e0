"""Command-line front end.

Subcommands cover construction, spectral radius, minor and subgraph
testing, structural lemma checks, exhaustive search, multi-n
verification, and edge-count audits.  Exit codes are part of the
contract: 0 success, 1 usage error, 2 a checked claim failed, 3 a
search hit its resource budget.  Scripted runs need no output parsing.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass

from .errors import (
    BudgetExhausted,
    ConvergenceFailure,
    InvalidSpec,
    MalformedGraph6,
    PreconditionFailed,
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
from .spectral import rho_closed_form, spectral_radius

CLOSED_FORM_TOLERANCE = 1e-9

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CLAIM = 2
EXIT_EXHAUSTED = 3


@dataclass(frozen=True)
class CliConfig:
    tolerance: float = 1e-10
    max_iter: int = 100_000
    node_budget: int = DEFAULT_NODE_BUDGET
    workers: int = 0  # 0 = machine parallelism
    output_format: str = "json"

    def resolved_workers(self) -> int:
        return self.workers if self.workers > 0 else (os.cpu_count() or 1)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract reserves 2 for failed
    # claims, so route usage problems through our own exception
    def error(self, message):
        raise _UsageError(message)


def _env_float(name, fallback):
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return float(raw)
    except ValueError:
        raise _UsageError(f"{name} is not a number: {raw!r}")


def _env_int(name, fallback):
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise _UsageError(f"{name} is not an integer: {raw!r}")


def _config_from(args) -> CliConfig:
    # precedence: flag > environment > default
    tolerance = args.tolerance
    if tolerance is None:
        tolerance = _env_float("SPECLAB_TOLERANCE", 1e-10)
    budget = args.budget
    if budget is None:
        budget = _env_int("SPECLAB_BUDGET", DEFAULT_NODE_BUDGET)
    workers = args.workers
    if workers is None:
        workers = _env_int("SPECLAB_WORKERS", 0)
    max_iter = args.max_iter if args.max_iter is not None else 100_000
    if tolerance <= 0:
        raise _UsageError("tolerance must be > 0")
    if budget < 1:
        raise _UsageError("node budget must be >= 1")
    if workers < 0:
        raise _UsageError("workers must be >= 0")
    return CliConfig(
        tolerance=tolerance,
        max_iter=max_iter,
        node_budget=budget,
        workers=workers,
        output_format=args.format,
    )


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tolerance", type=float, default=None, help="power iteration residual tolerance (default 1e-10, env SPECLAB_TOLERANCE)")
    p.add_argument("--max-iter", type=int, default=None, help="power iteration cap (default 100000)")
    p.add_argument("--budget", type=int, default=None, help="search node budget (default 10^7, env SPECLAB_BUDGET)")
    p.add_argument("--workers", type=int, default=None, help="worker processes for search, 0 = all cores (env SPECLAB_WORKERS)")
    p.add_argument("--format", choices=("json", "csv", "g6", "text"), default="json", help="output format where the subcommand supports it")


def _build_parser() -> _Parser:
    top = _Parser(prog="speclab", description=__doc__)
    sub = top.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("construct", help="build a family member, print g6")
    p.add_argument("family", help="family spec, e.g. friendship:s=2")
    p.add_argument("--layout", action="store_true", help="also print the region layout as JSON")
    _common_flags(p)

    p = sub.add_parser("rho", help="spectral radius of a graph")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--g6", help="graph as a g6 string")
    src.add_argument("--family", help="family spec to construct")
    src.add_argument("--stdin", action="store_true", help="read one g6 string from stdin")
    p.add_argument("--closed-form", action="store_true", help="compare against the analytic value (families only); mismatch over 1e-9 exits 2")
    _common_flags(p)

    p = sub.add_parser("minor", help="minor containment with certificate")
    p.add_argument("--pattern", required=True, help="fs:s=N, qt:t=N, or a g6 string")
    p.add_argument("--host", required=True, help="host g6 string, or - for stdin")
    _common_flags(p)

    p = sub.add_parser("subgraph", help="direct subgraph witness search")
    p.add_argument("--pattern", required=True, help="fs:s=N or qt:t=N")
    p.add_argument("--host", required=True, help="host g6 string, or - for stdin")
    _common_flags(p)

    p = sub.add_parser("lemmas", help="structural lemma checks on a host")
    p.add_argument("--check", required=True, choices=("l33", "l53", "l34", "l54"), help="l33/l53: hub-and-side structure report; l34/l54: clique closure")
    p.add_argument("--host", required=True, help="host g6 string, or - for stdin")
    p.add_argument("--A", required=True, help="comma-separated hub vertex indices")
    p.add_argument("--B", default=None, help="comma-separated side vertices (default: common neighborhood of A)")
    p.add_argument("--param", type=int, default=None, help="s or t for closure checks (default: |A|)")
    _common_flags(p)

    p = sub.add_parser("search", help="exhaustive extremal search at one n")
    p.add_argument("--constraint", required=True, help="e.g. fs-minor-free:s=1 (the -free infix may be omitted)")
    p.add_argument("--n", type=int, required=True)
    _common_flags(p)

    p = sub.add_parser("verify", help="per-n searches with predicted-graph sanity checks")
    p.add_argument("--mode", required=True, help="fs:s=N, qt:t=N, or qt-subgraph:t=N")
    p.add_argument("--n-from", type=int, required=True)
    p.add_argument("--n-to", type=int, required=True)
    _common_flags(p)

    p = sub.add_parser("audit", help="edge counts of constructions vs closed-form bounds")
    p.add_argument("--family", action="append", required=True, help="family spec, repeatable")
    p.add_argument("--mode", choices=("fs", "qt"), default="fs")
    p.add_argument("--param", type=int, default=None, help="s or t for the bound checks (default: from the first spec)")
    p.add_argument("--c-constant", type=float, default=None, help="C for the bipartite C*a + param*n slack check")
    _common_flags(p)

    return top


def _read_g6_arg(value: str) -> Graph:
    if value == "-":
        data = sys.stdin.read().split()
        if not data:
            raise _UsageError("no g6 string on stdin")
        value = data[0]
    return g6_decode(value)


def _parse_indices(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise _UsageError(f"bad vertex list {text!r}")


_PATTERN_RE = re.compile(r"^(fs:s|qt:t)=(\d+)$")


def _parse_fsqt(text: str):
    m = _PATTERN_RE.match(text)
    if m is None:
        return None
    return m.group(1)[:2], int(m.group(2))


def _normalize_constraint(text: str) -> str:
    return re.sub(r"^(fs|qt)-(minor|subgraph):", r"\1-\2-free:", text)


def _emit(payload: str) -> None:
    sys.stdout.write(payload)
    if not payload.endswith("\n"):
        sys.stdout.write("\n")


def _cmd_construct(args, config) -> int:
    spec = parse_family_spec(args.family)
    g, layout = construct(spec)
    g6 = g6_encode(g).decode("ascii")
    layout_dict = {name: sorted(vs) for name, vs in layout.regions.items()}
    if config.output_format == "g6":
        _emit(g6)
        if args.layout:
            _emit(json.dumps(layout_dict))
    elif config.output_format == "json":
        out = {"spec": spec.text(), "n": g.n, "edges": g.edge_count, "g6": g6}
        if args.layout:
            out["layout"] = layout_dict
        _emit(json.dumps(out))
    elif config.output_format == "text":
        _emit(f"{spec.text()}: n={g.n} edges={g.edge_count} g6={g6}")
        if args.layout:
            _emit(json.dumps(layout_dict))
    else:
        raise _UsageError("construct supports g6, json, or text output")
    return EXIT_OK


def _cmd_rho(args, config) -> int:
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
    result = spectral_radius(g, tol=config.tolerance, max_iter=config.max_iter)
    out = result.as_dict()
    code = EXIT_OK
    if args.closed_form:
        analytic = rho_closed_form(spec)
        out["closed_form"] = analytic
        out["delta"] = result.rho - analytic
        out["within_tolerance"] = abs(out["delta"]) <= CLOSED_FORM_TOLERANCE
        if not out["within_tolerance"]:
            code = EXIT_CLAIM
    if config.output_format == "json":
        _emit(json.dumps(out))
    elif config.output_format == "text":
        line = f"rho = {result.rho!r} (iterations={result.iterations}, residual={result.residual:.3e})"
        if args.closed_form:
            line += f" closed_form={out['closed_form']!r} delta={out['delta']:.3e}"
        _emit(line)
    else:
        raise _UsageError("rho supports json or text output")
    return code


def _cmd_minor(args, config) -> int:
    host = _read_g6_arg(args.host)
    fsqt = _parse_fsqt(args.pattern)
    if fsqt is not None:
        family, param = fsqt
        run = has_fs_minor if family == "fs" else has_qt_minor
        answer = run(host, param, node_budget=config.node_budget)
    else:
        pattern = g6_decode(args.pattern)
        answer = find_minor_model(host, pattern, node_budget=config.node_budget)
    if config.output_format == "json":
        _emit(json.dumps(answer.as_dict()))
    elif config.output_format == "text":
        _emit(f"status={answer.status} nodes={answer.nodes_used}")
    else:
        raise _UsageError("minor supports json or text output")
    return EXIT_EXHAUSTED if answer.status == EXHAUSTED else EXIT_OK


def _cmd_subgraph(args, config) -> int:
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
        status_line = out["status"]
    else:
        answer = qt_subgraph_witness(host, param, node_budget=config.node_budget)
        out = answer.as_dict()
        status_line = answer.status
        if answer.status == EXHAUSTED:
            code = EXIT_EXHAUSTED
    if config.output_format == "json":
        _emit(json.dumps(out))
    elif config.output_format == "text":
        _emit(f"status={status_line}")
    else:
        raise _UsageError("subgraph supports json or text output")
    return code


def _common_neighborhood(g: Graph, A: list[int]) -> list[int]:
    mask = (1 << g.n) - 1
    for v in A:
        g.check_vertex(v)
        mask &= g.rows[v]
    for v in A:
        mask &= ~(1 << v)
    return [v for v in range(g.n) if (mask >> v) & 1]


def _cmd_lemmas(args, config) -> int:
    host = _read_g6_arg(args.host)
    A = _parse_indices(args.A)
    if not A:
        raise _UsageError("--A must name at least one vertex")
    if args.check in ("l33", "l53"):
        B = _parse_indices(args.B) if args.B is not None else _common_neighborhood(host, A)
        checker = check_structure_fs if args.check == "l33" else check_structure_qt
        report = checker(host, A, B)
        if config.output_format == "json":
            _emit(json.dumps(report.as_dict()))
        elif config.output_format == "text":
            _emit(
                f"mode={report.mode} bipartite_complete={report.bipartite_complete} "
                f"b_path_free={report.b_path_free} |D|={len(report.D)} "
                f"threshold={report.d_threshold:.3f} meets={report.d_meets_threshold}"
            )
        else:
            raise _UsageError("lemmas supports json or text output")
        cap = 1 if args.check == "l33" else 2
        holds = (
            report.bipartite_complete
            and report.b_path_free
            and report.d_meets_threshold
            and report.max_outside_b_neighbors <= cap
        )
        return EXIT_OK if holds else EXIT_CLAIM
    mode = "fs" if args.check == "l34" else "qt"
    param = args.param if args.param is not None else len(A)
    try:
        report = clique_closure_check(host, A, mode, param, node_budget=config.node_budget)
    except PreconditionFailed as exc:
        sys.stderr.write(f"speclab: {exc}\n")
        return EXIT_EXHAUSTED if isinstance(exc, BudgetExhausted) else EXIT_USAGE
    if config.output_format == "json":
        _emit(json.dumps(report.as_dict()))
    elif config.output_format == "text":
        _emit(f"base={report.base.status} closed={report.closed.status} ok={report.ok}")
    else:
        raise _UsageError("lemmas supports json or text output")
    if report.closed.status == EXHAUSTED:
        return EXIT_EXHAUSTED
    return EXIT_OK if report.ok else EXIT_CLAIM


def _cmd_search(args, config) -> int:
    constraint = _normalize_constraint(args.constraint)
    report = extremal_search(
        args.n,
        constraint,
        node_budget=config.node_budget,
        workers=config.resolved_workers(),
    )
    if config.output_format == "json":
        _emit(report.to_json())
    elif config.output_format == "csv":
        _emit(reports_to_csv([report]))
    elif config.output_format == "text":
        _emit(
            f"n={report.n} {report.constraint}: enumerated={report.enumerated} "
            f"feasible={report.feasible} best_rho={report.best_rho!r} "
            f"match={report.match} exhausted={report.exhausted_count}"
        )
    else:
        raise _UsageError("search supports json, csv, or text output")
    return EXIT_EXHAUSTED if report.exhausted_count > 0 else EXIT_OK


_MODE_RE = re.compile(r"^(fs:s|qt:t|qt-subgraph:t)=(\d+)$")


def _cmd_verify(args, config) -> int:
    m = _MODE_RE.match(args.mode)
    if m is None:
        raise _UsageError("mode must be fs:s=N, qt:t=N, or qt-subgraph:t=N")
    mode = m.group(1).rsplit(":", 1)[0]
    param = int(m.group(2))
    try:
        reports = verify_theorem_small_n(
            mode,
            param,
            (args.n_from, args.n_to),
            node_budget=config.node_budget,
            workers=config.resolved_workers(),
        )
    except VerificationFailed as exc:
        sys.stderr.write(f"speclab: {exc}\n")
        return EXIT_CLAIM
    if config.output_format == "json":
        _emit(json.dumps([r.as_dict() for r in reports]))
    elif config.output_format == "csv":
        _emit(reports_to_csv(reports))
    elif config.output_format == "text":
        for r in reports:
            _emit(f"n={r.n} match={r.match} best_rho={r.best_rho!r} maximizers={len(r.maximizers)}")
    else:
        raise _UsageError("verify supports json, csv, or text output")
    if any(r.exhausted_count > 0 for r in reports):
        return EXIT_EXHAUSTED
    return EXIT_OK


def _cmd_audit(args, config) -> int:
    specs = [parse_family_spec(text) for text in args.family]
    param = args.param
    if param is None:
        for spec in specs:
            if spec.s is not None:
                param = spec.s
                break
            if spec.t is not None:
                param = spec.t
                break
        else:
            param = 1
    report = edge_bound_audit(specs, param, args.mode, c_constant=args.c_constant)
    if config.output_format == "json":
        _emit(json.dumps(report))
    elif config.output_format == "text":
        for row in report["rows"]:
            _emit(f"{row['spec']}: edges={row['edges']} expected={row['expected_edges']} ok={row['matches_expected']}")
    else:
        raise _UsageError("audit supports json or text output")
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
    return EXIT_OK if ok else EXIT_CLAIM


_HANDLERS = {
    "construct": _cmd_construct,
    "rho": _cmd_rho,
    "minor": _cmd_minor,
    "subgraph": _cmd_subgraph,
    "lemmas": _cmd_lemmas,
    "search": _cmd_search,
    "verify": _cmd_verify,
    "audit": _cmd_audit,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a subcommand is required")
        config = _config_from(args)
        return _HANDLERS[args.command](args, config)
    except _UsageError as exc:
        sys.stderr.write(f"speclab: {exc}\n")
        return EXIT_USAGE
    except ConvergenceFailure as exc:
        sys.stderr.write(f"speclab: {exc}\n")
        return EXIT_EXHAUSTED
    except (InvalidSpec, MalformedGraph6) as exc:
        sys.stderr.write(f"speclab: {exc}\n")
        return EXIT_USAGE
    except (SpeclabError, ValueError) as exc:
        sys.stderr.write(f"speclab: {exc}\n")
        return EXIT_USAGE
    except SystemExit as exc:  # argparse --help
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE


def main() -> None:
    sys.exit(run())
