"""Spectral radius via power iteration, closed forms, and the Perron entry bound.

spectral_radius() runs power iteration on A+I separately per connected
component (the shift keeps bipartite components from oscillating) and
reports the component with the largest radius.  The iterate is kept
max-normalized, so the returned Perron vector has largest entry exactly
1.0 and is supported on the winning component only.  Convergence is the
sup-norm residual |Ax - rho x| <= tol measured on that same vector.

screen_radii() is the search's screen: the largest eigenvalue of many
small graphs at once, from one numpy.linalg.eigvalsh on a stack of
adjacency matrices unpacked from the bit rows.  The search ranks every
feasible graph by it and runs power iteration only near the top.

rho_closed_form() gives exact or equitable-quotient values for the
families that have them; the join families reduce to a 2x2 or 3x3
quotient matrix whose largest eigenvalue is the radius.

numpy is imported inside the functions that use it, so importing this
module (and with it speclab.search and the CLI) does not load numpy,
which minor queries never need: on a 2-core x86-64 host (numpy 2.4,
OpenBLAS 0.3.31) the import adds about 14 MB and 0.07-0.10 s.  With
OpenBLAS's default pool there, a second thread also burns about 0.1 s of
CPU during the import and the half second after it.

The searches load numpy through load_numpy(), which pins OpenBLAS to one
thread for that first import unless the caller set OPENBLAS_NUM_THREADS,
and removes the variable again.  OpenBLAS sizes its pool once, when it
is loaded, so the pin holds for the rest of that process.  A parallel
search forks its workers before numpy is loaded, so each worker that
screens makes its own first import, through load_numpy too.  Search matrices have at most CANONICAL_MAX_VERTICES
rows, too small for OpenBLAS to thread, so a pool thread would only spin
beside the single-threaded search.  Every other first import, such as
the rho command's on a large family, keeps the default pool, which
speeds up power iteration on thousands of vertices.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import (
    ConvergenceFailure,
    Disconnected,
    EmptyGraph,
    UnsupportedFamily,
)
from .families import FamilySpec
from .graph import Graph, component_masks, is_connected, iter_bits
from .record import Record

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class SpectralResult(Record):
    rho: float
    vector: tuple[float, ...]
    residual: float
    iterations: int


@dataclass(frozen=True)
class PerronReport(Record):
    rho: float
    bound: float
    min_entry: float
    min_vertex: int
    slack: float
    ok: bool


def load_numpy() -> None:
    """Import numpy for a search.  When numpy is not loaded yet and
    OPENBLAS_NUM_THREADS is unset, the variable is set to 1 for the
    import, so OpenBLAS starts no pool thread, and removed after it."""
    if "numpy" in sys.modules or "OPENBLAS_NUM_THREADS" in os.environ:
        import numpy  # noqa: F401
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


def adjacency_stack(row_sets: list[tuple[int, ...]], n: int) -> np.ndarray:
    """The 0/1 adjacency matrices, as floats, of graphs on n vertices given
    by their rows: entry (k, u, v) is bit v of row u of graph k."""
    import numpy as np

    width = (n + 7) // 8
    raw = b"".join(row.to_bytes(width, "little") for rows in row_sets for row in rows)
    bits = np.frombuffer(raw, dtype=np.uint8).reshape(len(row_sets), n, width)
    return np.unpackbits(bits, axis=2, count=n, bitorder="little").astype(float)


def adjacency_matrix(g: Graph) -> np.ndarray:
    """The 0/1 adjacency matrix as floats: entry (u, v) is bit v of row u."""
    return adjacency_stack([g.rows], g.n)[0]


def screen_radii(row_sets: list[tuple[int, ...]], n: int) -> np.ndarray:
    """Largest adjacency eigenvalue of each graph, given by its rows, on
    n vertices: one stacked eigvalsh."""
    import numpy as np

    return np.linalg.eigvalsh(adjacency_stack(row_sets, n))[:, -1]


def _component_power(sub: np.ndarray, tol: float, max_iter: int):
    """Power iteration on one component; iterate kept max-normalized."""
    import numpy as np

    m = sub.shape[0]
    x = np.ones(m)
    res = math.inf
    for it in range(1, max_iter + 1):
        y = sub @ x
        rho = float(x @ y) / float(x @ x)
        res = float(np.max(np.abs(y - rho * x)))
        if res <= tol:
            return rho, x, res, it
        z = y + x
        x = z / z.max()
    raise ConvergenceFailure(
        f"power iteration stalled at residual {res:.3e} after {max_iter} iterations",
        residual=res,
        iterations=max_iter,
    )


def spectral_radius(g: Graph, tol: float = 1e-10, max_iter: int = 100000) -> SpectralResult:
    """Largest adjacency eigenvalue with its Perron vector.

    On a disconnected graph the winning component is the one with the
    largest radius (first such component on ties); vector entries off
    that component are zero.
    """
    if g.n == 0:
        raise EmptyGraph("spectral radius of the empty graph is undefined")
    if not 0 < tol < float("inf"):
        raise ValueError("tol must be positive and finite")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    import numpy as np

    a = adjacency_matrix(g)
    best = None
    for mask in component_masks(g.rows, (1 << g.n) - 1):
        idx = list(iter_bits(mask))
        sub = a[np.ix_(idx, idx)]
        rho, x, res, it = _component_power(sub, tol, max_iter)
        if best is None or rho > best[0] + 1e-15:
            best = (rho, idx, x, res, it)
    rho, idx, x, res, it = best
    vector = [0.0] * g.n
    for pos, v in enumerate(idx):
        vector[v] = float(x[pos])
    return SpectralResult(rho=rho, vector=tuple(vector), residual=res, iterations=it)


def _quotient_rho(blocks: list[list[float]]) -> float:
    import numpy as np

    vals = np.linalg.eigvals(np.array(blocks))
    return float(np.max(vals.real))


# how far a computed radius may sit from rho_closed_form before the two
# are said to disagree
CLOSED_FORM_TOLERANCE = 1e-9


def rho_closed_form(spec: FamilySpec) -> float:
    """Exact spectral radius for the families that have one."""
    k = spec.kind
    if k == "complete":
        if spec.n == 0:
            raise EmptyGraph("no spectral radius at n = 0")
        return float(spec.n - 1)
    if k == "independent":
        if spec.n == 0:
            raise EmptyGraph("no spectral radius at n = 0")
        return 0.0
    if k == "complete-bipartite":
        return math.sqrt(spec.a * spec.b)
    if k == "path":
        if spec.n == 0:
            raise EmptyGraph("no spectral radius at n = 0")
        return 2.0 * math.cos(math.pi / (spec.n + 1))
    if k == "cycle":
        return 2.0
    if k == "matching":
        return 1.0 if spec.t >= 2 else 0.0
    if k == "ks-join-independent":
        # largest root of x^2 - (s-1)x - s(n-s)
        s, n = spec.s, spec.n
        return ((s - 1) + math.sqrt((s - 1) ** 2 + 4 * s * (n - s))) / 2
    if k == "friendship":
        return rho_closed_form(FamilySpec("kt-join-matching", t=1, n=2 * spec.s + 1))
    if k == "kt-join-matching":
        t, n = spec.t, spec.n
        m = n - t
        if m % 2 == 0:
            # blocks: clique, matched vertices
            return _quotient_rho([[t - 1.0, m], [t, 1.0]])
        if m == 1:
            return float(t)  # the join is K_{t+1}
        # blocks: clique, matched vertices, the isolated vertex
        return _quotient_rho([[t - 1.0, m - 1.0, 1.0], [t, 1.0, 0.0], [t, 0.0, 0.0]])
    raise UnsupportedFamily(f"no closed form for {k}")


def verify_perron_bound(g: Graph, slack: float = 1e-8, tol: float = 1e-10) -> PerronReport:
    """Check every Perron entry is at least 1/rho (max entry normalized to 1).

    Connected hosts only.  A single vertex has rho = 0; the bound is
    vacuous there and reported as holding with bound 0.
    """
    if g.n == 0:
        raise EmptyGraph("empty graph")
    if not is_connected(g):
        raise Disconnected("Perron entry bound needs a connected graph")
    result = spectral_radius(g, tol=tol)
    if result.rho <= 0:
        return PerronReport(
            rho=result.rho, bound=0.0, min_entry=1.0, min_vertex=0, slack=slack, ok=True
        )
    bound = 1.0 / result.rho
    min_vertex = min(range(g.n), key=lambda v: result.vector[v])
    min_entry = result.vector[min_vertex]
    return PerronReport(
        rho=result.rho,
        bound=bound,
        min_entry=min_entry,
        min_vertex=min_vertex,
        slack=slack,
        ok=min_entry >= bound - slack,
    )
