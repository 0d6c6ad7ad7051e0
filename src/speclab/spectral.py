"""Spectral radius via power iteration, closed forms, and the Perron entry bound.

spectral_radius() runs power iteration on A+I separately per connected
component (the shift keeps bipartite components from oscillating) and
reports the component with the largest radius.  The iterate is kept
max-normalized, so the returned Perron vector has largest entry exactly
1.0 and is supported on the winning component only.  Convergence is the
sup-norm residual |Ax - rho x| <= tol measured on that same vector.

rho_closed_form() gives exact or equitable-quotient values for the
families that admit them; the join families reduce to a 2x2 or 3x3
quotient matrix whose largest eigenvalue is the radius.

numpy is imported inside the functions that use it, so importing this
module (and with it speclab.search and the CLI) does not load numpy:
that costs about 14 MB and 150 ms, which minor queries never need.
"""

from __future__ import annotations

import math
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

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class SpectralResult:
    rho: float
    vector: tuple[float, ...]
    residual: float
    iterations: int

    def as_dict(self) -> dict:
        return {
            "rho": self.rho,
            "vector": list(self.vector),
            "residual": self.residual,
            "iterations": self.iterations,
        }


@dataclass(frozen=True)
class PerronReport:
    rho: float
    bound: float
    min_entry: float
    min_vertex: int
    slack: float
    ok: bool

    def as_dict(self) -> dict:
        return {
            "rho": self.rho,
            "bound": self.bound,
            "min_entry": self.min_entry,
            "min_vertex": self.min_vertex,
            "slack": self.slack,
            "ok": self.ok,
        }


def adjacency_matrix(g: Graph) -> np.ndarray:
    import numpy as np

    a = np.zeros((g.n, g.n))
    for u in range(g.n):
        for v in iter_bits(g.rows[u]):
            a[u, v] = 1.0
    return a


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
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    import numpy as np

    a = adjacency_matrix(g)
    best = None
    for mask in component_masks(g):
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
