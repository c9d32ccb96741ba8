"""Brute-force evaluators used to certify values from the main code paths.

These share no code with the search or spectral implementations: entropies
are re-derived from their definitions and minima come from exhaustive grids,
so an agreement between the two is meaningful evidence.  A grid ``pts^n`` is
walked in ``itertools.product`` order, in blocks of rows decoded from the
row index by ``np.unravel_index``, so ties resolve to the first grid row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import JointDist, JointFunction
from .errors import BadLambda, BadParameter, GridTooLarge, NotBipartite
from .phi import PhiSpec

_CAP = 10_000_000


@dataclass(frozen=True)
class GridSpec:
    resolution: int
    domain: tuple[float, float] | None = None  # default: phi.domain

    def __post_init__(self):
        if self.resolution < 3:
            raise BadParameter("resolution must be >= 3")

    def points(self, lo: float, hi: float) -> np.ndarray:
        """Uniform grid containing both endpoints and the exact midpoint."""
        pts = np.linspace(lo, hi, self.resolution)
        mid = 0.5 * (lo + hi)
        if not np.any(pts == mid):
            pts = np.sort(np.append(pts, mid))
        return pts


def _grid_blocks(pts: np.ndarray, n: int):
    """Every row of ``pts^n`` in lexicographic order, a block of rows at a time."""
    r = len(pts)
    total = r**n
    if total > _CAP:
        raise GridTooLarge(f"{r}^{n} = {total} grid points exceeds cap {_CAP}")
    chunk = max(1, _CAP // (50 * max(n, 1)))
    for start in range(0, total, chunk):
        # C order puts the last column's digit fastest, as itertools.product does
        idx = np.arange(start, min(start + chunk, total))
        yield pts[np.stack(np.unravel_index(idx, (r,) * n), axis=1)]


def _objective_batch(
    probs_flat: np.ndarray,
    cond_tables: list[np.ndarray],
    marg: list[np.ndarray],
    phi: PhiSpec,
    lam: np.ndarray,
    F: np.ndarray,
) -> np.ndarray:
    """G(f) = H_phi(f) - sum_i lam_i H_phi(E[f|X_i]) for a batch of f rows."""
    pf = phi.safe_eval(F)
    mean = F @ probs_flat
    G = pf @ probs_flat - phi.safe_eval(mean)
    for i, (table, p) in enumerate(zip(cond_tables, marg)):
        if lam[i] == 0:
            continue
        gi = F @ table  # E[f | X_i = s], columns over s in support
        G -= lam[i] * (phi.safe_eval(gi) @ p - phi.safe_eval(gi @ p))
    return G


def _tables(d: JointDist):
    """Flat support probabilities plus per-coordinate conditional tables."""
    sup = np.flatnonzero(d.support_mask.ravel())
    p = d.probs.ravel()[sup]
    cond_tables = []
    marg = []
    for i in range(d.k):
        pi = d.marginal_vector(i)
        sup_i = np.flatnonzero(pi > 0)
        symbols = np.unravel_index(sup, d.alphabet_sizes)[i]
        table = np.zeros((len(sup), len(sup_i)))
        for col, s in enumerate(sup_i):
            sel = symbols == s
            table[sel, col] = p[sel] / pi[s]
        cond_tables.append(table)
        marg.append(pi[sup_i])
    return sup, p, cond_tables, marg


def brute_min_objective(
    d: JointDist, phi: PhiSpec, lam, grid: GridSpec
) -> tuple[float, JointFunction]:
    """Exhaustive minimum of the ribbon objective over gridded f values."""
    lam = np.asarray(lam, dtype=float)
    # NaN fails both comparisons, so it is rejected along with inf
    if lam.shape != (d.k,) or not np.all((lam >= 0) & (lam <= 1)):
        raise BadLambda(f"lambda must have {d.k} entries in [0, 1]")
    sup, p, cond_tables, marg = _tables(d)
    n = len(sup)
    lo, hi = grid.domain or phi.domain
    best = math.inf
    best_row = None
    for F in _grid_blocks(grid.points(lo, hi), n):
        G = _objective_batch(p, cond_tables, marg, phi, lam, F)
        j = int(np.argmin(G))
        if G[j] < best:
            best = float(G[j])
            best_row = F[j]
    vals = np.zeros(math.prod(d.alphabet_sizes))
    vals[sup] = best_row
    return best, JointFunction(vals.reshape(d.alphabet_sizes))


def brute_maximal_correlation(d: JointDist, grid: GridSpec) -> float:
    """Definition-level lower bound on maximal correlation.

    Grids the function g on the Y support; for each g the optimal partner
    is f = E[g|X] (the correlation-maximizing choice), evaluated exactly.
    """
    if d.k != 2:
        raise NotBipartite("brute_maximal_correlation needs k = 2")
    px = d.marginal_vector(0)
    py = d.marginal_vector(1)
    sx = np.flatnonzero(px > 0)
    sy = np.flatnonzero(py > 0)
    P = d.probs[np.ix_(sx, sy)]
    pxs, pys = px[sx], py[sy]
    best = 0.0
    for Gv in _grid_blocks(grid.points(-1.0, 1.0), len(sy)):  # batch x |Y| values of g
        mg = Gv @ pys
        g0 = Gv - mg[:, None]
        var_g = (g0 * g0) @ pys
        # f = E[g|X]: correlation(f, g) = sqrt(Var[E[g|X]] / Var[g])
        Ef = (g0 @ P.T) / pxs  # batch x |X|
        var_f = (Ef * Ef) @ pxs
        ok = var_g > 1e-14
        with np.errstate(invalid="ignore", divide="ignore"):
            corr = np.sqrt(np.where(ok, var_f / np.where(ok, var_g, 1.0), 0.0))
        m = float(np.max(corr))
        if m > best:
            best = m
    return min(best, 1.0)
