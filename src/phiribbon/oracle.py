"""Brute-force evaluators used to certify values from the main code paths.

These share no code with the search or spectral implementations: entropies
are re-derived from their definitions and minima come from exhaustive grids,
so an agreement between the two is meaningful evidence.

``brute_min_objective`` minimizes the gap ``H_Phi(f) - sum_i lambda_i
H_Phi(E[f|X_i])`` over every f in ``pts^n``: r grid points on each of the n
support atoms.  With ``E E[f|X_i] = E f`` the gap is

    G(f) = E Phi(f) - (1 - sum_i lambda_i) Phi(E f)
           - sum_i lambda_i E Phi(E[f|X_i]),

and each term depends on few coordinates of f: ``E Phi(f)`` and ``E f`` are
sums of per-atom vectors, and ``E[f|X_i = s]`` depends only on the c atoms
of its cell ``x_i = s``.  So Phi is evaluated r times on the grid points,
r^c times for each cell of each coordinate with lambda_i > 0, and r^n times
for ``Phi(E f)``, the only term over the whole grid.  The grid is walked in
``itertools.product`` order, in blocks over its leading axes, and ties
resolve to the first grid row that attains the computed minimum.
``brute_maximal_correlation`` walks its grid in the same order, in blocks of
rows decoded from the row index by ``np.unravel_index``.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .dist import JointDist, JointFunction
from .errors import BadLambda, BadParameter, GridTooLarge, NotBipartite
from .phi import PhiSpec

_CAP = 10_000_000


@dataclass(frozen=True)
class GridSpec:
    resolution: int

    def __post_init__(self):
        res = self.resolution
        # bool is an Integral too; floats, NaN and strings are not
        if not isinstance(res, numbers.Integral) or isinstance(res, bool):
            raise BadParameter(f"resolution must be an integer, got {res!r}")
        if not 3 <= res <= _CAP:
            raise BadParameter(f"resolution must be in [3, {_CAP}], got {res}")

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


def _outer_sum(rows: np.ndarray, atoms, digits: tuple, span: slice, width: int):
    """Sum of ``rows[j]``, the row of atom ``atoms[j]``, over one grid block.

    The block fixes the grid digits of the first ``len(digits)`` atoms, takes
    the digits ``span`` of the next atom and every digit of the ones after
    it, one block axis each (``width`` axes).  Terms are added from the last
    atom to the first, so each step adds one row along its axis to a sum
    contiguous over the later axes, and every grid row gets the same
    rounding whichever block it falls in.
    """
    total = 0.0
    for row, a in reversed(list(zip(rows, atoms))):
        k = a - len(digits)
        if k < 0:
            total = row[digits[a]] + total
        else:
            axis = [1] * width
            axis[k] = -1
            total = (row[span] if k == 0 else row).reshape(axis) + total
    return total


def brute_min_objective(
    d: JointDist, phi: PhiSpec, lam, grid: GridSpec
) -> tuple[float, JointFunction]:
    """Exhaustive minimum of the ribbon objective over f values gridded on
    Phi's domain, both ends included (``[0, T]`` for ``xlogx:0,T``, whose
    formula takes ``0 log 0 := 0``).
    """
    lam = np.asarray(lam, dtype=float)
    # NaN fails both comparisons, so it is rejected along with inf
    if lam.shape != (d.k,) or not np.all((lam >= 0) & (lam <= 1)):
        raise BadLambda(f"lambda must have {d.k} entries in [0, 1]")
    pts = grid.points(*phi.domain)
    sup = np.flatnonzero(d.support_mask.ravel())
    p = d.probs.ravel()[sup]
    n, r = len(sup), len(pts)
    if r**n > _CAP:
        raise GridTooLarge(f"{r}^{n} = {r**n} grid points exceeds cap {_CAP}")
    # a block of at most `cap` rows fixes the digits of the first `fixed`
    # atoms, takes q digits of the next and all r^t digits of the last t
    cap = _CAP // (50 * n)
    t = n - 1
    while t > 0 and r**t > cap:
        t -= 1
    q = max(1, min(r, cap // r**t))
    fixed = n - 1 - t
    atom_phi = p[:, None] * phi.safe_eval(pts)  # p_a Phi(f_a), one row per atom
    atom_f = p[:, None] * pts  # p_a f_a
    # E[f|X_i = s] mixes the atoms with x_i = s, weights p_a / p_i(s); each
    # cell joins the terms of its last atom, so a term spans few grid axes
    symbols = np.unravel_index(sup, d.alphabet_sizes)
    cells = [[] for _ in range(n)]
    for i in np.flatnonzero(lam):
        pi = d.marginal_vector(i)
        for s in np.flatnonzero(pi > 0):
            atoms = np.flatnonzero(symbols[i] == s)
            w = (p[atoms] / pi[s])[:, None] * pts
            cells[atoms[-1]].append((lam[i] * pi[s], atoms, w))
    rest = 1.0 - lam.sum()
    best, best_j = math.inf, 0
    for prefix, lo in itertools.product(range(r**fixed), range(0, r, q)):
        block = (np.unravel_index(prefix, (r,) * fixed), slice(lo, lo + q), t + 1)
        # G starts as -(1 - sum_i lambda_i) Phi(E f), the one array Phi is
        # evaluated on over the whole block, and takes the other terms in
        # place: fresh pages cost more than the arithmetic
        G = phi.safe_eval(_outer_sum(atom_f, range(n), *block))
        G *= -rest
        for a in range(n):
            term = _outer_sum(atom_phi[a : a + 1], [a], *block)  # p_a Phi(f_a)
            for coef, atoms, w in cells[a]:
                term = term - coef * phi.safe_eval(_outer_sum(w, atoms, *block))
            G += term
        j = int(np.argmin(G))
        if G.flat[j] < best:
            best, best_j = float(G.flat[j]), (prefix * r + lo) * r**t + j
    vals = np.zeros(math.prod(d.alphabet_sizes))
    vals[sup] = pts[np.array(np.unravel_index(best_j, (r,) * n))]
    return best, JointFunction(vals.reshape(d.alphabet_sizes))


def brute_maximal_correlation(d: JointDist, grid: GridSpec) -> float:
    """Definition-level lower bound on maximal correlation.

    Grids the function g on the Y support; for each g the optimal partner
    is f = E[g|X] (the correlation-maximizing choice), evaluated exactly.
    g is gridded on [-1, 1]: correlation is invariant under affine maps of
    g, and any other interval's grid, midpoint included, is an affine image
    of this one, so no other interval changes the answer.
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
