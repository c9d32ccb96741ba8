"""Search-based membership for the general entropy-inequality region.

The defining inequality ``H_phi(f) >= sum_i lambda_i H_phi(E[f|X_i])`` has
no closed form outside the quadratic case, so membership is probed by
minimizing the gap over function values: ranked start rows descend together
in the batched projected-gradient engine ``correlation._pgd``, evaluated by
the row evaluator ``correlation._FlatProblem``.  This module keeps what is
particular to a law: its support atoms, the one-hot cells of each X_i, the
quadratic-case directions, and the map back to a joint function.  The gap is
linear in lambda, so each row carries its own lambda point, and a search
makes one ``_pgd`` call per law, Phi and stack of points.
The quadratic case is the second-order term of every Phi: near a constant
c, ``gap(c + eps u) = Phi''(c)/2 eps^2 u Q u + O(eps^3)``, with ``u Q u`` the
quadratic gap ``Var u - sum_i lambda_i Var E[u|X_i]``.  So where the
quadratic test rejects a point, Q's least eigenvector seeds every Phi.
Semantics are one-sided: a negative gap re-evaluated from scratch is a
proof of non-membership; failure to find one is only evidence.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import correlation
from .correlation import SearchOpts, _ascend, _box, _pgd, _sweep, eta_phi
from .dist import Channel, JointDist, JointFunction, make_joint, marginal
from .errors import ArityMismatch, BadParameter, BadShape, PhiNotClassF, ShapeMismatch
from .phi import PhiSpec, cond_phi_entropies, phi_mutual_information
from .ribbon_mc import PSD_TOL, _check_lambda, _rays

_VIOLATION_TOL = 1e-9  # a certified gap must be below -this to prove a violation, not noise
# a search row whose gap falls below this ends its point's search at once: ten
# times the certification margin, so the first such witness still clears
# -_VIOLATION_TOL when definition_gap re-evaluates it in another summation order
_EXIT_BELOW = -10 * _VIOLATION_TOL
# margins for a witness carried between an alpha pair's sides: they only keep
# rounding out, far under _VIOLATION_TOL, because each transport shrinks the gap
_TO_POWER_TOL = 1e-15  # sym -> power is exact but scales it by (2^alpha - 2) / 2^(alpha+1)
_TO_SYM_TOL = 1e-13  # power -> sym maps f to eps f - 1, shrinking it like eps^alpha
# the least value of a density in the normalized search, which stands in for 0:
# Phi' (-inf at 0 under xlogx) stays finite there for the descent, and 0 itself
# adds nothing; a Phi whose domain starts above it cannot reach 0 at all
_DENSITY_FLOOR = 1e-12

__all__ = [
    "SearchOpts",
    "RibbonVerdict",
    "phi_ribbon_membership",
    "normalized_phi_ribbon_membership",
    "definition_gap",
    "i_phi_channel_test",
    "eta_from_ribbon",
    "ribbon_boundary_trace",
    "alpha_equivalent_membership",
    "lift_witness_to_product",
    "lift_witness_through_channels",
]


@dataclass(frozen=True)
class RibbonVerdict:
    """A search verdict.  For "violated", ``gap`` is the gap of ``witness``
    re-checked through :func:`definition_gap`: the first witness the search
    found below its exit threshold, not the deepest one it could reach.  For
    "holds_up_to_search", ``gap`` is the least gap the search reached, or,
    with ``proven`` True, the exact least gap 0.0 of a point of the simplex
    ``sum(lambda) <= 1``, which every region contains (see ``_search``)."""

    verdict: str  # "holds_up_to_search" | "violated"
    gap: float
    witness: JointFunction | None = None
    proven: bool = False  # membership proven by theorem, no search run

    @property
    def violated(self) -> bool:
        return self.verdict == "violated"


_PROVEN = RibbonVerdict("holds_up_to_search", 0.0, None, proven=True)


def definition_gap(d: JointDist, phi: PhiSpec, lam, f: JointFunction) -> float:
    """Re-evaluate the defining inequality at f through the entropy module.

    Used to certify witnesses independently of the flat evaluator below.  By
    the chain rule ``H(E[f|X_i]) = H(f) - H(f|X_i)`` the gap needs H(f) and
    ``H(f|X_i)`` for each i with lambda_i > 0, all from one
    :func:`phi.cond_phi_entropies` call.
    """
    lam = _check_lambda(lam, d.k)
    coords = np.flatnonzero(lam)
    total, *conds = cond_phi_entropies(d, phi, f, [(), *((i,) for i in coords)])
    g = total
    for i, cond in zip(coords, conds):
        g -= lam[i] * (total - cond)  # chain rule: H(E[f|X_i]) = H(f) - H(f|X_i)
    return g


class _FlatProblem(correlation._FlatProblem):
    """Row-stacked gap evaluation over function values on the support of a
    law, with a lambda point per row: the atoms are the support's, and the
    cells of X_i are its symbols that some atom of the support carries."""

    def __init__(self, d: JointDist, phi: PhiSpec):
        self.d = d
        self.sup = np.flatnonzero(d.support_mask.ravel())
        # each atom's symbol of every X_i, one-hot over the alphabets
        symbols = np.array(np.unravel_index(self.sup, d.alphabet_sizes))
        hits = 1.0 * (symbols[:, :, None] == np.arange(max(d.alphabet_sizes)))
        p = d.probs.ravel()[self.sup]  # each map: each atom's mass in its cell of X_i
        super().__init__(p, [p[:, None] * h.compress(h.any(axis=0), axis=1) for h in hits], phi)

    def directions(self, L: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per row of L, the minimiser of the Phi = t^2 gap ``u Q u`` per unit
        ``Var u``, with ``Q = A diag(w (V0 + lambda V)) A^T``, and that least
        gap e: ``min(0, 1 - lambda_max(S M S))`` in ``ribbon_mc``'s terms, so the
        quadratic test rejects where ``e < -PSD_TOL``.  Q kills constants, so
        this is the least eigenpair of ``D^-1/2 Q D^-1/2``, ``D = diag(p)``,
        the vector times ``D^-1/2``: one stacked solve for all rows."""
        S = self.A / np.sqrt(self.p)[:, None]
        C = self.w * (self.V0 + L @ self.V)
        ev, U = np.linalg.eigh((S * C[:, None, :]) @ S.T)
        return U[:, :, 0] / np.sqrt(self.p), ev[:, 0]

    def to_joint(self, f: np.ndarray) -> JointFunction:
        vals = np.zeros(math.prod(self.d.alphabet_sizes))
        vals[self.sup] = f
        return JointFunction(vals.reshape(self.d.alphabet_sizes))


def _seeds(prob: _FlatProblem, lams: np.ndarray, rng, restarts: int, project=None):
    """``restarts`` start rows per lambda row, point by point, ranked by raw gap:
    a ``_sweep`` along the quadratic-case direction where the quadratic test
    rejects, box corners (n <= 10), then the first of ``restarts`` uniform
    rows drawn once for all points, as a lone search would draw them.  The
    gap is linear in lambda, so one evaluation of the pool ranks every point."""
    a, b = prob.phi.domain
    (lo, hi), c = _box(prob.phi), 0.5 * (a + b)
    eps = np.array([0.45, 0.2, 0.05, 0.01, 1e-3])  # amplitudes along the quadratic-case direction
    P, n, m = len(lams), prob.n, len(eps)
    u, e = prob.directions(lams)
    rejected = e < -PSD_TOL
    sweeps = _sweep(u, (b - a) * eps, prob.phi)
    bits = np.arange(2**n if n <= 10 else 0)[:, None] >> np.arange(n) & 1
    # every corner of the box, at two sizes
    corners = c + (b - a) * (np.array([[0.5], [0.2]]) * (2.0 * bits - 1)[:, None]).reshape(-1, n)
    C = len(corners)
    pool = np.vstack([sweeps, corners, rng.uniform(lo, hi, size=(restarts, n))])
    pool = np.clip(pool, lo, hi)
    if project is not None:
        pool = project(pool)
    # gap(f, lambda) = G @ [1, lambda]: each sweep at its own point, the shared rows at all
    G, L1 = prob.gap_terms(pool), np.ones((P, 1 + lams.shape[1]))
    L1[:, 1:] = lams
    gaps = np.empty((P, m + C + restarts))
    gaps[:, :m] = np.einsum("pjv,pv->pj", G[: m * P].reshape(P, m, -1), L1)
    gaps[:, m:] = L1 @ G[m * P :].T
    fill = restarts - m * rejected - C  # the random rows each point takes
    valid = np.ones(gaps.shape, dtype=bool)
    valid[:, :m] = rejected[:, None]
    valid[:, m + C :] = np.arange(restarts) < fill[:, None]
    best = np.lexsort((gaps, ~valid))[:, :restarts]  # valid rows first, by gap, NaN last
    rows = np.where(best < m, m * np.arange(P)[:, None] + best, m * (P - 1) + best)  # into pool
    return pool[rows.ravel()], lo, hi


def _search(d, phi, lams, opts, project=None, exit_below=_EXIT_BELOW) -> list[RibbonVerdict]:
    """One verdict per row of ``lams``; the restarts of every point descend
    as the rows of one ``_pgd`` call, each point's rows a group.  A point's
    search ends as soon as one of its rows has a gap below ``exit_below``, so
    a violated verdict carries that first witness, certified through
    :func:`definition_gap`; ``exit_below=-inf`` runs every row out instead.

    A point of the simplex is answered without a search: conditional Jensen
    gives ``H(E[f|X_i]) <= H(f)`` for convex Phi, so ``sum(lambda) <= 1``
    leaves ``gap >= (1 - sum(lambda)) H(f) >= 0``, and a constant f reaches 0.
    A sum rounded down by an ulp leaves ``gap >= -2.3e-16 H(f)``, far above
    ``-_VIOLATION_TOL``.  The proof needs Phi convex, which the class check
    includes, so a Phi that fails it is searched everywhere.  The random
    starts are drawn once for all points, so the other points keep theirs."""
    if not phi.is_class_F:
        warnings.warn(
            f"{phi.name} failed the class conditions; tensorization "
            "guarantees do not apply",
            PhiNotClassF,
        )
    lams, R = _check_lambda(lams, d.k, ndim=2), opts.restarts
    inside = (lams.sum(axis=1) <= 1.0) & phi.is_class_F
    out = [_PROVEN if p else None for p in inside]
    todo = np.flatnonzero(~inside)
    if not len(todo):
        return out
    lams = lams[todo]
    prob = _FlatProblem(d, phi)
    starts, lo, hi = _seeds(prob, lams, np.random.default_rng(opts.seed), R, project)
    L = np.repeat(lams, R, axis=0)
    vals, ends, _ = _pgd(
        lambda F, rows: prob.rows(F, L[rows]), starts, lo, hi, opts, project,
        stop_below=exit_below, groups=np.arange(len(L)) // R,
    )
    for i, lam, v, E in zip(todo, lams, vals.reshape(-1, R), ends.reshape(len(lams), R, -1)):
        j = int(np.argmin(v))
        out[i] = RibbonVerdict("holds_up_to_search", float(v[j]))
        if v[j] < -_VIOLATION_TOL:
            witness = prob.to_joint(E[j])
            certified = definition_gap(d, phi, lam, witness)
            if certified <= -_VIOLATION_TOL:
                out[i] = RibbonVerdict("violated", float(certified), witness)
    return out


def phi_ribbon_membership(
    d: JointDist, phi: PhiSpec, lam, opts: SearchOpts | None = None
) -> RibbonVerdict:
    """Probe ``H_phi(f) >= sum lambda_i H_phi(E[f|X_i])`` over box-valued f."""
    opts = opts or SearchOpts(restarts=64)
    return _search(d, phi, [lam], opts)[0]


def _project_density(V: np.ndarray, p: np.ndarray, floor: float, top: float) -> np.ndarray:
    """Shift-and-clip each row of V onto ``{floor <= f <= top, p @ f = 1}``.

    ``s(mu) = p @ clip(v - mu, floor, top)`` is non-increasing and piecewise
    linear in mu with kinks at ``v - top`` and ``v - floor``, so the root of
    ``s(mu) = 1`` lies on the segment between the last kink where ``s >= 1``
    and the next one, and is solved for exactly there.  A row that cannot
    reach mean 1 even with every entry at ``top`` becomes all ``top``.
    """
    kinks = np.sort(np.concatenate([V - top, V - floor], axis=1), axis=1)
    s = np.clip(V[:, None, :] - kinks[:, :, None], floor, top) @ p
    k = np.clip(np.count_nonzero(s >= 1.0, axis=1) - 1, 0, kinks.shape[1] - 2)[:, None]
    b0, b1 = np.take_along_axis(kinks, k, 1)[:, 0], np.take_along_axis(kinks, k + 1, 1)[:, 0]
    s0, s1 = np.take_along_axis(s, k, 1)[:, 0], np.take_along_axis(s, k + 1, 1)[:, 0]
    reach = s0 >= 1.0  # then s1 < 1, so s0 - s1 > 0
    mu = np.where(reach, b0 + (s0 - 1.0) * (b1 - b0) / np.where(reach, s0 - s1, 1.0), kinks[:, 0])
    return np.clip(V - mu[:, None], floor, top)


def normalized_phi_ribbon_membership(
    d: JointDist, phi: PhiSpec, lam, opts: SearchOpts | None = None
) -> RibbonVerdict:
    """Same search restricted to f >= 0 with E[f] = 1 (density-like f)."""
    opts = opts or SearchOpts(restarts=64)
    if phi.domain[0] > _DENSITY_FLOOR:
        raise BadShape(
            f"{phi.name} does not admit non-negative functions reaching 0"
        )
    top = _box(phi)[1]
    if top <= 1:  # then E f = 1 leaves only constants, or no f at all
        raise BadShape(f"{phi.name} has no non-constant f <= {top!r} with E f = 1")
    p = d.probs.ravel()[d.support_mask.ravel()]
    return _search(d, phi, [lam], opts, lambda V: _project_density(V, p, _DENSITY_FLOOR, top))[0]


def i_phi_channel_test(
    d: JointDist, phi: PhiSpec, lam, channel: Channel
) -> float:
    """Gap ``I_phi(U; X_all) - sum_i lambda_i I_phi(U; X_i)``.

    ``channel`` maps the flattened joint outcome to U.  A negative gap
    certifies that lambda is outside the mutual-information region.  The ratios
    ``p(x, u) / (p(x) p(u))`` average to 1, so a U that depends on X has one above
    1: a Phi undefined there (``binent``, ``sym:A``) raises ``BadParameter``.
    """
    if (phi.nat_domain or phi.domain)[1] <= 1:
        raise BadParameter(f"{phi.name} is undefined on the ratios above 1 that a dependent U has")
    lam = _check_lambda(lam, d.k)
    W = channel.matrix
    n, nu = W.shape
    if n != d.probs.size:
        raise BadShape(f"channel expects {n} input symbols, joint has {d.probs.size}")
    # the law of (X_1, ..., X_k, U): (X, U) is its flattened view, each (X_i, U) a marginal
    big = make_joint([*d.alphabet_sizes, nu], (d.probs.reshape(n, 1) * W).ravel())
    gap = phi_mutual_information(JointDist(big.probs.reshape(n, nu)), phi)
    for i in np.flatnonzero(lam):
        gap -= lam[i] * phi_mutual_information(marginal(big, [i, d.k]), phi)
    return gap


def _ray_exits(d: JointDist, phi: PhiSpec, v: np.ndarray, opts: SearchOpts, extra=()):
    """Per ray ``t u`` (u a row of v), with ``R(f) = sum_i u_i H(E[f|X_i]) / H(f)``
    and so ``gap(f, t u) = H(f) (1 - t R(f))``: the best R, the least proven exit
    ``t_c = (H(f) + 2 tol) / (R(f) H(f))`` (inf if none lies in the cube), its
    witness, and the ``mc`` exit: ``1 / (1 - e)`` where ``e < -PSD_TOL``, else 1,
    e from the solve that gives the ray's quadratic-case direction.  R and t_c
    come from ``correlation._ascend``'s certified stack: R climbed from the
    ascent's own starts along that direction, plus the joint values in
    ``extra`` as further starts of every ray."""
    prob = _FlatProblem(d, phi)
    extra = [np.ravel(x)[prob.sup] for x in extra]
    u, e = prob.directions(v)
    F, num, H, _ = _ascend(prob, v, u, opts, extra)  # H floored: lowers R
    T = (H + 2 * _VIOLATION_TOL) / np.maximum(num, 1e-300)  # gap -2 tol at T u
    j = np.arange(len(v)), T.argmin(axis=1)
    f = [prob.to_joint(x) for x in F[j]]
    t = [s if s * u.max() <= 1 and definition_gap(d, phi, s * u, g) <= -_VIOLATION_TOL else np.inf
         for s, u, g in zip(T[j], v, f)]
    return (num / H).max(axis=1), np.array(t), f, np.where(e < -PSD_TOL, 1 / (1 - e), 1.0)


def eta_from_ribbon(
    d: JointDist, phi: PhiSpec, opts: SearchOpts | None = None
) -> float:
    """The SDPI constant from the region: ``(1 - l1)/l2`` at the exit of the ray
    ``t (1, s)``, s = 1e-3, is ``(sup_f R - 1)/s`` (capped to [0, 1]), non-decreasing
    in s with limit ``eta_phi`` as s -> 0.  The ascent also starts from the ``eta_phi``
    witness (same ``opts``; NotBipartite unless k = 2), so the answer is at least its ratio.
    """
    opts = opts or SearchOpts(restarts=12, max_iters=200)
    lift = np.broadcast_to(eta_phi(d, phi, None, opts).witness.values[:, None], d.alphabet_sizes)
    R = _ray_exits(d, phi, np.array([[1.0, 1e-3]]), opts, [lift])[0][0]
    return float(np.clip((R - 1) / 1e-3, 0.0, 1.0))  # R < 1 where X has one atom


def ribbon_boundary_trace(
    d: JointDist, phi: PhiSpec, directions: int = 32, opts: SearchOpts | None = None
) -> list[tuple[np.ndarray, str]]:
    """Trace the region's boundary along rays from the origin of the lambda cube.

    The region is down-closed toward the origin (its inequality is linear in
    lambda with non-negative coefficients), so a ray ``t v`` leaves it once, at
    ``1 / sup_f R`` (see ``_ray_exits``); the rays are ``mc_boundary_trace``'s.
    Per ray: ``lambda = min(1/R, mc exit, 1) v``, an outer estimate of the exit
    (not a bisected point; the ``mc`` exit bounds it by the quadratic case's
    inclusion), and "violated" where a witness proves the exit inside the cube.
    The ascent takes ``opts.restarts`` start rows per ray, so a trace is one
    search: more than ``correlation._MAX_RESTARTS`` rows raise ``BadParameter``.
    """
    v = _rays(d.k, directions)
    opts = opts or SearchOpts(restarts=12, max_iters=200)
    if len(v) * opts.restarts > correlation._MAX_RESTARTS:
        raise BadParameter(f"{len(v)} rays x {opts.restarts} restarts exceed the "
                           f"{correlation._MAX_RESTARTS} start rows of one search")
    R, t, _, mc = _ray_exits(d, phi, v, opts)
    return [(min(m, 1 / max(r, 1.0)) * u, "violated" if s <= 1 else "holds_up_to_search")
            for u, m, r, s in zip(v, mc, R, t)]


def _transported(d: JointDist, phi: PhiSpec, lam, cands, tol: float) -> RibbonVerdict | None:
    """The candidate with the lowest certified gap, as a violation if below ``-tol``."""
    gaps = [definition_gap(d, phi, lam, JointFunction(c)) for c in cands]
    j = int(np.argmin(np.nan_to_num(gaps, nan=np.inf)))
    return RibbonVerdict("violated", gaps[j], JointFunction(cands[j])) if gaps[j] < -tol else None


def alpha_equivalent_membership(d: JointDist, alpha: float, lam, opts: SearchOpts | None = None):
    """Run the ``t^alpha`` and symmetrized-``alpha`` searches and reconcile.

    The two regions coincide: ``Phi_alpha(t)`` is an affine combination of
    ``phi_alpha((1+t)/2)`` and ``phi_alpha((1-t)/2)``, which transports any
    symmetric-side witness to the power side exactly; in the reverse
    direction ``f -> eps f - 1`` shrinks the violation like ``eps^alpha``, so a
    transported "violated" is certified only to ``_TO_POWER_TOL`` or ``_TO_SYM_TOL``,
    which a check at 1e-9 may reject.  A witness that only
    just crossed the search's exit threshold is too shallow to survive that,
    so the points violated on the power side alone are searched again there
    without the early exit, and that deeper verdict is reported.  ``lam`` is one
    point, giving one (power, symmetric) verdict pair, or a stack of points
    as rows, giving a list of pairs from one search per side.
    """
    from .phi import power_alpha, sym_alpha

    opts = opts or SearchOpts(restarts=16)
    stacked = np.ndim(lam) == 2
    lams = lam if stacked else [lam]
    pw, sm = power_alpha(alpha), sym_alpha(alpha)
    power, sym = _search(d, pw, lams, opts), _search(d, sm, lams, opts)
    deep = [j for j, (rp, rs) in enumerate(zip(power, sym)) if rp.violated and not rs.violated]
    if deep:
        redone = _search(d, pw, np.asarray(lams, dtype=float)[deep], opts, exit_below=-np.inf)
        for j, rp in zip(deep, redone):
            power[j] = rp if rp.violated else power[j]
    pairs = []
    for point, rp, rs in zip(lams, power, sym):
        if rs.violated and not rp.violated:
            f = rs.witness.values
            rp = _transported(d, pw, point, [(1.0 + f) / 2.0, (1.0 - f) / 2.0], _TO_POWER_TOL) or rp
        elif rp.violated and not rs.violated:
            g = np.clip(rp.witness.values, 0.0, 1.0)
            eps = (0.5, 0.1, 1e-2, 1e-3, 1e-4)
            cands = [c for e in eps for c in (e * g - 1.0, 1.0 - e * g)]
            rs = _transported(d, sm, point, cands, _TO_SYM_TOL) or rs
        pairs.append((rp, rs))
    return pairs if stacked else pairs[0]


def lift_witness_to_product(
    f: JointFunction, dx: JointDist, dy: JointDist
) -> JointFunction:
    """View a witness on dx as a function on ``dist.pair_product(dx, dy)``:
    ``np.kron(f, ones)``, in the product's layout.  It ignores the second
    factor, so its gap on the product equals the original gap exactly."""
    if dx.k != dy.k:
        raise ArityMismatch(f"arity mismatch: {dx.k} vs {dy.k}")
    if f.values.shape != dx.probs.shape:
        raise ShapeMismatch("witness shape does not match the first factor")
    return JointFunction(np.kron(f.values, np.ones(dy.alphabet_sizes)))


def lift_witness_through_channels(
    d: JointDist, chans: list[Channel], f_out: JointFunction
) -> JointFunction:
    """Pull a witness back through per-coordinate channels via E[f(Y)|x]."""
    vals = np.asarray(f_out.values, dtype=float)
    for ch in sorted(chans, key=lambda c: c.coord):
        vals = np.moveaxis(
            np.tensordot(vals, ch.matrix, axes=([ch.coord], [1])), -1, ch.coord
        )
    return JointFunction(vals)
