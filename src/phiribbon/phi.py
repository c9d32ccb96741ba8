"""Convex-function catalog and the entropies built from them.

``H_phi(f) = E[Phi(f)] - Phi(E f)`` generalizes variance (``Phi(t)=t^2``)
and carries the same chain-rule structure.  The built-in functions all live
on compact intervals; derivative access is analytic where we have closed
forms and 5-point finite differences otherwise.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .dist import JointDist, JointFunction, MarginalFunction
from .errors import BadCoordinate, BadParameter, DomainViolation, NotIndependent, ShapeMismatch

_CLAMP = 1e-12
# an entropy's Bregman sum below this share of Phi's scale, max |Phi(v)| + |Phi(m)|,
# may be mostly cancellation error, so its terms are recomputed by quadrature
_CANCEL = 1e-5


@dataclass(frozen=True)
class PhiSpec:
    """A convex function on a compact interval with derivatives up to order 4.

    ``eval`` carries its own limits: where the defining formula has none at
    a domain end, it takes ``Phi(t) = lim Phi(s)`` as s tends to t from inside
    (``0 log 0 := 0`` in ``xlogx``, ``Phi(+-1) = 1`` in ``binent`` and
    ``sym``).  ``eval`` must not cancel internally near a zero of Phi: the
    entropies' cancellation test compares with Phi's own values, so it
    cannot see error made inside Phi.
    ``is_class_F`` is :func:`check_class_F`'s verdict, taken once at construction.
    """

    name: str
    domain: tuple[float, float]
    eval: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray] | None = None
    d2: Callable[[np.ndarray], np.ndarray] | None = None
    d3: Callable[[np.ndarray], np.ndarray] | None = None
    d4: Callable[[np.ndarray], np.ndarray] | None = None
    # where the defining formula makes sense at all (ratio arguments of the
    # mutual information may leave the compact working interval)
    nat_domain: tuple[float, float] | None = None
    is_class_F: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a, b = self.domain
        if not (math.isfinite(a) and math.isfinite(b) and b > a):
            raise BadParameter("domain must be a non-degenerate compact interval")
        object.__setattr__(self, "is_class_F", check_class_F(self)["verified"])

    # -- derivative access -------------------------------------------------

    def _fd(self, order: int, t: np.ndarray) -> np.ndarray:
        """5-point centered stencil, shifted one-sided near the edges."""
        a, b = self.domain
        h = (b - a) * 1e-4
        t = np.asarray(t, dtype=float)
        # shift evaluation points so the whole stencil stays in-domain
        center = np.clip(t, a + 2 * h, b - 2 * h)
        samples = np.stack([self.eval(center + i * h) for i in range(-2, 3)])
        if order == 1:
            w = np.array([1, -8, 0, 8, -1]) / (12 * h)
        elif order == 2:
            w = np.array([-1, 16, -30, 16, -1]) / (12 * h * h)
        elif order == 3:
            w = np.array([-1, 2, 0, -2, 1]) / (2 * h**3)
        elif order == 4:
            w = np.array([1, -4, 6, -4, 1]) / h**4
        else:  # pragma: no cover
            raise BadParameter(f"derivative order {order} unsupported")
        return np.tensordot(w, samples, axes=(0, 0))

    def deriv(self, order: int, t) -> np.ndarray:
        fn = (self.d1, self.d2, self.d3, self.d4)[order - 1]
        t = np.asarray(t, dtype=float)
        if fn is not None:
            return fn(t)
        return self._fd(order, t)

    # -- domain handling ---------------------------------------------------

    def check_in_domain(self, values: np.ndarray, mask: np.ndarray | None = None):
        a, b = self.domain
        v = np.asarray(values, dtype=float)
        ok = (v >= a) & (v <= b)
        if mask is not None:
            ok = ok | ~mask
        if not np.all(ok):
            bad = float(v[~ok].ravel()[0])
            raise DomainViolation(
                f"value {bad!r} outside domain [{a}, {b}] of {self.name}"
            )

    def safe_eval(self, t) -> np.ndarray:
        """Phi at ``t`` as a float array: the library evaluates Phi only
        through this method, which the benchmark's tracer counts by name."""
        return self.eval(np.asarray(t, dtype=float))


# ---------------------------------------------------------------------------
# built-ins: specs are immutable, so equal arguments share one spec and its
# class-F check

_memo = lru_cache(maxsize=64)


@_memo
def square() -> PhiSpec:
    return PhiSpec(
        "square",
        (-1.0, 1.0),
        eval=lambda t: t * t,
        d1=lambda t: 2.0 * t,
        d2=lambda t: np.full_like(np.asarray(t, float), 2.0),
        d3=lambda t: np.zeros_like(np.asarray(t, float)),
        d4=lambda t: np.zeros_like(np.asarray(t, float)),
        nat_domain=(-math.inf, math.inf),
    )


@_memo
def power_alpha(alpha: float) -> PhiSpec:
    a = float(alpha)
    if not 1.0 < a <= 2.0:
        raise BadParameter("power_alpha requires alpha in (1, 2]")
    return PhiSpec(
        f"power:{a}",
        (0.0, 1.0),
        eval=lambda t: np.power(t, a),
        d1=lambda t: a * np.power(t, a - 1),
        d2=lambda t: a * (a - 1) * np.power(t, a - 2),
        d3=lambda t: a * (a - 1) * (a - 2) * np.power(t, a - 3),
        d4=lambda t: a * (a - 1) * (a - 2) * (a - 3) * np.power(t, a - 4),
        nat_domain=(0.0, math.inf),
    )


@_memo
def xlogx(delta: float = 1e-6, top: float = 64.0) -> PhiSpec:
    lo = float(delta)
    hi = float(top)
    if lo < 0 or hi <= max(lo, 0.0):
        raise BadParameter("xlogx requires 0 <= delta < T")
    return PhiSpec(
        f"xlogx:{delta},{top}",
        (lo, hi),
        eval=lambda t: t * np.log(np.maximum(t, 1e-300)),  # 0 log 0 := 0
        d1=lambda t: np.log(t) + 1.0,
        d2=lambda t: 1.0 / t,
        d3=lambda t: -1.0 / t**2,
        d4=lambda t: 2.0 / t**3,
        nat_domain=(0.0, math.inf),
    )


def _unit_ends(core):
    """Phi on [-1, 1] that is ``core`` inside and 1 at both ends, the limit
    there: ``core`` never sees +-1, where it would take the log of 0."""

    def f(t):
        t = np.asarray(t, dtype=float)
        inner = np.abs(t) < 1.0
        return np.where(inner, core(np.where(inner, t, 0.0)), 1.0)

    return f


@_memo
def binent() -> PhiSpec:
    """``Phi_1(t) = 1 - h((1+t)/2)`` with the binary entropy in bits.

    Evaluated as ``(ln(1 - t^2) + t ln((1+t)/(1-t))) / (2 ln 2)``, whose two
    terms are of the size of Phi near 0, so nothing cancels there as it
    does in ``1 - h``."""
    ln2 = math.log(2.0)

    def f(t):
        up, down = np.log1p(t), np.log1p(-t)
        t2 = t * t
        # ln(1 - t^2) is log1p(-t^2) near 0, where up + down would cancel,
        # and up + down near +-1, where t^2 would round 1 - t^2 away
        return (np.where(t2 < 0.25, np.log1p(-t2), up + down) + t * (up - down)) / (2.0 * ln2)

    return PhiSpec(
        "binent",
        (-1.0, 1.0),
        eval=_unit_ends(f),
        d1=lambda t: 0.5 * np.log((1 + t) / (1 - t)) / ln2,
        d2=lambda t: 1.0 / ((1 - t * t) * ln2),
        d3=lambda t: 2.0 * t / ((1 - t * t) ** 2 * ln2),
        d4=lambda t: (2 + 6 * t * t) / ((1 - t * t) ** 3 * ln2),
    )


@_memo
def sym_alpha(alpha: float) -> PhiSpec:
    """``Phi(t) = ((1+t)^a + (1-t)^a - 2) / (2^a - 2)``.

    With ``x, y = a ln(1 +- t)`` the numerator is ``expm1(x + y) -
    expm1(x) expm1(y)``, two terms of the size of Phi near 0, so nothing
    cancels there as it does in the defining sum."""
    a = float(alpha)
    if not 1.0 < a <= 2.0:
        raise BadParameter("sym_alpha requires alpha in (1, 2]")
    c = 2.0**a - 2.0

    def dk(k: int):
        coef = math.prod(a - i for i in range(k)) / c

        def f(t):
            t = np.asarray(t, dtype=float)
            up, down = np.power(1 + t, a - k), np.power(1 - t, a - k)
            return coef * (up - down if k % 2 else up + down)  # d^k/dt^k (1 - t)^a carries (-1)^k

        return f

    return PhiSpec(
        f"sym:{a}",
        (-1.0, 1.0),
        eval=_unit_ends(
            lambda t: (
                np.expm1(a * np.log1p(-t * t)) - np.expm1(a * np.log1p(t)) * np.expm1(a * np.log1p(-t))
            ) / c
        ),
        d1=dk(1),
        d2=dk(2),
        d3=dk(3),
        d4=dk(4),
    )


_POWER_RE = re.compile(r"^(power|sym):([0-9.]+)$")
_XLOGX_RE = re.compile(r"^xlogx(?::([0-9.eE+-]+),([0-9.eE+-]+))?$")


@_memo
def parse_phi(name: str) -> PhiSpec:
    """Resolve a CLI-style name: square, power:A, xlogx[:D,T], binent, sym:A."""
    if name == "square":
        return square()
    if name == "binent":
        return binent()
    try:
        m = _POWER_RE.match(name)
        if m:
            alpha = float(m.group(2))
            return power_alpha(alpha) if m.group(1) == "power" else sym_alpha(alpha)
        m = _XLOGX_RE.match(name)
        if m:
            if m.group(1) is None:
                return xlogx()
            return xlogx(float(m.group(1)), float(m.group(2)))
    except ValueError as e:  # the patterns admit strings like "1.2.3"
        raise BadParameter(f"malformed phi name {name!r}") from e
    raise BadParameter(f"unknown phi name {name!r}")


# ---------------------------------------------------------------------------
# entropies


@dataclass(frozen=True)
class EntropyValue:
    """An entropy value; callers read ``.value`` (the bench checks and the
    acceptance criteria among them)."""

    value: float


def _clamped(v: float) -> float:
    return 0.0 if -_CLAMP <= v < 0.0 else v


# Gauss-Legendre nodes mapped to [0, 1], for the Bregman-term quadrature
_GL_S, _GL_W = np.polynomial.legendre.leggauss(12)
_GL_S = 0.5 * (_GL_S + 1.0)
_GL_K = (1.0 - _GL_S) * (0.5 * _GL_W)  # weights of integral_0^1 (1 - s) g(s) ds at _GL_S


def _wmean(x: np.ndarray, weights: np.ndarray, total) -> np.ndarray:
    """Row-wise weighted means, one row of weights per row of ``x``."""
    return (x * weights).sum(axis=1) / total


def _entropy_rows(phi: PhiSpec, weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """H_phi of each row of ``values`` under atom weights broadcast to the
    rows (one vector for all rows, or one row per row), each with a positive total.

    Zero-weight atoms carry arbitrary values and never reach Phi.  Phi and
    Phi' are evaluated once each, for the Bregman form
    ``E[Phi(f) - Phi(m) - Phi'(m)(f - m)]`` at the row means m; where that is
    tiny relative to Phi's scale (catastrophic cancellation) each term is
    recomputed without subtraction by :func:`_bregman_terms`.  This is the
    library's only cancellation test: the searches' objectives are plain
    sums, and the answers they certify (eta values, violations) are
    re-evaluated here.  A row whose mean is on a domain edge is constant: it
    takes Phi' at the domain's midpoint, where Phi' is finite, and its terms
    are exact zeros.  Derivatives a spec lacks come from the stencil of
    :meth:`PhiSpec.deriv`.
    """
    values = np.asarray(values, dtype=float)
    weights = np.broadcast_to(weights, values.shape)
    on = weights > 0
    if not on.all():  # zero-weight atoms take the value of their row's heaviest atom
        heavy = np.take_along_axis(values, weights.argmax(axis=1)[:, None], axis=1)
        values = np.where(on, values, heavy)
    total = weights.sum(axis=1)
    # m = c + E[f - c], c an atom's value: exact on a constant row, where a
    # rounded E f can step off a domain edge into the quadrature path
    c = values[:, 0]
    m = c + _wmean(values - c[:, None], weights, total)
    pfm = phi.safe_eval(np.concatenate([values, m[:, None]], axis=1))
    pf, pm = pfm[:, :-1], pfm[:, -1]
    a, b = phi.domain
    interior = (m > a) & (m < b)
    d1m = phi.deriv(1, m if interior.all() else np.where(interior, m, 0.5 * (a + b)))
    out = _wmean(pf - pm[:, None] - d1m[:, None] * (values - m[:, None]), weights, total)
    scale = np.abs(pf).max(axis=1) + np.abs(pm)
    tiny = (interior & (out < _CANCEL * scale)).nonzero()[0]
    if len(tiny):
        terms = _bregman_terms(phi, values[tiny], m[tiny])
        out[tiny] = _wmean(terms, weights[tiny], total[tiny])
    out[(-_CLAMP <= out) & (out < 0.0)] = 0.0
    return out


def _bregman_terms(phi, values, m) -> np.ndarray:
    """``Phi(v) - Phi(m) - Phi'(m)(v - m)`` per entry of ``values``, row means
    m, computed without the subtraction as ``(v - m)^2 * integral_0^1 (1 - s)
    Phi''(m + s(v - m)) ds`` by Gauss-Legendre quadrature, the library's only
    one (called from :func:`_entropy_rows`).  Its nodes lie strictly inside
    the hull of {v, m}, so Phi'' is never taken at an edge where it is
    singular; for ``xlogx`` at v = 0 the integrand is the constant 1/m, which
    the rule integrates exactly."""
    dt = values - m[:, None]
    nodes = m[:, None, None] + dt[:, :, None] * _GL_S
    return dt * dt * (phi.deriv(2, nodes) @ _GL_K)


def phi_entropy(d: JointDist, phi: PhiSpec, f: JointFunction) -> EntropyValue:
    """``H_phi(f) = E[Phi(f)] - Phi(E f)``, non-negative by convexity: the
    conditional entropy given no coordinates, whose one cell is the whole law."""
    return cond_phi_entropy(d, phi, f, ())


def marginal_phi_entropy(d: JointDist, phi: PhiSpec, g: MarginalFunction) -> EntropyValue:
    """H_phi of a single-coordinate function under the marginal law."""
    p = d.marginal_vector(g.coord)
    if g.values.shape != p.shape:
        raise ShapeMismatch("function shape does not match the coordinate's alphabet")
    phi.check_in_domain(g.values, p > 0)
    return EntropyValue(float(_entropy_rows(phi, np.where(p > 0, p, 0.0), g.values[None])[0]))


def cond_phi_entropy(
    d: JointDist, phi: PhiSpec, f: JointFunction, coords: Sequence[int]
) -> EntropyValue:
    """``H_phi(f | X_coords) = sum_s p(s) H_phi(f | X_coords = s)``."""
    return EntropyValue(cond_phi_entropies(d, phi, f, [coords])[0])


def cond_phi_entropies(
    d: JointDist, phi: PhiSpec, f: JointFunction, coord_sets: Sequence[Sequence[int]]
) -> list[float]:
    """``H_phi(f | X_S)`` for each coordinate set S in ``coord_sets``.

    Every ``H_phi(f | X_S = s)`` of every set is a row of one
    :func:`_entropy_rows` call: a set's cells are the law with the axes of
    S moved to the front and both axis groups flattened, zero-padded to the
    longest cell (the whole law when a set is empty).  With one set nothing
    is padded.  Zero-weight atoms never reach Phi.
    """
    if f.values.shape != d.probs.shape:
        raise ShapeMismatch("function shape does not match distribution")
    phi.check_in_domain(f.values, d.support_mask)
    blocks = []
    for coords in coord_sets:
        coords = sorted(set(int(c) for c in coords))
        if coords and not 0 <= coords[0] <= coords[-1] < d.k:
            raise BadCoordinate(f"coordinates {coords} out of range for k={d.k}")
        order = coords + [a for a in range(d.k) if a not in coords]
        probs = np.transpose(d.probs, order).reshape(
            math.prod(d.alphabet_sizes[c] for c in coords), -1
        )
        blocks.append((probs, np.transpose(f.values, order).reshape(probs.shape)))
    sizes = [len(probs) for probs, _ in blocks]
    ends = np.cumsum(sizes)
    W = np.zeros((ends[-1], max(probs.shape[1] for probs, _ in blocks)))
    V = np.zeros_like(W)
    for (probs, vals), end in zip(blocks, ends):
        cols = probs.shape[1]
        W[end - len(probs) : end, :cols], V[end - len(probs) : end, :cols] = probs, vals
    ps = np.concatenate([probs.sum(axis=1) for probs, _ in blocks])  # each cell's probability
    cells = ps > 0  # empty cells contribute 0
    terms = np.zeros(len(ps))
    terms[cells] = ps[cells] * _entropy_rows(phi, W[cells], V[cells])
    return [_clamped(float(terms[end - n : end].sum())) for n, end in zip(sizes, ends)]


def phi_mutual_information(d: JointDist, phi: PhiSpec) -> float:
    """``I_phi(X;Y) = sum p(x)p(y) Phi(p(x,y)/(p(x)p(y))) - Phi(1)``."""
    from .errors import NotBipartite

    if d.k != 2:
        raise NotBipartite("phi_mutual_information needs exactly 2 coordinates")
    px = d.marginal_vector(0)
    py = d.marginal_vector(1)
    prod = np.outer(px, py)
    ok = prod > 0
    ratio = np.divide(d.probs, prod, out=np.zeros_like(d.probs), where=ok)
    # ratios may leave the compact working interval; require only that the
    # formula itself is defined there
    lo, hi = phi.nat_domain or phi.domain
    bad = ok & ((ratio < lo) | (ratio > hi))
    if np.any(bad):
        raise DomainViolation(
            f"ratio {ratio[bad].ravel()[0]!r} outside the defined range of {phi.name}"
        )
    vals = np.where(ok, phi.safe_eval(np.where(ok, ratio, 1.0)), 0.0)
    out = float(np.sum(prod * vals) - phi.safe_eval(1.0))
    return _clamped(out)


_CLASS_F_GRID = 256  # interior points at which check_class_F tests the conditions


def check_class_F(phi: PhiSpec) -> dict:
    """Numerically test the subadditivity conditions on an interior grid.

    Checks ``Phi'''' Phi'' >= 2 Phi'''^2`` pointwise and spot-checks
    concavity of ``1/Phi''`` via second differences; also confirms
    convexity and non-affineness.  Returns the report and changes nothing.
    """
    a, b = phi.domain
    pad = (b - a) * 1e-3
    t = np.linspace(a + pad, b - pad, _CLASS_F_GRID)
    d2 = phi.deriv(2, t)
    d3 = phi.deriv(3, t)
    d4 = phi.deriv(4, t)
    convex_ok = bool(np.min(d2) >= -1e-10)
    affine = bool(np.max(np.abs(d2)) <= 1e-10)
    lhs = d4 * d2
    rhs = 2.0 * d3 * d3
    margin = lhs - rhs
    tol = 1e-8 * (1.0 + np.abs(lhs) + np.abs(rhs))
    vi_ok = bool(np.all(margin >= -tol))
    worst = int(np.argmin(margin - (-tol)))
    # condition (v): 1/Phi'' concave <=> second differences <= 0
    inv = 1.0 / np.where(np.abs(d2) > 1e-300, d2, np.nan)
    sec = inv[:-2] - 2 * inv[1:-1] + inv[2:]
    v_ok = bool(np.all(sec[np.isfinite(sec)] <= 1e-8 * (1 + np.abs(inv[1:-1][np.isfinite(sec)]))))
    verdict = convex_ok and not affine and vi_ok and v_ok
    return {
        "verified": verdict,
        "convex": convex_ok,
        "affine": affine,
        "condition_vi": vi_ok,
        "condition_v": v_ok,
        "worst_margin": float(margin[worst]),
        "worst_location": float(t[worst]),
    }


def subadditivity_gap(d: JointDist, phi: PhiSpec, f: JointFunction) -> float:
    """``sum_i H_phi(f | X_{-i}) - H_phi(f)`` for fully independent coordinates."""
    from .dist import is_fully_independent

    if not is_fully_independent(d):
        raise NotIndependent("subadditivity_gap requires independent coordinates")
    total, *conds = cond_phi_entropies(
        d, phi, f, [(), *([a for a in range(d.k) if a != i] for i in range(d.k))]
    )
    return sum(conds) - total
