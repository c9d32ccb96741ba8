"""Exact region tests built on a block Gram matrix of marginal bases.

For each coordinate we build an orthonormal basis of zero-mean functions
under the marginal inner product; cross inner products under the joint law
assemble into a symmetric matrix ``M``.  Every region query here reduces to
a positive-semidefinite test on a matrix derived from ``M`` and the
diagonal expansion of the queried lambda point:

* variance region ("mc"): member iff ``I - Lambda^{1/2} M Lambda^{1/2} >= 0``
  (for lambda > 0, congruent to ``Lambda^{-1} - M >= 0``);
* same region, alternate form ("sprime"): member iff ``M - M Lambda M >= 0``;
* sum-variance region ("tilde"): member iff ``M - Lambda >= 0``.

One builder makes these matrices for one lambda point, a stack of them, or
a Gaussian correlation matrix, and every verdict is the least eigenvalue
from ``np.linalg.eigh``.  Non-member verdicts return an eigenvector mapped
back to functions that violate the defining inequality, re-checkable from
scratch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import JointDist, JointFunction, MarginalFunction
from .errors import (
    BadCoordinate,
    BadLambda,
    BadParameter,
    BadShape,
    NonGeneric,
    NotCorrelationMatrix,
)

PSD_TOL = 1e-9
_LAMBDA_FLOOR = 1e-300  # entries below read as 0: fc2_gap divides by them
_common_tol = 1e-8
KINDS = ("mc", "sprime", "tilde")
_STACK_ROWS = 4096  # lambda rows per stacked eigenvalue solve: bounds its memory
_MAX_DIRECTIONS = 1_000_000  # rays one boundary trace may ask for (64 in the benchmark)


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Block Gram matrix of per-coordinate orthonormal zero-mean bases;
    ``basis[i]`` holds coordinate i's basis functions as columns."""

    block_dims: tuple[int, ...]
    M: np.ndarray
    basis: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class MembershipResult:
    verdict: bool
    min_eigenvalue: float
    witness: tuple[MarginalFunction, ...] | None = None
    gap: float | None = None


def _marginal_basis(p: np.ndarray) -> np.ndarray:
    """Orthonormal zero-mean basis under <f,g> = sum p f g, as columns.

    The Gram-Schmidt basis of the centered indicators in closed form: with
    the support sorted as q_1 >= ... >= q_m, tails T_j = q_j + ... + q_m and
    residual norms r_j = sqrt(q_j T_{j+1} / T_j), column j is 0 before symbol
    j, r_j / q_j at it and -r_j / T_{j+1} after it.  Columns from the first
    with r_j < 1e-10 drop (r_m = 0).  Rows at zero-probability symbols are 0.
    """
    support = np.flatnonzero(p > 0)
    order = support[np.argsort(-p[support])]
    q = p[order]
    tail = np.cumsum(q[::-1])[::-1]  # summed from the smallest up: small tails stay exact
    q, after = q[:-1], tail[1:]  # column m, with r_m = 0, always drops
    r = np.sqrt(q * after / tail[:-1])
    dim = next((j for j, x in enumerate(r.tolist()) if x < 1e-10), len(r))
    col = np.arange(dim)
    B = np.zeros((len(p), dim))
    B[order] = (np.arange(len(order))[:, None] > col) * (-r / after)[:dim]  # the tail rows
    B[order[:dim], col] = (r / q)[:dim]
    return B


def gram_matrix(d: JointDist) -> GramMatrix:
    """Assemble ``M = W^T W``, row a of W holding sqrt(p_a) times every basis
    function at atom a; the diagonal blocks are set to exactly I."""
    basis = tuple(_marginal_basis(d.marginal_vector(i)) for i in range(d.k))
    dims = tuple(b.shape[1] for b in basis)
    p = d.probs.ravel()
    symbols = np.unravel_index(np.arange(p.size), d.alphabet_sizes)  # per coordinate, per atom
    W = np.sqrt(p)[:, None] * np.concatenate([b[s] for b, s in zip(basis, symbols)], 1)
    M, a = W.T @ W, 0
    for n in dims:  # the product leaves rounding-level entries in the diagonal blocks
        M[a : a + n, a : a + n] = 0.0
        a += n
    np.fill_diagonal(M, 1.0)
    return GramMatrix(dims, M, basis)


def _check_lambda(lam, k: int, ndim: int = 1) -> np.ndarray:
    """Validated lambda point, or a stack of points as rows when ``ndim`` is 2."""
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != ndim or lam.shape[-1] != k:
        raise BadLambda(f"lambda must have {k} entries")
    # NaN fails both comparisons, so it is rejected along with inf
    if not np.all((lam >= 0) & (lam <= 1)):
        raise BadLambda("lambda entries must lie in [0, 1]")
    return np.where(lam < _LAMBDA_FLOOR, 0.0, lam)


def _test_matrices(kind: str, M: np.ndarray, dims, lams: np.ndarray):
    """Stack of matrices whose PSD-ness decides membership, one per lambda row.

    ``M`` has blocks of sizes ``dims``, one per lambda entry.  "mc" is
    ``I - S M S = S (Lambda^{-1} - M) S`` with ``S = Lambda^{1/2}``, of the
    same inertia (Sylvester) for lambda > 0; a zero lambda_i leaves an
    identity block, decoupled from the rest.
    """
    L = np.repeat(lams, dims, axis=1)
    if kind == "mc":
        s = np.sqrt(L)
        return np.eye(len(M)) - s[:, :, None] * M * s[:, None, :]
    if kind == "sprime":
        return M - M @ (L[:, :, None] * M)
    return M - L[:, :, None] * np.eye(len(M))


def _witness_functions(g: GramMatrix, coeffs: np.ndarray) -> tuple[MarginalFunction, ...]:
    """Map a coefficient vector over all of M back to one function per coordinate."""
    off = np.cumsum((0, *g.block_dims))
    return tuple(
        MarginalFunction(i, b @ coeffs[off[i] : off[i + 1]]) for i, b in enumerate(g.basis)
    )


def fc2_gap(d: JointDist, lam, fs) -> float:
    """Gap of the strong Cauchy-Schwarz inequality at single-coordinate fs.

    Negative iff ``Var[sum f_i] > sum (1/lambda_i) Var[f_i]`` restricted to
    coordinates with positive lambda and all other f_i constant.
    """
    lam = _check_lambda(lam, d.k)
    total = JointFunction(sum(f.lift(d).values for f in fs))
    var_sum = d.variance(total)
    bound = 0.0
    for i, f in enumerate(fs):
        v = d.variance(f.lift(d))
        if lam[i] > 0:
            bound += v / lam[i]
        elif v > 1e-15:
            return float("inf")  # lambda_i = 0 puts no constraint via f_i
    return bound - var_sum


def mc_def_gap(d: JointDist, lam, f: JointFunction) -> float:
    """Gap of the defining variance inequality at a joint function f."""
    from .dist import cond_expectation

    lam = _check_lambda(lam, d.k)
    g = d.variance(f)
    for i in range(d.k):
        gi = cond_expectation(d, f, i)
        g -= lam[i] * d.variance(gi.lift(d))
    return g


def tilde_gap(d: JointDist, lam, fs) -> float:
    """Gap ``Var[sum f_i] - sum lambda_i Var[f_i]`` at single-coordinate fs."""
    lam = _check_lambda(lam, d.k)
    total = JointFunction(sum(f.lift(d).values for f in fs))
    g = d.variance(total)
    for i, f in enumerate(fs):
        g -= lam[i] * d.variance(f.lift(d))
    return g


def _membership(kind: str, d: JointDist, lam, g: GramMatrix | None) -> MembershipResult:
    lam = _check_lambda(lam, d.k)
    g = g or gram_matrix(d)
    A = _test_matrices(kind, g.M, g.block_dims, lam[None])
    if A.shape[-1] == 0:
        return MembershipResult(True, float("inf"))
    w, V = np.linalg.eigh(A[0])
    if w[0] >= -PSD_TOL:
        return MembershipResult(True, float(w[0]))
    # an "mc" eigenvector v maps back as c = S v, so that fc2_gap(c) = v^T A v
    s = np.sqrt(np.repeat(lam, g.block_dims)) if kind == "mc" else 1.0
    fs = _witness_functions(g, s * V[:, 0])
    if kind == "mc":
        gap = fc2_gap(d, lam, fs)
    elif kind == "sprime":
        gap = mc_def_gap(d, lam, JointFunction(sum(f.lift(d).values for f in fs)))
    else:
        gap = tilde_gap(d, lam, fs)
    return MembershipResult(False, float(w[0]), fs, float(gap))


def mc_membership(d: JointDist, lam, g: GramMatrix | None = None) -> MembershipResult:
    """PSD test ``I - Lambda^{1/2} M Lambda^{1/2} >= 0``, whose least
    eigenvalue has the sign of ``Lambda^{-1} - M``'s.  ``PSD_TOL`` applies on
    this bounded scale: at lambda = (1, 1e-12) the deepest gap, about
    ``-1e-12 rho^2``, is inside it, so the point reads as a member."""
    return _membership("mc", d, lam, g)


def mc_membership_sprime(
    d: JointDist, lam, g: GramMatrix | None = None
) -> MembershipResult:
    """Same region via ``M - M Lambda M >= 0``; lambda_i = 0 needs no care."""
    return _membership("sprime", d, lam, g)


def tilde_membership(d: JointDist, lam, g: GramMatrix | None = None) -> MembershipResult:
    """Sum-variance region: member iff ``M - Lambda >= 0`` blockwise."""
    return _membership("tilde", d, lam, g)


def membership_verdicts(d: JointDist, kind: str, lams) -> np.ndarray:
    """Verdicts of one ``kind`` of membership at each row of ``lams``.

    Stacked ``eigh`` solves of the single-point functions' test matrices,
    ``_STACK_ROWS`` rows at a time, with their tolerance but no witnesses,
    so each verdict equals the single-point one.
    """
    if kind not in KINDS:
        raise BadParameter(f"kind must be one of {KINDS}")
    lams = _check_lambda(lams, d.k, ndim=2)
    g = gram_matrix(d)
    out = np.ones(len(lams), dtype=bool)
    for start in range(0, len(lams), _STACK_ROWS):
        rows = slice(start, start + _STACK_ROWS)
        A = _test_matrices(kind, g.M, g.block_dims, lams[rows])
        out[rows] = np.linalg.eigh(A)[0].min(axis=1, initial=np.inf) >= -PSD_TOL
    return out


def bipartite_closed_form(rho: float, lam) -> bool:
    """k = 2 closed form ``(1/l1 - 1)(1/l2 - 1) >= rho^2``, tested as
    ``(1 - l1)(1 - l2) >= (rho^2 - PSD_TOL) l1 l2``: the same inequality
    times ``l1 l2 >= 0``, with no reciprocal, so a zero entry is a member."""
    l1, l2 = _check_lambda(lam, 2)
    return (1 - l1) * (1 - l2) >= (rho * rho - PSD_TOL) * l1 * l2


def bbt_closed_form(d: JointDist, lam) -> bool:
    """Closed form for alphabets (2, 2, 3) via three scalar inequalities.

    The terms are entries of the Gram matrix M (blocks of sizes 1, 1, 2):
    ``rho12 = M[0, 1]``, and rows ``r13 = M[0, 2:]``, ``r23 = M[1, 2:]`` hold
    the coefficients of ``E[g1|X3]`` and ``E[g2|X3]`` in X3's orthonormal
    basis, so ``rho13^2 = |r13|^2``, ``rho23^2 = |r23|^2`` and the cross term
    ``E[E[g1|X3] E[g2|X3]] = r13 . r23``.  Requires r13 and r23 to be
    linearly independent ("generic" case); otherwise raises NonGeneric.
    """
    if d.alphabet_sizes != (2, 2, 3):
        raise BadShape("bbt_closed_form needs alphabet sizes (2, 2, 3)")
    lam = _check_lambda(lam, 3)
    g = gram_matrix(d)
    if g.block_dims != (1, 1, 2):
        raise NonGeneric("degenerate supports")
    M = g.M
    sign = 1.0 if M[0, 1] >= 0 else -1.0  # flips g2 so that rho12 >= 0
    rho12, r13, r23 = sign * M[0, 1], M[0, 2:], sign * M[1, 2:]
    if np.linalg.svd(np.vstack([r13, r23]), compute_uv=False)[-1] <= 1e-8:
        raise NonGeneric("conditional expectations on X3 are linearly dependent")
    rho13_sq, rho23_sq, cross = r13 @ r13, r23 @ r23, r13 @ r23
    # With u_i = 1/lambda_i - 1 the region is a, b >= 0 and a b >= c^2 for
    # a = u1 u3 - rho13^2, b = u2 u3 - rho23^2, c = u3 rho12 + cross.  Scaled
    # by the lambdas they divide by (A = l1 l3 a, B = l2 l3 b, C = l3 c, so
    # a b >= c^2 iff A B >= l1 l2 C^2) they hold no 1/lambda_i, and a zero
    # entry gives the limiting inequality, e.g. l3 = 0 leaves u1 u2 >= rho12^2.
    l1, l2, l3 = lam
    s1, s2, s3 = 1.0 - lam
    A = s1 * s3 - l1 * l3 * rho13_sq
    B = s2 * s3 - l2 * l3 * rho23_sq
    C = s3 * rho12 + l3 * cross
    return A >= -PSD_TOL and B >= -PSD_TOL and A * B >= l1 * l2 * C * C - PSD_TOL * (1 + abs(C))


def pearson_matrix(d: JointDist) -> np.ndarray:
    """Pearson correlation matrix of an all-binary distribution's bits, as
    one product over the atoms of their standardized bits."""
    if any(s != 2 for s in d.alphabet_sizes):
        raise BadShape("pearson_matrix needs all-binary coordinates")
    p = d.probs.ravel()
    bits = np.transpose(np.unravel_index(np.arange(p.size), d.alphabet_sizes)).astype(float)
    ones, zeros = p @ bits, p @ (1.0 - bits)  # P(bit = 1), P(bit = 0)
    sd = np.sqrt(ones * zeros)
    if not sd.all():
        raise NonGeneric(f"coordinate {int(np.argmin(sd))} is deterministic")
    W = np.sqrt(p)[:, None] * ((bits - ones) / sd)
    R = W.T @ W
    np.fill_diagonal(R, 1.0)
    return R


def gaussian_mc_membership(R: np.ndarray, lam) -> bool:
    """Member iff ``I - Lambda^{1/2} R Lambda^{1/2} >= 0`` (``Lambda^{-1} - R >= 0``).

    ``R`` is the correlation matrix of a jointly Gaussian (or the Pearson
    matrix of an all-binary) vector.
    """
    R = np.asarray(R, dtype=float)
    k = R.shape[0]
    if R.shape != (k, k):
        raise NotCorrelationMatrix("R must be symmetric")
    if not np.isfinite(R).all():
        raise NotCorrelationMatrix("R must be finite")
    # np.allclose's tolerances (rtol 1e-5, atol 1e-9), written out: it costs
    # more than the eigenvalue tests on a small R
    if (np.abs(R - R.T) > 1e-9 + 1e-5 * np.abs(R.T)).any():
        raise NotCorrelationMatrix("R must be symmetric")
    if (np.abs(np.diagonal(R) - 1.0) > 1e-9 + 1e-5).any():
        raise NotCorrelationMatrix("R must have unit diagonal")
    if np.linalg.eigvalsh(R)[0] < -PSD_TOL:
        raise NotCorrelationMatrix("R must be positive semidefinite")
    A = _test_matrices("mc", R, (1,) * k, _check_lambda(lam, k)[None])
    return bool(np.linalg.eigh(A[0])[0].min(initial=np.inf) >= -PSD_TOL)


def detect_structure(d: JointDist) -> dict:
    """Flags readable directly off the Gram spectrum.

    ``pairwise_independent``: all cross blocks vanish.  ``common_part``:
    top eigenvalue reaches k (a non-constant function computable from each
    coordinate).  ``tilde_degenerate``: M is singular, i.e. some zero-mean
    single-coordinate functions, not all zero, sum to the zero function.
    """
    g = gram_matrix(d)
    k = d.k
    off = g.M - np.eye(len(g.M))  # cross blocks only: the diagonal blocks are I
    w, V = np.linalg.eigh(g.M) if len(g.M) else (np.array([1.0]), None)
    report = {
        "pairwise_independent": bool(np.max(np.abs(off), initial=0.0) < 1e-10),
        "common_part": bool(w[-1] >= k - _common_tol),
        "tilde_degenerate": bool(w[0] <= _common_tol),
        "top_eigenvalue": float(w[-1]),
        "min_eigenvalue": float(w[0]),
    }
    if report["tilde_degenerate"] and V is not None:
        report["kernel_witness"] = _witness_functions(g, V[:, 0])
    return report


def _rays(k: int, directions) -> np.ndarray:
    """Rays of a boundary trace, scaled to exit the lambda cube at t = 1: for
    k = 2, ``directions`` angles over the quarter circle; for k = 3, the
    m(m+1)/2 points of a simplex lattice, ``m = max(2, ceil(sqrt(directions)))``."""
    if k not in (2, 3):
        raise BadCoordinate("tracing supports k = 2 or 3")
    if type(directions) is bool or not isinstance(directions, (int, np.integer)) or directions < 1:
        raise BadParameter(f"directions must be an integer >= 1, got {directions!r}")
    if directions > _MAX_DIRECTIONS:
        raise BadParameter(f"directions must be at most {_MAX_DIRECTIONS}, got {directions}")
    if k == 2:
        theta = (np.arange(directions) + 0.5) / directions * (np.pi / 2)
        v = np.column_stack([np.cos(theta), np.sin(theta)])
    else:
        m = max(2, int(np.ceil(np.sqrt(directions))))
        a, b = np.nonzero(np.add.outer(np.arange(m), np.arange(m)) < m)
        v = np.column_stack([a + 0.5, b + 0.5, m - a - b - 0.5])
    return v / v.max(axis=1, keepdims=True)


def mc_boundary_trace(d: JointDist, directions: int = 64) -> list[tuple[np.ndarray, bool]]:
    """Exit points of the ``_rays`` from the origin, in closed form.

    Along ``t v`` the "mc" test matrix is ``I - t S M S`` with
    ``S = diag(sqrt(v))`` expanded over blocks, so the ray exits at
    ``t* = 1/lambda_max(S M S)``.  M has identity diagonal blocks and
    ``max v = 1``, so ``t* <= 1`` (the floor at 1 covers constant
    coordinates, whose blocks are empty).  Returns the last member point on
    each ray together with membership of the full-length point.
    """
    v = _rays(d.k, directions)
    g = gram_matrix(d)
    s = np.sqrt(np.repeat(v, g.block_dims, axis=1))
    top = np.linalg.eigvalsh(s[:, :, None] * g.M * s[:, None, :]).max(axis=1, initial=1)
    return [(u, True) if t <= 1 + PSD_TOL else (u / t, False) for u, t in zip(v, top)]


def rho2_from_trace(trace) -> float:
    """``inf (1 - l1)/l2`` over traced boundary points."""
    best = float("inf")
    for lam, _ in trace:
        l1, l2 = float(lam[0]), float(lam[1])
        if l2 > 1e-9:
            best = min(best, (1 - l1) / l2)
    return best
