"""Scalar correlation measures, and the projected-gradient engine of all searches.

Maximal correlation is spectral (second singular value of the normalized
joint matrix).  The SDPI constant ``eta_phi`` is a supremum of entropy
ratios with no closed form in general, so it is estimated by multi-start
projected gradient ascent plus a small-amplitude sweep; every reported
value is achieved by a concrete witness function and is therefore a
certified lower bound.  The ascent and the region searches of
``ribbon_phi`` share one engine, :func:`_pgd`, which moves every restart of
a search as one row of a matrix, so each objective evaluation is a single
row-stacked NumPy call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import JointDist, MarginalFunction
from .errors import BadParameter, NotBipartite
from .phi import PhiSpec, _entropy_from_values

_VAR_FLOOR = 1e-12  # H_phi(f) at or below this leaves the ratio undefined
_ACCEPT = 1e-18  # decrease a trial move must exceed to be taken
_GRAD_TOL = 1e-9  # a row whose box-projected gradient norm is below this has converged
_STEP_INIT = 0.1  # first step, as a fraction of the box width: large enough to leave a corner
# step multiples every row tries in one pass, as rows of one objective call: a
# pass costs about the same for 5 trials as for 1, so a row that would have
# halved its way down, or crept up at x1.5 a pass, reaches a good step at once
_RUNGS = np.array([16.0, 4.0, 1.0, 0.25, 0.0625])
_GROW = 1.5  # next step after an accepted rung, as a multiple of that rung's step
_SHRINK = 0.5  # next step after a pass with no accepted rung, times the smallest rung
# the stall exit of an ascent: it ends once its best value has improved by at
# most _STALL_RTOL (relative) over the last _STALL_PASSES passes, so rows that
# still creep along a flat ridge do not run out their whole move budget
_STALL_PASSES = 10
_STALL_RTOL = 1e-10


@dataclass(frozen=True)
class SearchOpts:
    """Multi-start search budget: restarts (rows moved together), accepted
    moves per row (``max_iters``; each move is the best step of one
    ``_pgd`` pass), and the seed of the random starts."""

    restarts: int = 32
    max_iters: int = 500
    seed: int = 0

    def __post_init__(self):
        for name, least in (("restarts", 1), ("max_iters", 0), ("seed", 0)):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < least:
                raise BadParameter(f"{name} must be an integer >= {least}, got {v!r}")


@dataclass(frozen=True)
class EtaEstimate:
    """An ``eta_phi`` answer: a ratio achieved by ``witness``, and rho^2.

    ``converged`` says the ascent ended because its answer stopped
    improving: the winning restart met the gradient test, the best ratio
    rose by at most ``_STALL_RTOL`` (relative) over the last
    ``_STALL_PASSES`` passes (the stall exit), or the small-amplitude sweep
    gave the answer.  False means none of these held: the restarts stopped
    on their step floor or their ``max_iters`` budget first.
    """

    value: float
    witness: MarginalFunction
    lower_bound_rho2: float
    converged: bool


def _bipartite_matrices(d: JointDist):
    if d.k != 2:
        raise NotBipartite(f"need a bipartite distribution, got k={d.k}")
    px = d.marginal_vector(0)
    py = d.marginal_vector(1)
    sx = px > 0
    sy = py > 0
    P = d.probs[np.ix_(sx, sy)]
    return P, px[sx], py[sy], sx, sy


def maximal_correlation(d: JointDist) -> float:
    """Second singular value of ``Q[x,y] = p(x,y)/sqrt(p(x)p(y))``."""
    P, px, py, _, _ = _bipartite_matrices(d)
    if len(px) < 2 or len(py) < 2:
        return 0.0
    Q = P / np.sqrt(np.outer(px, py))
    s = np.linalg.svd(Q, compute_uv=False)
    return float(min(1.0, s[1]))


def mc_witness(d: JointDist) -> tuple[np.ndarray, np.ndarray, float]:
    """Optimal (f, g) pair on the full alphabets, unit variance, plus rho.

    Entries at zero-probability symbols are 0.
    """
    P, px, py, sx, sy = _bipartite_matrices(d)
    f_full = np.zeros(d.alphabet_sizes[0])
    g_full = np.zeros(d.alphabet_sizes[1])
    if len(px) < 2 or len(py) < 2:
        f_full[np.flatnonzero(sx)[0]] = 1.0  # arbitrary, rho is 0
        g_full[np.flatnonzero(sy)[0]] = 1.0
        return f_full, g_full, 0.0
    Q = P / np.sqrt(np.outer(px, py))
    U, s, Vt = np.linalg.svd(Q)
    f = U[:, 1] / np.sqrt(px)
    g = Vt[1, :] / np.sqrt(py)
    # normalize to zero mean, unit variance (they already are, up to sign)
    f -= np.dot(px, f)
    g -= np.dot(py, g)
    f /= max(np.sqrt(np.dot(px, f * f)), 1e-300)
    g /= max(np.sqrt(np.dot(py, g * g)), 1e-300)
    if float(f @ (P @ g)) < 0:
        g = -g
    f_full[sx] = f
    g_full[sy] = g
    return f_full, g_full, float(min(1.0, s[1]))


def eta_lower_bound_rho2(d: JointDist) -> float:
    return maximal_correlation(d) ** 2


def _ratio_and_grad(F, P, px, py, phi: PhiSpec, psi: PhiSpec):
    """Row-wise objective H_psi(E[f|Y]) / H_phi(f) and its gradient in f.

    ``E[E[f|Y]] = E f``, so both entropies share the mean m: Phi and Phi' are
    each evaluated once, on the stack ``[f, E[f|Y], m]`` (once per function
    when psi is not phi), and feed both entropies and the gradient.
    Rows with ``H_phi(f) <= _VAR_FLOOR`` have no ratio; they report -inf.
    """
    tx, ty = px.sum(), py.sum()
    mean = F @ px / tx
    gy = (F @ P) / py
    if psi is phi:
        S = np.hstack([F, gy, mean[:, None]])
        vx, dx = vy, dy = phi.safe_eval(S), phi.deriv(1, S)
        xs, ys = slice(0, F.shape[1]), slice(F.shape[1], -1)
    else:
        Sx, Sy = np.hstack([F, mean[:, None]]), np.hstack([gy, mean[:, None]])
        vx, dx = phi.safe_eval(Sx), phi.deriv(1, Sx)
        vy, dy = psi.safe_eval(Sy), psi.deriv(1, Sy)
        xs = ys = slice(0, -1)
    den = _entropy_from_values(phi, px, tx, F, mean, vx[:, xs], vx[:, -1], dx[:, -1])
    num = _entropy_from_values(psi, py, ty, gy, mean, vy[:, ys], vy[:, -1], dy[:, -1])
    ok = den > _VAR_FLOOR
    den = np.where(ok, den, 1.0)
    # dN/df_x = sum_y p(x,y) Psi'(g_y) - p(x) Psi'(E f)
    grad_num = dy[:, ys] @ P.T - px * dy[:, -1:]
    grad_den = px * (dx[:, xs] - dx[:, -1:])
    ratio = num / den
    grad = (grad_num - ratio[:, None] * grad_den) / den[:, None]
    return np.where(ok, ratio, -np.inf), np.where(ok[:, None], grad, 0.0)


def _pgd(
    objective, F, lo, hi, opts: SearchOpts, project=None, stop_below=-np.inf, groups=None,
    stall_exit=False,
):
    """Projected gradient descent from every row of ``F`` at once.

    ``objective`` maps an (R, n) matrix and the indices of its rows in ``F``
    to a value and a gradient row per row, +inf where undefined.  Each pass
    tries every running row at every rung of a step ladder,
    ``clip(f - step * r * g, lo, hi)`` for r in ``_RUNGS`` with the
    box-projected gradient g, then ``project`` if given, all as the rows of
    one objective call.  A row takes its best rung if that lowers its value
    by more than ``_ACCEPT``, and its next step is that rung's step times
    ``_GROW``; with no rung accepted the step becomes the smallest rung's
    times ``_SHRINK``.  A row stops after ``opts.max_iters`` accepted moves
    (each the best rung of one pass), at step ``1e-14 (hi - lo)``, or when
    |g| < ``_GRAD_TOL`` (tested before each move); the first step is
    ``_STEP_INIT (hi - lo)``.  Rows sharing a ``groups`` label (from 0; one
    group by default) stop together as soon as one of them has a value below
    ``stop_below``, at its start or after any pass: rows below it keep that
    first value and point, not the deepest the group could reach, and rows
    still moving report +inf.  With ``stall_exit`` the whole call ends once
    its best value has fallen by at most ``_STALL_RTOL`` (relative) over the
    last ``_STALL_PASSES`` passes, and every row then counts as converged.

    Returns final values, final rows, and which rows met the gradient test
    (all of them after a stall exit).
    """
    F = np.array(F, dtype=float)
    vals, G = objective(F, np.arange(len(F)))
    vals = np.where(np.isnan(vals), np.inf, vals)
    groups = np.zeros(len(F), dtype=int) if groups is None else groups
    step_floor = 1e-14 * (hi - lo)
    K = len(_RUNGS)

    def box_projected(G, F):
        return np.where(((F <= lo) & (G > 0)) | ((F >= hi) & (G < 0)), 0.0, G)

    D = box_projected(G, F)
    converged = np.isfinite(vals) & (np.linalg.norm(D, axis=1) < _GRAD_TOL)
    step = _STEP_INIT * (hi - lo)
    # the running rows, kept compact: indices into F, rows, values,
    # directions, steps and accepted moves; vals reads +inf until they stop
    live = np.isfinite(vals) & ~converged & (step > step_floor) & (opts.max_iters > 0)
    below = vals < stop_below
    exits = np.zeros(groups.max() + 1, dtype=bool)  # groups with a row below stop_below
    exits[groups[below]] = True
    run = np.flatnonzero(live & ~exits[groups])
    Fr, vr, Dr = F[run], vals[run], D[run]
    step, moves = np.full(len(run), step), np.zeros(len(run), dtype=int)
    best, stalled = [np.min(vals)], False  # the best value after each pass, for the stall exit
    vals[live & ~below] = np.inf
    while len(run):
        m, at = len(run), np.arange(len(run))
        steps = step[:, None] * _RUNGS
        trial = np.clip(Fr[:, None, :] - steps[:, :, None] * Dr[:, None, :], lo, hi)
        trial = trial.reshape(m * K, -1)
        if project is not None:
            trial = project(trial)
        v, g = objective(trial, np.repeat(run, K))
        v = np.where(np.isnan(v), np.inf, v).reshape(m, K)
        k = np.argmin(v, axis=1)
        best_v, pick = v[at, k], at * K + k
        ok = best_v < vr - _ACCEPT
        Fr = np.where(ok[:, None], trial[pick], Fr)
        vr = np.where(ok, best_v, vr)
        Dr = np.where(ok[:, None], box_projected(g[pick], trial[pick]), Dr)
        moves += ok
        step = np.where(ok, steps[at, k] * _GROW, step * _RUNGS[-1] * _SHRINK)
        conv = np.linalg.norm(Dr, axis=1) < _GRAD_TOL
        below = vr < stop_below
        if stall_exit:
            best.append(min(np.min(vals), np.min(vr)))
            stalled = len(best) > _STALL_PASSES and (
                best[-1 - _STALL_PASSES] - best[-1] <= _STALL_RTOL * abs(best[-1])
            )
        done = conv | stalled | (moves >= opts.max_iters) | (step <= step_floor) | below
        if done.any():
            F[run[done]], vals[run[done]], converged[run[done]] = Fr[done], vr[done], conv[done]
            exits[groups[run[below]]] = True
            keep = ~done & ~exits[groups[run]]
            run, Fr, vr, Dr, step, moves = (
                run[keep], Fr[keep], vr[keep], Dr[keep], step[keep], moves[keep]
            )
    converged |= stalled  # the best value has stopped moving, whichever row holds it
    return vals, F, converged


def _amplitude_sweep(directions, neg_ratio, px, a, b) -> tuple[float, np.ndarray]:
    """Best ratio over f = c + eps * u for every direction and shrinking eps.

    Small-amplitude expansion of both entropies turns the ratio into a
    Rayleigh quotient, so sweeping eps downward recovers the supremum when
    it is attained in the constant-function limit.  eps halves from
    ``0.45 (b - a)`` to just above ``1e-5 (b - a)``; all directions and
    amplitudes are rows of one evaluation.
    """
    U = directions - (directions @ px)[:, None]
    U /= np.maximum(np.max(np.abs(U), axis=1), 1e-300)[:, None]
    eps = 0.45 * (b - a) * 0.5 ** np.arange(16)
    F = 0.5 * (a + b) + eps[None, :, None] * U[:, None, :]
    F = np.clip(F, a + 1e-9 * (b - a), b - 1e-9 * (b - a)).reshape(-1, U.shape[1])
    vals, _ = neg_ratio(F)
    j = int(np.argmin(vals))
    return float(-vals[j]), F[j]


def eta_phi(
    d: JointDist,
    phi: PhiSpec,
    psi: PhiSpec | None = None,
    opts: SearchOpts | None = None,
) -> EtaEstimate:
    """Estimate ``sup_f H_psi(E[f|Y]) / H_phi(f)`` over non-constant f on X.

    The reported value is a lower bound on the supremum, achieved by the
    returned witness.  ``psi`` defaults to ``phi``.
    """
    opts = opts or SearchOpts()
    psi = psi or phi
    P, px, py, sx, _ = _bipartite_matrices(d)
    a, b = phi.domain
    lo = a + 1e-9 * (b - a)
    hi = b - 1e-9 * (b - a)
    rng = np.random.default_rng(opts.seed)

    fwit, _, rho = mc_witness(d)
    svd_dir = fwit[sx]

    def neg_ratio(F, rows=None):
        ratio, grad = _ratio_and_grad(F, P, px, py, phi, psi)
        return -ratio, -grad

    # restart 0 follows the quadratic-case witness, the others are uniform
    starts = np.vstack([
        np.clip(0.5 * (a + b) + 0.2 * (b - a) * svd_dir, lo, hi),
        rng.uniform(lo, hi, size=(opts.restarts - 1, len(px))),
    ])
    vals, ends, conv = _pgd(neg_ratio, starts, lo, hi, opts, stall_exit=True)
    j = int(np.argmin(vals))
    best_val, best_f, converged = 0.0, None, False
    if -vals[j] > 0.0:
        best_val, best_f, converged = float(-vals[j]), ends[j], bool(conv[j])
    # the supremum often sits in the small-amplitude limit around a
    # constant; sweep that regime explicitly along the best directions
    directions = [svd_dir] if best_f is None else [svd_dir, best_f - px @ best_f]
    sval, sf = _amplitude_sweep(np.array(directions), neg_ratio, px, a, b)
    if sval > best_val:
        best_val, best_f, converged = sval, sf, True
    if best_f is None:
        best_f = np.clip(0.5 * (a + b) + 0.1 * (b - a) * svd_dir, lo, hi)
        best_val = 0.0
    full = np.zeros(d.alphabet_sizes[0])
    full[sx] = best_f
    return EtaEstimate(
        value=float(min(best_val, 1.0) if psi is phi else best_val),
        witness=MarginalFunction(0, full),
        lower_bound_rho2=rho**2,
        converged=converged,
    )
