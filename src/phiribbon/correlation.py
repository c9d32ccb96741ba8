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
from .phi import _CANCEL, _CLAMP, PhiSpec, _bregman_terms, square

_VAR_FLOOR = 1e-12  # H_phi(f) at or below this leaves the ratio undefined
_MARGIN = 1e-9  # share of the domain width kept off each end, where Phi' may be infinite
_ACCEPT = 1e-18  # decrease a trial move must exceed to be taken
_GRAD_TOL = 1e-9  # a row whose box-projected gradient norm is below this has converged
_STEP_INIT = 0.1  # first step, as a fraction of the box width: large enough to leave a corner
# step multiples every row tries in one pass, as rows of one objective call: a
# pass costs about the same for 5 trials as for 1, so a row that would have
# halved its way down, or crept up at x1.5 a pass, reaches a good step at once
_RUNGS = np.array([16.0, 4.0, 1.0, 0.25, 0.0625])
_GROW = 1.5  # next step after an accepted rung, as a multiple of that rung's step
_SHRINK = 0.5  # next step after a pass with no accepted rung, times the smallest rung
_NO_MOVE = _RUNGS[-1] * _SHRINK  # that step factor in one: a power of two, so the product is exact
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
    """An ``eta_phi`` answer: ``H_phi(E[f|Y]) / H_phi(f)`` at f = ``witness``
    (capped at 1), and rho^2, the lower bound every Phi's ``eta_Phi`` meets.

    ``converged`` is True for the ``Phi = t^2`` closed form, which runs no
    ascent and is exact (a law with one Y atom reads the exact value 0).
    Otherwise it says the ascent ended because its answer stopped
    improving: the winning restart met the gradient test or reached its step
    floor (about eight passes in a row with no improving rung), the best
    ratio rose by at most ``_STALL_RTOL`` (relative) over the last
    ``_STALL_PASSES`` passes (the stall exit), or the small-amplitude sweep
    gave the answer.  False means none of these held: the winning restart
    used up its ``max_iters`` moves, or no restart found a positive ratio.
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
    """Second singular value of ``Q[x,y] = p(x,y)/sqrt(p(x)p(y))``: the rho of
    :func:`mc_witness`."""
    return mc_witness(d)[2]


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


def _box(phi: PhiSpec) -> tuple[float, float]:
    """The box ``[lo, hi]`` search rows for ``phi`` stay in: the domain less its ``_MARGIN``."""
    a, b = phi.domain
    return a + _MARGIN * (b - a), b - _MARGIN * (b - a)


class _EtaProblem:
    """Row-stacked ratio ``H_phi(E[f|Y]) / H_phi(f)`` over f on the X support.

    As in ``ribbon_phi._FlatProblem``, one product ``X = F @ A`` with
    ``A = [I | P/p_y | p_x]`` stacks ``[f, E[f|Y], E f]`` for every row, and
    fixed matrices turn ``Phi(X)`` and ``Phi'(X)`` into both entropies and
    their gradients.  Rows lie in the open box, so ``E f`` is interior.
    """

    def __init__(self, P, px, py, phi: PhiSpec):
        n, ny = P.shape
        wx, wy = px / px.sum(), py / py.sum()
        self.phi, self.n = phi, n
        self.A = np.hstack([np.eye(n), P / py, wx[:, None]])
        # Bregman terms @ W = [H_phi(f), H_phi(E[f|Y])]; the E f column adds 0
        self.W = np.zeros((n + ny + 1, 2))
        self.W[:n, 0], self.W[n:-1, 1] = wx, wy
        # (Phi'(X) - Phi'(E f)) @ G = [dH_phi(f)/df, dH_phi(E[f|Y])/df]
        self.G = np.zeros((n + ny + 1, 2 * n))
        self.G[:n, :n], self.G[n:-1, n:] = np.diag(px), P.T
        self.cuts = np.array([0, n, n + ny])  # the f, E[f|Y] and E f column blocks
        # per entropy: its weights and columns of X
        self.terms = ((wx, slice(0, n)), (wy, slice(n, -1)))

    def rows(self, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Ratio and its gradient per row of F; -inf (gradient 0) where
        ``H_phi(f) <= _VAR_FLOOR`` leaves it undefined.

        Each entropy is a Bregman sum ``E[Phi(v) - Phi(m) - Phi'(m)(v - m)]``
        with ``m = E f``.  Where one is below ``phi._CANCEL`` times its Phi
        scale ``max |Phi(v)| + |Phi(m)|`` (cancellation), its terms on those
        rows are recomputed by quadrature, as in ``phi._entropy_rows``.
        """
        X = F @ self.A
        m, phi = X[:, -1:], self.phi
        V, D = phi.safe_eval(X), phi.deriv(1, X)
        pm, dm = V[:, -1:], D[:, -1:]
        H = (V - pm - dm * (X - m)) @ self.W
        # every row's Phi scale is at most 2 max |V| (pm is a column of V): entropies
        # above that bound's share are neither cancellation noise nor rounded below 0
        if not H.min() > 2 * _CANCEL * np.abs(V).max():
            scale = np.maximum.reduceat(np.abs(V), self.cuts, axis=1)[:, :2] + np.abs(pm)
            tiny = H < _CANCEL * scale
            for j, (w, cols) in enumerate(self.terms):
                r = tiny[:, j].nonzero()[0]
                if len(r):
                    H[r, j] = _bregman_terms(phi, X[r, cols], m[r, 0], V[r, cols], pm[r, 0]) @ w
            np.maximum(H, 0.0, out=H, where=H >= -_CLAMP)  # rounding below 0 reads 0
        dH = (D - dm) @ self.G
        den = H[:, 0]
        defined = den.min() > _VAR_FLOOR  # every ratio defined (a NaN fails the test)
        if not defined:
            ok = den > _VAR_FLOOR
            den = np.where(ok, den, 1.0)
        ratio = H[:, 1] / den
        grad = (dH[:, self.n :] - ratio[:, None] * dH[:, : self.n]) / den[:, None]
        if defined:
            return ratio, grad
        return np.where(ok, ratio, -np.inf), np.where(ok[:, None], grad, 0.0)


def _box_projected(G, F, lo, hi):
    """G with the entries that point out of the box at F zeroed."""
    if lo < F.min() and F.max() < hi:  # no entry on the box's edge (a NaN fails the test)
        return G
    return np.where(np.where(G > 0, F <= lo, (F >= hi) & (G < 0)), 0.0, G)


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
    (each the best rung of one pass), at step ``1e-14 (hi - lo)`` (the step
    floor), or when |g| < ``_GRAD_TOL`` (tested before each move); the first
    step is ``_STEP_INIT (hi - lo)``.  Rows sharing a ``groups`` label (from
    0; one group by default) stop together as soon as one of them has a
    value below ``stop_below``, at its start or after any pass: rows below it
    keep that first value and point, not the deepest the group could reach,
    and rows still moving report +inf.  With ``stall_exit`` the whole call ends once
    its best value has fallen by at most ``_STALL_RTOL`` (relative) over the
    last ``_STALL_PASSES`` passes, and every row then counts as converged.

    Returns final values, final rows, and which rows converged: those that
    met the gradient test or reached the step floor, which takes about eight
    passes in a row where no rung, from 16 times the step down to the floor,
    improved on the row (every row after a stall exit).
    """
    F = np.array(F, dtype=float)
    vals, G = objective(F, np.arange(len(F)))
    vals = np.fmin(vals, np.inf)  # NaN reads +inf
    step_floor = 1e-14 * (hi - lo)
    K = len(_RUNGS)
    D = _box_projected(G, F, lo, hi)
    converged = np.isfinite(vals) & ((D * D).sum(axis=1) < _GRAD_TOL**2)
    step = _STEP_INIT * (hi - lo)
    # the running rows, kept compact: indices into F, rows, values,
    # directions, steps and accepted moves; vals reads +inf until they stop
    live = np.isfinite(vals) & ~converged & (step > step_floor) & (opts.max_iters > 0)
    early = stop_below > -np.inf  # without a threshold (an ascent) no group exits early
    if early:
        groups = np.zeros(len(F), dtype=int) if groups is None else groups
        below = vals < stop_below
        exits = np.zeros(groups.max() + 1, dtype=bool)  # groups with a row below stop_below
        exits[groups[below]] = True
        live &= ~below
        run = np.flatnonzero(live & ~exits[groups])
    else:
        run = np.flatnonzero(live)
    Fr, vr, Dr = F[run], vals[run], D[run]
    step, moves = np.full(len(run), step), np.zeros(len(run), dtype=int)
    best, stalled = [np.min(vals)], False  # the best value after each pass, for the stall exit
    vals[live] = np.inf
    stopped = np.min(vals)  # the best value of the rows that have stopped
    first, rows = K * np.arange(len(run)), np.repeat(run, K)  # each row's first trial
    while len(run):
        steps = step[:, None] * _RUNGS
        trial = Fr[:, None, :] - steps[:, :, None] * Dr[:, None, :]
        np.minimum(np.maximum(trial, lo, out=trial), hi, out=trial)  # clip in place
        trial = trial.reshape(len(run) * K, -1)
        if project is not None:
            trial = project(trial)
        v, g = objective(trial, rows)
        v = np.fmin(v, np.inf).reshape(-1, K)
        pick = first + v.argmin(axis=1)
        best_v = v.ravel()[pick]
        ok = best_v < vr - _ACCEPT
        moved = np.count_nonzero(ok)
        if moved == len(run):  # most passes move every row
            Fr, vr, step = trial[pick], best_v, steps.ravel()[pick] * _GROW
            Dr = _box_projected(g[pick], Fr, lo, hi)
            moves += 1
        else:
            step *= _NO_MOVE
            if moved:
                i = ok.nonzero()[0]
                p = pick[i]
                Fr[i], vr[i], step[i] = trial[p], best_v[i], steps.ravel()[p] * _GROW
                Dr[i] = _box_projected(g[p], Fr[i], lo, hi)
                moves[i] += 1
        settled = ((Dr * Dr).sum(axis=1) < _GRAD_TOL**2) | (step <= step_floor)
        done = settled | (moves >= opts.max_iters)
        if early:
            below = vr < stop_below
            done |= below
        if stall_exit:
            best.append(min(stopped, vr.min()))
            stalled = len(best) > _STALL_PASSES and (
                best[-1 - _STALL_PASSES] - best[-1] <= _STALL_RTOL * abs(best[-1])
            )
            done |= stalled
        if np.count_nonzero(done):
            d = run[done]
            F[d], vals[d], converged[d] = Fr[done], vr[done], settled[done]
            stopped = min(stopped, vr[done].min())
            keep = ~done
            if early:
                exits[groups[run[below]]] = True
                keep &= ~exits[groups[run]]
            run, Fr, vr, Dr, step, moves = (
                run[keep], Fr[keep], vr[keep], Dr[keep], step[keep], moves[keep]
            )
            first, rows = K * np.arange(len(run)), np.repeat(run, K)
    converged |= stalled  # the best value has stopped moving, whichever row holds it
    return vals, F, converged


def _amplitude_sweep(directions, neg_ratio, px, phi) -> tuple[float, np.ndarray]:
    """Best ratio over f = c + eps * u for every direction and shrinking eps.

    Small-amplitude expansion of both entropies turns the ratio into a
    Rayleigh quotient, so sweeping eps downward recovers the supremum when
    it is attained in the constant-function limit.  eps halves from
    ``0.45 (b - a)`` to just above ``1e-5 (b - a)``; all directions and
    amplitudes are rows of one evaluation.
    """
    a, b = phi.domain
    U = directions - (directions @ px)[:, None]
    U /= np.maximum(np.max(np.abs(U), axis=1), 1e-300)[:, None]
    eps = 0.45 * (b - a) * 0.5 ** np.arange(16)
    F = 0.5 * (a + b) + eps[None, :, None] * U[:, None, :]
    F = np.clip(F, *_box(phi)).reshape(-1, U.shape[1])
    vals, _ = neg_ratio(F)
    j = int(np.argmin(vals))
    return float(-vals[j]), F[j]


def eta_phi(
    d: JointDist,
    phi: PhiSpec,
    psi: PhiSpec | None = None,
    opts: SearchOpts | None = None,
) -> EtaEstimate:
    """Estimate the SDPI constant ``eta_Phi = sup_f H_phi(E[f|Y]) / H_phi(f)``
    over non-constant f on X, capped at 1.

    The reported value is a lower bound on the supremum, achieved by the
    returned witness.  ``psi`` is a retired slot: it accepts only ``None`` or
    ``phi`` itself, and anything else raises ``BadParameter``.  For
    ``Phi = t^2`` the ratio is ``Var E[f|Y] / Var f``, whose supremum rho^2
    the maximal-correlation witness attains, so that witness, mapped affinely
    into the box, is the answer and no ascent runs.
    """
    if psi is not None and psi is not phi:
        raise BadParameter("eta_Phi has one Phi: psi must be None or phi itself")
    opts = opts or SearchOpts()
    P, px, py, sx, _ = _bipartite_matrices(d)
    a, b = phi.domain
    lo, hi = _box(phi)

    fwit, _, rho = mc_witness(d)
    svd_dir = fwit[sx]
    full = np.zeros(d.alphabet_sizes[0])
    if phi is square() and len(px) > 1:
        full[sx] = 0.5 * (a + b) + 0.45 * (b - a) * svd_dir / np.max(np.abs(svd_dir))
        return EtaEstimate(rho**2, MarginalFunction(0, full), rho**2, converged=True)

    rng = np.random.default_rng(opts.seed)
    prob = _EtaProblem(P, px, py, phi)

    def neg_ratio(F, rows=None):
        ratio, grad = prob.rows(F)
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
    sval, sf = _amplitude_sweep(np.array(directions), neg_ratio, px, phi)
    if sval > best_val:
        best_val, best_f, converged = sval, sf, True
    if best_f is None:
        best_f = np.clip(0.5 * (a + b) + 0.1 * (b - a) * svd_dir, lo, hi)
        best_val = 0.0
    full[sx] = best_f
    return EtaEstimate(
        value=float(min(best_val, 1.0)),
        witness=MarginalFunction(0, full),
        lower_bound_rho2=rho**2,
        converged=converged,
    )
