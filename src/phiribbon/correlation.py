"""Scalar correlation measures, and the engine and row evaluator of all searches.

Maximal correlation is spectral (second singular value of the normalized
joint matrix).  The SDPI constant ``eta_phi`` and a region ray's exit are
suprema of one entropy ratio, estimated by :func:`_ascend`: multi-start
projected gradient ascent plus small-amplitude sweeps, every row re-evaluated
through the entropy module, so what they report is certified.  The ascent and
the region searches of ``ribbon_phi`` share one engine, :func:`_pgd`, which
moves every restart of a search as one row of a matrix, and one row
evaluator, :class:`_FlatProblem`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import JointDist, MarginalFunction
from .errors import BadParameter, NotBipartite
from .phi import PhiSpec, _entropy_rows, square

_VAR_FLOOR = 1e-12  # H_phi(f) at or below this (times Phi's scale, in the ascent) leaves no ratio
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
# the most restarts a search takes: a search allocates their rows before any
# other work, where a count numpy cannot allocate would fail as an internal error
_MAX_RESTARTS = 100_000
# the sweep amplitudes, as shares of the domain width (b - a): 0.45 halved
# fifteen times, down to about 1.4e-5; scaling by a power of two is exact
_AMPLITUDES = 0.45 * 0.5 ** np.arange(16)


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
        if self.restarts > _MAX_RESTARTS:
            raise BadParameter(f"restarts must be at most {_MAX_RESTARTS}, got {self.restarts}")


@dataclass(frozen=True)
class EtaEstimate:
    """An ``eta_phi`` answer: ``H_phi(E[f|Y]) / H_phi(f)`` at f = ``witness``,
    re-evaluated there through the entropy module (capped at 1), and rho^2,
    the lower bound every Phi's ``eta_Phi`` meets.

    ``converged`` is True for the ``Phi = t^2`` closed form, which runs no
    ascent and is exact (a law with one Y atom reads the exact value 0).
    Otherwise it says the ascent ended because its answer stopped
    improving: the winning restart met the gradient test or reached its step
    floor (about eight passes in a row with no improving rung), the best
    ratio rose by at most ``_STALL_RTOL`` (relative) over the last
    ``_STALL_PASSES`` passes (the stall exit), or a sweep row gave the answer
    (it certified above every end).  False means none of these held: the
    winning restart used up its ``max_iters`` moves, or no row had a
    positive ratio (the value is then 0).
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


class _FlatProblem:
    """Row-stacked Phi-entropy terms over function values f on atoms of
    probabilities p, each averaging map given by its joint masses ``M[a, c] =
    P(atom a, cell c)``.  Phi and Phi' are evaluated once per call, on ``X = F
    @ A = [f, E f, E_0 f, ...]``; w holds each column's cell probability and T
    the tables ``M / p`` (E f's all ones), so ``A[a, n + c] w[n + c] = p[a] T[c, a]``."""

    def __init__(self, p: np.ndarray, maps: list[np.ndarray], phi: PhiSpec):
        self.p, self.phi, self.n = p, phi, len(p)
        self.maps = [(M, M.sum(axis=0)) for M in maps]  # with each map's cell masses
        tables = [M / p[:, None] for M in maps]
        # owner marks the columns of f (-2), of E f (-1) and of E_i f (i)
        blocks, owner = [np.eye(self.n), p[:, None]], [-2] * self.n + [-1]
        for i, t in enumerate(tables):
            blocks.append(t * p[:, None] / (p @ t))  # F @ block = E_i f
            owner += [i] * t.shape[1]
        self.A = np.hstack(blocks)
        self.T = np.hstack([np.ones((self.n, 1)), *tables]).T
        self.w = np.concatenate([p, self.T @ p])
        owner = np.array(owner)
        # each column's coefficient in the gap is V0 + lambda @ V: 1 on f,
        # sum(lambda) - 1 on E f, and -lambda_i on E_i f
        self.V0 = 1.0 * (owner == -2) - (owner == -1)
        self.V = 1.0 * (owner == -1) - (owner == np.arange(len(tables))[:, None])

    def rows(self, F: np.ndarray, L: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gap ``H(f) - sum_i lambda_i H(E_i f)`` and its gradient, per row
        of F with the lambda point in the same row of L."""
        X = F @ self.A
        C = self.V0 + L @ self.V
        gap = (self.phi.safe_eval(X) * C) @ self.w
        D = self.phi.deriv(1, X) * C  # an f column feeds only its own atom
        return gap, self.p * (D[:, : self.n] + D[:, self.n :] @ self.T)

    def gap_terms(self, F: np.ndarray) -> np.ndarray:
        """Per row of F, the terms G of its gap: ``gap(f, lambda) = G @ [1, lambda]``."""
        return (self.phi.safe_eval(F @ self.A) * self.w) @ np.vstack([self.V0, self.V]).T

    def ratio(self, F: np.ndarray, C: np.ndarray, floor: float) -> tuple[np.ndarray, np.ndarray]:
        """``sum_i W_i H(E_i f) / H(f)`` and its gradient per row of F, the map
        weights spread as ``C = -(W @ V)[:, n:]`` in that row of C (or one row
        for all), -inf (gradient 0) where ``H(f) <= floor``.  Both are plain
        Bregman sums ``E[Phi(v) - Phi(m) - Phi'(m)(v - m)]`` at ``m = E f``,
        which lose digits near a constant: callers certify what they report."""
        n = self.n
        X = F @ self.A
        V, D = self.phi.safe_eval(X), self.phi.deriv(1, X)
        m, dm = X[:, n : n + 1], D[:, n : n + 1]
        B = V - V[:, n : n + 1] - dm * (X - m)  # 0 in the E f column
        den, num = B[:, :n] @ self.p, (B[:, n:] * C) @ self.w[n:]
        D -= dm
        defined = den.min() > floor  # every ratio defined (a NaN fails the test)
        if not defined:
            ok = den > floor
            den = np.where(ok, den, 1.0)
        ratio = num / den
        grad = ((D[:, n:] * C) @ self.T - ratio[:, None] * D[:, :n]) * (self.p / den[:, None])
        if defined:
            return ratio, grad
        return np.where(ok, ratio, -np.inf), np.where(ok[:, None], grad, 0.0)

    def certified(self, F: np.ndarray, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``sum_i W_i H(E_i f)`` and ``H(f)`` per row of F, the map weights in
        that row of W, re-evaluated through the entropy module; ``E_i f`` sums
        over atoms in order, as ``dist.cond_expectation`` does."""
        H = [_entropy_rows(self.phi, c, (M * F[:, :, None]).sum(axis=1) / c) for M, c in self.maps]
        return (W * np.column_stack(H)).sum(axis=1), _entropy_rows(self.phi, self.p, F)


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
    live = np.isfinite(vals) & ~converged & (opts.max_iters > 0)
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


def _sweep(U, amps, phi) -> np.ndarray:
    """Rows ``c + amp * u / max|u|`` about the domain's midpoint c, for every
    row u of U and every amplitude, clipped to the box and row-major by
    direction: the small-amplitude regime, where every Phi's ratio and gap
    reduce to the ``Phi = t^2`` case."""
    a, b = phi.domain
    U = U / np.maximum(np.max(np.abs(U), axis=1), 1e-300)[:, None]
    F = 0.5 * (a + b) + amps[None, :, None] * U[:, None, :]
    return np.clip(F, *_box(phi)).reshape(-1, U.shape[1])


def _ascend(prob: _FlatProblem, W, U, opts: SearchOpts, extra=(), stall_exit=False):
    """Climb ``prob.ratio`` in one ``_pgd`` call from a group of start rows per
    row of W (map weights) and of U (a quadratic-case direction): restart 0 at
    0.2 (b - a) along the direction, clipped to the box, then ``opts.restarts
    - 1`` uniform rows of ``default_rng(opts.seed)`` and the rows of ``extra``,
    the same in every group.  Then certify in one ``prob.certified`` call
    each group's ends and its ``_sweep`` at the ``_AMPLITUDES`` times (b - a)
    along its direction and every end, centred twice: the supremum often
    sits in that small-amplitude limit, a Rayleigh quotient.
    Returns, with a leading axis per group, the stack, its ``sum_i W_i H(E_i
    f)`` and ``H(f)`` (at least ``_VAR_FLOOR``), and which ends converged."""
    G, n = len(W), prob.n
    a, b = prob.phi.domain
    lo, hi = _box(prob.phi)
    rest = [np.random.default_rng(opts.seed).uniform(lo, hi, size=(opts.restarts - 1, n)), *extra]
    first = np.clip(0.5 * (a + b) + 0.2 * (b - a) * U, lo, hi)
    starts = np.hstack([first, np.tile(np.vstack(rest).ravel(), (G, 1))]).reshape(-1, n)
    # the objective's rounding error scales with Phi, so its floor does too
    floor = _VAR_FLOOR * max(1.0, *np.abs(prob.phi.safe_eval(np.array([lo, hi]))))
    C = np.repeat(-(W @ prob.V)[:, n:], len(starts) // G, axis=0)  # built once, not per call
    _, ends, conv = _pgd(lambda F, rows: [-x for x in prob.ratio(F, C[rows], floor)],
                         starts, lo, hi, opts, stall_exit=stall_exit)
    E = ends - (ends @ prob.p)[:, None]
    D = np.concatenate([U[:, None], E.reshape(G, -1, n)], axis=1).reshape(-1, n)
    sweeps = _sweep(D - (D @ prob.p)[:, None], (b - a) * _AMPLITUDES, prob.phi)
    F = np.concatenate([ends.reshape(G, -1, n), sweeps.reshape(G, -1, n)], axis=1)
    num, H = prob.certified(F.reshape(-1, n), np.repeat(W, F.shape[1], axis=0))
    return F, num.reshape(G, -1), np.maximum(H, _VAR_FLOOR).reshape(G, -1), conv.reshape(G, -1)


def eta_phi(
    d: JointDist,
    phi: PhiSpec,
    psi: PhiSpec | None = None,
    opts: SearchOpts | None = None,
) -> EtaEstimate:
    """Estimate the SDPI constant ``eta_Phi = sup_f H_phi(E[f|Y]) / H_phi(f)``
    over non-constant f on X, capped at 1.

    This is the one-map case of the ratio :func:`_ascend` climbs, started and
    swept along the maximal-correlation direction: the best certified row of
    its stack (the first on a tie) is the witness of the reported lower
    bound; with no positive ratio the value is 0.  ``psi`` is a retired slot:
    it accepts only ``None`` or ``phi`` itself, and anything else raises
    ``BadParameter``.  For ``Phi = t^2`` the ratio is ``Var E[f|Y] / Var f``,
    whose supremum rho^2 the maximal-correlation witness attains, so that
    witness, mapped affinely into the box, is the answer and no ascent runs.
    """
    if psi is not None and psi is not phi:
        raise BadParameter("eta_Phi has one Phi: psi must be None or phi itself")
    opts = opts or SearchOpts()
    P, px, _, sx, _ = _bipartite_matrices(d)
    a, b = phi.domain
    fwit, _, rho = mc_witness(d)
    svd_dir = fwit[sx]
    full = np.zeros(d.alphabet_sizes[0])
    if phi is square() and len(px) > 1:
        full[sx] = 0.5 * (a + b) + 0.45 * (b - a) * svd_dir / np.max(np.abs(svd_dir))
        return EtaEstimate(rho**2, MarginalFunction(0, full), rho**2, converged=True)

    prob = _FlatProblem(px, [P], phi)  # one map: the joint masses P(x, y)
    stack = _ascend(prob, np.ones((1, 1)), svd_dir[None], opts, stall_exit=True)
    F, num, H, conv = (x[0] for x in stack)  # the one group
    vals = np.where(H > _VAR_FLOOR, num / H, -np.inf)
    j = int(np.argmax(vals))
    full[sx] = F[j]
    return EtaEstimate(float(np.clip(vals[j], 0.0, 1.0)), MarginalFunction(0, full), rho**2,
                       converged=bool(vals[j] > 0.0 and (j >= len(conv) or conv[j])))
