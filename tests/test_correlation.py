"""Unit tests for maximal correlation and the SDPI constant estimate."""

import numpy as np
import pytest

from phiribbon import correlation
from phiribbon.correlation import (
    _RUNGS,
    _STALL_PASSES,
    _STALL_RTOL,
    SearchOpts,
    _bipartite_matrices,
    _pgd,
    _ratio_and_grad,
    eta_lower_bound_rho2,
    eta_phi,
    maximal_correlation,
    mc_witness,
)
from phiribbon.dist import JointFunction, canonical, cond_expectation, make_joint
from phiribbon.errors import BadParameter, NotBipartite
from phiribbon.phi import PhiSpec, _entropy_rows, binent, parse_phi, square, xlogx


def test_search_opts_validation():
    with pytest.raises(BadParameter):
        SearchOpts(restarts=0)
    for bad in (
        {"max_iters": -1},
        {"max_iters": 10.0},
        {"restarts": 2.5},
        {"restarts": True},
        {"seed": -1},
    ):
        with pytest.raises(BadParameter):
            SearchOpts(**bad)
    SearchOpts(max_iters=0, seed=np.int64(3))


def test_maximal_correlation_needs_bipartite():
    with pytest.raises(NotBipartite):
        maximal_correlation(canonical("xor_triple"))


def test_maximal_correlation_dsbs():
    for lam in np.linspace(0.1, 0.9, 9):
        d = canonical("dsbs", lam=lam)
        assert maximal_correlation(d) == pytest.approx(lam, abs=1e-12)


def test_maximal_correlation_independent_is_zero():
    d = make_joint([2, 3], np.outer([0.4, 0.6], [0.2, 0.3, 0.5]).ravel())
    assert maximal_correlation(d) == pytest.approx(0.0, abs=1e-12)


def test_maximal_correlation_deterministic_copy_is_one():
    d = canonical("dsbs", lam=1.0)
    assert maximal_correlation(d) == pytest.approx(1.0, abs=1e-12)


def test_maximal_correlation_degenerate_support():
    # one side is effectively constant: rho = 0
    d = make_joint([2, 2], [0.5, 0.5, 0.0, 0.0])
    assert maximal_correlation(d) == 0.0


def test_mc_witness_achieves_rho():
    rng = np.random.default_rng(10)
    for _ in range(5):
        d = make_joint([3, 3], rng.dirichlet(np.ones(9)))
        f, g, rho = mc_witness(d)
        px = d.marginal_vector(0)
        py = d.marginal_vector(1)
        # unit variance, zero mean, and correlation equal to rho
        assert np.dot(px, f) == pytest.approx(0.0, abs=1e-9)
        assert np.dot(px, f * f) == pytest.approx(1.0, abs=1e-9)
        assert np.dot(py, g * g) == pytest.approx(1.0, abs=1e-9)
        corr = float(f @ d.probs @ g)
        assert corr == pytest.approx(rho, abs=1e-9)
        assert rho == pytest.approx(maximal_correlation(d), abs=1e-12)


def test_mc_witness_conditional_expectation_consistency():
    # E[g(Y)|X] should be rho * f(X) at the optimum
    d = canonical("dsbs", lam=0.6)
    f, g, rho = mc_witness(d)
    e = cond_expectation(d, JointFunction(np.broadcast_to(g, (2, 2)).copy()), 0)
    assert np.allclose(e.values, rho * f, atol=1e-9)


def test_eta_phi_square_equals_rho_squared():
    for lam in (0.3, 0.7):
        d = canonical("dsbs", lam=lam)
        est = eta_phi(d, square(), opts=SearchOpts(restarts=8, seed=1))
        assert est.value == pytest.approx(lam * lam, abs=1e-6)
        assert est.lower_bound_rho2 == pytest.approx(lam * lam, abs=1e-12)


def test_eta_phi_value_is_achieved_by_witness():
    from phiribbon.phi import _entropy_of_weighted

    d = canonical("dsbs", lam=0.5)
    phi = binent()
    est = eta_phi(d, phi, opts=SearchOpts(restarts=8, seed=2))
    px = d.marginal_vector(0)
    py = d.marginal_vector(1)
    fx = est.witness.values
    gy = (d.probs.T @ fx) / py
    num = _entropy_of_weighted(phi, py, gy)
    den = _entropy_of_weighted(phi, px, fx)
    assert den > 0
    assert num / den == pytest.approx(est.value, rel=1e-9)


def test_eta_phi_never_exceeds_one_for_matching_psi():
    d = canonical("dsbs", lam=0.9)
    est = eta_phi(d, xlogx(0.01, 4.0), opts=SearchOpts(restarts=8, seed=3))
    assert 0.0 <= est.value <= 1.0


def test_eta_phi_at_least_rho_squared():
    # the SDPI constant is bounded below by rho^2 for every admissible phi
    rng = np.random.default_rng(11)
    for _ in range(3):
        d = make_joint([2, 2], rng.dirichlet(np.ones(4)))
        est = eta_phi(d, binent(), opts=SearchOpts(restarts=8, seed=4))
        assert est.value >= eta_lower_bound_rho2(d) - 1e-6


def test_eta_phi_deterministic_given_seed():
    d = canonical("dsbs", lam=0.5)
    a = eta_phi(d, binent(), opts=SearchOpts(restarts=6, seed=5))
    b = eta_phi(d, binent(), opts=SearchOpts(restarts=6, seed=5))
    assert a.value == b.value
    assert np.array_equal(a.witness.values, b.witness.values)


def _ratio_and_grad_reference(F, P, px, py, phi, psi):
    """The ratio from two independent entropy evaluations, and its gradient."""
    mean = F @ px
    gy = (F @ P) / py
    num = _entropy_rows(psi, py, gy)
    den = _entropy_rows(phi, px, F)
    ok = den > 1e-12
    den = np.where(ok, den, 1.0)
    dpsi = psi.deriv(1, np.hstack([gy, mean[:, None]]))
    dphi = phi.deriv(1, np.hstack([F, mean[:, None]]))
    grad_num = dpsi[:, :-1] @ P.T - px * dpsi[:, -1:]
    grad_den = px * (dphi[:, :-1] - dphi[:, -1:])
    ratio = num / den
    grad = (grad_num - ratio[:, None] * grad_den) / den[:, None]
    # size of the terms the gradient cancels, per entry
    size = (
        np.abs(dpsi[:, :-1]) @ P.T
        + px * np.abs(dpsi[:, -1:])
        + np.abs(ratio)[:, None] * px * (np.abs(dphi[:, :-1]) + np.abs(dphi[:, -1:]))
    ) / den[:, None]
    return np.where(ok, ratio, -np.inf), np.where(ok[:, None], grad, 0.0), size


@pytest.mark.parametrize(
    "phi_name, psi_name",
    [(n, n) for n in ("square", "power:1.5", "sym:1.5", "binent", "xlogx", "xlogx:0.05,4",
                      "xlogx:0,4")]
    + [("sym:1.5", "binent"), ("power:1.5", "xlogx:0,4"), ("exp", "exp"), ("exp", "square")],
)
def test_ratio_and_grad_match_two_entropy_evaluations(phi_name, psi_name):
    # "exp" has no analytic Phi': its entropies and gradient use the stencil Phi'.
    exp = PhiSpec("exp", (-1.0, 1.0), eval=np.exp, d2=np.exp)
    phi = exp if phi_name == "exp" else parse_phi(phi_name)
    psi = phi if psi_name == phi_name else parse_phi(psi_name)
    rng = np.random.default_rng(12)
    P, px, py, _, _ = _bipartite_matrices(make_joint([3, 4], rng.dirichlet(np.ones(12))))
    a, b = phi.domain
    lo, hi = a + 1e-9 * (b - a), b - 1e-9 * (b - a)
    amps = 10.0 ** -np.arange(8)  # 1 down to 1e-7
    U = rng.uniform(-1, 1, size=(len(amps), 6, 3))
    c = rng.uniform(lo, hi, size=(1, 6, 1))
    F = np.clip(c + 0.5 * (hi - lo) * amps[:, None, None] * U, lo, hi).reshape(-1, 3)
    ratio, grad = _ratio_and_grad(F, P, px, py, phi, psi)
    want, want_grad, size = _ratio_and_grad_reference(F, P, px, py, phi, psi)
    ok = np.isfinite(want)
    assert np.array_equal(np.isfinite(ratio), ok)
    assert ok.sum() >= 20
    np.testing.assert_allclose(ratio[ok], want[ok], rtol=1e-9, atol=0)
    assert np.all(np.abs(grad - want_grad)[ok] <= 1e-10 * size[ok])


def test_pgd_groups_run_as_their_own_one_group_runs():
    # row-wise quadratics sum((f - C_r)^2) + off_r on the box [-1, 1]^3: group 0
    # has rows that reach -1 < stop_below and ends early, group 1 never goes
    # below stop_below and runs every row out, and group 2 starts with a row
    # already at its minimum
    rng = np.random.default_rng(4)
    C = rng.uniform(-0.5, 0.5, size=(12, 3))
    off = np.repeat([-1.0, 1.0, -1.0], 4)
    F = C + rng.uniform(-0.5, 0.5, size=(12, 3)) * np.linspace(0.01, 1.0, 12)[:, None]
    F[8] = C[8]
    groups = np.repeat([0, 1, 2], 4)

    def run(rows):
        def objective(X, idx):
            Y = X - C[rows][idx]
            return (Y * Y).sum(axis=1) + off[rows][idx], 2.0 * Y

        return _pgd(
            objective, F[rows], -1.0, 1.0, SearchOpts(restarts=1), stop_below=-0.5,
            groups=groups[rows] - groups[rows][0],
        )

    vals, ends, conv = run(np.arange(12))
    for g in range(3):
        rows = np.flatnonzero(groups == g)
        one = run(rows)
        assert np.array_equal(vals[rows], one[0])
        assert np.array_equal(ends[rows], one[1])
        assert np.array_equal(conv[rows], one[2])
    # every start row of groups 0 and 2 is below -0.5, so both stop before
    # the first pass with each row at its start; group 1 runs every row out
    for g in (0, 2):
        rows = groups == g
        Y = F[rows] - C[rows]
        assert np.array_equal(vals[rows], (Y * Y).sum(axis=1) + off[rows])
        assert np.array_equal(ends[rows], F[rows]) and vals[rows].max() < -0.5
    np.testing.assert_allclose(vals[groups == 1], 1.0, rtol=0, atol=1e-12)


def _quadratic_bowl(C, off, calls):
    """Row-wise ``sum((f - C_r)^2) + off_r``, logging each call's row indices and values."""

    def objective(X, idx):
        Y = X - C[idx]
        v = (Y * Y).sum(axis=1) + off[idx]
        calls.append((idx.copy(), v))
        return v, 2.0 * Y

    return objective


def test_pgd_group_starting_below_stop_below_makes_one_call():
    rng = np.random.default_rng(6)
    C = rng.uniform(-0.5, 0.5, size=(4, 3))
    F = C + 0.5
    F[2] = C[2] + 0.05  # one row below -0.5 ends the group; none has converged
    calls = []
    vals, ends, conv = _pgd(
        _quadratic_bowl(C, np.full(4, -1.0), calls), F, -1.0, 1.0, SearchOpts(), stop_below=-0.5
    )
    assert len(calls) == 1
    below = calls[0][1] < -0.5
    assert below.tolist() == [False, False, True, False]
    assert vals[2] == calls[0][1][2] and np.isinf(vals[~below]).all()
    assert np.array_equal(ends, F) and not conv.any()


def test_pgd_group_ends_at_its_first_pass_below_stop_below():
    # group 0 starts above -0.5 and crosses it while descending toward -1;
    # group 1 stays above it and keeps moving after group 0 ends
    rng = np.random.default_rng(7)
    C = rng.uniform(-0.5, 0.5, size=(8, 3))
    F = np.clip(C - 0.9 * np.sign(C), -1.0, 1.0)
    off = np.repeat([-1.0, 1.0], 4)
    groups = np.repeat([0, 1], 4)
    calls = []
    vals, ends, _ = _pgd(
        _quadratic_bowl(C, off, calls), F, -1.0, 1.0, SearchOpts(), stop_below=-0.5, groups=groups
    )
    assert (calls[0][1][:4] > -0.5).all()
    first = next(i for i, (idx, v) in enumerate(calls) if (v[idx < 4] < -0.5).any())
    assert all((idx >= 4).all() for idx, _ in calls[first + 1 :]) and len(calls) > first + 1
    idx, v = calls[first]
    crossed = idx[(idx < 4) & (v < -0.5)]
    assert np.array_equal(vals[crossed], v[(idx < 4) & (v < -0.5)])
    assert vals[crossed].min() > -0.99  # the first crossing, far from the minimum -1
    assert np.isinf(np.delete(vals[:4], crossed)).all()
    np.testing.assert_allclose(vals[4:], 1.0, rtol=0, atol=1e-12)


def test_pgd_pass_tries_every_rung_and_takes_the_best():
    # on the box [-100, 100]^3 the first step, 20, overshoots the bowl at every
    # rung, so the first pass accepts nothing; the second pass then accepts
    # several rungs and each row takes the lowest
    rng = np.random.default_rng(8)
    C = rng.uniform(-0.5, 0.5, size=(4, 3))
    F = C + rng.uniform(-1.0, 1.0, size=(4, 3))
    calls = []

    def objective(X, idx):
        Y = X - C[idx]
        v = (Y * Y).sum(axis=1)
        calls.append((idx.copy(), X.copy(), v))
        return v, 2.0 * Y

    vals, ends, _ = _pgd(objective, F, -100.0, 100.0, SearchOpts(max_iters=2))
    K = len(_RUNGS)
    assert len(calls) == 4 and np.array_equal(calls[0][0], np.arange(4))
    step, start, at = 20.0, F, np.arange(4)
    for p, (idx, X, v) in enumerate(calls[1:], 1):
        # one call per pass, holding every running row at every rung
        assert np.array_equal(idx, np.repeat(np.arange(4), K))
        D = 2.0 * (start - C)
        want = np.clip(start[:, None, :] - step * _RUNGS[:, None] * D[:, None, :], -100, 100)
        np.testing.assert_allclose(X.reshape(4, K, 3), want, rtol=1e-15, atol=1e-15)
        v, X = v.reshape(4, K), X.reshape(4, K, 3)
        before = (D * D).sum(axis=1) / 4.0
        if p == 1:
            # nothing accepted, so the next call's rungs, checked against
            # `want`, start from half this pass's smallest rung
            assert (v > before[:, None]).all()
            step *= _RUNGS[-1] * 0.5
            continue
        k = np.argmin(v, axis=1)
        assert ((v < before[:, None]).sum(axis=1) >= 2).all()  # more than one rung accepted
        start = X[at, k]  # the move taken is the lowest accepted rung
        assert len(set(k)) == 1
        step *= _RUNGS[k[0]] * 1.5
    np.testing.assert_array_equal(ends, start)
    np.testing.assert_array_equal(vals, ((start - C) ** 2).sum(axis=1))


def test_pgd_stall_exit_ends_a_flat_maximization():
    # the negated objective of one ascent: row 0, a bowl, reaches its best
    # value -1 in a few passes, and two Rosenbrock rows creep along their
    # valley far above it; the stall exit ends the call once the best value
    # stops moving, while the plain run lets the valley rows use their budget
    def rows(calls):
        def objective(X, idx):
            x, y = X[:, 0], X[:, 1]
            ros = (1 - x) ** 2 + 100 * (y - x * x) ** 2
            g_ros = np.column_stack([-2 * (1 - x) - 400 * x * (y - x * x), 200 * (y - x * x)])
            bowl = ((X - 0.3) ** 2).sum(axis=1) - 1.0
            v = np.where(idx == 0, bowl, ros)
            calls.append(v)
            return v, np.where((idx == 0)[:, None], 2 * (X - 0.3), g_ros)

        return objective

    F = np.array([[0.9, -0.5], [-1.2, 1.0], [-1.5, 1.8]])
    plain, flat = [], []
    vals, _, conv = _pgd(rows(plain), F, -2.0, 2.0, SearchOpts(max_iters=300))
    svals, _, sconv = _pgd(rows(flat), F, -2.0, 2.0, SearchOpts(max_iters=300), stall_exit=True)
    assert len(plain) > 100 and not conv[1:].any()
    best = np.minimum.accumulate([v.min() for v in flat])
    stalled = [
        t for t in range(_STALL_PASSES, len(best))
        if best[t - _STALL_PASSES] - best[t] <= _STALL_RTOL * abs(best[t])
    ]
    assert stalled[0] == len(flat) - 1 < 30  # the first pass the test holds is the last
    assert svals[0] == pytest.approx(-1.0, abs=1e-12) and svals[0] == vals[0]
    assert sconv.all() and (svals[1:] > vals[1:]).all()


@pytest.mark.parametrize(
    "law, phi_name, parent",
    [("dsbs", "xlogx", 99), ("random", "power:1.5", 163)],
)
def test_eta_phi_objective_budget(monkeypatch, law, phi_name, parent):
    # the parent counts come from the plain one-step ascent that ran every row
    # to max_iters; the ladder and the stall exit must stay well under them
    calls = []
    real = correlation._ratio_and_grad

    def counted(*args):
        calls.append(len(args[0]))
        return real(*args)

    monkeypatch.setattr(correlation, "_ratio_and_grad", counted)
    if law == "dsbs":
        d = canonical("dsbs", lam=0.5)
    else:
        d = make_joint([3, 3], np.random.default_rng(0).dirichlet(np.ones(9)))
    est = eta_phi(d, parse_phi(phi_name), opts=SearchOpts(restarts=4, max_iters=100))
    assert len(calls) <= 0.4 * parent
    assert est.converged
    if law == "dsbs":
        assert est.value == pytest.approx(0.25, abs=2e-3)
