"""Unit tests for maximal correlation and the SDPI constant estimate."""

import numpy as np
import pytest

from phiribbon import correlation
from phiribbon.correlation import (
    _ACCEPT,
    _GRAD_TOL,
    _GROW,
    _MAX_RESTARTS,
    _RUNGS,
    _SHRINK,
    _STALL_PASSES,
    _STALL_RTOL,
    _STEP_INIT,
    _VAR_FLOOR,
    SearchOpts,
    _bipartite_matrices,
    _FlatProblem,
    _pgd,
    eta_phi,
    maximal_correlation,
    mc_witness,
)
from phiribbon.dist import JointFunction, MarginalFunction, canonical, cond_expectation, make_joint
from phiribbon.errors import BadParameter, NotBipartite
from phiribbon import phi as phi_module
from phiribbon.phi import (
    PhiSpec,
    _entropy_rows,
    binent,
    cond_phi_entropies,
    marginal_phi_entropy,
    parse_phi,
    square,
    xlogx,
)
from phiribbon.ribbon_phi import _EXIT_BELOW, _project_density, _seeds
from phiribbon.ribbon_phi import _FlatProblem as _LawProblem


def test_search_opts_validation():
    with pytest.raises(BadParameter):
        SearchOpts(restarts=0)
    for bad in (
        {"max_iters": -1},
        {"max_iters": 10.0},
        {"restarts": 2.5},
        {"restarts": True},
        {"seed": -1},
        {"restarts": _MAX_RESTARTS + 1},
        {"restarts": 10**18},
    ):
        with pytest.raises(BadParameter):
            SearchOpts(**bad)
    SearchOpts(max_iters=0, seed=np.int64(3))
    SearchOpts(restarts=np.int64(_MAX_RESTARTS))


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
        assert est.value == pytest.approx(lam * lam, abs=1e-12)
        assert est.lower_bound_rho2 == pytest.approx(lam * lam, abs=1e-12)


def _counting_ratio(monkeypatch):
    calls = []
    real = correlation._FlatProblem.ratio

    def counted(self, F, *args):
        calls.append(len(F))
        return real(self, F, *args)

    monkeypatch.setattr(correlation._FlatProblem, "ratio", counted)
    return calls


def _ratio_at_witness(d, phi, est):
    gy = cond_expectation(d, est.witness.lift(d), 1)
    return marginal_phi_entropy(d, phi, gy).value / marginal_phi_entropy(d, phi, est.witness).value


def test_eta_phi_square_is_the_closed_form_at_its_witness(monkeypatch):
    # rho^2 from the SVD, achieved by the maximal-correlation witness mapped
    # into the box: no ascent, whether psi is unset or the same spec
    calls = _counting_ratio(monkeypatch)
    rng = np.random.default_rng(13)
    laws = [canonical("dsbs", lam=0.6), make_joint([3, 2], rng.dirichlet(np.ones(6)))]
    laws += [make_joint([4, 3], np.r_[0.0, 0.0, 0.0, rng.dirichlet(np.ones(9))])]  # an empty x
    laws += [make_joint([3, 4], rng.dirichlet(np.ones(12))) for _ in range(4)]
    laws += [make_joint([3, 2], [0.2, 0.0, 0.5, 0.0, 0.3, 0.0])]  # one y: the exact value is 0
    for d in laws:
        for psi in (None, square()):
            est = eta_phi(d, square(), psi, SearchOpts(restarts=4, seed=2))
            assert est.value == est.lower_bound_rho2 == maximal_correlation(d) ** 2
            assert est.converged
            w = est.witness.values[d.marginal_vector(0) > 0]
            assert np.all((-1.0 < w) & (w < 1.0)) and np.ptp(w) > 0.5
            ratio = _ratio_at_witness(d, square(), est)
            assert ratio == pytest.approx(est.value, rel=1e-12)
    assert calls == []
    # one atom of X in the support leaves no non-constant f: no closed form either
    point = make_joint([2, 2], [0.5, 0.5, 0.0, 0.0])
    assert eta_phi(point, square(), opts=SearchOpts(restarts=2, max_iters=5)).value == 0.0
    assert len(calls) > 0


def test_eta_phi_rejects_a_second_phi():
    # eta_Phi has one Phi: the third slot takes only None or phi itself
    d = canonical("dsbs", lam=0.5)
    for phi, psi in ((xlogx(), binent()), (square(), binent()), (binent(), parse_phi("xlogx"))):
        with pytest.raises(BadParameter):
            eta_phi(d, phi, psi, SearchOpts(restarts=2, max_iters=5))


def _eta_corpus():
    """Seeded laws: dsbs, sum-iid, random (2,2) to (4,4), some with a
    zero-probability symbol of X, Y or both, and near-independent (3,3)."""
    rng = np.random.default_rng(37)
    laws = [canonical("dsbs", lam=lam) for lam in (0.2, 0.5, 0.8)]
    laws += [canonical("sum_iid_bernoulli", q=0.5, n=n, m=m) for n, m in ((3, 1), (4, 2))]
    for shape in ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (3, 4), (4, 3), (4, 4), (2, 2), (3, 3)):
        laws.append(make_joint(list(shape), rng.dirichlet(np.ones(np.prod(shape)))))
    empty = (((3, 3), 1, None), ((4, 3), None, 2), ((3, 4), 0, 3), ((4, 4), 2, 1), ((3, 2), 2, None))
    for shape, x, y in empty:  # the empty symbols of X and Y
        probs = rng.dirichlet(np.ones(np.prod(shape))).reshape(shape)
        if x is not None:
            probs[x] = 0.0
        if y is not None:
            probs[:, y] = 0.0
        laws.append(make_joint(list(shape), (probs / probs.sum()).ravel()))
    for _ in range(5):
        q = np.outer(rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3)))
        q *= 1.0 + 0.02 * rng.uniform(-1.0, 1.0, size=(3, 3))
        laws.append(make_joint([3, 3], (q / q.sum()).ravel()))
    return laws


def test_eta_phi_value_is_achieved_by_witness():
    # every reported value is the ratio at its witness, recomputed through
    # the public entropy and conditional-expectation functions
    compared = 0
    for d in _eta_corpus():
        for name in ("power:1.5", "sym:1.5", "binent", "xlogx", "xlogx:0.05,4", "xlogx:0,4"):
            phi = parse_phi(name)
            est = eta_phi(d, phi, opts=SearchOpts(restarts=4, max_iters=100, seed=compared))
            gy = cond_expectation(d, est.witness.lift(d), 1)
            den = marginal_phi_entropy(d, phi, est.witness).value
            assert den > 0
            ratio = marginal_phi_entropy(d, phi, gy).value / den
            capped = est.value == 1.0 and ratio >= 1.0
            assert capped or abs(est.value - ratio) <= 2e-10 * abs(ratio), (name, compared)
            compared += 1
    assert compared == 150


_NON_SQUARE = [
    "power:1.5", "power:1.1", "sym:1.5", "sym:1.2", "sym:2", "binent", "xlogx", "xlogx:0.05,4",
    "xlogx:0,4",
]


@pytest.mark.parametrize("name", _NON_SQUARE)
def test_eta_phi_of_dsbs_is_at_most_lambda_squared(name):
    # eta_Phi(DSBS(lam)) = lam^2; a Phi that cancels inside its own formula
    # near a zero of Phi (binent and sym did near t = 0) reads above it at
    # small amplitudes, as far as 2.6e-4 for sym:1.5
    phi = parse_phi(name)
    for lam in (0.1, 0.2, 0.5, 0.8, 0.9):
        d = canonical("dsbs", lam=lam)
        for seed in range(4):
            for restarts, max_iters in ((4, 100), (16, 500)):
                est = eta_phi(d, phi, opts=SearchOpts(restarts, max_iters, seed))
                assert est.value <= lam * lam + 1e-6, (lam, seed, restarts, est.value)


@pytest.mark.parametrize("name", _NON_SQUARE)
def test_small_amplitude_ratio_on_dsbs_is_lambda_squared(name):
    # at small amplitude about the domain's centre the ratio is lam^2 up to
    # O(amplitude^2) on DSBS; around 0 this is where binent and sym cancelled
    # (the ratio read 0.040358 for sym:1.5, against 0.0400000 to 60 digits)
    phi = parse_phi(name)
    a, b = phi.domain
    d = canonical("dsbs", lam=0.2)
    f = MarginalFunction(0, 0.5 * (a + b) + 0.5 * (b - a) * np.array([-1.138e-6, 1.015e-6]))
    gy = cond_expectation(d, f.lift(d), 1)
    ratio = marginal_phi_entropy(d, phi, gy).value / marginal_phi_entropy(d, phi, f).value
    assert abs(ratio - 0.04) <= 1e-8, ratio


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
        assert est.lower_bound_rho2 == maximal_correlation(d) ** 2
        assert est.value >= est.lower_bound_rho2 - 1e-6


@pytest.mark.parametrize("name", ["square"] + _NON_SQUARE)
def test_eta_phi_is_at_most_dobrushins_coefficient(name):
    # every convex Phi contracts at least as much as total variation does:
    # eta_Phi <= theta = max over x, x' of TV(P(Y|x), P(Y|x'))
    # (Cohen, Kemperman and Zbaganu 1993; Raginsky 2016)
    phi = parse_phi(name)
    rng = np.random.default_rng(20)
    for shape in ((2, 2), (2, 3), (3, 3), (3, 4), (4, 4)):
        for weight in (0.3, 1.0, 5.0):
            d = make_joint(list(shape), rng.dirichlet(np.full(shape[0] * shape[1], weight)))
            K = d.probs / d.probs.sum(axis=1, keepdims=True)
            theta = 0.5 * np.abs(K[:, None, :] - K[None, :, :]).sum(axis=2).max()
            est = eta_phi(d, phi, opts=SearchOpts(4, 100, int(rng.integers(2**31))))
            assert est.value <= theta + 1e-9, (shape, weight, est.value, theta)


def test_eta_phi_deterministic_given_seed():
    d = canonical("dsbs", lam=0.5)
    a = eta_phi(d, binent(), opts=SearchOpts(restarts=6, seed=5))
    b = eta_phi(d, binent(), opts=SearchOpts(restarts=6, seed=5))
    assert a.value == b.value
    assert np.array_equal(a.witness.values, b.witness.values)


def _ratio_and_grad_reference(F, P, px, py, phi):
    """The ratio from two independent entropy evaluations, and its gradient."""
    mean = F @ px
    gy = (F @ P) / py
    num = _entropy_rows(phi, py, gy)
    den = _entropy_rows(phi, px, F)
    ok = den > 1e-12
    den = np.where(ok, den, 1.0)
    dnum = phi.deriv(1, np.hstack([gy, mean[:, None]]))
    dden = phi.deriv(1, np.hstack([F, mean[:, None]]))
    grad_num = dnum[:, :-1] @ P.T - px * dnum[:, -1:]
    grad_den = px * (dden[:, :-1] - dden[:, -1:])
    ratio = num / den
    grad = (grad_num - ratio[:, None] * grad_den) / den[:, None]
    # size of the terms the gradient cancels, per entry
    size = (
        np.abs(dnum[:, :-1]) @ P.T
        + px * np.abs(dnum[:, -1:])
        + np.abs(ratio)[:, None] * px * (np.abs(dden[:, :-1]) + np.abs(dden[:, -1:]))
    ) / den[:, None]
    return np.where(ok, ratio, -np.inf), np.where(ok[:, None], grad, 0.0), size


def _eta_problem(P, px, phi):
    """``eta_phi``'s objective: one averaging map, the joint masses P(x, y)."""
    return _FlatProblem(px, [P], phi)


def _eta_ratio(P, px, phi, F):
    """``eta_phi``'s objective, the ratio and its gradient, with the one map's
    weight 1 spread over the averaged columns as the ascent spreads it."""
    prob = _eta_problem(P, px, phi)
    return prob.ratio(F, -(np.ones((1, 1)) @ prob.V)[:, prob.n :], _VAR_FLOOR)


def _certified(F, P, px, phi):
    """``eta_phi``'s certified ratio per row of F, from ``_FlatProblem.certified``:
    -inf where ``H_phi(f) <= _VAR_FLOOR``."""
    num, den = _eta_problem(P, px, phi).certified(F, np.ones((len(F), 1)))
    return np.where(den > _VAR_FLOOR, num / np.maximum(den, _VAR_FLOOR), -np.inf)


# ids name the Phi of the ratio's numerator and denominator, which are one Phi
@pytest.mark.parametrize(
    "phi_name",
    ["square", "power:1.5", "sym:1.5", "binent", "xlogx", "xlogx:0.05,4", "xlogx:0,4", "exp"],
    ids=lambda n: f"{n}-{n}",
)
def test_ratio_and_grad_match_two_entropy_evaluations(phi_name):
    # "exp" has no analytic Phi': its entropies and gradient use the stencil Phi'.
    exp = PhiSpec("exp", (-1.0, 1.0), eval=np.exp, d2=np.exp)
    phi = exp if phi_name == "exp" else parse_phi(phi_name)
    rng = np.random.default_rng(12)
    P, px, py, _, _ = _bipartite_matrices(make_joint([3, 4], rng.dirichlet(np.ones(12))))
    a, b = phi.domain
    lo, hi = a + 1e-9 * (b - a), b - 1e-9 * (b - a)
    amps = 10.0 ** -np.arange(8)  # 1 down to 1e-7
    U = rng.uniform(-1, 1, size=(len(amps), 6, 3))
    c = rng.uniform(lo, hi, size=(1, 6, 1))
    F = np.clip(c + 0.5 * (hi - lo) * amps[:, None, None] * U, lo, hi).reshape(-1, 3)
    want, want_grad, size = _ratio_and_grad_reference(F, P, px, py, phi)
    ok = np.isfinite(want)
    assert ok.sum() >= 20
    # the objective's plain Bregman sums resolve the ratio at amplitudes 1 and 0.1
    wide = np.arange(len(F)) < 12
    ratio, grad = _eta_ratio(P, px, phi, F[wide])
    assert np.array_equal(np.isfinite(ratio), ok[wide]) and ok[wide].all()
    np.testing.assert_allclose(ratio, want[wide], rtol=1e-9, atol=0)
    assert np.all(np.abs(grad - want_grad[wide]) <= 1e-10 * size[wide])
    # below that they lose digits to cancellation, so eta_phi re-evaluates
    # its answers through the entropy module: that certifier holds every row
    cert = _certified(F, P, px, phi)
    assert np.array_equal(np.isfinite(cert), ok)
    np.testing.assert_allclose(cert[ok], want[ok], rtol=1e-9, atol=0)
    # a k = 3 law with a weight row per f: sum_i W_i H(E[f|X_i]) / H(f) against
    # the entropy module, and its gradient against central differences
    d = make_joint([2, 3, 2], rng.dirichlet(np.ones(12)))
    prob = _LawProblem(d, phi)
    F = rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), size=(6, prob.n))
    W = rng.uniform(0.0, 1.0, size=(6, 3))
    C = -(W @ prob.V)[:, prob.n :]  # the weights spread over the averaged columns
    ratio, grad = prob.ratio(F, C, _VAR_FLOOR)
    for f, w, r, cert in zip(F, W, ratio, np.transpose(prob.certified(F, W))):
        total, *conds = cond_phi_entropies(d, phi, prob.to_joint(f), [(), (0,), (1,), (2,)])
        assert r == pytest.approx(w @ (total - np.array(conds)) / total, rel=1e-9)
        assert cert == pytest.approx([w @ (total - np.array(conds)), total], rel=1e-9)
    h = 1e-6 * (hi - lo)
    for a in range(prob.n):
        step = h * (np.arange(prob.n) == a)
        up, down = (prob.ratio(F + sign * step, C, _VAR_FLOOR)[0] for sign in (1, -1))
        diff = (up - down) / (2 * h)
        np.testing.assert_allclose(grad[:, a], diff, rtol=1e-5, atol=1e-7 * np.abs(grad).max())


@pytest.mark.parametrize("phi_name", ["power:1.5", "sym:1.5", "binent", "xlogx", "xlogx:0,4"])
def test_eta_objective_runs_no_quadrature(monkeypatch, phi_name):
    # rows near a constant, where the entropy module's cancellation test
    # sends most entropies to its quadrature: the objective evaluates them as
    # plain Bregman sums, and only certification reaches the quadrature
    in_objective, objective_rows, other_rows = [], [], []
    real_terms, real_ratio = phi_module._bregman_terms, correlation._FlatProblem.ratio

    def terms(*args):
        (objective_rows if in_objective else other_rows).append(len(args[1]))
        return real_terms(*args)

    def ratio(self, *args):
        in_objective.append(True)
        try:
            return real_ratio(self, *args)
        finally:
            in_objective.pop()

    monkeypatch.setattr(phi_module, "_bregman_terms", terms)
    monkeypatch.setattr(correlation._FlatProblem, "ratio", ratio)
    phi = parse_phi(phi_name)
    rng = np.random.default_rng(19)
    a, b = phi.domain
    lo, hi = a + 1e-9 * (b - a), b - 1e-9 * (b - a)
    amp = 1e-4 * (hi - lo)
    for shape in ((2, 2), (3, 4), (4, 3)):
        d = make_joint(shape, rng.dirichlet(np.ones(np.prod(shape))))
        P, px, _, _, _ = _bipartite_matrices(d)
        F = rng.uniform(lo + amp, hi - amp, size=(8, 1))
        F = F + amp * rng.uniform(-1, 1, size=(8, shape[0]))
        other_rows.clear()
        _eta_ratio(P, px, phi, F)
        _certified(F, P, px, phi)
        assert sum(other_rows) > len(F)  # most of the 2 * 8 entropies cancel
        eta_phi(d, phi, opts=SearchOpts(restarts=4, max_iters=20))
    assert objective_rows == []


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
    calls = _counting_ratio(monkeypatch)
    if law == "dsbs":
        d = canonical("dsbs", lam=0.5)
    else:
        d = make_joint([3, 3], np.random.default_rng(0).dirichlet(np.ones(9)))
    est = eta_phi(d, parse_phi(phi_name), opts=SearchOpts(restarts=4, max_iters=100))
    assert len(calls) <= 0.4 * parent
    assert est.converged
    if law == "dsbs":
        assert est.value == pytest.approx(0.25, abs=2e-3)


def test_eta_phi_ascent_keeps_off_near_constant_noise():
    # near a constant at xlogx's top edge the objective's Bregman sums are
    # rounding noise; with a floor that did not scale with Phi's values the
    # ascent moved there and answered 0.003811
    d = make_joint([2, 2], [0.46120236043535706, 0.4281245815182935,
                            0.047554633846491605, 0.0631184241998579])
    phi = xlogx()
    est = eta_phi(d, phi, opts=SearchOpts(restarts=4, max_iters=100, seed=323210680))
    assert est.value == pytest.approx(0.0059188978975, abs=1e-11)
    P, px, _, _, _ = _bipartite_matrices(d)
    gaps = np.geomspace(4e-5, 1e-4, 8)  # H(f) from 1.2e-12 to 7.7e-12
    F = correlation._box(phi)[1] - np.vstack([np.c_[0 * gaps, gaps], np.c_[gaps, 0 * gaps]])
    noisy = _eta_ratio(P, px, phi, F)[0]
    exact = _certified(F, P, px, phi)
    assert np.isfinite(noisy).all() and np.abs(noisy - exact).max() > exact.max()


def _sweep_reference(directions, P, px, phi):
    """The best certified row of the 16-amplitude sweep along ``directions``,
    as the sweep was run before it joined the stack, kept as its reference."""
    a, b = phi.domain
    U = directions - (directions @ px)[:, None]
    U /= np.maximum(np.max(np.abs(U), axis=1), 1e-300)[:, None]
    eps = 0.45 * (b - a) * 0.5 ** np.arange(16)
    F = np.clip(0.5 * (a + b) + eps[None, :, None] * U[:, None, :], *correlation._box(phi))
    return _certified(F.reshape(-1, U.shape[1]), P, px, phi).max()


def _selection_reference(d, phi, ends):
    """The best value of the selection ``eta_phi`` made before its stack, from
    the ascent's ends: the ends certified, then the sweep along the
    maximal-correlation direction and along the best end with a positive ratio."""
    P, px, _, sx, _ = _bipartite_matrices(d)
    vals = _certified(ends, P, px, phi)
    j = int(np.argmax(vals))
    directions = [mc_witness(d)[0][sx]]
    if vals[j] > 0.0:
        directions.append(ends[j] - px @ ends[j])
    return max(vals[j], _sweep_reference(np.array(directions), P, px, phi))


def _eta_laws():
    """Seeded laws: dsbs, sum-iid and random (2,2) to (4,4).  On six of their
    (Phi, law) pairs the answer comes from the sweep along the best end: with
    the sweeps along the ends dropped, those pairs read lower."""
    rng = np.random.default_rng(8)
    laws = [canonical("dsbs", lam=lam) for lam in (0.3, 0.7)]
    laws += [canonical("sum_iid_bernoulli", q=0.5, n=n, m=m) for n, m in ((3, 1), (4, 2))]
    for shape in ((2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 4)):
        laws.append(make_joint(list(shape), rng.dirichlet(np.ones(np.prod(shape)))))
    return laws


@pytest.mark.parametrize("name", _NON_SQUARE)
def test_eta_phi_stack_keeps_every_earlier_candidate(monkeypatch, name):
    # the stack holds the ends and the sweeps along the SVD direction and
    # every end, so it never reads below the ends with the sweeps along the
    # SVD direction and the best end alone
    ends = []
    real = correlation._pgd

    def recorded(*args, **kwargs):
        out = real(*args, **kwargs)
        ends.append(out[1].copy())
        return out

    monkeypatch.setattr(correlation, "_pgd", recorded)
    phi = parse_phi(name)
    for i, d in enumerate(_eta_laws()):
        est = eta_phi(d, phi, opts=SearchOpts(restarts=4, max_iters=100, seed=i))
        assert est.value >= min(1.0, _selection_reference(d, phi, ends[-1])), (name, i)
    assert len(ends) == 10


def test_eta_phi_sweeps_along_every_end():
    # the best sweep row lies along an end that does not certify best: the
    # sweeps along the SVD direction and the best end alone read 0.6040523525
    p = [0.07281702265297586, 0.07332619573567391, 0.003933640494474477, 0.0015127806235308056,
         0.07786875066091388, 0.008923076186206457, 0.18591450698290324, 0.002215267559732262,
         0.024500484204009236, 0.0051717597167937005, 0.018716036904138734, 0.10302771509231164,
         0.07212913491896743, 0.05437606539456648, 0.292928246935342, 0.0026393159374598863]
    est = eta_phi(make_joint([4, 4], p), xlogx(), opts=SearchOpts(4, 100, 272220609))
    assert est.value > 0.6040523525370134
    assert est.converged


@pytest.mark.parametrize("name", ["xlogx", "sym:1.5", "power:1.5"])
def test_eta_phi_with_no_positive_ratio_reads_zero(name):
    # one atom of X leaves only constants, one atom of Y leaves H(E[f|Y]) = 0:
    # no row of the stack has a positive ratio, so the answer is 0, not
    # converged, at a finite witness inside Phi's domain
    phi = parse_phi(name)
    a, b = phi.domain
    for p, x_atoms in (([0.3, 0.7, 0.0, 0.0], 1), ([0.3, 0.0, 0.7, 0.0], 2)):
        d = make_joint([2, 2], p)
        est = eta_phi(d, phi, opts=SearchOpts(restarts=4, max_iters=100, seed=1))
        assert est.value == 0.0 and not est.converged
        w = est.witness.values[d.marginal_vector(0) > 0]
        assert len(w) == x_atoms and np.all((a <= w) & (w <= b))
        if x_atoms == 2:
            assert marginal_phi_entropy(d, phi, est.witness).value > 0.0


def test_eta_phi_converged_when_every_restart_reaches_its_step_floor():
    # the best ratio last rises at pass 17 and every restart has reached the
    # step floor by pass 25, before the 10-pass stall window could fill
    est = eta_phi(canonical("dsbs", lam=0.5), xlogx(), opts=SearchOpts(4, 100, seed=3))
    assert est.value == pytest.approx(0.25, abs=1e-9)
    assert est.converged


def _pgd_reference(
    objective, F, lo, hi, opts, project=None, stop_below=-np.inf, groups=None, stall_exit=False
):
    """The engine loop before its bookkeeping was trimmed, kept as its reference.

    Besides values, rows and the gradient-test flags it returns which rows
    stopped at the step floor.
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
    floored = np.zeros(len(F), dtype=bool)
    step = _STEP_INIT * (hi - lo)
    live = np.isfinite(vals) & ~converged & (step > step_floor) & (opts.max_iters > 0)
    below = vals < stop_below
    exits = np.zeros(groups.max() + 1, dtype=bool)
    exits[groups[below]] = True
    run = np.flatnonzero(live & ~exits[groups])
    Fr, vr, Dr = F[run], vals[run], D[run]
    step, moves = np.full(len(run), step), np.zeros(len(run), dtype=int)
    best, stalled = [np.min(vals)], False
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
            floored[run[done]] = (step <= step_floor)[done]
            exits[groups[run[below]]] = True
            keep = ~done & ~exits[groups[run]]
            run, Fr, vr, Dr, step, moves = (
                run[keep], Fr[keep], vr[keep], Dr[keep], step[keep], moves[keep]
            )
    converged |= stalled
    return vals, F, converged, floored


def _engine_problems():
    """Seeded ``(objective, starts, lo, hi, opts, keywords)`` for both engine users."""
    rng = np.random.default_rng(21)
    for shape, name in (((2, 2), "binent"), ((2, 2, 2), "power:1.5"), ((3, 3), "xlogx:0.05,4")):
        d = make_joint(shape, rng.dirichlet(np.ones(int(np.prod(shape)))))
        phi = parse_phi(name)
        prob = _LawProblem(d, phi)
        for box, exit_below, max_iters in (
            ((0.7, 1.0), _EXIT_BELOW, 50),  # corner points: groups exit early
            ((0.0, 0.3), _EXIT_BELOW, 50),  # deep points: every row runs out
            ((0.0, 1.0), 0.0, 50),  # some groups start below stop_below
            ((0.0, 1.0), _EXIT_BELOW, 0),
        ):
            lams = rng.uniform(*box, size=(3, len(shape)))
            starts, lo, hi = _seeds(prob, lams, np.random.default_rng(5), 4)
            L = np.repeat(lams, 4, axis=0)
            yield (
                lambda X, rows, L=L, prob=prob: prob.rows(X, L[rows]), starts, lo, hi,
                SearchOpts(4, max_iters), {"stop_below": exit_below, "groups": np.arange(12) // 4},
            )
    # the normalized search: every trial row goes through the density projection
    d = make_joint([2, 2], rng.dirichlet(np.ones(4)))
    prob, lams = _LawProblem(d, parse_phi("xlogx:0,4")), rng.uniform(0.3, 1.0, size=(2, 2))

    def project(V):
        return _project_density(V, prob.p, 1e-12, 4.0 - 4e-9)

    starts, lo, hi = _seeds(prob, lams, np.random.default_rng(6), 4, project)
    L = np.repeat(lams, 4, axis=0)
    yield (
        lambda X, rows: prob.rows(X, L[rows]), starts, lo, hi, SearchOpts(4, 50),
        {"project": project, "stop_below": -np.inf, "groups": np.arange(8) // 4},
    )
    # eta_phi's ascent with the stall exit, and a start where the ratio is undefined
    for shape, name in (((2, 2), "xlogx"), ((3, 3), "sym:1.5"), ((4, 4), "power:1.5")):
        d = make_joint(shape, rng.dirichlet(np.ones(int(np.prod(shape)))))
        phi = parse_phi(name)
        P, px, _, _, _ = _bipartite_matrices(d)
        prob = _eta_problem(P, px, phi)
        C = -(np.ones((1, 1)) @ prob.V)[:, prob.n :]
        a, b = phi.domain
        lo, hi = a + 1e-9 * (b - a), b - 1e-9 * (b - a)

        def neg_ratio(X, rows, prob=prob, C=C):
            ratio, grad = prob.ratio(X, C, _VAR_FLOOR)
            return -ratio, -grad

        starts = rng.uniform(lo, hi, size=(6, shape[0]))
        for stall_exit in (True, False):
            yield neg_ratio, starts, lo, hi, SearchOpts(6, 100), {"stall_exit": stall_exit}
        yield neg_ratio, np.full((3, shape[0]), 0.5 * (lo + hi)), lo, hi, SearchOpts(3, 100), {}


def test_pgd_matches_the_reference_loop():
    # the same rows and values bit for bit; converged differs only where a
    # row stopped on its step floor, which now counts as converged
    floor_flips = exits = undefined = 0
    for objective, starts, lo, hi, opts, kw in _engine_problems():
        vals, ends, conv = _pgd(objective, starts, lo, hi, opts, **kw)
        want, want_ends, want_conv, floored = _pgd_reference(objective, starts, lo, hi, opts, **kw)
        assert np.array_equal(vals, want) and np.array_equal(ends, want_ends)
        assert np.array_equal(conv, want_conv | floored)
        floor_flips += (floored & ~want_conv).sum()
        exits += (want < kw.get("stop_below", -np.inf)).sum()
        undefined += np.isinf(want).all()
    assert floor_flips > 0 and exits > 0 and undefined > 0
