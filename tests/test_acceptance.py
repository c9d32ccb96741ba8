"""Acceptance suite: one test per top-level claim, at the stated tolerances.

Each test is self-contained and certifies its numbers independently of the
code path under test wherever a second route exists (definition re-checks,
brute-force grids, closed forms).
"""

import math
import time
import warnings

import numpy as np
import pytest

from phiribbon.correlation import SearchOpts, eta_phi, maximal_correlation
from phiribbon.dist import (
    JointFunction,
    canonical,
    make_joint,
    pair_product,
)
from phiribbon.oracle import GridSpec, brute_min_objective
from phiribbon.phi import (
    binent,
    cond_phi_entropy,
    parse_phi,
    phi_entropy,
    phi_mutual_information,
    power_alpha,
    square,
    subadditivity_gap,
    xlogx,
)
from phiribbon.ribbon_mc import (
    _rays,
    gaussian_mc_membership,
    mc_boundary_trace,
    mc_membership,
    mc_membership_sprime,
    pearson_matrix,
    rho2_from_trace,
    tilde_gap,
    tilde_membership,
)
from phiribbon.ribbon_phi import (
    _ray_exits,
    _search,
    alpha_equivalent_membership,
    definition_gap,
    eta_from_ribbon,
    lift_witness_to_product,
    phi_ribbon_membership,
    ribbon_boundary_trace,
)

warnings.filterwarnings("ignore", category=UserWarning)

EIGEN_BAND = 1e-9


def _random_dist(rng, sizes):
    return make_joint(sizes, rng.dirichlet(np.ones(int(np.prod(sizes)))))


def test_criterion_01_maximal_correlation_dsbs():
    start = time.perf_counter()
    for lam in [0.1 * i for i in range(1, 10)]:
        d = canonical("dsbs", lam=lam)
        assert maximal_correlation(d) == pytest.approx(lam, abs=1e-9)
    assert time.perf_counter() - start < 1.0


def test_criterion_02_sdpi_closed_form_dsbs():
    start = time.perf_counter()
    for lam in (0.2, 0.5, 0.8):
        d = canonical("dsbs", lam=lam)
        for phi in (xlogx(), binent()):
            est = eta_phi(d, phi, opts=SearchOpts(restarts=16, seed=0))
            assert est.value == pytest.approx(lam * lam, abs=2e-3), (lam, phi.name)
    assert time.perf_counter() - start < 30.0


def test_criterion_03_sums_of_iid_bernoulli():
    start = time.perf_counter()
    for n, m in ((2, 1), (3, 1), (3, 2), (4, 2)):
        d = canonical("sum_iid_bernoulli", q=0.5, n=n, m=m)
        est = eta_phi(d, binent(), opts=SearchOpts(restarts=16, seed=0))
        assert est.value == pytest.approx(m / n, abs=3e-3), (n, m)
    assert time.perf_counter() - start < 120.0


def test_criterion_04_mc_ribbon_representation_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    grid = GridSpec(resolution=5)  # on square's domain [-1, 1]
    brute_checked = 0
    for _ in range(500):
        k = int(rng.integers(2, 4))
        sizes = rng.integers(2, 4, size=k).tolist()
        d = _random_dist(rng, sizes)
        lam = rng.uniform(0.0, 1.0, size=k)
        a = mc_membership(d, lam)
        b = mc_membership_sprime(d, lam)
        in_band = abs(a.min_eigenvalue) < EIGEN_BAND or abs(b.min_eigenvalue) < EIGEN_BAND
        if not in_band:
            assert a.verdict == b.verdict, (sizes, lam.tolist())
        if int(d.support_mask.sum()) <= 6:
            brute_checked += 1
            gap, _ = brute_min_objective(d, square(), lam, grid)
            if a.verdict:
                # membership means the objective is non-negative everywhere
                assert gap >= -EIGEN_BAND, (sizes, lam.tolist(), gap)
            if gap < -1e-6:
                # a grid point violating the inequality refutes membership
                assert not a.verdict and not b.verdict, (sizes, lam.tolist(), gap)
    assert brute_checked >= 100
    assert time.perf_counter() - start < 300.0


def test_criterion_05_bipartite_boundary_curve():
    d = canonical("dsbs", lam=0.5)
    trace = mc_boundary_trace(d, directions=64)
    hit_boundary = 0
    for lam, full_member in trace:
        if full_member:
            continue
        hit_boundary += 1
        l1, l2 = float(lam[0]), float(lam[1])
        assert (1 - 1 / l1) * (1 - 1 / l2) == pytest.approx(0.25, abs=2e-3)
    assert hit_boundary > 0


def test_criterion_06_rho_squared_recovery_from_trace():
    d = canonical("dsbs", lam=0.5)
    trace = mc_boundary_trace(d, directions=512)
    assert rho2_from_trace(trace) == pytest.approx(0.25, abs=1e-3)
    rng = np.random.default_rng(6)
    d3 = _random_dist(rng, [3, 3])
    rho2 = maximal_correlation(d3) ** 2
    trace3 = mc_boundary_trace(d3, directions=512)
    assert rho2_from_trace(trace3) == pytest.approx(rho2, abs=1e-3)


def test_criterion_07_tensorization_of_quadratic_region():
    rng = np.random.default_rng(7)
    disagreements = 0
    for _ in range(50):
        dx = _random_dist(rng, [2, 2])
        dy = _random_dist(rng, [2, 2])
        prod = pair_product(dx, dy)
        for lam in rng.uniform(0.0, 1.0, size=(20, 2)):
            want = mc_membership(dx, lam).verdict and mc_membership(dy, lam).verdict
            if mc_membership(prod, lam).verdict != want:
                disagreements += 1
    assert disagreements == 0


def test_criterion_08_xor_separates_the_regions():
    d = canonical("xor_triple")
    res = phi_ribbon_membership(d, binent(), [1.0, 1.0, 1.0], SearchOpts(restarts=32))
    assert res.violated
    assert definition_gap(d, binent(), [1, 1, 1], res.witness) < -1e-6
    assert mc_membership(d, [1.0, 1.0, 1.0]).verdict


def test_criterion_09_phi_ribbon_contained_in_mc_ribbon():
    rng = np.random.default_rng(9)
    phis = [lambda: xlogx(0.05, 4.0), lambda: power_alpha(1.5), binent]
    grid = GridSpec(resolution=41)
    rejected = 0
    for trial in range(200):
        d = _random_dist(rng, [2, 2])
        # bias half the draws toward the corner so enough land outside
        lo = 0.0 if trial % 2 == 0 else 0.6
        lam = rng.uniform(lo, 1.0, size=2)
        phi = phis[trial % 3]()
        exact = mc_membership(d, lam)
        if exact.verdict or abs(exact.min_eigenvalue) < EIGEN_BAND:
            continue
        rejected += 1
        # containment: a quadratic-case violation implies a phi violation
        res = phi_ribbon_membership(d, phi, lam, SearchOpts(restarts=12, seed=trial))
        if not res.violated:
            gap, _ = brute_min_objective(d, phi, lam, grid)
            assert gap < -1e-12, (lam.tolist(), phi.name, gap)
    assert rejected >= 30


def test_criterion_10_alpha_equivalence_power_vs_sym():
    rng = np.random.default_rng(10)
    grid = np.linspace(1.0 / 15.0, 1.0, 15)
    disagreements = 0
    for _ in range(10):
        d = _random_dist(rng, [2, 2])
        lams = np.stack(np.meshgrid(grid, grid, indexing="ij"), -1).reshape(-1, 2)
        pairs = alpha_equivalent_membership(d, 1.5, lams, SearchOpts(restarts=6, seed=0))
        disagreements += sum(rp.violated != rs.violated for rp, rs in pairs)
    assert disagreements == 0


def test_criterion_11_tilde_degeneracy():
    d = canonical("tilde_degenerate", a=0.3, b=0.3)
    axis = np.linspace(0.1, 1.0, 10)
    for l1 in axis:
        for l2 in axis:
            for l3 in axis:
                res = tilde_membership(d, [l1, l2, l3])
                assert not res.verdict, (l1, l2, l3)
    # explicit zero-mean witness with f + g + h = 0 on every atom
    a = b = 0.3
    from phiribbon.dist import MarginalFunction

    fs = (
        MarginalFunction(0, np.array([1 - a, -a])),
        MarginalFunction(1, np.array([-b, 1 - b])),
        MarginalFunction(2, np.array([a + b - 1, a + b])),
    )
    total = JointFunction(sum(f.lift(d).values for f in fs))
    assert d.variance(total) <= 1e-30
    for lam in ([0.5, 0.5, 0.5], [1.0, 1.0, 1.0]):
        assert tilde_gap(d, lam, fs) < 0


def test_criterion_12_gaussian_binary_bridge():
    rng = np.random.default_rng(12)
    disagreements = 0
    for _ in range(100):
        d = _random_dist(rng, [2, 2, 2])
        R = pearson_matrix(d)
        for lam in rng.uniform(0.0, 1.0, size=(20, 3)):
            exact = mc_membership(d, lam)
            if abs(exact.min_eigenvalue) < EIGEN_BAND:
                continue
            if gaussian_mc_membership(R, lam) != exact.verdict:
                disagreements += 1
    assert disagreements == 0


def test_criterion_13_property_suites_ten_thousand_trials():
    rng = np.random.default_rng(13)
    phis = [square(), power_alpha(1.5), xlogx(0.05, 0.95)]

    # chain rule: H(f) = H(f|S) + H(E[f|S]), 2500 trials
    for trial in range(2500):
        d = _random_dist(rng, [2, 2])
        f = JointFunction(rng.uniform(0.1, 0.9, size=(2, 2)))
        phi = phis[trial % 3]
        coord = trial % 2
        total = phi_entropy(d, phi, f).value
        cond = cond_phi_entropy(d, phi, f, [coord]).value
        p = d.marginal_vector(coord)
        other = 1 - coord
        pj = d.probs if coord == 0 else d.probs.T
        vj = f.values if coord == 0 else f.values.T
        means = np.divide((pj * vj).sum(1), p, out=np.full(2, 0.5), where=p > 0)
        dm = make_joint([2], p)
        outer = phi_entropy(dm, phi, JointFunction(means)).value
        assert total == pytest.approx(cond + outer, abs=1e-10)

    # conditioning reduces entropy, 2500 trials
    for trial in range(2500):
        d = _random_dist(rng, [2, 2, 2])
        f = JointFunction(rng.uniform(0.1, 0.9, size=(2, 2, 2)))
        phi = phis[trial % 3]
        hs = cond_phi_entropy(d, phi, f, [0]).value
        hb = cond_phi_entropy(d, phi, f, [0, 1]).value
        assert hs >= hb - 1e-10

    # Taylor ratio: residual of H/eps^2 shrinks linearly in eps, 500 x 2 trials
    phi_t = xlogx(0.05, 4.0)
    d2 = float(phi_t.deriv(2, 1.0))
    for trial in range(500):
        d = _random_dist(rng, [2, 2])
        u = rng.uniform(-1, 1, size=(2, 2))
        u -= float(np.sum(d.probs * u))
        var = float(np.sum(d.probs * u * u))
        lead = 0.5 * d2 * var
        residuals = []
        for eps in (1e-2, 1e-3):
            h = phi_entropy(d, phi_t, JointFunction(1.0 + eps * u)).value
            residuals.append(abs(h / (eps * eps) - lead))
        # O(eps^3) in H means the eps^2-normalized residual is O(eps)
        assert residuals[1] <= residuals[0] / 4.0 + 1e-11 * (1.0 + var)

    # subadditivity non-negativity on independent coordinates, 2000 trials
    for trial in range(2000):
        px, py = rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(2))
        d = make_joint([2, 2], np.outer(px, py).ravel())
        f = JointFunction(rng.uniform(0.1, 0.9, size=(2, 2)))
        assert subadditivity_gap(d, phis[trial % 3], f) >= -1e-10

    # I_phi >= 0, and = 0 exactly at independence, 2000 trials
    phi_i = xlogx(0.0, 1024.0)
    for trial in range(2000):
        if trial % 2 == 0:
            d = _random_dist(rng, [2, 2])
            assert phi_mutual_information(d, phi_i) >= 0.0
        else:
            px, py = rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(3))
            d = make_joint([2, 3], np.outer(px, py).ravel())
            assert phi_mutual_information(d, phi_i) == pytest.approx(0.0, abs=1e-12)


def test_criterion_14_hc_ribbon_is_the_xlogx_ribbon():
    # for Phi = t log t the Phi-ribbon of DSBS(rho) is the hypercontractivity
    # ribbon (1/l1 - 1)(1/l2 - 1) >= rho^2 (Bonami-Beckner); on a ray t v it
    # exits at the least root of v1 v2 (1 - rho^2) t^2 - (v1 + v2) t + 1 = 0
    opts = SearchOpts(restarts=12, max_iters=200)
    for rho in (0.3, 0.5, 0.8):
        d = canonical("dsbs", lam=rho)
        trace = ribbon_boundary_trace(d, xlogx(), 8, opts)
        _, proven, _, _ = _ray_exits(d, xlogx(), _rays(2, 8), opts)
        assert len(trace) == 8
        for (lam, verdict), t_c in zip(trace, proven):
            assert verdict == "violated", (rho, lam)
            v = lam / lam.max()  # the ray, scaled to leave the cube at t = 1
            a, b = v[0] * v[1] * (1 - rho * rho), v[0] + v[1]
            t_exact = (b - math.sqrt(b * b - 4 * a)) / (2 * a)
            # the proven exit lies past the true one by its certification margin
            assert t_exact <= t_c <= t_exact + 1e-5, (rho, lam.tolist(), t_c, t_exact)
            assert abs(lam.max() - t_exact) <= 1e-6, (rho, lam.tolist(), t_exact)


@pytest.mark.parametrize("phi_name", ["binent", "xlogx:0.05,4", "power:1.5", "sym:1.5"])
def test_criterion_16_eta_from_ribbon_meets_eta_phi(phi_name):
    # (1 - l1)/l2 at the exit of the ray t (1, s) is at least the ratio of the
    # eta_phi witness, one of its ascent's starts, and exceeds eta_Phi only by
    # the finite-s bias
    opts = SearchOpts(12, 200)
    phi = parse_phi(phi_name)
    laws = [make_joint([2, 3], np.random.default_rng(3).dirichlet(np.ones(6)))]
    laws += [_random_dist(np.random.default_rng(s), shape) for s, shape in
             ((4, [2, 3]), (5, [3, 3]), (6, [3, 3]))]
    for d in laws:
        eta = eta_phi(d, phi, None, opts).value
        assert eta - 1e-9 <= eta_from_ribbon(d, phi, opts) <= eta + 1e-3


def test_criterion_16_ray_ascent_never_exceeds_eta_phi():
    # from the ascent's own starts alone, with no eta start, the ray t (1, s)
    # finds no ratio R with (R - 1)/s beyond eta_Phi plus the finite-s bias:
    # a crossing would be a bug or a better eta witness than eta_phi's
    s, opts = 1e-3, SearchOpts(12, 200)
    rng = np.random.default_rng(16)
    for trial in range(20):
        d = _random_dist(rng, [2, 3])
        phi = parse_phi(("binent", "xlogx:0.05,4", "power:1.5", "sym:1.5")[trial % 4])
        R = _ray_exits(d, phi, np.array([[1.0, s]]), opts)[0][0]
        assert (R - 1) / s <= eta_phi(d, phi, None, SearchOpts(restarts=64)).value + s, trial


def _lift_second(g, dx, dy):
    """A witness g on dy as a function on pair_product(dx, dy): lift it onto
    pair_product(dy, dx), then swap each coordinate's symbol pair (y, x) to (x, y)."""
    vals = lift_witness_to_product(g, dy, dx).values
    split = [s for pair in zip(dy.alphabet_sizes, dx.alphabet_sizes) for s in pair]
    swap = [j for i in range(dx.k) for j in (2 * i + 1, 2 * i)]
    merged = [a * b for a, b in zip(dx.alphabet_sizes, dy.alphabet_sizes)]
    return JointFunction(vals.reshape(split).transpose(swap).reshape(merged))


def test_criterion_15_general_phi_region_tensorizes():
    # the product's region is the intersection of the factors': a factor's
    # violation lifts to the product exactly, and a product violation where
    # both factors hold would contradict tensorization or expose a search miss
    rng = np.random.default_rng(15)
    axis = np.linspace(0.1, 1.0, 6)
    lams = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
    opts = SearchOpts(restarts=12, max_iters=200)
    phi = binent()
    violated = 0
    for _ in range(2):
        dx, dy = _random_dist(rng, [2, 2]), _random_dist(rng, [2, 2])
        prod = pair_product(dx, dy)
        on_x, on_y, on_prod = (_search(d, phi, lams, opts) for d in (dx, dy, prod))
        for lam, rx, ry, rp in zip(lams, on_x, on_y, on_prod):
            for r, lift in ((rx, lift_witness_to_product), (ry, _lift_second)):
                if r.violated:
                    f = lift(r.witness, dx, dy)
                    assert definition_gap(prod, phi, lam, f) <= -1e-9, lam.tolist()
            assert not (rp.violated and not rx.violated and not ry.violated), lam.tolist()
            violated += rx.violated or ry.violated
    assert violated > 0
