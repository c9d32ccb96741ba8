"""Unit tests for the brute-force certification evaluators."""

import itertools
import math

import numpy as np
import pytest

from phiribbon import oracle
from phiribbon.dist import canonical, make_joint
from phiribbon.errors import BadLambda, BadParameter, GridTooLarge, NotBipartite
from phiribbon.oracle import GridSpec, brute_maximal_correlation, brute_min_objective
from phiribbon.phi import parse_phi, square
from phiribbon.ribbon_mc import mc_def_gap


def test_gridspec_validation():
    with pytest.raises(BadParameter):
        GridSpec(resolution=2)


def test_gridspec_points_include_endpoints_and_midpoint():
    pts = GridSpec(resolution=4).points(-1.0, 1.0)
    assert pts[0] == -1.0 and pts[-1] == 1.0
    assert 0.0 in pts


def test_grid_cap_enforced():
    d = make_joint([4, 4], np.full(16, 1 / 16))
    with pytest.raises(GridTooLarge):
        brute_min_objective(d, square(), [1.0, 1.0], GridSpec(resolution=21))


def test_brute_min_objective_finds_violation_for_copies():
    d = canonical("equal_copies", k=2, base=[0.5, 0.5])
    gap, f = brute_min_objective(d, square(), [0.6, 0.6], GridSpec(resolution=21))
    assert gap == pytest.approx(-0.2, abs=1e-12)
    # the minimizing function certifies the same gap through the definition
    assert mc_def_gap(d, [0.6, 0.6], f) == pytest.approx(gap, abs=1e-12)


def test_brute_min_objective_independent_is_nonnegative():
    d = make_joint([2, 2], np.outer([0.4, 0.6], [0.3, 0.7]).ravel())
    gap, _ = brute_min_objective(d, square(), [1.0, 1.0], GridSpec(resolution=21))
    assert gap >= -1e-12


def test_brute_min_objective_boundary_point_near_zero():
    d = canonical("dsbs", lam=0.5)
    gap, _ = brute_min_objective(
        d, square(), [2 / 3, 2 / 3], GridSpec(resolution=41)
    )
    assert abs(gap) <= 1e-3


def test_brute_min_objective_deterministic():
    d = canonical("dsbs", lam=0.5)
    a = brute_min_objective(d, square(), [0.9, 0.9], GridSpec(resolution=9))
    b = brute_min_objective(d, square(), [0.9, 0.9], GridSpec(resolution=9))
    assert a[0] == b[0]
    assert np.array_equal(a[1].values, b[1].values)


def test_brute_min_objective_rejects_bad_lambda():
    d = canonical("dsbs", lam=0.5)
    for bad in ([0.5, 0.5, 0.9], [0.5], [np.nan, 0.5], [2.0, 2.0]):
        with pytest.raises(BadLambda):
            brute_min_objective(d, square(), bad, GridSpec(resolution=3))


def test_brute_maximal_correlation_dsbs():
    d = canonical("dsbs", lam=0.7)
    got = brute_maximal_correlation(d, GridSpec(resolution=41))
    assert got == pytest.approx(0.7, abs=2e-2)


def test_brute_maximal_correlation_independent():
    d = make_joint([2, 2], np.outer([0.4, 0.6], [0.3, 0.7]).ravel())
    assert brute_maximal_correlation(d, GridSpec(resolution=21)) <= 2e-2


def test_brute_maximal_correlation_copy_is_one():
    d = canonical("dsbs", lam=1.0)
    assert brute_maximal_correlation(d, GridSpec(resolution=5)) == pytest.approx(
        1.0, abs=1e-12
    )


def test_brute_maximal_correlation_needs_bipartite():
    with pytest.raises(NotBipartite):
        brute_maximal_correlation(canonical("xor_triple"), GridSpec(resolution=5))


def _product_blocks(pts, n):
    """The grid in itertools.product order, in blocks of the oracle's chunk size."""
    it = itertools.product(range(len(pts)), repeat=n)
    chunk = max(1, oracle._CAP // (50 * max(n, 1)))
    while rows := list(itertools.islice(it, chunk)):
        yield pts[np.array(rows)]


def _min_objective_reference(d, phi, lam, grid):
    sup, p, cond_tables, marg = oracle._tables(d)
    best, best_row = math.inf, None
    for F in _product_blocks(grid.points(*phi.domain), len(sup)):
        G = oracle._objective_batch(p, cond_tables, marg, phi, np.asarray(lam, float), F)
        j = int(np.argmin(G))
        if G[j] < best:
            best, best_row = float(G[j]), F[j]
    vals = np.zeros(d.probs.size)
    vals[sup] = best_row
    return best, vals.reshape(d.alphabet_sizes)


def _max_correlation_reference(d, grid):
    px, py = d.marginal_vector(0), d.marginal_vector(1)
    P = d.probs[np.ix_(px > 0, py > 0)]
    pxs, pys = px[px > 0], py[py > 0]
    best = 0.0
    for Gv in _product_blocks(grid.points(-1.0, 1.0), len(pys)):
        g0 = Gv - (Gv @ pys)[:, None]
        var_g = (g0 * g0) @ pys
        Ef = (g0 @ P.T) / pxs
        ok = var_g > 1e-14
        with np.errstate(invalid="ignore", divide="ignore"):
            corr = np.sqrt(np.where(ok, ((Ef * Ef) @ pxs) / np.where(ok, var_g, 1.0), 0.0))
        best = max(best, float(np.max(corr)))
    return min(best, 1.0)


@pytest.mark.parametrize("cap", [1_400, oracle._CAP])
def test_grid_blocks_match_itertools_product(monkeypatch, cap):
    # a small cap makes blocks of 7 rows (n = 4) or 16 (n = 8), so block
    # boundaries fall inside the grid, between argmin ties on the dsbs law
    monkeypatch.setattr(oracle, "_CAP", cap)
    rng = np.random.default_rng(10)
    laws = [canonical("dsbs", lam=0.5), make_joint([2, 2], rng.dirichlet(np.ones(4)))]
    for d in laws:
        for name, lam in (("square", [0.9, 0.9]), ("binent", [0.6, 0.8])):
            phi = parse_phi(name)
            got, f = brute_min_objective(d, phi, lam, GridSpec(resolution=5))
            want, want_f = _min_objective_reference(d, phi, lam, GridSpec(resolution=5))
            assert got == want and np.array_equal(f.values, want_f), (name, lam)
    d = make_joint([2, 4], rng.dirichlet(np.ones(8)))
    assert brute_maximal_correlation(d, GridSpec(resolution=5)) == _max_correlation_reference(
        d, GridSpec(resolution=5)
    )
    d = make_joint([2, 2, 2], rng.dirichlet(np.ones(8)))
    monkeypatch.setattr(oracle, "_CAP", max(cap, 6_561))  # 3^8 rows
    got, f = brute_min_objective(d, square(), [0.5, 0.5, 0.5], GridSpec(resolution=3))
    want, want_f = _min_objective_reference(d, square(), [0.5, 0.5, 0.5], GridSpec(resolution=3))
    assert got == want and np.array_equal(f.values, want_f)
