"""Unit tests for the brute-force certification evaluators."""

import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from phiribbon import oracle
from phiribbon.dist import canonical, make_joint
from phiribbon.errors import (
    BadLambda,
    BadParameter,
    GridTooLarge,
    NotBipartite,
)
from phiribbon.oracle import GridSpec, brute_maximal_correlation, brute_min_objective
from phiribbon.phi import parse_phi, square
from phiribbon.ribbon_mc import mc_def_gap


def test_gridspec_validation():
    for bad in (2, -1, 4.5, 5.0, math.nan, True, "5", None, oracle._CAP + 1):
        with pytest.raises(BadParameter):
            GridSpec(resolution=bad)
    assert GridSpec(resolution=np.int64(5)).points(0.0, 1.0).size == 5


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


@pytest.mark.parametrize(
    "name", ["square", "power:1.5", "sym:1.5", "binent", "xlogx", "xlogx:0.05,4"]
)
def test_simplex_points_lie_in_every_region(name):
    # conditional Jensen gives H(E[f|X_i]) <= H(f), so sum(lambda) <= 1 leaves
    # gap >= (1 - sum(lambda)) H(f) >= 0: the theorem by which the region
    # searches answer simplex points, checked here by the oracle alone
    phi, rng = parse_phi(name), np.random.default_rng(31)
    for sizes, res in (((2, 2), 21), ((2, 3), 9), ((2, 2, 2), 5)):
        k = len(sizes)
        d = make_joint(list(sizes), rng.dirichlet(np.ones(math.prod(sizes))))
        # inside, on the face sum(lambda) = 1, and a vertex
        lams = [rng.dirichlet(np.ones(k + 1))[:k], rng.dirichlet(np.ones(k)), np.eye(k)[rng.integers(k)]]
        for lam in lams:
            gap, _ = brute_min_objective(d, phi, lam, GridSpec(res))
            assert gap >= -1e-12, (sizes, lam.tolist(), gap)


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


def _tables_reference(d):
    """Flat support probabilities plus per-coordinate conditional tables."""
    sup = np.flatnonzero(d.support_mask.ravel())
    p = d.probs.ravel()[sup]
    cond_tables = []
    marg = []
    for i in range(d.k):
        pi = d.marginal_vector(i)
        sup_i = np.flatnonzero(pi > 0)
        symbols = np.unravel_index(sup, d.alphabet_sizes)[i]
        table = np.zeros((len(sup), len(sup_i)))
        for col, s in enumerate(sup_i):
            sel = symbols == s
            table[sel, col] = p[sel] / pi[s]
        cond_tables.append(table)
        marg.append(pi[sup_i])
    return sup, p, cond_tables, marg


def _objective_rows_reference(probs_flat, cond_tables, marg, phi, lam, F):
    """G(f) = H_phi(f) - sum_i lam_i H_phi(E[f|X_i]), row by row of F."""
    pf = phi.safe_eval(F)
    mean = F @ probs_flat
    G = pf @ probs_flat - phi.safe_eval(mean)
    for i, (table, p) in enumerate(zip(cond_tables, marg)):
        if lam[i] == 0:
            continue
        gi = F @ table  # E[f | X_i = s], columns over s in support
        G -= lam[i] * (phi.safe_eval(gi) @ p - phi.safe_eval(gi @ p))
    return G


def _min_objective_reference(d, phi, lam, grid):
    """The oracle's minimum from the definition, one grid row at a time."""
    sup, p, cond_tables, marg = _tables_reference(d)
    lam = np.asarray(lam, float)
    best, best_row = math.inf, None
    for F in _product_blocks(grid.points(*phi.domain), len(sup)):
        G = _objective_rows_reference(p, cond_tables, marg, phi, lam, F)
        j = int(np.argmin(G))
        if G[j] < best:
            best, best_row = float(G[j]), F[j]
    vals = np.zeros(d.probs.size)
    vals[sup] = best_row
    return best, vals.reshape(d.alphabet_sizes)


def _objective_reference_at(d, phi, lam, f):
    sup, p, cond_tables, marg = _tables_reference(d)
    F = f.values.ravel()[sup][None, :]
    return float(_objective_rows_reference(p, cond_tables, marg, phi, np.asarray(lam, float), F)[0])


# float64 rounding of sums of a few Phi values of order one: the separable
# evaluation adds the same terms in another order
_REFERENCE_TOL = 1e-12


def _assert_matches_reference(d, phi, lam, grid):
    got, f = brute_min_objective(d, phi, lam, grid)
    want, _ = _min_objective_reference(d, phi, lam, grid)
    tol = _REFERENCE_TOL * (1 + abs(want))
    assert abs(got - want) <= tol, (phi.name, lam, got, want)
    # the returned argmin attains the reference minimum, up to the same rounding
    assert abs(_objective_reference_at(d, phi, lam, f) - want) <= tol, (phi.name, lam)
    return got, f


def _law(sizes, seed, zero_atoms=()):
    probs = np.random.default_rng(seed).dirichlet(np.ones(math.prod(sizes)))
    probs[list(zero_atoms)] = 0.0
    return make_joint(sizes, probs / probs.sum())


_REFERENCE_CASES = {
    "2x2-xlogx": (_law([2, 2], 1), "xlogx:0.05,4", [0.7, 0.9], GridSpec(13)),
    "2x2-binent": (_law([2, 2], 2), "binent", [0.8, 0.6], GridSpec(13)),
    "2x3-power": (_law([2, 3], 3), "power:1.5", [0.9, 0.8], GridSpec(5)),
    "2x3-square": (_law([2, 3], 4), "square", [1.0, 0.5], GridSpec(5)),
    "2x2x2-power": (_law([2, 2, 2], 5), "power:1.5", [0.6, 0.7, 0.8], GridSpec(3)),
    "2x2x2-binent": (_law([2, 2, 2], 6), "binent", [0.5, 0.5, 0.5], GridSpec(3)),
    # zero-probability atoms leave the support and the grid
    "zero-atoms-2x3": (_law([2, 3], 7, zero_atoms=[1, 4]), "binent", [0.9, 0.9], GridSpec(7)),
    "zero-atoms-2x2x2": (
        _law([2, 2, 2], 8, zero_atoms=[0, 7]), "square", [0.8, 0.8, 0.8], GridSpec(5)
    ),
    # 0 on the grid, where xlogx:0,4 takes 0 log 0 := 0
    "allow-zero": (_law([2, 2], 9), "xlogx:0,4", [0.9, 0.8], GridSpec(9)),
    "allow-zero-domain": (_law([2, 2], 10), "xlogx:0,4", [0.9, 0.8], GridSpec(5)),
    # lambda with zero entries skips those cells
    "lam-0x": (_law([2, 3], 11), "xlogx:0.05,4", [0.0, 0.9], GridSpec(7)),
    "lam-x00": (_law([2, 2, 2], 12), "binent", [0.9, 0.0, 0.0], GridSpec(3)),
    "lam-00": (_law([2, 2], 13), "power:1.5", [0.0, 0.0], GridSpec(9)),
    # an even resolution gets its midpoint inserted
    "even-resolution": (_law([2, 2], 14), "binent", [0.8, 0.8], GridSpec(8)),
    # a finer square grid, and an even one that gets its midpoint on six atoms
    "domain-square": (_law([2, 2], 15), "square", [0.95, 0.9], GridSpec(11)),
    "domain-xlogx": (_law([2, 3], 16), "xlogx:0.05,4", [0.9, 0.9], GridSpec(6)),
}


@pytest.mark.parametrize("case", list(_REFERENCE_CASES))
def test_brute_min_objective_matches_the_row_wise_reference(case):
    d, phi_name, lam, grid = _REFERENCE_CASES[case]
    _assert_matches_reference(d, parse_phi(phi_name), lam, grid)


def _min_objective_at_cap(cap, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_CAP", cap)
        return brute_min_objective(*args)


def _max_correlation_reference(d, grid, interval=(-1.0, 1.0)):
    lo, hi = interval
    px, py = d.marginal_vector(0), d.marginal_vector(1)
    P = d.probs[np.ix_(px > 0, py > 0)]
    pxs, pys = px[px > 0], py[py > 0]
    best = 0.0
    for Gv in _product_blocks(grid.points(lo, hi), len(pys)):
        g0 = Gv - (Gv @ pys)[:, None]
        var_g = (g0 * g0) @ pys
        Ef = (g0 @ P.T) / pxs
        ok = var_g > 1e-14 * ((hi - lo) / 2) ** 2  # the oracle's 1e-14 on [-1, 1]
        with np.errstate(invalid="ignore", divide="ignore"):
            corr = np.sqrt(np.where(ok, ((Ef * Ef) @ pxs) / np.where(ok, var_g, 1.0), 0.0))
        best = max(best, float(np.max(corr)))
    return min(best, 1.0)


@pytest.mark.parametrize("cap", [700, 1_400, 3_000, oracle._CAP])
def test_grid_blocks_match_itertools_product(monkeypatch, cap):
    # a small cap splits the grid into blocks: for n = 4 atoms at 5 points,
    # of 3 and 2 rows (cap 700), 5 rows (1,400) or 15 and 10 rows (3,000), and
    # of 9 rows for n = 8 at 3 points, so block boundaries fall inside the
    # grid, between argmin ties on the dsbs law
    default_cap = oracle._CAP
    monkeypatch.setattr(oracle, "_CAP", cap)
    rng = np.random.default_rng(10)
    laws = [canonical("dsbs", lam=0.5), make_joint([2, 2], rng.dirichlet(np.ones(4)))]
    for d in laws:
        for name, lam in (("square", [0.9, 0.9]), ("binent", [0.6, 0.8])):
            phi = parse_phi(name)
            got, f = _assert_matches_reference(d, phi, lam, GridSpec(resolution=5))
            # blocking changes neither the rounding nor the tie order
            want, want_f = _min_objective_at_cap(default_cap, d, phi, lam, GridSpec(5))
            assert got == want and np.array_equal(f.values, want_f.values), (name, lam)
    d = make_joint([2, 4], rng.dirichlet(np.ones(8)))
    assert brute_maximal_correlation(d, GridSpec(resolution=5)) == _max_correlation_reference(
        d, GridSpec(resolution=5)
    )
    d = make_joint([2, 2, 2], rng.dirichlet(np.ones(8)))
    monkeypatch.setattr(oracle, "_CAP", max(cap, 6_561))  # 3^8 rows
    lam = [0.5, 0.5, 0.5]
    got, f = _assert_matches_reference(d, square(), lam, GridSpec(resolution=3))
    want, want_f = _min_objective_at_cap(default_cap, d, square(), lam, GridSpec(3))
    assert got == want and np.array_equal(f.values, want_f.values)


def test_brute_maximal_correlation_answer_does_not_depend_on_the_domain():
    # correlation is invariant under affine maps of g, and the grid of any
    # interval, midpoint included, is an affine image of the grid on [-1, 1]
    laws = [
        canonical("dsbs", lam=0.7),
        make_joint([2, 3], np.random.default_rng(23).dirichlet(np.ones(6))),
    ]
    for d in laws:
        want = brute_maximal_correlation(d, GridSpec(9))
        for domain in ((0.0, 0.001), (5.0, 6.0)):
            # g gridded on another interval reaches the same correlation
            on_domain = _max_correlation_reference(d, GridSpec(9), domain)
            assert on_domain == pytest.approx(want, rel=0, abs=1e-12), domain
    # a binary Y: every non-constant g attains rho
    assert brute_maximal_correlation(laws[0], GridSpec(9)) == pytest.approx(0.7, abs=1e-12)


def test_oracle_imports_only_dist_errors_and_phi():
    # the oracle certifies the search and spectral paths, so it shares no code
    # with them: its only library imports are the law, the errors and Phi
    tree = ast.parse(Path(oracle.__file__).read_text())
    local = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            local.add(node.module)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("phiribbon"):
            local.add(node.module.removeprefix("phiribbon").lstrip(".") or None)
        elif isinstance(node, ast.Import):
            local.update(a.name for a in node.names if a.name.startswith("phiribbon"))
    assert local == {"dist", "errors", "phi"}
