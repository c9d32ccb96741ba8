"""Unit tests for the search-based region queries."""

import math
import warnings

import numpy as np
import pytest

from phiribbon import correlation, ribbon_phi
from phiribbon.cli import main
from phiribbon.correlation import SearchOpts, eta_phi
from phiribbon.dist import (
    Channel,
    JointFunction,
    canonical,
    dist_to_json,
    make_joint,
    marginal,
    pair_product,
)
from phiribbon.errors import (
    ArityMismatch,
    BadParameter,
    BadShape,
    NotBipartite,
    PhiNotClassF,
    ShapeMismatch,
)
from phiribbon.phi import PhiSpec, binent, cond_phi_entropy, parse_phi, phi_entropy, square, xlogx
from phiribbon.ribbon_phi import (
    _DENSITY_FLOOR,
    _VIOLATION_TOL,
    RibbonVerdict,
    _FlatProblem,
    _project_density,
    _ray_exits,
    _search,
    _seeds,
    alpha_equivalent_membership,
    definition_gap,
    eta_from_ribbon,
    i_phi_channel_test,
    lift_witness_through_channels,
    lift_witness_to_product,
    normalized_phi_ribbon_membership,
    phi_ribbon_membership,
    ribbon_boundary_trace,
)
from phiribbon.ribbon_mc import (
    PSD_TOL,
    _check_lambda,
    _rays,
    gram_matrix,
    mc_boundary_trace,
    mc_def_gap,
    mc_membership,
)

OPTS = SearchOpts(restarts=16, seed=0)


def test_xor_binent_certified_violation():
    d = canonical("xor_triple")
    res = phi_ribbon_membership(d, binent(), [1.0, 1.0, 1.0], OPTS)
    assert res.violated
    assert res.gap < -1e-6
    # the witness re-certifies through the entropy module
    assert definition_gap(d, binent(), [1, 1, 1], res.witness) == pytest.approx(res.gap)
    # while the quadratic-case region still contains (1,1,1)
    assert mc_membership(d, [1.0, 1.0, 1.0]).verdict


def test_xor_square_holds_at_ones():
    d = canonical("xor_triple")
    res = phi_ribbon_membership(d, square(), [1.0, 1.0, 1.0], OPTS)
    assert not res.violated
    assert res.gap > -1e-9


def test_independent_pair_holds_everywhere():
    d = make_joint([2, 2], np.outer([0.4, 0.6], [0.3, 0.7]).ravel())
    for phi in (square(), binent(), xlogx(0.05, 4.0)):
        res = phi_ribbon_membership(d, phi, [1.0, 1.0], OPTS)
        assert not res.violated, phi.name


def test_agrees_with_quadratic_region_for_square():
    rng = np.random.default_rng(17)
    for _ in range(10):
        d = make_joint([2, 2], rng.dirichlet(np.ones(4)))
        lam = rng.uniform(0.1, 1.0, size=2)
        exact = mc_membership(d, lam)
        if abs(exact.min_eigenvalue) < 1e-6:
            continue
        res = phi_ribbon_membership(d, square(), lam, OPTS)
        assert res.violated == (not exact.verdict)


def test_non_class_phi_warns():
    quartic = PhiSpec("quartic", (1.0, 2.0), eval=lambda t: np.asarray(t, float) ** 4)
    d = canonical("dsbs", lam=0.5)
    with pytest.warns(PhiNotClassF):
        phi_ribbon_membership(d, quartic, [0.5, 0.5], SearchOpts(restarts=4))


def test_normalized_variant_detects_violation():
    d = canonical("equal_copies", k=2, base=[0.5, 0.5])
    phi = xlogx(0.0, 8.0)
    res = normalized_phi_ribbon_membership(d, phi, [0.9, 0.9], OPTS)
    assert res.violated
    # witness respects the density constraints
    w = res.witness.values
    assert np.all(w >= 0)
    assert d.expectation(res.witness) == pytest.approx(1.0, abs=1e-9)


def test_normalized_variant_holds_for_independent():
    d = make_joint([2, 2], np.outer([0.4, 0.6], [0.3, 0.7]).ravel())
    res = normalized_phi_ribbon_membership(d, xlogx(0.0, 8.0), [1.0, 1.0], OPTS)
    assert not res.violated


@pytest.mark.parametrize("name", ["square", "binent", "sym:1.5", "power:1.5", "xlogx:0,1"])
def test_normalized_variant_needs_room_above_one(name):
    # below top = 1, {0 <= f <= top, E f = 1} holds no non-constant f
    d = make_joint([2, 2], [0.4, 0.1, 0.1, 0.4])
    with pytest.raises(BadShape):
        normalized_phi_ribbon_membership(d, parse_phi(name), [0.9, 0.9], OPTS)


def test_searches_are_deterministic_given_seed():
    copies = canonical("equal_copies", k=2, base=[0.5, 0.5])
    # 12 atoms and no quadratic-case seed: every start is a random draw
    indep = make_joint([3, 4], np.outer([0.2, 0.3, 0.5], [0.1, 0.2, 0.3, 0.4]).ravel())
    opts = SearchOpts(restarts=8, seed=3)
    for search, d, phi, lam in (
        (phi_ribbon_membership, copies, binent(), [0.9, 0.9]),
        (normalized_phi_ribbon_membership, copies, xlogx(0.0, 8.0), [0.9, 0.9]),
        (phi_ribbon_membership, indep, binent(), [1.0, 1.0]),
        (normalized_phi_ribbon_membership, indep, xlogx(0.0, 8.0), [1.0, 1.0]),
    ):
        a = search(d, phi, lam, opts)
        b = search(d, phi, lam, opts)
        assert a.violated == (d is copies)
        assert (a.verdict, a.gap) == (b.verdict, b.gap)
        if a.violated:
            assert np.array_equal(a.witness.values, b.witness.values)


def test_stacked_search_equals_per_point_calls():
    # few moves per row, so each search ends near its own random starts
    opts = SearchOpts(restarts=6, max_iters=20, seed=1)
    dsbs = canonical("dsbs", lam=0.5)
    # (0.4, 0.7) and (0.7, 0.4) lie outside the simplex, where the search runs, and hold
    axis = np.array([0.0, 0.4, 0.7, 1.0])
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
    copies = canonical("equal_copies", k=2, base=[0.5, 0.5])
    phi_n = xlogx(0.0, 8.0)
    top = phi_n.domain[1] - 1e-9 * (phi_n.domain[1] - phi_n.domain[0])
    p = copies.probs.ravel()[copies.support_mask.ravel()]
    cases = [
        (dsbs, binent(), grid, None),  # simplex rows among searched ones
        # 12 atoms leave no box corners: the starts include each point's random draws;
        # (0.5, 0, 1) is a searched lambda_i = 0 row
        (make_joint([2, 2, 3], np.random.default_rng(8).dirichlet(np.ones(12))), binent(),
         [[1, 1, 1], [0.5, 0, 1], [0.2, 0.2, 0.2]], None),
        (make_joint([3, 4], np.outer([0.2, 0.3, 0.5], [0.1, 0.2, 0.3, 0.4]).ravel()), binent(),
         [[1, 1], [0.5, 0.5], [0.7, 0.6]], None),  # independent: every start is a random draw
        # 12 atoms; of the points outside the simplex, two have a quadratic-case
        # direction, which the certificate answers, and two have none, which
        # are searched from the shared random pool
        (make_joint([3, 4], np.random.default_rng(3).dirichlet(np.ones(12))), binent(),
         [[1, 1], [0.2, 0.2], [0.9, 0.6], [0, 1], [0.6, 0.5], [0.8, 0.3]], None),
        (copies, phi_n, [[0.9, 0.9], [0.3, 0.3], [0.0, 0.9]],
         lambda V: _project_density(V, p, _DENSITY_FLOOR, top)),
    ]
    lams = np.array(cases[3][2], float)
    least = _FlatProblem(cases[3][0], binent()).directions(lams)[1]
    assert (least < -PSD_TOL).tolist() == [True, False, True, False, False, False]
    assert (lams.sum(axis=1) > 1).tolist() == [True, False, True, False, True, True]
    seen = set()
    for d, phi, lams, project in cases:
        # the public one-point searches are the one-row case
        single = phi_ribbon_membership if project is None else normalized_phi_ribbon_membership
        for lam, got in zip(lams, _search(d, phi, lams, opts, project)):
            want = single(d, phi, lam, opts)
            assert (got.verdict, got.proven) == (want.verdict, want.proven), (d.alphabet_sizes, lam)
            assert got.proven == (sum(lam) <= 1)
            assert got.gap == pytest.approx(want.gap, rel=0, abs=1e-12)
            seen.add((got.verdict, got.proven))
    assert seen == {("violated", False), ("holds_up_to_search", False), ("holds_up_to_search", True)}
    assert _search(dsbs, binent(), np.zeros((0, 2)), opts) == []


def test_simplex_points_are_answered_without_a_search(monkeypatch):
    # sum(lambda) <= 1 lies in every region: no engine call, the exact gap 0
    calls = []
    engine = ribbon_phi._pgd

    def counting(*args, **kwargs):
        calls.append(len(args[1]))
        return engine(*args, **kwargs)

    monkeypatch.setattr(ribbon_phi, "_pgd", counting)
    d, opts = canonical("dsbs", lam=0.5), SearchOpts(restarts=4, max_iters=20)
    proven = RibbonVerdict("holds_up_to_search", 0.0, None, proven=True)
    searches = [
        lambda lam: [phi_ribbon_membership(d, binent(), lam, opts)],
        lambda lam: [normalized_phi_ribbon_membership(d, xlogx(0.0, 8.0), lam, opts)],
        lambda lam: list(alpha_equivalent_membership(d, 1.5, lam, opts)),
    ]
    for search in searches:
        for lam in ([0.0, 0.0], [0.3, 0.5], [1.0, 0.0], [0.5, 0.5]):
            got = search(lam)
            assert got == [proven] * len(got), lam
        assert calls == []
        # the quadratic test rejects (1, 1): its sweep certifies, with no engine call
        got = search([1.0, 1.0])
        assert calls == [] and all(r.violated for r in got)
        # just outside the simplex, where the quadratic test accepts: searched
        got = search([0.5, 0.5 + 1e-9])
        assert calls and not any(r.proven or r.violated for r in got)
        calls.clear()
    # in a stack, only the rows outside the simplex are searched: one group of
    # opts.restarts rows per side
    pairs = alpha_equivalent_membership(d, 1.5, [[0.2, 0.3], [0.6, 0.6], [0.0, 1.0]], opts)
    assert calls == [opts.restarts, opts.restarts]
    assert [rp.proven for rp, _ in pairs] == [True, False, True]
    assert [rs.proven for _, rs in pairs] == [True, False, True]


@pytest.fixture
def pgd_rows(monkeypatch):
    """The start rows of every ``_pgd`` call the region searches make."""
    calls = []
    engine = ribbon_phi._pgd

    def counting(*args, **kwargs):
        calls.append(len(args[1]))
        return engine(*args, **kwargs)

    monkeypatch.setattr(ribbon_phi, "_pgd", counting)
    return calls


@pytest.mark.parametrize(
    "name", ["square", "power:1.5", "sym:1.5", "binent", "xlogx", "xlogx:0.05,4"]
)
def test_quadratic_rejected_points_are_certified_without_a_search(name, pgd_rows):
    # gap(c + eps u) = Phi''(c)/2 eps^2 u Q u + O(eps^3): where the quadratic
    # test rejects, the sweep along its direction proves the violation
    phi, rng, opts = parse_phi(name), np.random.default_rng(26), SearchOpts(restarts=4, max_iters=50)
    rejected = 0
    for sizes in ((2, 2), (2, 3), (2, 2, 2), (3, 3)):
        for _ in range(3):
            d = make_joint(list(sizes), rng.dirichlet(np.ones(math.prod(sizes))))
            lams = rng.uniform(0.5, 1.0, size=(8, len(sizes)))
            lams = lams[_FlatProblem(d, phi).directions(lams)[1] < -PSD_TOL]
            rejected += len(lams)
            for lam, got in zip(lams, _search(d, phi, lams, opts)):
                assert got.violated, (sizes, lam.tolist())
                assert got.gap == definition_gap(d, phi, lam, got.witness) <= -_VIOLATION_TOL
    assert rejected >= 60 and pgd_rows == []
    # without the early exit a search wants its deepest witness, so it runs
    d = canonical("dsbs", lam=0.5)
    assert _search(d, phi, [[1.0, 1.0]], opts, exit_below=-np.inf)[0].violated
    assert pgd_rows == [opts.restarts]


def test_a_mixed_stack_searches_only_its_quadratic_accepted_points(pgd_rows):
    d, phi, opts = canonical("dsbs", lam=0.5), binent(), SearchOpts(restarts=6, max_iters=30, seed=2)
    # in the simplex, rejected, accepted, rejected, accepted, in the simplex
    lams = np.array([[0.3, 0.3], [1.0, 1.0], [0.6, 0.6], [0.9, 0.7], [0.3, 0.9], [1.0, 0.0]])
    least = _FlatProblem(d, phi).directions(lams)[1]
    assert (least < -PSD_TOL).tolist() == [False, True, False, True, False, False]
    got = _search(d, phi, lams, opts)
    assert [(r.verdict, r.proven) for r in got] == [
        ("holds_up_to_search", True), ("violated", False), ("holds_up_to_search", False),
        ("violated", False), ("holds_up_to_search", False), ("holds_up_to_search", True),
    ]
    assert pgd_rows == [2 * opts.restarts]
    pgd_rows.clear()
    for lam, r in zip(lams, got):
        alone = phi_ribbon_membership(d, phi, lam, opts)
        assert (alone.verdict, alone.proven) == (r.verdict, r.proven)
        assert alone.gap == pytest.approx(r.gap, rel=0, abs=1e-12)
    assert pgd_rows == [opts.restarts, opts.restarts]


def test_only_the_certificate_solves_for_the_quadratic_case_direction(monkeypatch, pgd_rows):
    # one stacked eigensolve per search with the early exit; the deep re-search,
    # which skips the certificate, and the search's starts make none
    calls = []
    solve = _FlatProblem.directions

    def counting(self, L):
        calls.append(len(L))
        return solve(self, L)

    monkeypatch.setattr(_FlatProblem, "directions", counting)
    d, phi, opts = canonical("dsbs", lam=0.5), binent(), SearchOpts(restarts=6, max_iters=30, seed=2)
    # in the simplex, rejected, accepted, rejected, accepted
    lams = np.array([[0.3, 0.3], [1.0, 1.0], [0.6, 0.6], [0.9, 0.7], [0.3, 0.9]])
    assert [r.violated for r in _search(d, phi, lams, opts)] == [False, True, False, True, False]
    assert calls == [4] and pgd_rows == [2 * opts.restarts]
    calls.clear()
    assert [r.violated for r in _search(d, phi, lams, opts, exit_below=-np.inf)][1::2] == [True, True]
    assert calls == [] and pgd_rows[1:] == [4 * opts.restarts]

    def refuse(self, L):
        raise AssertionError("the starts solved for a quadratic-case direction")

    monkeypatch.setattr(_FlatProblem, "directions", refuse)
    prob = _FlatProblem(d, phi)
    starts, _, _ = _seeds(prob, lams[1:], np.random.default_rng(2), opts.restarts)
    assert starts.shape == (4 * opts.restarts, prob.n)


def test_normalized_certificate_is_a_density(pgd_rows):
    # the sweep is projected before it is scored, so its witness has E f = 1
    rng, phi = np.random.default_rng(11), xlogx(0.0, 8.0)
    opts = SearchOpts(restarts=4, max_iters=50)
    for sizes in ((2, 2), (2, 3), (3, 3)):
        d = make_joint(list(sizes), rng.dirichlet(np.ones(math.prod(sizes))))
        lam = np.ones(len(sizes))
        assert _FlatProblem(d, phi).directions(lam[None])[1][0] < -PSD_TOL
        got = normalized_phi_ribbon_membership(d, phi, lam, opts)
        assert got.violated
        f = got.witness.values[d.support_mask]
        assert d.probs[d.support_mask] @ f == pytest.approx(1.0, rel=0, abs=1e-14)
        assert f.min() >= _DENSITY_FLOOR
    assert pgd_rows == []


def test_normalized_search_finds_a_near_boundary_violation():
    # query 1455 of the seed-18 phi_region benchmark stream: the quadratic test
    # rejects by -3.2e-4, and a search from the one-sided seeds answered "holds"
    d = make_joint([2, 2], [0.016912922838771882, 0.4852311826100754,
                            0.1208143516986473, 0.37704154285250546])
    lam = [0.40754259208337, 0.940851698336447]
    got = normalized_phi_ribbon_membership(d, parse_phi("xlogx:0,4"), lam,
                                           SearchOpts(4, 50, seed=1369976677))
    assert got.violated and got.gap <= -1e-3
    assert definition_gap(d, parse_phi("xlogx:0,4"), lam, got.witness) == got.gap


def test_alpha_pair_finds_a_near_boundary_violation():
    # query 263 of the seed-20 phi_region benchmark stream: the quadratic test
    # rejects by -6.1e-6; the power side's sweep certifies on its -u side, and
    # the symmetric side is proven by the deep power witness's transport
    d = make_joint([2, 2], [0.4149614974399348, 0.02194138729507919,
                            0.07368001457840562, 0.4894171006865803])
    lam = [0.5445651164638496, 0.5588109941484987]
    rp, rs = alpha_equivalent_membership(d, 1.5, lam, SearchOpts(4, 50, seed=1395573651))
    assert rp.violated and rs.violated


def test_verdicts_with_a_witness_compare_and_hash():
    d = canonical("xor_triple")
    res = phi_ribbon_membership(d, binent(), [1.0, 1.0, 1.0], OPTS)
    assert res.violated and res == res and res in {res}
    g = gram_matrix(canonical("dsbs", lam=0.5))
    m = mc_membership(canonical("dsbs", lam=0.5), [1.0, 1.0], g)
    assert not m.verdict and m.witness is not None
    assert g == g and g in {g} and m == m and m in {m}


def _flat_blocks_reference(prob):
    """The averaging blocks of ``_FlatProblem.A`` from ``np.unique`` cells and
    ``np.eye`` one-hots per coordinate, kept as the reference of the one-hots
    built for all coordinates at once."""
    symbols = np.unravel_index(prob.sup, prob.d.alphabet_sizes)
    blocks = [np.eye(prob.n), prob.p[:, None]]
    for i in range(prob.d.k):
        _, cell = np.unique(symbols[i], return_inverse=True)
        onehot = np.eye(cell.max() + 1)[cell]
        blocks.append(onehot * prob.p[:, None] / (prob.p @ onehot))
    return np.hstack(blocks)


def _flat_reference(p, maps):
    """``correlation._FlatProblem``'s arrays built block by block with
    ``np.hstack`` and read off a column-owner vector, kept as the bit-for-bit
    reference of the preallocated layout."""
    n = len(p)
    tables = [M / p[:, None] for M in maps]
    blocks, owner = [np.eye(n), p[:, None]], [-2] * n + [-1]
    for i, t in enumerate(tables):
        blocks.append(t * p[:, None] / (p @ t))
        owner += [i] * t.shape[1]
    T = np.hstack([np.ones((n, 1)), *tables]).T
    owner = np.array(owner)
    return {
        "A": np.hstack(blocks),
        "T": T,
        "w": np.concatenate([p, T @ p]),
        "V0": 1.0 * (owner == -2) - (owner == -1),
        "V": 1.0 * (owner == -1) - (owner == np.arange(len(tables))[:, None]),
    }


def _law_maps_reference(d):
    """The support atoms and the one-hot cell maps of each X_i, kept as the
    reference of ``ribbon_phi._FlatProblem``'s."""
    sup = np.flatnonzero(d.support_mask.ravel())
    symbols = np.array(np.unravel_index(sup, d.alphabet_sizes))
    hits = 1.0 * (symbols[:, :, None] == np.arange(max(d.alphabet_sizes)))
    p = d.probs.ravel()[sup]
    return sup, p, [p[:, None] * h.compress(h.any(axis=0), axis=1) for h in hits]


def _assert_flat_matches(prob, p, maps):
    want = _flat_reference(p, maps)
    for name, array in want.items():
        assert np.array_equal(getattr(prob, name), array), name
    assert np.array_equal(prob.p, p)
    assert len(prob.maps) == len(maps) and all(map(np.array_equal, prob.maps, maps))


def _seeds_reference(prob, lams, rng, restarts, project=None):
    """``_seeds`` with its pool and ranking built piece by piece, kept as the
    reference of the preallocated version."""
    a, b = prob.phi.domain
    lo, hi, c = a + 1e-9 * (b - a), b - 1e-9 * (b - a), 0.5 * (a + b)
    P, n = len(lams), prob.n
    bits = np.arange(2**n if n <= 10 else 0)[:, None] >> np.arange(n) & 1
    signs = np.repeat(2.0 * bits - 1, 2, axis=0)
    corners = c + (b - a) * np.tile([0.5, 0.2], len(bits))[:, None] * signs
    pool = np.vstack([np.clip(corners, lo, hi), rng.uniform(lo, hi, size=(restarts, n))])
    if project is not None:
        pool = project(pool)
    gaps = np.column_stack([np.ones(P), lams]) @ prob.gap_terms(pool).T
    # the corners, then the random rows that fill the pool to restarts
    valid = np.hstack([np.ones(len(corners), bool), np.arange(restarts) < restarts - len(corners)])
    best = np.lexsort((gaps, np.broadcast_to(~valid, gaps.shape)))[:, :restarts]
    return pool[best.ravel()], lo, hi


def test_flat_setup_and_seeds_match_the_references():
    # bit for bit: the search's start rows, and so its answers, must not move
    rng = np.random.default_rng(43)
    shapes = [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 2, 3), (3, 3, 3), (3, 4)]
    for t in range(42):
        sizes = shapes[t % len(shapes)]
        probs = rng.dirichlet(np.ones(math.prod(sizes))).reshape(sizes)
        if t % 3 == 1:  # a symbol of one coordinate carries no mass: fewer cells
            axis = rng.integers(len(sizes))
            probs[(slice(None),) * axis + (rng.integers(sizes[axis]),)] = 0.0
        elif t % 3 == 2:
            probs.ravel()[rng.integers(probs.size)] = 0.0
        d = make_joint(list(sizes), probs.ravel() / probs.sum())
        name = ["binent", "power:1.5", "xlogx:0,4"][t % 3]
        phi = parse_phi(name)
        prob = _FlatProblem(d, phi)
        assert np.array_equal(prob.A, _flat_blocks_reference(prob))
        sup, p, maps = _law_maps_reference(d)
        assert np.array_equal(prob.sup, sup)
        _assert_flat_matches(prob, p, maps)
        if t % 6 == 0:  # an eta problem: one map, the joint masses of a pair
            P, px = correlation._bipartite_matrices(marginal(d, [0, d.k - 1]))[:2]
            _assert_flat_matches(correlation._FlatProblem(px, [P], phi), px, [P])
        lams = rng.uniform(0.0, 1.0, size=(3, d.k)) * (rng.uniform(size=(3, d.k)) > 0.2)
        top = phi.domain[1] - 1e-9 * (phi.domain[1] - phi.domain[0])
        project = (lambda V: _project_density(V, prob.p, _DENSITY_FLOOR, top)) if name == "xlogx:0,4" else None
        got = _seeds(prob, lams, np.random.default_rng(t), 4, project)
        want = _seeds_reference(prob, lams, np.random.default_rng(t), 4, project)
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), (sizes, t)


def _bisect_projection(v, p, floor, top):
    """The 100-step bisection the breakpoint solve replaced, kept as its reference."""
    lo_mu, hi_mu = np.min(v) - top, np.max(v)
    for _ in range(100):
        mu = 0.5 * (lo_mu + hi_mu)
        if float(p @ np.clip(v - mu, floor, top)) > 1.0:
            lo_mu = mu
        else:
            hi_mu = mu
    return np.clip(v - 0.5 * (lo_mu + hi_mu), floor, top)


def test_density_projection_matches_bisection():
    rng = np.random.default_rng(23)
    floor = 1e-12
    for n in (1, 2, 4, 9, 27):
        p = rng.dirichlet(np.ones(n))
        u = rng.normal(size=(4, n))
        u -= (u @ p)[:, None]
        V = np.vstack([
            rng.uniform(-3.0, 11.0, size=(16, n)),
            1.0 + 0.05 * u,  # already feasible
            50.0 * rng.normal(size=(4, n)),  # nearly every entry clipped
        ])
        for top in (8.0 - 8e-9, 1.0 + 1e-3, 0.9):
            got = _project_density(V, p, floor, top)
            want = np.array([_bisect_projection(v, p, floor, top) for v in V])
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            assert np.all((floor <= got) & (got <= top))
            if top > 1.0:
                np.testing.assert_allclose(got @ p, 1.0, rtol=0, atol=1e-12)
                inside = np.all(V[16:20] <= top, axis=1)  # feasible rows stay put
                np.testing.assert_allclose(got[16:20][inside], V[16:20][inside], rtol=0, atol=1e-12)
            else:  # mean 1 is out of reach: every entry clipped at top
                np.testing.assert_allclose(got, top, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "name", ["square", "power:1.5", "sym:1.5", "binent", "xlogx", "xlogx:0.05,4", "xlogx:0,4"]
)
def test_flat_rows_match_definition_gap(name):
    phi = parse_phi(name)
    a, b = phi.domain
    rng = np.random.default_rng(29)
    laws = [
        make_joint([2, 3], rng.dirichlet(np.ones(6))),
        make_joint([2, 2, 2], np.r_[0.0, rng.dirichlet(np.ones(7))]),  # one empty atom
    ]
    for d, lam in zip(laws, ([0.7, 0.0], [0.4, 0.9, 0.6])):
        prob = _FlatProblem(d, phi)
        c = 0.5 * (a + b)
        F = np.vstack([
            rng.uniform(a + 1e-3 * (b - a), b - 1e-3 * (b - a), size=(6, prob.n)),
            c + 1e-6 * (b - a) * rng.uniform(-1, 1, size=(6, prob.n)),  # quadrature regime
        ])
        if name == "xlogx:0,4":
            F[::3, : prob.n // 2] = 0.0  # exact zeros take the 0 log 0 = 0 convention
        rng.shuffle(F)
        # half the rows carry lam, half a random point with some zero entries
        drawn = rng.uniform(size=(6, d.k)) * (rng.uniform(size=(6, d.k)) > 0.3)
        L = np.vstack([np.tile(lam, (6, 1)), drawn])
        with np.errstate(divide="ignore", invalid="ignore"):
            gaps, _ = prob.rows(F, L)
        want = [definition_gap(d, phi, l, prob.to_joint(f)) for f, l in zip(F, L)]
        np.testing.assert_allclose(gaps, want, rtol=0, atol=1e-12)


def _definition_gap_reference(d, phi, lam, f):
    """The gap from one entropy call per coordinate, kept as the reference of
    the stacked evaluation in ``definition_gap``."""
    lam = _check_lambda(lam, d.k)
    total = phi_entropy(d, phi, f).value
    g = total
    for i in range(d.k):
        if lam[i] == 0:
            continue
        cond = cond_phi_entropy(d, phi, f, [i]).value
        g -= lam[i] * (total - cond)
    return g


def test_definition_gap_matches_the_per_coordinate_reference():
    # the stacked rows sum their atoms in another order (zero-padded cells),
    # so the two agree to rounding, not bit for bit
    rng = np.random.default_rng(41)
    names = ["square", "power:1.5", "sym:1.5", "binent", "xlogx", "xlogx:0.05,4", "xlogx:0,4"]
    compared = zeros = 0
    for sizes in [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 2, 3), (3, 3, 3)]:
        for trial in range(6):
            probs = rng.dirichlet(np.ones(math.prod(sizes)))
            if trial % 2:
                probs[rng.integers(len(probs))] = 0.0  # a zero atom, which may empty a cell
                probs /= probs.sum()
            d = make_joint(list(sizes), probs)
            for name in names:
                phi = parse_phi(name)
                a, b = phi.domain
                vals = rng.uniform(a + 1e-3 * (b - a), b - 1e-3 * (b - a), size=sizes)
                if name == "xlogx:0,4":
                    vals.ravel()[rng.random(vals.size) < 0.3] = 0.0
                    zeros += 1
                lam = rng.uniform(0.0, 1.0, size=len(sizes)) * (rng.random(len(sizes)) > 0.3)
                f = JointFunction(vals)
                want = _definition_gap_reference(d, phi, lam, f)
                assert definition_gap(d, phi, lam, f) == pytest.approx(want, rel=1e-13, abs=1e-18)
                compared += 1
    assert compared == 252 and zeros == 36


def test_flat_rows_gradient_matches_differences():
    d = make_joint([2, 3], np.random.default_rng(5).dirichlet(np.ones(6)))
    prob = _FlatProblem(d, binent())
    F = np.random.default_rng(6).uniform(-0.8, 0.8, size=(3, prob.n))
    L = np.array([[0.8, 0.5], [0.0, 0.5], [1.0, 0.2]])  # one lambda point per row
    _, grad = prob.rows(F, L)
    h = 1e-6
    for j in range(prob.n):
        e = np.zeros(prob.n)
        e[j] = h
        diff = (prob.rows(F + e, L)[0] - prob.rows(F - e, L)[0]) / (2 * h)
        np.testing.assert_allclose(grad[:, j], diff, rtol=1e-6, atol=1e-9)


def test_flat_rows_gradient_keeps_a_zero_atom_to_itself():
    # Phi'(0) = -inf for xlogx: only the zero atom's own entry may be infinite
    d = make_joint([2, 2], np.random.default_rng(5).dirichlet(np.ones(4)))
    prob = _FlatProblem(d, parse_phi("xlogx:0,4"))
    with np.errstate(divide="ignore", invalid="ignore"):
        _, grad = prob.rows(np.array([[0.0, 1.0, 2.0, 3.0]]), np.array([[0.5, 0.5]]))
    assert grad[0, 0] == -np.inf
    assert np.all(np.isfinite(grad[0, 1:]))


@pytest.mark.parametrize("sizes", [(2, 2), (3, 3), (2, 2, 2), (3, 3, 3)])
def test_closed_form_direction_is_the_quadratic_witness(sizes):
    # the direction exists exactly where the Gram-matrix test rejects, and
    # every Phi's gap is negative along it at small amplitude
    rng = np.random.default_rng(31)
    compared = rejected = 0
    for _ in range(10):
        d = make_joint(list(sizes), rng.dirichlet(np.ones(math.prod(sizes))))
        lams = rng.uniform(size=(30, d.k)) * (rng.uniform(size=(30, d.k)) > 0.25)  # some zeros
        quad = _FlatProblem(d, square())
        U, least = quad.directions(lams)
        found = least < -PSD_TOL
        flats = [_FlatProblem(d, parse_phi(name)) for name in ("binent", "power:1.5", "xlogx:0.05,4")]
        for lam, u, has in zip(lams, U, found):
            res = mc_membership(d, lam)
            if abs(res.min_eigenvalue) < 1e-6:  # where the two tests' tolerances may differ
                continue
            compared += 1
            assert has == (not res.verdict), lam
            if not has:
                continue
            rejected += 1
            assert mc_def_gap(d, lam, quad.to_joint(u)) < 0, lam
            for flat in flats:
                a, b = flat.phi.domain
                f = 0.5 * (a + b) + 1e-3 * (b - a) * u / np.max(np.abs(u))
                assert flat.rows(f[None], lam[None])[0][0] < 0, (flat.phi.name, lam)
    assert compared >= 250 and 0 < rejected < compared


def test_i_phi_channel_test_xor_identity_on_pair():
    # U = (X1, X2) reveals everything; with lambda = (1,1,1) the mutual
    # information inequality fails by exactly log 2 nats
    d = canonical("xor_triple")
    W = np.zeros((8, 4))
    for x1 in (0, 1):
        for x2 in (0, 1):
            for x3 in (0, 1):
                W[x1 * 4 + x2 * 2 + x3, x1 * 2 + x2] = 1.0
    gap = i_phi_channel_test(d, xlogx(0.0, 64.0), [1.0, 1.0, 1.0], Channel(0, W))
    assert gap == pytest.approx(-math.log(2.0), abs=1e-10)


def test_i_phi_channel_test_trivial_channel_is_zero():
    d = canonical("dsbs", lam=0.5)
    W = np.ones((4, 1))
    gap = i_phi_channel_test(d, xlogx(0.0, 64.0), [1.0, 1.0], Channel(0, W))
    assert gap == pytest.approx(0.0, abs=1e-12)


def test_i_phi_channel_test_refuses_a_phi_undefined_above_one():
    # any U that depends on X has a ratio p(x, u) / (p(x) p(u)) above 1, so
    # binent and sym:A, defined up to 1, could only answer an independent U
    d = canonical("dsbs", lam=0.5)
    for W in (np.ones((4, 1)), np.eye(4)):
        for phi in (binent(), parse_phi("sym:1.5")):
            with pytest.raises(BadParameter, match="ratios above 1"):
                i_phi_channel_test(d, phi, [1.0, 1.0], Channel(0, W))


def test_i_phi_channel_test_rejects_a_channel_of_the_wrong_size():
    # the channel reads the flattened outcome: 4 input symbols for a (2, 2) law
    d = canonical("dsbs", lam=0.5)
    for rows in (2, 3, 8):
        with pytest.raises(BadShape):
            i_phi_channel_test(d, xlogx(0.0, 64.0), [1.0, 1.0], Channel(0, np.full((rows, 2), 0.5)))


def test_eta_from_ribbon_dsbs_square():
    # for Phi = t^2, R on the ray t (1, s) is a Rayleigh quotient with supremum
    # lambda_max(S M S), S = diag(sqrt(1, s)) over the Gram blocks, so the
    # answer is (lambda_max - 1)/s in closed form: 0.25018759376 for DSBS(0.5)
    d, s = canonical("dsbs", lam=0.5), 1e-3
    g = gram_matrix(d)
    scale = np.sqrt(np.repeat([1.0, s], g.block_dims))
    want = (np.linalg.eigvalsh(scale[:, None] * g.M * scale).max() - 1) / s
    assert want == pytest.approx(0.25018759376, abs=1e-10)
    got = eta_from_ribbon(d, square(), SearchOpts(restarts=8, max_iters=150))
    assert got == pytest.approx(want, abs=1e-9)


def test_eta_from_ribbon_needs_a_bipartite_law():
    with pytest.raises(NotBipartite):
        eta_from_ribbon(canonical("xor_triple"), binent())


def test_eta_from_ribbon_is_zero_where_x_has_one_atom():
    # no non-constant f of X, so eta_Phi is 0; the ray's best R is then below
    # 1 (a function of Y alone gives R = s), and (R - 1)/s would read -999
    opts = SearchOpts(restarts=4, max_iters=50)
    for probs in ([0.5, 0.5, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]):
        assert eta_from_ribbon(make_joint([2, 2], probs), binent(), opts) == 0.0


@pytest.mark.parametrize("phi_name", ["binent", "xlogx:0.05,4", "power:1.5"])
def test_ribbon_boundary_trace_certifies_its_violations(phi_name):
    # every "violated" ray's proven exit t_c v has a certified negative gap,
    # and no ray's witness refutes its own traced lambda, an outer estimate
    d = make_joint([2, 2, 2], np.random.default_rng(7).dirichlet(np.ones(8)))
    phi, opts = parse_phi(phi_name), SearchOpts(restarts=12, max_iters=200)
    trace = ribbon_boundary_trace(d, phi, 16, opts)
    v = _rays(3, 16)
    _, proven, witnesses, _ = _ray_exits(d, phi, v, opts)
    assert any(verdict == "violated" for _, verdict in trace)
    for u, (lam, verdict), t_c, f in zip(v, trace, proven, witnesses):
        assert (verdict == "violated") == (t_c <= 1)
        if verdict == "violated":
            assert definition_gap(d, phi, t_c * u, f) <= -_VIOLATION_TOL, (u, t_c)
        assert definition_gap(d, phi, lam, f) > -_VIOLATION_TOL, (u, lam)


@pytest.mark.parametrize(
    "phi_name, exit_bound",
    # a one-atom indicator has power:1.5 ratio 3 (sqrt 2 - 1); near the box
    # edge binent behaves like t log t, whose diagonal exit here is 2/3, since
    # U = X in the mutual-information form gives sum_i I(U; X_i) / I(U; X) = 3/2
    [("power:1.5", (math.sqrt(2) + 1) / 3 + 1e-6), ("binent", 2 / 3 + 1e-4)],
)
def test_ribbon_boundary_trace_beyond_the_quadratic_case(phi_name, exit_bound):
    # on xor_triple the Gram matrix is the identity, so the mc exit caps no
    # ray and the trace reads large-amplitude witnesses alone; "holds" on the
    # other rays is only evidence, so only the diagonal ray (1, 1, 1) is checked
    trace = ribbon_boundary_trace(canonical("xor_triple"), parse_phi(phi_name), 16,
                                  SearchOpts(12, 200))
    [(lam, verdict)] = [(lam, verdict) for lam, verdict in trace if np.all(lam == lam[0])]
    assert verdict == "violated"
    assert lam[0] <= exit_bound


def test_ray_ascents_draw_their_own_starts(monkeypatch):
    # the rays climb from the ascent's own starts, not the region search's seed pool
    def refuse(*args, **kwargs):
        raise AssertionError("a ray ascent built the region search's seeds")

    monkeypatch.setattr(ribbon_phi, "_seeds", refuse)
    d, opts = canonical("dsbs", lam=0.5), SearchOpts(restarts=4, max_iters=50)
    assert len(ribbon_boundary_trace(d, binent(), 4, opts)) == 4
    assert eta_from_ribbon(d, binent(), opts) >= eta_phi(d, binent(), None, opts).value - 1e-9


def test_ribbon_boundary_trace_counts_as_one_search(monkeypatch, tmp_path):
    # the ascent takes opts.restarts start rows per ray, so a trace is bounded
    # as one search's restarts are, before anything sized by the rays is built
    monkeypatch.setattr(correlation, "_MAX_RESTARTS", 100)
    d, opts = canonical("dsbs", lam=0.5), SearchOpts(restarts=12, max_iters=20)
    assert len(ribbon_boundary_trace(d, binent(), 8, opts)) == 8  # 96 start rows

    def unreachable(*args, **kwargs):
        raise AssertionError("a trace over the bound started")

    monkeypatch.setattr(ribbon_phi, "_ray_exits", unreachable)
    with pytest.raises(BadParameter):
        ribbon_boundary_trace(d, binent(), 9, opts)  # 108 start rows
    path = tmp_path / "dsbs05.json"
    path.write_text(dist_to_json(d))
    argv = ["phi-ribbon", "trace", "--dist", str(path), "--phi", "binent", "--directions", "9"]
    assert main(argv) == 2


def test_ray_exits_quadratic_exit_is_mc_boundary_trace():
    # the exit 1 / (1 - e) read off the solve that gives each ray's direction
    # is mc_boundary_trace's, whose Gram-matrix solve the trace no longer makes
    rng = np.random.default_rng(37)
    laws = [canonical("dsbs", lam=0.3), canonical("dsbs", lam=0.8), canonical("xor_triple")]
    for sizes in ((2, 3), (3, 3), (2, 2, 2), (3, 3, 3)):
        for zero in (False, True):
            probs = rng.dirichlet(np.ones(math.prod(sizes)))
            if zero:
                probs[rng.integers(len(probs))] = 0.0
            laws.append(make_joint(sizes, probs / probs.sum()))
    opts = SearchOpts(restarts=2, max_iters=5)
    for d in laws:
        for directions in (16, 64):
            mc = mc_boundary_trace(d, directions)
            exits = _ray_exits(d, binent(), _rays(d.k, directions), opts)[3]
            want = [lam.max() for lam, _ in mc]
            np.testing.assert_allclose(exits, want, rtol=0, atol=1e-12)
            assert [m for _, m in mc] == (exits == 1.0).tolist()


def test_ribbon_boundary_trace_square_matches_quadratic_region():
    # for Phi = t^2 the region is exactly the quadratic one, so each traced
    # point is a member and the point 2e-3 further along its ray is not
    d = canonical("dsbs", lam=0.5)
    trace = ribbon_boundary_trace(d, square(), 4, SearchOpts(restarts=4, max_iters=100))
    assert len(trace) == 4
    for lam, verdict in trace:
        assert verdict == "violated"
        v = lam / np.max(lam)
        t = np.max(lam)
        assert mc_membership(d, lam).verdict, lam
        assert not mc_membership(d, (t + 2e-3) * v).verdict, lam


@pytest.mark.parametrize("directions", [0, -3, 2.5, True, "4", 10**11])
@pytest.mark.parametrize("law", ["dsbs", "xor_triple"])
def test_ribbon_boundary_trace_rejects_bad_directions(law, directions):
    d = canonical(law, lam=0.5) if law == "dsbs" else canonical(law)
    with pytest.raises(BadParameter):
        ribbon_boundary_trace(d, square(), directions, SearchOpts(restarts=2, max_iters=5))


def test_alpha_equivalent_membership_agrees():
    # lambda point where the power-side violation is tiny after transport
    rng = np.random.default_rng(0)
    for _ in range(4):
        probs = rng.dirichlet(np.ones(4))
    d = make_joint([2, 2], probs)
    rp, rs = alpha_equivalent_membership(d, 1.5, [0.46, 0.82], SearchOpts(restarts=8))
    assert rp.violated == rs.violated


def test_alpha_transport_uses_a_deep_power_witness():
    # criterion 10's second law: at these points the power-side search ends on
    # a witness just past its exit threshold, whose transport to the symmetric
    # side stays above -1e-13; the re-search without the early exit moves it
    rng = np.random.default_rng(10)
    for _ in range(2):
        d = make_joint([2, 2], rng.dirichlet(np.ones(4)))
    grid = np.linspace(1.0 / 15.0, 1.0, 15)
    lams = np.array([[grid[6], grid[13]], [grid[9], grid[12]]])  # (7, 14) / 15, (10, 13) / 15
    for rp, rs in alpha_equivalent_membership(d, 1.5, lams, SearchOpts(restarts=6, seed=0)):
        assert rp.violated and rs.violated


def test_alpha_equivalent_membership_clear_cases():
    d = canonical("dsbs", lam=0.5)
    inside = alpha_equivalent_membership(d, 1.5, [0.3, 0.3], SearchOpts(restarts=6))
    assert inside[0].proven and inside[1].proven
    # outside the simplex but inside the quadratic region, whose diagonal ends at 2/3
    searched = alpha_equivalent_membership(d, 1.5, [0.6, 0.6], SearchOpts(restarts=6))
    assert not any(r.violated or r.proven for r in searched)
    outside = alpha_equivalent_membership(d, 1.5, [1.0, 1.0], SearchOpts(restarts=6))
    assert outside[0].violated and outside[1].violated


def test_definition_gap_and_the_product_lift_reject_misshaped_witnesses():
    d = canonical("dsbs", lam=0.5)
    with pytest.raises(ShapeMismatch):
        definition_gap(d, binent(), [0.5, 0.5], JointFunction(np.zeros(4)))
    dx, dy = make_joint([2], [0.5, 0.5]), make_joint([3], [0.2, 0.3, 0.5])
    with pytest.raises(ArityMismatch):  # it returned a (4,) function for a (2,) x (2, 2) pair
        lift_witness_to_product(JointFunction([0.1, 0.9]), dx, d)
    with pytest.raises(ShapeMismatch):
        lift_witness_to_product(JointFunction([0.1, 0.2, 0.9]), dx, dy)


def test_lift_witness_to_product_preserves_gap():
    dx = canonical("equal_copies", k=2, base=[0.5, 0.5])
    dy = make_joint([2, 2], np.outer([0.5, 0.5], [0.5, 0.5]).ravel())
    lam = [0.9, 0.9]
    res = phi_ribbon_membership(dx, binent(), lam, OPTS)
    assert res.violated
    lifted = lift_witness_to_product(res.witness, dx, dy)
    prod = pair_product(dx, dy)
    assert definition_gap(prod, binent(), lam, lifted) == pytest.approx(
        res.gap, abs=1e-10
    )


def test_lift_witness_through_channels_shapes():
    d = canonical("dsbs", lam=0.5)
    from phiribbon.dist import bsc_channel, identity_channel

    chans = [identity_channel(0, 2), bsc_channel(1, 0.1)]
    f_out = JointFunction(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    pulled = lift_witness_through_channels(d, chans, f_out)
    assert pulled.values.shape == (2, 2)
    # averaging through the BSC shrinks the second coordinate's swing
    assert np.all(np.abs(pulled.values) <= 1.0)
    assert pulled.values[0, 0] == pytest.approx(0.8)
