"""Unit tests for the exact (quadratic-case) region queries."""

import itertools
import warnings
from fractions import Fraction

import numpy as np
import pytest

from phiribbon import ribbon_mc
from phiribbon.correlation import maximal_correlation
from phiribbon.dist import JointFunction, canonical, make_joint, marginal, pair_product
from phiribbon.errors import (
    BadLambda,
    BadParameter,
    BadShape,
    NonGeneric,
    NotCorrelationMatrix,
)
from phiribbon.ribbon_mc import (
    bbt_closed_form,
    bipartite_closed_form,
    detect_structure,
    fc2_gap,
    gaussian_mc_membership,
    gram_matrix,
    mc_boundary_trace,
    mc_def_gap,
    mc_membership,
    mc_membership_sprime,
    membership_verdicts,
    pearson_matrix,
    rho2_from_trace,
    tilde_gap,
    tilde_membership,
)


def _random_dist(rng, sizes):
    return make_joint(sizes, rng.dirichlet(np.ones(int(np.prod(sizes)))))


def test_gram_matrix_dsbs_half():
    g = gram_matrix(canonical("dsbs", lam=0.5))
    assert g.block_dims == (1, 1)
    assert np.allclose(g.M, [[1.0, 0.5], [0.5, 1.0]])


def test_gram_matrix_block_dims_follow_support():
    d = make_joint([3, 2], [0.25, 0.25, 0.25, 0.25, 0.0, 0.0])
    g = gram_matrix(d)
    assert g.block_dims == (1, 1)  # third X-symbol has zero probability


def test_gram_basis_is_orthonormal_zero_mean():
    rng = np.random.default_rng(12)
    d = _random_dist(rng, [3, 3])
    g = gram_matrix(d)
    for i, B in enumerate(g.basis):
        p = d.marginal_vector(i)
        assert B.shape == (3, g.block_dims[i]) == (3, 2)
        assert np.allclose(p @ B, 0.0, rtol=0, atol=1e-13)
        assert np.allclose(B.T @ (p[:, None] * B), np.eye(2), rtol=0, atol=1e-13)


def test_lambda_validation():
    d = canonical("dsbs", lam=0.5)
    with pytest.raises(BadLambda):
        mc_membership(d, [0.5])
    with pytest.raises(BadLambda):
        mc_membership(d, [0.5, 1.5])
    for bad in ([np.nan, 0.5], [0.5, np.inf], [-np.inf, 0.5]):
        with pytest.raises(BadLambda):
            mc_membership(d, bad)


def test_subnormal_lambda_reads_as_zero():
    # 1/lambda overflows for a subnormal entry: it must give the lambda_i = 0
    # answers, not a NaN eigenvalue and a non-member verdict
    d = canonical("dsbs", lam=0.5)
    for fn in (mc_membership, mc_membership_sprime, tilde_membership):
        got, want = fn(d, [5e-324, 0.5]), fn(d, [0.0, 0.5])
        assert got.verdict == want.verdict and got.min_eigenvalue == want.min_eigenvalue
    R = pearson_matrix(d)
    assert gaussian_mc_membership(R, [5e-324, 0.5]) == gaussian_mc_membership(R, [0.0, 0.5])


def test_mc_membership_dsbs_boundary_point():
    d = canonical("dsbs", lam=0.5)
    res = mc_membership(d, [2.0 / 3.0, 2.0 / 3.0])
    assert res.verdict
    assert res.min_eigenvalue == pytest.approx(0.0, abs=1e-12)


def test_mc_membership_inside_and_outside():
    d = canonical("dsbs", lam=0.5)
    assert mc_membership(d, [0.5, 0.5]).verdict
    res = mc_membership(d, [0.9, 0.9])
    assert not res.verdict
    # witness must violate the strong Cauchy-Schwarz inequality on re-check
    assert res.gap < -1e-12
    assert fc2_gap(d, [0.9, 0.9], res.witness) == pytest.approx(res.gap)


def test_mc_membership_zero_lambda_blocks_deleted():
    d = canonical("dsbs", lam=0.9)
    assert mc_membership(d, [0.0, 1.0]).verdict
    assert mc_membership(d, [0.0, 0.0]).verdict


def test_sprime_agrees_with_primary_form():
    rng = np.random.default_rng(13)
    for _ in range(50):
        k = int(rng.integers(2, 4))
        sizes = rng.integers(2, 4, size=k).tolist()
        d = _random_dist(rng, sizes)
        lam = rng.uniform(0, 1, size=k)
        a = mc_membership(d, lam)
        b = mc_membership_sprime(d, lam)
        if abs(a.min_eigenvalue) > 1e-8 and abs(b.min_eigenvalue) > 1e-8:
            assert a.verdict == b.verdict


def test_sprime_witness_recheck():
    d = canonical("dsbs", lam=0.5)
    res = mc_membership_sprime(d, [0.95, 0.95])
    assert not res.verdict
    f = JointFunction(sum(fi.lift(d).values for fi in res.witness))
    assert mc_def_gap(d, [0.95, 0.95], f) == pytest.approx(res.gap)
    assert res.gap < -1e-12


def test_bipartite_closed_form_matches_psd_test():
    rng = np.random.default_rng(14)
    for _ in range(50):
        d = _random_dist(rng, [2, 2])
        rho = maximal_correlation(d)
        lam = rng.uniform(0.05, 1.0, size=2)
        res = mc_membership(d, lam)
        if abs(res.min_eigenvalue) > 1e-8:
            assert bipartite_closed_form(rho, lam) == res.verdict


def _reciprocal_closed_form_exact(rho, lam):
    """``(1 - 1/l1)(1 - 1/l2) >= rho^2 - PSD_TOL`` in exact rational arithmetic,
    a zero entry or rho = 0 a member and an entry of 1 a member only when
    ``rho^2 <= PSD_TOL``: the reciprocal form of the bipartite closed form."""
    l1, l2 = (Fraction(float(x)) for x in lam)
    rho2, tol = Fraction(float(rho)) ** 2, Fraction(ribbon_mc.PSD_TOL)
    if l1 == 0 or l2 == 0 or rho2 == 0:
        return True
    if l1 == 1 or l2 == 1:
        return rho2 <= tol
    return (1 - 1 / l1) * (1 - 1 / l2) >= rho2 - tol


def test_bipartite_closed_form_edges():
    assert bipartite_closed_form(0.5, [0.0, 0.9])
    assert bipartite_closed_form(0.0, [1.0, 1.0])
    assert not bipartite_closed_form(0.5, [1.0, 0.9])
    entries = (0.0, 1e-300, 1e-12, 1 - 1e-9, 1.0)
    for rho in (0.0, 1e-5, 0.5, 1.0):
        for lam in itertools.product(entries, repeat=2):
            want = _reciprocal_closed_form_exact(rho, lam)
            assert bipartite_closed_form(rho, lam) == want, (rho, lam)


def test_bbt_closed_form_matches_psd_test():
    rng = np.random.default_rng(15)
    checked = 0
    while checked < 5:
        d = _random_dist(rng, [2, 2, 3])
        for lam in rng.uniform(0.05, 1.0, size=(20, 3)):
            res = mc_membership(d, lam)
            if abs(res.min_eigenvalue) <= 1e-8:
                continue
            try:
                assert bbt_closed_form(d, lam) == res.verdict
            except NonGeneric:
                break
        else:
            checked += 1


def test_bbt_closed_form_is_exact_at_zero_lambda_entries():
    rng = np.random.default_rng(1)
    d = make_joint([2, 2, 3], rng.dirichlet(np.ones(12)))
    lams = [[0, 0.5, 0], [0.5, 0, 0], [0, 0, 0], [0, 0, 0.5], [0, 1, 1], [1, 1, 0]]
    for _ in range(30):
        lams.extend(np.where(rng.random((20, 3)) < 0.4, 0.0, rng.uniform(0.0, 1.0, (20, 3))))
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the 1e300 stand-in for 1/0 - 1 overflowed
        for lam in lams:
            res = mc_membership(d, lam)
            if abs(res.min_eigenvalue) <= 1e-7:
                continue
            assert bbt_closed_form(d, lam) == res.verdict, lam
            checked += 1
    assert checked > 500


def _bbt_closed_form_from_the_law(d, lam):
    """``bbt_closed_form`` with E[g1|X3] and E[g2|X3] rebuilt from the law's
    pair marginals, not read off M: the verdict and the terms (rho12,
    rho13^2, rho23^2, cross), or NonGeneric."""
    lam = np.asarray(lam, dtype=float)
    g = gram_matrix(d)
    if g.block_dims != (1, 1, 2):
        raise NonGeneric("degenerate supports")
    g1, g2 = g.basis[0][:, 0], g.basis[1][:, 0]
    rho12 = float(np.sum(d.probs.sum(axis=2) * np.outer(g1, g2)))
    if rho12 < 0:
        g2, rho12 = -g2, -rho12
    p3 = d.marginal_vector(2)
    with np.errstate(divide="ignore", invalid="ignore"):
        e1 = np.where(p3 > 0, (g1 @ d.probs.sum(axis=1)) / p3, 0.0)
        e2 = np.where(p3 > 0, (g2 @ d.probs.sum(axis=0)) / p3, 0.0)
    stack = np.sqrt(p3)[:, None] * np.column_stack([e1, e2])
    if np.linalg.svd(stack, compute_uv=False)[-1] <= 1e-8:
        raise NonGeneric("conditional expectations on X3 are linearly dependent")
    terms = (rho12, float(p3 @ (e1 * e1)), float(p3 @ (e2 * e2)), float(p3 @ (e1 * e2)))
    _, rho13_sq, rho23_sq, cross = terms
    l1, l2, l3 = lam
    s1, s2, s3 = 1.0 - lam
    A = s1 * s3 - l1 * l3 * rho13_sq
    B = s2 * s3 - l2 * l3 * rho23_sq
    C = s3 * rho12 + l3 * cross
    tol = ribbon_mc.PSD_TOL
    return bool(A >= -tol and B >= -tol and A * B >= l1 * l2 * C * C - tol * (1 + abs(C))), terms


def test_bbt_closed_form_reads_the_law_terms_off_M():
    rng = np.random.default_rng(43)
    laws = []
    for j in range(40):
        p = rng.dirichlet(np.ones(12))
        if j % 3 == 0:  # a zero atom
            p[rng.integers(12)] = 0.0
        laws.append(make_joint([2, 2, 3], p / p.sum()))
    # X3 independent of (X1, X2), and X2 a copy of X1: E[g1|X3], E[g2|X3] dependent
    indep = np.multiply.outer(rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(3)))
    laws.append(make_joint([2, 2, 3], indep.ravel()))
    copy = np.zeros((2, 2, 3))
    copy[0, 0], copy[1, 1] = rng.dirichlet(np.ones(6)).reshape(2, 3)
    laws.append(make_joint([2, 2, 3], copy.ravel()))
    nongeneric = checked = 0
    for d in laws:
        M = gram_matrix(d).M
        for lam in np.where(rng.random((25, 3)) < 0.2, 0.0, rng.uniform(0.0, 1.0, (25, 3))):
            try:
                want, (rho12, rho13_sq, rho23_sq, cross) = _bbt_closed_form_from_the_law(d, lam)
            except NonGeneric:
                with pytest.raises(NonGeneric):
                    bbt_closed_form(d, lam)
                nongeneric += 1
                continue
            sign = np.copysign(1.0, M[0, 1])
            r13, r23 = M[0, 2:], sign * M[1, 2:]
            assert abs(M[0, 1]) == pytest.approx(rho12, rel=0, abs=1e-14)
            assert r13 @ r13 == pytest.approx(rho13_sq, rel=0, abs=1e-14)
            assert r23 @ r23 == pytest.approx(rho23_sq, rel=0, abs=1e-14)
            assert r13 @ r23 == pytest.approx(cross, rel=0, abs=1e-14)
            assert bbt_closed_form(d, lam) == want, lam
            checked += 1
    assert nongeneric >= 50 and checked > 900


def test_bbt_closed_form_shape_check():
    with pytest.raises(BadShape):
        bbt_closed_form(canonical("dsbs", lam=0.5), [0.5, 0.5, 0.5])


def test_tilde_membership_and_witness():
    d = canonical("equal_copies", k=2, base=[0.5, 0.5])
    # identical copies: f and -f sum to zero, so any positive lambda fails
    res = tilde_membership(d, [0.3, 0.3])
    assert not res.verdict
    assert tilde_gap(d, [0.3, 0.3], res.witness) == pytest.approx(res.gap)
    assert res.gap < -1e-12
    assert tilde_membership(d, [0.0, 0.0]).verdict


def test_tilde_membership_independent_pair():
    d = make_joint([2, 2], np.outer([0.4, 0.6], [0.5, 0.5]).ravel())
    # independence: Var[f+g] = Var[f] + Var[g], all lambda in the cube work
    assert tilde_membership(d, [1.0, 1.0]).verdict


def test_pearson_matrix_dsbs():
    R = pearson_matrix(canonical("dsbs", lam=0.7))
    assert np.allclose(R, [[1.0, 0.7], [0.7, 1.0]])


def test_pearson_matrix_needs_binary():
    with pytest.raises(BadShape):
        pearson_matrix(make_joint([3, 2], np.full(6, 1 / 6)))


def test_gaussian_mc_membership_validation():
    with pytest.raises(NotCorrelationMatrix):
        gaussian_mc_membership(np.array([[1.0, 0.5], [0.4, 1.0]]), [0.5, 0.5])
    with pytest.raises(NotCorrelationMatrix):
        gaussian_mc_membership(np.array([[2.0, 0.0], [0.0, 1.0]]), [0.5, 0.5])
    for bad in (np.inf, np.nan):
        with pytest.raises(NotCorrelationMatrix):
            gaussian_mc_membership(np.array([[1.0, bad], [bad, 1.0]]), [0.5, 0.5])


def test_gaussian_mc_membership_bipartite_curve():
    R = np.array([[1.0, 0.5], [0.5, 1.0]])
    assert gaussian_mc_membership(R, [2 / 3, 2 / 3])
    assert not gaussian_mc_membership(R, [0.7, 0.7])
    assert gaussian_mc_membership(R, [0.0, 1.0])


def test_detect_structure_xor():
    rep = detect_structure(canonical("xor_triple"))
    assert rep["pairwise_independent"]
    assert not rep["common_part"]
    assert not rep["tilde_degenerate"]


def test_detect_structure_common_part():
    rep = detect_structure(canonical("equal_copies", k=3, base=[0.5, 0.5]))
    assert rep["common_part"]
    assert rep["top_eigenvalue"] == pytest.approx(3.0, abs=1e-9)


def test_detect_structure_tilde_degenerate():
    d = canonical("tilde_degenerate", a=0.3, b=0.3)
    rep = detect_structure(d)
    assert rep["tilde_degenerate"]
    fs = rep["kernel_witness"]
    total = JointFunction(sum(f.lift(d).values for f in fs))
    assert d.variance(total) == pytest.approx(0.0, abs=1e-20)


def test_mc_boundary_trace_matches_closed_curve():
    d = canonical("dsbs", lam=0.5)
    trace = mc_boundary_trace(d, directions=32)
    for lam, full_member in trace:
        l1, l2 = lam
        if full_member:
            assert (1 - 1 / l1) * (1 - 1 / l2) >= 0.25 - 1e-6
        else:
            assert (1 - 1 / l1) * (1 - 1 / l2) == pytest.approx(0.25, abs=2e-3)


def _bisection_trace(d, directions, g):
    """Reference: 40-step bisection of mc_membership along each ray.

    The region is down-closed along rays from the origin (the defining
    inequalities are linear in lambda), so bisection converges to the exit.
    """
    out = []
    for j in range(directions):
        theta = (j + 0.5) / directions * (np.pi / 2)
        direction = np.array([np.cos(theta), np.sin(theta)])
        direction = direction / np.max(direction)  # exits the cube at t = 1
        if mc_membership(d, direction, g).verdict:
            out.append((direction, True))
            continue
        lo, hi = 0.0, 1.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if mc_membership(d, mid * direction, g).verdict:
                lo = mid
            else:
                hi = mid
        out.append((lo * direction, False))
    return out


def _trace_laws():
    rng = np.random.default_rng(17)
    laws = {
        f"random-{'x'.join(map(str, s))}-{i}": _random_dist(rng, s)
        for s in ((2, 2), (3, 3), (4, 4))
        for i in range(2)
    }
    laws["independent"] = make_joint([2, 3], np.outer([0.4, 0.6], [0.2, 0.3, 0.5]).ravel())
    laws["perfectly-correlated"] = canonical("equal_copies", k=2, base=[0.3, 0.7])
    laws["constant-coordinate"] = make_joint([2, 2], [0.4, 0.6, 0.0, 0.0])
    return laws


@pytest.mark.parametrize("name", sorted(_trace_laws()))
def test_mc_boundary_trace_matches_bisection(name):
    d = _trace_laws()[name]
    g = gram_matrix(d)
    trace = mc_boundary_trace(d, 64)
    reference = _bisection_trace(d, 64, g)
    assert len(trace) == len(reference) == 64
    for (lam, member), (ref_lam, ref_member) in zip(trace, reference):
        assert member == ref_member
        assert np.max(np.abs(lam - ref_lam)) <= 1e-8


# 10**11 rays is more than any machine could hold: refused before allocating
@pytest.mark.parametrize("directions", [0, -3, 2.5, True, 10**11])
def test_mc_boundary_trace_rejects_bad_directions(directions):
    with pytest.raises(BadParameter):
        mc_boundary_trace(canonical("dsbs", lam=0.5), directions)


@pytest.mark.parametrize("sizes", [(2, 2, 2), (2, 2, 3), (3, 3, 3)])
def test_mc_boundary_trace_three_coordinates(sizes):
    # each exit point is a member and the point 2e-3 further along its ray is not
    d = _random_dist(np.random.default_rng(41), sizes)
    g = gram_matrix(d)
    trace = mc_boundary_trace(d, 32)
    rays = ribbon_mc._rays(3, 32)
    assert len(trace) == len(rays) == 21
    assert [m for _, m in trace] == membership_verdicts(d, "mc", rays).tolist()
    exits = 0
    for (lam, member), v in zip(trace, rays):
        if member:
            continue
        exits += 1
        t = np.max(lam)
        assert mc_membership(d, lam, g).verdict, lam
        assert not mc_membership(d, min(t + 2e-3, 1.0) * v, g).verdict, lam
    assert exits > 0


def _grid(k, n):
    axes = [np.linspace(0, 1, n)] * k  # starts at 0: includes the lambda_i = 0 planes
    return np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, k)


@pytest.mark.parametrize(
    "sizes, n", [((2, 2), 11), ((3, 3), 9), ((2, 2, 2), 7), ((2, 2, 3), 6), ((3, 2, 2), 5)]
)
def test_membership_verdicts_match_single_point_tests(sizes, n, monkeypatch):
    # small stacks, so that stack boundaries fall inside the grid
    monkeypatch.setattr(ribbon_mc, "_STACK_ROWS", 7)
    rng = np.random.default_rng(19)
    d = _random_dist(rng, sizes)
    g = gram_matrix(d)
    lams = _grid(d.k, n)
    fns = {"mc": mc_membership, "sprime": mc_membership_sprime, "tilde": tilde_membership}
    for kind, fn in fns.items():
        verdicts = membership_verdicts(d, kind, lams)
        assert verdicts.shape == (len(lams),)
        for lam, verdict in zip(lams, verdicts):
            assert verdict == fn(d, lam, g).verdict, (kind, lam.tolist())
    mc = membership_verdicts(d, "mc", lams)
    assert mc.any() and not mc.all()


def test_membership_verdicts_degenerate_laws():
    for d in (
        canonical("equal_copies", k=3, base=[0.5, 0.5]),
        make_joint([2, 2], [0.4, 0.6, 0.0, 0.0]),
        make_joint([2, 2], [1.0, 0.0, 0.0, 0.0]),
    ):
        lams = _grid(d.k, 5)
        for kind, fn in (("mc", mc_membership), ("tilde", tilde_membership)):
            want = [fn(d, lam).verdict for lam in lams]
            assert membership_verdicts(d, kind, lams).tolist() == want


def test_membership_verdicts_validation():
    d = canonical("dsbs", lam=0.5)
    with pytest.raises(BadParameter):
        membership_verdicts(d, "bogus", [[0.5, 0.5]])
    for bad in ([0.5, 0.5], [[0.5, 0.5, 0.5]], [[0.5, np.nan]], [[0.5, 1.5]]):
        with pytest.raises(BadLambda):
            membership_verdicts(d, "mc", bad)


def test_rho2_from_trace_recovers_rho_squared():
    d = canonical("dsbs", lam=0.5)
    trace = mc_boundary_trace(d, directions=512)
    assert rho2_from_trace(trace) == pytest.approx(0.25, abs=1e-3)


def test_tensorization_of_membership():
    rng = np.random.default_rng(16)
    dx = _random_dist(rng, [2, 2])
    dy = _random_dist(rng, [2, 2])
    prod = pair_product(dx, dy)
    for lam in rng.uniform(0.05, 1.0, size=(30, 2)):
        want = mc_membership(dx, lam).verdict and mc_membership(dy, lam).verdict
        assert mc_membership(prod, lam).verdict == want


# ---------------------------------------------------------------------------
# The loop constructions that the closed forms replaced, kept as references


def _marginal_basis_reference(p):
    """Classical Gram-Schmidt on the centered indicators, in decreasing probability."""
    n = len(p)
    support = np.flatnonzero(p > 0)
    order = support[np.argsort(-p[support])]
    basis = []
    for s in order:
        v = np.zeros(n)
        v[s] = 1.0
        v[support] -= p[s]
        for b in basis:
            v -= np.dot(p, v * b) * b
        norm = np.sqrt(np.dot(p, v * v))
        if norm < 1e-10:
            continue
        basis.append(v / norm)
    return np.column_stack(basis) if basis else np.zeros((n, 0))


def _gram_matrix_reference(d):
    """Block dims and M, with each cross block taken from a pairwise marginal."""
    basis = [_marginal_basis_reference(d.marginal_vector(i)) for i in range(d.k)]
    dims = tuple(b.shape[1] for b in basis)
    off = np.cumsum((0, *dims))
    M = np.eye(off[-1])
    for i in range(d.k):
        for j in range(i + 1, d.k):
            pij = d.probs.sum(axis=tuple(a for a in range(d.k) if a not in (i, j)))
            block = basis[i].T @ pij @ basis[j]
            M[off[i] : off[i + 1], off[j] : off[j + 1]] = block
            M[off[j] : off[j + 1], off[i] : off[i + 1]] = block.T
    return dims, M


def _mc_eigenvalue_reference(M, dims, lam):
    """Least eigenvalue of ``Lambda^{-1} - M`` with the lambda_i = 0 blocks
    deleted (inf if none is left).  Its entries reach 1/lambda_min, so it is
    trusted only where every lambda_i is 0 or at least 1e-3."""
    keep = np.repeat(np.asarray(lam) > 0, dims)
    A = np.diag(1.0 / np.repeat(lam, dims)[keep]) - M[np.ix_(keep, keep)]
    return np.linalg.eigvalsh(A)[0] if len(A) else np.inf


def _pearson_reference(d):
    """Pearson matrix from the standardized bits and each pairwise marginal."""
    vals = []
    for i in range(d.k):
        m = d.marginal_vector(i)[1]
        sd = np.sqrt(m * (1 - m))
        if sd <= 0:
            raise NonGeneric(f"coordinate {i} is deterministic")
        vals.append((np.array([0.0, 1.0]) - m) / sd)
    R = np.eye(d.k)
    for i, j in itertools.combinations(range(d.k), 2):
        R[i, j] = R[j, i] = vals[i] @ marginal(d, [i, j]).probs @ vals[j]
    return R


def _corpus():
    """30 seeded laws per shape with about 20% zero atoms, each with 20 lambda
    rows whose entries are 0 with probability 0.2 and 1 with probability 0.05."""
    rng = np.random.default_rng(113)
    for shape in ((2, 2), (3, 3), (4, 4), (2, 2, 2), (2, 2, 3), (3, 3, 3)):
        n = int(np.prod(shape))
        for _ in range(30):
            p = rng.dirichlet(np.ones(n)) * (rng.random(n) >= 0.2)
            if not p.any():
                p[0] = 1.0
            lams = rng.uniform(0.0, 1.0, (20, len(shape)))
            u = rng.random(lams.shape)
            lams[u < 0.2], lams[u > 0.95] = 0.0, 1.0
            yield make_joint(shape, p / p.sum()), lams


def test_closed_forms_match_the_loop_references():
    checked = 0
    for d, lams in _corpus():
        g = gram_matrix(d)
        for i, B in enumerate(g.basis):
            ref = _marginal_basis_reference(d.marginal_vector(i))
            assert B.shape == ref.shape
            assert np.allclose(B, ref, rtol=0, atol=1e-13)
        dims, M = _gram_matrix_reference(d)
        assert g.block_dims == dims
        assert np.allclose(g.M, M, rtol=0, atol=1e-13)
        R = R_ref = None
        if set(d.alphabet_sizes) == {2}:
            try:
                R_ref = _pearson_reference(d)
            except NonGeneric:
                with pytest.raises(NonGeneric):
                    pearson_matrix(d)
            else:
                R = pearson_matrix(d)
                assert np.allclose(R, R_ref, rtol=0, atol=1e-13)
        stacked = membership_verdicts(d, "mc", lams)
        for lam, in_stack in zip(lams, stacked):
            if np.any((lam > 0) & (lam < 1e-3)):
                continue
            res = mc_membership(d, lam, g)
            ref = _mc_eigenvalue_reference(M, dims, lam)
            if min(abs(res.min_eigenvalue), abs(ref)) < 1e-9:
                continue
            assert res.verdict == in_stack == (ref >= -1e-9), lam
            if R is not None:
                ref = _mc_eigenvalue_reference(R_ref, (1,) * d.k, lam)
                assert gaussian_mc_membership(R, lam) == (ref >= -1e-9), lam
            checked += 1
    assert checked > 2500


_TINY_TO_ONE = (
    1e-300, 1e-200, 1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 0.5, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12, 1.0
)


def _exact_member(rho, lam):
    """``(1/l1 - 1)(1/l2 - 1) >= rho^2`` in exact rational arithmetic."""
    l1, l2 = (Fraction(float(x)) for x in lam)
    return (1 / l1 - 1) * (1 / l2 - 1) >= Fraction(float(rho)) ** 2


def test_mc_verdicts_at_small_lambda_match_exact_arithmetic():
    # Lambda^{-1} - M has entries up to 1/lambda_min, and eigh's absolute error
    # on it, about eps/lambda_min, swamps PSD_TOL once some lambda_i is below
    # about 1e-7; the congruent I - S M S has entries of order 1
    d = make_joint([3, 3], np.random.default_rng(3).dirichlet(np.ones(9)))
    lam = [1e-12, 1 - 1e-9]
    assert _exact_member(maximal_correlation(d), lam)
    assert mc_membership(d, lam).verdict and membership_verdicts(d, "mc", [lam]).all()
    rng = np.random.default_rng(29)
    laws = [d] + [_random_dist(rng, s) for s in ((2, 2), (3, 3), (4, 4), (2, 5)) for _ in range(3)]
    lams = np.array(list(itertools.product(_TINY_TO_ONE, repeat=2)))
    checked = 0
    for d in laws:
        rho, g = maximal_correlation(d), gram_matrix(d)
        R = pearson_matrix(d) if d.alphabet_sizes == (2, 2) else None
        for lam, in_stack in zip(lams, membership_verdicts(d, "mc", lams)):
            res = mc_membership(d, lam, g)
            if abs(res.min_eigenvalue) < 1e-9:
                continue
            want = _exact_member(rho, lam)
            assert res.verdict == in_stack == want, lam
            if R is not None:
                assert gaussian_mc_membership(R, lam) == want, lam
            if not res.verdict:  # the witness gap is the eigenvalue, re-checked
                assert res.gap < 0
                assert res.gap == pytest.approx(res.min_eigenvalue, rel=1e-9, abs=1e-15)
            checked += 1
    assert checked > 1000


@pytest.mark.parametrize(
    "p",
    [
        [0.7, 0.3 - 1e-10 - 1e-14, 1e-10, 1e-14],
        [0.5, 0.5 - 1e-8 - 1e-12, 1e-8, 1e-12],
        [0.4, 0.3, 0.3 - 2e-9, 1e-9, 1e-9],
        [0.6, 0.4 - 1e-7 - 1e-11 - 1e-15, 1e-7, 1e-11, 1e-15],
        [0.25, 0.25, 0.25, 0.25 - 1e-9, 1e-9],
    ],
)
def test_marginal_basis_is_orthonormal_with_near_absent_symbols(p):
    # classical Gram-Schmidt is off by up to 2e-9 on these; the closed form
    # keeps orthonormality to rounding and the same dimension
    p = np.asarray(p) / np.sum(p)
    B = ribbon_mc._marginal_basis(p)
    assert B.shape == _marginal_basis_reference(p).shape
    assert np.allclose(p @ B, 0.0, rtol=0, atol=1e-13)
    assert np.allclose(B.T @ (p[:, None] * B), np.eye(B.shape[1]), rtol=0, atol=1e-13)


def test_gram_matrix_diagonal_blocks_are_exactly_identity():
    # the product W^T W leaves rounding-level entries there; gram's CLI
    # output, detect_structure and the trace's t* <= 1 rely on exact I
    rng = np.random.default_rng(31)
    for sizes in ((2, 2), (3, 3), (4, 4), (2, 2, 3), (3, 3, 3), (2, 5)):
        g = gram_matrix(_random_dist(rng, sizes))
        block = np.repeat(np.arange(len(sizes)), g.block_dims)
        same = block[:, None] == block
        assert np.array_equal(g.M[same], np.eye(len(block))[same])
        assert np.array_equal(g.M, g.M.T)


def test_mc_zero_lambda_entries_leave_identity_blocks():
    d = canonical("dsbs", lam=0.9)
    assert mc_membership(d, [0.0, 0.0]).min_eigenvalue == 1.0
    assert mc_membership(d, [0.0, 0.7]).min_eigenvalue == pytest.approx(0.3, abs=1e-15)
    assert gaussian_mc_membership(pearson_matrix(d), [0.0, 0.0])
