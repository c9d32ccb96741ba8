"""Unit tests for the convex-function catalog and entropies."""

import dataclasses
import math

import numpy as np
import pytest

import phiribbon.phi as phi_module
from phiribbon.ribbon_phi import definition_gap
from phiribbon.dist import JointFunction, MarginalFunction, canonical, cond_expectation, make_joint
from phiribbon.errors import (
    BadCoordinate,
    BadParameter,
    DomainViolation,
    NotIndependent,
    ShapeMismatch,
)
from phiribbon.phi import (
    PhiSpec,
    _entropy_rows,
    binent,
    check_class_F,
    cond_phi_entropies,
    cond_phi_entropy,
    marginal_phi_entropy,
    parse_phi,
    phi_entropy,
    phi_mutual_information,
    power_alpha,
    square,
    subadditivity_gap,
    sym_alpha,
    xlogx,
)


def _entropy_of_weighted(phi, weights, values):
    """H_phi of a finite law given atom weights and values: one row of ``_entropy_rows``."""
    return float(_entropy_rows(phi, weights, np.asarray(values, dtype=float)[None])[0])


# ---------------------------------------------------------------------------
# catalog


def test_parse_phi_names():
    assert parse_phi("square").name == "square"
    assert parse_phi("binent").name == "binent"
    assert parse_phi("power:1.5").name == "power:1.5"
    assert parse_phi("sym:2.0").name == "sym:2.0"
    assert parse_phi("xlogx").domain[1] == 64.0
    assert parse_phi("xlogx:0.5,8").domain == (0.5, 8.0)
    for bad in ("cube", "power:1.2.3", "sym:1..5", "xlogx:e,e"):
        with pytest.raises(BadParameter):
            parse_phi(bad)


def test_power_alpha_range_check():
    with pytest.raises(BadParameter):
        power_alpha(1.0)
    with pytest.raises(BadParameter):
        power_alpha(2.5)


def test_analytic_derivatives_match_finite_differences():
    for phi in (square(), power_alpha(1.5), xlogx(0.1, 8.0), binent(), sym_alpha(1.7)):
        a, b = phi.domain
        t = np.linspace(a + 0.1 * (b - a), b - 0.1 * (b - a), 17)
        for order in (1, 2):
            got = phi.deriv(order, t)
            fd = phi._fd(order, t)
            assert np.allclose(got, fd, rtol=1e-6, atol=1e-6), (phi.name, order)


def test_deriv_rejects_orders_outside_one_to_four():
    # orders 0 and -1 once indexed from the end of (d1, d2, d3, d4), 5 past it
    for phi in (binent(), PhiSpec("exp", (-1.0, 1.0), eval=np.exp)):
        for order in (0, -1, 5, 2.5):
            with pytest.raises(BadParameter):
                phi.deriv(order, 0.3)
    assert binent().deriv(4, 0.3) == pytest.approx(4.8628, abs=1e-4)


def test_binent_is_in_bits():
    phi = binent()
    # Phi_1(1) = 1 - h(1) = 1 bit
    assert phi.eval(np.array([1.0]))[0] == pytest.approx(1.0)
    assert phi.deriv(2, 0.0) == pytest.approx(1.0 / math.log(2))


def test_sym_alpha_endpoints():
    phi = sym_alpha(1.5)
    assert phi.eval(np.array([0.0]))[0] == pytest.approx(0.0)
    assert phi.eval(np.array([1.0]))[0] == pytest.approx(1.0)
    assert phi.eval(np.array([-1.0]))[0] == pytest.approx(1.0)


def test_xlogx_takes_zero_log_zero_in_its_formula():
    phi = xlogx(0.0, 4.0)
    assert phi.domain == (0.0, 4.0)
    assert phi.safe_eval(np.array([0.0]))[0] == 0.0
    for t in (1e-300, 1e-12, 0.5, 4.0):  # the formula is t log t on (0, T]
        assert phi.safe_eval(np.array([t]))[0] == t * math.log(t)
    phi.check_in_domain(np.array([0.0, 1.0, 4.0]))
    with pytest.raises(DomainViolation):
        phi.check_in_domain(np.array([5.0]))


def test_check_class_F_verifies_builtins():
    for phi in (square(), xlogx(0.01, 8.0), binent(), power_alpha(1.5), sym_alpha(1.5)):
        before = dict(vars(phi))
        report = check_class_F(phi)
        assert report["verified"], (phi.name, report)
        assert vars(phi) == before  # the check writes nothing into the spec
        assert phi.is_class_F is True


def test_specs_are_built_and_checked_once_per_name(monkeypatch):
    for make in (parse_phi, power_alpha, sym_alpha, xlogx):
        make.cache_clear()
    checked = []
    monkeypatch.setattr(
        phi_module, "check_class_F", lambda phi: checked.append(phi.name) or check_class_F(phi)
    )
    spec = parse_phi("power:1.75")
    assert parse_phi("power:1.75") is spec and power_alpha(1.75) is spec and spec.is_class_F
    assert sym_alpha(1.75) is sym_alpha(1.75) and xlogx(0.5, 3.0) is parse_phi("xlogx:0.5,3")
    assert checked == ["power:1.75", "sym:1.75", "xlogx:0.5,3.0"]


def test_phi_spec_is_frozen():
    phi = square()
    with pytest.raises(dataclasses.FrozenInstanceError):
        phi.domain = (0.0, 1.0)
    with pytest.raises(AttributeError):
        phi.is_class_F = False


def test_check_class_F_refutes_quartic():
    # t^4 on [1,2]: Phi'''' Phi'' = 288 t^2 < 1152 t^2 = 2 Phi'''^2
    phi = PhiSpec("quartic", (1.0, 2.0), eval=lambda t: np.asarray(t, float) ** 4)
    report = check_class_F(phi)
    assert not report["verified"]
    assert report["convex"]
    assert not report["condition_vi"]
    assert phi.is_class_F is False


# ---------------------------------------------------------------------------
# entropies


def test_phi_entropy_constant_is_zero():
    d = canonical("dsbs", lam=0.5)
    f = JointFunction(0.3 * np.ones((2, 2)))
    assert phi_entropy(d, square(), f).value == 0.0
    # constants on a domain edge, where binent's Phi'' is infinite, on laws
    # whose rounded weighted mean can fall just inside the edge
    rng = np.random.default_rng(14)
    for _ in range(10):
        d = make_joint([3, 3, 3], rng.dirichlet(np.ones(27)))
        for phi in (binent(), sym_alpha(1.5), power_alpha(1.5)):
            for c in phi.domain:
                f = JointFunction(np.full((3, 3, 3), c))
                assert phi_entropy(d, phi, f).value == 0.0, (phi.name, c)


def test_phi_entropy_square_is_variance():
    rng = np.random.default_rng(3)
    d = make_joint([2, 3], rng.dirichlet(np.ones(6)))
    f = JointFunction(rng.uniform(-1, 1, size=(2, 3)))
    assert phi_entropy(d, square(), f).value == pytest.approx(d.variance(f), abs=1e-12)


def test_phi_entropy_xlogx_indicator_value():
    # f = 2 * 1{x = y} on DSBS(0.5): takes value 2 w.p. 0.75 and 0 w.p. 0.25,
    # so E f = 1.5 and H = 1.5 log 2 - 1.5 log 1.5
    d = canonical("dsbs", lam=0.5)
    f = JointFunction(2.0 * np.eye(2))
    want = 1.5 * math.log(2.0) - 1.5 * math.log(1.5)
    assert phi_entropy(d, xlogx(0.0, 4.0), f).value == pytest.approx(want, abs=1e-12)


def test_phi_entropy_domain_violation():
    d = canonical("dsbs", lam=0.5)
    with pytest.raises(DomainViolation):
        phi_entropy(d, square(), JointFunction(2.0 * np.ones((2, 2))))


def test_phi_entropy_small_amplitude_no_cancellation():
    # direct evaluation loses ~10 digits here; the quadrature path must not
    d = canonical("dsbs", lam=0.5)
    eps = 1e-6
    f = JointFunction(1.0 + eps * np.array([[1.0, -1.0], [-1.0, 1.0]]))
    phi = xlogx(0.01, 8.0)
    # H ~ Phi''(1)/2 * eps^2 * Var = eps^2 / 2 (unit variance of the sign)
    got = phi_entropy(d, phi, f).value
    assert got == pytest.approx(0.5 * eps * eps, rel=1e-6)


def test_phi_entropy_without_analytic_derivatives():
    # a spec with Phi alone takes Phi' and Phi'' from the stencil, so it keeps
    # the Bregman form and the quadrature fallback at small amplitude
    rng = np.random.default_rng(3)
    d = make_joint([3, 4], rng.dirichlet(np.ones(12)))
    bare = PhiSpec("exp", (-1.0, 1.0), eval=np.exp)
    full = PhiSpec("exp", (-1.0, 1.0), eval=np.exp, d1=np.exp, d2=np.exp, d3=np.exp, d4=np.exp)
    u = rng.uniform(-1.0, 1.0, size=(3, 4))
    for c in (-0.5, 0.2, 0.9):
        for amp in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            f = JointFunction(c + amp * u)
            want = phi_entropy(d, full, f).value
            assert phi_entropy(d, bare, f).value == pytest.approx(want, rel=1e-7, abs=0), (c, amp)


@pytest.mark.parametrize(
    "name", ["square", "power:1.5", "sym:1.5", "binent", "xlogx", "xlogx:0.05,4", "xlogx:0,4"]
)
def test_entropy_rows_match_one_row_calls(name):
    phi = parse_phi(name)
    a, b = phi.domain
    rng = np.random.default_rng(8)
    w = np.r_[rng.dirichlet(np.ones(6)), 0.0]  # a zero-weight atom is ignored
    c = 0.5 * (a + b)
    V = np.vstack([
        rng.uniform(a, b, size=(5, 7)),
        c + 1e-6 * (b - a) * rng.uniform(-1, 1, size=(5, 7)),  # quadrature regime
        np.full((1, 7), a),  # mean on the domain edge
        np.full((1, 7), c),  # constant
    ])
    if name == "xlogx:0,4":
        V[::2, :3] = 0.0
    rng.shuffle(V)
    got = _entropy_rows(phi, w, V)
    want = [_entropy_of_weighted(phi, w, v) for v in V]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert np.all(got >= 0)
    if name == "square":  # H is the weighted variance
        m = V @ w
        var = ((V - m[:, None]) ** 2) @ w
        np.testing.assert_allclose(got, var, rtol=1e-9, atol=1e-15)
    if name == "xlogx:0,4":
        # rows with an exact 0 in the quadrature regime: a light 0 atom and
        # the others near c.  The 0's Bregman term Phi(0) - Phi(m) - Phi'(m)(0 - m)
        # is m, and the quadrature must give it to rounding though Phi'' is
        # singular at 0; an absolute 1e-12 cannot see that on entropies this small
        k = 40
        w0 = 10.0 ** rng.uniform(-14, -6, size=k)
        W = rng.dirichlet(np.ones(6), size=k) * (1.0 - w0)[:, None]
        V = c + rng.choice([-1.0, 1.0], size=(k, 6)) * 10.0 ** rng.uniform(-9, -4, size=(k, 6))
        at = rng.integers(7, size=k)  # the 0 atom's column
        W = np.array([np.insert(wr, j, w) for wr, j, w in zip(W, at, w0)])
        V = np.array([np.insert(vr, j, 0.0) for vr, j in zip(V, at)])
        total = W.sum(axis=1)
        m = V[:, 0] + ((V - V[:, :1]) * W).sum(axis=1) / total  # as _entropy_rows takes it
        terms = np.where(V == 0.0, m[:, None], phi_module._bregman_terms(phi, V, m))
        want = (terms * W).sum(axis=1) / total
        scale = np.abs(phi.safe_eval(V)).max(axis=1) + np.abs(phi.safe_eval(m))
        assert np.all(want < phi_module._CANCEL * scale)  # the rows take the quadrature
        np.testing.assert_allclose(_entropy_rows(phi, W, V), want, rtol=1e-14, atol=0)


_F23 = JointFunction(np.zeros((2, 3)))


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda d, p: marginal_phi_entropy(d, p, MarginalFunction(7, [0.3, -0.7])), BadCoordinate),
        (lambda d, p: marginal_phi_entropy(d, p, MarginalFunction(-2, [0.3, -0.7])), BadCoordinate),
        (lambda d, p: marginal_phi_entropy(d, p, MarginalFunction(1, [0.3, -0.7])), ShapeMismatch),
        (lambda d, p: phi_entropy(d, p, JointFunction(np.zeros((3, 2)))), ShapeMismatch),
        (lambda d, p: phi_entropy(d, p, JointFunction(np.zeros(6))), ShapeMismatch),
        (lambda d, p: cond_phi_entropy(d, p, _F23, [5]), BadCoordinate),
        (lambda d, p: cond_phi_entropy(d, p, _F23, [0, -1]), BadCoordinate),
        (lambda d, p: cond_phi_entropies(d, p, _F23, [(), (2,)]), BadCoordinate),
        (lambda d, p: cond_phi_entropy(d, p, _F23, [0.7]), BadCoordinate),
        (lambda d, p: cond_phi_entropy(d, p, _F23, [1.2]), BadCoordinate),
        (lambda d, p: cond_phi_entropy(d, p, _F23, [True]), BadCoordinate),
        (lambda d, p: cond_phi_entropy(d, p, _F23, ["1"]), BadCoordinate),
        (lambda d, p: cond_phi_entropy(d, p, _F23, "1"), BadCoordinate),
        (lambda d, p: cond_phi_entropy(d, p, _F23, 0), BadCoordinate),
        (lambda d, p: marginal_phi_entropy(d, p, MarginalFunction(0.7, [0.3, -0.7])), BadCoordinate),
    ],
    ids=["coord-7", "coord-minus-2", "marginal-length", "f-transposed", "f-flat", "cond-5",
         "cond-minus-1", "second-set", "cond-float", "cond-float-above-1", "cond-bool",
         "cond-string", "cond-string-set", "cond-not-iterable", "marginal-float"],
)
def test_entropies_reject_bad_coordinates_and_shapes(call, error):
    # each raised a raw numpy error, or answered for another coordinate: a
    # float or a bool was read as the integer it rounds to or equals
    with pytest.raises(error):
        call(make_joint([2, 3], np.random.default_rng(1).dirichlet(np.ones(6))), binent())


def test_entropies_take_numpy_integer_coordinates_and_no_sets():
    d = make_joint([2, 3], np.random.default_rng(1).dirichlet(np.ones(6)))
    f = JointFunction(np.random.default_rng(2).uniform(-0.5, 0.5, size=(2, 3)))
    want = cond_phi_entropies(d, binent(), f, [(), (1,), (0, 1)])
    assert cond_phi_entropies(d, binent(), f, [(), (np.int64(1),), np.array([0, 1])]) == want
    assert cond_phi_entropies(d, binent(), f, []) == []  # raised a raw IndexError


def test_marginal_phi_entropy_matches_lift():
    rng = np.random.default_rng(4)
    d = make_joint([3, 2], rng.dirichlet(np.ones(6)))
    from phiribbon.dist import MarginalFunction

    g = MarginalFunction(0, rng.uniform(-0.9, 0.9, size=3))
    direct = marginal_phi_entropy(d, binent(), g).value
    lifted = phi_entropy(d, binent(), g.lift(d)).value
    assert direct == pytest.approx(lifted, abs=1e-12)


def test_cond_phi_entropy_all_coords_is_zero():
    rng = np.random.default_rng(5)
    d = make_joint([2, 2], rng.dirichlet(np.ones(4)))
    f = JointFunction(rng.uniform(-1, 1, size=(2, 2)))
    assert cond_phi_entropy(d, square(), f, [0, 1]).value == pytest.approx(0.0, abs=1e-14)


def test_cond_phi_entropy_empty_coords_is_total():
    rng = np.random.default_rng(6)
    d = make_joint([2, 2], rng.dirichlet(np.ones(4)))
    f = JointFunction(rng.uniform(-1, 1, size=(2, 2)))
    assert cond_phi_entropy(d, square(), f, []).value == pytest.approx(
        phi_entropy(d, square(), f).value
    )


def test_cond_phi_entropy_additive_case():
    # independent pair, f = g(X) + h(Y): conditionally on X the variance is Var[h]
    rng = np.random.default_rng(7)
    px, py = [0.4, 0.6], [0.3, 0.7]
    d = make_joint([2, 2], np.outer(px, py).ravel())
    g = np.array([0.2, -0.1])
    h = np.array([-0.3, 0.25])
    f = JointFunction(g[:, None] + h[None, :])
    var_h = float(np.dot(py, (h - np.dot(py, h)) ** 2))
    assert cond_phi_entropy(d, square(), f, [0]).value == pytest.approx(var_h, abs=1e-12)


def _cond_phi_entropy_per_cell(d, phi, f, coords):
    """``sum_s p(s) H_phi(f | X_coords = s)`` by one entropy call per cell."""
    order = coords + [a for a in range(d.k) if a not in coords]
    probs = np.transpose(d.probs, order).reshape(
        math.prod(d.alphabet_sizes[c] for c in coords), -1
    )
    vals = np.transpose(f.values, order).reshape(probs.shape)
    total = 0.0
    for row_p, row_v in zip(probs, vals):
        if row_p.sum() > 0:
            total += row_p.sum() * _entropy_of_weighted(phi, row_p, row_v)
    return total


def _cond_phi_entropies_reference(d, phi, f, coord_sets):
    """The stacked conditional entropies with one transposed block per set,
    zero-padded into separate weight and value arrays and the empty cells
    dropped before one ``_entropy_rows`` call, kept as the bit-for-bit
    reference of the layout ``cond_phi_entropies`` builds."""
    blocks = []
    for coords in coord_sets:
        coords = sorted(set(int(c) for c in coords))
        order = coords + [a for a in range(d.k) if a not in coords]
        probs = np.transpose(d.probs, order).reshape(
            math.prod(d.alphabet_sizes[c] for c in coords), -1
        )
        blocks.append((probs, np.transpose(f.values, order).reshape(probs.shape)))
    sizes = [len(probs) for probs, _ in blocks]
    ends = np.cumsum(sizes)
    W = np.zeros((ends[-1], max(probs.shape[1] for probs, _ in blocks)))
    V = np.zeros_like(W)
    for (probs, vals), end in zip(blocks, ends):
        cols = probs.shape[1]
        W[end - len(probs) : end, :cols], V[end - len(probs) : end, :cols] = probs, vals
    ps = np.concatenate([probs.sum(axis=1) for probs, _ in blocks])
    cells = ps > 0
    terms = np.zeros(len(ps))
    terms[cells] = ps[cells] * _entropy_rows(phi, W[cells], V[cells])
    return [phi_module._clamped(float(terms[end - n : end].sum())) for n, end in zip(sizes, ends)]


@pytest.mark.parametrize(
    "name", ["square", "power:1.5", "sym:1.5", "binent", "xlogx", "xlogx:0.05,4", "xlogx:0,4"]
)
@pytest.mark.parametrize("shape", [(2, 2, 2), (3, 3, 3)])
def test_cond_phi_entropy_matches_per_cell_loop(name, shape):
    phi = parse_phi(name)
    a, b = phi.domain
    rng = np.random.default_rng(13)
    for _ in range(4):
        p = rng.dirichlet(np.ones(math.prod(shape))).reshape(shape)
        p[0, 0, :] = 0.0  # empty cells for every coords set holding 0 and 1
        p[1, 1, 0] = 0.0  # and a lone empty atom
        d = make_joint(list(shape), (p / p.sum()).ravel())
        # wide values; small ones (quadrature path); values on the domain edges
        # that depend on the last coordinate only, so conditioning on it leaves
        # cells constant on an edge, whose entropy is 0
        for amp in (1.0, 1e-6, None):
            if amp is None:
                vals = np.where(np.indices(shape)[-1] % 2 == 0, a, b)
            else:
                vals = 0.5 * (a + b) + 0.5 * amp * (b - a) * rng.uniform(-1, 1, size=shape)
            if name == "xlogx:0,4" and amp == 1.0:
                vals[1, 0, :] = 0.0
            off = np.flatnonzero(p == 0)  # off-support values must never reach Phi
            vals.flat[off] = np.resize([np.nan, -7.0, 1e9], len(off))
            f = JointFunction(vals)
            sets = ([0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2])
            for coords in sets:
                got = cond_phi_entropy(d, phi, f, coords).value
                want = _cond_phi_entropy_per_cell(d, phi, f, coords)
                assert abs(got - max(want, 0.0)) <= 1e-12, (coords, amp, got, want)
            # one stacked call, in another order and with a repeat: the cells
            # of the smaller sets are zero-padded
            many = [(), *sets[::-1], [1]]
            stacked = cond_phi_entropies(d, phi, f, many)
            single = [cond_phi_entropy(d, phi, f, S).value for S in many]
            assert np.allclose(stacked, single, rtol=1e-13, atol=1e-18), (amp, stacked, single)
            # bit for bit: the layout must not move a verdict's re-checked gap
            assert stacked == _cond_phi_entropies_reference(d, phi, f, many), amp
            for lam in ([0.9, 0.0, 0.6], [1.0, 1.0, 1.0], [0.0, 0.3, 0.0]):
                on = [i for i in range(3) if lam[i]]
                total, *conds = _cond_phi_entropies_reference(d, phi, f, [(), *([i] for i in on)])
                want = total
                for i, cond in zip(on, conds):
                    want -= lam[i] * (total - cond)
                assert definition_gap(d, phi, lam, f) == want, (amp, lam)


def test_chain_rule_identity():
    rng = np.random.default_rng(8)
    d = make_joint([2, 3, 2], rng.dirichlet(np.ones(12)))
    f = JointFunction(rng.uniform(0.1, 0.9, size=(2, 3, 2)))
    for phi in (square(), power_alpha(1.5), xlogx(0.01, 2.0)):
        for coords in ([0], [1], [0, 2]):
            total = phi_entropy(d, phi, f).value
            cond = cond_phi_entropy(d, phi, f, coords).value
            # entropy of the conditional mean, evaluated on the coarsened law
            from phiribbon.dist import marginal

            dm = marginal(d, coords)
            probs = np.transpose(
                d.probs, coords + [a for a in range(3) if a not in coords]
            ).reshape(dm.probs.size, -1)
            vals = np.transpose(
                f.values, coords + [a for a in range(3) if a not in coords]
            ).reshape(probs.shape)
            means = np.divide(
                (probs * vals).sum(1),
                probs.sum(1),
                out=np.full(probs.shape[0], phi.domain[0] + 1e-9),
                where=probs.sum(1) > 0,
            )
            outer = phi_entropy(dm, phi, JointFunction(means.reshape(dm.probs.shape)))
            assert total == pytest.approx(cond + outer.value, abs=1e-10)


def test_phi_mutual_information_independent_is_zero():
    ind = make_joint([2, 3], np.outer([0.3, 0.7], [0.2, 0.5, 0.3]).ravel())
    assert phi_mutual_information(ind, xlogx(0.0, 64.0)) == pytest.approx(0.0, abs=1e-12)


def test_phi_mutual_information_xlogx_dsbs():
    d = canonical("dsbs", lam=0.5)
    want = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
    assert phi_mutual_information(d, xlogx(0.0, 64.0)) == pytest.approx(want, abs=1e-12)


def test_phi_mutual_information_square_dsbs_is_lambda_sq():
    for lam in (0.2, 0.5, 0.8):
        d = canonical("dsbs", lam=lam)
        assert phi_mutual_information(d, square()) == pytest.approx(lam * lam, abs=1e-12)


def test_phi_mutual_information_zero_ratio_convention():
    # perfectly correlated bits produce ratio 0 off the diagonal
    d = canonical("dsbs", lam=1.0)
    got = phi_mutual_information(d, xlogx(0.0, 64.0))
    assert got == pytest.approx(math.log(2.0), abs=1e-10)


def test_phi_mutual_information_outside_defined_range():
    d = canonical("dsbs", lam=1.0)
    with pytest.raises(DomainViolation):
        phi_mutual_information(d, binent())  # ratio 2 > 1


def test_subadditivity_gap_single_coordinate_function():
    px, py = [0.4, 0.6], [0.3, 0.7]
    d = make_joint([2, 2], np.outer(px, py).ravel())
    f = JointFunction(np.array([[0.2, 0.2], [0.8, 0.8]]))  # depends on X1 only
    assert subadditivity_gap(d, square(), f) == pytest.approx(0.0, abs=1e-12)


def test_subadditivity_gap_nonnegative_random():
    rng = np.random.default_rng(9)
    px, py = rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(2))
    d = make_joint([2, 2], np.outer(px, py).ravel())
    for _ in range(20):
        f = JointFunction(rng.uniform(0.1, 1.9, size=(2, 2)))
        assert subadditivity_gap(d, xlogx(0.01, 4.0), f) >= -1e-10


def test_subadditivity_gap_requires_independence():
    d = canonical("dsbs", lam=0.5)
    with pytest.raises(NotIndependent):
        subadditivity_gap(d, square(), JointFunction(np.zeros((2, 2))))
