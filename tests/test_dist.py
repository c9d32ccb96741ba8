"""Unit tests for joint-distribution construction and transforms."""

import json
import math

import numpy as np
import pytest

from phiribbon.dist import (
    Channel,
    JointFunction,
    apply_channels,
    bsc_channel,
    canonical,
    channel_from_json_dict,
    cond_expectation,
    dist_from_json_dict,
    dist_to_json,
    identity_channel,
    is_fully_independent,
    make_joint,
    marginal,
    pair_product,
)
from phiribbon.errors import (
    ArityMismatch,
    BadCoordinate,
    BadParameter,
    NegativeProbability,
    NotNormalized,
    ShapeMismatch,
)


def test_make_joint_validates_shape():
    with pytest.raises(ShapeMismatch):
        make_joint([2, 2], [0.5, 0.5])


def test_make_joint_rejects_negative():
    with pytest.raises(NegativeProbability):
        make_joint([2], [1.5, -0.5])
    for bad in (np.nan, np.inf):
        with pytest.raises(BadParameter):
            make_joint([2, 2], [bad, 0.5, 0.25, 0.25])


def test_make_joint_rejects_non_integer_sizes():
    # int() would read these as (2, 2), (1, 4) and (2, 2)
    for sizes in ([2.7, 2], [True, 4], ["2", 2]):
        with pytest.raises(ShapeMismatch):
            make_joint(sizes, [0.25] * 4)
    d = make_joint([np.int64(2), np.int32(2)], [0.25] * 4)
    assert d.alphabet_sizes == (2, 2) and all(type(s) is int for s in d.alphabet_sizes)


def test_make_joint_rejects_unnormalized():
    with pytest.raises(NotNormalized):
        make_joint([2], [0.6, 0.6])


def test_make_joint_renormalizes_exactly():
    d = make_joint([3], [0.3 + 2e-10, 0.3, 0.4])
    assert d.probs.sum() == pytest.approx(1.0, abs=0)


def test_support_mask_tracks_zero_atoms():
    d = make_joint([2, 2], [0.5, 0.0, 0.0, 0.5])
    assert d.support_mask.sum() == 2
    f = JointFunction(np.array([[1.0, 1e9], [-1e9, 2.0]]))
    assert d.expectation(f) == pytest.approx(1.5)


def test_marginal_of_dsbs_is_uniform():
    d = canonical("dsbs", lam=0.3)
    assert np.allclose(d.marginal_vector(0), [0.5, 0.5])
    assert np.allclose(d.marginal_vector(1), [0.5, 0.5])


def test_marginal_composition():
    rng = np.random.default_rng(0)
    d = make_joint([2, 3, 2], rng.dirichlet(np.ones(12)))
    once = marginal(marginal(d, [0, 1]), [0])
    direct = marginal(d, [0])
    assert np.allclose(once.probs, direct.probs)


def test_marginal_rejects_bad_coords():
    d = canonical("dsbs", lam=0.5)
    with pytest.raises(BadCoordinate):
        marginal(d, [1, 0])
    with pytest.raises(BadCoordinate):
        marginal(d, [2])


def test_cond_expectation_idempotent():
    rng = np.random.default_rng(1)
    d = make_joint([3, 2], rng.dirichlet(np.ones(6)))
    f = JointFunction(rng.normal(size=(3, 2)))
    g = cond_expectation(d, f, 0)
    g2 = cond_expectation(d, g.lift(d), 0)
    assert np.allclose(g.values, g2.values)


def test_cond_expectation_zero_marginal_flagged():
    d = make_joint([2, 2], [0.5, 0.5, 0.0, 0.0])
    f = JointFunction(np.ones((2, 2)))
    g = cond_expectation(d, f, 0)
    assert g.values[1] == 0.0


def test_pair_product_marginals_factor():
    rng = np.random.default_rng(2)
    dx = make_joint([2, 2], rng.dirichlet(np.ones(4)))
    dy = make_joint([2, 2], rng.dirichlet(np.ones(4)))
    prod = pair_product(dx, dy)
    assert prod.alphabet_sizes == (4, 4)
    for i in range(2):
        got = prod.marginal_vector(i)
        want = np.outer(dx.marginal_vector(i), dy.marginal_vector(i)).ravel()
        assert np.allclose(got, want)


def test_pair_product_arity_mismatch():
    dx = make_joint([2], [0.5, 0.5])
    dy = canonical("dsbs", lam=0.5)
    with pytest.raises(ArityMismatch):
        pair_product(dx, dy)


def test_apply_identity_channels_is_noop():
    d = canonical("xor_triple")
    chans = [identity_channel(i, 2) for i in range(3)]
    out = apply_channels(d, chans)
    assert np.array_equal(out.probs, d.probs)


def test_bsc_channel_on_dsbs_shrinks_correlation():
    d = canonical("dsbs", lam=0.8)
    out = apply_channels(d, [identity_channel(0, 2), bsc_channel(1, 0.1)])
    # flip probability (1-lam)/2 composes with crossover e: lam -> lam(1-2e)
    want = canonical("dsbs", lam=0.8 * 0.8)
    assert np.allclose(out.probs, want.probs)


def test_channel_rejects_bad_rows():
    with pytest.raises(NotNormalized):
        Channel(0, np.array([[0.5, 0.4], [0.5, 0.5]]))
    for bad in (np.nan, np.inf):  # NaN slips past both the sign and the row-sum test
        with pytest.raises(BadParameter):
            Channel(0, np.array([[bad, 1.0], [0.5, 0.5]]))


def test_canonical_dsbs_flip_probability():
    d = canonical("dsbs", lam=0.5)
    assert d.probs[0, 1] + d.probs[1, 0] == pytest.approx(0.25)


def test_canonical_dsbs_extremes():
    perfect = canonical("dsbs", lam=1.0)
    assert perfect.probs[0, 1] == 0.0 and perfect.probs[0, 0] == 0.5
    with pytest.raises(BadParameter):
        canonical("dsbs", lam=1.5)


def test_canonical_xor_triple_pairwise_independent():
    d = canonical("xor_triple")
    for pair in ([0, 1], [0, 2], [1, 2]):
        assert is_fully_independent(marginal(d, pair))
    assert not is_fully_independent(d)


def test_canonical_sum_iid_bernoulli_small_case():
    # (S_2, S_1) for fair coins: enumerate the four outcomes
    d = canonical("sum_iid_bernoulli", q=0.5, n=2, m=1)
    want = np.array([[0.25, 0.0], [0.25, 0.25], [0.0, 0.25]])
    assert np.allclose(d.probs, want)


def test_canonical_sum_iid_conditional_is_shifted_binomial():
    q, n, m = 0.3, 4, 2
    d = canonical("sum_iid_bernoulli", q=q, n=n, m=m)
    for s in range(m + 1):
        col = d.probs[:, s] / d.probs[:, s].sum()
        want = np.zeros(n + 1)
        for extra in range(n - m + 1):
            want[s + extra] = math.comb(n - m, extra) * q**extra * (1 - q) ** (
                n - m - extra
            )
        assert np.allclose(col, want)


def test_canonical_equal_copies():
    d = canonical("equal_copies", k=3, base=[0.2, 0.8])
    assert d.probs[0, 0, 0] == pytest.approx(0.2)
    assert d.probs[1, 1, 1] == pytest.approx(0.8)
    assert d.probs.sum() == pytest.approx(1.0)
    assert d.probs[0, 1, 0] == 0.0


def test_canonical_tilde_degenerate_atoms():
    d = canonical("tilde_degenerate", a=0.3, b=0.3)
    assert d.probs[0, 0, 0] == pytest.approx(0.3)
    assert d.probs[1, 1, 0] == pytest.approx(0.3)
    assert d.probs[1, 0, 1] == pytest.approx(0.4)
    assert d.support_mask.sum() == 3


def test_canonical_unknown_name():
    with pytest.raises(BadParameter):
        canonical("nope")


def test_is_fully_independent():
    ind = make_joint([2, 2], np.outer([0.3, 0.7], [0.6, 0.4]).ravel())
    assert is_fully_independent(ind)
    assert not is_fully_independent(canonical("dsbs", lam=0.5))


def test_json_round_trip():
    d = canonical("dsbs", lam=0.4)
    back = dist_from_json_dict(json.loads(dist_to_json(d)))
    assert back.alphabet_sizes == d.alphabet_sizes
    assert np.allclose(back.probs, d.probs)


def test_dist_from_json_missing_field():
    with pytest.raises(ShapeMismatch):
        dist_from_json_dict({"probs": [1.0]})


def test_dist_from_json_rejects_an_infinite_alphabet_size():
    with pytest.raises(ShapeMismatch):
        dist_from_json_dict({"alphabet_sizes": [float("inf"), 2], "probs": [0.5, 0.5]})


@pytest.mark.parametrize("coord", [0.7, 1.0, True, "0", None, [0]])
def test_channel_from_json_rejects_a_coord_that_is_not_an_integer(coord):
    matrix = [[1.0, 0.0], [0.0, 1.0]]
    assert channel_from_json_dict({"coord": 1, "matrix": matrix}).coord == 1
    with pytest.raises(ShapeMismatch):
        channel_from_json_dict({"coord": coord, "matrix": matrix})


def test_variance_of_indicator():
    d = canonical("dsbs", lam=0.5)
    f = JointFunction(np.eye(2))
    # f = 1{x=y} with mean 0.75
    assert d.variance(f) == pytest.approx(0.75 * 0.25)
