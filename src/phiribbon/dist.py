"""Discrete joint distributions over products of finite alphabets.

A :class:`JointDist` stores the probability tensor ``p(x_1, ..., x_k)`` with
one tensor axis per coordinate.  Alphabets are the index sets ``0..n_i-1``;
symbolic labels are a concern of the CLI layer only.  All operations here are
pure functions on immutable inputs, so values can be shared freely across
threads.

Atoms with zero probability stay in the tensor but are excluded from every
expectation and basis construction via ``support_mask``.

The classes that hold arrays compare and hash by identity (``eq=False``): an
array comparison has no single truth value, so a field-wise ``==`` would raise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    ArityMismatch,
    BadCoordinate,
    BadParameter,
    NegativeProbability,
    NotNormalized,
    ShapeMismatch,
)

_NORM_TOL = 1e-9
# entries within this of the product of the marginals read as independent: far
# above the rounding of the marginal sums, so a numerical test, not a proof
_INDEPENDENCE_TOL = 1e-10


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class JointDist:
    """Joint distribution of ``k`` finite-alphabet random variables.

    ``probs`` sums to exactly 1 after the renormalization performed by
    :func:`make_joint`; ``alphabet_sizes`` (its shape) and ``support_mask``
    are read off it once, and it is frozen.
    """

    probs: np.ndarray
    alphabet_sizes: tuple[int, ...] = field(init=False)
    support_mask: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "probs", _frozen(self.probs))
        object.__setattr__(self, "alphabet_sizes", self.probs.shape)
        object.__setattr__(self, "support_mask", _frozen(self.probs > 0))

    @property
    def k(self) -> int:
        return len(self.alphabet_sizes)

    def marginal_vector(self, coord: int) -> np.ndarray:
        """1-D marginal ``p(x_coord)``."""
        if not 0 <= coord < self.k:
            raise BadCoordinate(f"coordinate {coord} out of range for k={self.k}")
        axes = tuple(a for a in range(self.k) if a != coord)
        return self.probs.sum(axis=axes) if axes else self.probs

    def expectation(self, f: "JointFunction") -> float:
        return float(np.sum(self.probs * f.values, where=self.support_mask))

    def variance(self, f: "JointFunction") -> float:
        m = self.expectation(f)
        return float(
            np.sum(self.probs * (f.values - m) ** 2, where=self.support_mask)
        )

    def to_json_dict(self) -> dict:
        return {
            "alphabet_sizes": list(self.alphabet_sizes),
            "probs": [float(p) for p in self.probs.ravel()],
        }


@dataclass(frozen=True, eq=False)
class JointFunction:
    """Real-valued function on the joint outcome space.

    ``values`` must match the shape of the distribution it is evaluated
    against; values on zero-probability atoms are ignored by all
    expectations.
    """

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(np.asarray(self.values, dtype=float)))


@dataclass(frozen=True, eq=False)
class MarginalFunction:
    """Real-valued function of a single coordinate."""

    coord: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(np.asarray(self.values, dtype=float)))

    def lift(self, d: JointDist) -> JointFunction:
        """View this function as a function of the full joint outcome."""
        if not 0 <= self.coord < d.k:
            raise BadCoordinate(f"coordinate {self.coord} out of range for k={d.k}")
        shape = [1] * d.k
        shape[self.coord] = d.alphabet_sizes[self.coord]
        if self.values.shape != (shape[self.coord],):
            raise ShapeMismatch("function shape does not match the coordinate's alphabet")
        vals = np.broadcast_to(self.values.reshape(shape), d.alphabet_sizes)
        return JointFunction(vals.copy())


@dataclass(frozen=True, eq=False)
class Channel:
    """Row-stochastic transition matrix acting on one coordinate."""

    coord: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2:
            raise ShapeMismatch("channel matrix must be 2-D")
        if not np.all(np.isfinite(m)):
            raise BadParameter("channel entries must be finite")
        if np.any(m < 0):
            raise NegativeProbability("channel entries must be non-negative")
        rows = m.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > 1e-12):
            raise NotNormalized("every channel row must sum to 1")
        object.__setattr__(self, "matrix", _frozen(m))


def make_joint(sizes: Sequence[int], probs: Sequence[float]) -> JointDist:
    """Build a validated :class:`JointDist` from a flat row-major vector."""
    if any(isinstance(s, bool) or not isinstance(s, (int, np.integer)) for s in sizes):
        raise ShapeMismatch(f"alphabet sizes must be integers, got {sizes!r}")
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) < 1 or any(s < 1 for s in sizes):
        raise ShapeMismatch("need k >= 1 coordinates with alphabet sizes >= 1")
    flat = np.asarray(probs, dtype=float).ravel()
    if flat.size != math.prod(sizes):
        raise ShapeMismatch(
            f"got {flat.size} probabilities for alphabet sizes {sizes}"
        )
    if not np.all(np.isfinite(flat)):
        raise BadParameter("probabilities must be finite")
    if np.any(flat < 0):
        raise NegativeProbability("probabilities must be non-negative")
    total = flat.sum()
    if abs(total - 1.0) > _NORM_TOL:
        raise NotNormalized(f"probabilities sum to {total!r}, not 1")
    return JointDist((flat / total).reshape(sizes))


def marginal(d: JointDist, coords: Sequence[int]) -> JointDist:
    """Marginal distribution of the given (sorted, distinct) coordinates."""
    coords = list(coords)
    if not coords or coords != sorted(set(coords)):
        raise BadCoordinate("coords must be non-empty, sorted and distinct")
    if coords[0] < 0 or coords[-1] >= d.k:
        raise BadCoordinate(f"coords {coords} out of range for k={d.k}")
    drop = tuple(a for a in range(d.k) if a not in coords)
    return JointDist(d.probs.sum(axis=drop) if drop else d.probs.copy())


def cond_expectation(d: JointDist, f: JointFunction, coord: int) -> MarginalFunction:
    """Conditional expectation ``E[f | X_coord]`` as a function of one symbol.

    Symbols with zero marginal probability get value 0.
    """
    if f.values.shape != d.probs.shape:
        raise ShapeMismatch("function shape does not match distribution")
    if not 0 <= coord < d.k:
        raise BadCoordinate(f"coordinate {coord} out of range")
    axes = tuple(a for a in range(d.k) if a != coord)
    weighted = np.where(d.support_mask, d.probs * f.values, 0.0)
    num = weighted.sum(axis=axes) if axes else weighted
    den = d.marginal_vector(coord)
    vals = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return MarginalFunction(coord, vals)


def pair_product(dx: JointDist, dy: JointDist) -> JointDist:
    """Coordinate-wise product distribution of independent ``X`` and ``Y``.

    Coordinate ``i`` of the result is the pair ``(X_i, Y_i)`` with alphabet
    ``|X_i| * |Y_i|``, flat index ``x_i * |Y_i| + y_i``: ``np.kron(p, q)``.
    """
    if dx.k != dy.k:
        raise ArityMismatch(f"arity mismatch: {dx.k} vs {dy.k}")
    return JointDist(np.kron(dx.probs, dy.probs))


def apply_channels(d: JointDist, chans: Sequence[Channel]) -> JointDist:
    """Push ``d`` through one memoryless channel per coordinate."""
    if len(chans) != d.k:
        raise ShapeMismatch(f"need {d.k} channels, got {len(chans)}")
    tensor = d.probs
    seen = set()
    for ch in chans:
        i = ch.coord
        if i in seen or not 0 <= i < d.k:
            raise BadCoordinate(f"bad channel coordinate {i}")
        seen.add(i)
        if ch.matrix.shape[0] != d.alphabet_sizes[i]:
            raise ShapeMismatch(
                f"channel on coordinate {i} expects input size "
                f"{ch.matrix.shape[0]}, alphabet is {d.alphabet_sizes[i]}"
            )
        tensor = np.moveaxis(np.tensordot(tensor, ch.matrix, axes=([i], [0])), -1, i)
    return JointDist(np.ascontiguousarray(tensor))


def identity_channel(coord: int, size: int) -> Channel:
    return Channel(coord, np.eye(size))


def bsc_channel(coord: int, crossover: float) -> Channel:
    """Binary symmetric channel with the given crossover probability."""
    e = float(crossover)
    return Channel(coord, np.array([[1 - e, e], [e, 1 - e]]))


def canonical(name: str, **params) -> JointDist:
    """Named example families used throughout the test and suite corpus.

    ``dsbs(lam)``
        Uniform binary pair with ``p(X != Y) = (1 - lam)/2``.
    ``xor_triple``
        Uniform on ``{(x1, x2, x1 XOR x2)}``; pairwise independent.
    ``sum_iid_bernoulli(q, n, m)``
        Joint law of ``(S_n, S_m)`` for i.i.d. Bernoulli(q) summands,
        coordinate 0 being ``S_n``.
    ``equal_copies(k, base)``
        ``k`` identical copies of one variable with probability vector ``base``.
    ``tilde_degenerate(a, b)``
        Three-atom binary triple ``p(000)=a, p(110)=b, p(101)=1-a-b``.
    """
    if name == "dsbs":
        lam = float(params["lam"])
        if not 0.0 <= lam <= 1.0:
            raise BadParameter("dsbs requires lam in [0, 1]")
        same = (1 + lam) / 4
        diff = (1 - lam) / 4
        return make_joint([2, 2], [same, diff, diff, same])
    if name == "xor_triple":
        t = np.zeros((2, 2, 2))
        for x1 in (0, 1):
            for x2 in (0, 1):
                t[x1, x2, x1 ^ x2] = 0.25
        return make_joint([2, 2, 2], t.ravel())
    if name == "sum_iid_bernoulli":
        q, n, m = float(params["q"]), int(params["n"]), int(params["m"])
        if not (0 < q < 1) or not (1 <= m <= n):
            raise BadParameter("need q in (0,1) and 1 <= m <= n")
        t = np.zeros((n + 1, m + 1))
        for s in range(m + 1):
            pm = math.comb(m, s) * q**s * (1 - q) ** (m - s)
            for extra in range(n - m + 1):
                pe = math.comb(n - m, extra) * q**extra * (1 - q) ** (n - m - extra)
                t[s + extra, s] += pm * pe
        return make_joint([n + 1, m + 1], t.ravel())
    if name == "equal_copies":
        k = int(params["k"])
        base = np.asarray(params["base"], dtype=float)
        if k < 1:
            raise BadParameter("equal_copies requires k >= 1")
        n = len(base)
        t = np.zeros((n,) * k)
        for s in range(n):
            t[(s,) * k] = base[s]
        return make_joint([n] * k, t.ravel())
    if name == "tilde_degenerate":
        a, b = float(params["a"]), float(params["b"])
        if not (a > 0 and b > 0 and a + b < 1):
            raise BadParameter("need a, b > 0 with a + b < 1")
        t = np.zeros((2, 2, 2))
        t[0, 0, 0] = a
        t[1, 1, 0] = b
        t[1, 0, 1] = 1 - a - b
        return make_joint([2, 2, 2], t.ravel())
    raise BadParameter(f"unknown canonical family {name!r}")


def is_fully_independent(d: JointDist) -> bool:
    """True when the tensor factorizes into its single-coordinate marginals,
    entry by entry to within ``_INDEPENDENCE_TOL``."""
    prod = np.ones(())
    for i in range(d.k):
        shape = [1] * d.k
        shape[i] = d.alphabet_sizes[i]
        prod = prod * d.marginal_vector(i).reshape(shape)
    return bool(np.max(np.abs(prod - d.probs)) <= _INDEPENDENCE_TOL)


def dist_to_json(d: JointDist) -> str:
    return json.dumps(d.to_json_dict())


def dist_from_json_dict(obj: dict) -> JointDist:
    try:
        return make_joint(obj["alphabet_sizes"], obj["probs"])
    except (KeyError, TypeError, ValueError, OverflowError) as e:  # malformed or infinite
        raise ShapeMismatch(f"malformed distribution JSON: {e!r}") from e


def channel_from_json_dict(obj: dict) -> Channel:
    try:
        if type(obj["coord"]) is not int:  # a float or a bool names no coordinate
            raise TypeError(f"coord must be an integer, got {obj['coord']!r}")
        return Channel(obj["coord"], np.asarray(obj["matrix"], dtype=float))
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ShapeMismatch(f"malformed channel JSON: {e!r}") from e
