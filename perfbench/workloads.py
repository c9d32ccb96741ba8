"""Seeded query streams for the two workloads.

A query is one public call into the library on inputs drawn from the
workload seed; the library sees only those inputs.  Each workload mixes
several kinds of query in fixed proportions: a cycle of slots spreads the
kinds evenly, so any prefix of the stream, and so any run length, holds
them in nearly the proportions given.  Within a kind, the variants (shape,
Phi, function) take turns.  Only the drawn values depend on the seed.

Query callables look the library function up on its module at call time,
so wrappers that the traced run installs see every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass
class Query:
    kind: str
    call: Callable[[], object]  # the one timed public call
    args: dict = field(default_factory=dict)  # inputs the checker needs


@dataclass
class Workload:
    name: str
    queries: list[Query]
    trace_queries: int  # prefix length the traced run replays

    def warmups(self) -> list[Query]:
        """The first query of each kind, in stream order."""
        seen: dict[str, Query] = {}
        for q in self.queries:
            seen.setdefault(q.kind, q)
        return list(seen.values())


def schedule(weights: dict[str, int]) -> list[str]:
    """One cycle of kind slots, each kind spread evenly over the cycle."""
    slots = [
        ((j + 0.5) / w, order, kind)
        for order, (kind, w) in enumerate(weights.items())
        for j in range(w)
    ]
    return [kind for _, _, kind in sorted(slots)]


def _stream(weights: dict[str, int], variants: dict[str, list], n: int):
    """Yield ``(kind, variant)`` for ``n`` queries; variants rotate per kind."""
    cycle = schedule(weights)
    turns = {kind: itertools.cycle(v) for kind, v in variants.items()}
    for i in range(n):
        kind = cycle[i % len(cycle)]
        yield kind, next(turns[kind])


# distinct queries per stream; their answers are what a run checks, so the
# memory they hold stays the same however fast the library gets
STREAM = 2_000


def _law(lib, rng, shape):
    return lib.dist.make_joint(shape, rng.dirichlet(np.ones(int(np.prod(shape)))))


def _seed(rng) -> int:
    return int(rng.integers(2**31))


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """In-process CLI invocation; returns the exit code and standard output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# quadratic: exact PSD queries, no search and no Phi

Q_SHAPES = ((2, 2), (3, 3), (4, 4), (2, 2, 2), (2, 2, 3), (3, 3, 3))
Q_CHECKS = ("mc", "sprime", "tilde")
Q_FUNCS = {
    "mc": "mc_membership",
    "sprime": "mc_membership_sprime",
    "tilde": "tilde_membership",
}
Q_POOL = 32  # laws per shape; queries reuse them, so Gram matrices can be shared
# p90 falls in the middle of the cli_check group, not on its lower edge
Q_WEIGHTS = {
    "check_gram": 34,
    "check_fresh": 34,
    "gaussian": 16,
    "cli_check": 12,
    "boundary_trace": 2,
    "cli_trace": 2,
}
Q_DIRECTIONS = 64
Q_CLI_TRACES = (((2, 2), 12), ((2, 2, 2), 8))  # (shape, grid points per axis)


def build_quadratic(lib, seed: int, workdir: Path, n: int = STREAM) -> Workload:
    rng = np.random.default_rng(seed)
    rm = lib.ribbon_mc
    pool = {s: [_law(lib, rng, s) for _ in range(Q_POOL)] for s in Q_SHAPES}
    grams = {s: [rm.gram_matrix(d) for d in laws] for s, laws in pool.items()}
    pearson = {s: [rm.pearson_matrix(d) for d in pool[s]] for s in ((2, 2), (2, 2, 2))}
    files = {}
    for s, laws in pool.items():
        for j, d in enumerate(laws):
            path = workdir / f"law-{'x'.join(map(str, s))}-{j}.json"
            path.write_text(lib.dist.dist_to_json(d))
            files[s, j] = str(path)

    checks = list(itertools.product(Q_SHAPES, Q_CHECKS))
    variants = {
        "check_gram": checks,
        "check_fresh": checks,
        "gaussian": [(2, 2), (2, 2, 2)],
        "cli_check": checks,
        "boundary_trace": [(2, 2), (3, 3), (4, 4)],
        "cli_trace": list(Q_CLI_TRACES),
    }
    queries = []
    for kind, var in _stream(Q_WEIGHTS, variants, n):
        if kind in ("check_gram", "check_fresh", "cli_check"):
            shape, fn = var
            j = int(rng.integers(Q_POOL))
            d = pool[shape][j]
            lam = rng.uniform(0.0, 1.0, size=len(shape))
            args = {"d": d, "lam": lam, "fn": fn, "g": grams[shape][j]}
            if kind == "check_gram":
                call = _membership(rm, Q_FUNCS[fn], d, lam, grams[shape][j])
            elif kind == "check_fresh":
                call = _membership(rm, Q_FUNCS[fn], d, lam, None)
            else:
                argv = ["ribbon", "check", "--dist", files[shape, j],
                        "--lambda", ",".join(repr(float(x)) for x in lam), "--kind", fn]
                call = _cli_call(lib, argv)
        elif kind == "gaussian":
            j = int(rng.integers(Q_POOL))
            lam = rng.uniform(0.0, 1.0, size=len(var))
            R = pearson[var][j]
            args = {"d": pool[var][j], "lam": lam}
            call = _gaussian(rm, R, lam)
        elif kind == "boundary_trace":
            j = int(rng.integers(Q_POOL))
            d = pool[var][j]
            args = {"d": d}
            call = _boundary_trace(rm, d)
        else:  # cli_trace
            shape, grid = var
            j = int(rng.integers(Q_POOL))
            args = {"d": pool[shape][j], "g": grams[shape][j], "grid": grid}
            call = _cli_call(lib, ["ribbon", "trace", "--dist", files[shape, j],
                                   "--grid", str(grid)])
        queries.append(Query(kind, call, args))
    return Workload("quadratic", queries, trace_queries=600)


def _membership(rm, name, d, lam, g):
    if g is None:
        return lambda: getattr(rm, name)(d, lam)
    return lambda: getattr(rm, name)(d, lam, g)


def _gaussian(rm, R, lam):
    return lambda: rm.gaussian_mc_membership(R, lam)


def _boundary_trace(rm, d):
    return lambda: rm.mc_boundary_trace(d, Q_DIRECTIONS)


def _cli_call(lib, argv):
    return lambda: run_cli(lib.cli, argv)


# ---------------------------------------------------------------------------
# eta_Phi queries: the ascent loop plus maximal correlation

S_SHAPES = ((2, 2), (3, 3), (4, 4))
S_PHIS = ("square", "power:1.5", "sym:1.5", "xlogx")
S_SUMS = ((2, 1), (3, 1), (3, 2), (4, 2))
S_VARIANTS = {
    "maxcorr": list(S_SHAPES),
    "eta_dsbs": [None],
    "eta_sumiid": list(S_SUMS),
    "eta_random": list(itertools.product(S_SHAPES, S_PHIS)),
}
S_RESTARTS = 4
S_MAX_ITERS = 100


def _eta_query(lib, rng, kind: str, var) -> Query:
    """One eta_Phi or maximal-correlation query, its inputs drawn from ``rng``."""
    if kind == "maxcorr":
        d = _law(lib, rng, var)
        return Query(kind, _maxcorr(lib, d), {"d": d})
    if kind == "eta_dsbs":
        lam = float(rng.uniform(0.1, 0.9))
        d, phi, expect = lib.dist.canonical("dsbs", lam=lam), "xlogx", lam * lam
    elif kind == "eta_sumiid":
        nn, m = var
        d = lib.dist.canonical("sum_iid_bernoulli", q=0.5, n=nn, m=m)
        phi, expect = "binent", m / nn
    else:
        shape, phi = var
        d, expect = _law(lib, rng, shape), None
    opts = lib.correlation.SearchOpts(
        restarts=S_RESTARTS, max_iters=S_MAX_ITERS, seed=_seed(rng)
    )
    return Query(kind, _eta(lib, d, phi, opts), {"d": d, "phi": phi, "expect": expect})


def _maxcorr(lib, d):
    return lambda: lib.correlation.maximal_correlation(d)


def _eta(lib, d, phi_name, opts):
    return lambda: lib.correlation.eta_phi(d, lib.phi.parse_phi(phi_name), None, opts)


# ---------------------------------------------------------------------------
# phi_region: general-Phi searches, certification, the oracle and eta_Phi

P_PHIS = ("xlogx:0.05,4", "power:1.5", "binent")
# binent searches on (2,2,2) and (3,3) laws cost 3-4x the others and formed
# a sparse tail that p90 sat on the edge of; binent stays on (2,2) and (3,3,3)
P_SEARCHES = tuple(((2, 2), phi) for phi in P_PHIS) + tuple(
    itertools.product(((2, 2, 2), (3, 3)), P_PHIS[:2])
)
P_WEIGHTS = {
    "violated": 12,
    "holds": 12,
    "large": 4,
    "alpha_pair": 8,
    "normalized": 2,
    "oracle": 10,
    # eta_Phi queries take about 40% of the time: their 10-115 ms spread
    # fills the gaps between the search groups, so p50 and p90 sit on no edge
    "maxcorr": 2,
    "eta_dsbs": 3,
    "eta_sumiid": 2,
    "eta_random": 12,
}
P_RESTARTS = 4
P_MAX_ITERS = 50
P_ORACLE_RESOLUTION = 13
P_ALPHA = 1.5
P_NORMALIZED_PHI = "xlogx:0,4"
CORNER = (0.7, 1.0)  # lambda draws that the quadratic test mostly rejects
DEEP = (0.0, 0.3)  # lambda draws well inside the region


def build_phi_region(lib, seed: int, workdir: Path, n: int = STREAM) -> Workload:
    rng = np.random.default_rng(seed)
    variants = {
        "violated": list(P_SEARCHES),
        "holds": list(P_SEARCHES),
        "large": list(itertools.product((CORNER, DEEP), P_PHIS)),
        "alpha_pair": [None],
        "normalized": [None],
        "oracle": list(P_PHIS),
        **S_VARIANTS,
    }
    rp = lib.ribbon_phi
    queries = []
    for kind, var in _stream(P_WEIGHTS, variants, n):
        if kind in S_VARIANTS:
            queries.append(_eta_query(lib, rng, kind, var))
            continue
        opts = lib.correlation.SearchOpts(
            restarts=P_RESTARTS, max_iters=P_MAX_ITERS, seed=_seed(rng)
        )
        if kind in ("violated", "holds", "large"):
            if kind == "large":
                box, phi = var
                shape = (3, 3, 3)
            else:
                shape, phi = var
                box = CORNER if kind == "violated" else DEEP
            d = _law(lib, rng, shape)
            lam = rng.uniform(*box, size=len(shape))
            call = _search(lib, "phi_ribbon_membership", d, phi, lam, opts)
        elif kind == "alpha_pair":
            d, phi = _law(lib, rng, (2, 2)), None
            lam = rng.uniform(1.0 / 15.0, 1.0, size=2)
            call = _alpha(rp, d, lam, opts)
        elif kind == "normalized":
            d, phi = _law(lib, rng, (2, 2)), P_NORMALIZED_PHI
            lam = rng.uniform(0.3, 1.0, size=2)
            call = _search(lib, "normalized_phi_ribbon_membership", d, phi, lam, opts)
        else:  # oracle
            d, phi = _law(lib, rng, (2, 2)), var
            lam = rng.uniform(0.0, 1.0, size=2)
            grid = lib.oracle.GridSpec(P_ORACLE_RESOLUTION)
            call = _oracle(lib, d, phi, lam, grid)
        queries.append(Query(kind, call, {"d": d, "phi": phi, "lam": lam}))
    return Workload("phi_region", queries, trace_queries=2 * sum(P_WEIGHTS.values()))


def _search(lib, name, d, phi_name, lam, opts):
    return lambda: getattr(lib.ribbon_phi, name)(d, lib.phi.parse_phi(phi_name), lam, opts)


def _alpha(rp, d, lam, opts):
    return lambda: rp.alpha_equivalent_membership(d, P_ALPHA, lam, opts)


def _oracle(lib, d, phi_name, lam, grid):
    return lambda: lib.oracle.brute_min_objective(d, lib.phi.parse_phi(phi_name), lam, grid)


BUILDERS = {
    "quadratic": build_quadratic,
    "phi_region": build_phi_region,
}
