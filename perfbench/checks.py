"""Correctness checkers, one per workload, run after the timed interval.

Each checker takes the library, a query and the answer the library gave,
and returns an :class:`Outcome`.  ``error`` says why an answer is wrong.
``proven`` and ``missed`` count search answers whose lambda is already
proven outside the region, and those of them the search answered
``holds_up_to_search``; they feed ``miss_rate``.  A miss is not an error:
the search is one-sided by design.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from workloads import P_ALPHA, Q_FUNCS, S_VARIANTS

EIGEN_BAND = 1e-9  # eigenvalues this close to 0 are verdicts either way
CERTIFY_TOL = 1e-9  # a violated witness must re-certify at least this far below 0
BOUNDARY_TOL = 2e-3  # traced points vs (1 - 1/l1)(1 - 1/l2) = rho^2
DSBS_TOL = 2e-3  # eta_xlogx(dsbs(lam)) = lam^2, at the `suite dsbs` tolerance
SUMIID_TOL = 3e-3  # eta_binent(S_n, S_m) = m/n, at the `suite sumiid` tolerance
# eta_Phi >= rho^2, the small-amplitude limit; the amplitude sweep stops near
# 1e-5 of the domain width, so the limit is met only to first order in it
RHO2_TOL = 1e-4
RATIO_TOL = 1e-9  # reported eta vs the ratio recomputed at its witness
# where the amplitude sweep ends, a witness's Phi-entropy can be near 1e-12;
# entropies carry absolute rounding errors up to about 3e-21 there, so the
# recomputed ratio is good only to this over the denominator
ENTROPY_ABS_TOL = 1e-20
ORACLE_TOL = 1e-9  # oracle minimum vs definition_gap at its argmin
CLI_TOL = 1e-9  # CLI floats are printed to 12 significant digits


@dataclass(frozen=True)
class Outcome:
    error: str | None = None
    proven: int = 0
    missed: int = 0


OK = Outcome()


def _fail(msg: str) -> Outcome:
    return Outcome(error=msg)


# ---------------------------------------------------------------------------
# quadratic


def _region_references(lib, d, lam):
    """Verdicts of the same region from routes other than the queried one."""
    rm = lib.ribbon_mc
    refs = {}
    if d.k == 2:
        rho = lib.correlation.maximal_correlation(d)
        refs["bipartite_closed_form"] = rm.bipartite_closed_form(rho, lam)
    if d.alphabet_sizes == (2, 2, 3):
        try:
            refs["bbt_closed_form"] = rm.bbt_closed_form(d, lam)
        except lib.errors.NonGeneric:
            pass
    if all(s == 2 for s in d.alphabet_sizes):
        refs["pearson_bridge"] = rm.gaussian_mc_membership(rm.pearson_matrix(d), lam)
    return refs


def check_membership(lib, d, lam, fn: str, res, g=None) -> Outcome:
    """One mc / sprime / tilde answer against the other routes to it."""
    rm = lib.ribbon_mc
    if res.verdict != (res.min_eigenvalue >= -EIGEN_BAND):
        return _fail(f"{fn}: verdict disagrees with its own min eigenvalue")
    if not res.verdict:
        if res.witness is None or not (res.gap < 0):
            return _fail(f"{fn}: non-member witness gap {res.gap!r} is not below 0")
    if fn == "tilde" or abs(res.min_eigenvalue) < EIGEN_BAND:
        return OK
    other_fn = "sprime" if fn == "mc" else "mc"
    other = getattr(rm, Q_FUNCS[other_fn])(d, lam, g)
    if abs(other.min_eigenvalue) >= EIGEN_BAND and other.verdict != res.verdict:
        return _fail(f"{fn} and {other_fn} disagree outside the eigenvalue band")
    mc = res if fn == "mc" else other
    if abs(mc.min_eigenvalue) < EIGEN_BAND:
        return OK
    for route, verdict in _region_references(lib, d, lam).items():
        if verdict != res.verdict:
            return _fail(f"{fn} disagrees with {route}")
    return OK


def check_quadratic(lib, q, ans) -> Outcome:
    a = q.args
    rm = lib.ribbon_mc
    if q.kind == "check_gram":
        return check_membership(lib, a["d"], a["lam"], a["fn"], ans, a["g"])
    if q.kind == "check_fresh":
        return check_membership(lib, a["d"], a["lam"], a["fn"], ans)
    if q.kind == "gaussian":
        exact = rm.mc_membership(a["d"], a["lam"])
        if abs(exact.min_eigenvalue) >= EIGEN_BAND and ans != exact.verdict:
            return _fail("Pearson bridge disagrees with the PSD test")
        return OK
    if q.kind == "boundary_trace":
        return check_boundary_trace(lib, a["d"], ans)
    if q.kind == "cli_check":
        return check_cli_check(lib, a, ans)
    if q.kind == "cli_trace":
        return check_cli_trace(lib, a, ans)
    return _fail(f"unknown query kind {q.kind!r}")


def check_boundary_trace(lib, d, trace) -> Outcome:
    rho2 = lib.correlation.maximal_correlation(d) ** 2
    if len(trace) == 0:
        return _fail("empty boundary trace")
    for lam, member in trace:
        if member:
            continue
        l1, l2 = float(lam[0]), float(lam[1])
        if l1 <= 0 or l2 <= 0:
            return _fail(f"boundary point {lam!r} on an axis")
        err = abs((1 - 1 / l1) * (1 - 1 / l2) - rho2)
        if not err <= BOUNDARY_TOL:
            return _fail(f"boundary point off the curve by {err:.3g}")
    return OK


def check_cli_check(lib, a, ans) -> Outcome:
    code, out = ans
    if code != 0:
        return _fail(f"ribbon check exited {code}")
    try:
        obj = json.loads(out)
    except json.JSONDecodeError:
        return _fail("ribbon check printed no JSON")
    direct = getattr(lib.ribbon_mc, Q_FUNCS[a["fn"]])(a["d"], a["lam"])
    if obj.get("member") != direct.verdict:
        return _fail("ribbon check verdict differs from the direct call")
    if not abs(obj["min_eigenvalue"] - direct.min_eigenvalue) <= CLI_TOL:
        return _fail("ribbon check min eigenvalue differs from the direct call")
    if not direct.verdict and not obj.get("gap", 0.0) < 0:
        return _fail("ribbon check non-member gap is not below 0")
    return OK


def check_cli_trace(lib, a, ans) -> Outcome:
    code, out = ans
    if code != 0:
        return _fail(f"ribbon trace exited {code}")
    d, g, grid = a["d"], a["g"], a["grid"]
    rows = list(csv.reader(io.StringIO(out)))
    header = [f"lambda_{i + 1}" for i in range(d.k)] + ["member"]
    if not rows or rows[0] != header:
        return _fail("ribbon trace CSV header is wrong")
    axes = [np.linspace(0, 1, grid)] * d.k
    points = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, d.k)
    if len(rows) - 1 != len(points):
        return _fail(f"ribbon trace printed {len(rows) - 1} rows, expected {len(points)}")
    for row, lam in zip(rows[1:], points):
        if not np.allclose([float(x) for x in row[:-1]], lam, rtol=0, atol=1e-11):
            return _fail("ribbon trace row lambda differs from the grid")
        direct = lib.ribbon_mc.mc_membership(d, lam, g)
        if abs(direct.min_eigenvalue) < EIGEN_BAND:
            continue
        if int(row[-1]) != int(direct.verdict):
            return _fail(f"ribbon trace verdict at {lam.tolist()} differs from the direct call")
    return OK


# ---------------------------------------------------------------------------
# eta_Phi queries


def _rho(d) -> float:
    """Second singular value of p(x,y)/sqrt(p(x)p(y)), computed here from scratch."""
    P = np.asarray(d.probs, dtype=float)
    px, py = P.sum(1), P.sum(0)
    P = P[np.ix_(px > 0, py > 0)]
    px, py = px[px > 0], py[py > 0]
    if len(px) < 2 or len(py) < 2:
        return 0.0
    s = np.linalg.svd(P / np.sqrt(np.outer(px, py)), compute_uv=False)
    return float(min(1.0, s[1]))


def check_eta(lib, q, ans) -> Outcome:
    a = q.args
    d = a["d"]
    rho = _rho(d)
    if q.kind == "maxcorr":
        if not abs(ans - rho) <= 1e-10:
            return _fail(f"maximal correlation {ans!r} differs from the SVD {rho!r}")
        return OK
    est = ans
    if not math.isfinite(est.value):
        return _fail("eta is not finite")
    phi = lib.phi.parse_phi(a["phi"])
    f = est.witness
    gy = lib.dist.cond_expectation(d, f.lift(d), 1)
    num = lib.phi.marginal_phi_entropy(d, phi, gy).value
    den = lib.phi.marginal_phi_entropy(d, phi, f).value
    if not den > 0:
        return _fail(f"eta witness has Phi-entropy {den!r}")
    ratio = num / den
    capped = est.value == 1.0 and ratio >= 1.0
    tol = RATIO_TOL * max(1.0, abs(ratio)) + ENTROPY_ABS_TOL / den
    if not (capped or abs(ratio - est.value) <= tol):
        return _fail(f"eta {est.value!r} differs from the ratio {ratio!r} at its witness")
    if est.value < rho * rho - RHO2_TOL:
        return _fail(f"eta {est.value!r} is below rho^2 = {rho * rho!r}")
    expect = a["expect"]
    if expect is not None:
        tol = DSBS_TOL if q.kind == "eta_dsbs" else SUMIID_TOL
        if not abs(est.value - expect) <= tol:
            return _fail(f"eta {est.value!r} misses the closed form {expect!r}")
    return OK


# ---------------------------------------------------------------------------
# phi_region


def _quadratic_rejects(lib, d, lam) -> bool:
    """Criterion 9: a quadratic-case violation implies a Phi violation."""
    return lib.ribbon_mc.mc_membership(d, lam).min_eigenvalue < -EIGEN_BAND


def certify(lib, d, phi, lam, verdict) -> str | None:
    """Why a violated verdict fails re-certification, or None if it holds up."""
    if verdict.witness is None:
        return f"{phi.name}: violated verdict without a witness"
    gap = lib.ribbon_phi.definition_gap(d, phi, lam, verdict.witness)
    if not gap <= -CERTIFY_TOL:
        return f"{phi.name}: witness re-certifies at gap {gap!r}"
    return None


def check_phi_region(lib, q, ans) -> Outcome:
    if q.kind in S_VARIANTS:
        return check_eta(lib, q, ans)
    a = q.args
    d, lam = a["d"], a["lam"]
    if q.kind == "oracle":
        gap, f = ans
        phi = lib.phi.parse_phi(a["phi"])
        direct = lib.ribbon_phi.definition_gap(d, phi, lam, f)
        if not abs(direct - gap) <= ORACLE_TOL * (1.0 + abs(gap)):
            return _fail(f"oracle minimum {gap!r} differs from definition_gap {direct!r}")
        return OK
    if q.kind == "alpha_pair":
        sides = [(lib.phi.power_alpha(P_ALPHA), ans[0]), (lib.phi.sym_alpha(P_ALPHA), ans[1])]
    else:
        sides = [(lib.phi.parse_phi(a["phi"]), ans)]
    rejects = _quadratic_rejects(lib, d, lam)
    any_violated = any(v.violated for _, v in sides)
    proven = missed = 0
    for phi, verdict in sides:
        if verdict.verdict not in ("violated", "holds_up_to_search"):
            return _fail(f"unknown verdict {verdict.verdict!r}")
        if not math.isfinite(verdict.gap):
            return _fail(f"{phi.name}: gap is not finite")
        if verdict.violated:
            why = certify(lib, d, phi, lam, verdict)
            if why:
                return _fail(why)
        if rejects or (q.kind == "alpha_pair" and any_violated):
            proven += 1
            missed += not verdict.violated
    return Outcome(proven=proven, missed=missed)


CHECKERS = {
    "quadratic": check_quadratic,
    "phi_region": check_phi_region,
}
