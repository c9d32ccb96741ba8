"""Command-line front end: JSON/CSV I/O around the library operations."""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import correlation, oracle, ribbon_mc, ribbon_phi
from .dist import (
    JointDist,
    canonical,
    channel_from_json_dict,
    dist_from_json_dict,
)
from .errors import GridTooLarge, PhiRibbonError
from .phi import binent, parse_phi, xlogx
from .correlation import SearchOpts

_DESCRIPTION = ("Correlation measures and entropy-inequality regions for discrete "
                "multivariate distributions.")


class _UsageError(Exception):
    """Bad flags, a missing command or unreadable input: exit 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # raise, so main() alone chooses every exit code
        raise _UsageError(f"{self.prog}: {message}")


def _count(low: int):
    """An argparse type: an integer of at least ``low``."""

    def count(text):
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"{n} is below {low}")
        return n

    return count


# command words -> (parser, handler).  main() picks an entry by the first one
# or two words of argv; only that entry's parser reads the rest, and the
# handler takes the parsed options as keyword arguments.
_COMMANDS: dict = {}


def _command(words: str, *options):
    """Register the decorated handler as ``phiribbon WORDS``; each option is a
    (flag or name, ``add_argument`` keywords) pair.  The docstring is the help."""

    def register(handler):
        parser = _Parser(
            prog=f"phiribbon {words}", description=handler.__doc__, allow_abbrev=False
        )
        for flag, kw in options:
            parser.add_argument(flag, **kw)
        _COMMANDS[tuple(words.split())] = (parser, handler)
        return handler

    return register


_DIST = ("--dist", {"dest": "dist_path", "required": True, "metavar": "FILE"})
_PHI = ("--phi", {"dest": "phi_name", "required": True, "metavar": "PHI"})
_LAMBDA = ("--lambda", {"dest": "lam_text", "required": True, "metavar": "L1,L2,..."})
_KIND = ("--kind", {"choices": ribbon_mc.KINDS, "default": "mc"})
_SEED = ("--seed", {"type": _count(0), "default": 0, "help": "default: 0"})
_OUT = ("--out", {"dest": "out_path", "help": "CSV file (default: standard output)"})


def _round12(x):
    """Normalize every float to 12 significant digits for stable diffs."""
    if isinstance(x, float):
        if math.isfinite(x):
            return float(f"{x:.12g}")
        return x
    if isinstance(x, dict):
        return {k: _round12(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_round12(v) for v in x]
    return x


def _emit_json(obj):
    sys.stdout.write(json.dumps(_round12(obj), allow_nan=False) + "\n")


def _load_json(path: str, what: str):
    """The JSON object in a UTF-8 file; a file that cannot be opened, is not
    UTF-8 or is not JSON is an input error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as e:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise _UsageError(f"cannot read {what} {path}: {e}")


def _load_dist(path: str) -> JointDist:
    return dist_from_json_dict(_load_json(path, "distribution file"))


def _parse_lambda(text: str, k: int) -> list[float]:
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError:
        raise _UsageError(f"bad --lambda value {text!r}")
    if len(vals) != k:
        raise _UsageError(f"--lambda needs {k} comma-separated entries")
    return vals


def _write_csv(header, lines, out):
    """Write ``header``, joined by commas, then ``lines`` (each formatted and
    ending in a newline) to the file ``out``, or to stdout.  No field needs
    quoting: every field is a number or a fixed word."""
    text = ",".join(header) + "\n" + "".join(lines)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as e:  # an unwritable --out path is an input error, like an unreadable input
            raise _UsageError(f"cannot write {out}: {e}")
    else:
        sys.stdout.write(text)


@_command("rho", _DIST)
def _rho(dist_path):
    """Maximal correlation of a bipartite distribution."""
    d = _load_dist(dist_path)
    _emit_json({"rho": correlation.maximal_correlation(d)})


@_command(
    "eta", _DIST, _PHI,
    ("--restarts", {"type": int, "default": 32, "help": "default: 32"}),
    _SEED,
)
def _eta(dist_path, phi_name, restarts, seed):
    """Lower-bound estimate of the SDPI constant eta_Phi, capped at 1.

    "converged" is true when the ascent ended because its answer stopped
    improving (gradient test met, step floor reached, best ratio flat to
    1e-10 over 10 passes, or the small-amplitude sweep won), false when the
    winning restart used up its move budget first."""
    d = _load_dist(dist_path)
    phi = parse_phi(phi_name)
    est = correlation.eta_phi(d, phi, opts=SearchOpts(restarts=restarts, seed=seed))
    _emit_json(
        {
            "value": est.value,
            "lower_bound_rho2": est.lower_bound_rho2,
            "witness": list(est.witness.values),
            "converged": est.converged,
        }
    )


@_command("gram", _DIST)
def _gram(dist_path):
    """Block Gram matrix of marginal bases and its eigenvalues."""
    d = _load_dist(dist_path)
    g = ribbon_mc.gram_matrix(d)
    _emit_json(
        {
            "block_dims": list(g.block_dims),
            "M": g.M.tolist(),
            "eigenvalues": sorted(np.linalg.eigvalsh(g.M).tolist()),
        }
    )


@_command("ribbon check", _DIST, _LAMBDA, _KIND)
def _ribbon_check(dist_path, lam_text, kind):
    """Exact membership test.  For ``mc``, ``min_eigenvalue`` is that of the
    congruent ``I - Lambda^{1/2} M Lambda^{1/2}`` (the sign of ``Lambda^{-1} - M``'s;
    1 at lambda = 0).  It is null when no coordinate varies: a member."""
    d = _load_dist(dist_path)
    lam = _parse_lambda(lam_text, d.k)
    fn = {
        "mc": ribbon_mc.mc_membership,
        "sprime": ribbon_mc.mc_membership_sprime,
        "tilde": ribbon_mc.tilde_membership,
    }[kind]
    res = fn(d, lam)
    out = {
        "kind": kind,
        "lambda": lam,
        "member": res.verdict,
        "min_eigenvalue": res.min_eigenvalue if math.isfinite(res.min_eigenvalue) else None,
    }
    if not res.verdict:
        out["witness"] = [list(f.values) for f in res.witness]
        out["gap"] = res.gap
    _emit_json(out)


@_command(
    "ribbon trace", _DIST,
    ("--grid", {"dest": "grid_n", "type": _count(1), "default": 50,
                "help": "points per lambda axis (default: 50)"}),
    _KIND, _OUT,
)
def _ribbon_trace(dist_path, grid_n, kind, out_path):
    """Grid sweep over lambda points; CSV of memberships."""
    d = _load_dist(dist_path)
    if grid_n**d.k > oracle._CAP:  # the oracle's cap: the library's scale for one grid
        raise GridTooLarge(f"{grid_n}^{d.k} lambda points exceeds cap {oracle._CAP}")
    axes = [np.linspace(0, 1, grid_n)] * d.k
    lams = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, d.k)
    member = ribbon_mc.membership_verdicts(d, kind, lams)
    header = [f"lambda_{i+1}" for i in range(d.k)] + ["member"]
    line = "{:.12g}," * d.k + "{:d}\n"
    _write_csv(header, map(line.format, *lams.T.tolist(), member.tolist()), out_path)


@_command(
    "phi-ribbon check", _DIST, _PHI, _LAMBDA,
    ("--normalized", {"action": "store_true"}),
    ("--restarts", {"type": int, "default": 64, "help": "default: 64"}),
    _SEED,
)
def _phi_ribbon_check(dist_path, phi_name, lam_text, normalized, restarts, seed):
    """Look for a witness f with a negative gap, in one of three ways.
    Where sum(lambda) <= 1, "proven" is true: every region contains those
    points, so no search runs and the gap is its exact least value 0.
    Where the quadratic test rejects lambda, a sweep along its direction
    usually certifies "violated" with no search, the gap being its deepest
    row.  Any point left is searched: "violated" reports the first witness found
    below its exit threshold, "holds_up_to_search" the least gap reached.
    A "violated" gap is always its witness's, re-checked from scratch, and
    not the deepest gap reachable."""
    d = _load_dist(dist_path)
    phi = parse_phi(phi_name)
    lam = _parse_lambda(lam_text, d.k)
    opts = SearchOpts(restarts=restarts, seed=seed)
    fn = (
        ribbon_phi.normalized_phi_ribbon_membership
        if normalized
        else ribbon_phi.phi_ribbon_membership
    )
    res = fn(d, phi, lam, opts)
    out = {"phi": phi.name, "lambda": lam, "verdict": res.verdict, "gap": res.gap,
           "proven": res.proven}
    if res.witness is not None:
        out["witness"] = list(res.witness.values.ravel())
    _emit_json(out)


@_command(
    "phi-ribbon trace", _DIST, _PHI,
    ("--directions", {"type": _count(1), "default": 32,
                      "help": "Rays to trace (default: 32). For k = 3 the rays are the "
                      "m(m+1)/2 points of a simplex lattice with "
                      "m = max(2, ceil(sqrt(DIRECTIONS))): 32 gives 21 rays. Each ray "
                      "takes 12 start rows, and a trace at most 100000, so at most 8333 "
                      "rays."}),
    _SEED, _OUT,
)
def _phi_ribbon_trace(dist_path, phi_name, directions, seed, out_path):
    """Region boundary along rays from lambda = 0; CSV of verdicts."""
    d = _load_dist(dist_path)
    phi = parse_phi(phi_name)
    trace = ribbon_phi.ribbon_boundary_trace(
        d, phi, directions, SearchOpts(restarts=12, max_iters=200, seed=seed)
    )
    header = ["direction_index"] + [f"lambda_{i+1}" for i in range(d.k)] + ["verdict"]
    line = "{:d}," + "{:.12g}," * d.k + "{}\n"
    rows = (line.format(i, *map(float, lam), verdict) for i, (lam, verdict) in enumerate(trace))
    _write_csv(header, rows, out_path)


@_command(
    "phi-ribbon channel-test", _DIST,
    ("--phi", {**_PHI[1], "help": "a Phi defined on ratios above 1, which any U that "
               "depends on X has: binent and sym:A are refused"}),
    ("--channel", {"dest": "channel_path", "required": True}),
    _LAMBDA,
)
def _phi_ribbon_channel_test(dist_path, phi_name, channel_path, lam_text):
    """Mutual-information test of one channel from X to U.  The gap is
    I_Phi(U; X) - sum_i lambda_i I_Phi(U; X_i); a negative gap puts lambda
    outside the region."""
    d = _load_dist(dist_path)
    phi = parse_phi(phi_name)
    ch = channel_from_json_dict(_load_json(channel_path, "channel file"))
    lam = _parse_lambda(lam_text, d.k)
    gap = ribbon_phi.i_phi_channel_test(d, phi, lam, ch)
    _emit_json(
        {"phi": phi.name, "lambda": lam, "gap": gap,
         "violates": bool(gap < -ribbon_phi._VIOLATION_TOL)}
    )


@_command("gaussian check", ("--R", {"dest": "r_path", "required": True}), _LAMBDA)
def _gaussian_check(r_path, lam_text):
    """Quadratic-case membership from a correlation matrix alone."""
    obj = _load_json(r_path, "correlation matrix")
    try:
        R = np.asarray(obj["matrix"], dtype=float)
    except (KeyError, TypeError, ValueError) as e:
        raise _UsageError(f"cannot read correlation matrix {r_path}: {e}")
    if R.ndim != 2:
        raise _UsageError(f"correlation matrix in {r_path} must be 2-D")
    lam = _parse_lambda(lam_text, R.shape[0])
    member = ribbon_mc.gaussian_mc_membership(R, lam)
    _emit_json({"lambda": lam, "member": member})


@_command(
    "oracle min-gap", _DIST, _PHI, _LAMBDA,
    ("--resolution", {"type": int, "default": 21, "help": "default: 21"}),
)
def _oracle_min_gap(dist_path, phi_name, lam_text, resolution):
    """Exhaustive minimum of the ribbon objective over gridded f values."""
    d = _load_dist(dist_path)
    phi = parse_phi(phi_name)
    lam = _parse_lambda(lam_text, d.k)
    gap, f = oracle.brute_min_objective(d, phi, lam, oracle.GridSpec(resolution))
    _emit_json({"min_gap": gap, "argmin": list(f.values.ravel())})


# ---------------------------------------------------------------------------
# reproduction suites


def _suite_rows(name: str, seed: int):
    rng = np.random.default_rng(seed)
    rows = []  # (case, measured, expected, tol) with None tol = boolean match
    if name == "dsbs":
        for lam in [round(0.1 * i, 1) for i in range(1, 10)]:
            d = canonical("dsbs", lam=lam)
            est = correlation.eta_phi(d, xlogx(), opts=SearchOpts(restarts=16, seed=seed))
            rows.append((f"eta_xlogx dsbs({lam})", est.value, lam * lam, 2e-3))
    elif name == "sumiid":
        for n, m in ((2, 1), (3, 1), (3, 2), (4, 2)):
            d = canonical("sum_iid_bernoulli", q=0.5, n=n, m=m)
            est = correlation.eta_phi(d, binent(), opts=SearchOpts(restarts=16, seed=seed))
            rows.append((f"eta_binent S{n}/S{m}", est.value, m / n, 3e-3))
    elif name == "xor":
        d = canonical("xor_triple")
        r = ribbon_phi.phi_ribbon_membership(
            d, binent(), [1, 1, 1], SearchOpts(restarts=32, seed=seed)
        )
        rows.append(("binent (1,1,1) violated", float(r.violated), 1.0, None))
        rows.append(("certified gap < -1e-6", float(r.gap < -1e-6), 1.0, None))
        m = ribbon_mc.mc_membership(d, [1, 1, 1])
        rows.append(("quadratic (1,1,1) member", float(m.verdict), 1.0, None))
    elif name == "bipartite-boundary":
        d = canonical("dsbs", lam=0.5)
        trace = ribbon_mc.mc_boundary_trace(d, directions=64)
        worst = 0.0
        for lam, member in trace:
            if not member:
                worst = max(worst, abs((1 - 1 / lam[0]) * (1 - 1 / lam[1]) - 0.25))
        rows.append(("max boundary curve error", worst, 0.0, 2e-3))
    elif name == "tilde":
        d = canonical("tilde_degenerate", a=0.3, b=0.3)
        bad = 0
        for _ in range(200):
            lam = rng.uniform(0.05, 1.0, size=3)
            if ribbon_mc.tilde_membership(d, lam).verdict:
                bad += 1
        rows.append(("nonzero lambda all non-member", float(bad), 0.0, 0.5))
        a = b = 0.3
        # zero-mean f(X), g(Y), h(Z) with f + g + h = 0 on every atom
        fx = np.array([1 - a, -a])
        gy = np.array([-b, 1 - b])
        hz = np.array([a + b - 1, a + b])
        from .dist import JointFunction

        total = (
            fx[:, None, None] + gy[None, :, None] + hz[None, None, :]
        ) * np.ones((2, 2, 2))
        rows.append(
            ("Var[f+g+h]", d.variance(JointFunction(total)), 0.0, 1e-15)
        )
    elif name == "gaussian-binary":
        bad = 0
        for _ in range(25):
            d = dist_from_json_dict(
                {"alphabet_sizes": [2, 2, 2], "probs": rng.dirichlet(np.ones(8)).tolist()}
            )
            R = ribbon_mc.pearson_matrix(d)
            for _ in range(20):
                lam = rng.uniform(0, 1, size=3)
                a = ribbon_mc.mc_membership(d, lam)
                if a.verdict != ribbon_mc.gaussian_mc_membership(R, lam) and abs(
                    a.min_eigenvalue
                ) > 1e-9:
                    bad += 1
        rows.append(("PSD-vs-Pearson disagreements", float(bad), 0.0, 0.5))
    elif name == "alpha-equivalence":
        disagree = 0
        for _ in range(4):
            d = dist_from_json_dict(
                {"alphabet_sizes": [2, 2], "probs": rng.dirichlet(np.ones(4)).tolist()}
            )
            axis = np.linspace(0.1, 1.0, 6)
            lams = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
            pairs = ribbon_phi.alpha_equivalent_membership(
                d, 1.5, lams, SearchOpts(restarts=8, seed=seed)
            )
            disagree += sum(rp.violated != rs.violated for rp, rs in pairs)
        rows.append(("power:1.5 vs sym:1.5 disagreements", float(disagree), 0.0, 0.5))
    else:
        raise _UsageError(f"unknown suite {name!r}")
    return rows


@_command("suite", ("name", {}), _SEED)
def _suite(name, seed):
    """Run a named reproduction bundle and print a pass/fail table."""
    rows = _suite_rows(name, seed)
    all_ok = True
    sys.stdout.write(f"{'case':40s} {'measured':>16s} {'expected':>16s}  status\n")
    for case, measured, expected, tol in rows:
        if tol is None:
            ok = measured == expected
        else:
            ok = abs(measured - expected) <= tol
        all_ok &= ok
        sys.stdout.write(
            f"{case:40s} {measured:16.10g} {expected:16.10g}  "
            + ("pass" if ok else "FAIL") + "\n"
        )
    if not all_ok:
        sys.exit(1)


def _listing(group: tuple) -> str:
    """Help text for ``phiribbon GROUP``: each command under it, with the
    first sentence of its help."""
    lines = [f"usage: phiribbon {' '.join(group + ('COMMAND',))} [OPTIONS]", "",
             _DESCRIPTION, "", "commands:"]
    for words, (parser, _) in _COMMANDS.items():
        if words[: len(group)] == group:
            summary = " ".join(parser.description.partition(".")[0].split())
            lines.append(f"  {' '.join(words):25s} {summary}.")
    return "\n".join(lines) + "\n"


def main(argv=None):
    """Run one command and return its exit code: 0 on success, 2 for a usage
    or input error (reported as ``error: ...`` on stderr), 1 for an internal
    error.  The first one or two words of ``argv`` (default ``sys.argv[1:]``)
    pick the command; that command's parser alone reads the rest.  ``--help``
    prints to the current stdout and exits 0."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        n = 2 if tuple(argv[:2]) in _COMMANDS else 1
        entry = _COMMANDS.get(tuple(argv[:n]))
        if entry is None:  # no command: the top level or a group like "ribbon"
            group = tuple(argv[:1]) if any(w[:1] == tuple(argv[:1]) for w in _COMMANDS) else ()
            rest = argv[len(group):]
            if rest[:1] in (["-h"], ["--help"]):
                sys.stdout.write(_listing(group))
                return 0
            what = "missing command"
            if rest:
                what = f"no such command {' '.join(argv[: len(group) + 1])!r}"
            raise _UsageError(f"{what}\n\n{_listing(group)}")
        parser, handler = entry
        handler(**vars(parser.parse_args(argv[n:])))
        return 0
    except SystemExit as e:  # --help, and a failing suite
        return int(e.code or 0)
    except (_UsageError, PhiRibbonError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except Exception as e:  # internal failure
        sys.stderr.write(f"internal error: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
