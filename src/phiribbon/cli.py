"""Command-line front end: JSON/CSV I/O around the library operations."""

from __future__ import annotations

import csv
import io
import json
import math
import sys

import click
import numpy as np

from . import correlation, oracle, ribbon_mc, ribbon_phi
from .dist import (
    JointDist,
    canonical,
    channel_from_json_dict,
    dist_from_json_dict,
)
from .errors import PhiRibbonError
from .phi import binent, parse_phi, xlogx
from .correlation import SearchOpts


def _round12(x):
    """Normalize every float to 12 significant digits for stable diffs."""
    if isinstance(x, float):
        if math.isfinite(x):
            return float(f"{x:.12g}")
        return x
    if isinstance(x, dict):
        return {k: _round12(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_round12(v) for v in x]
    if isinstance(x, np.floating):
        return _round12(float(x))
    if isinstance(x, np.ndarray):
        return _round12(x.tolist())
    return x


# Every echo names its stream: with none, click caches a wrapper per stream
# object and never frees a redirected StringIO, so in-process runs leak.
def _emit_json(obj):
    click.echo(json.dumps(_round12(obj), allow_nan=False), file=sys.stdout)


def _show_help(ctx, param, value):
    if value and not ctx.resilient_parsing:
        click.echo(ctx.get_help(), color=ctx.color, file=sys.stdout)
        ctx.exit()


class _Command(click.Command):
    """A command whose --help echo names its stream (click's own does not)."""

    def get_help_option(self, ctx):
        opt = super().get_help_option(ctx)
        if opt is not None:
            opt.callback = _show_help
        return opt


class _Group(_Command, click.Group):
    command_class = _Command
    group_class = type  # subgroups are _Group too


def _load_json(path: str, what: str):
    """The JSON object in a UTF-8 file; a file that cannot be opened, is not
    UTF-8 or is not JSON is an input error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as e:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise click.UsageError(f"cannot read {what} {path}: {e}")


def _load_dist(path: str) -> JointDist:
    return dist_from_json_dict(_load_json(path, "distribution file"))


def _parse_lambda(text: str, k: int) -> list[float]:
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError:
        raise click.UsageError(f"bad --lambda value {text!r}")
    if len(vals) != k:
        raise click.UsageError(f"--lambda needs {k} comma-separated entries")
    return vals


def _write_rows(rows, header, out):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([f"{v:.12g}" if isinstance(v, float) else v for v in row])
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(buf.getvalue())
        except OSError as e:  # an unwritable --out path is an input error, like an unreadable input
            raise click.UsageError(f"cannot write {out}: {e}")
    else:
        click.echo(buf.getvalue(), nl=False, file=sys.stdout)


@click.group(cls=_Group)
def cli():
    """Correlation measures and entropy-inequality regions for discrete
    multivariate distributions."""


@cli.command()
@click.option("--dist", "dist_path", required=True)
def rho(dist_path):
    """Maximal correlation of a bipartite distribution."""
    d = _load_dist(dist_path)
    _emit_json({"rho": correlation.maximal_correlation(d)})


@cli.command()
@click.option("--dist", "dist_path", required=True)
@click.option("--phi", "phi_name", required=True)
@click.option("--restarts", default=32, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
def eta(dist_path, phi_name, restarts, seed):
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


@cli.command()
@click.option("--dist", "dist_path", required=True)
def gram(dist_path):
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


@cli.group()
def ribbon():
    """Quadratic-case region queries (exact PSD tests)."""


@ribbon.command("check")
@click.option("--dist", "dist_path", required=True)
@click.option("--lambda", "lam_text", required=True)
@click.option("--kind", type=click.Choice(ribbon_mc.KINDS), default="mc")
def ribbon_check(dist_path, lam_text, kind):
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


@ribbon.command("trace")
@click.option("--dist", "dist_path", required=True)
@click.option(
    "--grid", "grid_n", type=click.IntRange(min=1), default=50, show_default=True
)
@click.option("--kind", type=click.Choice(ribbon_mc.KINDS), default="mc")
@click.option("--out", "out_path", default=None)
def ribbon_trace(dist_path, grid_n, kind, out_path):
    """Grid sweep over lambda points; CSV of memberships."""
    d = _load_dist(dist_path)
    axes = [np.linspace(0, 1, grid_n)] * d.k
    lams = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, d.k)
    member = ribbon_mc.membership_verdicts(d, kind, lams)
    rows = [[*map(float, lam), int(m)] for lam, m in zip(lams, member)]
    header = [f"lambda_{i+1}" for i in range(d.k)] + ["member"]
    _write_rows(rows, header, out_path)


@cli.group(name="phi-ribbon")
def phi_ribbon():
    """Search-based region queries for general convex Phi."""


@phi_ribbon.command("check")
@click.option("--dist", "dist_path", required=True)
@click.option("--phi", "phi_name", required=True)
@click.option("--lambda", "lam_text", required=True)
@click.option("--normalized", is_flag=True)
@click.option("--restarts", default=64, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
def phi_ribbon_check(dist_path, phi_name, lam_text, normalized, restarts, seed):
    """Search for a witness f with a negative gap.  A "violated" verdict
    reports the gap of the first witness found below the search's exit
    threshold, re-checked from scratch, not the deepest gap reachable; a
    "holds_up_to_search" verdict reports the least gap the search reached."""
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
    out = {"phi": phi.name, "lambda": lam, "verdict": res.verdict, "gap": res.gap}
    if res.witness is not None:
        out["witness"] = list(res.witness.values.ravel())
    _emit_json(out)


@phi_ribbon.command("trace")
@click.option("--dist", "dist_path", required=True)
@click.option("--phi", "phi_name", required=True)
@click.option(
    "--directions", type=click.IntRange(min=1), default=32, show_default=True,
    help="Rays to bisect. For k = 3 the rays are the m(m+1)/2 points of a simplex "
    "lattice with m = max(2, ceil(sqrt(DIRECTIONS))): 32 gives 21 rays.",
)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", "out_path", default=None)
def phi_ribbon_trace(dist_path, phi_name, directions, seed, out_path):
    d = _load_dist(dist_path)
    phi = parse_phi(phi_name)
    trace = ribbon_phi.ribbon_boundary_trace(
        d, phi, directions, SearchOpts(restarts=12, max_iters=200, seed=seed)
    )
    rows = []
    for idx, (lam, verdict) in enumerate(trace):
        rows.append([idx, *map(float, lam), verdict])
    header = ["direction_index"] + [f"lambda_{i+1}" for i in range(d.k)] + ["verdict"]
    _write_rows(rows, header, out_path)


@phi_ribbon.command("channel-test")
@click.option("--dist", "dist_path", required=True)
@click.option("--phi", "phi_name", required=True)
@click.option("--channel", "channel_path", required=True)
@click.option("--lambda", "lam_text", required=True)
def phi_ribbon_channel_test(dist_path, phi_name, channel_path, lam_text):
    d = _load_dist(dist_path)
    phi = parse_phi(phi_name)
    ch = channel_from_json_dict(_load_json(channel_path, "channel file"))
    lam = _parse_lambda(lam_text, d.k)
    gap = ribbon_phi.i_phi_channel_test(d, phi, lam, ch)
    _emit_json(
        {"phi": phi.name, "lambda": lam, "gap": gap, "violates": bool(gap < -1e-9)}
    )


@cli.group()
def gaussian():
    """Region queries that only need a correlation matrix."""


@gaussian.command("check")
@click.option("--R", "r_path", required=True)
@click.option("--lambda", "lam_text", required=True)
def gaussian_check(r_path, lam_text):
    obj = _load_json(r_path, "correlation matrix")
    try:
        R = np.asarray(obj["matrix"], dtype=float)
    except (KeyError, TypeError, ValueError) as e:
        raise click.UsageError(f"cannot read correlation matrix {r_path}: {e}")
    if R.ndim != 2:
        raise click.UsageError(f"correlation matrix in {r_path} must be 2-D")
    lam = _parse_lambda(lam_text, R.shape[0])
    member = ribbon_mc.gaussian_mc_membership(R, lam)
    _emit_json({"lambda": lam, "member": member})


@cli.group(name="oracle")
def oracle_group():
    """Brute-force evaluators for tiny instances."""


@oracle_group.command("min-gap")
@click.option("--dist", "dist_path", required=True)
@click.option("--phi", "phi_name", required=True)
@click.option("--lambda", "lam_text", required=True)
@click.option("--resolution", default=21, show_default=True)
def oracle_min_gap(dist_path, phi_name, lam_text, resolution):
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
        raise click.UsageError(f"unknown suite {name!r}")
    return rows


@cli.command()
@click.argument("name")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
def suite(name, seed):
    """Run a named reproduction bundle and print a pass/fail table."""
    rows = _suite_rows(name, seed)
    all_ok = True
    header = f"{'case':40s} {'measured':>16s} {'expected':>16s}  status"
    click.echo(header, file=sys.stdout)
    for case, measured, expected, tol in rows:
        if tol is None:
            ok = measured == expected
        else:
            ok = abs(measured - expected) <= tol
        all_ok &= ok
        click.echo(
            f"{case:40s} {measured:16.10g} {expected:16.10g}  "
            + ("pass" if ok else "FAIL"),
            file=sys.stdout,
        )
    if not all_ok:
        sys.exit(1)


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as e:
        return e.exit_code
    except SystemExit as e:
        return int(e.code or 0)
    except click.UsageError as e:
        click.echo(f"error: {e.format_message()}", file=sys.stderr)
        return 2
    except PhiRibbonError as e:
        click.echo(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # internal failure
        click.echo(f"internal error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
