"""Replay one seeded query workload against phiribbon and print its metrics.

    python3 perfbench/run.py --workload quadratic --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Load is a closed loop with one caller: the next query starts when the
previous one returns.  With ``--trace 0`` the run measures for ``--seconds``
(and at least ``MIN_QUERIES`` queries) and reports the end-to-end metrics.
With ``--trace 1`` it replays a fixed prefix of the same stream twice,
untraced and then traced, and reports the per-layer metrics.  Answers are
checked after the timed interval.  The last line of standard output is the
result; the line before it holds the details (environment, sample and kind
counts, error and miss rates).
"""

from __future__ import annotations

import time

_START = time.perf_counter()  # set-up time counts from here

import os  # noqa: E402

# every matrix is at most 27x27: one BLAS thread, fixed before numpy loads
BLAS_THREADS = {
    var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402
from array import array  # noqa: E402
from collections import Counter  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MIN_QUERIES = 100  # p90 needs at least 10 samples beyond it
SETUP_REPEATS = 5  # set-ups per run: this process plus SETUP_REPEATS - 1 children
CHILD_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "query_ms_p50": "ms",
    "query_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


class LibraryMissing(Exception):
    pass


def load_library():
    """Import phiribbon's modules from ``src/`` of this checkout."""
    if not (SRC / "phiribbon").is_dir():
        raise LibraryMissing(f"no phiribbon sources under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        mods = {m: importlib.import_module(f"phiribbon.{m}") for m in spans.MODULES + ("errors",)}
    except ImportError as e:
        raise LibraryMissing(f"cannot import phiribbon: {e}") from e
    warnings.simplefilter("ignore", mods["errors"].PhiNotClassF)
    return type("Library", (), mods)


# ---------------------------------------------------------------------------
# statistics


def percentile(samples, q: float, beyond: int = 10):
    """Nearest-rank percentile, or None unless ``beyond`` samples lie above it."""
    n = len(samples)
    rank = math.ceil(q * n)
    if n == 0 or n - rank < beyond:
        return None
    return sorted(samples)[max(rank, 1) - 1]


def median(values):
    """Median, without importing ``statistics`` into the measured process."""
    s = sorted(values)
    m = len(s) // 2
    return s[m] if len(s) % 2 else 0.5 * (s[m - 1] + s[m])


# ---------------------------------------------------------------------------
# running queries


def setup(workload: str, seed: int, workdir: Path, tracer=None):
    """Import, generate the seeded inputs and warm up each query kind once."""
    lib = load_library()
    if tracer is not None:
        tracer.install(lib)
    wl = workloads.BUILDERS[workload](lib, seed, workdir)
    for q in wl.warmups():
        q.call()
    if tracer is not None:
        tracer.uninstall()
    return lib, wl, time.perf_counter() - _START


def child_setups(args, n: int) -> list[float]:
    """Set-up time of ``n`` fresh processes, run one after another."""
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


class Failed:
    """Stands in for the answer of a query that raised."""

    def __init__(self, exc: BaseException):
        self.reason = f"{type(exc).__name__}: {exc}"


def drive(queries, seconds: float, min_queries: int, tracer=None):
    """Closed loop over the stream, wrapping around if it runs out.

    Stops after ``seconds`` once ``min_queries`` are done; with ``seconds``
    of 0 it runs exactly ``min_queries``.  Returns per-query latencies in
    seconds, the answers of the first pass over the stream, and wall time.
    """
    clock = time.perf_counter
    latencies, answers = array("d"), []
    n = len(queries)
    start = clock()
    deadline = start + seconds
    i = 0
    while True:
        q = queries[i % n]
        if tracer is not None:
            tracer.query_id = i
        t = clock()
        try:
            ans = q.call()
        except Exception as e:  # a failed query is counted, not fatal
            ans = Failed(e)
        now = clock()
        latencies.append(now - t)
        if i < n:
            answers.append(ans)
        i += 1
        if i >= min_queries and now >= deadline:
            break
    return latencies, answers, now - start


def check_answers(lib, wl, answers, attempted: int):
    """Run the workload's checker; failures count once per attempt they stand for."""
    checker = checks.CHECKERS[wl.name]
    n = len(wl.queries)
    failed = proven = missed = 0
    reasons = Counter()
    for j, ans in enumerate(answers):
        repeats = len(range(j, attempted, n))  # this query's attempts in the run
        if isinstance(ans, Failed):
            outcome = checks.Outcome(error=ans.reason)
        else:
            try:
                outcome = checker(lib, wl.queries[j], ans)
            except Exception as e:  # a checker crash is a wrong answer too
                outcome = checks.Outcome(error=f"checker raised {type(e).__name__}: {e}")
        if outcome.error:
            failed += repeats
            reasons[f"{wl.queries[j].kind}: {outcome.error}"] += repeats
        proven += outcome.proven * repeats
        missed += outcome.missed * repeats
    return failed, proven, missed, reasons


def kind_counts(wl, attempted: int) -> dict:
    n = len(wl.queries)
    counts = Counter()
    for j in range(min(n, attempted)):
        counts[wl.queries[j].kind] += len(range(j, attempted, n))
    return dict(sorted(counts.items()))


# ---------------------------------------------------------------------------
# environment


def git_sha():
    """HEAD of the checkout's git metadata, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, counts: dict) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": metadata.version("click"),
        "blas_threads": BLAS_THREADS,
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "queries_per_kind": counts,
    }


# ---------------------------------------------------------------------------
# the two kinds of run


def end_to_end(args, workdir: Path):
    lib, wl, setup_s = setup(args.workload, args.seed, workdir)
    setups = [setup_s] + child_setups(args, SETUP_REPEATS - 1)
    latencies, answers, wall = drive(wl.queries, args.seconds, MIN_QUERIES)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted = len(latencies)
    t = time.perf_counter()
    failed, proven, missed, reasons = check_answers(lib, wl, answers, attempted)
    check_s = time.perf_counter() - t
    ms = [x * 1e3 for x in latencies]
    values = {
        "setup_s": median(setups),
        "queries_per_s": attempted / wall,
        "query_ms_p50": percentile(ms, 0.5),
        "query_ms_p90": percentile(ms, 0.9),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    detail = {
        "environment": environment(args, kind_counts(wl, attempted)),
        "samples": attempted,
        "distinct_queries_checked": len(answers),
        "wall_s": wall,
        "check_s": check_s,
        "setup_samples_s": setups,
        "error_rate": failed / attempted,
        "miss_rate": (missed / proven) if proven else 0.0,
        "miss_base": proven,
        "misses": missed,
        "failures": dict(reasons.most_common(10)),
    }
    return values, END_TO_END, attempted, failed, detail


def traced(args, workdir: Path):
    tracer = spans.Tracer()
    lib, wl, _ = setup(args.workload, args.seed, workdir, tracer)
    n = wl.trace_queries
    _, _, plain_wall = drive(wl.queries, 0, n)
    tracer.install(lib)
    try:
        _, answers, traced_wall = drive(wl.queries, 0, n, tracer)
    finally:
        tracer.uninstall()
    failed, proven, missed, reasons = check_answers(lib, wl, answers, n)
    values, units = layer_metrics(tracer, answers, n)
    values["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    units["trace.overhead_frac"] = "fraction"
    spans_path = OUT / f"{args.workload}.spans.jsonl"
    tracer.write_jsonl(spans_path)
    detail = {
        "environment": environment(args, kind_counts(wl, n)),
        "traced_queries": n,
        "spans": len(tracer),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "error_rate": failed / n,
        "miss_rate": (missed / proven) if proven else 0.0,
        "miss_base": proven,
        "failures": dict(reasons.most_common(10)),
    }
    return values, units, n, failed, detail


# per-layer metric name -> span name; ".calls" counts spans, ".self_ms" sums self time
LAYER_CALLS = (
    "dist.make_joint", "dist.marginal", "ribbon_mc.gram_matrix",
    "ribbon_mc.mc_membership", "ribbon_mc.mc_boundary_trace", "cli.main",
    "phi.PhiSpec.safe_eval", "phi.PhiSpec.deriv", "phi.check_class_F",
    "phi.phi_entropy", "phi.cond_phi_entropy", "correlation.eta_phi",
    "ribbon_phi.phi_ribbon_membership", "ribbon_phi.alpha_equivalent_membership",
    "ribbon_phi.definition_gap", "oracle.brute_min_objective",
)
LAYER_SELF = (
    "dist.make_joint", "dist.marginal", "ribbon_mc.gram_matrix",
    "ribbon_mc.mc_membership", "ribbon_mc.mc_membership_sprime",
    "ribbon_mc.tilde_membership", "ribbon_mc.mc_boundary_trace", "cli.main",
    "phi.PhiSpec.safe_eval", "phi.PhiSpec.deriv", "phi.check_class_F",
    "phi.cond_phi_entropy", "correlation.eta_phi", "correlation.mc_witness",
    "correlation.maximal_correlation", "ribbon_phi.phi_ribbon_membership",
    "ribbon_phi.normalized_phi_ribbon_membership", "ribbon_phi.definition_gap",
    "oracle.brute_min_objective",
)
LAYER_TOTAL = ("ribbon_phi.alpha_equivalent_membership",)
CHECK_SPANS = {"ribbon_mc.mc_membership", "ribbon_mc.mc_membership_sprime",
               "ribbon_mc.tilde_membership"}
EVAL_SPANS = {"phi.PhiSpec.safe_eval", "phi.PhiSpec.deriv"}


def layer_metrics(tracer, answers, queries: int):
    """Per-layer counts and times over the traced set-up and queries.

    ``phi.evals_per_query`` counts Phi evaluations inside queries only.
    """
    self_s = spans.self_times(tracer.start, tracer.end, tracer.parent)
    calls, self_ms, total_ms = Counter(), Counter(), Counter()
    mc_in_trace = checks_in_cli = query_evals = 0
    for i in range(len(tracer)):
        name = tracer.span_name(i)
        calls[name] += 1
        if name in EVAL_SPANS and tracer.query[i] >= 0:
            query_evals += 1
        self_ms[name] += self_s[i] * 1e3
        total_ms[name] += (tracer.end[i] - tracer.start[i]) * 1e3
        if name == "ribbon_mc.mc_membership" and spans.has_ancestor(
            tracer, i, {"ribbon_mc.mc_boundary_trace"}
        ):
            mc_in_trace += 1
        if name in CHECK_SPANS and spans.has_ancestor(tracer, i, {"cli.main"}):
            checks_in_cli += 1
    values, units = {}, {}
    for name in LAYER_CALLS:
        values[f"{name}.calls"], units[f"{name}.calls"] = calls[name], "count"
    for name in LAYER_SELF:
        values[f"{name}.self_ms"], units[f"{name}.self_ms"] = self_ms[name], "ms"
    for name in LAYER_TOTAL:
        values[f"{name}.total_ms"], units[f"{name}.total_ms"] = total_ms[name], "ms"
    traces = calls["ribbon_mc.mc_boundary_trace"]
    invocations = calls["cli.main"]
    gaps = calls["ribbon_phi.definition_gap"]
    violated = sum(
        v.violated
        for ans in answers
        for v in (ans if isinstance(ans, tuple) else (ans,))
        if hasattr(v, "violated")
    )
    derived = {
        "ribbon_mc.mc_membership.calls_per_trace": (
            mc_in_trace / traces if traces else 0.0, "calls/trace"),
        "cli.mc_calls_per_invocation": (
            checks_in_cli / invocations if invocations else 0.0, "calls/invocation"),
        "phi.evals_per_query": (query_evals / queries, "evals/query"),
        "ribbon_phi.certify_hit_ratio": (violated / gaps if gaps else 0.0, "fraction"),
    }
    for name, (value, unit) in derived.items():
        values[name], units[name] = value, unit
    return values, units


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up and print it (used for set-up repeats)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    OUT.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            if args.setup_only:
                _, _, setup_s = setup(args.workload, args.seed, Path(tmp))
                print(json.dumps({"setup_s": setup_s}))
                return 0
            run = traced if args.trace else end_to_end
            values, units, attempted, failed, detail = run(args, Path(tmp))
    except LibraryMissing as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
