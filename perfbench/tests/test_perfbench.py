"""Tests of the benchmark itself: metric names, span arithmetic, checkers.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def lib():
    return run.load_library()


@pytest.fixture(scope="module")
def scratch():
    """A directory inside the benchmark's ignored output directory."""
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        yield Path(tmp)


def _run(*argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *argv],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


# ---------------------------------------------------------------------------
# every workload prints every metric


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_prints_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    listed = BENCH["per_layer"] if trace == "1" else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    detail = json.loads(lines[-2])["detail"]
    assert detail["error_rate"] == 0.0
    assert detail["environment"]["seed"] == 3
    assert sum(detail["environment"]["queries_per_kind"].values()) == result["attempted"]
    if trace == "0":
        assert result["attempted"] >= run.MIN_QUERIES
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_library(scratch):
    bare = scratch / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "phi_region", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# ---------------------------------------------------------------------------
# arithmetic


def test_self_time_subtracts_the_union_of_children():
    # root [0, 10] with children [1, 4] (holding [2, 3]), [5, 6] and [5.5, 7],
    # plus a child that overruns its parent: [9, 12] is clipped to [9, 10]
    start = [0.0, 1.0, 2.0, 5.0, 5.5, 9.0]
    end = [10.0, 4.0, 3.0, 6.0, 7.0, 12.0]
    parent = [-1, 0, 1, 0, 0, 0]
    self_t = spans.self_times(start, end, parent)
    assert self_t == pytest.approx([10 - 3 - 2 - 1, 3 - 1, 1, 1, 1.5, 3])


def test_tracer_records_nesting_and_restores_the_library(lib):
    tracer = spans.Tracer()
    original = lib.ribbon_mc.mc_membership
    d = lib.dist.canonical("dsbs", lam=0.5)
    tracer.install(lib)
    tracer.query_id = 7
    lib.ribbon_mc.mc_boundary_trace(d, 2)
    tracer.uninstall()
    assert lib.ribbon_mc.mc_membership is original
    names = [tracer.span_name(i) for i in range(len(tracer))]
    assert names[0] == "ribbon_mc.mc_boundary_trace"
    assert names.count("ribbon_mc.mc_membership") == 2 * 41
    inner = names.index("ribbon_mc.mc_membership")
    assert spans.has_ancestor(tracer, inner, {"ribbon_mc.mc_boundary_trace"})
    assert set(tracer.query) == {7}
    assert all(s <= e for s, e in zip(tracer.start, tracer.end))


def test_p90_needs_ten_samples_beyond_it():
    assert run.percentile(list(range(1, run.MIN_QUERIES + 1)), 0.9) == 90
    assert run.percentile(list(range(1, 100)), 0.9) is None
    assert run.percentile(list(range(1, 21)), 0.5) == 10
    assert run.percentile([], 0.5) is None


def test_schedule_keeps_every_prefix_in_proportion():
    weights = {"a": 12, "b": 6, "c": 2}
    cycle = workloads.schedule(weights)
    assert len(cycle) == 20
    for n in range(1, 3 * len(cycle)):
        prefix = [cycle[i % len(cycle)] for i in range(n)]
        for kind, w in weights.items():
            assert abs(prefix.count(kind) - n * w / 20) <= 1


# ---------------------------------------------------------------------------
# checkers catch wrong answers


def _first(wl, kind):
    return next(q for q in wl.queries if q.kind == kind)


@pytest.fixture(scope="module")
def quadratic(lib, scratch):
    return workloads.build_quadratic(lib, 5, scratch, n=200)


def test_quadratic_checker_catches_wrong_answers(lib, quadratic):
    for kind in ("check_gram", "check_fresh"):
        for q in (x for x in quadratic.queries if x.kind == kind):
            res = q.call()
            assert checks.check_quadratic(lib, q, res).error is None
            if abs(res.min_eigenvalue) < 1e-3:
                continue
            flipped = dataclasses.replace(res, verdict=not res.verdict)
            assert checks.check_quadratic(lib, q, flipped).error
            if not res.verdict:
                assert checks.check_quadratic(lib, q, dataclasses.replace(res, gap=0.1)).error

    q = _first(quadratic, "gaussian")
    ans = q.call()
    assert checks.check_quadratic(lib, q, ans).error is None
    exact = lib.ribbon_mc.mc_membership(q.args["d"], q.args["lam"])
    if abs(exact.min_eigenvalue) > 1e-3:
        assert checks.check_quadratic(lib, q, not ans).error

    q = _first(quadratic, "boundary_trace")
    trace = q.call()
    assert checks.check_quadratic(lib, q, trace).error is None
    j = next(i for i, (_, member) in enumerate(trace) if not member)
    bent = list(trace)
    bent[j] = (trace[j][0] * 0.9, False)
    assert checks.check_quadratic(lib, q, bent).error

    q = _first(quadratic, "cli_check")
    code, out = q.call()
    assert checks.check_quadratic(lib, q, (code, out)).error is None
    obj = json.loads(out)
    obj["member"] = not obj["member"]
    assert checks.check_quadratic(lib, q, (code, json.dumps(obj))).error
    assert checks.check_quadratic(lib, q, (2, out)).error

    q = _first(quadratic, "cli_trace")
    code, out = q.call()
    assert checks.check_quadratic(lib, q, (code, out)).error is None
    rows = out.splitlines()
    last = rows[-1].rsplit(",", 1)
    rows[-1] = f"{last[0]},{1 - int(last[1])}"
    assert checks.check_quadratic(lib, q, (code, "\n".join(rows) + "\n")).error
    assert checks.check_quadratic(lib, q, (code, "\n".join(rows[:-1]) + "\n")).error


@pytest.fixture(scope="module")
def phi_region(lib, scratch):
    return workloads.build_phi_region(lib, 5, scratch, n=sum(workloads.P_WEIGHTS.values()))


def test_eta_checker_catches_wrong_answers(lib, phi_region):
    q = _first(phi_region, "maxcorr")
    rho = q.call()
    assert checks.check_phi_region(lib, q, rho).error is None
    assert checks.check_phi_region(lib, q, rho + 1e-6).error

    for kind in ("eta_dsbs", "eta_sumiid", "eta_random"):
        q = _first(phi_region, kind)
        est = q.call()
        assert checks.check_phi_region(lib, q, est).error is None
        assert checks.check_phi_region(lib, q, dataclasses.replace(est, value=est.value - 0.01)).error

    # on a ternary X the ratio depends on the witness's direction
    q = next(x for x in phi_region.queries if x.kind == "eta_random"
             and x.args["phi"] == "power:1.5" and x.args["d"].alphabet_sizes[0] == 3)
    est = q.call()
    assert checks.check_phi_region(lib, q, est).error is None
    # the entropy floor in the tolerance leaves it sharp at ordinary witnesses
    nudged = dataclasses.replace(est, value=est.value * (1 + 1e-7))
    assert checks.check_phi_region(lib, q, nudged).error
    w = est.witness
    tilted = np.clip(w.values + 0.2 * np.arange(len(w.values)), 0.0, 1.0)
    assert checks.check_phi_region(lib, q, dataclasses.replace(
        est, witness=dataclasses.replace(w, values=tilted))).error


def test_phi_region_checker_catches_wrong_answers(lib, phi_region):
    violated = holds = 0
    for q in (x for x in phi_region.queries if x.kind in ("violated", "holds")):
        res = q.call()
        outcome = checks.check_phi_region(lib, q, res)
        assert outcome.error is None
        if res.violated:
            violated += 1
            # a witness moved to a constant function certifies nothing
            flat = dataclasses.replace(res.witness, values=np.full_like(res.witness.values, 0.5))
            assert checks.check_phi_region(lib, q, dataclasses.replace(res, witness=flat)).error
            # a flipped verdict on a proven violation is a miss, not an error
            if outcome.proven:
                miss = checks.check_phi_region(
                    lib, q, dataclasses.replace(res, verdict="holds_up_to_search", witness=None)
                )
                assert miss.error is None and miss.missed == 1
        else:
            holds += 1
            flipped = dataclasses.replace(res, verdict="violated", witness=None)
            assert checks.check_phi_region(lib, q, flipped).error
    assert violated and holds

    q = _first(phi_region, "oracle")
    gap, f = q.call()
    assert checks.check_phi_region(lib, q, (gap, f)).error is None
    assert checks.check_phi_region(lib, q, (gap - 1e-3, f)).error

    q = _first(phi_region, "alpha_pair")
    rp, rs = q.call()
    assert checks.check_phi_region(lib, q, (rp, rs)).error is None


def test_raised_queries_count_as_failures(lib, phi_region):
    bad = workloads.Query("oracle", lambda: 1 / 0, phi_region.queries[0].args)
    wl = workloads.Workload("phi_region", [bad], trace_queries=1)
    latencies, answers, _ = run.drive(wl.queries, 0, 3)
    assert len(latencies) == 3 and len(answers) == 1
    failed, _, _, reasons = run.check_answers(lib, wl, answers, 3)
    assert failed == 3 and "ZeroDivisionError" in next(iter(reasons))


def test_phi_not_class_f_warning_is_not_a_failure(lib, phi_region):
    quartic = lib.phi.PhiSpec(
        "quartic", (-1.0, 1.0), eval=lambda t: t**4,
        d1=lambda t: 4 * t**3, d2=lambda t: 12 * t**2,
        d3=lambda t: 24 * t, d4=lambda t: np.full_like(np.asarray(t, float), 24.0),
    )
    d = lib.dist.canonical("dsbs", lam=0.5)
    opts = lib.correlation.SearchOpts(restarts=2, max_iters=5)
    q = workloads.Query(
        "holds", lambda: lib.ribbon_phi.phi_ribbon_membership(d, quartic, [0.1, 0.1], opts)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run.load_library()  # installs the run's filter for PhiNotClassF
        _, answers, _ = run.drive([q], 0, 1)
    assert quartic.is_class_F is False
    assert not isinstance(answers[0], run.Failed)
