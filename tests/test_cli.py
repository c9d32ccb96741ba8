"""End-to-end tests of the command-line interface."""

import contextlib
import csv
import gc
import io
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phiribbon.cli
from phiribbon.cli import main
from phiribbon.correlation import SearchOpts
from phiribbon.dist import canonical, dist_to_json, make_joint
from phiribbon.phi import parse_phi
from phiribbon.ribbon_mc import membership_verdicts
from phiribbon.ribbon_phi import ribbon_boundary_trace

# every command that runs: its words before the options
_LEAVES = [
    ["rho"], ["eta"], ["gram"], ["ribbon", "check"], ["ribbon", "trace"],
    ["phi-ribbon", "check"], ["phi-ribbon", "trace"], ["phi-ribbon", "channel-test"],
    ["gaussian", "check"], ["oracle", "min-gap"], ["suite"],
]


@pytest.fixture
def dsbs05(tmp_path):
    path = tmp_path / "dsbs05.json"
    path.write_text(dist_to_json(canonical("dsbs", lam=0.5)))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_rho_output(dsbs05, capsys):
    code, out = run_cli(capsys, "rho", "--dist", dsbs05)
    assert code == 0
    assert json.loads(out) == {"rho": 0.5}


def test_rho_missing_file_is_input_error(dsbs05, tmp_path, capsys):
    # each JSON input (a distribution, a channel, a correlation matrix) that is
    # missing or not UTF-8 is an input error
    garbled = tmp_path / "garbled.json"
    garbled.write_bytes(b"\xff\xfe{\x00}\x00")
    for bad in ("/nonexistent.json", str(garbled)):
        for argv in (
            ["rho", "--dist", bad],
            ["phi-ribbon", "channel-test", "--dist", dsbs05, "--phi", "xlogx:0,64",
             "--channel", bad, "--lambda", "1,1"],
            ["gaussian", "check", "--R", bad, "--lambda", "0.5,0.5"],
        ):
            code, out = run_cli(capsys, *argv)
            assert code == 2, argv
            assert out == ""


@pytest.mark.parametrize("group", ["ribbon", "phi-ribbon"])
def test_trace_to_an_unwritable_path_is_input_error(dsbs05, tmp_path, capsys, group):
    out_path = str(tmp_path / "no-such-dir" / "x.csv")
    argv = ["ribbon", "trace", "--dist", dsbs05, "--grid", "3", "--out", out_path]
    if group == "phi-ribbon":
        argv = ["phi-ribbon", "trace", "--dist", dsbs05, "--phi", "square", "--directions", "2",
                "--out", out_path]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_bad_distribution_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for probs in ("[0.9, 0.9, 0.9, 0.9]", "[NaN, 0.5, 0.25, 0.25]"):
        path.write_text('{"alphabet_sizes": [2, 2], "probs": %s}' % probs)
        code, _ = run_cli(capsys, "rho", "--dist", str(path))
        assert code == 2, probs
    # alphabet sizes that are not integers, though int() would read each one
    for sizes in ("[2.7, 2]", "[true, 4]", '["2", 2]'):
        path.write_text('{"alphabet_sizes": %s, "probs": [0.25, 0.25, 0.25, 0.25]}' % sizes)
        for command in ("rho", "gram"):
            code, _ = run_cli(capsys, command, "--dist", str(path))
            assert code == 2, (command, sizes)


def test_unknown_flag_is_input_error(dsbs05, capsys):
    code, _ = run_cli(capsys, "rho", "--dist", dsbs05, "--bogus", "1")
    assert code == 2


def test_eta_takes_one_phi(dsbs05, capsys):
    # eta_Phi has one Phi: there is no second one for the numerator
    code = main(["eta", "--dist", dsbs05, "--phi", "xlogx", "--psi", "binent"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")
    # malformed flag values: phi names and search options
    for argv in (
        ["--phi", "power:1.2.3"],
        ["--phi", "xlogx:e,e"],
        ["--phi", "square", "--seed", "-1"],
    ):
        code, out = run_cli(capsys, "eta", "--dist", dsbs05, *argv)
        assert code == 2, argv
        assert out == ""
    for argv in (
        ["suite", "tilde", "--seed", "-1"],
        ["phi-ribbon", "check", "--dist", dsbs05, "--phi", "square", "--lambda", "0.5,0.5",
         "--seed", "-1"],
        ["phi-ribbon", "trace", "--dist", dsbs05, "--phi", "square", "--directions", "0"],
        ["phi-ribbon", "trace", "--dist", dsbs05, "--phi", "square", "--directions", "-3"],
        # more rays than any machine could hold: refused before allocating
        ["phi-ribbon", "trace", "--dist", dsbs05, "--phi", "square", "--directions",
         "100000000000"],
        ["phi-ribbon", "trace", "--dist", dsbs05, "--phi", "square", "--seed", "-1"],
        # more restarts than any machine could hold: refused before allocating
        ["eta", "--dist", dsbs05, "--phi", "xlogx", "--restarts", str(10**18)],
        ["phi-ribbon", "check", "--dist", dsbs05, "--phi", "binent", "--lambda", "0.5,0.5",
         "--restarts", str(10**18)],
    ):
        code, out = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""


def test_eta_output_schema(dsbs05, capsys):
    code, out = run_cli(
        capsys, "eta", "--dist", dsbs05, "--phi", "square", "--restarts", "8"
    )
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"value", "lower_bound_rho2", "witness", "converged"}
    assert obj["lower_bound_rho2"] == pytest.approx(0.25)
    assert obj["value"] == pytest.approx(0.25, abs=1e-6)


def test_eta_deterministic_given_seed(dsbs05, capsys):
    _, out1 = run_cli(
        capsys, "eta", "--dist", dsbs05, "--phi", "binent", "--seed", "7",
        "--restarts", "6",
    )
    _, out2 = run_cli(
        capsys, "eta", "--dist", dsbs05, "--phi", "binent", "--seed", "7",
        "--restarts", "6",
    )
    assert out1 == out2


def test_gram_output(dsbs05, capsys):
    code, out = run_cli(capsys, "gram", "--dist", dsbs05)
    assert code == 0
    obj = json.loads(out)
    assert obj["block_dims"] == [1, 1]
    assert obj["M"] == [[1.0, 0.5], [0.5, 1.0]]
    assert obj["eigenvalues"] == [0.5, 1.5]


def test_ribbon_check_member_and_witness(dsbs05, capsys):
    code, out = run_cli(
        capsys, "ribbon", "check", "--dist", dsbs05, "--lambda", "0.5,0.5"
    )
    assert code == 0
    assert json.loads(out)["member"] is True
    code, out = run_cli(
        capsys, "ribbon", "check", "--dist", dsbs05, "--lambda", "0.9,0.9"
    )
    obj = json.loads(out)
    assert obj["member"] is False
    assert obj["gap"] < 0
    assert "witness" in obj


def test_ribbon_check_bad_lambda(dsbs05, capsys):
    for text in ("0.5", "nan,0.5", "0.5,inf"):
        code, out = run_cli(
            capsys, "ribbon", "check", "--dist", dsbs05, "--lambda", text
        )
        assert code == 2, text
        assert out == ""


def test_ribbon_trace_row_count(dsbs05, capsys, tmp_path):
    out_path = tmp_path / "trace.csv"
    code, _ = run_cli(
        capsys, "ribbon", "trace", "--dist", dsbs05, "--grid", "10",
        "--out", str(out_path),
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out_path.read_text())))
    assert rows[0] == ["lambda_1", "lambda_2", "member"]
    assert len(rows) == 101


def test_ribbon_trace_rejects_bad_grid(dsbs05, capsys):
    # 10^6 per axis is 10^12 lambda points, refused before allocating
    for grid in ("0", "-1", "1000000"):
        code, out = run_cli(
            capsys, "ribbon", "trace", "--dist", dsbs05, "--grid", grid
        )
        assert code == 2, grid
        assert out == ""


@pytest.mark.parametrize("kind", ["mc", "sprime", "tilde"])
def test_ribbon_trace_rows_match_check(dsbs05, capsys, kind):
    code, out = run_cli(
        capsys, "ribbon", "trace", "--dist", dsbs05, "--grid", "5", "--kind", kind
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert len(rows) == 25
    for *lam, member in rows:
        _, checked = run_cli(
            capsys, "ribbon", "check", "--dist", dsbs05, "--lambda", ",".join(lam),
            "--kind", kind,
        )
        assert int(member) == int(json.loads(checked)["member"]), (kind, lam)


def _reject_constant(name):
    raise ValueError(f"non-finite JSON number {name}")


@pytest.mark.parametrize("kind", ["mc", "sprime", "tilde"])
def test_ribbon_check_output_is_strict_json(tmp_path, dsbs05, capsys, kind):
    # every coordinate constant: no test matrix, min eigenvalue +inf
    path = tmp_path / "point.json"
    path.write_text(dist_to_json(make_joint([2, 2], [1, 0, 0, 0])))
    code, out = run_cli(
        capsys, "ribbon", "check", "--dist", str(path), "--lambda", "0.5,0.5",
        "--kind", kind,
    )
    assert code == 0
    obj = json.loads(out, parse_constant=_reject_constant)
    assert obj["member"] is True and obj["min_eigenvalue"] is None
    # a subnormal lambda entry, whose reciprocal overflows, reads as 0
    code, out = run_cli(
        capsys, "ribbon", "check", "--dist", dsbs05, "--lambda", "5e-324,0.5", "--kind", kind
    )
    assert code == 0
    assert json.loads(out, parse_constant=_reject_constant)["member"] is True


@pytest.mark.parametrize(
    "argv, redirect",
    [
        (["ribbon", "check", "--lambda", "0.5,0.5", "--dist", "{}"], contextlib.redirect_stdout),
        (["ribbon", "trace", "--grid", "4", "--dist", "{}"], contextlib.redirect_stdout),
        (["ribbon", "check", "--lambda", "0.5", "--dist", "{}"], contextlib.redirect_stderr),
        (["--help"], contextlib.redirect_stdout),
        (["ribbon", "--help"], contextlib.redirect_stdout),
    ] + [(words + ["--help"], contextlib.redirect_stdout) for words in _LEAVES],
    ids=["check-stdout", "trace-stdout", "error-stderr", "help", "group-help"]
    + ["-".join(words) + "-help" for words in _LEAVES],
)
def test_main_frees_redirected_stream(dsbs05, argv, redirect):
    buf = io.StringIO()
    with redirect(buf):
        main([a.format(dsbs05) for a in argv])
    assert buf.getvalue()
    ref = weakref.ref(buf)
    del buf
    gc.collect()
    assert ref() is None


def test_help_lists_and_describes_every_command(capsys):
    code, out = run_cli(capsys, "--help")
    assert code == 0
    for words in _LEAVES:
        assert f"  {' '.join(words)} " in out, words
        code, help_text = run_cli(capsys, *words, "--help")
        assert code == 0, words
        assert help_text.startswith(f"usage: phiribbon {' '.join(words)} "), words


def test_usage_errors_exit_2_with_the_message_on_stderr(dsbs05, capsys):
    check = ["ribbon", "check", "--dist", dsbs05]
    for argv in (
        [],  # no command
        ["ribbon"],  # a group, not a command
        ["ribbon", "bogus"],
        ["bogus"],
        # an abbreviated option is unknown, not completed
        ["ribbon", "check", "--dis", dsbs05, "--lambda", "0.5,0.5"],
        check + ["--lambda", "0.5,0.5", "--kin", "mc"],
        # a value that begins with "-" needs --lambda=VALUE; either way it is refused
        check + ["--lambda", "-1,0.5"],
        check + ["--lambda", "-0.5,0.5"],
        check + ["--lambda=-0.5,0.5"],
        ["oracle", "min-gap", "--dist", dsbs05, "--phi", "square", "--lambda", "-1,-1"],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == ""
        assert captured.err.startswith("error:"), argv


def test_a_repeated_option_keeps_its_last_value(dsbs05, capsys):
    code, out = run_cli(
        capsys, "ribbon", "check", "--dist", dsbs05, "--lambda", "0.9,0.9", "--lambda", "0.5,0.5"
    )
    assert code == 0
    assert json.loads(out)["lambda"] == [0.5, 0.5]


def _csv_reference(header, rows):
    """The CSV that csv.writer prints, floats at 12 significant digits."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([f"{v:.12g}" if isinstance(v, float) else v for v in row])
    return buf.getvalue()


@pytest.mark.parametrize("sizes, grid", [([2, 2], 12), ([2, 2, 2], 7), ([3, 2], 1)])
def test_ribbon_trace_csv_matches_csv_writer(tmp_path, capsys, sizes, grid):
    d = make_joint(sizes, np.random.default_rng(grid).dirichlet(np.ones(math.prod(sizes))))
    path = tmp_path / "d.json"
    path.write_text(dist_to_json(d))
    axes = [np.linspace(0, 1, grid)] * d.k
    lams = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, d.k)
    for kind in ("mc", "tilde"):
        member = membership_verdicts(d, kind, lams)
        ref = _csv_reference(
            [f"lambda_{i + 1}" for i in range(d.k)] + ["member"],
            [[*map(float, lam), int(m)] for lam, m in zip(lams, member)],
        )
        argv = ["ribbon", "trace", "--dist", str(path), "--grid", str(grid), "--kind", kind]
        assert run_cli(capsys, *argv) == (0, ref)
        out_path = tmp_path / "trace.csv"
        assert run_cli(capsys, *argv, "--out", str(out_path)) == (0, "")
        assert out_path.read_text() == ref


def test_phi_ribbon_trace_csv_matches_csv_writer(tmp_path, capsys):
    path = tmp_path / "xor.json"
    d = canonical("xor_triple")
    path.write_text(dist_to_json(d))
    trace = ribbon_boundary_trace(
        d, parse_phi("binent"), 5, SearchOpts(restarts=12, max_iters=200, seed=3)
    )
    ref = _csv_reference(
        ["direction_index", "lambda_1", "lambda_2", "lambda_3", "verdict"],
        [[i, *map(float, lam), verdict] for i, (lam, verdict) in enumerate(trace)],
    )
    code, out = run_cli(
        capsys, "phi-ribbon", "trace", "--dist", str(path), "--phi", "binent",
        "--directions", "5", "--seed", "3",
    )
    assert (code, out) == (0, ref)


def test_importing_the_cli_loads_no_click():
    src = str(Path(phiribbon.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    probe = "import sys, phiribbon.cli; sys.exit('click' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", probe], env=env, timeout=60).returncode == 0


def test_phi_ribbon_check_xor(tmp_path, capsys):
    path = tmp_path / "xor.json"
    path.write_text(dist_to_json(canonical("xor_triple")))
    code, out = run_cli(
        capsys, "phi-ribbon", "check", "--dist", str(path), "--phi", "binent",
        "--lambda", "1,1,1", "--restarts", "16",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "violated"
    assert obj["gap"] < -1e-6


def test_phi_ribbon_channel_test(tmp_path, capsys):
    path = tmp_path / "xor.json"
    path.write_text(dist_to_json(canonical("xor_triple")))
    W = np.zeros((8, 4))
    for x1 in (0, 1):
        for x2 in (0, 1):
            for x3 in (0, 1):
                W[x1 * 4 + x2 * 2 + x3, x1 * 2 + x2] = 1.0
    chan = tmp_path / "chan.json"
    chan.write_text(json.dumps({"coord": 0, "matrix": W.tolist()}))
    code, out = run_cli(
        capsys, "phi-ribbon", "channel-test", "--dist", str(path),
        "--phi", "xlogx:0,64", "--channel", str(chan), "--lambda", "1,1,1",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["violates"] is True
    assert obj["gap"] == pytest.approx(-np.log(2), abs=1e-9)


def test_phi_ribbon_channel_test_refuses_binent(tmp_path, capsys):
    # binent is undefined on the ratios above 1 that a dependent U has: refused
    # as an input error whether the channel is informative or not
    path = tmp_path / "dsbs.json"
    path.write_text(dist_to_json(canonical("dsbs", lam=0.5)))
    for matrix in (np.ones((4, 1)), np.eye(4)):
        chan = tmp_path / "chan.json"
        chan.write_text(json.dumps({"coord": 0, "matrix": matrix.tolist()}))
        code, out = run_cli(
            capsys, "phi-ribbon", "channel-test", "--dist", str(path),
            "--phi", "binent", "--channel", str(chan), "--lambda", "1,1",
        )
        assert code == 2
        assert out == ""


def test_phi_ribbon_channel_test_rejects_a_fractional_coord(tmp_path, capsys):
    path = tmp_path / "dsbs.json"
    path.write_text(dist_to_json(canonical("dsbs", lam=0.5)))
    chan = tmp_path / "chan.json"
    chan.write_text(json.dumps({"coord": 0.7, "matrix": np.eye(4).tolist()}))
    code, out = run_cli(
        capsys, "phi-ribbon", "channel-test", "--dist", str(path),
        "--phi", "xlogx:0,64", "--channel", str(chan), "--lambda", "1,1",
    )
    assert code == 2
    assert out == ""


def test_gaussian_check(tmp_path, capsys):
    path = tmp_path / "R.json"
    path.write_text(json.dumps({"matrix": [[1.0, 0.5], [0.5, 1.0]]}))
    code, out = run_cli(
        capsys, "gaussian", "check", "--R", str(path), "--lambda", "0.6,0.6"
    )
    assert code == 0
    assert json.loads(out)["member"] is True
    path.write_text('{"matrix": [[1, Infinity], [Infinity, 1]]}')
    code, out = run_cli(
        capsys, "gaussian", "check", "--R", str(path), "--lambda", "0.6,0.6"
    )
    assert code == 2 and out == ""


def test_phi_ribbon_trace_rows(dsbs05, capsys):
    code, out = run_cli(
        capsys, "phi-ribbon", "trace", "--dist", dsbs05, "--phi", "square",
        "--directions", "3",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["direction_index", "lambda_1", "lambda_2", "verdict"]
    assert [r[0] for r in rows[1:]] == ["0", "1", "2"]
    assert {r[3] for r in rows[1:]} <= {"holds_up_to_search", "violated"}


def test_oracle_min_gap(dsbs05, capsys):
    code, out = run_cli(
        capsys, "oracle", "min-gap", "--dist", dsbs05, "--phi", "square",
        "--lambda", "0.9,0.9", "--resolution", "9",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["min_gap"] < 0
    assert len(obj["argmin"]) == 4


def test_oracle_min_gap_bad_lambda(dsbs05, capsys):
    for text in ("nan,0.5", "inf,0.5", "2,2", "-1,0.5"):
        code, out = run_cli(
            capsys, "oracle", "min-gap", "--dist", dsbs05, "--phi", "square",
            "--lambda", text, "--resolution", "3",
        )
        assert code == 2, text
        assert out == ""


@pytest.mark.parametrize("phi", ["square", "binent", "sym:1.5", "power:1.5", "xlogx:0,1"])
def test_phi_ribbon_check_normalized_needs_room_above_one(tmp_path, capsys, phi):
    path = tmp_path / "d.json"
    path.write_text(dist_to_json(make_joint([2, 2], [0.4, 0.1, 0.1, 0.4])))
    code, out = run_cli(
        capsys, "phi-ribbon", "check", "--dist", str(path), "--phi", phi,
        "--lambda", "0.9,0.9", "--normalized",
    )
    assert code == 2
    assert out == ""


def test_twelve_significant_digits(dsbs05, capsys):
    _, out = run_cli(capsys, "rho", "--dist", dsbs05)
    # formatting is applied recursively, so a clean value stays short
    assert out.strip() == '{"rho": 0.5}'


def test_suite_xor_passes(tmp_path, capsys):
    code, out = run_cli(capsys, "suite", "xor")
    assert code == 0
    assert "FAIL" not in out
    assert "pass" in out


# the other reproduction bundles, at their own tolerances (dsbs and sumiid run eta_phi)
@pytest.mark.parametrize(
    "name",
    ["dsbs", "sumiid", "bipartite-boundary", "tilde", "gaussian-binary", "alpha-equivalence"],
)
def test_suite_passes(name, capsys):
    code, out = run_cli(capsys, "suite", name)
    assert code == 0
    assert "FAIL" not in out
    assert "pass" in out


def test_suite_unknown_name(capsys):
    code, _ = run_cli(capsys, "suite", "nope")
    assert code == 2


# ---------------------------------------------------------------------------
# property: any argv and file contents give exit 0 with strict JSON, or exit 2


def _json_text(obj):
    return json.dumps(obj, allow_nan=True)  # NaN and Infinity literals stay in


_numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-2.0, 2.0),
    st.sampled_from([0.0, 0.5, 1.0, -1.0, 1e308]),
    st.integers(-3, 3),
)
_GARBAGE = ["", "{", "null", "7", '"x"', "[]", "{}"]


def _sometimes(draw, good, bad):
    """``good`` three times in four, else a draw from ``bad``."""
    return good if draw(st.integers(0, 3)) else draw(bad)


def _stochastic(draw, rows, cols):
    """Rows of non-negative weights summing to 1, some of them exact zeros."""
    w = np.array(draw(st.lists(st.sampled_from([0.0, 0.1, 0.5, 1.0, 3.0]),
                               min_size=rows * cols, max_size=rows * cols)))
    w = w.reshape(rows, cols)
    w[w.sum(axis=1) == 0, 0] = 1.0
    return (w / w.sum(axis=1, keepdims=True)).tolist()


def _malformed(draw, valid):
    """A mangled copy of ``valid``: a non-finite or negative entry, a wrong shape,
    a wrong type, or text that is not the expected JSON."""
    flat = np.array(valid, dtype=float).ravel().tolist()
    how = draw(st.sampled_from(["entry", "drop", "ragged", "flat", "scalar", "text"]))
    if how == "entry" and flat:
        flat[draw(st.integers(0, len(flat) - 1))] = draw(_numbers)
        return np.reshape(flat, np.shape(valid)).tolist()
    if how == "drop":
        return flat[1:]
    if how == "ragged":
        return [flat, flat[:1]]
    if how == "flat":
        return flat
    return draw(_numbers) if how == "scalar" else draw(st.text(max_size=3))


_SUITES = ["dsbs", "sumiid", "xor", "bipartite-boundary", "tilde", "gaussian-binary",
           "alpha-equivalence"]
_BAD_SEEDS = ["-1", "-12", "x", "1.5", "", "1e3"]
_GOOD_PHIS = ["xlogx:0,64", "xlogx", "power:1.5", "square", "binent", "power:3"]
_BAD_PHIS = ["power:1.2.3", "xlogx:e,e", "xlogx:-1,2", "nope"]


def _search_args(draw, flag, good):
    """Arguments shared by the search commands: the Phi and a small budget."""
    return ["--dist", "{dist}", "--phi",
            _sometimes(draw, draw(st.sampled_from(_GOOD_PHIS)), st.sampled_from(_BAD_PHIS)),
            flag, _sometimes(draw, draw(st.sampled_from(good)), st.sampled_from(["0", "x"]))]


@st.composite
def _cli_case(draw):
    command = draw(st.sampled_from(
        ["rho", "gram", "ribbon", "gaussian", "channel-test", "eta", "phi-check", "phi-trace",
         "oracle", "suite"]
    ))
    k = 2 if command in ("rho", "eta") else draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    n = math.prod(sizes)
    probs = _stochastic(draw, 1, n)[0]
    dist = _sometimes(draw, {"alphabet_sizes": sizes, "probs": probs}, st.sampled_from([
        {"alphabet_sizes": sizes, "probs": _malformed(draw, probs)},
        {"alphabet_sizes": _malformed(draw, sizes), "probs": probs},
        {"probs": probs},
        [sizes, probs],
    ]))
    files = {"dist": _sometimes(draw, _json_text(dist), st.sampled_from(_GARBAGE))}
    lam = draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k))
    lam = _sometimes(draw, lam, st.one_of(
        st.lists(_numbers, max_size=4), st.lists(_numbers, min_size=k, max_size=k)
    ))
    lam_text = _sometimes(draw, ",".join(map(str, lam)), st.sampled_from(["", ",", "a"]))
    if command in ("rho", "gram"):
        argv = [command, "--dist", "{dist}"]
    elif command == "ribbon":
        kind = draw(st.sampled_from(["mc", "sprime", "tilde"]))
        argv = ["ribbon", "check", "--dist", "{dist}", "--lambda", lam_text, "--kind", kind]
    elif command == "gaussian":
        # the Gram matrix of unit vectors is a correlation matrix
        v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=k * k, max_size=k * k)))
        v = v.reshape(k, k) + 2.0 * np.eye(k)
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        R = v @ v.T
        np.fill_diagonal(R, 1.0)
        R = _sometimes(draw, R.tolist(), st.just(_malformed(draw, R.tolist())))
        files["R"] = _sometimes(draw, _json_text({"matrix": R}), st.sampled_from(_GARBAGE))
        argv = ["gaussian", "check", "--R", "{R}", "--lambda", lam_text]
    elif command == "eta":
        argv = ["eta", *_search_args(draw, "--restarts", ["1", "2", "3"])]
    elif command == "phi-check":
        argv = ["phi-ribbon", "check", *_search_args(draw, "--restarts", ["1", "2", "3"]),
                "--lambda", lam_text]
        argv += _sometimes(draw, [], st.just(["--normalized"]))
    elif command == "phi-trace":
        argv = ["phi-ribbon", "trace", *_search_args(draw, "--directions", ["1", "2"])]
    elif command == "oracle":
        argv = ["oracle", "min-gap", *_search_args(draw, "--resolution", ["3"]),
                "--lambda", lam_text]
    elif command == "suite":
        # only cases that must be refused: every real bundle is a full
        # reproduction run, far too slow to repeat across the examples
        unknown = st.text(max_size=8).filter(lambda t: t not in _SUITES and not t.startswith("-"))
        name = draw(st.one_of(st.sampled_from(_SUITES), unknown))
        seeds = st.sampled_from(_BAD_SEEDS)
        seed = draw(seeds if name in _SUITES else st.one_of(st.sampled_from(["0", "3"]), seeds))
        argv = ["suite", name, "--seed", seed]
    else:
        W = _stochastic(draw, n, draw(st.integers(1, 3)))
        coord = _sometimes(draw, 0, _numbers)
        W = _sometimes(draw, W, st.just(_malformed(draw, W)))
        channel = {"coord": coord, "matrix": W}
        files["channel"] = _sometimes(draw, _json_text(channel), st.sampled_from(_GARBAGE))
        phi = draw(st.sampled_from(_GOOD_PHIS + _BAD_PHIS))
        argv = ["phi-ribbon", "channel-test", "--dist", "{dist}", "--phi", phi,
                "--channel", "{channel}", "--lambda", lam_text]
    argv += _sometimes(draw, [], st.sampled_from([["--bogus"], ["--seed", "-1"], ["--kind", "x"]]))
    return files, argv


@pytest.fixture(scope="module")
def case_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_cases")


@settings(max_examples=300, deadline=None)
@given(_cli_case())
def test_cli_exits_0_with_strict_json_or_2(case_dir, case):
    files, argv = case
    paths = {}
    for name, text in files.items():
        path = case_dir / f"{name}.json"
        path.write_text(text)
        paths[f"{{{name}}}"] = str(path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # a file argument is a whole "{name}" token; any other argument, such
        # as a drawn suite name holding a brace, is passed on as drawn
        code = main([paths.get(a, a) for a in argv])
    assert code in (0, 2), (argv, files, err.getvalue())
    if argv[0] == "suite":
        assert code == 2, argv
    if code == 0 and argv[:2] == ["phi-ribbon", "trace"]:  # CSV, not JSON
        header, *rows = csv.reader(io.StringIO(out.getvalue()))
        assert header[0] == "direction_index" and rows
        for row in rows:
            assert all(math.isfinite(float(v)) for v in row[1:-1])
            assert row[-1] in ("violated", "holds_up_to_search")
    elif code == 0:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:
        assert out.getvalue() == "", argv
