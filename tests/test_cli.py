"""End-to-end tests of the command-line interface."""

import contextlib
import csv
import gc
import io
import json
import weakref

import numpy as np
import pytest

from phiribbon.cli import main
from phiribbon.dist import canonical, dist_to_json, make_joint


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


def test_rho_missing_file_is_input_error(capsys):
    code, _ = run_cli(capsys, "rho", "--dist", "/nonexistent.json")
    assert code == 2


def test_bad_distribution_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for probs in ("[0.9, 0.9, 0.9, 0.9]", "[NaN, 0.5, 0.25, 0.25]"):
        path.write_text('{"alphabet_sizes": [2, 2], "probs": %s}' % probs)
        code, _ = run_cli(capsys, "rho", "--dist", str(path))
        assert code == 2, probs


def test_unknown_flag_is_input_error(dsbs05, capsys):
    code, _ = run_cli(capsys, "rho", "--dist", dsbs05, "--bogus", "1")
    assert code == 2
    # malformed flag values: phi names and search options
    for argv in (
        ["--phi", "power:1.2.3"],
        ["--phi", "xlogx:e,e"],
        ["--phi", "square", "--seed", "-1"],
    ):
        code, out = run_cli(capsys, "eta", "--dist", dsbs05, *argv)
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
    for grid in ("0", "-1"):
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
        obj = json.loads(checked)
        ev = obj["min_eigenvalue"]  # null: empty test matrix (lambda = 0)
        if ev is None or abs(ev) > 1e-9:
            assert int(member) == int(obj["member"]), (kind, lam)


def _reject_constant(name):
    raise ValueError(f"non-finite JSON number {name}")


@pytest.mark.parametrize("kind", ["mc", "sprime", "tilde"])
def test_ribbon_check_output_is_strict_json(tmp_path, capsys, kind):
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


@pytest.mark.parametrize(
    "argv, redirect",
    [
        (["ribbon", "check", "--lambda", "0.5,0.5", "--dist", "{}"], contextlib.redirect_stdout),
        (["ribbon", "trace", "--grid", "4", "--dist", "{}"], contextlib.redirect_stdout),
        (["ribbon", "check", "--lambda", "0.5", "--dist", "{}"], contextlib.redirect_stderr),
        (["--help"], contextlib.redirect_stdout),
        (["ribbon", "--help"], contextlib.redirect_stdout),
    ],
    ids=["check-stdout", "trace-stdout", "error-stderr", "help", "group-help"],
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


def test_gaussian_check(tmp_path, capsys):
    path = tmp_path / "R.json"
    path.write_text(json.dumps({"matrix": [[1.0, 0.5], [0.5, 1.0]]}))
    code, out = run_cli(
        capsys, "gaussian", "check", "--R", str(path), "--lambda", "0.6,0.6"
    )
    assert code == 0
    assert json.loads(out)["member"] is True


def test_oracle_min_gap(dsbs05, capsys):
    code, out = run_cli(
        capsys, "oracle", "min-gap", "--dist", dsbs05, "--phi", "square",
        "--lambda", "0.9,0.9", "--resolution", "9",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["min_gap"] < 0
    assert len(obj["argmin"]) == 4


def test_twelve_significant_digits(dsbs05, capsys):
    _, out = run_cli(capsys, "rho", "--dist", dsbs05)
    # formatting is applied recursively, so a clean value stays short
    assert out.strip() == '{"rho": 0.5}'


def test_suite_xor_passes(tmp_path, capsys):
    code, out = run_cli(capsys, "suite", "xor")
    assert code == 0
    assert "FAIL" not in out
    assert "pass" in out


def test_suite_unknown_name(capsys):
    code, _ = run_cli(capsys, "suite", "nope")
    assert code == 2
