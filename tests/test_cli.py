import argparse
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rsriccati
from rsriccati import load_model, tau_N
from rsriccati.cli import _initial_variance_arg, build_parser, main
from conftest import EXAMPLE_JSON


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(EXAMPLE_JSON)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# analyze


def test_analyze_conditions_hold(capsys, model_file):
    code, out, _ = run_cli(capsys, "analyze", model_file, "--block-n", "2",
                           "--theta", "2e-4")
    assert code == 0
    assert "True" in out


def test_analyze_conditions_violated(capsys, model_file):
    code, out, _ = run_cli(capsys, "analyze", model_file, "--theta", "1e-3")
    assert code == 3
    assert "False" in out


def test_analyze_missing_file(capsys):
    code, _, err = run_cli(capsys, "analyze", "does_not_exist.json")
    assert code == 2
    assert "input error" in err


def test_analyze_bad_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == 2


@pytest.mark.parametrize("N", ["2", "3"])
def test_analyze_exits_numerical_on_overflow(capsys, tmp_path, N):
    # A = 1e200 I overflows the N-block matrices of an observable pair
    path = tmp_path / "overflow.json"
    path.write_text('{"A": [[1e200,0],[0,1e200]], "B": [[1,0],[0,1]], "C": [[1,1]]}')
    code, _, err = run_cli(capsys, "analyze", str(path), "--block-n", N)
    assert code == 4
    assert "numerical error" in err and "not finite" in err


@pytest.mark.parametrize("N", ["112", "128"])
def test_analyze_past_double_precision_exits_numerical(capsys, model_file, N):
    # the worked example's unstable A loses I + H^T H to rounding at these N
    code, _, err = run_cli(capsys, "analyze", model_file, "--block-n", N)
    assert code == 4
    assert "numerical error" in err and f"block length N={N}" in err
    assert "Traceback" not in err


def test_analyze_rejects_block_length_zero(capsys, model_file):
    code, _, err = run_cli(capsys, "analyze", model_file, "--block-n", "0")
    assert code == 2
    assert "block length N must be >= 1, got 0" in err


def test_analyze_json_payload(capsys, model_file):
    code, out, _ = run_cli(capsys, "analyze", model_file, "--json",
                           "--theta", "2e-4")
    assert code == 0
    payload = json.loads(out)
    assert payload["model"]["n"] == 2
    assert payload["conditions_hold"] is True
    assert abs(payload["tau_N"] - 0.715e-3) < 0.02 * 0.715e-3


@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_analyze_contraction_report_switches_at_tau(capsys, model_file, example_model, side):
    # the coefficient is reported exactly where theta < tau_N holds
    theta = (1.0 + side * 1e-6) * float(tau_N(example_model, 2).tau_N)
    _, out, _ = run_cli(capsys, "analyze", model_file, "--block-n", "2", "--json",
                        "--theta", repr(theta))
    payload = json.loads(out)
    coefficient = payload["contraction_coefficient"]
    if side < 0:
        assert payload["conditions"]["theta_below_tau_N"] is True
        assert coefficient is not None and 0.0 <= coefficient < 1.0
    else:
        assert payload["conditions"]["theta_below_tau_N"] is False
        assert coefficient is None


def test_analyze_reports_no_coefficient_beyond_capped_tau(capsys, tmp_path):
    # at N = 1 theta_N is infinite and Omega_1(theta) = (1e4 - theta) I, so
    # tau_1 = 1e4 in closed form: the coefficient is reported below it only
    path = tmp_path / "strong_output.json"
    path.write_text('{"A": [[0.5,0],[0,0.3]], "B": [[1,0],[0,1]], "C": [[100,0],[0,100]]}')
    for theta, below in (("0.2", True), ("2e4", False)):
        _, out, _ = run_cli(capsys, "analyze", str(path), "--block-n", "1", "--json",
                            "--theta", theta)
        payload = json.loads(out)
        assert abs(payload["tau_N"] - 1e4) <= 1e-12 * 1e4
        assert payload["tau_is_capped"] is False
        assert payload["conditions"]["theta_below_tau_N"] is below
        assert (payload["contraction_coefficient"] is not None) is below


def test_analyze_multi_output_model_without_bound(capsys, tmp_path):
    # two outputs: no single-output pole placement, so the bound section
    # is null and only theta = 0 satisfies the risk-bound condition
    path = tmp_path / "mimo.json"
    path.write_text('{"A": [[0.5,0.1],[0,0.4]], "B": [[1,0],[0,1]],'
                    ' "C": [[1,0],[0,1]]}')
    code, out, _ = run_cli(capsys, "analyze", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["bound"] is None
    assert payload["conditions_hold"] is True
    code, out, _ = run_cli(capsys, "analyze", str(path), "--json",
                           "--theta", "1e-4")
    payload = json.loads(out)
    assert payload["conditions"]["theta_below_beta_rho"] is False
    assert code == 3


@pytest.mark.parametrize("theta", ["nan", "-1", "inf"])
def test_analyze_rejects_theta_outside_the_domain(capsys, model_file, theta):
    # the JSON payload would otherwise carry NaN (not JSON) or the string "inf"
    code, out, err = run_cli(capsys, "analyze", model_file, "--json", "--theta", theta)
    assert code == 3
    assert out == ""
    assert "domain error: theta must be finite and >= 0" in err


# ---------------------------------------------------------------------------
# trajectory


def test_trajectory_csv_contract(capsys, model_file, tmp_path):
    out_csv = tmp_path / "traj.csv"
    code, _, _ = run_cli(capsys, "trajectory", model_file,
                         "--theta", "2.34e-4", "--p0", "sigma",
                         "--steps", "11", "--out", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "t,status,lambda_P_1,lambda_P_2,lambda_V_1,lambda_V_2"
    assert len(lines) == 13  # header + 12 rows
    rows = [line.split(",") for line in lines[1:]]
    assert all(r[1] == "ok" for r in rows)
    lam1 = np.array([float(r[2]) for r in rows])
    assert np.all(np.diff(lam1) <= 1e-10)


@pytest.mark.parametrize("command", ["trajectory", "fixed-point"])
def test_unwritable_output_file_is_an_input_error(capsys, model_file, tmp_path, command):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(capsys, command, model_file, "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"input error: cannot write output file {str(target)!r}")


def test_trajectory_zero_steps_single_row(capsys, model_file):
    code, out, _ = run_cli(capsys, "trajectory", model_file, "--steps", "0")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("0,ok,")


def test_trajectory_violation_rows_have_empty_v_columns(capsys, model_file):
    code, out, _ = run_cli(capsys, "trajectory", model_file,
                           "--theta", "2e-3", "--p0", "identity",
                           "--steps", "100")
    assert code == 0
    lines = out.strip().splitlines()
    last = lines[-1].split(",")
    assert last[1] == "v_violation"
    assert last[4] == "" and last[5] == ""
    assert len(lines) - 1 < 101  # stopped early


def test_trajectory_seventeen_digit_roundtrip(capsys, model_file):
    code, out, _ = run_cli(capsys, "trajectory", model_file, "--steps", "2")
    row = out.strip().splitlines()[1].split(",")
    value = float(row[2])
    assert f"{value:.17g}" == row[2]


def test_trajectory_p0_from_file(capsys, model_file, tmp_path):
    p0 = tmp_path / "p0.json"
    p0.write_text("[[2.0, 0.0], [0.0, 2.0]]")
    code, out, _ = run_cli(capsys, "trajectory", model_file,
                           "--p0", str(p0), "--steps", "0")
    assert code == 0
    assert out.strip().splitlines()[1].split(",")[2] == "2"


# ---------------------------------------------------------------------------
# fixed-point / breakdown / bound-search


def test_fixed_point_reports_example_values(capsys, model_file):
    code, out, _ = run_cli(capsys, "fixed-point", model_file,
                           "--theta", "2.3407e-4", "--p0", "sigma", "--json")
    assert code == 0
    payload = json.loads(out)
    eig = payload["eigenvalues_P_star"]
    assert abs(eig[0] - 332.4) < 0.005 * 332.4
    assert abs(eig[1] - 1.003) < 0.005 * 1.003
    cl = sorted(payload["closed_loop_eigenvalues"])
    assert abs(cl[1] - 0.776) < 0.02 * 0.776
    assert payload["are_residual"] < 1e-8


def test_fixed_point_iteration_cap_exit_code(capsys, model_file):
    code, _, err = run_cli(capsys, "fixed-point", model_file,
                           "--max-iter", "2")
    assert code == 4
    assert "iteration limit" in err


@pytest.mark.parametrize("flag, value", [
    ("--max-iter", "-3"), ("--max-iter", "0"), ("--tol", "nan"), ("--tol", "-1"),
])
def test_fixed_point_bad_tol_or_max_iter_is_an_input_error(capsys, model_file, flag, value):
    code, out, err = run_cli(capsys, "fixed-point", model_file, flag, value)
    assert code == 2
    assert out == "" and "input error" in err


def test_fixed_point_breakdown_exit_code(capsys, model_file):
    code, _, err = run_cli(capsys, "fixed-point", model_file,
                           "--theta", "1.5e-3", "--p0", "identity")
    assert code in (3, 4)


def test_fixed_point_text_output(capsys, model_file):
    code, out, _ = run_cli(capsys, "fixed-point", model_file)
    assert code == 0
    assert out.splitlines()[0].startswith("fixed point after ")
    assert "iterations (final step distance " in out.splitlines()[0]


@pytest.mark.parametrize("hi, p0, first", [
    ("2e-3", "sigma", "breakdown theta = "),
    ("2e-4", "identity", "no breakdown in range: theta = 2.000000e-04 still solvable"),
])
def test_breakdown_text_output(capsys, model_file, hi, p0, first):
    code, out, _ = run_cli(capsys, "breakdown", model_file, "--lo", "1e-4", "--hi", hi,
                           "--tol", "1e-5", "--p0", p0)
    assert code == 0
    assert out.splitlines()[0].startswith(first)


def test_bound_search_text_output(capsys, model_file):
    code, out, _ = run_cli(capsys, "bound-search", model_file, "--rho-grid", "1.2:1.4:3",
                           "--gain-grid", "1.0:5", "--no-refine")
    assert code == 0
    assert out.splitlines()[0].startswith("beta_rho maximized at G = ")


def test_breakdown_command(capsys, model_file):
    code, out, _ = run_cli(capsys, "breakdown", model_file,
                           "--lo", "2.3e-4", "--hi", "2e-3",
                           "--tol", "1e-5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] is True
    assert 0.95e-3 < payload["theta"] < 1.05e-3
    assert payload["p0"] == "sigma"


@pytest.mark.parametrize("p0", ["sigma", "identity"])
def test_breakdown_same_bracket_from_either_named_start(capsys, model_file, p0):
    # both starts reach the same fixed points, so the bisection takes the same
    # path; the numbers are those the two named initial-variance policies gave
    code, out, _ = run_cli(capsys, "breakdown", model_file, "--lo", "2.3e-4",
                           "--hi", "2e-3", "--tol", "1e-9", "--p0", p0, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["bracket"] == [0.000979258351325989, 0.0009792591953277589]
    assert payload["evaluations"] == 23


@pytest.mark.parametrize("matrix, code, message", [
    ("[[-1, 0], [0, -1]]", 3, "breakdown start P0 not positive definite"),
    ("[[NaN, 0], [0, NaN]]", 3, "breakdown start P0 not positive definite"),
    ("[[1e-310, 0], [0, 1e-310]]", 4, "breakdown start P0 inverse overflows"),
])
def test_breakdown_bad_p0_file(capsys, model_file, tmp_path, matrix, code, message):
    p0 = tmp_path / "p0.json"
    p0.write_text(matrix)
    got, _, err = run_cli(capsys, "breakdown", model_file, "--lo", "2.3e-4",
                          "--hi", "2e-3", "--p0", str(p0))
    assert got == code
    assert message in err


def test_fixed_point_nan_p0_exits_cone_exit_on_a_three_state_model(capsys, tmp_path):
    # LAPACK fails on a 3 x 3 NaN matrix; the gate still reads it as a cone exit
    model = tmp_path / "three.json"
    model.write_text('{"A": [[0.5,0,0],[0,0.5,0],[0,0,0.5]], "B": [[1,0,0],[0,1,0],[0,0,1]], '
                     '"C": [[1,0,0]]}')
    p0 = tmp_path / "p0.json"
    p0.write_text(json.dumps([["NaN"] * 3] * 3).replace('"', ""))
    code, _, err = run_cli(capsys, "fixed-point", str(model), "--p0", str(p0))
    assert code == 3
    assert "fixed-point start P0 not positive definite" in err


def test_breakdown_missing_p0_file(capsys, model_file, tmp_path):
    code, _, err = run_cli(capsys, "breakdown", model_file, "--lo", "2.3e-4",
                           "--p0", str(tmp_path / "missing.json"))
    assert code == 2
    assert "cannot read initial-variance file" in err


@pytest.mark.parametrize("document", [
    '[["a", 0], [0, "b"]]',
    "[[1, 0], [0]]",
    '{"P0": [[1, 0], [0, 1]]}',
], ids=["string_entries", "ragged_rows", "json_object"])
def test_malformed_p0_file_is_an_input_error(capsys, model_file, tmp_path, document):
    p0 = tmp_path / "p0.json"
    p0.write_text(document)
    code, _, err = run_cli(capsys, "fixed-point", model_file, "--p0", str(p0))
    assert code == 2
    assert "is not a numeric matrix" in err


@pytest.mark.parametrize("document, message", [
    ("{not json", "initial-variance file {path!r} is not valid JSON"),
    ("[[1, 0, 0], [0, 1, 0], [0, 0, 1]]", "initial variance must be 2x2, got (3, 3)"),
], ids=["invalid_json", "wrong_shape"])
def test_unusable_p0_file_is_an_input_error(capsys, model_file, tmp_path, document, message):
    p0 = tmp_path / "p0.json"
    p0.write_text(document)
    code, _, err = run_cli(capsys, "fixed-point", model_file, "--p0", str(p0))
    assert code == 2
    assert message.format(path=str(p0)) in err


def test_initial_variance_arg_named_starts(example_model, example_bound):
    _, Sigma2, _ = example_bound
    assert np.array_equal(_initial_variance_arg(example_model, "sigma"), Sigma2)
    scaled = load_model('{"A": [[0.5, 0], [0, 0.3]], "B": [[1, 0], [0, 2]], "C": [[1, 1]]}')
    for model in (example_model, scaled):
        expected = np.trace(model.B @ model.B.T) / model.n * np.eye(model.n)
        assert np.array_equal(_initial_variance_arg(model, "identity"), expected)


def test_breakdown_bad_lower_end(capsys, model_file):
    code, _, err = run_cli(capsys, "breakdown", model_file,
                           "--lo", "1.9e-3", "--hi", "2e-3")
    assert code == 2


def test_bound_search_singleton(capsys, model_file):
    code, _, err = run_cli(capsys, "bound-search", model_file,
                           "--rho-grid", "2.0", "--gain-grid", "0.0001:1",
                           "--no-refine", "--json")
    # span:points of 0.0001:1 gives each gain coordinate the single point
    # linspace(-h, h, 1) = [-h]; that one gain is infeasible at rho = 2
    assert code == 3
    assert "no feasible (G, rho) candidate" in err


def test_bound_search_small_grid(capsys, model_file):
    code, out, _ = run_cli(capsys, "bound-search", model_file,
                           "--rho-grid", "1.2:1.4:3",
                           "--gain-grid", "1.0:5", "--no-refine", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["beta_rho"] > 0


# ---------------------------------------------------------------------------
# paper-example


def test_paper_example_quick_and_deterministic(capsys, tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        code, _, _ = run_cli(capsys, "paper-example", "--out-dir", str(out))
        assert code == 0
    names = ["model.json", "gramian_sweep.csv", "trajectory.csv",
             "fixed_point_sweep.csv", "summary.json"]
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["tau_2_pass"] is True
    assert summary["beta_2_pass"] is True
    assert summary["Sigma_2_pass"] is True
    assert summary["fixed_point_eigenvalues_pass"] is True
    assert summary["closed_loop_eigenvalues_pass"] is True
    sweep = (out1 / "gramian_sweep.csv").read_text().strip().splitlines()
    assert sweep[0] == "theta,lambda_min_Omega,lambda_min_W"
    assert len(sweep) == 201


def test_paper_example_unwritable_dir(capsys, tmp_path):
    if os.geteuid() == 0:
        pytest.skip("directory permissions are not enforced for root")
    ro = tmp_path / "ro"
    ro.mkdir()
    ro.chmod(stat.S_IRUSR | stat.S_IXUSR)
    code, _, err = run_cli(capsys, "paper-example",
                           "--out-dir", str(ro / "sub"))
    assert code == 2


def test_paper_example_out_dir_under_a_regular_file(capsys, tmp_path):
    # unlike directory permissions, a file in the path stops root too
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, _, err = run_cli(capsys, "paper-example", "--out-dir", str(blocker / "sub"))
    assert code == 2
    assert "is not writable" in err


@pytest.mark.parametrize("name", ["model.json", "gramian_sweep.csv", "trajectory.csv",
                                  "fixed_point_sweep.csv", "summary.json"])
def test_paper_example_output_file_blocked_by_a_directory(capsys, tmp_path, name):
    # every file goes through the one writer: a directory in its place exits 2, not a traceback
    (tmp_path / name).mkdir()
    code, out, err = run_cli(capsys, "paper-example", "--out-dir", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith(f"input error: cannot write output file {str(tmp_path / name)!r}: ")


# ---------------------------------------------------------------------------
# argument handling


def test_unknown_flag_exits_two(capsys, model_file):
    code, _, _ = run_cli(capsys, "analyze", model_file, "--bogus")
    assert code == 2


def test_one_parser_per_process_carries_no_state(capsys, model_file, monkeypatch):
    # three calls in one process print and exit as three processes do, and
    # the later calls see none of the first call's flags
    calls = [["analyze", model_file, "--theta", "1e-3", "--json"],
             ["analyze", model_file],
             ["analyze", model_file, "--bogus"]]
    env = {**os.environ, "PYTHONPATH": str(Path(rsriccati.__file__).parents[1])}
    alone = [subprocess.run([sys.executable, "-m", "rsriccati.cli", *argv],
                            capture_output=True, text=True, env=env, timeout=120)
             for argv in calls]
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()
    together = [run_cli(capsys, *argv)[:2] for argv in calls]
    assert together == [(proc.returncode, proc.stdout) for proc in alone]
    assert [code for code, _ in together] == [3, 0, 2]
    assert together[1][1].startswith("model: n=2")  # text, not the first call's JSON
    assert built.count("rsriccati") == 1


@pytest.mark.parametrize("flag,spec", [("--gain-grid", "3:x"), ("--rho-grid", "1,2,x")])
def test_bad_grid_number(capsys, model_file, flag, spec):
    code, _, err = run_cli(capsys, "bound-search", model_file, flag, spec)
    assert code == 2
    assert "input error" in err


def test_bad_grid_spec(capsys, model_file):
    code, _, err = run_cli(capsys, "bound-search", model_file,
                           "--rho-grid", "1:2:3:4")
    assert code == 2


@pytest.mark.parametrize("flag,spec", [("--gain-grid", "3:-1"), ("--gain-grid", "nan:5"),
                                       ("--rho-grid", "nan:2:3"), ("--rho-grid", "1.1,nan")])
def test_grid_without_finite_points_exits_two(capsys, model_file, flag, spec):
    code, _, err = run_cli(capsys, "bound-search", model_file, flag, spec)
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize("flag, spec, message", [
    ("--rho-grid", "1:2:0", "grid count must be >= 1, got 0"),
    ("--gain-grid", "3", "gain grid spec must be span:points, got '3'"),
])
def test_grid_with_no_points_or_no_count_exits_two(capsys, model_file, flag, spec, message):
    code, _, err = run_cli(capsys, "bound-search", model_file, flag, spec)
    assert code == 2
    assert message in err
