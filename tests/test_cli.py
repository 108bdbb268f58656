import json
from pathlib import Path

import numpy as np
import pytest

from lqfit.bench import build_small_random
from lqfit.cli import main
from lqfit.linsys import generate_demos
from lqfit.riccati import solve_lqr


@pytest.fixture
def system_file(tmp_path):
    dyn, cost, _ = build_small_random(2)
    payload = dyn.to_dict()
    payload["Q"] = np.eye(4).tolist()
    payload["R"] = np.eye(2).tolist()
    path = tmp_path / "system.json"
    path.write_text(json.dumps(payload))
    return path, dyn, cost


@pytest.fixture
def demos_file(tmp_path, system_file):
    path, dyn, cost = system_file
    K = solve_lqr(dyn, cost).K
    demos = generate_demos(dyn, K, 4.0 * np.eye(2), 8, 0.0, 99)
    dpath = tmp_path / "demos.json"
    dpath.write_text(json.dumps(demos.to_dict()))
    return dpath, demos, K


def test_lqr_command(tmp_path, system_file, capsys):
    path, dyn, cost = system_file
    out = tmp_path / "gain.json"
    assert main(["lqr", "--system", str(path), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    sol = solve_lqr(dyn, cost)
    assert np.allclose(payload["K"], sol.K)
    assert np.allclose(payload["P"], sol.P)


def test_lqr_prints_without_out(system_file, capsys):
    path, _, _ = system_file
    assert main(["lqr", "--system", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "K" in payload


def test_fit_command(tmp_path, demos_file):
    dpath, demos, K = demos_file
    out = tmp_path / "fit.json"
    assert main(["fit", "--demos", str(dpath), "--lam", "0.01",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    from lqfit.fitting import policy_fit
    assert np.allclose(payload["K"], policy_fit(demos).K)


def test_fit_kalman_command(tmp_path, system_file, demos_file):
    spath, dyn, _ = system_file
    dpath, demos, K = demos_file
    out = tmp_path / "kfit.json"
    args = ["fit-kalman", "--system", str(spath), "--demos", str(dpath),
            "--iters", "15", "--out", str(out)]
    assert main(args) == 0
    payload = json.loads(out.read_text())
    assert payload["K_certified"] is not None
    assert payload["K_reported"] == payload["K_certified"]
    assert "residual" in payload and "converged" in payload


def test_check_kalman_feasible_and_not(tmp_path, system_file, capsys):
    spath, dyn, cost = system_file
    gain = tmp_path / "gain.json"
    gain.write_text(json.dumps({"K": solve_lqr(dyn, cost).K.tolist()}))
    assert main(["check-kalman", "--system", str(spath),
                 "--gain", str(gain)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["feasible"] is True
    assert payload["residual"] <= payload["tol"]

    scalar = tmp_path / "scalar.json"
    scalar.write_text(json.dumps({"A": [[0.0]], "B": [[1.0]], "W": [[0.0]]}))
    gain.write_text(json.dumps({"K": [[1.0]]}))
    assert main(["check-kalman", "--system", str(scalar),
                 "--gain", str(gain)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["feasible"] is False
    assert payload["verdict"] == "infeasible"
    assert payload["witness"]["kind"] == "unstable_mode"
    assert payload["residual"] >= 0.99


def test_experiment_command(tmp_path):
    cfg = {"experiment": "small_random", "N_values": [2], "seeds": [0],
           "admm": {"n_iter": 10},
           "expert_eval_horizon": 5000}
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps(cfg))
    out = tmp_path / "rows.csv"
    assert main(["experiment", "--config", str(cpath),
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 4
    assert (tmp_path / "rows_summary.json").exists()
    # deterministic re-run
    out2 = tmp_path / "rows2.csv"
    assert main(["experiment", "--config", str(cpath),
                 "--out", str(out2)]) == 0
    assert out.read_text() == out2.read_text()


def _assert_config_rejected(tmp_path, capsys, cfg):
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps({"N_values": [2], "seeds": [0], **cfg}))
    assert main(["experiment", "--config", str(cpath),
                 "--out", str(tmp_path / "rows.csv")]) == 1
    err = capsys.readouterr().err
    assert "lqfit: bad experiment config" in err
    assert not (tmp_path / "rows.csv").exists()
    return err


@pytest.mark.parametrize("admm", [{"n_random_inits": 3}, {"seed": 1},
                                  {"pqr_iters": 40}, {"pqr_tol": 1e-11}])
def test_removed_admm_fields_rejected(tmp_path, capsys, admm):
    _assert_config_rejected(tmp_path, capsys, {"admm": admm})


def test_removed_certify_field_rejected(tmp_path, capsys):
    _assert_config_rejected(tmp_path, capsys, {"certify": False})


def test_removed_sigma_field_rejected(tmp_path, capsys):
    _assert_config_rejected(tmp_path, capsys, {"sigma": 1.0})


@pytest.mark.parametrize("cfg, field", [
    ({"admm": {"n_iter": 10.5}}, "n_iter"),
    ({"expert_eval_horizon": 2000.5}, "expert_eval_horizon"),
    ({"N_values": [2.7]}, "N_values"),
    ({"seeds": [0.0]}, "seeds"),
])
def test_non_integer_counts_rejected(tmp_path, capsys, cfg, field):
    assert field in _assert_config_rejected(tmp_path, capsys, cfg)


@pytest.mark.parametrize("argv", [
    ["fit-kalman", "--system", "s.json", "--demos", "d.json", "--inits", "2"],
    ["fit-kalman", "--system", "s.json", "--demos", "d.json", "--seed", "1"],
    ["experiment", "--out", "rows.csv", "--seed", "1"],
    ["fit-kalman", "--system", "s.json", "--demos", "d.json", "--no-certify"],
    ["experiment", "--out", "rows.csv", "--no-certify"],
    ["experiment", "--out", "rows.csv", "--iters", "3"],
])
def test_removed_flags_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1


def test_custom_experiment_command(tmp_path, system_file):
    spath, _, _ = system_file
    cfg = {"experiment": "custom", "dynamics_path": str(spath),
           "N_values": [2], "seeds": [0],
           "admm": {"n_iter": 5},
           "expert_eval_horizon": 2000}
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps(cfg))
    out = tmp_path / "custom.csv"
    assert main(["experiment", "--config", str(cpath),
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 4
    assert all(line.startswith("custom,2,0,") for line in lines[1:])


_TWO_STATE = {"A": [[1.0, 0.2], [0.0, 0.9]], "B": [[0.0], [1.0]]}


def _write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_non_object_system_file_is_config_error(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[[1.0]]")
    assert main(["lqr", "--system", str(path)]) == 1
    assert "bad system file" in capsys.readouterr().err


_KINDS = ("system", "demos", "gain", "experiment config")


def _read_kind(tmp_path, capsys, kind, text):
    """Exit code and stderr of the command that reads a ``kind`` file
    holding ``text`` (no file when None), and that file's path; every
    other file it reads is valid, and it prints no traceback."""
    path = str(tmp_path / f"input-{kind.replace(' ', '-')}.json")
    if text is not None:
        Path(path).write_text(text)
    spath = _write_json(tmp_path, "system.json", _TWO_STATE)
    argv = {"system": ["lqr", "--system", path],
            "demos": ["fit", "--demos", path],
            "gain": ["check-kalman", "--system", spath, "--gain", path],
            "experiment config": ["experiment", "--config", path, "--out",
                                  str(tmp_path / "rows.csv")]}[kind]
    code = main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err, path


def test_missing_file_is_config_error(tmp_path, capsys):
    # the OSError itself, for every kind of input file
    for kind in _KINDS:
        code, err, path = _read_kind(tmp_path, capsys, kind, None)
        assert code == 1
        assert err == f"lqfit: [Errno 2] No such file or directory: '{path}'\n"


def test_bad_json_is_config_error(tmp_path, capsys):
    for kind in _KINDS:
        code, err, path = _read_kind(tmp_path, capsys, kind, "{not json")
        assert code == 1
        assert err.startswith(f"lqfit: bad {kind} file {path}: Expecting ")


def test_non_object_file_is_config_error(tmp_path, capsys):
    for kind in _KINDS:
        code, err, path = _read_kind(tmp_path, capsys, kind, "[1, 2]")
        assert code == 1
        assert err == (f"lqfit: bad {kind} file {path}: the top-level JSON "
                       "value must be an object\n")


def test_bad_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lqr", "--bogus"])
    assert exc.value.code == 1


def test_solver_failure_exit_code(tmp_path):
    path = tmp_path / "uncontrollable.json"
    path.write_text(json.dumps(
        {"A": [[1.0]], "B": [[0.0]], "W": [[0.0]]}))
    assert main(["lqr", "--system", str(path)]) == 2


def test_non_object_demos_file_is_config_error(tmp_path, system_file,
                                               capsys):
    spath, _, _ = system_file
    path = tmp_path / "list.json"
    path.write_text("[[1.0]]")
    assert main(["fit", "--demos", str(path)]) == 1
    assert "bad demos file" in capsys.readouterr().err
    assert main(["fit-kalman", "--system", str(spath),
                 "--demos", str(path)]) == 1
    assert "bad demos file" in capsys.readouterr().err


def test_non_object_gain_file_is_config_error(tmp_path, system_file, capsys):
    spath, _, _ = system_file
    gain = tmp_path / "gain.json"
    gain.write_text("5")
    assert main(["check-kalman", "--system", str(spath),
                 "--gain", str(gain)]) == 1
    assert "bad gain file" in capsys.readouterr().err


def test_gain_file_requires_k(tmp_path, system_file, capsys):
    spath, _, _ = system_file
    gain = tmp_path / "gain.json"
    gain.write_text(json.dumps({"M": [[1.0]]}))
    assert main(["check-kalman", "--system", str(spath),
                 "--gain", str(gain)]) == 1
    assert (f"bad gain file {gain}: no 'K' matrix"
            in capsys.readouterr().err)


@pytest.mark.parametrize("field", ["A", "Q"])
def test_non_finite_system_file_is_config_error(tmp_path, capsys, field):
    system = dict(_TWO_STATE, Q=np.eye(2).tolist())
    system[field] = [[float("nan"), 0.0], [0.0, 1.0]]
    path = _write_json(tmp_path, "system.json", system)
    assert main(["lqr", "--system", path]) == 1
    assert f"{field} must be finite" in capsys.readouterr().err


def test_non_finite_demos_are_config_error(tmp_path, capsys):
    # Python's json reads NaN; the fit must not print it back
    path = _write_json(tmp_path, "demos.json", {
        "states": [[float("nan"), 1.0], [0.5, 1.0]], "inputs": [[1.0], [0.2]]})
    assert main(["fit", "--demos", path]) == 1
    captured = capsys.readouterr()
    assert "bad demos file" in captured.err and "NaN" not in captured.out


def test_non_finite_gain_is_config_error(tmp_path, capsys):
    spath = _write_json(tmp_path, "system.json", _TWO_STATE)
    gain = _write_json(tmp_path, "gain.json", {"K": [[float("inf"), 0.0]]})
    assert main(["check-kalman", "--system", spath, "--gain", gain]) == 1
    assert "must be finite" in capsys.readouterr().err


def test_overflowing_demos_are_solver_failures(tmp_path, capsys):
    # finite data whose fit is not finite: exit 2, not a NaN gain
    spath = _write_json(tmp_path, "system.json", _TWO_STATE)
    path = _write_json(tmp_path, "demos.json", {
        "states": [[1e308, 1.0], [0.5, 1.0]], "inputs": [[1.0], [0.2]]})
    with np.errstate(all="ignore"):
        assert main(["fit", "--demos", path]) == 2
        assert main(["fit-kalman", "--system", spath, "--demos", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("solver failure") == 2


def test_system_matrix_sizes_checked(tmp_path, capsys):
    system = dict(_TWO_STATE, Sigma=np.eye(2).tolist())
    spath = _write_json(tmp_path, "system.json", system)
    cpath = _write_json(tmp_path, "config.json", {
        "experiment": "custom", "dynamics_path": spath, "N_values": [2],
        "seeds": [0], "admm": {"n_iter": 5}, "expert_eval_horizon": 200})
    out = str(tmp_path / "custom.csv")
    assert main(["experiment", "--config", cpath, "--out", out]) == 1
    assert (f"bad system file {spath}: Sigma must be 1x1"
            in capsys.readouterr().err)
    for field, size, expected in (("Q", 1, "2x2"), ("R", 2, "1x1")):
        spath = _write_json(tmp_path, "system.json", dict(
            _TWO_STATE, **{field: np.eye(size).tolist()}))
        assert main(["lqr", "--system", spath]) == 1
        assert f"{field} must be {expected}" in capsys.readouterr().err


@pytest.mark.parametrize("field, M", [
    ("R", [[0.0]]), ("Q", [[1.0, 5.0], [0.0, -3.0]])])
def test_bad_weights_are_config_errors(tmp_path, capsys, field, M):
    path = _write_json(tmp_path, "system.json", dict(_TWO_STATE, **{field: M}))
    assert main(["lqr", "--system", path]) == 1
    err = capsys.readouterr().err
    assert f"bad system file {path}: {field} must be" in err


def test_null_weights_take_their_defaults(tmp_path, capsys):
    path = _write_json(tmp_path, "system.json", dict(
        _TWO_STATE, W=None, Q=None, R=None, Sigma=None))
    assert main(["lqr", "--system", path]) == 0
    K = json.loads(capsys.readouterr().out)["K"]
    default = _write_json(tmp_path, "default.json", _TWO_STATE)
    assert main(["lqr", "--system", default]) == 0
    assert json.loads(capsys.readouterr().out)["K"] == K


@pytest.mark.parametrize("kind, payload, message", [
    ("system", dict(_TWO_STATE, B=[[], []]),
     "B must have at least one column, got shape (2, 0)"),
    ("demos", {"states": [[], []], "inputs": [[1.0], [0.2]]},
     "states must have at least one column, got shape (2, 0)"),
])
def test_no_states_or_inputs_is_config_error(tmp_path, capsys, kind, payload,
                                             message):
    path = _write_json(tmp_path, f"{kind}.json", payload)
    argv = (["lqr", "--system", path] if kind == "system"
            else ["fit", "--demos", path])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert f"bad {kind} file {path}: {message}" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_mismatched_demos_are_config_errors(tmp_path, capsys):
    spath = _write_json(tmp_path, "system.json", _TWO_STATE)
    for states, inputs, shape in (([[1.0, 0.0, 0.0]] * 2, [[1.0]] * 2,
                                   "(2, 3)"),
                                  ([[1.0, 0.0]] * 4, [[1.0, 0.0]] * 4,
                                   "inputs (4, 2)")):
        dpath = _write_json(tmp_path, "demos.json",
                            {"states": states, "inputs": inputs})
        assert main(["fit-kalman", "--system", spath, "--demos", dpath]) == 1
        err = capsys.readouterr().err
        assert err.startswith("lqfit: problem 0: ") and shape in err
        assert "(n, m) = (2, 1)" in err


@pytest.mark.parametrize("flags, name", [
    (["check-kalman", "--tol", "nan"], "tol"),
    (["check-kalman", "--tol", "-1"], "tol"),
    (["fit-kalman", "--rho", "nan"], "rho"),
    (["fit-kalman", "--eps", "nan"], "eps"),
    (["fit-kalman", "--loss", "huber", "--huber-m", "nan"], "huber_m"),
    (["fit-kalman", "--rho", "inf"], "rho"),
    (["fit", "--lam", "inf"], "ridge weight"),
    (["fit", "--loss", "huber", "--huber-m", "inf"], "huber_m"),
])
def test_nan_parameter_exits_one(tmp_path, system_file, demos_file, capsys,
                                 flags, name):
    spath, dyn, cost = system_file
    dpath, _, K = demos_file
    gain = tmp_path / "gain.json"
    gain.write_text(json.dumps({"K": K.tolist()}))
    extra = {"check-kalman": ["--system", str(spath), "--gain", str(gain)],
             "fit-kalman": ["--system", str(spath), "--demos", str(dpath),
                            "--iters", "2"],
             "fit": ["--demos", str(dpath)]}[flags[0]]
    assert main([flags[0], *extra, *flags[1:]]) == 1
    assert name in capsys.readouterr().err
