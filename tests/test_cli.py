import csv
import json
import re

import numpy as np
import pytest

from ddinv import __version__, cli, fileio
from ddinv.experiment import PlantModel, simulate_closed_loop

DEMO_CONFIG = {
    "model": {"A": [[0.8, 0.5], [-0.4, 1.2]], "B": [[0.0], [1.0]]},
    "state_set": [[0.2, 0.4], [-0.2, -0.4], [-0.15, 0.2], [0.15, -0.2]],
    "input_set": [[1.0 / 7.0], [-1.0 / 7.0]],
    "lambda": 0.84,
    "samples": 20,
    "seed": 7,
    "x0": [1.0, 0.0],
    "input_amplitude": 1.0,
}

ROBUST_CONFIG = {
    "model": {"A": [[0.3, 0.1], [-0.1, 0.2]], "B": [[0.0], [1.0]]},
    "state_set": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
    "input_set": [[0.2], [-0.2]],
    "samples": 8,
    "seed": 5,
    "input_amplitude": 3.0,
    "disturbance_radius": 0.05,
}


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def demo_problem(tmp_path):
    cfg = _write_config(tmp_path, DEMO_CONFIG)
    out = str(tmp_path / "problem.json")
    assert cli.main(["generate", cfg, "--out", out]) == 0
    return out


def test_generate_reports_data_quality(tmp_path, capsys):
    cfg = _write_config(tmp_path, DEMO_CONFIG)
    out = str(tmp_path / "problem.json")
    assert cli.main(["generate", cfg, "--out", out]) == 0
    captured = capsys.readouterr()
    match = re.search(r"excitation order achieved: (\d+) \(target 3\)", captured.out)
    assert match and int(match.group(1)) >= 3
    assert "full row rank: yes" in captured.out
    spec = fileio.load_problem(out)
    assert spec.lam == 0.84
    assert spec.data["u0t"].shape == (1, 20)
    assert spec.meta["seed"] == 7


def test_generate_warns_on_short_experiment(tmp_path, capsys):
    cfg = _write_config(tmp_path, {**DEMO_CONFIG, "samples": 3})
    out = str(tmp_path / "problem.json")
    assert cli.main(["generate", cfg, "--out", out]) == 0
    assert "below the minimum 5" in capsys.readouterr().err


def test_seed_override_changes_the_data(tmp_path, demo_problem):
    cfg = _write_config(tmp_path, DEMO_CONFIG, "config2.json")
    other = str(tmp_path / "problem8.json")
    assert cli.main(["generate", cfg, "--seed", "8", "--out", other]) == 0
    assert fileio.file_digest(demo_problem) != fileio.file_digest(other)


def test_synthesize_verify_simulate_flow(tmp_path, demo_problem, capsys):
    cert_path = str(tmp_path / "certificate.json")
    assert cli.main(["synthesize", demo_problem, "--out", cert_path]) == 0
    out = capsys.readouterr().out
    assert "lambda: 0.84" in out
    assert "contractivity   ok" in out

    record = fileio.load_certificate(cert_path)
    assert record.lam == 0.84
    assert record.tool_version == __version__
    assert record.input_digest == fileio.file_digest(demo_problem)
    assert record.verification["contractivity_ok"] is True
    assert record.g_matrix.shape == (20, 2)

    assert cli.main(["verify", demo_problem, cert_path]) == 0
    assert "all checks passed" in capsys.readouterr().out

    prefix = str(tmp_path / "run")
    assert cli.main(["simulate", demo_problem, cert_path,
                     "--x0", "6,-0.5", "--steps", "30", "--out", prefix]) == 0
    with open(prefix + ".csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x1", "x2", "u1", "V"]
    assert len(rows) == 32
    values = [float(r[4]) for r in rows[1:]]
    for t, v in enumerate(values):
        assert v <= 0.84 ** t + 1e-6
    for suffix in (".svg", "_input.svg"):
        text = open(prefix + suffix).read()
        assert text.startswith("<svg") and "polyline" in text


def test_minimize_lambda_flag(tmp_path, demo_problem):
    cert_path = str(tmp_path / "certificate.json")
    assert cli.main(["synthesize", demo_problem, "--lambda", "min",
                     "--out", cert_path]) == 0
    record = fileio.load_certificate(cert_path)
    assert record.lam == pytest.approx(0.7583333333, abs=1e-6)


def test_infeasible_level_exits_two(tmp_path, demo_problem, capsys):
    cert_path = str(tmp_path / "certificate.json")
    assert cli.main(["synthesize", demo_problem, "--lambda", "0.2",
                     "--out", cert_path]) == 2
    assert "infeasible" in capsys.readouterr().err


def test_bad_lambda_value_exits_one(tmp_path, demo_problem):
    cert_path = str(tmp_path / "certificate.json")
    assert cli.main(["synthesize", demo_problem, "--lambda", "1.5",
                     "--out", cert_path]) == 1
    assert cli.main(["synthesize", demo_problem, "--lambda", "tight",
                     "--out", cert_path]) == 1


def test_tampered_gain_fails_verification(tmp_path, demo_problem, capsys):
    cert_path = str(tmp_path / "certificate.json")
    assert cli.main(["synthesize", demo_problem, "--out", cert_path]) == 0
    record = fileio.load_certificate(cert_path)
    record.gain = np.array([[5.0, 5.0]])
    fileio.save_certificate(record, cert_path)
    capsys.readouterr()
    assert cli.main(["verify", demo_problem, cert_path]) == 2
    assert "FAILED" in capsys.readouterr().out


def test_overflowing_decay_rollout_prints_no_warning(tmp_path, demo_problem, capsys):
    cert_path = str(tmp_path / "certificate.json")
    assert cli.main(["synthesize", demo_problem, "--out", cert_path]) == 0
    record = fileio.load_certificate(cert_path)
    record.g_matrix = 1e8 * record.g_matrix
    fileio.save_certificate(record, cert_path)
    capsys.readouterr()
    assert cli.main(["verify", demo_problem, cert_path]) == 2
    captured = capsys.readouterr()
    assert "decay margin    inf" in captured.out
    assert captured.err == ""


def test_gain_shape_mismatch_exits_one(tmp_path, demo_problem):
    cert_path = str(tmp_path / "certificate.json")
    assert cli.main(["synthesize", demo_problem, "--out", cert_path]) == 0
    record = fileio.load_certificate(cert_path)
    record.gain = np.array([[1.0, 2.0, 3.0]])
    fileio.save_certificate(record, cert_path)
    assert cli.main(["verify", demo_problem, cert_path]) == 1


def test_digest_mismatch_warns_but_verifies(tmp_path, demo_problem, capsys):
    cert_path = str(tmp_path / "certificate.json")
    assert cli.main(["synthesize", demo_problem, "--out", cert_path]) == 0
    raw = json.loads(open(demo_problem).read())
    raw["meta"]["seed"] = 1234  # content change that leaves the data intact
    open(demo_problem, "w").write(json.dumps(raw))
    capsys.readouterr()
    assert cli.main(["verify", demo_problem, cert_path]) == 0
    assert "digest differs" in capsys.readouterr().err


def test_problem_with_both_sources_is_rejected(tmp_path, demo_problem):
    raw = json.loads(open(demo_problem).read())
    raw["model"] = {"A": DEMO_CONFIG["model"]["A"], "B": DEMO_CONFIG["model"]["B"]}
    open(demo_problem, "w").write(json.dumps(raw))
    cert_path = str(tmp_path / "certificate.json")
    assert cli.main(["synthesize", demo_problem, "--out", cert_path]) == 1


def test_robust_flow(tmp_path, capsys):
    cfg = _write_config(tmp_path, ROBUST_CONFIG)
    problem = str(tmp_path / "problem.json")
    assert cli.main(["generate", cfg, "--out", problem]) == 0
    spec = fileio.load_problem(problem)
    assert spec.disturbance_vertices.shape == (4, 2)

    cert_path = str(tmp_path / "certificate.json")
    assert cli.main(["synthesize", problem, "--robust", "--out", cert_path]) == 0
    record = fileio.load_certificate(cert_path)
    assert record.lam == 1.0
    assert record.p_matrix is None and record.g_matrix is not None
    assert record.verification["robust_ok"] is True

    capsys.readouterr()
    assert cli.main(["verify", problem, cert_path]) == 0

    # the disturbed closed loop cannot be rebuilt from data alone
    assert cli.main(["simulate", problem, cert_path, "--x0", "0.5,0.5",
                     "--steps", "10", "--out", str(tmp_path / "run")]) == 1


def test_robust_flag_requires_disturbance(tmp_path, demo_problem):
    cert_path = str(tmp_path / "certificate.json")
    assert cli.main(["synthesize", demo_problem, "--robust",
                     "--out", cert_path]) == 1


def test_simulate_rejects_outside_start(tmp_path, demo_problem):
    cert_path = str(tmp_path / "certificate.json")
    assert cli.main(["synthesize", demo_problem, "--out", cert_path]) == 0
    assert cli.main(["simulate", demo_problem, cert_path, "--x0", "100,0",
                     "--steps", "5", "--out", str(tmp_path / "run")]) == 2
    assert cli.main(["simulate", demo_problem, cert_path, "--x0", "a,b",
                     "--steps", "5", "--out", str(tmp_path / "run")]) == 1
    assert cli.main(["simulate", demo_problem, cert_path, "--x0", "1",
                     "--steps", "5", "--out", str(tmp_path / "run")]) == 1


def test_simulate_accepts_negative_first_entry(tmp_path, demo_problem):
    cert_path = str(tmp_path / "certificate.json")
    assert cli.main(["synthesize", demo_problem, "--out", cert_path]) == 0
    prefix = str(tmp_path / "run")
    assert cli.main(["simulate", demo_problem, cert_path, "--x0", "-0.1,0.05",
                     "--steps", "3", "--out", prefix, "--format", "csv"]) == 0
    with open(prefix + ".csv", newline="") as fh:
        first = list(csv.reader(fh))[1]
    assert [float(v) for v in first[1:3]] == [-0.1, 0.05]


def test_simulate_rejects_non_finite_start(tmp_path, demo_problem, capsys):
    cert_path = str(tmp_path / "certificate.json")
    assert cli.main(["synthesize", demo_problem, "--out", cert_path]) == 0
    capsys.readouterr()
    for start in ("nan,0", "0,inf", "-inf,0"):
        prefix = str(tmp_path / "run")
        assert cli.main(["simulate", demo_problem, cert_path, "--x0", start,
                         "--steps", "3", "--out", prefix]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "run.csv").exists()


def test_format_filter(tmp_path, demo_problem):
    cert_path = str(tmp_path / "certificate.json")
    assert cli.main(["synthesize", demo_problem, "--out", cert_path]) == 0
    csv_only = str(tmp_path / "csvrun")
    assert cli.main(["simulate", demo_problem, cert_path, "--x0", "1,0",
                     "--out", csv_only, "--format", "csv"]) == 0
    assert (tmp_path / "csvrun.csv").exists()
    assert not (tmp_path / "csvrun.svg").exists()
    svg_only = str(tmp_path / "svgrun")
    assert cli.main(["simulate", demo_problem, cert_path, "--x0", "1,0",
                     "--out", svg_only, "--format", "svg"]) == 0
    assert (tmp_path / "svgrun.svg").exists()
    assert not (tmp_path / "svgrun.csv").exists()


def test_missing_files_exit_one(tmp_path):
    assert cli.main(["generate", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "p.json")]) == 1
    assert cli.main(["synthesize", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "c.json")]) == 1
    assert cli.main(["verify", str(tmp_path / "nope.json"),
                     str(tmp_path / "also-nope.json")]) == 1


def _refuse_constant(token):
    raise ValueError(f"{token} is not a JSON number")


def _patched_synthesize(monkeypatch, change):
    real = cli.synthesize

    def changed(problem):
        certificate = real(problem)
        change(certificate)
        return certificate

    monkeypatch.setattr(cli, "synthesize", changed)


def test_certificate_with_overflowing_margin_is_strict_json(tmp_path, demo_problem,
                                                            monkeypatch, capsys):
    # a combiner scaled by 1e8 overflows the decay rollout: the margin is +inf
    _patched_synthesize(monkeypatch, lambda cert: setattr(cert, "g_matrix", 1e8 * cert.g_matrix))
    cert_path = tmp_path / "certificate.json"
    assert cli.main(["synthesize", demo_problem, "--out", str(cert_path)]) == 2
    assert "decay margin    inf" in capsys.readouterr().out
    raw = json.loads(cert_path.read_text(), parse_constant=_refuse_constant)
    assert raw["verification"]["lyapunov_decay_margin"] == "inf"
    assert fileio.load_certificate(str(cert_path)).verification == raw["verification"]


def test_non_finite_gain_exits_one_and_writes_nothing(tmp_path, demo_problem,
                                                      monkeypatch, capsys):
    _patched_synthesize(monkeypatch, lambda cert: cert.gain.__setitem__((0, 0), np.nan))
    cert_path = tmp_path / "certificate.json"
    assert cli.main(["synthesize", demo_problem, "--out", str(cert_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "non-finite" in err
    assert not cert_path.exists()


def test_point_that_breaks_the_program_exits_one(tmp_path, demo_problem, capsys,
                                                shift_solver_points):
    shift_solver_points(1e-3)
    cert_path = tmp_path / "certificate.json"
    assert cli.main(["synthesize", demo_problem, "--out", str(cert_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "breaks the program by" in err
    assert "Traceback" not in err
    assert not cert_path.exists()


def test_generate_rejects_non_finite_start(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**DEMO_CONFIG, "x0": [float("nan"), 0.0]}))
    assert cli.main(["generate", str(cfg), "--out", str(tmp_path / "p.json")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("mutate", [
    lambda raw: raw["data"]["u0t"].update(shape="ab"),
    lambda raw: raw["data"]["x0t"].update(values=["x"] * 40),
    lambda raw: raw.update({"lambda": False}),
])
def test_malformed_problem_exits_one_without_traceback(tmp_path, demo_problem, capsys,
                                                       mutate):
    raw = json.loads(open(demo_problem).read())
    mutate(raw)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    capsys.readouterr()
    assert cli.main(["synthesize", str(path), "--out", str(tmp_path / "c.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_boolean_certificate_level_exits_one(tmp_path, demo_problem, capsys):
    cert_path = tmp_path / "certificate.json"
    assert cli.main(["synthesize", demo_problem, "--out", str(cert_path)]) == 0
    raw = json.loads(cert_path.read_text())
    raw["lambda"] = False
    cert_path.write_text(json.dumps(raw))
    capsys.readouterr()
    assert cli.main(["verify", demo_problem, str(cert_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def _forge_zero(record):
    record.gain, record.g_matrix, record.p_matrix = (
        0.0 * record.gain, 0.0 * record.g_matrix, 0.0 * record.p_matrix)


def _forge_halved(record):
    # P / 2 certifies X1 G / 2 at the same level, but X0 G / 2 = I / 2
    record.gain, record.g_matrix, record.p_matrix = (
        record.gain / 2, record.g_matrix / 2, record.p_matrix / 2)


def _forge_gain(record):
    record.gain = record.gain / 2


@pytest.mark.parametrize("forge", [_forge_zero, _forge_halved, _forge_gain])
def test_forged_data_certificate_fails_verification(tmp_path, demo_problem, capsys, forge):
    cert_path = str(tmp_path / "certificate.json")
    assert cli.main(["synthesize", demo_problem, "--out", cert_path]) == 0
    record = fileio.load_certificate(cert_path)
    forge(record)
    fileio.save_certificate(record, cert_path)
    capsys.readouterr()
    assert cli.main(["verify", demo_problem, cert_path]) == 2
    assert "certificate     FAILED" in capsys.readouterr().out


def test_robust_certificate_with_scaled_combiner_fails_verification(tmp_path, capsys):
    problem = str(tmp_path / "problem.json")
    assert cli.main(["generate", _write_config(tmp_path, ROBUST_CONFIG), "--out", problem]) == 0
    cert_path = str(tmp_path / "certificate.json")
    assert cli.main(["synthesize", problem, "--robust", "--out", cert_path]) == 0
    record = fileio.load_certificate(cert_path)
    record.gain, record.g_matrix = record.gain / 2, record.g_matrix / 2
    fileio.save_certificate(record, cert_path)
    capsys.readouterr()
    assert cli.main(["verify", problem, cert_path]) == 2
    out = capsys.readouterr().out
    assert "robustness      ok" in out and "certificate     FAILED" in out


def test_nan_in_problem_data_exits_one(tmp_path, demo_problem, capsys):
    raw = json.loads(open(demo_problem).read())
    raw["data"]["x1t"]["values"][3] = float("nan")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))  # a bare NaN token, which json.load accepts
    assert "NaN" in path.read_text()
    capsys.readouterr()
    assert cli.main(["synthesize", str(path), "--out", str(tmp_path / "c.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "data.x1t" in err
    assert "iteration_limit" not in err and "Traceback" not in err


def test_infinite_combiner_in_certificate_exits_one(tmp_path, demo_problem, capsys):
    cert_path = tmp_path / "certificate.json"
    assert cli.main(["synthesize", demo_problem, "--out", str(cert_path)]) == 0
    raw = json.loads(cert_path.read_text())
    raw["g_matrix"]["values"][0] = float("inf")
    cert_path.write_text(json.dumps(raw))
    capsys.readouterr()
    assert cli.main(["verify", demo_problem, str(cert_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "g_matrix" in err


@pytest.mark.parametrize("field, shape", [("gain", (1, 3)), ("g_matrix", (19, 2))])
def test_simulate_checks_certificate_shapes(tmp_path, demo_problem, capsys, field, shape):
    cert_path = str(tmp_path / "certificate.json")
    assert cli.main(["synthesize", demo_problem, "--out", cert_path]) == 0
    record = fileio.load_certificate(cert_path)
    setattr(record, field, np.ones(shape))
    fileio.save_certificate(record, cert_path)
    capsys.readouterr()
    assert cli.main(["simulate", demo_problem, cert_path, "--x0", "1,0",
                     "--steps", "5", "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "run.csv").exists()


def test_simulate_on_the_model_route_rolls_out_a_plus_b_k(tmp_path):
    model = DEMO_CONFIG["model"]
    spec = fileio.ProblemSpec(
        state_rows=np.array(DEMO_CONFIG["state_set"]), input_rows=np.array(DEMO_CONFIG["input_set"]),
        lam=0.84, model={"a": np.array(model["A"]), "b": np.array(model["B"])})
    problem = str(tmp_path / "problem.json")
    fileio.save_problem(spec, problem)
    cert_path = str(tmp_path / "certificate.json")
    assert cli.main(["synthesize", problem, "--out", cert_path]) == 0
    assert cli.main(["verify", problem, cert_path]) == 0
    prefix = str(tmp_path / "run")
    assert cli.main(["simulate", problem, cert_path, "--x0", "6,-0.5", "--steps", "30",
                     "--out", prefix, "--format", "csv"]) == 0
    with open(prefix + ".csv", newline="") as fh:
        rows = np.array([[float(v) for v in row] for row in list(csv.reader(fh))[1:]])
    plant = PlantModel(model["A"], model["B"])
    states, _ = simulate_closed_loop(plant, fileio.load_certificate(cert_path).gain,
                                     [6.0, -0.5], 30)
    np.testing.assert_allclose(rows[:, 1:3], states, rtol=1e-12, atol=1e-12)
