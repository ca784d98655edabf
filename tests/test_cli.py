import contextlib
import csv
import io
import json
import math
import os
import re
import runpy
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from ddinv import __version__, cli, fileio, lp, synthesis, verification
from ddinv.experiment import PlantModel, simulate_closed_loop
from ddinv.polytopes import InputPolytope, validate_cset
from ddinv.synthesis import find_certificate_matrix
from ddinv.verification import check_robust_invariance, closed_loop

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
    assert spec.data.u0t.shape == (1, 20)
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

    record, digest = fileio.load_certificate(cert_path)
    raw = json.loads(Path(cert_path).read_text())
    assert record.lam == 0.84
    assert raw["tool_version"] == __version__
    assert digest == fileio.file_digest(demo_problem)
    assert raw["verification"]["contractivity_ok"] is True
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
    record, _ = fileio.load_certificate(cert_path)
    assert record.lam == pytest.approx(0.7583333333, abs=1e-6)


def test_infeasible_level_exits_two(tmp_path, demo_problem, capsys):
    cert_path = str(tmp_path / "certificate.json")
    assert cli.main(["synthesize", demo_problem, "--lambda", "0.2",
                     "--out", cert_path]) == 2
    assert "infeasible" in capsys.readouterr().err


def test_infeasible_on_full_rank_data_names_no_rank(tmp_path, demo_problem, capsys, monkeypatch):
    ranked = []
    monkeypatch.setattr(synthesis, "data_has_full_row_rank",
                        lambda data: ranked.append(data) or True)
    cert_path = str(tmp_path / "certificate.json")
    assert cli.main(["synthesize", demo_problem, "--out", cert_path]) == 0
    assert ranked == []  # a feasible verdict needs no rank
    capsys.readouterr()
    assert cli.main(["synthesize", demo_problem, "--lambda", "0.2", "--out", cert_path]) == 2
    assert capsys.readouterr().err == "infeasible: data-based design at level 0.2 is infeasible\n"
    assert len(ranked) == 1


def test_infeasible_on_short_data_names_the_rank_condition(tmp_path, capsys):
    # two samples cannot give [U0; X0] rank 3, so "infeasible" says nothing
    # about the plant, whose least level is 0.758333
    cfg = _write_config(tmp_path, {**DEMO_CONFIG, "samples": 2})
    problem = str(tmp_path / "problem.json")
    assert cli.main(["generate", cfg, "--out", problem]) == 0
    capsys.readouterr()
    cert_path = tmp_path / "certificate.json"
    assert cli.main(["synthesize", problem, "--lambda", "min", "--out", str(cert_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("infeasible: data-based level minimization is infeasible; "
                          "but [U0; X0] lacks full row rank (m + n = 3)")
    assert "a gain for the plant may still exist" in err
    assert len(err.splitlines()) == 1 and not cert_path.exists()


def test_bad_lambda_value_exits_one(tmp_path, demo_problem):
    cert_path = str(tmp_path / "certificate.json")
    assert cli.main(["synthesize", demo_problem, "--lambda", "1.5",
                     "--out", cert_path]) == 1
    assert cli.main(["synthesize", demo_problem, "--lambda", "tight",
                     "--out", cert_path]) == 1


def test_tampered_gain_fails_verification(tmp_path, demo_problem, capsys):
    cert_path = str(tmp_path / "certificate.json")
    assert cli.main(["synthesize", demo_problem, "--out", cert_path]) == 0
    record, digest = fileio.load_certificate(cert_path)
    record.gain = np.array([[5.0, 5.0]])
    fileio.save_certificate(record, cert_path, {}, digest)
    capsys.readouterr()
    assert cli.main(["verify", demo_problem, cert_path]) == 2
    assert "FAILED" in capsys.readouterr().out


def test_overflowing_decay_rollout_prints_no_warning(tmp_path, demo_problem, capsys):
    # a combiner scaled by 1e308 overflows the closed loop X1 G itself: the
    # checks fail on its inf and NaN entries, and stderr holds no warning,
    # only the line that names the failed part of the data route
    cert_path = str(tmp_path / "certificate.json")
    assert cli.main(["synthesize", demo_problem, "--out", cert_path]) == 0
    record, digest = fileio.load_certificate(cert_path)
    record.g_matrix = 1e308 * record.g_matrix
    fileio.save_certificate(record, cert_path, {}, digest)
    capsys.readouterr()
    assert cli.main(["verify", demo_problem, cert_path]) == 2
    captured = capsys.readouterr()
    assert "worst vertex gauge nan" in captured.out
    assert captured.err == ("certificate failed: the certificate fails X0 G = I or U0 G = K, "
                            "so its gain does not drive the closed loop it certifies\n")


def test_certificate_with_an_old_report_key_still_verifies(tmp_path, demo_problem, capsys):
    # certificates written while verify rolled the closed loop out carry a
    # decay margin in their report; nothing reads the report back
    cert_path = tmp_path / "certificate.json"
    assert cli.main(["synthesize", demo_problem, "--out", str(cert_path)]) == 0
    raw = json.loads(cert_path.read_text())
    assert "lyapunov_decay_margin" not in raw["verification"]
    raw["verification"]["lyapunov_decay_margin"] = 0.0
    cert_path.write_text(fileio.canonical_dumps(raw))
    capsys.readouterr()
    assert cli.main(["verify", demo_problem, str(cert_path)]) == 0
    assert "all checks passed" in capsys.readouterr().out
    record, digest = fileio.load_certificate(str(cert_path))
    resaved = tmp_path / "resaved.json"
    fileio.save_certificate(record, resaved, raw["verification"], digest)
    assert resaved.read_bytes() == cert_path.read_bytes()


@pytest.mark.parametrize("config, robust_ok", [(DEMO_CONFIG, None), (ROBUST_CONFIG, True)])
def test_certificate_with_a_robust_ok_key_still_verifies(tmp_path, capsys, config, robust_ok):
    # reports once carried robust_ok: null without a disturbance set, and
    # otherwise contractivity_ok's value. Such a certificate still loads,
    # and verify prints what it prints for the certificate without the key
    problem, cert_path = str(tmp_path / "problem.json"), tmp_path / "certificate.json"
    assert cli.main(["generate", _write_config(tmp_path, config), "--out", problem]) == 0
    assert cli.main(["synthesize", problem, "--out", str(cert_path)]) == 0
    capsys.readouterr()
    assert cli.main(["verify", problem, str(cert_path)]) == 0
    fresh = capsys.readouterr()
    raw = json.loads(cert_path.read_text())
    assert "robust_ok" not in raw["verification"]
    raw["verification"]["robust_ok"] = robust_ok
    cert_path.write_text(fileio.canonical_dumps(raw))
    assert fileio.load_certificate(str(cert_path))[0].lam == raw["lambda"]
    assert cli.main(["verify", problem, str(cert_path)]) == 0
    assert capsys.readouterr() == fresh


@pytest.fixture(scope="module")
def demo_certified(tmp_path_factory):
    """A demo problem and the certificate synthesize writes for it."""
    tmp_path = tmp_path_factory.mktemp("certified")
    problem, cert_path = str(tmp_path / "problem.json"), str(tmp_path / "certificate.json")
    assert cli.main(["generate", _write_config(tmp_path, DEMO_CONFIG), "--out", problem]) == 0
    assert cli.main(["synthesize", problem, "--out", cert_path]) == 0
    return problem, cert_path


@settings(max_examples=40, deadline=None)
@given(field=st.sampled_from(["gain", "g_matrix", "p_matrix"]),
       exponent=st.floats(-308.0, 308.0), sign=st.sampled_from([1.0, -1.0]))
@example(field="g_matrix", exponent=300.0, sign=1.0)
@example(field="g_matrix", exponent=308.0, sign=-1.0)
@example(field="gain", exponent=308.0, sign=1.0)
@example(field="p_matrix", exponent=308.0, sign=1.0)
def test_scaled_certificates_end_in_a_clean_exit(tmp_path_factory, demo_certified,
                                                 field, exponent, sign):
    # the suite turns numpy's RuntimeWarning into an error, so an overflow
    # that reached a warning would end in a traceback instead of an exit code
    problem, cert_path = demo_certified
    record, digest = fileio.load_certificate(cert_path)
    setattr(record, field, sign * 10.0 ** exponent * getattr(record, field))
    tmp_path = tmp_path_factory.mktemp("scaled")
    scaled = str(tmp_path / "certificate.json")
    fileio.save_certificate(record, scaled, {}, digest)
    assert cli.main(["verify", problem, scaled]) in (0, 1, 2)
    assert cli.main(["simulate", problem, scaled, "--x0", "6,-0.5", "--format", "csv",
                     "--out", str(tmp_path / "run")]) in (0, 1, 2)


def test_gain_shape_mismatch_exits_one(tmp_path, demo_problem):
    cert_path = str(tmp_path / "certificate.json")
    assert cli.main(["synthesize", demo_problem, "--out", cert_path]) == 0
    record, digest = fileio.load_certificate(cert_path)
    record.gain = np.array([[1.0, 2.0, 3.0]])
    fileio.save_certificate(record, cert_path, {}, digest)
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


def test_digest_mismatch_warns_but_simulates(tmp_path, demo_problem, capsys):
    cert_path = str(tmp_path / "certificate.json")
    assert cli.main(["synthesize", demo_problem, "--out", cert_path]) == 0
    raw = json.loads(open(demo_problem).read())
    raw["meta"]["seed"] = 1234  # content change that leaves the data intact
    open(demo_problem, "w").write(json.dumps(raw))
    capsys.readouterr()
    assert cli.main(["simulate", demo_problem, cert_path, "--x0", "1,0", "--format", "csv",
                     "--out", str(tmp_path / "run")]) == 0
    assert capsys.readouterr().err == ("warning: problem file digest differs from the one "
                                       "recorded in the certificate\n")
    assert (tmp_path / "run.csv").exists()


def test_problem_with_both_sources_designs_from_data_and_judges_on_the_model(
        tmp_path, demo_problem, capsys):
    # the data give G and the gain, and the model's loop A + B K is the one
    # judged: the true model passes it, a model with A[1][1] = 1.5 does not
    raw = json.loads(open(demo_problem).read())
    for a22, code in ((1.2, 0), (1.5, 2)):
        model = json.loads(json.dumps(DEMO_CONFIG["model"]))
        model["A"][1][1] = a22
        raw["model"] = model
        open(demo_problem, "w").write(json.dumps(raw))
        cert_path = str(tmp_path / f"certificate_{code}.json")
        capsys.readouterr()
        assert cli.main(["synthesize", demo_problem, "--out", cert_path]) == code
        assert fileio.load_certificate(cert_path)[0].g_matrix.shape == (20, 2)
        assert capsys.readouterr().err == ("" if code == 0 else "verification failed\n")


def test_robust_flow(tmp_path, capsys):
    cfg = _write_config(tmp_path, ROBUST_CONFIG)
    problem = str(tmp_path / "problem.json")
    assert cli.main(["generate", cfg, "--out", problem]) == 0
    spec = fileio.load_problem(problem)
    assert spec.disturbance.vertices.shape == (4, 2)

    cert_path = str(tmp_path / "certificate.json")
    assert cli.main(["synthesize", problem, "--out", cert_path]) == 0
    record, _ = fileio.load_certificate(cert_path)
    assert record.lam == 1.0
    assert record.p_matrix is None and record.g_matrix is not None
    assert json.loads(Path(cert_path).read_text())["verification"]["contractivity_ok"] is True

    capsys.readouterr()
    assert cli.main(["verify", problem, cert_path]) == 0

    # the disturbed closed loop cannot be rebuilt from data alone
    assert cli.main(["simulate", problem, cert_path, "--x0", "0.5,0.5",
                     "--steps", "10", "--out", str(tmp_path / "run")]) == 1


def test_a_disturbance_segment_off_the_origin_is_refused_by_every_command(tmp_path, capsys):
    # the segment from (-0.001, 1e-13) to (0.001, 1e-13) misses the origin;
    # judged with one power of two for both coordinates, the hull check once
    # took it for a set around the origin, and synthesize and verify both
    # exited 0 on it
    config = _write_config(tmp_path, {**DEMO_CONFIG, "disturbance_radius": 0.001})
    problem, cert_path = tmp_path / "problem.json", str(tmp_path / "certificate.json")
    assert cli.main(["generate", config, "--out", str(problem)]) == 0
    assert cli.main(["synthesize", str(problem), "--out", cert_path]) == 0
    raw = json.loads(problem.read_text())
    raw["disturbance"]["vertices"] = [[0.001, 1e-13], [-0.001, 1e-13]]
    problem.write_text(json.dumps(raw))
    capsys.readouterr()
    refusal = "error: invalid problem: disturbance hull must contain the origin\n"
    assert cli.main(["synthesize", str(problem), "--out", str(tmp_path / "other.json")]) == 1
    assert capsys.readouterr().err == refusal
    assert not (tmp_path / "other.json").exists()
    assert cli.main(["verify", str(problem), cert_path]) == 1
    assert capsys.readouterr().err == refusal


def test_robust_flag_is_a_usage_error(tmp_path, demo_problem, capsys):
    # the disturbance block, not a flag, selects robust design
    cert_path = tmp_path / "certificate.json"
    capsys.readouterr()
    assert cli.main(["synthesize", demo_problem, "--robust", "--out", str(cert_path)]) == 1
    assert "unrecognized arguments: --robust" in capsys.readouterr().err
    assert not cert_path.exists()


def test_robust_design_on_a_model_is_refused_by_the_problem(tmp_path, capsys):
    # SynthesisProblem refuses a disturbance without data, and main reports it
    path = tmp_path / "problem.json"
    assert cli.main(["generate", _write_config(tmp_path, ROBUST_CONFIG), "--out", str(path)]) == 0
    raw = json.loads(path.read_text())
    raw["model"] = ROBUST_CONFIG["model"]
    del raw["data"]
    path.write_text(json.dumps(raw))
    capsys.readouterr()
    assert cli.main(["synthesize", str(path),
                     "--out", str(tmp_path / "certificate.json")]) == 1
    assert capsys.readouterr().err == "error: robust synthesis works on experiment data\n"
    assert not (tmp_path / "certificate.json").exists()


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
    # a combiner scaled by 1e308 overflows the closed loop: the worst vertex
    # gauge is NaN, written as the string "nan"
    _patched_synthesize(monkeypatch,
                        lambda cert: setattr(cert, "g_matrix", 1e308 * cert.g_matrix))
    cert_path = tmp_path / "certificate.json"
    assert cli.main(["synthesize", demo_problem, "--out", str(cert_path)]) == 2
    assert "worst vertex gauge nan" in capsys.readouterr().out
    raw = json.loads(cert_path.read_text(), parse_constant=_refuse_constant)
    assert raw["verification"]["worst_vertex_gauge"] == "nan"
    record, digest = fileio.load_certificate(str(cert_path))
    resaved = tmp_path / "resaved.json"
    fileio.save_certificate(record, resaved, raw["verification"], digest)
    assert resaved.read_bytes() == cert_path.read_bytes()


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


@pytest.mark.parametrize("config", [DEMO_CONFIG, ROBUST_CONFIG], ids=["demo", "robust"])
def test_generate_and_load_run_without_the_solver(tmp_path, monkeypatch, config):
    # set validation and the disturbance hull check solve no LP
    def no_solver(prob):
        raise AssertionError("generate must not call lp.solve")

    monkeypatch.setattr(lp, "solve", no_solver)
    out = tmp_path / "problem.json"
    assert cli.main(["generate", _write_config(tmp_path, config), "--out", str(out)]) == 0
    spec = fileio.load_problem(str(out))
    assert spec.state_set.vertices.shape == (4, 2)
    assert (spec.disturbance is None) == ("disturbance_radius" not in config)


def _run_fresh(lines):
    """Run the code lines in a new interpreter that imports ddinv from this
    checkout."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    code = "\n".join(["import sys", f"sys.path.insert(0, {src!r})", *lines])
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)


def test_importing_the_cli_loads_no_scipy():
    # scipy is imported on the first pivot, not with the package
    run = _run_fresh(["import ddinv, ddinv.cli",
                      "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"])
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_generate_verify_and_simulate_run_without_scipy(tmp_path, demo_certified):
    # none of the three solves, so a process that cannot import scipy runs
    # them all; the certificate comes from a synthesize in this process
    _, cert_path = demo_certified
    cfg, problem = _write_config(tmp_path, DEMO_CONFIG), str(tmp_path / "problem.json")
    commands = [["generate", cfg, "--out", problem], ["verify", problem, cert_path],
                ["simulate", problem, cert_path, "--x0", "6,-0.5", "--steps", "50",
                 "--out", str(tmp_path / "run")]]
    run = _run_fresh(["sys.modules['scipy'] = None", "from ddinv import cli",
                      *(f"assert cli.main({argv!r}) == 0, {argv[0]!r}" for argv in commands)])
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    assert "all checks passed" in run.stdout
    assert (tmp_path / "run.svg").is_file() and (tmp_path / "run_input.svg").is_file()


def test_generate_and_load_a_six_state_plant_with_a_disturbance_box(tmp_path):
    # the disturbance box has 2^6 corners and the state box 12 rows: both set
    # checks stay one small least-squares problem each
    n = 6
    config = {
        "model": {"A": (0.5 * np.eye(n) + 0.1 * np.eye(n, k=1)).tolist(),
                  "B": np.eye(n, 1, k=-(n - 1)).tolist()},
        "state_set": np.vstack([np.eye(n), -np.eye(n)]).tolist(),
        "input_set": [[1.0], [-1.0]],
        "samples": 20,
        "seed": 3,
        "disturbance_radius": 0.01,
    }
    out = tmp_path / "problem.json"
    assert cli.main(["generate", _write_config(tmp_path, config), "--out", str(out)]) == 0
    spec = fileio.load_problem(str(out))
    assert spec.state_set.vertices.shape == (2 ** n, n)
    assert spec.disturbance.vertices.shape == (2 ** n, n)


@pytest.mark.parametrize("status, named", [
    (lp.LpStatus.PHASE_ONE_BREAKDOWN, "phase one broke down"),
    (lp.LpStatus.ITERATION_LIMIT, "solver returned iteration_limit"),
], ids=["phase-one-breakdown", "iteration-limit"])
def test_failed_robust_design_solve_exits_one_naming_the_status(tmp_path, monkeypatch, capsys,
                                                                 status, named):
    # the design program is the only solve of a robust synthesize
    cfg = _write_config(tmp_path, ROBUST_CONFIG)
    problem = str(tmp_path / "problem.json")
    assert cli.main(["generate", cfg, "--out", problem]) == 0
    capsys.readouterr()
    calls = []

    def failing(prob):
        calls.append(prob)
        return lp.LpSolution(status)

    monkeypatch.setattr(lp, "solve", failing)
    cert_path = tmp_path / "cert.json"
    assert cli.main(["synthesize", problem, "--out", str(cert_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f"{named}\n"), err
    assert len(calls) == 1 and not cert_path.exists()


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
    record, digest = fileio.load_certificate(cert_path)
    forge(record)
    fileio.save_certificate(record, cert_path, {}, digest)
    capsys.readouterr()
    assert cli.main(["verify", demo_problem, cert_path]) == 2
    assert "certificate     FAILED" in capsys.readouterr().out


def test_simulate_refuses_a_gain_the_combiner_does_not_give(tmp_path, demo_problem, capsys):
    # X1 G is the closed loop of K = U0 G; with another gain stored the states
    # and the inputs of the table would belong to two different loops
    cert_path = str(tmp_path / "certificate.json")
    assert cli.main(["synthesize", demo_problem, "--out", cert_path]) == 0
    record, digest = fileio.load_certificate(cert_path)
    record.gain = 2.0 * record.gain
    fileio.save_certificate(record, cert_path, {}, digest)
    assert cli.main(["verify", demo_problem, cert_path]) == 2
    capsys.readouterr()
    assert cli.main(["simulate", demo_problem, cert_path, "--x0", "1,0",
                     "--out", str(tmp_path / "run")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: the certificate fails X0 G = I or U0 G = K")
    assert captured.out == "" and not list(tmp_path.glob("run*"))


def test_sizes_too_large_to_allocate_exit_one_and_write_nothing(tmp_path, demo_problem,
                                                                capsys):
    # no 64-bit address space holds 10**17 rows, so numpy refuses the size
    # before it allocates anything
    cert_path = str(tmp_path / "certificate.json")
    assert cli.main(["synthesize", demo_problem, "--out", cert_path]) == 0
    capsys.readouterr()
    assert cli.main(["simulate", demo_problem, cert_path, "--x0", "1,0",
                     "--steps", str(10**17), "--out", str(tmp_path / "run")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: out of memory: ") and "Traceback" not in captured.err
    assert not list(tmp_path.glob("run*"))
    out = tmp_path / "huge.json"
    config = _write_config(tmp_path, {**DEMO_CONFIG, "samples": 10**17})
    assert cli.main(["generate", config, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: out of memory: ") and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("config", [
    DEMO_CONFIG, {**DEMO_CONFIG, "disturbance_radius": 0.001},
], ids=["nominal", "robust"])
def test_data_entry_near_the_float_limit_ends_in_one_error_line(tmp_path, config):
    # a separate process, so that stderr shows any numpy warning as a user
    # would see it: the nominal program's tableau overflows in the simplex,
    # the robust one's rows overflow while the program is built
    problem = tmp_path / "problem.json"
    assert cli.main(["generate", _write_config(tmp_path, config), "--out", str(problem)]) == 0
    raw = json.loads(problem.read_text())
    raw["data"]["x1t"]["values"][21] = 1e308
    problem.write_text(json.dumps(raw))
    out = tmp_path / "certificate.json"
    run = subprocess.run(
        [sys.executable, "-m", "ddinv.cli", "synthesize", str(problem), "--out", str(out)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])})
    assert run.returncode == 1
    assert re.fullmatch(r"error: [^\n]+\n", run.stderr), run.stderr
    assert "Traceback" not in run.stderr and "Warning" not in run.stderr
    if "disturbance_radius" in config:
        assert "overflows while being built" in run.stderr
    assert not out.exists()


def _quiet_main(argv):
    """cli.main with its output swallowed."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


@pytest.mark.parametrize("radius", [0.05, 1e-3, 1e-6])
def test_plain_synthesize_on_disturbed_data_gives_only_robust_certificates(tmp_path, radius):
    # a nominal design on these data once passed verify at levels near 1e-13
    # while the true loop A + B K left the set; the disturbance block now
    # selects robust design, and each certificate verify accepts holds on
    # the true loop
    plant = PlantModel(DEMO_CONFIG["model"]["A"], DEMO_CONFIG["model"]["B"])
    config = _write_config(tmp_path, {**DEMO_CONFIG, "disturbance_radius": radius})
    problem, cert_path = str(tmp_path / "problem.json"), str(tmp_path / "certificate.json")
    accepted = 0
    for seed in range(40):
        assert _quiet_main(["generate", config, "--seed", str(seed), "--out", problem]) == 0
        code = _quiet_main(["synthesize", problem, "--out", cert_path])
        assert code in (0, 2)
        if code != 0 or _quiet_main(["verify", problem, cert_path]) != 0:
            continue
        accepted += 1
        record, _ = fileio.load_certificate(cert_path)
        assert record.p_matrix is None and record.lam == 1.0
        spec = fileio.load_problem(problem)
        assert check_robust_invariance(plant.a_matrix + plant.b_matrix @ record.gain,
                                       spec.state_set, spec.disturbance)[0]
    assert accepted >= 35


def test_nominal_certificate_on_disturbed_data_fails_verify(tmp_path, capsys):
    # the library designs nominally from disturbed data; verify takes the
    # route from the problem, not from the certificate's shape
    problem = tmp_path / "problem.json"
    config = _write_config(tmp_path, {**DEMO_CONFIG, "disturbance_radius": 1e-3})
    assert cli.main(["generate", config, "--out", str(problem)]) == 0
    spec = fileio.load_problem(str(problem))
    cert = synthesis.synthesize(synthesis.SynthesisProblem(
        spec.state_set, spec.input_set, synthesis.MINIMIZE, spec.data))
    assert cert.p_matrix is not None and cert.lam < 1e-6
    cert_path = str(tmp_path / "certificate.json")
    fileio.save_certificate(cert, cert_path, {}, fileio.file_digest(str(problem)))
    capsys.readouterr()
    assert cli.main(["verify", str(problem), cert_path]) == 2
    assert "contractivity   FAILED" in capsys.readouterr().out
    assert cli.main(["simulate", str(problem), cert_path, "--x0", "1,0",
                     "--out", str(tmp_path / "run")]) == 1
    assert "needs a model block" in capsys.readouterr().err

    # without the disturbance block, the rank test of the data route fails it
    raw = json.loads(problem.read_text())
    del raw["disturbance"]
    problem.write_text(json.dumps(raw))
    assert cli.main(["verify", str(problem), cert_path]) == 2
    out = capsys.readouterr().out
    assert "certificate     FAILED" in out and "contractivity   ok" in out
    assert cli.main(["simulate", str(problem), cert_path, "--x0", "1,0",
                     "--out", str(tmp_path / "run")]) == 2
    captured = capsys.readouterr()
    # the edit also moved the file's digest away from the recorded one
    assert captured.err.startswith(
        "warning: problem file digest differs from the one recorded in the certificate\n"
        "error: no noise-free linear plant explains the data")
    assert captured.out == "" and not list(tmp_path.glob("run*"))


def test_a_zero_disturbance_radius_is_no_disturbance(tmp_path, capsys):
    # a radius of 0 once wrote a disturbance block of corners at the origin,
    # which made synthesize certify level 1 in place of the file's level
    files = []
    zero = {**DEMO_CONFIG, "disturbance_radius": 0}
    for name, config in (("plain", DEMO_CONFIG), ("zero", zero)):
        problem, cert_path = tmp_path / f"{name}.json", str(tmp_path / f"{name}_cert.json")
        assert cli.main(["generate", _write_config(tmp_path, config, f"{name}_config.json"),
                         "--out", str(problem)]) == 0
        assert cli.main(["synthesize", str(problem), "--out", cert_path]) == 0
        assert fileio.load_certificate(cert_path)[0].lam == 0.84
        files.append(problem.read_bytes())
    assert files[0] == files[1]
    assert "disturbance" not in json.loads(files[1])


@pytest.mark.parametrize("case", ["halved_g_and_p", "doubled_gain", "disturbed_data"])
def test_verify_names_the_failed_part_of_the_data_route(tmp_path, capsys, case):
    # verify and simulate read their reason from the one rule, so the two
    # commands name the same failed condition in the same words
    problem, cert_path = str(tmp_path / "problem.json"), str(tmp_path / "certificate.json")
    config = ({**DEMO_CONFIG, "disturbance_radius": 1e-3} if case == "disturbed_data"
              else DEMO_CONFIG)
    assert cli.main(["generate", _write_config(tmp_path, config), "--out", problem]) == 0
    if case == "disturbed_data":
        spec = fileio.load_problem(problem)
        record = synthesis.synthesize(synthesis.SynthesisProblem(
            spec.state_set, spec.input_set, synthesis.MINIMIZE, spec.data))
        raw = json.loads(Path(problem).read_text())
        del raw["disturbance"]
        Path(problem).write_text(json.dumps(raw))
        digest = fileio.file_digest(problem)
    else:
        assert cli.main(["synthesize", problem, "--out", cert_path]) == 0
        capsys.readouterr()
        assert cli.main(["verify", problem, cert_path]) == 0
        assert capsys.readouterr().err == ""
        record, digest = fileio.load_certificate(cert_path)
        if case == "halved_g_and_p":
            record.g_matrix, record.p_matrix = record.g_matrix / 2, record.p_matrix / 2
        else:
            record.gain = 2 * record.gain
    fileio.save_certificate(record, cert_path, {}, digest)
    capsys.readouterr()
    assert cli.main(["verify", problem, cert_path]) == 2
    captured = capsys.readouterr()
    assert "certificate     FAILED" in captured.out
    assert captured.err.startswith("certificate failed: ") and captured.err.count("\n") == 1
    reason = captured.err[len("certificate failed: "):]
    assert cli.main(["simulate", problem, cert_path, "--x0", "1,0",
                     "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"error: {reason}"
    assert reason.startswith("no noise-free linear plant" if case == "disturbed_data"
                             else "the certificate fails X0 G = I or U0 G = K")


RANK_REFUSAL = ("no noise-free linear plant explains the data (rank [U0; X0; X1] > "
                "rank [U0; X0]), so X1 G is not the closed loop the gain drives")


def _noisy_problem_in_large_state_units(tmp_path):
    """A problem file of disturbed demo data without a disturbance block,
    the states written in units of 2^26, and the path of its certificate."""
    generated = str(tmp_path / "generated.json")
    config = _write_config(tmp_path, {**DEMO_CONFIG, "disturbance_radius": 0.05})
    assert cli.main(["generate", config, "--out", generated]) == 0
    data, scale = fileio.load_problem(generated).data, 2.0 ** 26
    problem, cert_path = tmp_path / "problem.json", str(tmp_path / "certificate.json")
    problem.write_text(json.dumps({
        "state_set": (np.array(DEMO_CONFIG["state_set"]) * scale).tolist(),
        "input_set": DEMO_CONFIG["input_set"], "lambda": "min",
        "data": {"u0t": fileio.matrix_to_obj(data.u0t),
                 "x0t": fileio.matrix_to_obj(data.x0t / scale),
                 "x1t": fileio.matrix_to_obj(data.x1t / scale)}}))
    return str(problem), cert_path


def test_noisy_data_in_large_state_units_fail_the_rank_test(tmp_path, capsys):
    # with the states written in units of 2^26, their rows once sat below the
    # rank tolerance next to the inputs' rows, so the rank test called these
    # disturbed data explained and both commands passed X1 G as the loop
    problem, cert_path = _noisy_problem_in_large_state_units(tmp_path)
    capsys.readouterr()
    assert cli.main(["synthesize", problem, "--out", cert_path]) == 2
    assert capsys.readouterr().err == (f"certificate failed: {RANK_REFUSAL}\n"
                                       "verification failed\n")
    assert cli.main(["verify", problem, cert_path]) == 2
    assert capsys.readouterr().err == f"certificate failed: {RANK_REFUSAL}\n"


def test_a_refused_loop_is_named_in_the_certificate(tmp_path):
    problem, cert_path = _noisy_problem_in_large_state_units(tmp_path)
    assert cli.main(["synthesize", problem, "--out", cert_path]) == 2

    def refuse(token):
        raise ValueError(f"not strict JSON: {token}")

    text = Path(cert_path).read_text()
    assert json.loads(text, parse_constant=refuse)["verification"]["loop_refusal"] == RANK_REFUSAL
    certificate, _ = fileio.load_certificate(cert_path)
    assert certificate.g_matrix is not None


def test_verify_asks_the_loop_rule_once(tmp_path, monkeypatch, capsys):
    problem, cert_path = _noisy_problem_in_large_state_units(tmp_path)
    assert cli.main(["synthesize", problem, "--out", cert_path]) == 2
    calls = []
    consistency = verification.check_data_consistency
    monkeypatch.setattr(verification, "check_data_consistency",
                        lambda *args: calls.append(args) or consistency(*args))
    capsys.readouterr()
    assert cli.main(["verify", problem, cert_path]) == 2
    assert len(calls) == 1
    assert capsys.readouterr().err == f"certificate failed: {RANK_REFUSAL}\n"


def test_robust_certificate_with_scaled_combiner_fails_verification(tmp_path, capsys):
    problem = str(tmp_path / "problem.json")
    assert cli.main(["generate", _write_config(tmp_path, ROBUST_CONFIG), "--out", problem]) == 0
    cert_path = str(tmp_path / "certificate.json")
    assert cli.main(["synthesize", problem, "--out", cert_path]) == 0
    record, digest = fileio.load_certificate(cert_path)
    record.gain, record.g_matrix = record.gain / 2, record.g_matrix / 2
    fileio.save_certificate(record, cert_path, {}, digest)
    capsys.readouterr()
    assert cli.main(["verify", problem, cert_path]) == 2
    captured = capsys.readouterr()
    assert "contractivity   ok" in captured.out and "certificate     FAILED" in captured.out
    assert captured.err == ("certificate failed: the certificate fails X0 G = I or U0 G = K, "
                            "so its gain does not drive the closed loop it certifies\n")


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
    record, digest = fileio.load_certificate(cert_path)
    setattr(record, field, np.ones(shape))
    fileio.save_certificate(record, cert_path, {}, digest)
    capsys.readouterr()
    assert cli.main(["simulate", demo_problem, cert_path, "--x0", "1,0",
                     "--steps", "5", "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "run.csv").exists()


def _plant_problem(tmp_path, config=DEMO_CONFIG):
    """A problem file with the config's plant and sets and no data."""
    model = config["model"]
    spec = fileio.ProblemSpec(
        state_set=validate_cset(np.array(config["state_set"])),
        input_set=InputPolytope(np.array(config["input_set"])),
        lam=config["lambda"], model=PlantModel(np.array(model["A"]), np.array(model["B"])))
    problem = str(tmp_path / "problem.json")
    fileio.save_problem(spec, problem)
    return problem


@pytest.mark.parametrize("where", ["flag", "file"])
def test_a_negative_zero_level_is_zero(tmp_path, capsys, where):
    # 0.0 <= -0.0 holds, so a range test alone lets -0.0 through to the
    # printed level and the certificate; F = 0 makes level 0 feasible
    config = {"model": {"A": [[0.0, 0.0], [0.0, 0.0]], "B": [[0.0], [1.0]]},
              "state_set": ROBUST_CONFIG["state_set"], "input_set": [[1.0], [-1.0]],
              "lambda": 0.5}
    problem = _plant_problem(tmp_path, config)
    flags = ["--lambda", "-0"] if where == "flag" else []
    if where == "file":
        raw = json.loads(Path(problem).read_text())
        raw["lambda"] = -0.0
        Path(problem).write_text(json.dumps(raw))
        assert '"lambda": -0.0' in Path(problem).read_text()
    cert_path = tmp_path / "certificate.json"
    capsys.readouterr()
    assert cli.main(["synthesize", problem, "--out", str(cert_path), *flags]) == 0
    assert "lambda: 0\n" in capsys.readouterr().out
    lam = json.loads(cert_path.read_text())["lambda"]
    assert lam == 0.0 and math.copysign(1.0, lam) == 1.0


def test_simulate_on_the_model_route_rolls_out_a_plus_b_k(tmp_path):
    model = DEMO_CONFIG["model"]
    problem = _plant_problem(tmp_path)
    cert_path = str(tmp_path / "certificate.json")
    assert cli.main(["synthesize", problem, "--out", cert_path]) == 0
    assert cli.main(["verify", problem, cert_path]) == 0
    prefix = str(tmp_path / "run")
    assert cli.main(["simulate", problem, cert_path, "--x0", "6,-0.5", "--steps", "30",
                     "--out", prefix, "--format", "csv"]) == 0
    with open(prefix + ".csv", newline="") as fh:
        rows = np.array([[float(v) for v in row] for row in list(csv.reader(fh))[1:]])
    plant = PlantModel(model["A"], model["B"])
    states, _ = simulate_closed_loop(plant, fileio.load_certificate(cert_path)[0].gain,
                                     [6.0, -0.5], 30)
    # both roll out A + B K itself, so the CSV holds the library's states bit for bit
    np.testing.assert_array_equal(rows[:, 1:3], states)


CUBE_CONFIG = {
    "model": {"A": [[0.5, 0.2, 0.0], [0.0, 0.6, 0.3], [0.1, 0.0, 0.7]],
              "B": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]},
    "state_set": np.vstack([np.eye(3), -np.eye(3), [[0.6, 0.6, 0.0], [-0.6, -0.6, 0.0]]]).tolist(),
    "input_set": np.vstack([np.eye(2), -np.eye(2)]).tolist(),
    "lambda": 0.95,
    "samples": 30,
    "seed": 3,
    "input_amplitude": 1.0,
}


@pytest.mark.parametrize("route, start, steps", [
    ("data", "6,-0.5", 30), ("data", "-4,1.9", 200), ("data", "0.3,0.1", 1),
    ("model", "6,-0.5", 30), ("cube", "0.5,-0.3,0.2", 40)])
def test_simulate_csv_matches_the_row_by_row_loop(tmp_path, demo_problem, route, start, steps):
    if route == "cube":
        problem = str(tmp_path / "cube.json")
        assert cli.main(["generate", _write_config(tmp_path, CUBE_CONFIG, "cube_config.json"),
                         "--out", problem]) == 0
    else:
        problem = demo_problem if route == "data" else _plant_problem(tmp_path)
    cert_path = str(tmp_path / "certificate.json")
    assert cli.main(["synthesize", problem, "--out", cert_path]) == 0
    prefix = str(tmp_path / "run")
    assert cli.main(["simulate", problem, cert_path, "--x0", start, "--steps", str(steps),
                     "--out", prefix, "--format", "csv"]) == 0
    spec = fileio.load_problem(problem)
    certificate, _ = fileio.load_certificate(cert_path)
    with open(prefix + ".csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    f_matrix, _ = closed_loop(certificate, spec.state_set, spec.input_set, spec.data, spec.model)
    assert rows == oracles.simulate_rows_loop(
        f_matrix, certificate.gain, spec.state_set,
        [float(v) for v in start.split(",")], steps)


def _unstable_certificate(tmp_path):
    """The demo plant's problem file and a certificate whose gain [[3, 3]]
    makes the closed loop grow about 4.5-fold a step."""
    problem = _plant_problem(tmp_path)
    cert_path = str(tmp_path / "certificate.json")
    assert cli.main(["synthesize", problem, "--out", cert_path]) == 0
    record, digest = fileio.load_certificate(cert_path)
    record.gain = np.array([[3.0, 3.0]])
    fileio.save_certificate(record, cert_path, {}, digest)
    return problem, cert_path


def test_overflowing_rollout_exits_one_and_writes_nothing(tmp_path, capsys):
    problem, cert_path = _unstable_certificate(tmp_path)
    capsys.readouterr()
    assert cli.main(["simulate", problem, cert_path, "--x0", "1,0", "--steps", "1000",
                     "--out", str(tmp_path / "run")]) == 1
    captured = capsys.readouterr()
    step = re.fullmatch(r"error: the closed loop overflows: step (\d+) of the rollout "
                        r"is not finite\n", captured.err)
    assert step and captured.out == ""
    assert not list(tmp_path.glob("run*"))
    # the step named is the first whose row would not be finite
    for steps, code in ((int(step.group(1)) - 1, 0), (int(step.group(1)), 1)):
        assert cli.main(["simulate", problem, cert_path, "--x0", "1,0", "--steps", str(steps),
                         "--out", str(tmp_path / "short"), "--format", "csv"]) == code


@pytest.mark.parametrize("config", [
    {**DEMO_CONFIG, "model": {"A": [[1e308, 0.5], [-0.4, 1.2]], "B": [[0.0], [1.0]]}},
    {**DEMO_CONFIG, "x0": [1e308, 0.0]},
], ids=["huge-model-entry", "huge-x0"])
def test_overflowing_experiment_exits_one_and_writes_nothing(tmp_path, capsys, config):
    out = tmp_path / "problem.json"
    capsys.readouterr()
    assert cli.main(["generate", _write_config(tmp_path, config), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert re.fullmatch(r"error: the experiment overflows: state x\(\d+\) is not finite\n",
                        captured.err)
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("steps", [467, 468])
def test_rollout_too_large_to_plot_exits_one_and_writes_nothing(tmp_path, capsys, steps):
    # the rollout of the test above is still finite at these steps, near
    # 1e307, but mapping it onto the state plane overflows: a clean error,
    # no warning and no file, as for a rollout that overflows itself
    problem, cert_path = _unstable_certificate(tmp_path)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fmt in ([], ["--format", "svg"]):
            assert cli.main(["simulate", problem, cert_path, "--x0", "1,0", "--steps", str(steps),
                             "--out", str(tmp_path / "run"), *fmt]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == ("error: cannot plot the rollout: the scene reaches too far "
                                    "out for finite screen coordinates\n")
            assert not list(tmp_path.glob("run*"))
        # the table itself is finite, so the CSV alone is written
        assert cli.main(["simulate", problem, cert_path, "--x0", "1,0", "--steps", str(steps),
                         "--out", str(tmp_path / "run"), "--format", "csv"]) == 0
    assert [path.name for path in tmp_path.glob("run*")] == ["run.csv"]


def test_one_sided_input_set_plots_finite_coordinates(tmp_path):
    problem = _plant_problem(tmp_path, {**DEMO_CONFIG, "input_set": [[1.0 / 7.0]]})
    cert_path = str(tmp_path / "certificate.json")
    assert cli.main(["synthesize", problem, "--out", cert_path]) == 0
    prefix = str(tmp_path / "run")
    assert cli.main(["simulate", problem, cert_path, "--x0", "6,-0.5", "--steps", "30",
                     "--out", prefix]) == 0
    text = Path(prefix + "_input.svg").read_text()
    assert "nan" not in text and "inf" not in text


def _zero_samples(raw, _):
    raw["data"] = {key: {"shape": [rows, 0], "values": []}
                   for key, rows in (("u0t", 1), ("x0t", 2), ("x1t", 2))}


def _forge_level_above_one(raw, spec):
    """The stored certificate moved along the null space of X0 and
    re-certified at level 1.5: X0 G' = I and U0 G' = K' still hold and P
    certifies X1 G' at that level, but X1 G' maps a vertex out of the set."""
    null = scipy.linalg.null_space(spec.data.x0t)
    g = fileio.obj_to_matrix(raw["g_matrix"], "g_matrix") + 0.5 * null[:, :1] @ [[1.0, 0.0]]
    p = find_certificate_matrix(spec.data.x1t @ g, spec.state_set, 1.5)
    raw.update({"lambda": 1.5, "gain": fileio.matrix_to_rows(spec.data.u0t @ g),
                "g_matrix": fileio.matrix_to_obj(g), "p_matrix": fileio.matrix_to_obj(p)})


@pytest.mark.parametrize("x0, refusal", [
    (["1", "0"], "x0 must be a flat list of numbers"),
    ([True, False], "x0 must be a flat list of numbers"),
    ([[1.0], [0.0]], "x0 must be a flat list of numbers"),
    ({"values": [1.0, 0.0]}, "x0 must be a flat list of numbers"),
    ([1.0, 0.0, 0.0], "x0 must hold 2 numbers, one per state"),
    ([10**400, 0.0], "x0 has an entry too large for a float"),
    ([float("nan"), 0.0], "x0 has a non-finite entry"),
], ids=["strings", "booleans", "nested", "object", "too-long", "10**400", "nan"])
def test_loose_x0_is_a_bad_config_that_names_the_field_and_the_file(tmp_path, capsys, x0,
                                                                     refusal):
    # the start follows the rule of a matrix file's values: JSON numbers,
    # flat and finite, and one per state
    config = _write_config(tmp_path, {**DEMO_CONFIG, "x0": x0})
    out = tmp_path / "out.json"
    assert cli.main(["generate", config, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: bad config: {config}: {refusal}\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("samples", [10**400, 2**62], ids=["10**400", "2**62"])
def test_too_many_samples_is_a_bad_config_that_names_the_field_and_the_file(tmp_path, capsys,
                                                                           samples):
    # numpy would refuse the experiment's arrays with a line that names
    # neither the field nor the file
    config = _write_config(tmp_path, {**DEMO_CONFIG, "samples": samples})
    out = tmp_path / "out.json"
    assert cli.main(["generate", config, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: bad config: {config}: samples must be at most ")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("name", ["input_amplitude", "disturbance_radius"])
def test_an_oversized_magnitude_is_a_bad_config_that_names_it(tmp_path, capsys, name):
    # the JSON integer 10**400 once reached float() in the CLI and read
    # "int too large to convert to float"
    config = _write_config(tmp_path, {**DEMO_CONFIG, name: 10**400})
    out = tmp_path / "problem.json"
    capsys.readouterr()
    assert cli.main(["generate", config, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: bad config: {config}: {name} is too large for a float\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("target, content", [
    ("config", 5),
    ("config", {**DEMO_CONFIG, "seed": -1}),
    ("config --seed -1", DEMO_CONFIG),
    ("config", {**DEMO_CONFIG, "input_amplitude": float("nan")}),
    ("config", {**ROBUST_CONFIG, "disturbance_radius": -1}),
    ("config", {**ROBUST_CONFIG, "disturbance_radius": "x"}),
    ("config", {**DEMO_CONFIG, "samples": True}),
    ("config", {**DEMO_CONFIG, "samples": 2.7}),
    ("config", {**DEMO_CONFIG, "state_set": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]}),
    ("config", {**DEMO_CONFIG, "state_set": [[1.0, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]]}),
    ("problem", 5),
    ("certificate", 5),
    ("problem", "state_set input_set lambda data"),
    ("certificate", "gain lambda"),
    ("problem", lambda raw, _: raw.update(data=[1, 2])),
    ("problem", lambda raw, _: raw.update(model="A B")),
    ("problem", lambda raw, _: raw.update(disturbance=3)),
    ("problem", _zero_samples),
    ("problem", lambda raw, _: raw.update(meta=[1])),
    ("certificate", lambda raw, _: raw.update(verification=[1])),
    ("certificate", lambda raw, _: raw.update(tool_version=5)),
    ("certificate", lambda raw, _: raw.update(input_digest=5)),
    ("certificate", _forge_level_above_one),
    ("certificate", lambda raw, _: raw.update({"lambda": 1.5})),
    ("certificate", lambda raw, _: raw.update({"lambda": 1e308})),
    ("certificate", lambda raw, _: raw.update({"lambda": -0.5})),
    ("certificate", lambda raw, _: raw.update({"lambda": float("nan")})),
    ("config", {**DEMO_CONFIG, "input_amplitude": 1e308}),
    ("config", {**ROBUST_CONFIG, "disturbance_radius": 1e308}),
    # matrices that ddinv never writes: a fractional shape, a numeric string,
    # nested values that still hold rows * cols numbers, a boolean entry
    ("problem", lambda raw, _: raw["data"]["x1t"]["shape"].__setitem__(0, 2.7)),
    ("problem", lambda raw, _: raw["data"]["x1t"]["values"].__setitem__(3, "0.2")),
    ("certificate", lambda raw, _: raw["g_matrix"].update(
        values=[[value] for value in raw["g_matrix"]["values"]])),
    ("certificate", lambda raw, _: raw["gain"][0].__setitem__(0, str(raw["gain"][0][0]))),
    ("certificate", lambda raw, _: raw["p_matrix"]["values"].__setitem__(0, True)),
    # a start that is not a flat list of JSON numbers
    ("config", {**DEMO_CONFIG, "x0": ["1", "0"]}),
    ("config", {**DEMO_CONFIG, "x0": [True, False]}),
    ("config", {**DEMO_CONFIG, "x0": [[1.0], [0.0]]}),
])
def test_malformed_file_exits_one_without_traceback(tmp_path, demo_problem, capsys,
                                                    target, content):
    cert_path = tmp_path / "certificate.json"
    assert cli.main(["synthesize", demo_problem, "--out", str(cert_path)]) == 0
    target, *flags = target.split()
    path = {"config": tmp_path / "config.json", "problem": Path(demo_problem),
            "certificate": cert_path}[target]
    if callable(content):
        raw = json.loads(path.read_text())
        content(raw, fileio.load_problem(demo_problem))
        content = raw
    path.write_text(json.dumps(content))
    out = tmp_path / "out.json"
    argv = {"config": ["generate", str(path), "--out", str(out), *flags],
            "problem": ["synthesize", str(path), "--out", str(out)],
            "certificate": ["verify", demo_problem, str(path)]}[target]
    capsys.readouterr()
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


def test_consecutive_commands_do_not_share_options(tmp_path, demo_problem):
    tight, plain = str(tmp_path / "tight.json"), str(tmp_path / "plain.json")
    assert cli.main(["synthesize", demo_problem, "--lambda", "min", "--out", tight]) == 0
    assert cli.main(["synthesize", demo_problem, "--out", plain]) == 0
    assert fileio.load_certificate(tight)[0].lam < 0.84
    assert fileio.load_certificate(plain)[0].lam == 0.84

    cert_path = plain
    for name, flags in (("svgrun", ["--format", "svg"]), ("fullrun", [])):
        assert cli.main(["simulate", demo_problem, cert_path, "--x0", "1,0",
                         "--out", str(tmp_path / name), *flags]) == 0
    assert not (tmp_path / "svgrun.csv").exists()
    assert (tmp_path / "fullrun.csv").exists() and (tmp_path / "fullrun.svg").exists()


def _model_problem(tmp_path, demo_problem):
    """A model-route problem at the smallest level, written canonically."""
    raw = json.loads(Path(demo_problem).read_text())
    del raw["data"]
    raw.update(model=DEMO_CONFIG["model"], **{"lambda": "min"})
    path = tmp_path / "model_problem.json"
    path.write_text(fileio.canonical_dumps(raw))
    return str(path)


@pytest.mark.parametrize("case", ["level", "min", "robust", "model"])
def test_loaded_files_are_rewritten_byte_for_byte(tmp_path, demo_problem, case):
    config = {"level": DEMO_CONFIG, "min": {**DEMO_CONFIG, "lambda": "min"},
              "robust": ROBUST_CONFIG, "model": DEMO_CONFIG}[case]
    problem = str(tmp_path / "problem.json")
    assert cli.main(["generate", _write_config(tmp_path, config), "--out", problem]) == 0
    if case == "model":
        problem = _model_problem(tmp_path, problem)
    runs = {"level": [[], ["--lambda", "min"]], "min": [[]], "robust": [[]],
            "model": [[], ["--lambda", "0.84"]]}[case]
    certificates = []
    for k, flags in enumerate(runs):
        certificates.append(tmp_path / f"certificate_{k}.json")
        assert cli.main(["synthesize", problem, "--out", str(certificates[-1]), *flags]) == 0

    copy = tmp_path / "copy.json"
    fileio.save_problem(fileio.load_problem(problem), copy)
    assert copy.read_bytes() == Path(problem).read_bytes()
    for path in certificates:
        certificate, digest = fileio.load_certificate(path)
        fileio.save_certificate(certificate, copy,
                                json.loads(path.read_text())["verification"], digest)
        assert copy.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("level", [1.5, "minimize"])
def test_generate_refuses_a_level_synthesize_would_refuse(tmp_path, capsys, level):
    cfg = _write_config(tmp_path, {**DEMO_CONFIG, "lambda": level})
    out = tmp_path / "problem.json"
    assert cli.main(["generate", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_example_script_writes_certificates_that_verify(tmp_path, monkeypatch, capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_example.py"
    monkeypatch.setattr(sys, "argv", ["run_example.py", "--out", str(tmp_path)])
    assert runpy.run_path(str(script))["main"]() == 0
    for label in ("min", "084"):
        cert_path = str(tmp_path / f"certificate_{label}.json")
        raw = json.loads(Path(cert_path).read_text())
        assert raw["tool_version"] == __version__
        assert raw["verification"]["tolerance"] == 1e-6
        capsys.readouterr()
        assert cli.main(["verify", str(tmp_path / "problem.json"), cert_path]) == 0
        assert "all checks passed" in capsys.readouterr().out


@pytest.mark.parametrize("exc, code, line", [
    (synthesis.InfeasibleProblem("no gain"), 2, "infeasible: no gain"),
    (MemoryError("no room"), 1, "error: out of memory: no room"),
    (FileNotFoundError("gone"), 1, "error: gone"),
    (ValueError("bad value"), 1, "error: bad value"),
    (synthesis.SolverFailure("stuck"), 1, "error: stuck"),
], ids=["infeasible", "memory", "os", "value", "solver"])
def test_main_alone_maps_errors_to_exit_codes(monkeypatch, capsys, exc, code, line):
    def raising(path):
        raise exc

    monkeypatch.setattr(fileio, "load_problem", raising)
    assert cli.main(["verify", "problem.json", "certificate.json"]) == code
    assert capsys.readouterr().err == line + "\n"


def test_an_error_of_another_type_stays_a_traceback(monkeypatch):
    # a TypeError is a bug in ddinv, not bad input: main lets it through
    def raising(path):
        raise TypeError("a bug")

    monkeypatch.setattr(fileio, "load_problem", raising)
    with pytest.raises(TypeError, match="a bug"):
        cli.main(["verify", "problem.json", "certificate.json"])


# --- a malformed file ends in an exit code, never in a traceback -----------
# One node of a file is deleted or replaced. The commands run in process,
# and the suite turns a RuntimeWarning into an error, so a warning fails the
# test as a traceback would.

class _Raw(bytes):
    """Bytes spliced into a file in place of a JSON value."""

    def __repr__(self):
        return f"_Raw({bytes(self[:12])!r}, {len(self)} bytes)"


DELETE = "(node deleted)"
REPLACEMENTS = [DELETE, 10**400, -10**400, 1e308, -1e308, 5e-324, "x", True, None, [], [[]],
                _Raw(b"[" * 40 + b"]" * 40), _Raw(b"[" * 100000 + b"]" * 100000)]
FUZZ_COMMANDS = {
    "config": [["generate", "{config}", "--out", "{out}.json"]],
    "problem": [["synthesize", "{problem}", "--out", "{out}.json"],
                ["verify", "{problem}", "{certificate}"],
                ["simulate", "{problem}", "{certificate}", "--x0", "1,0", "--steps", "5",
                 "--out", "{out}"]],
    "certificate": [["verify", "{problem}", "{certificate}"],
                    ["simulate", "{problem}", "{certificate}", "--x0", "1,0", "--steps", "5",
                     "--out", "{out}"]],
    "robust_problem": [["synthesize", "{robust_problem}", "--out", "{out}.json"],
                       ["verify", "{robust_problem}", "{robust_certificate}"]],
    "robust_certificate": [["verify", "{robust_problem}", "{robust_certificate}"],
                           ["simulate", "{robust_problem}", "{robust_certificate}",
                            "--x0", "0.1,0", "--steps", "5", "--out", "{out}"]],
}
NOT_UTF8 = _Raw(b'"\xff\xfe"')
RECTANGLE_1E308 = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1e308], [0.0, -1.0]]


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("fuzz")
    files = {"config": _write_config(tmp_path, DEMO_CONFIG),
             **{name: str(tmp_path / f"{name}.json") for name in
                ("problem", "certificate", "robust_problem", "robust_certificate")}}
    robust_config = _write_config(tmp_path, ROBUST_CONFIG, "robust_config.json")
    assert cli.main(["generate", files["config"], "--out", files["problem"]]) == 0
    assert cli.main(["synthesize", files["problem"], "--out", files["certificate"]]) == 0
    assert cli.main(["generate", robust_config, "--out", files["robust_problem"]]) == 0
    assert cli.main(["synthesize", files["robust_problem"],
                     "--out", files["robust_certificate"]]) == 0
    return files


def _node_path(document, walk):
    """The path to the node a walk reaches. Each step picks a child of a JSON
    object, by key or by an index into its sorted keys, or of a list, by an
    index modulo its length; the walk ends early at a leaf."""
    path, node = [], document
    for step in walk:
        if isinstance(node, dict) and node:
            key = step if isinstance(step, str) else sorted(node)[step % len(node)]
        elif isinstance(node, list) and node:
            key = step % len(node)
        else:
            break
        path.append(key)
        node = node[key]
    return path


def _mutated(document, path, value) -> bytes:
    """The file bytes of document with the node at path deleted or replaced
    by value; deleting the whole document leaves an empty file."""
    holder = [json.loads(json.dumps(document))]
    *keys, key = [0, *path]
    parent = holder
    for step in keys:
        parent = parent[step]
    marker = "raw bytes go here"
    if value == DELETE:
        del parent[key]
    else:
        parent[key] = marker if isinstance(value, _Raw) else value
    text = json.dumps(holder[0]).encode() if holder else b""
    return text.replace(json.dumps(marker).encode(), value) if isinstance(value, _Raw) else text


@settings(max_examples=200, deadline=None)
@given(document=st.sampled_from(sorted(FUZZ_COMMANDS)),
       walk=st.lists(st.integers(0, 100), max_size=4), value=st.sampled_from(REPLACEMENTS))
@example(document="config", walk=["lambda"], value=NOT_UTF8)
@example(document="problem", walk=["lambda"], value=NOT_UTF8)
@example(document="problem", walk=["state_set", 0, 0], value=10**400)
@example(document="problem", walk=["data", "x1t", "values", 3], value=10**400)
@example(document="problem", walk=["lambda"], value=10**400)
@example(document="certificate", walk=["gain", 0, 0], value=10**400)
@example(document="certificate", walk=["g_matrix", "values", 0], value=10**400)
@example(document="certificate", walk=["lambda"], value=10**400)
@example(document="config", walk=["state_set"], value=REPLACEMENTS[-1])
@example(document="problem", walk=["state_set"], value=REPLACEMENTS[-1])
@example(document="certificate", walk=["gain"], value=REPLACEMENTS[-1])
@example(document="config", walk=["samples"], value=10**400)
@example(document="config", walk=["samples"], value=2**62)
@example(document="problem", walk=["data", "x1t", "shape", 0], value=2.7)
@example(document="problem", walk=["data", "x1t", "values", 3], value="0.2")
@example(document="certificate", walk=["g_matrix", "values", 0], value=[[[1.0]]])
@example(document="config", walk=["model"], value=DELETE)
@example(document="config", walk=["model"], value=None)
@example(document="problem", walk=["state_set"], value=RECTANGLE_1E308)
@example(document="problem", walk=["state_set"], value=[[]])
@example(document="config", walk=["x0"], value=["1", "0"])
@example(document="config", walk=["x0"], value=[True, False])
@example(document="config", walk=["x0"], value=[[1.0], [0.0]])
def test_malformed_files_end_in_an_exit_code(fuzz_files, document, walk, value):
    files = dict(fuzz_files)
    raw = json.loads(Path(files[document]).read_text())
    with tempfile.TemporaryDirectory() as workdir:
        files[document] = os.path.join(workdir, "mutated.json")
        files["out"] = os.path.join(workdir, "out")
        Path(files[document]).write_bytes(_mutated(raw, _node_path(raw, walk), value))
        for command in FUZZ_COMMANDS[document]:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main([arg.format(**files) for arg in command])
            assert code in (0, 1, 2), err.getvalue()
            if code == 1:
                assert err.getvalue().splitlines()[-1].startswith("error:"), err.getvalue()
