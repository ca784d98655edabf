"""Tests of the benchmark itself: result shape, layer coverage, the oracle
catching a planted wrong answer, repeatable failures, and short end-to-end
runs.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import workloads

BENCHMARK = json.loads(run.BENCHMARK_FILE.read_text())
NAMES = [w["name"] for w in BENCHMARK["workloads"]]

# layer metric -> workloads on which the benchmark's layer table says it moves
LAYER_WORKLOADS = {
    "lp.solve.calls": ["minlevel_kgon", "robust_box"],
    "synthesis.build.calls": ["minlevel_kgon", "robust_box"],
    "polytopes.validate_cset.calls": ["cli_rollout"],
    "polytopes.subsets_sum": ["cli_rollout"],
    "verification.verify_certificate.calls": ["minlevel_kgon", "cli_rollout"],
    "experiment.calls": ["cli_rollout"],
    "fileio.bytes_read": ["cli_rollout"],
    "fileio.bytes_written": ["cli_rollout"],
    "fileio.digest.self_ms": ["cli_rollout"],
    "svgplot.bytes": ["cli_rollout"],
    "cli.generate.self_ms": ["cli_rollout"],
    "cli.synthesize.self_ms": ["cli_rollout"],
    "cli.verify.self_ms": ["cli_rollout"],
    "cli.simulate.self_ms": ["cli_rollout"],
}


@pytest.fixture
def small(monkeypatch):
    """Shrink every instance set so a run takes seconds."""
    monkeypatch.setattr(run, "instance_count", lambda workload, seconds: 12)


def _run_script(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_workloads_match_benchmark_json():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_metric_names_and_units_match_benchmark_json(small, trace):
    result = run.run("cli_rollout", seed=5, seconds=0.5, trace=trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert set(result) == {"correct", "attempted", "failed", "metrics", "reasons"}
    assert result["attempted"] >= 1


@pytest.mark.parametrize("workload", ["minlevel_kgon", "robust_box", "cli_rollout"])
def test_layers_record_work_where_the_table_says(small, workload):
    metrics = run.run(workload, seed=5, seconds=0.5, trace=1)["metrics"]
    for name, where in LAYER_WORKLOADS.items():
        if workload in where:
            assert metrics[name]["value"] > 0, name
    assert metrics["lp.solve.calls"]["value"] > 0
    assert metrics["polytopes.validate_cset.calls"]["value"] > 0


def _certified_runner(monkeypatch, workload, plant_verifier_hole):
    """Runner whose synthesize returns G scaled by 2 (and optionally whose
    verifier accepts everything, as a forged certificate would be by a
    verifier with a hole)."""
    dd = run.import_ddinv()
    original = dd.synthesis.synthesize

    def planted(problem):
        cert = original(problem)
        if cert.g_matrix is not None:
            cert.g_matrix = 2.0 * cert.g_matrix
        return cert

    monkeypatch.setattr(dd.synthesis, "synthesize", planted)
    if plant_verifier_hole:
        report = dd.verification.VerificationReport(True, True, True, 0.0, -1.0)
        monkeypatch.setattr(dd.verification, "verify_certificate",
                            lambda *args, **kwargs: report)
    return run.Runner(workloads.WORKLOADS[workload], 7, dd, None)


def _honest_outcomes(workload, count):
    dd = run.import_ddinv()
    runner = run.Runner(workloads.WORKLOADS[workload], 7, dd, None)
    runner.pool = [workloads.WORKLOADS[workload].make(7, i, None) for i in range(count)]
    return [runner.attempt(inst)[1] for inst in runner.pool], runner


@pytest.mark.parametrize("workload", ["minlevel_kgon", "robust_box"])
@pytest.mark.parametrize("plant_verifier_hole", [False, True])
def test_planted_wrong_answer_counts_as_failure(monkeypatch, workload, plant_verifier_hole):
    count = 16
    honest, honest_runner = _honest_outcomes(workload, count)
    certified = [i for i, out in enumerate(honest) if out.get("verdict") == "certified"]
    honest_failures = sum(honest_runner.judge(i, out) for i, out in enumerate(honest))
    assert certified, "the seed should give certified instances"

    runner = _certified_runner(monkeypatch, workload, plant_verifier_hole)
    runner.pool = [workloads.WORKLOADS[workload].make(7, i, None) for i in range(count)]
    latencies, failures = runner.one_pass()
    assert len(latencies) == count
    assert failures == honest_failures + len(certified)
    if plant_verifier_hole:
        # only the benchmark's own checks stand between the forgery and a pass
        assert runner.reasons["certificate_rejected"] >= len(certified)
        assert runner.silent >= len(certified)
    else:
        assert runner.reasons["rejected_by_program"] >= len(certified)


@pytest.mark.parametrize("reference_feasible", [False, True])
def test_cli_certificate_rejected_by_program_is_a_failure(reference_feasible):
    """synthesize exiting 2 because ddinv's verifier rejected the certificate
    it just wrote is a failure even where the reference says infeasible."""
    out = {"codes": {"generate": 0, "synthesize": 2},
           "synthesize_output": "gain: [[0.1 0.2]]\nverification failed\n"}
    assert workloads.check_cli({}, out, lambda: reference_feasible) == (
        "rejected_by_program", False)
    out["synthesize_output"] = "infeasible: no feasible point\n"
    expected = ("verdict_mismatch", True) if reference_feasible else (None, False)
    assert workloads.check_cli({}, out, lambda: reference_feasible) == expected


def test_same_seed_gives_the_same_failures(monkeypatch):
    """Failures repeat exactly for a seed, whatever the machine's speed: the
    count the benchmark reports must not depend on timing."""
    monkeypatch.setattr(run, "instance_count", lambda workload, seconds: 24)
    first, second = (run.run("minlevel_kgon", seed=11, seconds=1, trace=0) for _ in range(2))
    assert first["attempted"] == second["attempted"] == 24
    assert first["failed"] == second["failed"] > 0
    assert first["reasons"] == second["reasons"]


def test_pivot_budget_stops_an_instance():
    dd = run.import_ddinv()
    workload = workloads.WORKLOADS["minlevel_kgon"]
    runner = run.Runner(workload, 7, dd, None)
    inst = workloads.make_minlevel(7, 3, None)
    budget = workload.pivot_budget
    try:
        workload.pivot_budget = 5
        assert runner.attempt(inst)[1] == {"error": "pivot_budget"}
    finally:
        workload.pivot_budget = budget
    # a second Runner replaces the wrapper instead of stacking another one
    run.Runner(workload, 7, dd, None)
    assert not hasattr(dd.lp._pivot.__wrapped__, "__wrapped__")


def test_instance_count_is_whole_cycles():
    for workload in workloads.WORKLOADS.values():
        assert run.instance_count(workload, 0.01) == workload.cycle
        count = run.instance_count(workload, 30)
        assert count % workload.cycle == 0
        assert abs(count - 30 * workload.per_second) <= workload.cycle


def test_reference_finds_the_regular_polygon_vertices():
    inst = workloads.make_minlevel(3, 0, None)
    level = workloads.reference_minlevel(inst)
    assert level is None or 0.0 <= level < 1.0
    assert len(inst["verts"]) == inst["s_h"].shape[0]
    angles = np.arctan2(inst["verts"][:, 1], inst["verts"][:, 0])
    assert np.allclose(np.sort(np.diff(np.sort(angles))), 2 * np.pi / len(angles))


@pytest.mark.parametrize("workload", NAMES)
def test_smoke_run_prints_one_result_line(workload):
    out = _run_script(run.ROOT, "--workload", workload, "--seed", "1",
                      "--seconds", "0.3", "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.BENCHMARK_FILE, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = _run_script(tmp_path, "--workload", NAMES[0], "--seed", "1",
                      "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert not out.stdout.strip()
