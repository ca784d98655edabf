"""The three benchmark workloads: seeded inputs, the timed call chain, and
the check of its outcome against the reference.

Each workload supplies
  make(seed, index, workdir) -> instance   raw inputs only, from the seed
  run(instance, dd)          -> outcome    the timed part, through ddinv's
                                           public functions or cli.main
  reference(instance)        -> the reference verdict, untimed
  check(instance, outcome, reference) -> (reason or None, silent)
plus its pivot budget, the length of its instance pattern (`cycle`) and the
rate that sizes a run (`per_second`). In `check`, `reference`
is a callable returning the cached reference verdict, called only when the
check needs it; `reason` names why the instance failed and `silent` is True
when the program presented a wrong answer as a success (a verdict, level,
certificate or output that the reference contradicts).

Instance i of a workload is one control problem (plant, sets, level) and
one experiment on it. The problems are a fixed seeded family, the same for
every --seed. On minlevel_kgon and robust_box the seed draws the
experiments (inputs, initial states, disturbances), which is all the data
the data-driven program works from, so each seed hands the solver
different programs while the mix of feasible, infeasible and numerically
hard problems stays the same. On cli_rollout the config, and with it the
data `generate` writes, is fixed too, and the seed draws the simulation
starts. With seed-drawn data, which of the 200 configs failed changed
with the seed and moved the mean of the slowest tenth by a third and the
failure share by 7% between seeds; the two library workloads already cover
the solver on seed-drawn data. Instance i
depends only on (seed, workload, i), so a set of any size holds the same
first instances.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from types import SimpleNamespace

import numpy as np

import reference as ref

LEVEL_TOL = 1e-6


def _problem_rng(workload_id, index):
    return np.random.default_rng([workload_id, index])


def _data_rng(seed, workload_id, index):
    return np.random.default_rng([seed, workload_id, index])


def _plant(rng, n, m, radius, min_sv_ratio=1e-3):
    """Gaussian (A, B) with A scaled to the given spectral radius, redrawn
    until the controllability matrix's singular values are within
    1/min_sv_ratio of each other."""
    while True:
        a = rng.normal(size=(n, n))
        a *= radius / np.max(np.abs(np.linalg.eigvals(a)))
        b = rng.normal(size=(n, m))
        blocks = [b]
        for _ in range(n - 1):
            blocks.append(a @ blocks[-1])
        sv = np.linalg.svd(np.hstack(blocks), compute_uv=False)
        if sv[-1] > min_sv_ratio * sv[0]:
            return a, b


def _experiment(rng, a, b, samples, noise_radius=0.0):
    """One open-loop run with uniform inputs in [-1, 1] (and, when asked,
    uniform disturbances in the box of the given radius)."""
    n, m = b.shape
    u = rng.uniform(-1.0, 1.0, size=(samples, m))
    w = (rng.uniform(-noise_radius, noise_radius, size=(samples, n))
         if noise_radius else np.zeros((samples, n)))
    x = np.zeros((samples + 1, n))
    x[0] = rng.uniform(-0.5, 0.5, size=n)
    for t in range(samples):
        x[t + 1] = a @ x[t] + b @ u[t] + w[t]
    return u, x


def _data_matrices(u, x):
    return u.T, x[:-1].T, x[1:].T


def _interval_rows(limit):
    return np.array([[1.0 / limit], [-1.0 / limit]])


def _regular_polygon_rows(k):
    angles = 2.0 * np.pi * np.arange(k) / k
    return np.column_stack([np.cos(angles), np.sin(angles)])


def _library_outcome(run_chain):
    """Shared tail of the library workloads: infeasible, certified or
    rejected by the program's own verifier."""
    def run(inst, dd):
        try:
            cset, inputs, data, cert, report = run_chain(inst, dd)
        except dd.synthesis.InfeasibleProblem:
            return {"verdict": "infeasible"}
        return {"verdict": "certified" if report.all_ok() else "rejected",
                "gain": cert.gain, "g": cert.g_matrix, "p": cert.p_matrix,
                "lam": cert.lam, "vertices": cset.vertices}
    return run


def _library_check(inst, out, expected_feasible, certificate_problems):
    """Failure reason and silence flag for a library-call outcome.
    `expected_feasible` is called only when the verdict needs it: a
    certificate that passes the benchmark's own checks proves its program
    feasible by itself."""
    verdict = out["verdict"]
    if verdict == "rejected":
        return "rejected_by_program", False
    if verdict == "infeasible":
        return (None, False) if not expected_feasible() else ("verdict_mismatch", True)
    if not ref.same_vertices(out["vertices"], inst["verts"]):
        return "vertices_mismatch", True
    if certificate_problems():
        return ("certificate_rejected" if expected_feasible() else "verdict_mismatch"), True
    return None, False


# --- minlevel_kgon ----------------------------------------------------------
KGON_SIDES = (8, 12, 16, 24)
KGON_SAMPLES = (20, 40)
KGON_INPUT_LIMIT = 2.0


def make_minlevel(seed, index, workdir):
    k = KGON_SIDES[index % len(KGON_SIDES)]
    samples = KGON_SAMPLES[(index // len(KGON_SIDES)) % len(KGON_SAMPLES)]
    a, b = _plant(_problem_rng(1, index), 2, 1, 1.0)
    u, x = _experiment(_data_rng(seed, 1, index), a, b, samples)
    return {"s_h": _regular_polygon_rows(k), "u_h": _interval_rows(KGON_INPUT_LIMIT),
            "u": u, "x": x}


def _minlevel_chain(inst, dd):
    cset = dd.polytopes.validate_cset(inst["s_h"])
    inputs = dd.polytopes.InputPolytope(inst["u_h"])
    data = dd.experiment.build_data_matrices(inst["u"], inst["x"])
    cert = dd.synthesis.synthesize(
        dd.synthesis.SynthesisProblem(cset, inputs, "minimize", data))
    report = dd.verification.verify_certificate(cset, inputs, cert, data=data)
    return cset, inputs, data, cert, report


def reference_minlevel(inst):
    inst["verts"] = ref.cset_vertices(inst["s_h"])
    return ref.nominal_level(inst["s_h"], inst["u_h"], *_data_matrices(inst["u"], inst["x"]))


def check_minlevel(inst, out, reference):
    ref_level = reference()
    u0t, x0t, x1t = _data_matrices(inst["u"], inst["x"])
    if out["verdict"] == "certified" and ref_level is None:
        return "verdict_mismatch", True
    reason, silent = _library_check(
        inst, out, lambda: ref_level is not None,
        lambda: ref.check_nominal(out["gain"], out["g"], out["p"], out["lam"],
                                  inst["s_h"], inst["u_h"], u0t, x0t, x1t, inst["verts"]))
    if reason is None and out["verdict"] == "certified" and abs(out["lam"] - ref_level) > LEVEL_TOL:
        return "level_mismatch", True
    return reason, silent


# --- robust_box -------------------------------------------------------------
# T = 24 and 40 give programs of 1536 and 2560 rows, where most of the
# workload's time goes; small T keeps a pass short. T = 12 fills positions
# 5-12 of each cycle of 20, so the median falls inside its block and not on
# the edge between two sizes, where it would be the extreme of one block.
# Plants with spectral radius 0.3 and a
# controllability matrix of condition number at most 10 give informative
# data, so nearly every instance with T >= 12 is feasible, the same ones
# for every seed: at this commit an infeasible program of 1536 or 2560 rows
# takes 2-10 s in phase one, and a seed-dependent few of them would swamp
# the pass.
ROBUST_SAMPLES = (8,) * 4 + (12,) * 8 + (16,) * 3 + (24,) * 4 + (40,)
ROBUST_SPIKE = 0.05       # T times the disturbance radius, fixed across T
ROBUST_INPUT_LIMIT = 5.0
ROBUST_RADIUS = 0.3
BOX_ROWS = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])


def make_robust(seed, index, workdir):
    samples = ROBUST_SAMPLES[index % len(ROBUST_SAMPLES)]
    radius = ROBUST_SPIKE / samples
    a, b = _plant(_problem_rng(2, index), 2, 1, ROBUST_RADIUS, min_sv_ratio=0.1)
    u, x = _experiment(_data_rng(seed, 2, index), a, b, samples, noise_radius=radius)
    corners = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]) * radius
    return {"s_h": BOX_ROWS, "u_h": _interval_rows(ROBUST_INPUT_LIMIT), "d": corners,
            "u": u, "x": x}


def _robust_chain(inst, dd):
    cset = dd.polytopes.validate_cset(inst["s_h"])
    inputs = dd.polytopes.InputPolytope(inst["u_h"])
    disturbance = dd.polytopes.DisturbanceSet(inst["d"])
    data = dd.experiment.build_data_matrices(inst["u"], inst["x"])
    cert = dd.synthesis.synthesize(
        dd.synthesis.SynthesisProblem(cset, inputs, 0.0, data, disturbance))
    report = dd.verification.verify_certificate(cset, inputs, cert, data=data,
                                                disturbance=disturbance)
    return cset, inputs, data, cert, report


def reference_robust(inst):
    return ref.robust_feasible(inst["s_h"], inst["u_h"], *_data_matrices(inst["u"], inst["x"]),
                               inst["d"], inst["verts"])


def check_robust(inst, out, reference):
    # only feasibility is asked here, so a certified outcome needs no HiGHS
    # solve unless its certificate fails the checks; that solve was most of
    # a run's time outside the timed region
    if "verts" not in inst:
        inst["verts"] = ref.cset_vertices(inst["s_h"])
    u0t, x0t, x1t = _data_matrices(inst["u"], inst["x"])
    return _library_check(
        inst, out, reference,
        lambda: ref.check_robust(out["gain"], out["g"], out["lam"], inst["s_h"], inst["u_h"],
                                 u0t, x0t, x1t, inst["d"], inst["verts"]))


# --- cli_rollout ------------------------------------------------------------
# Three in four sets are planar with 12-26 rows; the fourth is a 3-d set
# with 12-14 rows, so subset enumeration in validate_cset sees both
# C(rows, 2) and C(rows, 3).
CLI_SIMULATIONS = 4
CLI_STEPS = 30
CLI_INPUT_LIMIT = 4.0
CLI_LEVELS = (0.9, 0.99)


def _random_cset_rows(rng, n, rows):
    if n == 2:
        # one direction per angular sector keeps every gap below pi: bounded
        angles = 2.0 * np.pi * (np.arange(rows) + rng.uniform(0.0, 0.8, size=rows)) / rows
        directions = np.column_stack([np.cos(angles), np.sin(angles)])
    else:
        extra = rng.normal(size=(rows - 2 * n, n))
        extra /= np.linalg.norm(extra, axis=1, keepdims=True)
        directions = np.vstack([np.eye(n), -np.eye(n), extra])
    return directions / rng.uniform(0.7, 1.3, size=(rows, 1))


def _inside_point(rng, s_h, level):
    direction = rng.normal(size=s_h.shape[1])
    return level * direction / np.max(s_h @ direction)


def _vector_arg(values):
    return ",".join(repr(float(v)) for v in values)


def make_cli(seed, index, workdir):
    """Config file plus the paths the chain writes. Every instance writes
    files of its own: rewriting one set of files made ext4 flush them on
    close (its replace-by-truncate heuristic), and the chain then waited on
    the shared disk, 10-20% of its time and the noisiest part of it."""
    rng = _problem_rng(3, index)
    n = 3 if index % 4 == 3 else 2
    rows = int(rng.integers(12, 15)) if n == 3 else int(rng.integers(12, 27))
    s_h = _random_cset_rows(rng, n, rows)
    a, b = _plant(rng, n, 1, rng.uniform(0.3, 0.7))
    lam = float(rng.uniform(*CLI_LEVELS))
    x0 = rng.uniform(-0.3, 0.3, size=n)
    config = {"model": {"A": a.tolist(), "B": b.tolist()}, "state_set": s_h.tolist(),
              "input_set": _interval_rows(CLI_INPUT_LIMIT).tolist(), "lambda": lam,
              "samples": 6 * n + 8, "seed": int(rng.integers(0, 2**31)),
              "x0": x0.tolist(), "input_amplitude": 1.0}
    path = os.path.join(workdir, f"config_{index}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    rng = _data_rng(seed, 3, index)
    starts = [_inside_point(rng, s_h, 0.9) for _ in range(CLI_SIMULATIONS)]
    return {"config": path, "cfg": config, "a": a, "b": b, "s_h": s_h,
            "u_h": np.array(config["input_set"]), "lam": lam, "x0": x0, "starts": starts,
            "problem": os.path.join(workdir, f"problem_{index}.json"),
            "certificate": os.path.join(workdir, f"certificate_{index}.json"),
            "prefix": os.path.join(workdir, f"sim_{index}_")}


def _cli_call(dd, argv):
    """Exit code and captured output of one in-process command."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = dd.cli.main(argv)
    return code, sink.getvalue()


def _run_cli(inst, dd):
    codes = {"generate": _cli_call(dd, ["generate", inst["config"], "--out", inst["problem"]])[0]}
    if codes["generate"] != 0:
        return {"codes": codes}
    codes["synthesize"], said = _cli_call(dd, ["synthesize", inst["problem"],
                                               "--out", inst["certificate"]])
    if codes["synthesize"] != 0:
        return {"codes": codes, "synthesize_output": said}
    codes["verify"] = _cli_call(dd, ["verify", inst["problem"], inst["certificate"]])[0]
    codes["simulate"] = [
        _cli_call(dd, ["simulate", inst["problem"], inst["certificate"],
                       f"--x0={_vector_arg(start)}", "--steps", str(CLI_STEPS),
                       "--out", f"{inst['prefix']}{k}"])[0]
        for k, start in enumerate(inst["starts"])]
    return {"codes": codes}


def _matrix(obj):
    return np.asarray(obj["values"], dtype=float).reshape(obj["shape"])


def _problem_data(inst):
    """Data block of the problem file generate wrote, after checking it
    against the config and the plant; None when it does not match."""
    with open(inst["problem"], "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if (not np.array_equal(np.array(raw["state_set"]), inst["s_h"])
            or raw["lambda"] != inst["lam"] or raw.get("data") is None):
        return None
    u0t, x0t, x1t = (_matrix(raw["data"][key]) for key in ("u0t", "x0t", "x1t"))
    n, samples = inst["s_h"].shape[1], inst["cfg"]["samples"]
    if x0t.shape != (n, samples) or u0t.shape != (1, samples) or x1t.shape != x0t.shape:
        return None
    if not np.allclose(x0t[:, 0], inst["x0"], rtol=0, atol=1e-12):
        return None
    step = inst["a"] @ x0t + inst["b"] @ u0t
    if np.max(np.abs(x1t - step)) > 1e-9 * max(1.0, np.max(np.abs(x1t))):
        return None
    if np.max(np.abs(x0t[:, 1:] - x1t[:, :-1])) > 0:
        return None
    return u0t, x0t, x1t


def reference_cli(inst):
    """Feasibility at the file's level on the data generate wrote (None when
    that data does not match the config), so it runs after the chain."""
    inst["verts"] = ref.cset_vertices(inst["s_h"])
    data = _problem_data(inst)
    if data is None:
        return None
    return ref.nominal_level(inst["s_h"], inst["u_h"], *data, lam=inst["lam"])


def _rollout_ok(inst, gain, k):
    prefix = f"{inst['prefix']}{k}"
    with open(prefix + ".csv", "r", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    n = inst["s_h"].shape[1]
    if len(rows) != CLI_STEPS + 1:
        return False
    table = np.array(rows, dtype=float)
    states, inputs, lyap = table[:, 1:1 + n], table[:, 1 + n:-1], table[:, -1]
    closed = inst["a"] + inst["b"] @ gain
    scale = max(1.0, float(np.max(np.abs(states))))
    if np.max(np.abs(states[0] - inst["starts"][k])) > 1e-12:
        return False
    if np.max(np.abs(states[1:] - states[:-1] @ closed.T)) > 1e-6 * scale:
        return False
    if np.max(np.abs(inputs - states @ gain.T)) > 1e-9 * scale:
        return False
    if np.max(np.abs(lyap - np.max(np.abs(states @ inst["s_h"].T), axis=1))) > 1e-9 * scale:
        return False
    scenes = [prefix + "_input.svg"] + ([prefix + ".svg"] if n == 2 else [])
    for path in scenes:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if not (text.startswith("<svg") and text.rstrip().endswith("</svg>")):
            return False
    return True


def check_cli(inst, out, reference):
    codes = out["codes"]
    if codes["generate"] != 0:
        return "exit_code", False
    feasible = reference()
    if feasible is None:
        return "output_mismatch", True
    # exit 1 (solver failure) and exit 2 with "verification failed" are the
    # program admitting it has no answer, whatever the reference says;
    # otherwise 0 or 2 is a verdict
    if codes["synthesize"] == 1:
        return "solver_failure", False
    if "verification failed" in out.get("synthesize_output", ""):
        return "rejected_by_program", False
    expected = 0 if feasible else 2
    if codes["synthesize"] != expected:
        return "verdict_mismatch", True
    if expected == 2:
        return None, False
    with open(inst["certificate"], "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    gain = np.array(raw["gain"], dtype=float)
    data = _problem_data(inst)
    if raw["lambda"] != inst["lam"] or raw.get("g_matrix") is None or raw.get("p_matrix") is None:
        return "certificate_rejected", True
    if ref.check_nominal(gain, _matrix(raw["g_matrix"]), _matrix(raw["p_matrix"]), raw["lambda"],
                         inst["s_h"], inst["u_h"], *data, inst["verts"]):
        return "certificate_rejected", True
    if codes["verify"] != 0 or any(code != 0 for code in codes["simulate"]):
        return "exit_code", True
    if not all(_rollout_ok(inst, gain, k) for k in range(CLI_SIMULATIONS)):
        return "output_mismatch", True
    return None, False


# On minlevel_kgon the pivot budget stops iteration-limit spins, which on a
# 24-gon run to 45000 pivots and 13 s before the solver gives up. 1000
# pivots is above every correct verdict in 1216 instances of seeds 701-704
# (the most took 880), and keeps a stopped instance about as long as the
# slowest correct ones, so the slowest tenth does not turn on how many
# spins a seed's data produce: with 3000 its spread over five seeds was 31%
# and with 1000 it was 20%. On the other two the budget is not reached by
# any correct verdict at this commit (the most were 2072 pivots on
# cli_rollout and 46 on robust_box). `per_second` is the number of
# instances each workload gets through per second at this commit on a
# shared 2-core x86 machine, so that a run of --seconds s attempts about
# that many seconds' worth of instances, in whole cycles of its pattern.
WORKLOADS = {
    "minlevel_kgon": SimpleNamespace(
        make=make_minlevel, run=_library_outcome(_minlevel_chain),
        reference=reference_minlevel, check=check_minlevel,
        pivot_budget=1000, cycle=len(KGON_SIDES) * len(KGON_SAMPLES), per_second=14.0),
    "robust_box": SimpleNamespace(
        make=make_robust, run=_library_outcome(_robust_chain),
        reference=reference_robust, check=check_robust,
        pivot_budget=200, cycle=len(ROBUST_SAMPLES), per_second=12.0),
    "cli_rollout": SimpleNamespace(
        make=make_cli, run=_run_cli, reference=reference_cli, check=check_cli,
        pivot_budget=3000, cycle=4, per_second=6.0),
}
