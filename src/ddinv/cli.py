"""Command line front end.

Subcommands: generate (run a seeded experiment and write a problem file),
synthesize (solve for a gain and write a certificate file with the
verification report embedded), verify (recheck a certificate against a
problem), simulate (roll the closed loop out and write CSV/SVG).

Exit codes: 0 on success, 1 for usage, IO or validation trouble, 2 for
infeasibility, failed verification, or an initial state outside the set.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from itertools import product

import numpy as np

from . import __version__
from . import fileio, svgplot
from .experiment import (ExperimentData, PlantModel, build_data_matrices,
                         data_has_full_row_rank, is_persistently_exciting,
                         min_samples, random_input_sequence, simulate,
                         simulate_closed_loop)
from .fileio import FileFormatError
from .polytopes import (DisturbanceSet, InputPolytope, PolytopeError,
                        gauge, ordered_vertices_2d, validate_cset)
from .synthesis import (Certificate, InfeasibleProblem, SolverFailure,
                        SynthesisProblem, synthesize)
from .verification import VerificationReport, lyapunov_value, verify_certificate


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _spec_objects(spec: fileio.ProblemSpec):
    """Validated set objects plus optional data/model/disturbance objects."""
    state_set = validate_cset(spec.state_rows)
    input_set = InputPolytope(spec.input_rows)
    data = None
    if spec.data is not None:
        data = ExperimentData(u0t=spec.data["u0t"], x0t=spec.data["x0t"],
                              x1t=spec.data["x1t"])
    plant = None
    if spec.model is not None:
        plant = PlantModel(spec.model["a"], spec.model["b"])
    disturbance = None
    if spec.disturbance_vertices is not None:
        disturbance = DisturbanceSet(spec.disturbance_vertices)
    return state_set, input_set, data, plant, disturbance


def _json_number(value):
    """JSON has no non-finite numbers: those are written as 'inf', '-inf' or 'nan'."""
    return value if value is None or np.isfinite(value) else str(float(value))


def _report_to_dict(report: VerificationReport, tol: float) -> dict:
    return {
        "contractivity_ok": report.contractivity_ok,
        "certificate_ok": report.certificate_ok,
        "admissibility_ok": report.admissibility_ok,
        "robust_ok": report.robust_ok,
        "worst_vertex_gauge": _json_number(report.worst_vertex_gauge),
        "worst_input_violation": _json_number(report.worst_input_violation),
        "lyapunov_decay_margin": _json_number(report.lyapunov_decay_margin),
        "tolerance": tol,
    }


def _print_report(report: VerificationReport):
    def word(flag):
        return "ok" if flag else "FAILED"

    print(f"contractivity   {word(report.contractivity_ok)}   "
          f"worst vertex gauge {report.worst_vertex_gauge:.9g}")
    print(f"certificate     {word(report.certificate_ok)}")
    print(f"admissibility   {word(report.admissibility_ok)}   "
          f"worst input violation {report.worst_input_violation:.9g}")
    if report.robust_ok is None:
        print("robustness      n/a")
    else:
        print(f"robustness      {word(report.robust_ok)}")
    if report.lyapunov_decay_margin is not None:
        print(f"decay margin    {report.lyapunov_decay_margin:.9g}")


def _cmd_generate(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(f"cannot read config: {exc}")
    try:
        model = cfg["model"]
        plant = PlantModel(fileio.rows_to_matrix(model["A"], "model.A"),
                           fileio.rows_to_matrix(model["B"], "model.B"))
        state_rows = fileio.rows_to_matrix(cfg["state_set"], "state_set")
        input_rows = fileio.rows_to_matrix(cfg["input_set"], "input_set")
        lam = cfg.get("lambda", "min")
        samples = int(cfg["samples"])
        seed = int(args.seed if args.seed is not None else cfg.get("seed", 0))
        x0 = np.asarray(cfg.get("x0", np.zeros(plant.n)), dtype=float).reshape(-1)
        amplitude = float(cfg.get("input_amplitude", 1.0))
        radius = cfg.get("disturbance_radius")
    except (KeyError, TypeError, ValueError, FileFormatError) as exc:
        return _fail(f"bad config: {exc}")
    if x0.shape != (plant.n,):
        return _fail("x0 length does not match the plant dimension")
    if not np.all(np.isfinite(x0)):
        return _fail("x0 entries must be finite")
    if samples < 1:
        return _fail("samples must be positive")
    floor = min_samples(plant.n, plant.m)
    if samples < floor:
        print(f"warning: {samples} samples is below the minimum {floor} "
              f"needed for a full-rank experiment", file=sys.stderr)

    rng = np.random.default_rng(seed)
    inputs = random_input_sequence(rng, samples, plant.m, amplitude)
    disturbance_rows = None
    disturbances = None
    if radius is not None:
        radius = float(radius)
        disturbance_rows = np.array(list(product((radius, -radius), repeat=plant.n)))
        disturbances = rng.uniform(-radius, radius, size=(samples, plant.n))
    states = simulate(plant, x0, inputs, disturbances)
    data = build_data_matrices(inputs, states)

    order = 0
    while is_persistently_exciting(inputs, order + 1):
        order += 1
        if order > plant.n + plant.m + 2:
            break
    target = plant.n + 1
    print(f"excitation order achieved: {order} (target {target})")
    full = data_has_full_row_rank(data)
    print(f"stacked data matrix full row rank: {'yes' if full else 'NO'}")

    spec = fileio.ProblemSpec(
        state_rows=state_rows, input_rows=input_rows, lam=lam,
        data={"u0t": data.u0t, "x0t": data.x0t, "x1t": data.x1t},
        disturbance_vertices=disturbance_rows,
        meta={"seed": seed, "input_amplitude": amplitude,
              "x0": [float(v) for v in x0],
              "description": "seeded open-loop experiment"})
    try:
        fileio.save_problem(spec, args.out)
    except (OSError, FileFormatError) as exc:
        return _fail(f"cannot write {args.out}: {exc}")
    print(f"wrote {args.out}")
    return 0


def _certificate_from_record(record: fileio.CertificateRecord) -> Certificate:
    return Certificate(gain=record.gain, lam=record.lam,
                       g_matrix=record.g_matrix, p_matrix=record.p_matrix)


def _cmd_synthesize(args) -> int:
    try:
        spec = fileio.load_problem(args.problem)
    except (OSError, FileFormatError) as exc:
        return _fail(str(exc))
    if args.lam is not None:
        if args.lam == "min":
            spec.lam = "min"
        else:
            try:
                spec.lam = float(args.lam)
            except ValueError:
                return _fail("--lambda takes a number or 'min'")
            if not 0.0 <= spec.lam < 1.0:
                return _fail("--lambda must lie in [0, 1)")
    if spec.data is not None and spec.model is not None:
        return _fail("problem has both data and model; synthesis needs exactly one")
    try:
        state_set, input_set, data, plant, disturbance = _spec_objects(spec)
    except (PolytopeError, ValueError) as exc:
        return _fail(f"invalid problem: {exc}")

    if args.robust:
        if disturbance is None:
            return _fail("--robust needs a disturbance block in the problem")
        if data is None:
            return _fail("--robust needs experiment data")
    lam = "minimize" if spec.lam == "min" else spec.lam
    try:
        problem = SynthesisProblem(
            state_set=state_set, input_set=input_set,
            lam=0.0 if args.robust else lam,  # level unused on the robust path
            source=data if data is not None else plant,
            disturbance=disturbance if args.robust else None)
    except ValueError as exc:
        return _fail(str(exc))
    try:
        certificate = synthesize(problem)
    except InfeasibleProblem as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except SolverFailure as exc:
        return _fail(str(exc))

    tol = 1e-6
    report = verify_certificate(state_set, input_set, certificate,
                                data=data, plant=plant,
                                disturbance=disturbance if args.robust else None,
                                tol=tol)
    record = fileio.CertificateRecord(
        gain=certificate.gain, lam=certificate.lam,
        g_matrix=certificate.g_matrix, p_matrix=certificate.p_matrix,
        verification=_report_to_dict(report, tol),
        tool_version=__version__,
        input_digest=fileio.file_digest(args.problem))
    try:
        fileio.save_certificate(record, args.out)
    except (OSError, FileFormatError) as exc:
        return _fail(f"cannot write {args.out}: {exc}")
    print(f"gain: {np.array2string(certificate.gain, precision=6)}")
    print(f"lambda: {certificate.lam:.9g}")
    _print_report(report)
    print(f"wrote {args.out}")
    if not report.all_ok():
        print("verification failed", file=sys.stderr)
        return 2
    return 0


def _cmd_verify(args) -> int:
    try:
        spec = fileio.load_problem(args.problem)
        record = fileio.load_certificate(args.certificate)
    except (OSError, FileFormatError) as exc:
        return _fail(str(exc))
    try:
        state_set, input_set, data, plant, disturbance = _spec_objects(spec)
    except (PolytopeError, ValueError) as exc:
        return _fail(f"invalid problem: {exc}")

    n = state_set.dim
    m = input_set.dim
    if record.gain.shape != (m, n):
        return _fail(f"gain shape {record.gain.shape} does not match ({m}, {n})")
    if record.p_matrix is not None and record.p_matrix.shape != (state_set.num_rows,) * 2:
        return _fail("p_matrix shape does not match the state set")
    if record.g_matrix is not None:
        if data is None:
            return _fail("certificate carries a data combiner but the problem has no data")
        if record.g_matrix.shape != (data.samples, n):
            return _fail("g_matrix shape does not match the data")
    if record.input_digest:
        digest = fileio.file_digest(args.problem)
        if digest != record.input_digest:
            print("warning: problem file digest differs from the one recorded "
                  "in the certificate", file=sys.stderr)

    certificate = _certificate_from_record(record)
    try:
        report = verify_certificate(state_set, input_set, certificate,
                                    data=data, plant=plant, disturbance=disturbance)
    except ValueError as exc:
        return _fail(str(exc))
    _print_report(report)
    if not report.all_ok():
        return 2
    print("all checks passed")
    return 0


def _input_bounds(input_rows: np.ndarray):
    upper = np.inf
    lower = -np.inf
    for row in input_rows[:, 0]:
        if row > 0:
            upper = min(upper, 1.0 / row)
        elif row < 0:
            lower = max(lower, 1.0 / row)
    return lower, upper


def _cmd_simulate(args) -> int:
    try:
        spec = fileio.load_problem(args.problem)
        record = fileio.load_certificate(args.certificate)
    except (OSError, FileFormatError) as exc:
        return _fail(str(exc))
    try:
        state_set, input_set, data, plant, disturbance = _spec_objects(spec)
    except (PolytopeError, ValueError) as exc:
        return _fail(f"invalid problem: {exc}")
    try:
        x0 = np.asarray([float(v) for v in args.x0.split(",")], dtype=float)
    except ValueError:
        return _fail("--x0 must be a comma-separated list of numbers")
    if not np.all(np.isfinite(x0)):
        return _fail("--x0 entries must be finite")
    if x0.shape != (state_set.dim,):
        return _fail(f"--x0 needs {state_set.dim} entries")
    if gauge(state_set, x0) > 1.0 + 1e-9:
        print(f"initial state lies outside the set (gauge "
              f"{gauge(state_set, x0):.6g})", file=sys.stderr)
        return 2
    if args.steps < 1:
        return _fail("--steps must be positive")

    gain = record.gain
    if plant is not None:
        states, inputs = simulate_closed_loop(plant, gain, x0, args.steps)
    elif data is not None and record.g_matrix is not None:
        if record.p_matrix is None:
            return _fail("simulating a robust certificate needs a model block; "
                         "the disturbed closed loop cannot be rebuilt from data")
        f_matrix = data.x1t @ record.g_matrix
        states = np.zeros((args.steps + 1, state_set.dim))
        states[0] = x0
        for t in range(args.steps):
            states[t + 1] = f_matrix @ states[t]
        inputs = states[:-1] @ gain.T
    else:
        return _fail("problem gives no way to form the closed loop")

    wrote = []
    if args.format in (None, "csv"):
        path = args.out + ".csv"
        try:
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                header = (["t"] + [f"x{i+1}" for i in range(state_set.dim)]
                          + [f"u{i+1}" for i in range(input_set.dim)] + ["V"])
                writer.writerow(header)
                for t in range(args.steps + 1):
                    u_t = gain @ states[t]
                    writer.writerow([t] + [repr(float(v)) for v in states[t]]
                                    + [repr(float(v)) for v in u_t]
                                    + [repr(lyapunov_value(state_set, states[t]))])
        except OSError as exc:
            return _fail(f"cannot write {path}: {exc}")
        wrote.append(path)
    if args.format in (None, "svg"):
        if state_set.dim == 2:
            path = args.out + ".svg"
            lam = record.lam if record.lam < 1.0 else None
            scene = svgplot.state_plane_svg(
                ordered_vertices_2d(state_set), lam=lam, trajectory=states,
                title=f"closed-loop trajectory, lambda {record.lam:.4g}")
            try:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(scene)
            except OSError as exc:
                return _fail(f"cannot write {path}: {exc}")
            wrote.append(path)
        else:
            print("state-plane plot skipped: set is not two-dimensional",
                  file=sys.stderr)
        if input_set.dim == 1:
            lower, upper = _input_bounds(input_set.h_matrix)
            path = args.out + "_input.svg"
            scene = svgplot.input_signal_svg(inputs[:, 0], lower, upper,
                                             title="input signal and bounds")
            try:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(scene)
            except OSError as exc:
                return _fail(f"cannot write {path}: {exc}")
            wrote.append(path)

    final_gauge = gauge(state_set, states[-1])
    print(f"final gauge after {args.steps} steps: {final_gauge:.6g}")
    for path in wrote:
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddinv",
        description="Data-driven invariant-set feedback synthesis")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="run a seeded experiment, write a problem file")
    gen.add_argument("config", help="JSON generation config")
    gen.add_argument("--out", required=True, help="problem file to write")
    gen.add_argument("--seed", type=int, default=None, help="override the config seed")
    gen.set_defaults(func=_cmd_generate)

    syn = sub.add_parser("synthesize", help="solve for a gain, write a certificate")
    syn.add_argument("problem", help="problem file")
    syn.add_argument("--out", required=True, help="certificate file to write")
    syn.add_argument("--lambda", dest="lam", default=None,
                     help="contraction level in [0,1) or 'min'")
    syn.add_argument("--robust", action="store_true",
                     help="robust design against the problem's disturbance set")
    syn.set_defaults(func=_cmd_synthesize)

    ver = sub.add_parser("verify", help="recheck a certificate against a problem")
    ver.add_argument("problem", help="problem file")
    ver.add_argument("certificate", help="certificate file")
    ver.set_defaults(func=_cmd_verify)

    sim = sub.add_parser("simulate", help="roll out the closed loop, write CSV/SVG")
    sim.add_argument("problem", help="problem file")
    sim.add_argument("certificate", help="certificate file")
    sim.add_argument("--x0", required=True, help="initial state, comma separated")
    sim.add_argument("--steps", type=int, default=50, help="number of steps")
    sim.add_argument("--out", required=True, help="output path prefix")
    sim.add_argument("--format", choices=("csv", "svg"), default=None,
                     help="restrict output to one format")
    sim.set_defaults(func=_cmd_simulate)
    return parser


def _join_x0(argv):
    """Attach the value of `--x0` to the flag, so that a first entry with a
    minus sign is not read as an option."""
    joined = []
    values = iter(argv)
    for arg in values:
        if arg == "--x0":
            arg = "--x0=" + next(values, "")
        joined.append(arg)
    return joined


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_x0(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
