"""Command line front end.

Subcommands: generate (run a seeded experiment and write a problem file),
synthesize (solve for a gain and write a certificate file with the
verification report embedded), verify (recheck a certificate against a
problem), simulate (roll the closed loop out and write CSV/SVG).

The problem file alone picks the route; no option restates it. A
disturbance block means robust design and robust checks, a data block
means the design comes from the data, and a model block means the model's
loop A + B K is the one that verify and simulate judge.

Exit codes, which `main` alone maps exceptions to: 0 on success, 1 for
usage, IO or validation trouble, a solver failure or a size too large to
allocate, 2 for infeasibility, failed verification, or an initial state
outside the set. The commands catch only to add context to a message.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import sys
from itertools import product

import numpy as np

from . import fileio, svgplot
from .experiment import (build_data_matrices,
                         data_has_full_row_rank, is_persistently_exciting,
                         min_samples, random_input_sequence, rollout, simulate)
from .numerics import images
from .polytopes import DisturbanceSet, gauge, ordered_vertices_2d
from .synthesis import (InfeasibleProblem, SolverFailure,
                        SynthesisProblem, synthesize)
from .verification import (DEFAULT_TOL, VerificationReport, closed_loop,
                           lyapunov_values, verify_certificate)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _json_number(value):
    """JSON has no non-finite numbers: those are written as 'inf', '-inf' or
    'nan'. None and strings pass as they are."""
    if value is None or isinstance(value, str) or np.isfinite(value):
        return value
    return str(float(value))


def _report_to_dict(report: VerificationReport) -> dict:
    fields = {key: _json_number(value) for key, value in dataclasses.asdict(report).items()}
    return {**fields, "tolerance": DEFAULT_TOL}


def _print_report(report: VerificationReport) -> bool:
    """Print the report, and the loop rule's refusal, if any, as a
    `certificate failed:` line on stderr. Returns `all_ok()`."""
    def word(flag):
        return "ok" if flag else "FAILED"

    print(f"contractivity   {word(report.contractivity_ok)}   "
          f"worst vertex gauge {report.worst_vertex_gauge:.9g}")
    print(f"certificate     {word(report.certificate_ok)}")
    print(f"admissibility   {word(report.admissibility_ok)}   "
          f"worst input violation {report.worst_input_violation:.9g}")
    if report.loop_refusal:
        print(f"certificate failed: {report.loop_refusal}", file=sys.stderr)
    return report.all_ok()


def _cmd_generate(args) -> int:
    cfg = fileio.read_json_object(args.config)
    for key in ("model", "state_set", "input_set", "samples"):
        if cfg.get(key) is None:
            return _fail(f"bad config: {args.config}: missing '{key}'")
    try:
        # the model, the sets and the level follow the problem file's rules
        problem = {key: cfg[key] for key in ("model", "state_set", "input_set")}
        spec = fileio.parse_problem({**problem, "lambda": cfg.get("lambda", "min")},
                                    args.config)
        plant = spec.model
        samples = fileio.integer(cfg["samples"], "samples", 1)
        # the experiment's arrays hold (samples + 1) rows of max(n, m) floats
        most = sys.maxsize // (8 * max(plant.n, plant.m)) - 1
        if samples > most:
            raise ValueError(f"samples must be at most {most}, the most rows of "
                             "the experiment that an array can hold")
        seed = fileio.integer(args.seed if args.seed is not None else cfg.get("seed", 0), "seed", 0)
        x0 = cfg.get("x0")
        x0 = np.zeros(plant.n) if x0 is None else fileio.number_list(x0, "x0")
        if x0.shape != (plant.n,):
            raise ValueError(f"x0 must hold {plant.n} numbers, one per state")
        amplitude = fileio.magnitude(cfg.get("input_amplitude", 1.0), "input_amplitude")
        radius = cfg.get("disturbance_radius")
        if radius is not None:
            radius = fileio.magnitude(radius, "disturbance_radius")
    except (TypeError, ValueError) as exc:
        return _fail(f"bad config: {args.config}: {exc}")
    floor = min_samples(plant.n, plant.m)
    if samples < floor:
        print(f"warning: {samples} samples is below the minimum {floor} "
              f"needed for a full-rank experiment", file=sys.stderr)

    rng = np.random.default_rng(seed)
    inputs = random_input_sequence(rng, samples, plant.m, amplitude)
    disturbance = None
    disturbances = None
    if radius:  # a zero radius is no disturbance, and writes the file the key's absence does
        disturbance = DisturbanceSet(np.array(list(product((radius, -radius), repeat=plant.n))))
        disturbances = rng.uniform(-radius, radius, size=(samples, plant.n))
    with np.errstate(over="ignore", invalid="ignore"):
        states = simulate(plant, x0, inputs, disturbances)
    overflow = ~np.isfinite(states).all(axis=1)
    if overflow.any():
        return _fail(f"the experiment overflows: state x({int(overflow.argmax())}) "
                     "is not finite")
    data = build_data_matrices(inputs, states)

    # excitation of an order implies it at every lower one
    order = next((k for k in range(plant.n + plant.m + 3, 0, -1)
                  if is_persistently_exciting(inputs, k)), 0)
    target = plant.n + 1
    print(f"excitation order achieved: {order} (target {target})")
    full = data_has_full_row_rank(data)
    print(f"stacked data matrix full row rank: {'yes' if full else 'NO'}")

    spec = dataclasses.replace(
        spec, data=data, model=None, disturbance=disturbance,
        meta={"seed": seed, "input_amplitude": amplitude,
              "x0": [float(v) for v in x0],
              "description": "seeded open-loop experiment"})
    fileio.save_problem(spec, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_synthesize(args) -> int:
    spec = fileio.load_problem(args.problem)
    lam = spec.lam
    if args.lam is not None:
        try:
            lam = fileio.contraction_level(args.lam if args.lam == "min" else float(args.lam))
        except ValueError:
            return _fail("--lambda takes 'min' or a number in [0, 1)")
    problem = SynthesisProblem(
        state_set=spec.state_set, input_set=spec.input_set, lam=lam,
        source=spec.data if spec.data is not None else spec.model,
        disturbance=spec.disturbance)
    certificate = synthesize(problem)
    report = verify_certificate(spec.state_set, spec.input_set, certificate,
                                data=spec.data, plant=spec.model, disturbance=spec.disturbance)
    fileio.save_certificate(certificate, args.out, _report_to_dict(report),
                            fileio.file_digest(args.problem))
    print(f"gain: {np.array2string(certificate.gain, precision=6)}")
    print(f"lambda: {certificate.lam:.9g}")
    verified = _print_report(report)
    print(f"wrote {args.out}")
    if not verified:
        print("verification failed", file=sys.stderr)
        return 2
    return 0


def _load_pair(args):
    """The problem and the certificate that verify and simulate read, with a
    warning when the certificate records another problem file's digest."""
    spec = fileio.load_problem(args.problem)
    certificate, digest = fileio.load_certificate(args.certificate)
    if digest and fileio.file_digest(args.problem) != digest:
        print("warning: problem file digest differs from the one recorded "
              "in the certificate", file=sys.stderr)
    return spec, certificate


def _cmd_verify(args) -> int:
    spec, certificate = _load_pair(args)
    report = verify_certificate(spec.state_set, spec.input_set, certificate,
                                data=spec.data, plant=spec.model, disturbance=spec.disturbance)
    if not _print_report(report):
        return 2
    print("all checks passed")
    return 0


def _input_bounds(input_rows: np.ndarray):
    """The band lower <= u <= upper that the rows of a scalar input set cut
    out; a side no row bounds within the float range is infinite."""
    with np.errstate(over="ignore"):
        inverse = 1.0 / input_rows[input_rows[:, 0] != 0, 0]
    return (np.max(inverse[inverse < 0], initial=-np.inf),
            np.min(inverse[inverse > 0], initial=np.inf))


def _cmd_simulate(args) -> int:
    spec, certificate = _load_pair(args)
    f_matrix, refusal = closed_loop(certificate, spec.state_set, spec.input_set, spec.data,
                                    spec.model, spec.disturbance)
    state_set, input_set = spec.state_set, spec.input_set
    try:
        x0 = np.asarray([float(v) for v in args.x0.split(",")], dtype=float)
    except ValueError:
        return _fail("--x0 must be a comma-separated list of numbers")
    if not np.all(np.isfinite(x0)):
        return _fail("--x0 entries must be finite")
    if x0.shape != (state_set.dim,):
        return _fail(f"--x0 needs {state_set.dim} entries")
    start_gauge = gauge(state_set, x0)
    if start_gauge > 1.0 + 1e-9:
        print(f"initial state lies outside the set (gauge {start_gauge:.6g})", file=sys.stderr)
        return 2
    if args.steps < 1:
        return _fail("--steps must be positive")

    if spec.model is None and spec.disturbance is not None:
        return _fail("simulating a problem with a disturbance block needs a model block; "
                     "the disturbed closed loop cannot be rebuilt from data")
    if refusal:
        print(f"error: {refusal}", file=sys.stderr)
        return 2
    # one row per step: the state, the input K x and V(x)
    states = rollout(f_matrix, x0, args.steps)
    with np.errstate(over="ignore", invalid="ignore"):
        table = np.column_stack([states, images(certificate.gain, states),
                                 lyapunov_values(state_set, states)])
    overflow = ~np.isfinite(table).all(axis=1)
    if overflow.any():
        return _fail(f"the closed loop overflows: step {int(overflow.argmax())} "
                     "of the rollout is not finite")

    # every file is drawn before any is written, so a rollout that cannot
    # be plotted leaves no files behind
    files = []
    if args.format in (None, "csv"):
        table_text = io.StringIO()
        writer = csv.writer(table_text)
        writer.writerow(["t"] + [f"x{i+1}" for i in range(state_set.dim)]
                        + [f"u{i+1}" for i in range(input_set.dim)] + ["V"])
        writer.writerows([t, *row] for t, row in enumerate(table.tolist()))
        files.append((args.out + ".csv", table_text.getvalue()))
    if args.format in (None, "svg"):
        try:
            if state_set.dim == 2:
                lam = certificate.lam if certificate.lam < 1.0 else None
                files.append((args.out + ".svg", svgplot.state_plane_svg(
                    ordered_vertices_2d(state_set), lam=lam, trajectory=states,
                    title=f"closed-loop trajectory, lambda {certificate.lam:.4g}")))
            else:
                print("state-plane plot skipped: set is not two-dimensional",
                      file=sys.stderr)
            if input_set.dim == 1:
                lower, upper = _input_bounds(input_set.h_matrix)
                files.append((args.out + "_input.svg", svgplot.input_signal_svg(
                    table[:-1, state_set.dim], lower, upper, title="input signal and bounds")))
        except ValueError as exc:
            return _fail(f"cannot plot the rollout: {exc}")

    for path, text in files:
        # newline="" keeps the CSV's \r\n row ends as the csv module writes them
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)

    print(f"final gauge after {args.steps} steps: {gauge(state_set, states[-1]):.6g}")
    for path, _ in files:
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: argparse keeps no state between
    parse_args calls, and building it costs about a millisecond."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(_join_x0(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except InfeasibleProblem as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # e.g. --steps or samples of 10**17, before any write
        return _fail(f"out of memory: {exc}")
    except (OSError, ValueError, SolverFailure) as exc:
        # ValueError covers FileFormatError, PolytopeError and the shape
        # errors that closed_loop raises before it judges the loop; any
        # other type is a bug and stays loud
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
