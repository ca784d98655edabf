#!/usr/bin/env python3
"""Run the worked example end to end and drop every artifact into out/.

Steps: simulate a seeded open-loop experiment on the reference plant, design
a feedback gain from the recorded data with `ddinv synthesize` (once at the
smallest achievable contraction level, once at the fixed level 0.84), which
verifies each certificate it writes, and roll the closed loop out from a
vertex of the state set. Writes the problem file, both certificate files, a
trajectory CSV, and SVG plots.
"""

import argparse
from pathlib import Path

from ddinv import cli, fileio, synthesis
from ddinv.demo import (DEFAULT_SAMPLES, DEFAULT_SEED, demo_experiment,
                        demo_input_set, demo_plant, demo_state_set)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    state_set = demo_state_set()
    input_set = demo_input_set()
    plant = demo_plant()
    data = demo_experiment(seed=args.seed, samples=args.samples)

    print(f"experiment: {data.samples} samples, seed {args.seed}")
    problem_path = out / "problem.json"
    fileio.save_problem(fileio.ProblemSpec(
        state_set=state_set, input_set=input_set, lam=0.84, data=data,
        meta={"seed": args.seed, "description": "reference example"}),
        problem_path)
    print(f"wrote {problem_path}")

    for label, level in (("min", "min"), ("084", "0.84")):
        path = out / f"certificate_{label}.json"
        code = cli.main(["synthesize", str(problem_path), "--lambda", level,
                         "--out", str(path)])
        if code != 0:
            return code

    best, _ = fileio.load_certificate(out / "certificate_min.json")
    reference = synthesis.minimize_lambda(synthesis.SynthesisProblem(
        state_set, input_set, synthesis.MINIMIZE, plant))
    print(f"smallest achievable contraction level: {best.lam:.9f}")
    print(f"model-based reference level:           {reference.lam:.9f} "
          f"(gap {abs(best.lam - reference.lam):.2e})")

    code = cli.main(["simulate", str(problem_path),
                     str(out / "certificate_084.json"),
                     "--x0", "6,-0.5", "--steps", "50",
                     "--out", str(out / "trajectory")])
    if code != 0:
        return code
    print("done")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
