"""Run every workload once, untraced and traced, and print each metric with
its unit as one table.

    python3 bench/report.py --seed 1

Each run is a separate `run.py` process, one after the other, with the run
length from BENCHMARK.json. Besides the declared
metrics the table shows failed_frac (failed / attempted) and whether every
outcome passed the reference checks.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"{workload} (trace {trace}) failed:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    print(f"{'workload':<14} {'metric':<40} {'value':>14}  unit")
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        for trace in (0, 1):
            result = run_once(workload, args.seed, BENCHMARK["run_seconds"], trace)
            rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
            if not trace:
                rows.append(("failed_frac", result["failed"] / result["attempted"], "frac"))
                rows.append(("correct", float(result["correct"]), "bool"))
            for name, value, unit in rows:
                print(f"{workload:<14} {name:<40} {value:>14.6g}  {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
