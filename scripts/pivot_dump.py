#!/usr/bin/env python3
"""Fingerprint every instance of a benchmark workload, to show that a change
to the solver leaves every pivot where it was.

    python3 scripts/pivot_dump.py --workload robust_box --seed 7 --count 180 --out new.txt
    python3 scripts/pivot_dump.py --compare old.txt new.txt

A dump runs the first --count instances of the workload and seed from
bench/workloads.py under the workload's pivot budget, as bench/run.py does,
with ddinv imported from the src directory next to this script. It writes
one line per instance: its index, its verdict, and one `module=pivots:hash`
field for each ddinv module that called lp.solve (on these workloads only
synthesis does), in name order. The pivots are those of that module's
solves, and the hash is a sha256 over the status, objective, residual and
primal bytes of each of their results, so the sign of a zero counts. A
`vertices=hash` field is a sha256 over the shape and bytes of every
polytopes.enumerate_vertices result of the instance, in call order, and over
the name of any error it raised. On cli_rollout a `files=hash` field covers
every file the chain wrote, and an `output=hash` field what each cli.main
call printed, with the work directory's path replaced by a fixed token so
that two dumps of one checkout agree. Run the script from two checkouts to
compare their solvers, set validation and messages. --compare prints the instances whose lines
differ, with the fields that moved, and exits 1 when any does; it then
tallies the verdicts that moved, old -> new with their counts, and each
file's verdicts, one line per file.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _verdict(outcome):
    if "error" in outcome:
        return outcome["error"]
    if "verdict" in outcome:
        return outcome["verdict"]
    return json.dumps(outcome["codes"], sort_keys=True, separators=(",", ":"))


def dump(workload_name, seed, count, out):
    sys.path.insert(0, str(ROOT / "bench"))
    # bench's run module pins the BLAS threads before numpy is imported
    import run as bench
    import workloads

    dd = bench.import_ddinv()
    cli, lp, polytopes = dd.cli, dd.lp, dd.polytopes
    workload = workloads.WORKLOADS[workload_name]
    lines = [f"# {workload_name} seed {seed} count {count}"]
    with tempfile.TemporaryDirectory() as workdir, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        runner = bench.Runner(workload, seed, dd, workdir)
        budgeted, solve = lp._pivot, lp.solve
        pivots, digests, caller = {}, {}, None

        def counted(*args):
            pivots[caller] += 1
            return budgeted(*args)

        def recorded(program):
            nonlocal caller
            caller = sys._getframe(1).f_globals["__name__"].rpartition(".")[2]
            pivots.setdefault(caller, 0)
            sol = solve(program)
            primal = b"-" if sol.primal is None else sol.primal.tobytes()
            digest = digests.setdefault(caller, hashlib.sha256())
            digest.update(f"{sol.status.value} {sol.objective_value!r} {sol.residual!r} ".encode())
            digest.update(primal)
            return sol

        enumerate_vertices, vertices = polytopes.enumerate_vertices, []

        def fingerprinted(h_matrix):
            # validate_cset calls enumerate_vertices through the module, so
            # every caller's sets pass through here
            try:
                verts = enumerate_vertices(h_matrix)
            except Exception as exc:
                vertices.append(type(exc).__name__.encode())
                raise
            vertices.append(f"{verts.shape}".encode() + verts.tobytes())
            return verts

        main, said = cli.main, []

        def spoken(argv):
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = main(argv)
            said.append(sink.getvalue().replace(workdir, "<workdir>").encode())
            # the caller's own redirect still gets every line
            print(sink.getvalue(), end="")
            return code

        lp._pivot, lp.solve = counted, recorded
        polytopes.enumerate_vertices = fingerprinted
        cli.main = spoken
        try:
            for index in range(count):
                inst = workload.make(seed, index, workdir)
                pivots.clear()
                digests.clear()
                vertices.clear()
                said.clear()
                outcome = runner.attempt(inst)[1]
                fields = [f"{name}={pivots[name]}:"
                          f"{digests.get(name, hashlib.sha256()).hexdigest()}"
                          for name in sorted(pivots)]
                if vertices:
                    fields.append(f"vertices={hashlib.sha256(b'|'.join(vertices)).hexdigest()}")
                written = [path for path in sorted(Path(workdir).iterdir())
                           if path.name != f"config_{index}.json"]
                if written:
                    files = hashlib.sha256()
                    for path in written:
                        files.update(path.name.encode() + b"\0" + path.read_bytes())
                        path.unlink()
                    fields.append(f"files={files.hexdigest()}")
                if said:
                    output = hashlib.sha256(b"\0".join(said))
                    fields.append(f"output={output.hexdigest()}")
                lines.append("\t".join([str(index), _verdict(outcome), *fields]))
        finally:
            lp._pivot, lp.solve = budgeted, solve
            polytopes.enumerate_vertices = enumerate_vertices
            cli.main = main
    Path(out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


def _instances(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return {line.split("\t", 1)[0]: line for line in lines}


def _fields(line):
    """A dump line's fields by name: the verdict, then module=pivots:hash,
    vertices=hash, files=hash and output=hash fields."""
    if line is None:
        return {}
    index, *rest = line.split("\t")
    if index.startswith("#"):
        return {"header": line}
    verdict, *named = rest
    return {"verdict": verdict, **dict(field.split("=", 1) for field in named)}


def compare(path_a, path_b):
    a, b = _instances(path_a), _instances(path_b)
    keys = list(a) + [key for key in b if key not in a]
    differ = [key for key in keys if a.get(key) != b.get(key)]
    for key in differ:
        fields_a, fields_b = _fields(a.get(key)), _fields(b.get(key))
        moved = [name for name in list(fields_a) + [n for n in fields_b if n not in fields_a]
                 if fields_a.get(name) != fields_b.get(name)]
        print(f"{key}: {', '.join(moved)}\n  {path_a}: {a.get(key, '(missing)')}"
              f"\n  {path_b}: {b.get(key, '(missing)')}")
    if differ:
        moves = Counter((_fields(a[key])["verdict"], _fields(b[key])["verdict"])
                        for key in differ if key in a and key in b and not key.startswith("#"))
        moved = [f"{count} {old} -> {new}" for (old, new), count in moves.most_common()
                 if old != new]
        print(f"verdict moves: {', '.join(moved) or 'none'}")
        for path, lines in ((path_a, a), (path_b, b)):
            tally = Counter(_fields(line)["verdict"] for line in lines.values()
                            if not line.startswith("#"))
            print(f"{path}: " + ", ".join(f"{count} {verdict}"
                                          for verdict, count in tally.most_common()))
    print(f"{len(differ)} of {len(keys)} lines differ")
    return 1 if differ else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--count", type=int)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if None in (args.workload, args.seed, args.count, args.out):
        parser.error("a dump needs --workload, --seed, --count and --out")
    return dump(args.workload, args.seed, args.count, args.out)


if __name__ == "__main__":
    sys.exit(main())
