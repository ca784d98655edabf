import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "pivot_dump.py"


def _run(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True, text=True,
                          timeout=120)


def test_dump_compared_with_itself_reports_no_difference(tmp_path):
    dump = tmp_path / "dump.txt"
    made = _run("--workload", "robust_box", "--seed", "7", "--count", "4", "--out", str(dump))
    assert made.returncode == 0, made.stderr
    header, *lines = dump.read_text().splitlines()
    assert header == "# robust_box seed 7 count 4"
    assert [line.split("\t")[0] for line in lines] == ["0", "1", "2", "3"]
    for line in lines:
        # set validation solves nothing: the design program is the only solve
        index, verdict, design, vertices = line.split("\t")
        name, fingerprint = design.split("=")
        pivots, digest = fingerprint.split(":")
        assert verdict == "certified" and name == "synthesis"
        assert int(pivots) > 0 and len(digest) == 64
        # every instance validates the same box, so its vertices hash alike
        assert vertices == lines[0].split("\t")[-1] and len(vertices) == len("vertices=") + 64
    same = _run("--compare", str(dump), str(dump))
    assert same.returncode == 0 and same.stdout == "0 of 5 lines differ\n"
    # one instance with another design pivot count is named, with the field
    changed = tmp_path / "changed.txt"
    index, verdict, design, vertices = lines[2].split("\t")
    pivots, digest = design.split("=")[1].split(":")
    changed.write_text("\n".join([header, *lines[:2], f"{index}\t{verdict}"
                                  f"\tsynthesis={int(pivots) + 1}:{digest}\t{vertices}",
                                  lines[3]]) + "\n")
    differ = _run("--compare", str(dump), str(changed))
    assert differ.returncode == 1
    assert differ.stdout.startswith("2: synthesis\n")
    assert differ.stdout.endswith("1 of 5 lines differ\n")


def test_dump_fingerprints_each_calling_module_and_the_files(tmp_path):
    dump = tmp_path / "dump.txt"
    made = _run("--workload", "cli_rollout", "--seed", "7", "--count", "2", "--out", str(dump))
    assert made.returncode == 0, made.stderr
    for line in dump.read_text().splitlines()[1:]:
        index, verdict, *fields = line.split("\t")
        names = [field.split("=")[0] for field in fields]
        assert names[-3:] == ["vertices", "files", "output"]
        assert names[:-3] == sorted(names[:-3])
        assert "synthesis" in names and "polytopes" not in names
    # a second dump runs in another work directory, whose path the output
    # hash leaves out, so the two agree line for line
    again = tmp_path / "again.txt"
    made = _run("--workload", "cli_rollout", "--seed", "7", "--count", "2", "--out", str(again))
    assert made.returncode == 0, made.stderr
    assert again.read_text() == dump.read_text()
    # output that moves while every solve and file stays is named
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("# h\n0\tcertified\tsynthesis=5:aa\tfiles=ff\toutput=11\n")
    b.write_text("# h\n0\tcertified\tsynthesis=5:aa\tfiles=ff\toutput=22\n")
    differ = _run("--compare", str(a), str(b))
    assert differ.returncode == 1 and differ.stdout.startswith("0: output\n")
    # a verification solve that moves is told apart from the design solve
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("# h\n0\tcertified\tsynthesis=5:aa\tverification=2:bb\n")
    b.write_text("# h\n0\tcertified\tsynthesis=5:aa\tverification=3:cc\n")
    differ = _run("--compare", str(a), str(b))
    assert differ.returncode == 1 and differ.stdout.startswith("0: verification\n")
    # so is a vertex that moves while every solve stays
    a.write_text("# h\n0\tcertified\tsynthesis=5:aa\tverification=2:bb\tvertices=dd\n")
    b.write_text("# h\n0\tcertified\tsynthesis=5:aa\tverification=2:bb\tvertices=ee\n")
    differ = _run("--compare", str(a), str(b))
    assert differ.returncode == 1 and differ.stdout.startswith("0: vertices\n")


def test_compare_tallies_each_files_verdicts_when_lines_differ(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("# h\n0\tcertified\tsynthesis=5:aa\n1\tcertified\tsynthesis=4:bb\n"
                 "2\tinfeasible\tsynthesis=9:cc\n")
    b.write_text("# h\n0\tcertified\tsynthesis=5:aa\n1\tinfeasible\tsynthesis=7:dd\n"
                 "2\tinfeasible\tsynthesis=9:cc\n")
    differ = _run("--compare", str(a), str(b))
    assert differ.returncode == 1 and differ.stdout.startswith("1: verdict, synthesis\n")
    assert f"\nverdict moves: 1 certified -> infeasible\n{a}: " in differ.stdout
    assert differ.stdout.endswith(f"{a}: 2 certified, 1 infeasible\n"
                                  f"{b}: 2 infeasible, 1 certified\n1 of 4 lines differ\n")
    # lines that all agree print the count alone
    same = _run("--compare", str(a), str(a))
    assert same.returncode == 0 and same.stdout == "0 of 4 lines differ\n"


def test_compare_tallies_the_verdicts_that_moved(tmp_path):
    # a change that moves verdicts on purpose shows which way they went,
    # most frequent first; instances whose verdict stayed are not moves
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    old = ["pivot_budget", "pivot_budget", "pivot_budget", "certified", "infeasible",
           "certified"]
    new = ["certified", "certified", "infeasible", "solver_failure", "infeasible",
           "certified"]
    a.write_text("# h\n" + "".join(f"{i}\t{v}\tsynthesis=5:aa\n" for i, v in enumerate(old)))
    b.write_text("# h\n" + "".join(f"{i}\t{v}\tsynthesis={6 + (i == 4)}:bb\n"
                                   for i, v in enumerate(new)))
    differ = _run("--compare", str(a), str(b))
    assert differ.returncode == 1
    assert ("\nverdict moves: 2 pivot_budget -> certified, 1 pivot_budget -> infeasible, "
            "1 certified -> solver_failure\n") in differ.stdout
    # lines that differ with every verdict in place say so
    b.write_text("# h\n" + "".join(f"{i}\t{v}\tsynthesis=6:bb\n" for i, v in enumerate(old)))
    differ = _run("--compare", str(a), str(b))
    assert differ.returncode == 1 and "\nverdict moves: none\n" in differ.stdout
