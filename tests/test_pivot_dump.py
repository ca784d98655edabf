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
        index, verdict, pivots, digest = line.split("\t")
        assert verdict == "certified" and int(pivots) > 0 and len(digest) == 64
    same = _run("--compare", str(dump), str(dump))
    assert same.returncode == 0 and same.stdout == "0 of 5 lines differ\n"
    # one instance with another pivot count is named
    changed = tmp_path / "changed.txt"
    index, verdict, pivots, digest = lines[2].split("\t")
    changed.write_text("\n".join([header, *lines[:2], f"{index}\t{verdict}\t{int(pivots) + 1}"
                                  f"\t{digest}", lines[3]]) + "\n")
    differ = _run("--compare", str(dump), str(changed))
    assert differ.returncode == 1
    assert differ.stdout.startswith("2:\n") and differ.stdout.endswith("1 of 5 lines differ\n")
