"""The verifier against planted builder bugs, and the rule that keeps it
apart from the builder.

Each planted-bug case monkeypatches one helper that `synthesis` uses to
build a program or to unpack its solution, designs on a fixed set of
problems with the builder left buggy, and asserts that
`verification.verify_certificate` rejects at least one of the
certificates, which it accepts all of with the builder intact. A verifier
that ran the same helper would take the bug for the rule and accept them
all.

- `_extreme_shifts` with its min column set to zero. The robust data check
  once took its projections from this helper; verify then accepted all 26
  of this case's certificates, and the case failed. With the check
  computing the projections itself, verify rejects 25 of the 26.
- `_extreme_shifts` with its [max, min] columns swapped, so that the
  builder tightens each row by the wrong extreme. verify rejects all 26 of
  this case's certificates.
- `_unpack_p` without the pair swap, `_unpack_p` returning P transposed,
  `_row_pairs` with the partners crossed between the first two pairs, and
  `_vertex_rows` with its two factors swapped. verify has never rebuilt P,
  paired the set's rows or built the admissibility rows, so these cases pin
  that independence.

Not caught yet, and pinned as a strict xfail: a vertex lost by
`polytopes.enumerate_vertices`. The builder and the verifier read the same
`cset.vertices`, so both miss such a vertex: on the robust pentagon
problems without their first vertex, the builder makes 7 certificates that
fail against the full vertex list, and verify accepts all 7. Catching it
needs a check that the vertex list is closed under adjacency, which the
verifier does not have yet (ROADMAP item 11).
"""

import ast
import dataclasses
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import ddinv
from ddinv import polytopes, synthesis, verification
from ddinv.experiment import (PlantModel, build_data_matrices,
                              random_input_sequence, simulate)
from ddinv.polytopes import DisturbanceSet, InputPolytope, validate_cset

VERIFICATION_SOURCE = Path(__file__).resolve().parent.parent / "src" / "ddinv" / "verification.py"
_UNPACK_P, _ROW_PAIRS = synthesis._unpack_p, synthesis._row_pairs


def _rejections(problems):
    """(certificates designed, certificates verify rejects) over problems,
    each a SynthesisProblem; a problem the builder finds infeasible or fails
    on makes no certificate."""
    made = rejected = 0
    for problem in problems:
        try:
            cert = synthesis.synthesize(problem)
        except (synthesis.InfeasibleProblem, synthesis.SolverFailure):
            continue
        made += 1
        report = verification.verify_certificate(
            problem.state_set, problem.input_set, cert, data=problem.source,
            disturbance=problem.disturbance)
        rejected += not report.all_ok()
    return made, rejected


def _robust_pentagon_problems():
    """40 random plants, each with one disturbed experiment of T = 8, and a
    robust design on a regular pentagon against a triangular disturbance.
    Neither set is centrally symmetric, so the min projection of a set row
    is not covered by the max of an opposite row."""
    rng = np.random.default_rng(1)
    angles = 2 * np.pi * np.arange(5) / 5
    pentagon = validate_cset(np.column_stack([np.cos(angles), np.sin(angles)]))
    corners = 2 * np.pi * np.arange(3) / 3 + 0.3
    triangle = DisturbanceSet(0.02 * np.column_stack([np.cos(corners), np.sin(corners)]))
    inputs_set = InputPolytope([[0.2], [-0.2]])
    problems = []
    for _ in range(40):
        plant = PlantModel(rng.uniform(-0.5, 0.5, (2, 2)), rng.uniform(-1.0, 1.0, (2, 1)))
        inputs = random_input_sequence(rng, 8, 1, 1.0)
        noise = triangle.vertices[rng.integers(0, 3, 8)] * rng.uniform(0.0, 1.0, (8, 1))
        data = build_data_matrices(inputs, simulate(plant, [0.0, 0.0], inputs, noise))
        problems.append(synthesis.SynthesisProblem(pentagon, inputs_set, 0.0, data,
                                                   disturbance=triangle))
    return problems


def _demo_problems(demo_state_set, demo_input_set, demo_data):
    """The demo data on the demo set, at the minimized level and at 0.95,
    with the demo input interval |u| <= 7 and with |u| <= 3. The demo set
    is centrally symmetric, so the program carries half of P. Admissibility
    binds at |u| <= 3 only: at |u| <= 7 the worst input row has 0.55 to
    spare."""
    return [synthesis.SynthesisProblem(demo_state_set, input_set, lam, demo_data)
            for input_set in (demo_input_set, InputPolytope([[1.0 / 3.0], [-1.0 / 3.0]]))
            for lam in (synthesis.MINIMIZE, 0.95)]


def test_verify_catches_a_dropped_min_projection(monkeypatch):
    problems = _robust_pentagon_problems()
    assert _rejections(problems)[1] == 0
    original = synthesis._extreme_shifts

    def min_dropped(s_h, disturbance):
        shift = original(s_h, disturbance)
        shift[:, 1] = 0.0
        return shift

    monkeypatch.setattr(synthesis, "_extreme_shifts", min_dropped)
    made, rejected = _rejections(problems)
    assert made >= 20 and rejected >= 1


def test_verify_catches_swapped_extreme_projections(monkeypatch):
    # [min, max] for [max, min]: the sign of every extreme column flips
    problems = _robust_pentagon_problems()
    assert _rejections(problems)[1] == 0
    original = synthesis._extreme_shifts
    monkeypatch.setattr(synthesis, "_extreme_shifts",
                        lambda s_h, disturbance: original(s_h, disturbance)[:, ::-1])
    made, rejected = _rejections(problems)
    assert made >= 20 and rejected == made


def _unpack_p_without_pair_swap(primal, offset, s_h):
    n_s = s_h.shape[0]
    reps, partner = synthesis._row_pairs(s_h)
    rows = primal[offset : offset + reps.size * n_s].reshape(reps.size, n_s)
    p_matrix = np.empty((n_s, n_s))
    p_matrix[reps] = rows
    p_matrix[partner[reps]] = rows
    return p_matrix


def _unpack_p_transposed(primal, offset, s_h):
    return _UNPACK_P(primal, offset, s_h).T.copy()


def _row_pairs_crossed(s_h):
    # the first two pairs (a, a') and (b, b') become (a, b') and (b, a')
    reps, partner = _ROW_PAIRS(s_h)
    (a, b), crossed = reps[:2], partner.copy()
    crossed[[a, b, partner[a], partner[b]]] = partner[b], partner[a], b, a
    return np.flatnonzero(np.arange(partner.size) < crossed), crossed


def _vertex_rows_factors_swapped(verts, mat):
    (n_v, n), (rows, q) = verts.shape, mat.shape
    return (mat[None, :, :, None] * verts[:, None, None, :]).reshape(n_v * rows, n * q)


@pytest.mark.parametrize("helper, planted", [
    ("_unpack_p", _unpack_p_without_pair_swap),
    ("_unpack_p", _unpack_p_transposed),
    ("_row_pairs", _row_pairs_crossed),
    ("_vertex_rows", _vertex_rows_factors_swapped),
])
def test_verify_catches_a_planted_nominal_builder_bug(monkeypatch, demo_state_set,
                                                      demo_input_set, demo_data,
                                                      helper, planted):
    problems = _demo_problems(demo_state_set, demo_input_set, demo_data)
    assert _rejections(problems) == (4, 0)
    monkeypatch.setattr(synthesis, helper, planted)
    made, rejected = _rejections(problems)
    assert made >= 1 and rejected >= 1


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the builder and verify share one vertex list, so a vertex lost "
                          "by enumerate_vertices is lost to both (ROADMAP item 11)")
def test_verify_catches_a_lost_vertex(monkeypatch):
    problems = _robust_pentagon_problems()
    enumerate_vertices = polytopes.enumerate_vertices
    monkeypatch.setattr(polytopes, "enumerate_vertices",
                        lambda h_matrix: enumerate_vertices(h_matrix)[1:])
    lost = validate_cset(problems[0].state_set.h_matrix)
    # the certificates built on the set without its first vertex that fail
    # against the full list
    picked = []
    for problem in problems:
        try:
            cert = synthesis.synthesize(dataclasses.replace(problem, state_set=lost))
        except (synthesis.InfeasibleProblem, synthesis.SolverFailure):
            continue
        if not verification.verify_certificate(
                problem.state_set, problem.input_set, cert, data=problem.source,
                disturbance=problem.disturbance).all_ok():
            picked.append((problem, cert))
    if not picked:
        pytest.fail("no certificate fails against the full vertex list")
    for problem, cert in picked:
        assert not verification.verify_certificate(
            lost, problem.input_set, cert, data=problem.source,
            disturbance=problem.disturbance).all_ok()


def _is_allowed_import(node):
    """numpy, a standard-library module, or the sibling `.polytopes`."""
    if isinstance(node, ast.Import):
        tops = [alias.name.split(".")[0] for alias in node.names]
    elif node.level == 0:
        tops = [node.module.split(".")[0]]
    else:
        return node.level == 1 and (node.module == "polytopes" or (
            node.module is None and all(alias.name == "polytopes" for alias in node.names)))
    return all(top == "numpy" or top in sys.stdlib_module_names for top in tops)


def _names(tree):
    """Every name, attribute and imported name in a module's syntax tree."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return names | {alias.name for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}


def test_verification_is_a_leaf_module():
    # importing the module cannot show this: ddinv/__init__ imports every
    # module, so the source is read instead
    tree = ast.parse(VERIFICATION_SOURCE.read_text())
    imports = [node for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports and all(_is_allowed_import(node) for node in imports)
    assert not _names(tree) & {"synthesis", "lp", "__import__", "import_module"}


def test_verify_keeps_one_tolerance():
    # verify judges with DEFAULT_TOL, the tolerance synthesize records in every
    # certificate; only the vertex check can be asked to judge a loop exactly
    # or loosely
    takes_a_tolerance = {
        name for name, value in vars(verification).items()
        if inspect.isfunction(value) and value.__module__ == verification.__name__
        and any("tol" in param for param in inspect.signature(value).parameters)}
    assert takes_a_tolerance == {"check_vertex_contractivity"}
    assert verification.DEFAULT_TOL == 1e-6


def test_only_verification_names_the_data_route_checks():
    # the loop rule lives in verification.loop_refusal; a module that
    # called its two data checks itself would hold a second copy
    for source in sorted(VERIFICATION_SOURCE.parent.glob("*.py")):
        if source != VERIFICATION_SOURCE:
            names = _names(ast.parse(source.read_text()))
            assert not names & {"check_data_consistency", "data_explained"}, source.name


def _route_tests(tree):
    """The comparisons of a `.model` or `.disturbance` with None in a tree."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Compare)
            and isinstance(node.left, ast.Attribute)
            and node.left.attr in {"model", "disturbance"}
            and all(isinstance(right, ast.Constant) and right.value is None
                    for right in node.comparators)]


def test_the_cli_leaves_the_loop_rule_to_verification():
    # loop_refusal takes the model and the disturbance set and decides the
    # route; a command that tested them itself would restate the rule.
    # simulate's one test refuses a disturbance block without a model block
    tree = ast.parse((VERIFICATION_SOURCE.parent / "cli.py").read_text())
    commands = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert not _route_tests(commands["_cmd_verify"])
    simulate = commands["_cmd_simulate"]
    refusals = [node for node in ast.walk(simulate)
                if isinstance(node, ast.If) and _route_tests(node.test)]
    assert len(refusals) == 1
    (refusal,) = refusals
    assert ({id(node) for node in _route_tests(simulate)}
            == {id(node) for node in _route_tests(refusal.test)})
    assert ast.unparse(refusal.body[0]).startswith("return _fail(")


def _bool_tests(tree):
    """The isinstance calls in a tree that name bool."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "isinstance"
            and "bool" in _names(node.args[1])]


def test_fileio_alone_reads_json_numbers_and_rollout_alone_steps_a_loop():
    # a JSON number is an int or a float that is not a bool, and fileio's
    # rules take it from there; experiment's closed-loop rollout is
    # verification.rollout on A + B K. A second copy of either drifts
    trees = {source.name: ast.parse(source.read_text())
             for source in sorted(VERIFICATION_SOURCE.parent.glob("*.py"))}
    assert _bool_tests(trees["fileio.py"])
    assert [name for name, tree in trees.items() if _bool_tests(tree)] == ["fileio.py"]
    (loop,) = [node for node in trees["experiment.py"].body
               if isinstance(node, ast.FunctionDef) and node.name == "simulate_closed_loop"]
    assert not [node for node in ast.walk(loop)
                if isinstance(node, (ast.For, ast.While, ast.comprehension))]
    assert "rollout" in _names(loop)


def test_certificate_search_lives_with_the_builder():
    assert ddinv.find_certificate_matrix is synthesis.find_certificate_matrix
    assert not hasattr(verification, "find_certificate_matrix")
