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
- `_unpack_p` without the pair swap, `_unpack_p` returning P transposed,
  `_row_pairs` with the partners crossed between the first two pairs, and
  `_vertex_rows` with its two factors swapped. verify has never rebuilt P,
  paired the set's rows or built the admissibility rows, so these cases pin
  that independence.

Not covered: a vertex lost by `polytopes.enumerate_vertices`. The builder
and the verifier read the same `cset.vertices`, so both miss such a vertex.
Catching it needs a check that the vertex list is closed under adjacency,
which the verifier does not have yet.
"""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest

import ddinv
from ddinv import synthesis, verification
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


def test_verification_is_a_leaf_module():
    # importing the module cannot show this: ddinv/__init__ imports every
    # module, so the source is read instead
    tree = ast.parse(VERIFICATION_SOURCE.read_text())
    imports = [node for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports and all(_is_allowed_import(node) for node in imports)
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not names & {"synthesis", "lp", "__import__", "import_module"}


def test_certificate_search_lives_with_the_builder():
    assert ddinv.find_certificate_matrix is synthesis.find_certificate_matrix
    assert not hasattr(verification, "find_certificate_matrix")
