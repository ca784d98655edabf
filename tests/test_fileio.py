import json
import re

import numpy as np
import pytest

from ddinv import __version__, fileio, polytopes
from ddinv.experiment import ExperimentData, PlantModel
from ddinv.polytopes import DisturbanceSet, InputPolytope, validate_cset
from ddinv.synthesis import MINIMIZE, Certificate


def _awkward(shape, seed=0):
    rng = np.random.default_rng(seed)
    # values with no short decimal form, to prove round trips are exact
    return rng.standard_normal(shape) * np.pi


def _demo_spec():
    return fileio.ProblemSpec(
        state_set=validate_cset(np.array([[0.2, 0.4], [-0.2, -0.4],
                                          [-0.15, 0.2], [0.15, -0.2]])),
        input_set=InputPolytope(np.array([[1.0 / 7.0], [-1.0 / 7.0]])),
        lam=0.84,
        data=ExperimentData(u0t=_awkward((1, 6), 1), x0t=_awkward((2, 6), 2),
                            x1t=_awkward((2, 6), 3)),
        meta={"seed": 7},
    )


def test_problem_round_trip_is_exact(tmp_path):
    spec = _demo_spec()
    path = tmp_path / "problem.json"
    fileio.save_problem(spec, path)
    loaded = fileio.load_problem(path)
    assert np.array_equal(loaded.state_set.h_matrix, spec.state_set.h_matrix)
    assert np.array_equal(loaded.state_set.vertices, spec.state_set.vertices)
    assert np.array_equal(loaded.input_set.h_matrix, spec.input_set.h_matrix)
    assert loaded.lam == spec.lam
    for key in ("u0t", "x0t", "x1t"):
        assert np.array_equal(getattr(loaded.data, key), getattr(spec.data, key))
    assert loaded.model is None and loaded.disturbance is None
    assert loaded.meta == {"seed": 7}


def test_model_and_disturbance_round_trip(tmp_path):
    spec = fileio.ProblemSpec(
        state_set=validate_cset(np.vstack([np.eye(2), -np.eye(2)])),
        input_set=InputPolytope(np.array([[0.5], [-0.5]])),
        lam=MINIMIZE,
        model=PlantModel(_awkward((2, 2), 4), _awkward((2, 1), 5)),
        disturbance=DisturbanceSet(0.05 * np.array([[1.0, 1], [1, -1], [-1, 1], [-1, -1]])),
    )
    path = tmp_path / "problem.json"
    fileio.save_problem(spec, path)
    assert json.loads(path.read_text())["lambda"] == "min"
    loaded = fileio.load_problem(path)
    assert loaded.lam == MINIMIZE
    assert np.array_equal(loaded.model.a_matrix, spec.model.a_matrix)
    assert np.array_equal(loaded.model.b_matrix, spec.model.b_matrix)
    assert np.array_equal(loaded.disturbance.vertices, spec.disturbance.vertices)


def test_certificate_round_trip(tmp_path):
    record = Certificate(
        gain=_awkward((1, 2), 6), lam=0.7583333333333334,
        g_matrix=_awkward((6, 2), 7), p_matrix=_awkward((4, 4), 8))
    verification = {"all_ok": True, "worst_vertex_gauge": 0.84}
    path = tmp_path / "certificate.json"
    fileio.save_certificate(record, path, verification, "sha256:abc")
    loaded, digest = fileio.load_certificate(path)
    assert np.array_equal(loaded.gain, record.gain)
    assert loaded.lam == record.lam
    assert np.array_equal(loaded.g_matrix, record.g_matrix)
    assert np.array_equal(loaded.p_matrix, record.p_matrix)
    raw = json.loads(path.read_text())
    assert raw["verification"] == verification
    assert raw["tool_version"] == __version__
    assert digest == "sha256:abc"


def test_canonical_form_is_deterministic(tmp_path):
    spec = _demo_spec()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    fileio.save_problem(spec, a)
    fileio.save_problem(spec, b)
    assert a.read_bytes() == b.read_bytes()
    assert fileio.file_digest(a) == fileio.file_digest(b)
    assert fileio.file_digest(a).startswith("sha256:")
    text = a.read_text()
    assert text.endswith("\n")
    # key order must not depend on insertion order
    reordered = json.dumps(dict(reversed(list(json.loads(text).items()))))
    (tmp_path / "c.json").write_text(reordered)
    assert fileio.canonical_dumps(json.loads(reordered)) == text


def test_digest_tracks_content(tmp_path):
    spec = _demo_spec()
    path = tmp_path / "problem.json"
    fileio.save_problem(spec, path)
    before = fileio.file_digest(path)
    spec.lam = 0.9
    fileio.save_problem(spec, path)
    assert fileio.file_digest(path) != before


@pytest.mark.parametrize("mutate", [
    lambda raw: raw.pop("state_set"),
    lambda raw: raw.pop("lambda"),
    lambda raw: raw.update(lam=None) or raw.update({"lambda": "smallest"}),
    lambda raw: raw.update({"lambda": 1.0}),
    lambda raw: raw.update({"lambda": -0.2}),
    lambda raw: raw["data"].pop("x1t"),
    lambda raw: raw["data"]["x0t"]["shape"].__setitem__(1, 4),
    lambda raw: raw["state_set"].__setitem__(0, [0.2]),
    lambda raw: raw.update({"data": None, "model": None}),
])
def test_malformed_problem_files_are_rejected(tmp_path, mutate):
    spec = _demo_spec()
    path = tmp_path / "problem.json"
    fileio.save_problem(spec, path)
    raw = json.loads(path.read_text())
    mutate(raw)
    path.write_text(json.dumps(raw))
    with pytest.raises(fileio.FileFormatError):
        fileio.load_problem(path)


def test_unparseable_json_is_rejected(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text("{not json")
    with pytest.raises(fileio.FileFormatError):
        fileio.load_problem(path)


@pytest.mark.parametrize("content", [b'{"lambda": "\xff"}', b"[" * 100000 + b"]" * 100000],
                         ids=["not-utf8", "nested-too-deep"])
def test_unreadable_files_are_format_errors_that_name_the_file(tmp_path, content):
    path = tmp_path / "problem.json"
    path.write_bytes(content)
    with pytest.raises(fileio.FileFormatError, match=f"^{re.escape(str(path))}: not valid JSON"):
        fileio.load_problem(path)


def test_numbers_too_large_for_a_float_name_their_field():
    with pytest.raises(fileio.FileFormatError, match="^lambda is too large for a float$"):
        fileio.contraction_level(10**400)
    with pytest.raises(fileio.FileFormatError, match="^gain has an entry too large for a float$"):
        fileio.rows_to_matrix([[1.0, -10**400]], "gain")
    for obj in ({"shape": [1, 1], "values": [10**400]}, {"shape": [10**400, 0], "values": []}):
        with pytest.raises(fileio.FileFormatError, match="^data.x1t: "):
            fileio.obj_to_matrix(obj, "data.x1t")


def test_a_refused_write_names_the_file(tmp_path):
    path = tmp_path / "certificate.json"
    with pytest.raises(fileio.FileFormatError,
                       match=f"^{re.escape(str(path))}: a non-finite number has no JSON form"):
        fileio.save_certificate(Certificate(gain=[[np.nan, 1.0]], lam=0.5), path, {}, "")


def test_matrix_codec_rejects_bad_shapes():
    with pytest.raises(fileio.FileFormatError):
        fileio.obj_to_matrix({"shape": [2, 2], "values": [1.0, 2.0]}, "block")
    with pytest.raises(fileio.FileFormatError):
        fileio.obj_to_matrix(None, "block")
    with pytest.raises(fileio.FileFormatError):
        fileio.rows_to_matrix([[1.0, 2.0], [3.0]], "rows")
    mat = np.arange(6, dtype=float).reshape(2, 3)
    assert np.array_equal(
        fileio.obj_to_matrix(fileio.matrix_to_obj(mat), "block"), mat)
    assert np.array_equal(
        fileio.rows_to_matrix(fileio.matrix_to_rows(mat), "rows"), mat)


@pytest.mark.parametrize("obj", [
    {"shape": "ab", "values": [1.0, 2.0]},
    {"shape": [1, 2], "values": ["a", "b"]},
    {"shape": [1, 2], "values": [[1.0], 2.0]},
    {"shape": [2], "values": [1.0, 2.0]},
    {"shape": [-1, -1], "values": [1.0]},
    {"shape": [None, 2], "values": [1.0, 2.0]},
])
def test_matrix_codec_rejects_non_numeric_parts(obj):
    with pytest.raises(fileio.FileFormatError):
        fileio.obj_to_matrix(obj, "block")


@pytest.mark.parametrize("obj, field", [
    ({"shape": [1, 1], "values": [[[[1]]]]}, "values"),
    ({"shape": [1, 1], "values": ["0.2"]}, "values"),
    ({"shape": [1, 1], "values": [False]}, "values"),
    ({"shape": [1, 1], "values": 0.2}, "values"),
    ({"shape": [2.7, 1], "values": [1.0, 2.0]}, "shape"),
    ({"shape": ["1", 1], "values": [1.0]}, "shape"),
    ({"shape": [True, 1], "values": [1.0]}, "shape"),
    ({"shape": [1, 1, 1], "values": [1.0]}, "shape"),
])
def test_matrix_objects_take_only_what_ddinv_writes(obj, field):
    # a shape is two non-negative JSON integers and the values a flat list
    # of JSON numbers; nothing is truncated, flattened or parsed from text
    with pytest.raises(fileio.FileFormatError, match=f"^data.x1t: {field} must be "):
        fileio.obj_to_matrix(obj, "data.x1t")


@pytest.mark.parametrize("rows", [[["0.2", 1.0]], [[True, 1.0]], [[[1.0], 2.0]], ["ab"], "ab"])
def test_matrix_rows_take_only_json_numbers(rows):
    with pytest.raises(fileio.FileFormatError,
                       match="^gain must be a list of equal-length rows of numbers$"):
        fileio.rows_to_matrix(rows, "gain")


@pytest.mark.parametrize("level", [False, True, None, [0.5]])
def test_level_must_be_a_number(tmp_path, level):
    path = tmp_path / "problem.json"
    fileio.save_problem(_demo_spec(), path)
    raw = json.loads(path.read_text())
    raw["lambda"] = level
    path.write_text(json.dumps(raw))
    with pytest.raises(fileio.FileFormatError):
        fileio.load_problem(path)
    record = Certificate(gain=np.ones((1, 2)), lam=0.5)
    fileio.save_certificate(record, path, {}, "")
    raw = json.loads(path.read_text())
    raw["lambda"] = level
    path.write_text(json.dumps(raw))
    with pytest.raises(fileio.FileFormatError):
        fileio.load_certificate(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_matrix_is_not_written(tmp_path, bad):
    gain = np.ones((1, 2))
    gain[0, 1] = bad
    path = tmp_path / "certificate.json"
    with pytest.raises(fileio.FileFormatError, match="non-finite"):
        fileio.save_certificate(Certificate(gain=gain, lam=0.5), path, {}, "")
    assert not path.exists()
    spec = _demo_spec()
    spec.data.x1t[1, 3] = bad
    with pytest.raises(fileio.FileFormatError, match="non-finite"):
        fileio.save_problem(spec, path)
    assert not path.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_matrix_codec_rejects_non_finite_entries(bad):
    with pytest.raises(fileio.FileFormatError, match="data.x1t has a non-finite entry"):
        fileio.obj_to_matrix({"shape": [1, 2], "values": [1.0, bad]}, "data.x1t")
    with pytest.raises(fileio.FileFormatError, match="gain has a non-finite entry"):
        fileio.rows_to_matrix([[bad, 0.5]], "gain")


def test_load_problem_validates_through_the_polytopes_module(tmp_path, monkeypatch):
    path = tmp_path / "problem.json"
    fileio.save_problem(_demo_spec(), path)
    calls = []
    real = polytopes.validate_cset

    def counted(h_matrix):
        calls.append(h_matrix)
        return real(h_matrix)

    monkeypatch.setattr(polytopes, "validate_cset", counted)
    fileio.load_problem(path)
    assert len(calls) == 1


@pytest.mark.parametrize("mutate, reason", [
    (lambda raw: raw.update(state_set=[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]),
     "invalid problem: set is unbounded"),
    (lambda raw: raw["data"]["x1t"].update(shape=[3, 4], values=[0.0] * 12),
     "invalid problem: data matrices must share the sample count"),
    (lambda raw: raw.update(model={"A": [[1.0, 0.0]], "B": [[1.0]]}),
     "invalid problem: A must be square"),
    (lambda raw: raw.update(disturbance={"vertices": [[1.0, 1.0]]}),
     "invalid problem: disturbance hull must contain the origin"),
    (lambda raw: raw.update(state_set=[[1.0, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]]),
     "do not match the data"),
])
def test_objects_that_refuse_the_content_give_a_format_error(tmp_path, mutate, reason):
    path = tmp_path / "problem.json"
    fileio.save_problem(_demo_spec(), path)
    raw = json.loads(path.read_text())
    mutate(raw)
    path.write_text(json.dumps(raw))
    with pytest.raises(fileio.FileFormatError, match=reason):
        fileio.load_problem(path)
