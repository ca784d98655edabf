import json

import numpy as np
import pytest

from ddinv import fileio


def _awkward(shape, seed=0):
    rng = np.random.default_rng(seed)
    # values with no short decimal form, to prove round trips are exact
    return rng.standard_normal(shape) * np.pi


def _demo_spec():
    return fileio.ProblemSpec(
        state_rows=np.array([[0.2, 0.4], [-0.2, -0.4],
                             [-0.15, 0.2], [0.15, -0.2]]),
        input_rows=np.array([[1.0 / 7.0], [-1.0 / 7.0]]),
        lam=0.84,
        data={"u0t": _awkward((1, 6), 1), "x0t": _awkward((2, 6), 2),
              "x1t": _awkward((2, 6), 3)},
        meta={"seed": 7},
    )


def test_problem_round_trip_is_exact(tmp_path):
    spec = _demo_spec()
    path = tmp_path / "problem.json"
    fileio.save_problem(spec, path)
    loaded = fileio.load_problem(path)
    assert np.array_equal(loaded.state_rows, spec.state_rows)
    assert np.array_equal(loaded.input_rows, spec.input_rows)
    assert loaded.lam == spec.lam
    for key in ("u0t", "x0t", "x1t"):
        assert np.array_equal(loaded.data[key], spec.data[key])
    assert loaded.model is None and loaded.disturbance_vertices is None
    assert loaded.meta == {"seed": 7}


def test_model_and_disturbance_round_trip(tmp_path):
    spec = fileio.ProblemSpec(
        state_rows=np.vstack([np.eye(2), -np.eye(2)]),
        input_rows=np.array([[0.5], [-0.5]]),
        lam="min",
        model={"a": _awkward((2, 2), 4), "b": _awkward((2, 1), 5)},
        disturbance_vertices=0.05 * np.array([[1.0, 1], [1, -1], [-1, 1], [-1, -1]]),
    )
    path = tmp_path / "problem.json"
    fileio.save_problem(spec, path)
    loaded = fileio.load_problem(path)
    assert loaded.lam == "min"
    assert np.array_equal(loaded.model["a"], spec.model["a"])
    assert np.array_equal(loaded.model["b"], spec.model["b"])
    assert np.array_equal(loaded.disturbance_vertices, spec.disturbance_vertices)


def test_certificate_round_trip(tmp_path):
    record = fileio.CertificateRecord(
        gain=_awkward((1, 2), 6), lam=0.7583333333333334,
        g_matrix=_awkward((6, 2), 7), p_matrix=_awkward((4, 4), 8),
        verification={"all_ok": True, "worst_vertex_gauge": 0.84},
        tool_version="0.1.0", input_digest="sha256:abc")
    path = tmp_path / "certificate.json"
    fileio.save_certificate(record, path)
    loaded = fileio.load_certificate(path)
    assert np.array_equal(loaded.gain, record.gain)
    assert loaded.lam == record.lam
    assert np.array_equal(loaded.g_matrix, record.g_matrix)
    assert np.array_equal(loaded.p_matrix, record.p_matrix)
    assert loaded.verification == record.verification
    assert loaded.tool_version == "0.1.0"
    assert loaded.input_digest == "sha256:abc"


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


@pytest.mark.parametrize("level", [False, True, None, [0.5]])
def test_level_must_be_a_number(tmp_path, level):
    path = tmp_path / "problem.json"
    fileio.save_problem(_demo_spec(), path)
    raw = json.loads(path.read_text())
    raw["lambda"] = level
    path.write_text(json.dumps(raw))
    with pytest.raises(fileio.FileFormatError):
        fileio.load_problem(path)
    record = fileio.CertificateRecord(gain=np.ones((1, 2)), lam=0.5)
    fileio.save_certificate(record, path)
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
        fileio.save_certificate(fileio.CertificateRecord(gain=gain, lam=0.5), path)
    assert not path.exists()
    spec = _demo_spec()
    spec.data["x1t"][1, 3] = bad
    with pytest.raises(fileio.FileFormatError, match="non-finite"):
        fileio.save_problem(spec, path)
    assert not path.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_matrix_codec_rejects_non_finite_entries(bad):
    with pytest.raises(fileio.FileFormatError, match="data.x1t has a non-finite entry"):
        fileio.obj_to_matrix({"shape": [1, 2], "values": [1.0, bad]}, "data.x1t")
    with pytest.raises(fileio.FileFormatError, match="gain has a non-finite entry"):
        fileio.rows_to_matrix([[bad, 0.5]], "gain")
