"""JSON problem and certificate files, read into and written from the
library's own objects.

`load_problem` returns a `ProblemSpec`: the state set validated as a C-set,
the input set, the experiment data and/or the plant model, the disturbance
set and the level, where the file's "min" becomes `synthesis.MINIMIZE`. This
module is the gate for outside input: a file that is not UTF-8 JSON, that
nests too deep, that holds a number too large for a float, or whose content
those objects refuse is a FileFormatError.
`parse_problem` applies the same rules to a JSON object already read, such
as the problem part of a generate config, and `integer` and `magnitude`
read the config's other numbers. A certificate file holds a
`synthesis.Certificate` plus the verification report that `synthesize`
embedded, the tool version and the digest of the problem file;
`load_certificate` returns the certificate and the digest.

Matrices travel as {"shape": [rows, cols], "values": [row-major flat list]}.
Serialization is canonical (sorted keys, fixed separators, trailing newline)
so identical content produces identical bytes, and floats use the shortest
round-trip decimal form, which is lossless for binary64.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

import numpy as np

from . import __version__, polytopes, synthesis
from .experiment import ExperimentData, PlantModel
from .polytopes import DisturbanceSet, InputPolytope, PolyhedralCSet
from .synthesis import Certificate
from .verification import certified_level


class FileFormatError(ValueError):
    pass


def matrix_to_obj(mat) -> dict:
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    return {"shape": [int(mat.shape[0]), int(mat.shape[1])],
            "values": [float(v) for v in mat.ravel()]}


def _is_number(value) -> bool:
    """A JSON number: an integer or a float, and not a boolean."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(mat: np.ndarray, name: str) -> np.ndarray:
    # json.load accepts the bare NaN and Infinity tokens
    if not np.all(np.isfinite(mat)):
        raise FileFormatError(f"{name} has a non-finite entry")
    return mat


def obj_to_matrix(obj, name: str) -> np.ndarray:
    """The matrix of {"shape": [rows, cols], "values": [...]}: the shape two
    non-negative JSON integers, the values a flat list of rows * cols JSON
    numbers, all finite."""
    if not isinstance(obj, dict) or "shape" not in obj or "values" not in obj:
        raise FileFormatError(f"{name} must carry 'shape' and 'values'")
    shape, values = obj["shape"], obj["values"]
    if not (isinstance(shape, list) and len(shape) == 2
            and all(_is_number(v) and isinstance(v, int) and v >= 0 for v in shape)):
        raise FileFormatError(f"{name}: shape must be a list of two non-negative integers")
    if not (isinstance(values, list) and all(map(_is_number, values))):
        raise FileFormatError(f"{name}: values must be a flat list of numbers")
    rows, cols = shape
    if len(values) != rows * cols:
        raise FileFormatError(f"{name}: {len(values)} values for shape {rows}x{cols}")
    try:
        # reshape refuses a shape too large for any array, such as [10**400, 0]
        mat = np.array(values, dtype=float).reshape(rows, cols)
    except (ValueError, OverflowError) as exc:
        raise FileFormatError(f"{name}: the values make no float matrix ({exc})") from exc
    return _finite(mat, name)


def rows_to_matrix(obj, name: str) -> np.ndarray:
    """The matrix of a list of equal-length rows of JSON numbers, all finite."""
    if not (isinstance(obj, list)
            and all(isinstance(row, list) and all(map(_is_number, row)) for row in obj)):
        raise FileFormatError(f"{name} must be a list of equal-length rows of numbers")
    try:
        mat = np.array(obj, dtype=float)
    except OverflowError as exc:
        raise FileFormatError(f"{name} has an entry too large for a float") from exc
    except ValueError as exc:
        raise FileFormatError(f"{name} must be a list of equal-length rows") from exc
    if mat.ndim != 2:
        raise FileFormatError(f"{name} must be a list of equal-length rows")
    return _finite(mat, name)


def number_list(obj, name: str) -> np.ndarray:
    """The vector of a flat list of JSON numbers, all finite."""
    if not (isinstance(obj, list) and all(map(_is_number, obj))):
        raise FileFormatError(f"{name} must be a flat list of numbers")
    try:
        vec = np.array(obj, dtype=float)
    except OverflowError as exc:
        raise FileFormatError(f"{name} has an entry too large for a float") from exc
    return _finite(vec, name)


def matrix_to_rows(mat) -> list:
    return [[float(v) for v in row] for row in np.atleast_2d(np.asarray(mat, dtype=float))]


def canonical_dumps(payload) -> str:
    """Strict JSON (RFC 8259): a non-finite number raises ValueError instead
    of becoming a bare Infinity or NaN token."""
    return json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=2,
                      allow_nan=False) + "\n"


def _number(value, name: str) -> float:
    """A JSON number as a float; booleans, strings and null are refused."""
    if not _is_number(value):
        raise FileFormatError(f"{name} must be a number")
    try:
        return float(value)
    except OverflowError as exc:
        raise FileFormatError(f"{name} is too large for a float") from exc


def integer(value, name: str, least: int) -> int:
    """A JSON integer of at least `least`; booleans and fractions are refused."""
    if not (_is_number(value) and isinstance(value, int) and value >= least):
        raise FileFormatError(f"{name} must be an integer of at least {least}")
    return value


def magnitude(value, name: str) -> float:
    """A finite non-negative JSON number r whose range [-r, r] has a finite
    width, as a uniform draw on it needs."""
    r = _number(value, name)
    if not 0.0 <= 2.0 * r < np.inf:
        raise FileFormatError(f"{name} must be a finite non-negative number "
                              "at most half the largest float")
    return r


def contraction_level(value):
    """A contraction level as spelled in a file: the string 'min', which
    becomes synthesis.MINIMIZE, or a number under synthesis's level rule."""
    if isinstance(value, str):
        if value != "min":
            raise FileFormatError("lambda must be a number or the string 'min'")
        return synthesis.MINIMIZE
    lam = _number(value, "lambda")
    try:
        return synthesis.contraction_level(lam)
    except ValueError as exc:
        raise FileFormatError(f"lambda: {exc}") from exc


def _typed(raw: dict, key: str, kind, default):
    """raw[key] when it has the JSON type kind, default when absent."""
    value = raw.get(key, default)
    if not isinstance(value, kind):
        raise FileFormatError(f"{key} must be a JSON {'object' if kind is dict else 'string'}")
    return value


def read_json_object(path) -> dict:
    """The JSON object a file holds; other content, bytes that are not UTF-8
    and nesting too deep for the parser included, is a FileFormatError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    # UnicodeDecodeError and json.JSONDecodeError are ValueErrors
    except (ValueError, RecursionError) as exc:
        raise FileFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise FileFormatError(f"{path}: must hold a JSON object")
    return raw


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


def _write(payload: dict, path):
    try:
        text = canonical_dumps(payload)
    except ValueError as exc:
        raise FileFormatError(f"{path}: a non-finite number has no JSON form ({exc})") from exc
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


@dataclass
class ProblemSpec:
    """A problem file as library objects: the validated state set, the input
    set, the level (a number or synthesis.MINIMIZE), experiment data and/or
    a plant model, an optional disturbance set, and free-form metadata."""

    state_set: PolyhedralCSet
    input_set: InputPolytope
    lam: Union[float, str]
    data: Optional[ExperimentData] = None
    model: Optional[PlantModel] = None
    disturbance: Optional[DisturbanceSet] = None
    meta: dict = field(default_factory=dict)


def load_problem(path) -> ProblemSpec:
    return parse_problem(read_json_object(path), path)


def parse_problem(raw: dict, where) -> ProblemSpec:
    """The problem a JSON object spells, under the rules of a problem file;
    `where` names its source in the message of a missing key."""
    for key in ("state_set", "input_set", "lambda"):
        if key not in raw:
            raise FileFormatError(f"{where}: missing '{key}'")
    for key in ("data", "model", "disturbance"):
        if raw.get(key) is not None and not isinstance(raw[key], dict):
            raise FileFormatError(f"{key} must be a JSON object")
    state_rows = rows_to_matrix(raw["state_set"], "state_set")
    input_rows = rows_to_matrix(raw["input_set"], "input_set")
    lam = contraction_level(raw["lambda"])
    meta = _typed(raw, "meta", dict, {})
    data = raw.get("data")
    if data is not None:
        data = [obj_to_matrix(data.get(key), f"data.{key}") for key in ("u0t", "x0t", "x1t")]
    model = raw.get("model")
    if model is not None:
        if "A" not in model or "B" not in model:
            raise FileFormatError("model must carry 'A' and 'B'")
        model = [rows_to_matrix(model["A"], "model.A"), rows_to_matrix(model["B"], "model.B")]
    disturbance = raw.get("disturbance")
    if disturbance is not None:
        if "vertices" not in disturbance:
            raise FileFormatError("disturbance must carry 'vertices'")
        disturbance = rows_to_matrix(disturbance["vertices"], "disturbance.vertices")
    if data is None and model is None:
        raise FileFormatError("problem needs a data block or a model block")
    try:
        # through the module, so that a patched polytopes.validate_cset (the
        # benchmark's tracer) sees the call
        spec = ProblemSpec(
            state_set=polytopes.validate_cset(state_rows), input_set=InputPolytope(input_rows),
            lam=lam, data=None if data is None else ExperimentData(*data),
            model=None if model is None else PlantModel(*model),
            disturbance=None if disturbance is None else DisturbanceSet(disturbance), meta=meta)
    except ValueError as exc:
        raise FileFormatError(f"invalid problem: {exc}") from exc
    n, m = spec.state_set.dim, spec.input_set.dim
    for name, source in (("data", spec.data), ("model", spec.model)):
        if source is not None and (source.n, source.m) != (n, m):
            raise FileFormatError(f"set dimensions do not match the {name}")
    if spec.disturbance is not None and spec.disturbance.dim != n:
        raise FileFormatError("disturbance vertices do not match the state dimension")
    return spec


def save_problem(spec: ProblemSpec, path):
    payload = {
        "state_set": matrix_to_rows(spec.state_set.h_matrix),
        "input_set": matrix_to_rows(spec.input_set.h_matrix),
        "lambda": "min" if spec.lam == synthesis.MINIMIZE else spec.lam,
    }
    if spec.data is not None:
        payload["data"] = {key: matrix_to_obj(getattr(spec.data, key))
                           for key in ("u0t", "x0t", "x1t")}
    if spec.model is not None:
        payload["model"] = {"A": matrix_to_rows(spec.model.a_matrix),
                            "B": matrix_to_rows(spec.model.b_matrix)}
    if spec.disturbance is not None:
        payload["disturbance"] = {"vertices": matrix_to_rows(spec.disturbance.vertices)}
    if spec.meta:
        payload["meta"] = spec.meta
    _write(payload, path)


def load_certificate(path) -> Tuple[Certificate, str]:
    """The certificate a file holds and the problem digest it records ('' when
    none). The embedded verification report and tool version are checked for
    type only: verify recomputes the one and has no use for the other."""
    raw = read_json_object(path)
    for key in ("gain", "lambda"):
        if key not in raw:
            raise FileFormatError(f"{path}: missing '{key}'")
    _typed(raw, "verification", dict, {})
    _typed(raw, "tool_version", str, "")
    matrices = {key: obj_to_matrix(raw[key], key) if raw.get(key) is not None else None
                for key in ("g_matrix", "p_matrix")}
    lam = _number(raw["lambda"], "lambda")
    try:
        lam = certified_level(lam)
    except ValueError as exc:
        raise FileFormatError(f"lambda: {exc}") from exc
    certificate = Certificate(gain=rows_to_matrix(raw["gain"], "gain"), lam=lam, **matrices)
    return certificate, _typed(raw, "input_digest", str, "")


def save_certificate(certificate: Certificate, path, verification: dict, input_digest: str):
    """Write a certificate with its verification report, this version of the
    tool and the digest of the problem file it was computed from."""
    _write({
        "gain": matrix_to_rows(certificate.gain),
        "lambda": float(certificate.lam),
        "g_matrix": None if certificate.g_matrix is None else matrix_to_obj(certificate.g_matrix),
        "p_matrix": None if certificate.p_matrix is None else matrix_to_obj(certificate.p_matrix),
        "verification": verification,
        "tool_version": __version__,
        "input_digest": input_digest,
    }, path)
