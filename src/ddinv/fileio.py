"""JSON problem and certificate files.

Matrices travel as {"shape": [rows, cols], "values": [row-major flat list]}.
Serialization is canonical (sorted keys, fixed separators, trailing newline)
so identical content produces identical bytes, and floats use the shortest
round-trip decimal form, which is lossless for binary64.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np


class FileFormatError(ValueError):
    pass


def matrix_to_obj(mat) -> dict:
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    return {"shape": [int(mat.shape[0]), int(mat.shape[1])],
            "values": [float(v) for v in mat.ravel()]}


def obj_to_matrix(obj, name: str) -> np.ndarray:
    if not isinstance(obj, dict) or "shape" not in obj or "values" not in obj:
        raise FileFormatError(f"{name} must carry 'shape' and 'values'")
    try:
        rows, cols = (int(v) for v in obj["shape"])
        values = np.asarray(obj["values"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"{name}: shape and values must be numbers ({exc})") from exc
    if min(rows, cols) < 0 or values.size != rows * cols:
        raise FileFormatError(f"{name}: {values.size} values for shape {rows}x{cols}")
    return values.reshape(rows, cols)


def rows_to_matrix(obj, name: str) -> np.ndarray:
    try:
        mat = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"{name} must be a list of equal-length rows") from exc
    if mat.ndim != 2:
        raise FileFormatError(f"{name} must be a list of equal-length rows")
    return mat


def matrix_to_rows(mat) -> list:
    return [[float(v) for v in row] for row in np.atleast_2d(np.asarray(mat, dtype=float))]


def canonical_dumps(payload) -> str:
    """Strict JSON (RFC 8259): a non-finite number raises FileFormatError
    instead of becoming a bare Infinity or NaN token."""
    try:
        text = json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=2,
                          allow_nan=False)
    except ValueError as exc:
        raise FileFormatError(f"a non-finite number has no JSON form ({exc})") from exc
    return text + "\n"


def _number(value, name: str) -> float:
    """A JSON number as a float; booleans, strings and null are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FileFormatError(f"{name} must be a number")
    return float(value)


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


@dataclass
class ProblemSpec:
    """Parsed problem file, before semantic validation of the sets."""

    state_rows: np.ndarray
    input_rows: np.ndarray
    lam: object  # float or the literal "min"
    data: Optional[dict] = None      # keys u0t, x0t, x1t -> arrays
    model: Optional[dict] = None     # keys a, b -> arrays
    disturbance_vertices: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)


def load_problem(path) -> ProblemSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: not valid JSON ({exc})") from exc
    for key in ("state_set", "input_set", "lambda"):
        if key not in raw:
            raise FileFormatError(f"{path}: missing '{key}'")
    state_rows = rows_to_matrix(raw["state_set"], "state_set")
    input_rows = rows_to_matrix(raw["input_set"], "input_set")
    lam = raw["lambda"]
    if isinstance(lam, str):
        if lam != "min":
            raise FileFormatError("lambda must be a number or the string 'min'")
    else:
        lam = _number(lam, "lambda")
        if not 0.0 <= lam < 1.0:
            raise FileFormatError("lambda must lie in [0, 1)")
    data = None
    if raw.get("data") is not None:
        block = raw["data"]
        data = {key: obj_to_matrix(block.get(key), f"data.{key}")
                for key in ("u0t", "x0t", "x1t")}
        T = data["u0t"].shape[1]
        n = data["x0t"].shape[0]
        if data["x0t"].shape[1] != T or data["x1t"].shape != (n, T):
            raise FileFormatError("data matrices have inconsistent shapes")
        if state_rows.shape[1] != n:
            raise FileFormatError("state_set column count does not match data")
        if input_rows.shape[1] != data["u0t"].shape[0]:
            raise FileFormatError("input_set column count does not match data")
    model = None
    if raw.get("model") is not None:
        block = raw["model"]
        if "A" not in block or "B" not in block:
            raise FileFormatError("model must carry 'A' and 'B'")
        model = {"a": rows_to_matrix(block["A"], "model.A"),
                 "b": rows_to_matrix(block["B"], "model.B")}
        n = model["a"].shape[0]
        if model["a"].shape != (n, n) or model["b"].shape[0] != n:
            raise FileFormatError("model matrices have inconsistent shapes")
        if state_rows.shape[1] != n or input_rows.shape[1] != model["b"].shape[1]:
            raise FileFormatError("set dimensions do not match the model")
    disturbance = None
    if raw.get("disturbance") is not None:
        block = raw["disturbance"]
        if "vertices" not in block:
            raise FileFormatError("disturbance must carry 'vertices'")
        disturbance = rows_to_matrix(block["vertices"], "disturbance.vertices")
        if disturbance.shape[1] != state_rows.shape[1]:
            raise FileFormatError("disturbance vertices do not match the state dimension")
    if data is None and model is None:
        raise FileFormatError("problem needs a data block or a model block")
    return ProblemSpec(state_rows=state_rows, input_rows=input_rows, lam=lam,
                       data=data, model=model, disturbance_vertices=disturbance,
                       meta=raw.get("meta", {}) or {})


def problem_to_payload(spec: ProblemSpec) -> dict:
    payload = {
        "state_set": matrix_to_rows(spec.state_rows),
        "input_set": matrix_to_rows(spec.input_rows),
        "lambda": spec.lam,
    }
    if spec.data is not None:
        payload["data"] = {key: matrix_to_obj(spec.data[key]) for key in ("u0t", "x0t", "x1t")}
    if spec.model is not None:
        payload["model"] = {"A": matrix_to_rows(spec.model["a"]),
                            "B": matrix_to_rows(spec.model["b"])}
    if spec.disturbance_vertices is not None:
        payload["disturbance"] = {"vertices": matrix_to_rows(spec.disturbance_vertices)}
    if spec.meta:
        payload["meta"] = spec.meta
    return payload


def save_problem(spec: ProblemSpec, path):
    text = canonical_dumps(problem_to_payload(spec))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


@dataclass
class CertificateRecord:
    """Parsed certificate file."""

    gain: np.ndarray
    lam: float
    g_matrix: Optional[np.ndarray] = None
    p_matrix: Optional[np.ndarray] = None
    verification: dict = field(default_factory=dict)
    tool_version: str = ""
    input_digest: str = ""


def load_certificate(path) -> CertificateRecord:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: not valid JSON ({exc})") from exc
    for key in ("gain", "lambda"):
        if key not in raw:
            raise FileFormatError(f"{path}: missing '{key}'")
    gain = rows_to_matrix(raw["gain"], "gain")
    g_matrix = obj_to_matrix(raw["g_matrix"], "g_matrix") if raw.get("g_matrix") is not None else None
    p_matrix = obj_to_matrix(raw["p_matrix"], "p_matrix") if raw.get("p_matrix") is not None else None
    return CertificateRecord(
        gain=gain, lam=_number(raw["lambda"], "lambda"), g_matrix=g_matrix, p_matrix=p_matrix,
        verification=raw.get("verification", {}) or {},
        tool_version=raw.get("tool_version", ""),
        input_digest=raw.get("input_digest", ""))


def certificate_to_payload(record: CertificateRecord) -> dict:
    payload = {
        "gain": matrix_to_rows(record.gain),
        "lambda": float(record.lam),
        "g_matrix": matrix_to_obj(record.g_matrix) if record.g_matrix is not None else None,
        "p_matrix": matrix_to_obj(record.p_matrix) if record.p_matrix is not None else None,
        "verification": record.verification,
        "tool_version": record.tool_version,
        "input_digest": record.input_digest,
    }
    return payload


def save_certificate(record: CertificateRecord, path):
    text = canonical_dumps(certificate_to_payload(record))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
