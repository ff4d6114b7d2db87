"""JSON and CSV serialization for bodies, curves, and solver reports.

Floats are written as decimals with 17 significant digits so that every
value survives a write/read cycle bit for bit.  Parsing goes through the
stdlib json module; validation errors always name the offending field.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .bodies import BodySpec
from .capacity import CapacityResult, IdentityReport
from .curves import ClosedPolygonalCurve, TranslationCertificate
from .errors import InvalidBodyError
from .geometry import ConvexPolytope

CSV_HEADER = "delta,d_hausdorff,capacity,identity_dev"


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    text = format(float(x), ".17g")
    if "." not in text and "e" not in text and "E" not in text:
        # Keep a decimal point so json reads the value back as a float;
        # "-0" would otherwise come back as the integer 0 and lose the sign.
        text += ".0"
    return text


def dumps(value) -> str:
    """Serialize to JSON with round-trip-exact floats, indented two spaces
    a level."""
    pieces: list[str] = []
    _emit(value, pieces, 0)
    pieces.append("\n")
    return "".join(pieces)


def _emit(value, out: list[str], level: int) -> None:
    pad = "  " * (level + 1)
    close_pad = "  " * level
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, item) in enumerate(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            out.append(f"{pad}{json.dumps(key)}: ")
            _emit(item, out, level + 1)
            out.append(",\n" if i + 1 < len(value) else "\n")
        out.append(close_pad + "}")
    elif isinstance(value, (list, tuple)):
        if len(value) == 0:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(value):
            out.append(pad)
            _emit(item, out, level + 1)
            out.append(",\n" if i + 1 < len(value) else "\n")
        out.append(close_pad + "]")
    elif isinstance(value, bool) or value is None:
        out.append(json.dumps(value))
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        out.append(format_float(float(value)))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, np.ndarray):
        _emit(value.tolist(), out, level)
    else:
        raise TypeError(f"cannot serialize {type(value).__name__} to JSON")


def _require(mapping, key: str, kind, where: str):
    if not isinstance(mapping, dict):
        raise InvalidBodyError(f"field '{where}' must be a JSON object")
    if key not in mapping:
        raise InvalidBodyError(f"missing field '{where}.{key}'"
                               if where else f"missing field '{key}'")
    value = mapping[key]
    label = f"{where}.{key}" if where else key
    if isinstance(value, bool) and kind is int:
        raise InvalidBodyError(f"field '{label}' must be of type int")
    if not isinstance(value, kind):
        raise InvalidBodyError(
            f"field '{label}' must be of type {kind.__name__}")
    return value


def _matrix(mapping, key: str, where: str) -> np.ndarray:
    rows = _require(mapping, key, list, where)
    label = f"{where}.{key}" if where else key
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError):
        raise InvalidBodyError(
            f"field '{label}' must be a rectangular array of numbers") from None
    if arr.ndim != 2 or not np.all(np.isfinite(arr)):
        raise InvalidBodyError(
            f"field '{label}' must be a rectangular array of finite numbers")
    return arr


def _vector(mapping, key: str, where: str) -> np.ndarray:
    rows = _require(mapping, key, list, where)
    label = f"{where}.{key}" if where else key
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError):
        raise InvalidBodyError(
            f"field '{label}' must be a list of numbers") from None
    if arr.ndim != 1 or not np.all(np.isfinite(arr)):
        raise InvalidBodyError(
            f"field '{label}' must be a list of finite numbers")
    return arr


def body_to_dict(body: ConvexPolytope, *, name: str | None = None,
                 provenance: dict | None = None) -> dict:
    out: dict = {}
    if name is not None:
        out["name"] = name
    out["dim"] = body.dim
    out["hrep"] = {"normals": body.normals.tolist(),
                   "offsets": body.offsets.tolist()}
    out["vrep"] = {"vertices": body.vertices.tolist()}
    if provenance is not None:
        out["provenance"] = provenance
    return out


def spec_to_dict(spec: BodySpec) -> dict:
    return body_to_dict(spec.polytope, name=spec.name,
                        provenance=spec.provenance)


def body_from_dict(data) -> ConvexPolytope:
    if not isinstance(data, dict):
        raise InvalidBodyError("body document must be a JSON object")
    dim = _require(data, "dim", int, "")
    hrep = data.get("hrep")
    vrep = data.get("vrep")
    if hrep is None and vrep is None:
        raise InvalidBodyError("missing field 'hrep' or 'vrep': a body needs "
                               "at least one representation")
    normals = offsets = vertices = None
    if hrep is not None:
        normals = _matrix(hrep, "normals", "hrep")
        offsets = _vector(hrep, "offsets", "hrep")
        if normals.shape[1] != dim:
            raise InvalidBodyError(
                f"field 'hrep.normals' rows must have length dim={dim}")
        if len(offsets) != len(normals):
            raise InvalidBodyError(
                "field 'hrep.offsets' must have one entry per normal")
    if vrep is not None:
        vertices = _matrix(vrep, "vertices", "vrep")
        if vertices.shape[1] != dim:
            raise InvalidBodyError(
                f"field 'vrep.vertices' rows must have length dim={dim}")
    if normals is not None and vertices is not None:
        return ConvexPolytope.from_representations(normals, offsets, vertices)
    if normals is not None:
        return ConvexPolytope.from_halfspaces(normals, offsets)
    return ConvexPolytope.from_vertices(vertices)


def curve_to_dict(curve: ClosedPolygonalCurve) -> dict:
    return {"points": curve.points.tolist()}


def curve_from_dict(data) -> ClosedPolygonalCurve:
    if not isinstance(data, dict):
        raise InvalidBodyError("curve document must be a JSON object")
    points = _matrix(data, "points", "")
    return ClosedPolygonalCurve(points)


def points_from_dict(data) -> np.ndarray:
    """Point list in the curve format, without the curve validity checks.

    Momentum sequences may repeat consecutive points, which the curve
    constructor rejects, so they are read as a bare array.
    """
    if not isinstance(data, dict):
        raise InvalidBodyError("curve document must be a JSON object")
    return _matrix(data, "points", "")


def certificate_to_dict(cert: TranslationCertificate) -> dict:
    return {
        "margin": cert.margin,
        "translation": cert.translation.tolist(),
        "active_facets": sorted(int(i) for i in cert.active_facets),
        "pinned": cert.pinned,
    }


def quantities_to_dict(result: CapacityResult) -> dict:
    q = result.quantities
    return {
        "pinned_minimum": q.pinned_minimum,
        "swapped_pinned_minimum": q.swapped_pinned_minimum,
        "billiard_length": q.billiard_length,
        "swapped_billiard_length": q.swapped_billiard_length,
        "max_relative_deviation": q.max_relative_deviation,
        "consistent": q.consistent,
    }


def result_to_dict(result: CapacityResult, *,
                   timings: dict | None = None) -> dict:
    out = {
        "value": result.value,
        "quantities": quantities_to_dict(result),
        "minimizing_curve": curve_to_dict(result.minimizing_curve),
        "billiard_curve": (curve_to_dict(result.billiard_curve)
                           if result.billiard_curve is not None else None),
        "dual_curve": (result.dual_curve.tolist()
                       if result.dual_curve is not None else None),
        "assignment": [int(i) for i in result.assignment.indices],
        "certificate": certificate_to_dict(result.certificate),
        "realized": result.realized,
        "dual_note": result.dual_note,
    }
    if timings is not None:
        out["timings"] = timings
    return out


def identities_to_dict(report: IdentityReport) -> dict:
    out: dict = dict(report.values)
    out["max_relative_deviation"] = report.max_relative_deviation
    out["consistent"] = report.consistent
    return out


def study_rows_to_csv(rows) -> str:
    """Rows of (delta, d_hausdorff, capacity, identity_dev) as CSV text."""
    lines = [CSV_HEADER]
    for row in rows:
        if len(row) != 4:
            raise ValueError("study rows must have exactly four columns")
        lines.append(",".join(format_float(v) for v in row))
    return "\n".join(lines) + "\n"


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidBodyError(f"invalid JSON: {exc}") from None
