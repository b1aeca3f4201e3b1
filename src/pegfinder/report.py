"""Result documents: deterministic JSON serialization of runs.

Floats are written with 17 significant digits (enough to round-trip IEEE
doubles bit-exactly), keys are sorted, and no timestamps enter the payload
except the wall_time_ms field, which golden comparisons strip.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

from .polygons import PolygonParam, param_dict
from .tracing import Branch

TOOL_VERSION = "0.1.0"
MAX_BRANCH_POINTS = 2000


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, PolygonParam):
        return param_dict(obj)
    if obj is None or isinstance(obj, str):
        return obj
    return str(obj)


def branch_dict(branch: Branch) -> dict:
    pts = branch.points
    if pts.shape[0] > MAX_BRANCH_POINTS:
        stride = int(np.ceil(pts.shape[0] / MAX_BRANCH_POINTS))
        pts = np.vstack([pts[::stride], pts[-1:]])
    return {
        "closed": branch.closed,
        "termination": branch.termination,
        "winding": branch.winding,
        "isotropy_order": branch.isotropy_order,
        "n_samples": int(branch.points.shape[0]),
        "points": pts.tolist(),
        "events": [
            {"kind": e.kind, "index": e.index, "value": e.value, "z": e.z.tolist()}
            for e in branch.events
        ],
    }


@dataclass
class ResultDocument:
    command: list
    subject: dict  # curve / field / sphere spec
    settings: dict
    result: dict = field(default_factory=dict)
    branches: list = field(default_factory=list)
    events: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    status: str = "ok"
    wall_time_ms: float = 0.0

    def to_dict(self) -> dict:
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return _jsonable({"tool": "pegfinder", "version": TOOL_VERSION, **values})

    def to_json(self) -> str:
        return dumps(self.to_dict())


def dumps(obj) -> str:
    """Deterministic JSON: sorted keys, 17 significant digits for floats."""
    return _emit(_jsonable(obj))


def _emit(obj) -> str:
    if isinstance(obj, dict):
        items = ",".join(f"{json.dumps(k)}:{_emit(v)}" for k, v in sorted(obj.items()))
        return "{" + items + "}"
    if isinstance(obj, list):
        return "[" + ",".join(_emit(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            return json.dumps(None)
        return format(obj, ".17g")
    if isinstance(obj, int):
        return str(obj)
    return json.dumps(obj)
