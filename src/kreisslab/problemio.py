"""Problem-file and report I/O.

Problems are JSON documents with explicit-dimension row-major matrices:

    {
      "version": 1,
      "system": {"A": {...}, "B": {...}, "C": {...}, "D": {...}},
      "model": {"type": "lorenz"|"brunton2"|"brunton4",
                "params": {...}, "measurement": "x"},
      "controller": {"A_K": {...}, "B_K": {...}, "C_K": {...}, "D_K": {...}}
                    | {"tf": {"num": [...], "den": [...]}}
                    | {"static": {...matrix...}},
      "constraints": {"eta": 0.1, "rolloff_weight": {"num": [...],
                                                     "den": [...]}}
    }

A matrix is {"rows": r, "cols": c, "data": [row-major numbers]}; other
top-level keys are ignored.  Each block must be a JSON object,
``system.A`` must have at least one state, and ``constraints.eta``
(default 0) must be a finite number >= 0.  Reports
are JSON with deterministic content under a fixed seed; timestamps live in
a separate metadata block.  Trajectories and transient curves export as
CSV.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .errors import SchemaError
from .loop import ControllerRealization
from .models import (
    Brunton2Params,
    Brunton4Params,
    LorenzParams,
    NonlinearModel,
    Trajectory,
    brunton2_model,
    brunton4_model,
    lorenz_model,
    model_as_statespace,
)
from .statespace import StateSpace, tf_to_ss

__all__ = [
    "Problem",
    "SCHEMA_VERSION",
    "matrix_to_json",
    "matrix_from_json",
    "controller_to_json",
    "load_problem",
    "save_report",
    "trajectory_to_csv",
    "curve_to_csv",
]

SCHEMA_VERSION = 1


def matrix_to_json(M) -> dict:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    return {"rows": int(M.shape[0]), "cols": int(M.shape[1]),
            "data": [float(v) for v in M.ravel()]}


def matrix_from_json(obj, name: str = "matrix") -> np.ndarray:
    if not isinstance(obj, dict):
        raise SchemaError(f"{name} must be an object with rows/cols/data")
    try:
        rows = int(obj["rows"])
        cols = int(obj["cols"])
        data = [float(v) for v in obj["data"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{name} is malformed: {exc}") from exc
    if rows < 0 or cols < 0 or len(data) != rows * cols:
        raise SchemaError(
            f"{name}: data length {len(data)} != rows*cols = {rows * cols}")
    return np.asarray(data, dtype=float).reshape(rows, cols)


@dataclass(eq=False)
class Problem:
    system: StateSpace | None = None
    model: NonlinearModel | None = None
    controller: ControllerRealization | None = None
    eta: float = 0.0
    rolloff_weight: StateSpace | None = None

    def require_system(self) -> StateSpace:
        if self.system is not None:
            return self.system
        if self.model is not None:
            return model_as_statespace(self.model)
        raise SchemaError("problem provides neither 'system' nor 'model'")

    def plant(self) -> StateSpace:
        """Control channel (A, B_u, C_y) for synthesis."""
        if self.model is not None:
            return self.model.control_channel()
        if self.system is not None:
            return self.system
        raise SchemaError("problem provides neither 'system' nor 'model'")


def _block(payload: dict, key: str, parse):
    """parse(payload[key]), or None when the block is absent.  The block
    must be a JSON object, and any failure to parse it becomes one
    SchemaError that names the block."""
    if key not in payload:
        return None
    obj = payload[key]
    if not isinstance(obj, dict):
        raise SchemaError(f"'{key}' block must be a JSON object")
    try:
        return parse(obj)
    except KeyError as exc:
        raise SchemaError(f"'{key}' block lacks {exc}") from exc
    except Exception as exc:
        raise SchemaError(f"bad '{key}' block: {exc}") from exc


def _parse_system(obj) -> StateSpace:
    D = matrix_from_json(obj["D"], "D") if "D" in obj else None
    sys = StateSpace(matrix_from_json(obj["A"], "A"),
                     matrix_from_json(obj["B"], "B"),
                     matrix_from_json(obj["C"], "C"), D)
    for size, empty in ((sys.n, "A has no states"), (sys.p, "B has no inputs"),
                        (sys.m, "C has no outputs")):
        if size == 0:
            raise SchemaError(empty)
    return sys


def _parse_model(obj) -> NonlinearModel:
    kind = obj.get("type")
    params = obj.get("params", {})
    if kind == "lorenz":
        return lorenz_model(LorenzParams(**params),
                            measurement=obj.get("measurement", "x"))
    if kind == "brunton2":
        return brunton2_model(Brunton2Params(**params))
    if kind == "brunton4":
        if not params:
            raise SchemaError(
                "brunton4 requires an externally supplied parameter set")
        return brunton4_model(Brunton4Params(**params))
    raise SchemaError(f"unknown model type '{kind}'")


def _parse_controller(obj) -> ControllerRealization:
    if "tf" in obj:
        return ControllerRealization.from_tf(obj["tf"]["num"],
                                             obj["tf"]["den"])
    if "static" in obj:
        return ControllerRealization.static(
            matrix_from_json(obj["static"], "static gain"))
    return ControllerRealization(
        *(matrix_from_json(obj[k], k) for k in ("A_K", "B_K", "C_K", "D_K")))


def _parse_constraints(obj) -> tuple[float, StateSpace | None]:
    """(eta, roll-off weight); eta must be a finite number >= 0."""
    eta = float(obj.get("eta", 0.0))
    if not 0.0 <= eta < math.inf:
        raise SchemaError(f"eta must be finite and at least 0, got {eta}")
    if "rolloff_weight" not in obj:
        return eta, None
    w = obj["rolloff_weight"]
    return eta, tf_to_ss(w["num"], w["den"])


def controller_to_json(controller: ControllerRealization) -> dict:
    return {
        "A_K": matrix_to_json(controller.A_K),
        "B_K": matrix_to_json(controller.B_K),
        "C_K": matrix_to_json(controller.C_K),
        "D_K": matrix_to_json(controller.D_K),
    }


def load_problem(path) -> Problem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read problem file: {exc}") from exc
    if not isinstance(payload, dict):
        raise SchemaError("problem file must hold a JSON object")
    if "version" not in payload:
        raise SchemaError("problem file lacks the required 'version' field")
    version = payload["version"]
    if version != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema version {version}")
    problem = Problem(
        system=_block(payload, "system", _parse_system),
        model=_block(payload, "model", _parse_model),
        controller=_block(payload, "controller", _parse_controller))
    problem.eta, problem.rolloff_weight = (
        _block(payload, "constraints", _parse_constraints) or (0.0, None))
    return problem


def save_report(path, command: str, inputs: dict, result: dict,
                metadata: dict | None) -> dict:
    """Write a deterministic JSON report.  Timestamps and solver details
    (``metadata``, e.g. iteration counts and stopping reasons) stay in the
    metadata block, so ``result`` is reproducible."""
    payload = {
        "version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "result": result,
        "metadata": {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            **(metadata or {}),
        },
    }
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return payload


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Columns t, x_1..x_n, x_K1..x_KnK, u, y."""
    n = traj.x.shape[0]
    n_K = traj.x_K.shape[0]
    p = traj.u.shape[0]
    m = traj.y.shape[0]
    header = (["t"] + [f"x_{i + 1}" for i in range(n)]
              + [f"x_K{i + 1}" for i in range(n_K)]
              + ([f"u_{i + 1}" for i in range(p)] if p > 1 else ["u"])
              + ([f"y_{i + 1}" for i in range(m)] if m > 1 else ["y"]))
    # Python floats format faster than numpy scalars, to the same text
    rows = np.vstack([traj.t, traj.x, traj.x_K, traj.u, traj.y]).T.tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{v:.12g}" for v in row] for row in rows)


def curve_to_csv(ts, values, path) -> None:
    """Transient curve CSV with columns t, sigma."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "sigma"])
        for t, v in zip(ts, values):
            writer.writerow([f"{t:.12g}", f"{v:.12g}"])
