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
                                                     "den": [...]}},
      "options": {...}
    }

A matrix is {"rows": r, "cols": c, "data": [row-major numbers]}.  Reports
are JSON with deterministic content under a fixed seed; timestamps live in
a separate metadata block.  Trajectories and transient curves export as
CSV.
"""

from __future__ import annotations

import csv
import json
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
    version: int
    system: StateSpace | None = None
    model: NonlinearModel | None = None
    controller: ControllerRealization | None = None
    eta: float = 0.0
    rolloff_weight: StateSpace | None = None
    options: dict | None = None

    def require_system(self) -> StateSpace:
        if self.system is not None:
            return self.system
        if self.model is not None:
            return StateSpace(self.model.A, self.model.B_w, self.model.C_y)
        raise SchemaError("problem provides neither 'system' nor 'model'")

    def plant(self) -> StateSpace:
        """Control channel (A, B_u, C_y) for synthesis."""
        if self.model is not None:
            return StateSpace(self.model.A, self.model.B_u, self.model.C_y)
        if self.system is not None:
            return self.system
        raise SchemaError("problem provides neither 'system' nor 'model'")


def _parse_system(obj) -> StateSpace:
    try:
        A = matrix_from_json(obj["A"], "A")
        B = matrix_from_json(obj["B"], "B")
        C = matrix_from_json(obj["C"], "C")
    except KeyError as exc:
        raise SchemaError(f"system block missing {exc}") from exc
    D = matrix_from_json(obj["D"], "D") if "D" in obj else None
    try:
        return StateSpace(A, B, C, D)
    except Exception as exc:
        raise SchemaError(f"bad system block: {exc}") from exc


def _parse_model(obj) -> NonlinearModel:
    kind = obj.get("type")
    params = obj.get("params", {})
    try:
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
    except SchemaError:
        raise
    except Exception as exc:
        raise SchemaError(f"bad model parameters: {exc}") from exc
    raise SchemaError(f"unknown model type '{kind}'")


def _parse_controller(obj) -> ControllerRealization:
    if "tf" in obj:
        tf = obj["tf"]
        try:
            sys = tf_to_ss(tf["num"], tf["den"])
        except Exception as exc:
            raise SchemaError(f"bad controller tf: {exc}") from exc
        return ControllerRealization(sys.A, sys.B, sys.C, sys.D)
    if "static" in obj:
        return ControllerRealization.static(
            matrix_from_json(obj["static"], "static gain"))
    try:
        return ControllerRealization(
            matrix_from_json(obj["A_K"], "A_K"),
            matrix_from_json(obj["B_K"], "B_K"),
            matrix_from_json(obj["C_K"], "C_K"),
            matrix_from_json(obj["D_K"], "D_K"))
    except KeyError as exc:
        raise SchemaError(f"controller block missing {exc}") from exc
    except SchemaError:
        raise
    except Exception as exc:
        raise SchemaError(f"bad controller block: {exc}") from exc


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
    problem = Problem(version=int(version))
    if "system" in payload:
        problem.system = _parse_system(payload["system"])
    if "model" in payload:
        problem.model = _parse_model(payload["model"])
    if "controller" in payload:
        problem.controller = _parse_controller(payload["controller"])
    constraints = payload.get("constraints", {})
    if constraints:
        problem.eta = float(constraints.get("eta", 0.0))
        if "rolloff_weight" in constraints:
            w = constraints["rolloff_weight"]
            try:
                problem.rolloff_weight = tf_to_ss(w["num"], w["den"])
            except Exception as exc:
                raise SchemaError(f"bad rolloff weight: {exc}") from exc
    problem.options = payload.get("options", {})
    return problem


def save_report(path, command: str, inputs: dict, result: dict,
                metadata: dict | None = None) -> dict:
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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k, t in enumerate(traj.t):
            row = [f"{t:.12g}"]
            row += [f"{v:.12g}" for v in traj.x[:, k]]
            row += [f"{v:.12g}" for v in traj.x_K[:, k]]
            row += [f"{v:.12g}" for v in traj.u[:, k]]
            row += [f"{v:.12g}" for v in traj.y[:, k]]
            writer.writerow(row)


def curve_to_csv(ts, values, path) -> None:
    """Transient curve CSV with columns t, sigma."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "sigma"])
        for t, v in zip(ts, values):
            writer.writerow([f"{t:.12g}", f"{v:.12g}"])
