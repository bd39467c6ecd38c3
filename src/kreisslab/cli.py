"""Batch command-line front door.

Subcommands: analyze (norm computations), synthesize (structured Kreiss
minimization), simulate (switched closed-loop integration), certify
(global-stability certificates), oracle (brute-force reference values).
All file formats are documented in problemio.  ``main`` turns every
failure into one stderr line and an exit code: 0 success, 1 generic
failure, 2 instability, 3 schema error, malformed command line or
out-of-range flag, 4 synthesis failure, 5 finite-time blowup,
6 indeterminate feasibility, 7 oversized system.  A norm value or an
oracle end that is not finite is a generic failure, never a report, so
numpy's floating-point warnings stay off.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import certify as cert_mod, lmi, models, oracles
from .errors import (
    ArgumentError,
    IndeterminateError,
    KreisslabError,
    NumericalError,
    OversizeError,
    PreconditionError,
    SchemaError,
    StabilityError,
    SynthesisError,
)
from .loop import ControllerStructure, assemble_closed_loop
from .norms import (
    KreissOptions,
    cb_lower_bound,
    entrywise_kreiss,
    hankel_singular_values,
    hinf_norm,
    kreiss_norm,
    l2_to_peak,
    peak_gain,
    sign_pattern_kreiss,
    transient_peak_m0,
)
from .problemio import (
    Problem,
    controller_to_json,
    load_problem,
    save_report,
    trajectory_to_csv,
)
from .statespace import StateSpace
from .synth import SynthesisSpec, minimize_kreiss

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_UNSTABLE = 2
EXIT_SCHEMA = 3
EXIT_SYNTH = 4
EXIT_BLOWUP = 5
EXIT_INDETERMINATE = 6
EXIT_OVERSIZE = 7

#: the norms with a brute-force oracle, for oracle and analyze --certify
_ORACLE_NORMS = ("kreiss", "m0", "hinf", "pkgain", "l2peak")

#: failure class -> exit code and stderr prefix, the first match winning;
#: an ArgumentError is an out-of-range flag and names it
_FAILURES = (
    (ArgumentError, EXIT_SCHEMA, "schema error: --{name}: "),
    (SchemaError, EXIT_SCHEMA, "schema error: "),
    (StabilityError, EXIT_UNSTABLE, "stability error: "),
    (SynthesisError, EXIT_SYNTH, "synthesis failed: "),
    (IndeterminateError, EXIT_INDETERMINATE, "indeterminate: "),
    (OversizeError, EXIT_OVERSIZE, "oversized system: "),
    (KreisslabError, EXIT_FAIL, "error: "),
    (OSError, EXIT_FAIL, "error: "),
    (MemoryError, EXIT_FAIL, "error: "),
)


class _Parser(argparse.ArgumentParser):
    """Usage errors raise SchemaError: argparse's exit 2 means instability."""

    def error(self, message):
        raise SchemaError(message)


def _write_result(args, inputs: dict, result: dict,
                  metadata: dict | None = None) -> int:
    """Save the --report file (inputs gain the problem path), print the
    result block and return EXIT_OK."""
    save_report(args.report, args.command,
                {"problem": str(args.problem), **inputs}, result, metadata)
    print(json.dumps(result, indent=2, sort_keys=True))
    return EXIT_OK


def _require_finite(what: str, *values) -> None:
    if not all(math.isfinite(v) for v in values):
        raise NumericalError(
            f"{what} is not finite: {', '.join(map(str, values))}")


def _norm_dispatch(name: str, sys: StateSpace, tol: float):
    if not tol > 0:
        raise ArgumentError("tol", "must be positive")
    kw = KreissOptions(hinf_tol=min(tol, 1e-6))
    if name == "kreiss":
        return kreiss_norm(sys, kw).as_dict()
    if name == "m0":
        return transient_peak_m0(sys).as_dict()
    if name == "hinf":
        return hinf_norm(sys, tol=tol).as_dict()
    if name == "pkgain":
        return peak_gain(sys, tol=tol).as_dict()
    if name == "l2peak":
        return {"value": l2_to_peak(sys), "maximizer": {}}
    if name == "entrywise":
        return entrywise_kreiss(sys, kw).as_dict()
    if name == "signpattern":
        return sign_pattern_kreiss(sys, kw).as_dict()
    if name == "hankel":
        data = hankel_singular_values(sys)
        return {"value": float(data.sigma[0]),
                "maximizer": {},
                "sigma": [float(v) for v in data.sigma]}
    return {"value": cb_lower_bound(sys), "maximizer": {}}     # cb


def _oracle_dispatch(name: str, sys: StateSpace, grid: int):
    if grid < 2:
        raise SchemaError(f"--grid: needs at least 2 points, got {grid}")
    if name == "m0":
        rep = oracles.m0_time_grid(sys, n_grid=grid)
    elif name == "hinf":
        rep = oracles.hinf_frequency_grid(sys, n_grid=grid)
    elif name == "pkgain":
        rep = oracles.peak_gain_grid(sys, n_grid=grid)
    elif name == "l2peak":
        rep = oracles.l2_to_peak_sampled(sys)
    else:                                            # kreiss
        n_omega = max(200, int(np.sqrt(grid * 5)))
        n_x = max(50, grid // n_omega)
        rep = oracles.kreiss_halfplane_grid(sys, n_x=n_x, n_omega=n_omega)
    _require_finite(f"the {name} oracle", rep.value, rep.uncertainty)
    return rep


def cmd_analyze(args) -> int:
    if args.certify and args.norm not in _ORACLE_NORMS:
        raise SchemaError(f"--certify: norm '{args.norm}' has no oracle "
                          f"(choose from {', '.join(_ORACLE_NORMS)})")
    problem = load_problem(args.problem)
    sys_ = problem.require_system()
    result = _norm_dispatch(args.norm, sys_, args.tol)
    _require_finite(f"the {args.norm} value", result["value"])
    if args.certify:
        rep = _oracle_dispatch(args.norm, sys_, args.grid)
        lo, hi = oracles.certification_interval(rep)
        value = result["value"]
        result["certification"] = {"lower": lo, "upper": hi,
                                   "oracle": rep.grid,
                                   "oracle_miss": value > hi}
        # kreiss, m0 and hinf report a gain attained at their maximizer, so
        # a value above the grid's upper end means the grid missed the peak
        attained = args.norm in ("kreiss", "m0", "hinf")
        if value < lo - 1e-12 or (value > hi + 1e-12 and not attained):
            raise KreisslabError(
                f"value {value} escapes its oracle bounds [{lo}, {hi}]")
    return _write_result(args, {"norm": args.norm, "tol": args.tol}, result)


def _structure_for(problem: Problem, spec_text: str):
    plant, n_K = problem.plant(), 0
    if spec_text == "statefb":
        if problem.model is None:
            raise SchemaError("statefb structure needs a model block")
        plant = StateSpace(problem.model.A, problem.model.B_u,
                           np.eye(problem.model.A.shape[0]))
    elif spec_text.startswith("of:"):
        try:
            n_K = int(spec_text.split(":", 1)[1])
        except ValueError as exc:
            raise SchemaError(f"bad structure '{spec_text}'") from exc
        if n_K < 0:
            raise SchemaError(f"--structure: needs order >= 0, got {n_K}")
    elif spec_text != "static":
        raise SchemaError(f"unknown structure '{spec_text}'")
    # before the structure's (n_K + p) x (n_K + m) mask and synthesis
    if plant.n + n_K > oracles.MAX_ORACLE_ORDER:
        raise OversizeError(
            f"--structure: the oracle supports closed-loop order n <= "
            f"{oracles.MAX_ORACLE_ORDER}, got {plant.n + n_K}")
    return plant, ControllerStructure.full(n_K, plant.m, plant.p)


def cmd_synthesize(args) -> int:
    problem = load_problem(args.problem)
    plant, structure = _structure_for(problem, args.structure)
    if not np.any(plant.B):
        raise SynthesisError("plant has a zero control channel")
    spec = SynthesisSpec(plant=plant, eta_rate=problem.eta,
                         rolloff_weight=problem.rolloff_weight,
                         restarts=args.restarts, seed=args.seed)
    res = minimize_kreiss(spec, structure)
    oracle = oracles.kreiss_halfplane_grid(
        assemble_closed_loop(plant, res.controller).channel())
    lo, hi = oracles.certification_interval(oracle)
    result = {
        "controller": controller_to_json(res.controller),
        "kreiss": res.report.as_dict(),
        "constraints": {
            "alpha": res.constraints.alpha,
            "alpha_limit": res.constraints.alpha_limit,
            "rolloff": res.constraints.rolloff,
            "rolloff_limit": res.constraints.rolloff_limit,
            "satisfied": res.constraints.satisfied,
        },
        "certification": {"lower": lo, "upper": hi},
        "restarts_used": res.restarts_used,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"version": 1,
                       "controller": result["controller"]}, fh, indent=2,
                      sort_keys=True)
            fh.write("\n")
    return _write_result(args, {"structure": args.structure,
                                "seed": args.seed,
                                "restarts": args.restarts}, result)


def cmd_simulate(args) -> int:
    problem = load_problem(args.problem)
    if problem.model is None:
        raise SchemaError("simulate needs a model block")
    try:
        x0 = [float(v) for v in args.x0.split(",")]
    except ValueError as exc:
        raise SchemaError(f"--x0: {exc}") from None
    try:
        traj = models.simulate_closed_loop(problem.model, problem.controller,
                                           x0, args.t_on, args.t_final)
    except PreconditionError as exc:    # x0 or times out of range
        raise SchemaError(str(exc)) from None
    if args.out:
        trajectory_to_csv(traj, args.out)
    summary = {"final_norm": traj.final_plant_norm(),
               "diverged": traj.diverged, "t_end": float(traj.t[-1])}
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_BLOWUP if traj.diverged else EXIT_OK


def cmd_certify(args) -> int:
    problem = load_problem(args.problem)
    if problem.model is None:
        raise SchemaError("certify needs a model block")
    model = problem.model
    controller = problem.controller
    result: dict
    metadata = None
    if args.method == "qc":
        if controller is None:
            raise SchemaError("qc certification needs a controller")
        cert = lmi.qc_analysis_closed_loop(model, controller,
                                           epsilon=args.epsilon)
        result = {"status": cert.status, "margin": cert.margin,
                  "epsilon": cert.epsilon,
                  "verdict": "PASS" if cert.feasible else
                  ("INDETERMINATE" if cert.status == "indeterminate"
                   else "FAIL")}
        metadata = {"iterations": cert.iterations, "reason": cert.reason}
        if cert.status == "indeterminate":
            print(json.dumps(result, indent=2, sort_keys=True))
            raise IndeterminateError(
                f"feasibility undecided ({cert.reason})")
    elif args.method in ("window", "bendixson", "dcgain"):
        if model.name != "brunton2":
            raise SchemaError(f"{args.method} applies to the brunton2 model")
        params = model.params
        if args.method == "window":
            if controller is None or controller.n_K:
                raise SchemaError("window certification needs a static gain")
            K = float(controller.D_K[0, 0])
            window = cert_mod.static_gain_window(params)
            where = window.classify(K)
            result = {"window": [window.lower, window.upper],
                      "gain": K, "position": where,
                      "verdict": "PASS" if where == "inside" else
                      ("BOUNDARY" if where == "boundary" else "FAIL")}
        elif args.method == "bendixson":
            if controller is None or controller.n_K:
                raise SchemaError("bendixson needs a static gain")
            K = float(controller.D_K[0, 0])
            rep = cert_mod.bendixson_sign(params, K)
            result = {"sup_divergence": rep.sup_divergence,
                      "verdict": "PASS" if rep.certified else
                      ("BOUNDARY" if rep.boundary else "FAIL")}
        else:
            if controller is None:
                raise SchemaError("dcgain needs a controller")
            ok, val = cert_mod.dc_gain_condition(controller, params)
            result = {"dc_gain": val,
                      "bound": 2.0 * params.omega_u / params.g,
                      "verdict": "PASS" if ok else "FAIL"}
    else:                                            # yorke
        if args.certificate is None:
            raise SchemaError("yorke needs --certificate FILE")
        cert = cert_mod.load_certificate(args.certificate)
        field, jac = models.closed_loop_field(model, controller)
        rep = cert_mod.yorke_sample_check(cert, field, jac,
                                          samples=args.samples,
                                          seed=args.seed)
        result = {"min_neg_vdot": rep.min_neg_vdot, "samples": rep.samples,
                  "verdict": "PASS" if rep.passed else "FAIL",
                  "note": "sampling falsifies; a pass is evidence, not proof"}
    return _write_result(args, {"method": args.method, "seed": args.seed,
                                "samples": args.samples}, result, metadata)


def cmd_oracle(args) -> int:
    problem = load_problem(args.problem)
    sys_ = problem.require_system()
    rep = _oracle_dispatch(args.norm, sys_, args.grid)
    result = {"value": rep.value, "uncertainty": rep.uncertainty,
              "argmax": rep.argmax, "grid": rep.grid}
    return _write_result(args, {"norm": args.norm, "grid": args.grid},
                         result)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kreisslab",
        description="Transient-assessment norms, Kreiss-norm controller "
                    "synthesis and stability certification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="compute a system norm")
    p.add_argument("problem")
    p.add_argument("--norm", required=True,
                   choices=[*_ORACLE_NORMS, "entrywise", "signpattern",
                            "hankel", "cb"])
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--certify", action="store_true")
    p.add_argument("--grid", type=int, default=100000)
    p.add_argument("--report")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("synthesize", help="minimize the closed-loop Kreiss norm")
    p.add_argument("problem")
    p.add_argument("--structure", required=True,
                   help="static | statefb | of:<nK>")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--out", help="controller JSON output")
    p.add_argument("--report")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("simulate", help="integrate the switched closed loop")
    p.add_argument("problem")
    p.add_argument("--x0", required=True, help="comma-separated initial state")
    p.add_argument("--t-on", dest="t_on", type=float, default=0.0)
    p.add_argument("--t-final", dest="t_final", type=float, required=True)
    p.add_argument("--out", help="trajectory CSV output")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("certify", help="global-stability certificates")
    p.add_argument("problem")
    p.add_argument("--method", required=True,
                   choices=["qc", "window", "bendixson", "dcgain", "yorke"])
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=1e-3)
    p.add_argument("--certificate", help="polynomial certificate JSON")
    p.add_argument("--report")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("oracle", help="brute-force reference value")
    p.add_argument("problem")
    p.add_argument("--norm", required=True, choices=_ORACLE_NORMS)
    p.add_argument("--grid", type=int, default=100000)
    p.add_argument("--report")
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    """Run one command line; every failure leaves through ``_FAILURES``."""
    try:
        args = build_parser().parse_args(argv)
        with np.errstate(all="ignore"):
            return args.func(args)
    except (KreisslabError, OSError, MemoryError) as exc:
        code, prefix = next((code, prefix) for cls, code, prefix in _FAILURES
                            if isinstance(exc, cls))
        print(prefix.format(name=getattr(exc, "name", None)) + str(exc),
              file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
