"""Batch command-line front door.

Subcommands: analyze (norm computations), synthesize (structured Kreiss
minimization), simulate (switched closed-loop integration), certify
(global-stability certificates), oracle (brute-force reference values).
All file formats are documented in problemio.  Exit codes: 0 success,
1 generic failure, 2 instability, 3 schema error, 4 synthesis failure,
5 finite-time blowup, 6 indeterminate feasibility, 7 oversized system.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import certify as cert_mod, lmi, models, oracles
from .errors import (
    IndeterminateError,
    KreisslabError,
    OversizeError,
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
from .parallel import thread_cap
from .problemio import (
    Problem,
    controller_to_json,
    load_problem,
    save_report,
    trajectory_to_csv,
)
from .statespace import StateSpace
from .synth import SynthOptions, SynthesisSpec, minimize_kreiss

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_UNSTABLE = 2
EXIT_SCHEMA = 3
EXIT_SYNTH = 4
EXIT_BLOWUP = 5
EXIT_INDETERMINATE = 6
EXIT_OVERSIZE = 7


def _norm_dispatch(name: str, sys: StateSpace, tol: float, threads: int):
    kw = KreissOptions(hinf_tol=min(tol, 1e-6), threads=threads)
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
    if name == "cb":
        return {"value": cb_lower_bound(sys), "maximizer": {}}
    raise SchemaError(f"unknown norm '{name}'")


def _oracle_dispatch(name: str, sys: StateSpace, grid: int):
    if name == "m0":
        rep = oracles.m0_time_grid(sys, n_grid=grid)
    elif name == "hinf":
        rep = oracles.hinf_frequency_grid(sys, n_grid=grid)
    elif name == "kreiss":
        n_omega = max(200, int(np.sqrt(grid * 5)))
        n_x = max(50, grid // n_omega)
        rep = oracles.kreiss_halfplane_grid(sys, n_x=n_x, n_omega=n_omega)
    elif name == "pkgain":
        rep = oracles.peak_gain_grid(sys, n_grid=grid)
    elif name == "l2peak":
        rep = oracles.l2_to_peak_sampled(sys)
    else:
        raise SchemaError(f"unknown oracle norm '{name}'")
    return rep


def cmd_analyze(args) -> int:
    problem = load_problem(args.problem)
    sys_ = problem.require_system()
    threads = thread_cap(args.threads)
    result = _norm_dispatch(args.norm, sys_, args.tol, threads)
    if args.certify and args.norm in ("kreiss", "m0", "hinf", "pkgain",
                                      "l2peak"):
        rep = _oracle_dispatch(args.norm, sys_, args.grid)
        lo, hi = oracles.certification_interval(rep)
        result["certification"] = {"lower": lo, "upper": hi,
                                   "oracle": rep.grid}
        value = result["value"]
        if not lo - 1e-12 <= value <= hi + 1e-12:
            raise KreisslabError(
                f"value {value} escapes its oracle bounds [{lo}, {hi}]")
    payload = save_report(args.report, "analyze",
                          {"problem": str(args.problem), "norm": args.norm,
                           "tol": args.tol},
                          result)
    print(json.dumps(payload["result"], indent=2, sort_keys=True))
    return EXIT_OK


def _structure_for(problem: Problem, spec_text: str):
    plant = problem.plant()
    if spec_text == "static":
        return plant, ControllerStructure.static(plant.m, plant.p)
    if spec_text == "statefb":
        if problem.model is None:
            raise SchemaError("statefb structure needs a model block")
        full = StateSpace(problem.model.A, problem.model.B_u,
                          np.eye(problem.model.A.shape[0]))
        return full, ControllerStructure.static(full.m, full.p)
    if spec_text.startswith("of:"):
        try:
            n_K = int(spec_text.split(":", 1)[1])
        except ValueError as exc:
            raise SchemaError(f"bad structure '{spec_text}'") from exc
        return plant, ControllerStructure.full(n_K, plant.m, plant.p)
    raise SchemaError(f"unknown structure '{spec_text}'")


def cmd_synthesize(args) -> int:
    problem = load_problem(args.problem)
    plant, structure = _structure_for(problem, args.structure)
    if not np.any(plant.B):
        raise SynthesisError("plant has a zero control channel")
    options = SynthOptions(restarts=args.restarts, seed=args.seed)
    spec = SynthesisSpec(plant=plant, eta_rate=problem.eta,
                         rolloff_weight=problem.rolloff_weight,
                         options=options)
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
    payload = save_report(args.report, "synthesize",
                          {"problem": str(args.problem),
                           "structure": args.structure, "seed": args.seed,
                           "restarts": args.restarts},
                          result)
    print(json.dumps(payload["result"], indent=2, sort_keys=True))
    return EXIT_OK


def cmd_simulate(args) -> int:
    problem = load_problem(args.problem)
    if problem.model is None:
        raise SchemaError("simulate needs a model block")
    if args.t_on > args.t_final:
        raise SchemaError("t_on must not exceed t_final")
    x0 = [float(v) for v in args.x0.split(",")]
    traj = models.simulate_closed_loop(problem.model, problem.controller,
                                       x0, args.t_on, args.t_final)
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
    elif args.method == "yorke":
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
    else:
        raise SchemaError(f"unknown method '{args.method}'")
    payload = save_report(args.report, "certify",
                          {"problem": str(args.problem),
                           "method": args.method, "seed": args.seed,
                           "samples": args.samples},
                          result, metadata)
    print(json.dumps(payload["result"], indent=2, sort_keys=True))
    return EXIT_OK


def cmd_oracle(args) -> int:
    problem = load_problem(args.problem)
    sys_ = problem.require_system()
    rep = _oracle_dispatch(args.norm, sys_, args.grid)
    result = {"value": rep.value, "uncertainty": rep.uncertainty,
              "argmax": rep.argmax, "grid": rep.grid}
    payload = save_report(args.report, "oracle",
                          {"problem": str(args.problem), "norm": args.norm,
                           "grid": args.grid},
                          result)
    print(json.dumps(payload["result"], indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kreisslab",
        description="Transient-assessment norms, Kreiss-norm controller "
                    "synthesis and stability certification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="compute a system norm")
    p.add_argument("problem")
    p.add_argument("--norm", required=True,
                   choices=["kreiss", "m0", "hinf", "pkgain", "l2peak",
                            "entrywise", "signpattern", "hankel", "cb"])
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--certify", action="store_true")
    p.add_argument("--grid", type=int, default=100000)
    p.add_argument("--threads", type=int, default=1)
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
    p.add_argument("--norm", required=True,
                   choices=["kreiss", "m0", "hinf", "pkgain", "l2peak"])
    p.add_argument("--grid", type=int, default=100000)
    p.add_argument("--report")
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except StabilityError as exc:
        print(f"stability error: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except SynthesisError as exc:
        print(f"synthesis failed: {exc}", file=sys.stderr)
        return EXIT_SYNTH
    except IndeterminateError as exc:
        print(f"indeterminate: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE
    except OversizeError as exc:
        print(f"oversized system: {exc}", file=sys.stderr)
        return EXIT_OVERSIZE
    except KreisslabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
