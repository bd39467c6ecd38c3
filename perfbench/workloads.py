"""Inputs, job lists and output checks of the three benchmark workloads.

Every workload is built from the benchmark seed alone; the program sees only
the generated inputs (systems, problem files, seeds, initial states).  The
job count scales with the pass budget (run length / passes) so that one
pass over the list takes about that long at the seed commit (synthesize
always runs each of its templates once); the smoke test's one-second runs
get the smallest lists.

analyze     library calls kreiss_norm, transient_peak_m0, hinf_norm and
            peak_gain at their defaults on a stratified random stable suite
            (the criterion-5 generator with n widened to 2..12 and a
            lightly damped share) plus the bundled ``system`` problems.
synthesize  ``kreisslab synthesize`` in process on the Lorenz (chaotic
            static; fixed-point static and state feedback) and Brunton
            (static, decay rate plus roll-off) problems, each with its own
            seeded restart.
certify     ``kreisslab certify --method qc`` on the Lorenz controller
            catalogs and a seeded static-gain sweep, ``--method yorke``,
            ``kreisslab simulate`` (Lorenz switched loop and a Brunton
            ensemble from inside the comparison-lemma radius) and the
            library-only ``lmi.lossless_check``.

Exit codes 4 (synthesis failure) and 6 (indeterminate feasibility) are the
program's documented non-answers.  Every job must decide as the seed commit
did: the Lorenz syntheses succeed, the catalog loops and stabilizing gains
are certified "feasible" and the destabilizing gains "infeasible".  Only
the Brunton synthesis, which the seed commit never decides, may end
undecided.  A non-answer on any other job, any other nonzero exit, an
unexpected exception or a failed check counts as a failure.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

UNDECIDED_EXITS = (4, 6)

#: relative slack when a norm value is compared with its oracle bracket
ORACLE_RTOL = 1e-3
#: norms whose value is a gain attained at a reported point: a grid oracle
#: that misses a sharp peak can sit below them (an escape, not an error),
#: but a value below the oracle means the search missed a maximum
ATTAINED = ("kreiss", "m0", "hinf")
#: how far an attained norm may lie above its oracle's upper end.  The
#: largest grid-coarseness misses measured at the seed commit were 5.6e-3
#: (M0, lightly damped n=11), 1.1e-3 (Kreiss) and 8e-5 (H-infinity) over
#: 76 runs; an overestimate beyond this limit fails the job
ATTAINED_OVER_RTOL = 2e-2
#: ``kreisslab analyze --certify``: default oracle grid, and the slack of
#: its "escapes its oracle bounds" test
CLI_GRID = 100000
ESCAPE_ATOL = 1e-12


@dataclass(eq=False)
class Job:
    """One unit of timed work: ``run()`` returns the output that ``check``
    judges.  ``check(output, ctx)`` returns None when the output is right,
    else a one-line reason."""

    name: str
    run: object
    check: object
    #: the seed commit leaves this job undecided (exit 4 or 6)
    may_undecide: bool = False


@dataclass
class CheckContext:
    """Verification state shared by the jobs of one invocation."""

    escapes: list = field(default_factory=list)   # (job, norm, rel. excess)
    achieved: list = field(default_factory=list)


def run_cli(argv):
    """kreisslab.cli.main in process; returns exit code and captured output."""
    from kreisslab import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _write_json(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

#: bundled system problems with the acceptance values of criteria 1-4:
#: name -> {norm: (published value, tolerance)}
BUNDLED_SYSTEMS = {
    "example3": {"kreiss": (0.1716, 0.002), "m0": (0.25, 0.002)},
    "example3_eps": {"kreiss": (0.3006, 0.003), "m0": (1 / 3, 0.002)},
    "example4": {"kreiss": (1.0, 0.01), "m0": (1.0, 0.01)},
    # criterion 3a's K(A); its M0(A) is checked against the oracle only
    # (the published 1.43 of criterion 3b is a known discrepancy)
    "example4_matrix": {"kreiss": (1.17, 0.02)},
    "example8": {"kreiss": (1.9634, 0.02), "m0": (2.5226, 0.02)},
    "contraction": {},
}

LIGHT_MARGIN = 0.01   # spectral margin of the lightly damped share
BASE_MARGIN = 0.3     # margin of the criterion-5 generator


def random_stable_system(rng, n, p, m, margin, oscillatory):
    """The criterion-5/6 generator: Hurwitz A with the given margin."""
    from kreisslab.statespace import StateSpace

    A = rng.standard_normal((n, n))
    if oscillatory:
        A = A - (np.max(np.linalg.eigvals(A).real) + margin) * np.eye(n)
    else:
        A = -0.5 * (A @ A.T) - margin * np.eye(n)
    B = rng.standard_normal((n, p))
    C = rng.standard_normal((m, n))
    return StateSpace(A, B, C)


def analyze_suite(seed, count):
    """Stratified suite: n cycles 2..12, inputs and outputs 1..3, the type
    alternates oscillatory / symmetric-damped, and every fifth system has
    a lightly damped mode.  The seed draws the matrices only, so every seed
    gives the same mix of sizes and types."""
    rng = np.random.default_rng(seed)
    suite = []
    for k in range(count):
        n = 2 + k % 11
        p = 1 + k % 3
        m = 1 + (k // 3) % 3
        light = k % 5 == 4
        oscillatory = bool(k % 2)
        suite.append((f"rand{k:02d}_n{n}{'_light' if light else ''}",
                      random_stable_system(rng, n, p, m,
                                           LIGHT_MARGIN if light
                                           else BASE_MARGIN, oscillatory)))
    return suite


def _assess(sys_):
    from kreisslab import norms

    out = {}
    for key, fn in (("kreiss", norms.kreiss_norm),
                    ("m0", norms.transient_peak_m0),
                    ("hinf", norms.hinf_norm),
                    ("pkgain", norms.peak_gain)):
        rep = fn(sys_)
        out[key] = float(rep.value)
    return out


def _modal_ok(sys_) -> bool:
    """The oracles' own test for a well-conditioned eigenvector basis."""
    return bool(np.linalg.cond(np.linalg.eig(sys_.A)[1]) < 1e8)


def _oracle_brackets(sys_, modal):
    """certification_interval of each norm's oracle at the grid of
    ``kreisslab analyze --certify``.  For a defective A the M0 and H-infinity
    oracles fall back to one dense solve per point, so they get a 5x
    coarser grid."""
    from kreisslab import oracles

    n_omega = max(200, int(math.sqrt(CLI_GRID * 5)))
    reports = {
        "kreiss": oracles.kreiss_halfplane_grid(
            sys_, n_x=max(50, CLI_GRID // n_omega), n_omega=n_omega),
        "m0": oracles.m0_time_grid(
            sys_, n_grid=CLI_GRID if modal else CLI_GRID // 5),
        "hinf": oracles.hinf_frequency_grid(
            sys_, n_grid=CLI_GRID if modal else CLI_GRID // 5),
        "pkgain": oracles.peak_gain_grid(sys_, n_grid=CLI_GRID),
    }
    return {k: oracles.certification_interval(r) for k, r in reports.items()}


def check_assessment(out, ctx, name, sys_, published):
    from kreisslab.norms import cb_lower_bound, hankel_singular_values

    K, M0, H, P = out["kreiss"], out["m0"], out["hinf"], out["pkgain"]
    modal = _modal_ok(sys_)
    reason = None
    for key, (lo, hi) in _oracle_brackets(sys_, modal).items():
        value = out[key]
        if not lo - ESCAPE_ATOL <= value <= hi + ESCAPE_ATOL:
            ctx.escapes.append((name, key, value / hi - 1 if value > hi
                                else value / lo - 1))
        if key in ATTAINED:
            ok = lo * (1 - ORACLE_RTOL) <= value \
                <= hi * (1 + ATTAINED_OVER_RTOL)
        elif modal:
            ok = lo * (1 - ORACLE_RTOL) <= value <= hi * (1 + ORACLE_RTOL)
        else:
            ok = True  # peak_gain_grid has no fallback for a defective A
        if not ok:
            reason = reason or \
                f"{key}={value:.8g} outside oracle [{lo:.8g}, {hi:.8g}]"
    if reason:
        return reason
    if not K <= M0 + 1e-6 + 1e-6 * M0:
        return f"K={K:.8g} > M0={M0:.8g}"
    if not M0 <= math.e * sys_.n * K + 1e-6:
        return f"M0={M0:.8g} > e n K"
    if not H / math.sqrt(sys_.m) <= P + 1e-8 + 1e-8 * P:
        return f"hinf/sqrt(m)={H / math.sqrt(sys_.m):.8g} > peak gain {P:.8g}"
    sigma = hankel_singular_values(sys_).sigma
    if not P <= min((2 * sys_.n + 1) * math.sqrt(sys_.p) * H,
                    2 * math.sqrt(sys_.p) * float(np.sum(sigma))) + 1e-8:
        return f"peak gain {P:.8g} above its criterion-6 upper bounds"
    cb = cb_lower_bound(sys_)
    if not K >= cb * (1 - 1e-12):
        return f"K={K:.8g} < sigma_max(CB)={cb:.8g}"
    for key, (target, tol) in published.items():
        if abs(out[key] - target) > tol:
            return f"{key}={out[key]:.6g}, published {target}±{tol}"
    return None


def setup_analyze(seed, budget, workdir, problems):
    from kreisslab.problemio import load_problem

    systems = analyze_suite(seed, max(2, round(1.4 * budget)))
    published = {}
    for name, values in BUNDLED_SYSTEMS.items():
        systems.append((name, load_problem(problems / f"{name}.json")
                        .require_system()))
        published[name] = values
    jobs = []
    for name, sys_ in systems:
        pub = published.get(name, {})
        jobs.append(Job(
            name=name,
            run=lambda s=sys_: _assess(s),
            check=lambda out, ctx, n=name, s=sys_, pub=pub:
                check_assessment(out, ctx, n, s, pub)))
    return jobs


# ---------------------------------------------------------------------------
# synthesize
# ---------------------------------------------------------------------------

#: (label, bundled problem, structure), cycled to fill a pass; every
#: template runs at least once.  One restart keeps a Lorenz job at 2-4 s.
#: The Brunton problem (decay rate 0.1 plus roll-off) runs with a static
#: gain: it takes 1.4-2.4 s and ends in SynthesisError (exit 4, undecided)
#: after about a dozen descent evaluations, the only job allowed to.  Its
#: of:1 structure is left out: at one restart it took 1.9-15 s across 16
#: seeds and decided none of them, which alone spreads a pass's time by
#: more than the benchmark's bound.
SYNTH_TEMPLATES = [
    ("lorenz_chaos_static", "lorenz_chaos_synth.json", "static"),
    ("lorenz_fp_statefb", "lorenz_fp_static_x.json", "statefb"),
    ("brunton_static", "brunton2_synth.json", "static"),
    ("lorenz_fp_static", "lorenz_fp_static_x.json", "static"),
]
SYNTH_RESTARTS = 1
SYNTH_JOB_SECONDS = 2.4


def _synthesis_plant(problem, structure):
    """The channel ``kreisslab synthesize`` closes for a structure."""
    from kreisslab.statespace import StateSpace

    if structure == "statefb":
        model = problem.model
        return StateSpace(model.A, model.B_u, np.eye(model.A.shape[0]))
    return problem.plant()


def check_synthesis(output, ctx, problem_path, structure):
    """constraints.satisfied and K within 1e-3 of an independent oracle."""
    from kreisslab import oracles
    from kreisslab.loop import ControllerRealization, assemble_closed_loop
    from kreisslab.problemio import load_problem, matrix_from_json

    result = json.loads(output["stdout"])
    if not result["constraints"]["satisfied"]:
        return "constraints not satisfied"
    plant = _synthesis_plant(load_problem(problem_path), structure)
    controller = ControllerRealization(
        *(matrix_from_json(result["controller"][k], k)
          for k in ("A_K", "B_K", "C_K", "D_K")))
    channel = assemble_closed_loop(plant, controller).channel()
    oracle = oracles.kreiss_halfplane_grid(channel, n_x=200, n_omega=1000)
    K = result["kreiss"]["value"]
    ctx.achieved.append(K)
    if abs(K - oracle.value) > 1e-3 * max(1.0, oracle.value):
        return f"K={K:.6g} but oracle {oracle.value:.6g}"
    return None


def setup_synthesize(seed, budget, workdir, problems):
    count = max(len(SYNTH_TEMPLATES), round(budget / SYNTH_JOB_SECONDS))
    jobs = []
    for k in range(count):
        label, fname, structure = SYNTH_TEMPLATES[k % len(SYNTH_TEMPLATES)]
        path = problems / fname
        argv = ["synthesize", path, "--structure", structure,
                "--seed", 1000 * seed + k, "--restarts", SYNTH_RESTARTS]
        jobs.append(Job(
            name=f"{label}#{k}",
            run=lambda a=argv: run_cli(a),
            check=lambda out, ctx, p=path, s=structure:
                check_synthesis(out, ctx, p, s),
            may_undecide=label == "brunton_static"))
    return jobs


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

LORENZ_CATALOGS = ("LORENZ_CHAOS_QC", "LORENZ_CHAOS_KREISS",
                   "LORENZ_FP_QC", "LORENZ_FP_KREISS")
#: static gains on Lorenz x or y measurement: the loop is Hurwitz for
#: K < -27 on both; these ranges keep a margin on each side of the boundary
STABILIZING_GAINS = (-60.0, -29.0)
DESTABILIZING_GAINS = (-25.0, 0.0)
QC_EPSILON = 1e-3
YORKE_SAMPLES = 10000
LOSSLESS_SAMPLES = 10000
ENSEMBLE_T_FINAL = 40.0


def _lorenz_problem(params, measurement, controller):
    from dataclasses import asdict

    from kreisslab.problemio import controller_to_json

    return {"version": 1,
            "model": {"type": "lorenz", "params": asdict(params),
                      "measurement": measurement},
            "controller": controller_to_json(controller)}


def check_qc(output, ctx, problem_path, expected):
    """The seed commit's decision, and "feasible" never claimed for a loop
    with spectral abscissa >= -eps/2."""
    from kreisslab.linalg import spectral_abscissa
    from kreisslab.loop import assemble_closed_loop
    from kreisslab.problemio import load_problem
    from kreisslab.statespace import StateSpace

    result = json.loads(output["stdout"])
    problem = load_problem(problem_path)
    model = problem.model
    cl = assemble_closed_loop(StateSpace(model.A, model.B_u, model.C_y),
                              problem.controller, B_w=model.B_w)
    alpha = spectral_abscissa(cl.A_cl)
    if result["status"] == "feasible" and alpha >= -0.5 * QC_EPSILON:
        return f"feasible claimed with spectral abscissa {alpha:.3g}"
    if result["status"] != expected:
        return f"{result['status']}, the seed commit decides {expected}"
    return None


def check_yorke(output, ctx):
    result = json.loads(output["stdout"])
    return None if result["verdict"] == "PASS" else \
        f"yorke failed, min(-Vdot)={result['min_neg_vdot']:.3g}"


def check_lorenz_simulation(output, ctx):
    result = json.loads(output["stdout"])
    if result["diverged"] or result["final_norm"] > 1e-6:
        return f"|x(40)|={result['final_norm']:.3g} (limit 1e-6)"
    return None


def check_ensemble(output, ctx, csv_path, bound):
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    cols = [i for i, h in enumerate(header) if h in ("x_1", "x_2")]
    x = np.array([[float(r[i]) for i in cols] for r in rows[1:]])
    radius = float(np.max(np.linalg.norm(x, axis=1)))
    if radius > bound * (1 + 1e-6):
        return f"radius {radius:.6g} exceeds the bound {bound:.6g}"
    return None


def _lossless(model, samples, seed):
    from kreisslab import lmi

    max_abs, max_rel = lmi.lossless_check(model, samples=samples, seed=seed)
    return {"max_abs": max_abs, "max_rel": max_rel}


def check_lossless(output, ctx):
    if output["max_rel"] > 1e-12:
        return f"lossless residual {output['max_rel']:.3g}"
    return None


def setup_certify(seed, budget, workdir, problems):
    from kreisslab import benchmarks
    from kreisslab.certify import boundedness_bound
    from kreisslab.loop import ControllerRealization
    from kreisslab.models import lorenz_model
    from kreisslab.problemio import load_problem

    rng = np.random.default_rng(seed)
    scale = budget / 12.0
    jobs = []

    def qc_job(name, payload, expected):
        path = _write_json(workdir / f"{name}.json", payload)
        jobs.append(Job(
            name=name,
            run=lambda p=path: run_cli(["certify", p, "--method", "qc",
                                        "--epsilon", QC_EPSILON]),
            check=lambda out, ctx, p=path: check_qc(out, ctx, p, expected)))

    catalogs = LORENZ_CATALOGS if budget >= 4 else LORENZ_CATALOGS[:1]
    for cat_name in catalogs:
        params = (benchmarks.lorenz_chaos() if "CHAOS" in cat_name
                  else benchmarks.lorenz_fixed_point())
        for entry in getattr(benchmarks, cat_name).values():
            qc_job(f"qc_{cat_name.lower()}_{entry.name}",
                   _lorenz_problem(params, entry.measurement,
                                   entry.controller), "feasible")

    n_gains = max(2, 2 * round(2 * scale))
    for k in range(n_gains):
        stabilizing = k % 2 == 0
        gain = float(rng.uniform(*(STABILIZING_GAINS if stabilizing
                                   else DESTABILIZING_GAINS)))
        measurement = "xy"[(seed + k // 2) % 2]
        qc_job(f"qc_gain{k:02d}_{measurement}",
               _lorenz_problem(benchmarks.lorenz_chaos(), measurement,
                               ControllerRealization.static([[gain]])),
               "feasible" if stabilizing else "infeasible")

    certframe = problems / "brunton2_first_order_certframe.json"
    yorke_argv = ["certify", certframe, "--method", "yorke", "--certificate",
                  problems / "brunton2_first_order_V.json", "--samples",
                  max(500, round(YORKE_SAMPLES * scale)), "--seed", seed]
    jobs.append(Job(name="yorke", run=lambda: run_cli(yorke_argv),
                    check=check_yorke))

    # criterion 10: the switched Lorenz loop must settle to |x(40)| <= 1e-6
    lorenz_argv = ["simulate", problems / "lorenz_chaos_static_x.json",
                   "--x0", "1,1,1", "--t-on", 15, "--t-final", 40]
    jobs.append(Job(name="lorenz_switched", run=lambda: run_cli(lorenz_argv),
                    check=check_lorenz_simulation))

    problem = load_problem(certframe)
    bound = boundedness_bound(problem.model.params, problem.controller)
    for k in range(max(1, round(6 * scale))):
        x0 = rng.uniform(-bound, bound, size=2)
        while np.linalg.norm(x0) > bound:
            x0 = rng.uniform(-bound, bound, size=2)
        csv_path = workdir / f"ensemble{k:02d}.csv"
        argv = ["simulate", certframe,
                "--x0=" + ",".join(repr(float(v)) for v in x0),
                "--t-on", 0, "--t-final", ENSEMBLE_T_FINAL, "--out", csv_path]
        jobs.append(Job(
            name=f"ensemble{k:02d}",
            run=lambda a=argv: run_cli(a),
            check=lambda out, ctx, c=csv_path, b=bound:
                check_ensemble(out, ctx, c, b)))

    model = lorenz_model(benchmarks.lorenz_chaos(), "x")
    samples = max(500, round(LOSSLESS_SAMPLES * scale))
    jobs.append(Job(name="lossless",
                    run=lambda: _lossless(model, samples, seed),
                    check=check_lossless))
    return jobs


SETUPS = {
    "analyze": setup_analyze,
    "synthesize": setup_synthesize,
    "certify": setup_certify,
}


def job_status(job, output):
    """("ok" | "undecided" | "failed", reason) of a job output before
    verification: a documented non-answer is "undecided" only on a job the
    seed commit leaves undecided."""
    if not (isinstance(output, dict) and "code" in output) \
            or output["code"] == 0:
        return "ok", None
    if output["code"] in UNDECIDED_EXITS:
        if job.may_undecide:
            return "undecided", None
        return "failed", (f"exit {output['code']} (undecided) where the "
                          "seed commit decides")
    return "failed", \
        f"exit {output['code']}: {output['stderr'].strip()[-160:]}"
