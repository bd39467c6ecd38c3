"""kreisslab benchmark: one workload per invocation, outputs checked.

    python3 perfbench/run.py --workload analyze|synthesize|certify \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/kreisslab`` and ``problems/``
must exist; otherwise it exits 2 without a result).  A run

1. times seven fresh-process set-ups (interpreter start, imports, input
   generation, problem files written) and reports their median as
   ``setup_s``;
2. builds the workload's job list from the seed (see workloads.py), sized
   so that PASSES passes fill ``--seconds``, and runs the passes with
   tracing off; with ``--trace 1`` the last pass is traced instead.
   Each job's time is its fastest untraced pass: on a shared machine the
   timing noise only ever slows a job down, and a fixed pass count keeps
   that minimum comparable between commits.  Before every job a fixed
   reference kernel that runs no kreisslab code is timed; ``wall_ref``
   is the job list's time in units of that kernel's median time, which
   cancels the minute-scale drift of the machine's speed between runs.
   Each set-up is rescaled to the kernel's nominal speed by the kernel
   timed around it, and ``setup_s`` is the median of the rescaled times;
3. checks every output of the first pass outside the timed region (later
   passes must reproduce it exactly);
4. prints a report with units and sample counts, writes a run record under
   ``perfbench/out/`` and ends with one JSON line:
   ``{"correct", "attempted", "failed", "metrics"}``.  The metrics are the
   end-to-end set with ``--trace 0`` and the per-layer set with
   ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROBLEMS = ROOT / "problems"
OUT = HERE / "out"

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# one BLAS thread: the systems are n <= 12, and a 2-core box shared with
# other work gives steadier timings without thread contention
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the BLAS thread settings)

from tracer import LAYERS, Tracer  # noqa: E402

SETUP_REPEATS = 7
PASSES = 2
#: the reference kernel's typical time on the 2-core x86_64 box the
#: baseline was measured on; set-up times are reported at this speed
REF_NOMINAL_S = 0.025

#: every end-to-end metric the report prints, with its unit
REPORTED = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_ref": "ref",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "fail_frac": "ratio",
    "undecided_frac": "ratio",
    "peak_rss_mb": "MiB",
    "kreiss_achieved_max": "1",
}
#: the ones in the result line of an untraced run, bounded in
#: BENCHMARK.json.  Of the rest, wall_s drifts with the machine's speed,
#: job_p50_ms and job_tail_ms are single jobs' times, and the fractions
#: and kreiss_achieved_max can be 0 or absent; they appear as "run.<name>"
#: among the per-layer metrics
GATED = ("setup_s", "wall_ref", "peak_rss_mb")

_REF_RNG = np.random.default_rng(0)
_REF_A = _REF_RNG.standard_normal((6, 6)) - 3.0 * np.eye(6)
_REF_B = _REF_RNG.standard_normal((6, 2))
_REF_C = _REF_RNG.standard_normal((2, 6))
_REF_FREQS = np.geomspace(1e-2, 1e2, 500)

#: share of the traced pass's wall time spent inside a layer
SHARES = ("statespace.transfer", "lmi.sdp_feasibility")


def stat_unit(stat: str) -> str:
    return "ms" if stat.endswith("ms") else "count"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["analyze", "synthesize", "certify"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", metavar="DIR",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup(args, workdir: Path):
    """Imports, inputs and problem files; returns the job list."""
    sys.path.insert(0, str(SRC))
    import kreisslab.cli  # noqa: F401  (imports every layer the jobs use)
    import kreisslab.oracles  # noqa: F401

    import workloads

    return workloads.SETUPS[args.workload](args.seed, args.seconds / PASSES,
                                           workdir, PROBLEMS)


def time_fresh_setups(args, parent: Path) -> list:
    """[(seconds, reference seconds)] per fresh-process set-up; the
    reference is the mean of the kernel timed just before and just after,
    so that each set-up is rescaled by the machine's speed at its time."""
    times = []
    ref_before = reference_seconds()
    for k in range(SETUP_REPEATS):
        workdir = parent / f"setup{k}"
        workdir.mkdir()
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--setup-only", str(workdir)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-400:]}")
        ref_after = reference_seconds()
        times.append((elapsed, 0.5 * (ref_before + ref_after)))
        ref_before = ref_after
    return times


def reference_seconds() -> float:
    """Time of a fixed kernel made of what the jobs are made of: a Python
    loop and small complex solves and SVDs.  It uses no kreisslab code, so
    only the machine's speed moves it."""
    eye = np.eye(6)
    t0 = time.perf_counter()
    acc = 0
    for i in range(150000):
        acc += (i * 7) % 13
    for w in _REF_FREQS:
        np.linalg.svd(_REF_C @ np.linalg.solve(1j * w * eye - _REF_A, _REF_B),
                      compute_uv=False)
    return time.perf_counter() - t0


def run_pass(jobs, refs):
    """[(seconds, output, error)] per job, and the pass wall time; a
    reference-kernel time is appended to refs before each job."""
    records = []
    t_pass = 0.0
    for job in jobs:
        refs.append(reference_seconds())
        t0 = time.perf_counter()
        try:
            output, error = job.run(), None
        except Exception as exc:  # a raising job is a failed job
            output, error = None, f"{type(exc).__name__}: {exc}"
        records.append((time.perf_counter() - t0, output, error))
        t_pass += records[-1][0]
    return records, t_pass


def verify(jobs, passes, workloads):
    """Outcome per job ("ok" | "undecided" | "failed", reason)."""
    ctx = workloads.CheckContext()
    outcomes = []
    first = passes[0][0]
    for i, (job, (_, output, error)) in enumerate(zip(jobs, first)):
        if error is not None:
            outcomes.append(("failed", error))
            continue
        if any(p[0][i][1] != output for p in passes[1:]):
            outcomes.append(("failed", "output changed between passes"))
            continue
        status, reason = workloads.job_status(job, output)
        if status != "ok":
            outcomes.append((status, reason))
            continue
        try:
            reason = job.check(output, ctx)
        except Exception as exc:  # an unreadable output fails its check
            reason = f"check raised {type(exc).__name__}: {exc}"
        outcomes.append(("failed", reason) if reason else ("ok", None))
    return outcomes, ctx


def tail(values):
    """(value, percentile) at the highest percentile with >= 10 jobs beyond
    it; the maximum when that percentile would not lie above the median."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def environment():
    import numpy
    import scipy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"git_commit": commit,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
            "machine": platform.machine()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kreisslab" / "__init__.py").is_file() \
            or not PROBLEMS.is_dir():
        print(f"benchmark needs {SRC / 'kreisslab'} and {PROBLEMS}; "
              "run it from a kreisslab source checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    if args.setup_only:
        setup(args, Path(args.setup_only))
        return 0

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return measure(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, scratch: Path) -> int:
    setup_times = time_fresh_setups(args, scratch)
    workdir = scratch / "inputs"
    workdir.mkdir()
    jobs = setup(args, workdir)
    import workloads

    tracer = None
    pass_refs = []

    def next_pass():
        pass_refs.append([])
        return run_pass(jobs, pass_refs[-1])

    passes = [next_pass() for _ in range(PASSES - args.trace)]
    timed = list(passes)
    refs = [r for rs in pass_refs for r in rs]
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            passes.append(next_pass())
        finally:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    t_verify = time.perf_counter()
    outcomes, ctx = verify(jobs, passes, workloads)
    verify_s = time.perf_counter() - t_verify
    attempted = len(jobs)
    failed = sum(1 for s, _ in outcomes if s == "failed")
    undecided = sum(1 for s, _ in outcomes if s == "undecided")
    job_s = [min(p[0][i][0] for p in timed) for i in range(attempted)]
    wall_s = sum(job_s)
    tail_s, tail_pct = tail(job_s)
    achieved = max(ctx.achieved) if ctx.achieved else None

    ref_s = statistics.median(refs)
    setup_raw_s = statistics.median(t for t, _ in setup_times)
    reported = {
        "setup_s": REF_NOMINAL_S * statistics.median(
            t / ref for t, ref in setup_times),
        "wall_s": wall_s,
        "wall_ref": wall_s / ref_s,
        "job_p50_ms": 1e3 * statistics.median(job_s),
        "job_tail_ms": 1e3 * tail_s,
        "fail_frac": failed / attempted,
        "undecided_frac": undecided / attempted,
        "peak_rss_mb": peak_rss_mb,
        "kreiss_achieved_max": achieved,
    }
    samples = {"setup_s": SETUP_REPEATS, "wall_s": len(timed),
               "wall_ref": len(refs),
               "job_p50_ms": attempted, "job_tail_ms": attempted,
               "peak_rss_mb": 1, "fail_frac": attempted,
               "undecided_frac": attempted,
               "kreiss_achieved_max": len(ctx.achieved)}

    per_layer = None
    absent = []
    if tracer is not None:
        traced_wall = passes[-1][1]
        layers = tracer.layers()
        absent = tracer.absent
        per_layer = {}
        for layer, spec in LAYERS.items():
            for stat in spec.stats:
                per_layer[f"{layer}.{stat}"] = (
                    layers.get(layer, {}).get(stat, 0), stat_unit(stat))
        for layer in SHARES:
            per_layer[f"{layer}.share"] = (
                layers.get(layer, {}).get("ms", 0.0) / 1e3 / traced_wall,
                "ratio")
        per_layer["oracles.bracket_escapes"] = (len(ctx.escapes), "count")
        # pass times in reference-kernel units, so drift cancels
        rel = [p[1] / statistics.median(r) for p, r in zip(passes, pass_refs)]
        per_layer["trace.overhead_frac"] = (rel[-1] / min(rel[:-1]) - 1.0,
                                            "ratio")
        for name, value in reported.items():
            if name not in GATED:
                per_layer[f"run.{name}"] = (value or 0.0, REPORTED[name])
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.npz")

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "env": environment(),
        "passes": len(timed), "attempted": attempted, "failed": failed,
        "undecided": undecided, "verify_s": verify_s,
        "reference_ms": 1e3 * ref_s, "setup_raw_s": setup_raw_s,
        "bracket_escapes": ctx.escapes,
        "job_tail_percentile": tail_pct,
        "reported": reported, "samples": samples,
        "per_layer": None if per_layer is None
        else {k: v for k, (v, _) in per_layer.items()},
        "absent_layers": absent,
        "jobs": [{"name": job.name, "seconds": t, "status": s, "reason": r}
                 for job, t, (s, r) in zip(jobs, job_s, outcomes)],
    }
    runs = OUT / "runs"
    runs.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}"
     f"-{os.getpid()}.json").write_text(json.dumps(record, indent=1) + "\n",
                                        encoding="utf-8")

    print_report(args, record, tail_pct, per_layer, outcomes, jobs)
    if per_layer is None:
        metrics = {k: {"value": reported[k], "unit": REPORTED[k]}
                   for k in GATED}
    else:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in per_layer.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def print_report(args, record, tail_pct, per_layer, outcomes, jobs):
    env = record["env"]
    print(f"# kreisslab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"passes={record['passes']} jobs={record['attempted']}")
    print(f"# python {env['python']}, numpy {env['numpy']}, scipy "
          f"{env['scipy']}, nproc {env['nproc']}, blas threads "
          f"{env['blas_threads']}, commit {env['git_commit']}")
    notes = {"job_tail_ms": f"p{tail_pct:.1f}, 10 jobs beyond"
             if tail_pct < 100 else "max (fewer than 21 jobs)",
             "setup_s": f"median of {SETUP_REPEATS} fresh processes "
                        f"({record['setup_raw_s']:.3f} s as timed), at "
                        f"the reference kernel's {REF_NOMINAL_S * 1e3:g} ms",
             "wall_s": f"sum of job times, each the best of "
                       f"{record['passes']} passes",
             "wall_ref": f"wall_s / median reference kernel "
                         f"({record['reference_ms']:.2f} ms)"}
    print(f"{'metric':<22}{'value':>14}  {'unit':<6}{'n':>5}  note")
    for name, value in record["reported"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:<22}{shown:>14}  {REPORTED[name]:<6}"
              f"{record['samples'][name]:>5}  {notes.get(name, '')}")
    print(f"verified {record['attempted']} jobs in "
          f"{record['verify_s']:.1f} s; oracles.bracket_escapes = "
          f"{len(record['bracket_escapes'])}")
    for job, norm, excess in record["bracket_escapes"]:
        print(f"  escape: {job} {norm} {excess:+.2e} relative")
    if per_layer is not None:
        for name, (value, unit) in per_layer.items():
            print(f"  {name:<40}{value:>16.6g}  {unit}")
        if record["absent_layers"]:
            print(f"absent layers: {', '.join(record['absent_layers'])}")
    for job, (status, reason) in zip(jobs, outcomes):
        if status != "ok":
            print(f"{status}: {job.name}: {reason or ''}")


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
