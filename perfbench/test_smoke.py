"""Smoke test of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload at a tiny size, with tracing off and on, and checks
that each metric of BENCHMARK.json is emitted with its unit, that the
report gives every end-to-end metric with a sample count, and that the
outputs were verified.  It also reproduces the seed defect behind
``oracles.bracket_escapes`` and checks the wrappers' tolerance of a layer
that no longer exists.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REPORTED = ("setup_s", "wall_s", "wall_ref", "job_p50_ms", "job_tail_ms",
            "fail_frac", "undecided_frac", "peak_rss_mb",
            "kreiss_achieved_max")

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))


def run_benchmark(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload",
                         [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    proc = run_benchmark(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
        assert math.isfinite(emitted["value"])
    report = "\n".join(lines[:-1])
    for name in REPORTED:
        row = next(l for l in lines if l.startswith(name + " "))
        count = row.split()[3]
        assert int(count) >= 0, row
    assert f"verified {result['attempted']} jobs" in report


def test_bare_directory_exits_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_benchmark("analyze", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_bracket_escapes_visible_on_criterion5_suite():
    """Seed 2024, n 2..6: hinf on systems #5, #9 and M0 on #8, #10 (counted
    from 0) sit about 1e-8 above the upper end of certification_interval
    at the oracles' default grids, so a certified run rejects them."""
    from kreisslab import oracles
    from kreisslab.norms import hinf_norm, transient_peak_m0

    import workloads

    rng = np.random.default_rng(2024)
    escapes = set()
    for k in range(11):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        sys_ = workloads.random_stable_system(rng, n, p, m,
                                              workloads.BASE_MARGIN,
                                              bool(k % 2))
        for norm, value, oracle in (
                ("hinf", hinf_norm(sys_).value,
                 oracles.hinf_frequency_grid(sys_)),
                ("m0", transient_peak_m0(sys_).value,
                 oracles.m0_time_grid(sys_))):
            lo, hi = oracles.certification_interval(oracle)
            if not lo - workloads.ESCAPE_ATOL <= value \
                    <= hi + workloads.ESCAPE_ATOL:
                escapes.add((norm, k))
    assert {("hinf", 5), ("hinf", 9), ("m0", 8), ("m0", 10)} <= escapes


def test_missing_layer_is_reported_absent(monkeypatch):
    import tracer

    monkeypatch.setitem(tracer.LAYERS, "norms.removed_kernel", tracer.Layer(
        tracer.CALLS_MS, path="norms.no_such_function"))
    monkeypatch.setitem(tracer.LAYERS, "gone.module", tracer.Layer(
        tracer.CALLS_MS, path="no_such_module.fn"))
    t = tracer.Tracer()
    t.install()
    try:
        from kreisslab import StateSpace, kreiss_norm

        kreiss_norm(StateSpace(np.diag([-1.0, -2.0]), [[1.0], [-1.0]],
                               [[1.0, 1.0]]))
    finally:
        t.uninstall()
    assert {"norms.removed_kernel", "gone.module"} <= set(t.absent)
    layers = t.layers()
    assert "norms.removed_kernel" not in layers
    assert layers["norms.kreiss_norm"]["calls"] == 1
    assert layers["norms.hinf_norm"]["calls"] > 1
    assert layers["norms.kreiss_norm"]["self_ms"] \
        < layers["norms.kreiss_norm"]["ms"]


def test_non_answer_fails_a_job_the_seed_commit_decides(tmp_path):
    """Exit 4 or 6 is undecided only on a job marked may_undecide, and a qc
    verdict other than the seed commit's fails its check."""
    import workloads

    undecided = {"code": 4, "stdout": "", "stderr": ""}
    decides = workloads.Job("lorenz", run=None, check=None)
    may = workloads.Job("brunton", run=None, check=None, may_undecide=True)
    assert workloads.job_status(decides, undecided)[0] == "failed"
    assert workloads.job_status(may, undecided)[0] == "undecided"
    assert workloads.job_status(decides, {**undecided, "code": 0}) \
        == ("ok", None)

    jobs = workloads.setup_certify(3, 1.0, tmp_path, ROOT / "problems")
    gains = [j for j in jobs if j.name.startswith("qc_gain")]
    stabilizing = gains[0]
    out = stabilizing.run()
    assert json.loads(out["stdout"])["status"] == "feasible"
    assert stabilizing.check(out, None) is None
    flipped = {**out, "stdout": out["stdout"].replace('"feasible"',
                                                      '"infeasible"')}
    assert "seed commit decides feasible" in stabilizing.check(flipped, None)
