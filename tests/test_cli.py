import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kreisslab
from kreisslab.cli import main

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_import_leaves_scipy_integrate_unloaded():
    # nor does the radius bound (closed form) when it runs
    src = str(Path(kreisslab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    certframe = PROBLEMS / "brunton2_first_order_certframe.json"
    for code in ["import sys, kreisslab.cli",
                 "import sys, kreisslab.cli; "
                 "from kreisslab.certify import boundedness_bound; "
                 "from kreisslab.problemio import load_problem; "
                 f"p = load_problem({str(certframe)!r}); "
                 "assert boundedness_bound(p.model.params, p.controller) > 0"]:
        proc = subprocess.run(
            [sys.executable, "-c",
             f"{code}; sys.exit('scipy.integrate' in sys.modules)"],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr or "scipy.integrate imported"


def test_simulate_leaves_scipy_integrate_unloaded():
    # the in-house stepper replaced solve_ivp
    src = str(Path(kreisslab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    problem = PROBLEMS / "lorenz_chaos_static_x.json"
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from kreisslab.cli import main; "
         f"code = main(['simulate', {str(problem)!r}, '--x0', '1,1,1', "
         "'--t-on', '1', '--t-final', '2']); "
         "sys.exit(code or 10 * ('scipy.integrate' in sys.modules))"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr or "scipy.integrate imported"
    assert json.loads(proc.stdout)["t_end"] == 2.0


def test_analyze_example3_kreiss(capsys):
    code, out, _ = run(capsys, "analyze", PROBLEMS / "example3.json",
                       "--norm", "kreiss")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(0.1716, abs=2e-3)


def test_analyze_example3_m0(capsys):
    code, out, _ = run(capsys, "analyze", PROBLEMS / "example3.json",
                       "--norm", "m0")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.25, abs=2e-3)


def test_analyze_contraction_trivial(capsys):
    code, out, _ = run(capsys, "analyze", PROBLEMS / "contraction.json",
                       "--norm", "kreiss")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(1.0, rel=1e-6)


def test_analyze_certified_within_oracle_bounds(capsys):
    code, out, _ = run(capsys, "analyze", PROBLEMS / "example3.json",
                       "--norm", "m0", "--certify", "--grid", "50000")
    assert code == 0
    payload = json.loads(out)
    lo = payload["certification"]["lower"]
    hi = payload["certification"]["upper"]
    assert lo <= payload["value"] <= hi


def test_analyze_unstable_exit_code(capsys, tmp_path):
    bad = tmp_path / "unstable.json"
    bad.write_text(json.dumps({
        "version": 1,
        "system": {"A": {"rows": 1, "cols": 1, "data": [1.0]},
                   "B": {"rows": 1, "cols": 1, "data": [1.0]},
                   "C": {"rows": 1, "cols": 1, "data": [1.0]}}}))
    code, _, err = run(capsys, "analyze", bad, "--norm", "kreiss")
    assert code == 2
    assert "stability" in err


def test_analyze_schema_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"system": {}}))  # version missing
    code, _, err = run(capsys, "analyze", bad, "--norm", "kreiss")
    assert code == 3
    assert "schema" in err


def test_oracle_m0_example3(capsys):
    code, out, _ = run(capsys, "oracle", PROBLEMS / "example3.json",
                       "--norm", "m0", "--grid", "200000")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(0.25, abs=1e-5)


def test_oracle_kreiss_example3(capsys):
    code, out, _ = run(capsys, "oracle", PROBLEMS / "example3.json",
                       "--norm", "kreiss")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.1716, abs=5e-4)


def test_oracle_contraction(capsys):
    code, out, _ = run(capsys, "oracle", PROBLEMS / "contraction.json",
                       "--norm", "kreiss")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(1.0, abs=1e-4)


def test_oracle_oversize_exit_code(capsys, tmp_path):
    n = 13
    sysblock = {"A": {"rows": n, "cols": n,
                      "data": list((-np.eye(n)).ravel())},
                "B": {"rows": n, "cols": 1, "data": [1.0] * n},
                "C": {"rows": 1, "cols": n, "data": [1.0] * n}}
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"version": 1, "system": sysblock}))
    code, _, err = run(capsys, "oracle", big, "--norm", "m0")
    assert code == 7


@pytest.mark.parametrize("problem,norm", [("example3", "m0"),
                                          ("example3", "hinf"),
                                          ("example8", "pkgain")])
def test_oracle_grid_too_small_is_an_error(capsys, problem, norm):
    code, out, err = run(capsys, "oracle", PROBLEMS / f"{problem}.json",
                         "--norm", norm, "--grid", "0")
    assert (code, out) == (1, "")
    assert "at least 2 points" in err


def test_simulate_lorenz_converges(capsys, tmp_path):
    out_csv = tmp_path / "traj.csv"
    code, out, _ = run(capsys, "simulate",
                       PROBLEMS / "lorenz_chaos_static_x.json",
                       "--x0", "1,1,1", "--t-on", "15", "--t-final", "40",
                       "--out", out_csv)
    assert code == 0
    summary = json.loads(out)
    assert summary["final_norm"] <= 1e-6
    with open(out_csv) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:2] == ["t", "x_1"]
    assert float(rows[-1][0]) == pytest.approx(40.0)


def test_simulate_open_loop_chaotic_trace_bounded(capsys, tmp_path):
    out_csv = tmp_path / "open.csv"
    code, out, _ = run(capsys, "simulate", PROBLEMS / "lorenz_chaos_open.json",
                       "--x0", "1,1,1", "--t-on", "50", "--t-final", "50",
                       "--out", out_csv)
    assert code == 0
    summary = json.loads(out)
    assert not summary["diverged"]
    assert summary["final_norm"] > 1.0  # captured by the attractor, not 0
    with open(out_csv) as fh:
        rows = list(csv.reader(fh))
    states = np.array([[float(v) for v in r[1:4]] for r in rows[1:]])
    assert np.max(np.linalg.norm(states, axis=1)) < 100.0


@pytest.mark.parametrize("argv", [
    ("--x0", "1,1,1", "--t-on", "50", "--t-final", "40"),
    ("--x0", "1,1,1", "--t-final", "nan"),
    ("--x0", "1,1,1", "--t-final", "inf"),
    ("--x0", "a,b,c", "--t-final", "5"),
    ("--x0", "nan,1,1", "--t-final", "5"),
    ("--x0", "1,1,1", "--t-final", "0"),
    ("--x0", "1,1,1", "--t-on", "-2", "--t-final", "-1"),
    ("--x0", "1e200,1,1", "--t-final", "2"),
], ids=["t_on_after_t_final", "t_final_nan", "t_final_inf", "x0_not_numbers",
        "x0_nan", "t_final_zero", "negative_times", "x0_beyond_blowup"])
def test_simulate_time_order_schema_error(capsys, argv):
    # rejected before any step: a NaN or inf bound would never be reached
    code, out, err = run(capsys, "simulate",
                         PROBLEMS / "lorenz_chaos_static_x.json", *argv)
    assert (code, out) == (3, "")
    assert err.startswith("schema error: ") and err.count("\n") == 1


def test_simulate_step_budget_is_an_error(capsys):
    # the start is inside the blow-up radius, but the loop's time scale
    # near |x| = 1e8 needs about 1e8 steps to reach t = 2
    code, out, err = run(capsys, "simulate",
                         PROBLEMS / "lorenz_chaos_static_x.json",
                         "--x0", "1e8,1,1", "--t-on", "1", "--t-final", "2")
    assert (code, out) == (1, "")
    assert err.startswith("error: integration stopped") and \
        err.count("\n") == 1


def test_certify_qc_pass(capsys, tmp_path):
    report = tmp_path / "qc.json"
    code, out, _ = run(capsys, "certify",
                       PROBLEMS / "lorenz_chaos_static_x.json",
                       "--method", "qc", "--report", str(report))
    assert code == 0
    result = json.loads(out)
    assert result["verdict"] == "PASS"
    assert sorted(result) == ["epsilon", "margin", "status", "verdict"]
    payload = json.loads(report.read_text())
    assert payload["result"] == result
    assert payload["metadata"]["reason"] == "interior point verified"
    assert payload["metadata"]["iterations"] >= 0


def test_certify_window_boundary(capsys):
    code, out, _ = run(capsys, "certify",
                       PROBLEMS / "brunton2_static_printed.json",
                       "--method", "window")
    assert code == 0
    assert json.loads(out)["verdict"] == "BOUNDARY"


def test_certify_bendixson_pass(capsys):
    code, out, _ = run(capsys, "certify", PROBLEMS / "brunton2_bendixson.json",
                       "--method", "bendixson")
    assert code == 0
    assert json.loads(out)["verdict"] == "PASS"


def test_certify_dcgain_pass(capsys):
    code, out, _ = run(capsys, "certify",
                       PROBLEMS / "brunton2_first_order.json",
                       "--method", "dcgain")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "PASS"
    assert payload["dc_gain"] == pytest.approx(2.247 / 1.483, rel=1e-6)


def test_certify_yorke_pass(capsys):
    code, out, _ = run(capsys, "certify",
                       PROBLEMS / "brunton2_first_order_certframe.json",
                       "--method", "yorke", "--samples", "5000",
                       "--certificate", PROBLEMS / "brunton2_first_order_V.json")
    assert code == 0
    assert json.loads(out)["verdict"] == "PASS"


def test_reports_are_deterministic(capsys, tmp_path):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    for r in (r1, r2):
        code, _, _ = run(capsys, "analyze", PROBLEMS / "example3.json",
                         "--norm", "kreiss", "--report", r)
        assert code == 0
    a = json.loads(r1.read_text())
    b = json.loads(r2.read_text())
    assert a["result"] == b["result"]
    assert a["inputs"] == b["inputs"]
    # byte-identical except the metadata timestamp block
    a.pop("metadata")
    b.pop("metadata")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_bundled_certificate_file_matches_catalog():
    from kreisslab.benchmarks import first_order_lyapunov_coefficients
    payload = json.loads(
        (PROBLEMS / "brunton2_first_order_V.json").read_text())
    V1, V2 = first_order_lyapunov_coefficients()
    got = {tuple(int(x) for x in k.split(",")): v
           for k, v in payload["V1"].items()}
    assert got == V1
    got2 = {tuple(int(x) for x in k.split(",")): v
            for k, v in payload["V2"].items()}
    assert got2 == V2


def test_synthesize_smoke_static(capsys, tmp_path):
    out = tmp_path / "controller.json"
    code, text, _ = run(capsys, "synthesize",
                        PROBLEMS / "lorenz_chaos_synth.json",
                        "--structure", "static", "--seed", "0",
                        "--restarts", "2", "--out", out)
    assert code == 0
    payload = json.loads(text)
    assert payload["kreiss"]["value"] <= 1.05
    assert payload["constraints"]["satisfied"]
    saved = json.loads(out.read_text())
    assert "controller" in saved


def test_synthesize_zero_actuation_exit_code(capsys, tmp_path):
    bad = tmp_path / "zero_b.json"
    bad.write_text(json.dumps({
        "version": 1,
        "system": {"A": {"rows": 1, "cols": 1, "data": [0.5]},
                   "B": {"rows": 1, "cols": 1, "data": [0.0]},
                   "C": {"rows": 1, "cols": 1, "data": [1.0]}}}))
    code, _, err = run(capsys, "synthesize", bad, "--structure", "static",
                       "--restarts", "1")
    assert code == 4
