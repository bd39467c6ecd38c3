"""Run a workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload analyze --seeds 1-10 \\
        [--seconds S] [--trace 0|1] [--save FILE]

Each seed runs ``perfbench/run.py`` in a fresh process.  For every metric
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread (Q3 - Q1) / median are printed next to the bound that
``BENCHMARK.json`` fixes; ``--save`` writes them as JSON together with the
environment (the committed ``baseline/`` files were made this way).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--save")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values, runs = {}, []
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        if proc.returncode != 0:
            print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        line = " ".join(f"{k}={v['value']:.5g}"
                        for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {line}",
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    summary = {}
    print(f"{'metric':<40}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>7}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 \
            else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        summary[name] = {"median": med, "q1": q1,
                         "q3": q3, "spread": spread, "n": len(vals)}
        bound = bounds.get(name)
        print(f"{name:<40}{med:>12.5g}{q1:>12.5g}"
              f"{q3:>12.5g}{spread:>9.3f}"
              f"{'' if bound is None else f'{bound:>7.2f}'}")
    if args.save:
        sys.path.insert(0, str(HERE))
        from run import environment

        Path(args.save).write_text(json.dumps(
            {"workload": args.workload, "seconds": args.seconds,
             "trace": args.trace, "env": environment(), "metrics": summary,
             "runs": runs},
            indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
