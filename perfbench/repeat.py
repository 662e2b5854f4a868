"""Run benchmark workloads several times and summarize the spread.

From the root of a checkout:

    python3 perfbench/repeat.py                  # every workload once
    python3 perfbench/repeat.py --runs 10 --out perfbench/results/BENCH_1.json

Each run is a separate ``perfbench/run.py`` process with its own seed
(1, 2, ...) and the run length of BENCHMARK.json.  For each
metric the summary gives the median, the quartiles and the spread
(interquartile distance over the median); a spread above a third of the
metric's bound is printed as a warning.  A run that exits with an error
or reports ``correct: false`` counts as a failed run.  The exit status
is 1 when any run failed and 0 otherwise; spreads do not change it.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stdout + proc.stderr)
        return None, None
    env = json.loads(lines[-2].removeprefix("env "))
    return env, json.loads(lines[-1])


def summarize(values):
    """Median, quartiles and spread; values stay in run order."""
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    summary = {"run_seconds": spec["run_seconds"], "trace": args.trace,
               "env": None, "workloads": {}}
    for workload in args.workloads:
        values, units, failed = {}, {}, 0
        for i in range(args.runs):
            env, result = one_run(workload, i + 1,
                                  spec["run_seconds"], args.trace)
            if result is None or not result["correct"]:
                failed += 1
                continue
            summary["env"] = summary["env"] or env
            for key, metric in result["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
                units[key] = metric["unit"]
        print(f"{workload}: {args.runs} runs, {failed} failed")
        stats = {}
        for key, vals in values.items():
            stats[key] = dict(summarize(vals), unit=units[key])
            bound = bounds.get(key)
            flag = ""
            if bound is not None and stats[key]["spread"] > bound / 3:
                flag = f"  (warning: spread above a third of the bound {bound})"
            print(f"  {key} = {stats[key]['median']:.6g} {units[key]} "
                  f"(quartiles {stats[key]['q1']:.6g}..{stats[key]['q3']:.6g}, "
                  f"spread {stats[key]['spread']:.2%}){flag}")
        summary["workloads"][workload] = {
            "runs": args.runs, "failed_runs": failed, "metrics": stats}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
        print(f"wrote {args.out}")
    failed_total = sum(w["failed_runs"] for w in summary["workloads"].values())
    return 1 if failed_total else 0


if __name__ == "__main__":
    sys.exit(main())
