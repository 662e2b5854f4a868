"""Dump the reports of a multilevel run bit for bit, for diffing two checkouts.

    python tools/dump_reports.py --problem disk --levels 5 -o disk.json

Runs `solver.multilevel_run` on a built-in problem and writes every
`LevelReport` field except `timings`, then the final dofs, as JSON.  Each
float is written as the hex digits of its IEEE-754 bit pattern, so two
dumps are equal exactly when the runs agree bit for bit.  The package is
imported from this checkout's src/, so the same command run in two
checkouts gives two files to diff.
"""

import argparse
import dataclasses
import json
import pathlib
import struct
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from conicfem import solver as sol  # noqa: E402
from conicfem.problems import (PROBLEM_IDS, builtin_domain,  # noqa: E402
                               disk_exact_solution, problem_g)

BITS = "f64:"       # prefix of a float's bit pattern


def to_bits(x):
    """x with every float replaced by BITS + its 16 hex digits."""
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, float):        # numpy's float64 too
        return BITS + struct.pack(">d", float(x)).hex()
    if isinstance(x, dict):
        return {k: to_bits(v) for k, v in x.items()}
    if hasattr(x, "tolist"):
        return to_bits(x.tolist())
    return [to_bits(v) for v in x]


def dump(problem_id, levels):
    domain, mesh = builtin_domain(problem_id)
    exact = disk_exact_solution() if problem_id == "disk" else None
    problem = sol.MongeAmpereProblem(domain, mesh, problem_g(problem_id), exact=exact,
                                     name=problem_id)
    reports, u = sol.multilevel_run(problem, levels)
    fields = [{k: v for k, v in dataclasses.asdict(rep).items() if k != "timings"}
              for rep in reports]
    return to_bits({"problem": problem_id, "levels": fields, "dofs": u.dofs})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--problem", choices=PROBLEM_IDS, required=True)
    ap.add_argument("--levels", type=int, required=True)
    ap.add_argument("-o", "--output", required=True)
    args = ap.parse_args(argv)
    pathlib.Path(args.output).write_text(json.dumps(dump(args.problem, args.levels), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
