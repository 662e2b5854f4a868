"""Dump the reports of a multilevel run bit for bit, for diffing two checkouts.

    python tools/dump_reports.py --problem disk --levels 5 -o disk.json
    python tools/dump_reports.py --compare parent.json change.json

Runs `solver.multilevel_run` on a built-in problem and writes every
`LevelReport` field except `timings` and `peak_mb`, then the final dofs,
as plain JSON.
`json` writes each float as its shortest repr, which reads back to the
same bits (infinities and -0.0 too), so two dumps are equal exactly when
the runs agree bit for bit.  The package is imported from this
checkout's src/, so the same command run in two checkouts gives two
files to diff.

`--compare A B` reads two dumps and prints, per level, the `dimension`,
the Newton count `m` (`iterations`), the `krylov_iters` and the
`frozen_iters` (every CG count of the level's solves) of both, the
largest relative change from A to B of the `errors`, the `eps_errors`
and the residual `R`, the `hessian_eigmin` of both (the convexity
monitor, in full: a change to the Hessians shows in it), the factors'
`lu_mb` and the space's `fill_defect` of both (a change to the fill
shows in its defect), and the `stop_ratio` and `factorizations` of
both (roundoff moves the stop test before it moves `m`).  It exits 1
when the dumps differ in their number of levels, or in a level's
`dimension` or `m`.
"""

import argparse
import dataclasses
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from conicfem import solver as sol  # noqa: E402
from conicfem.problems import PROBLEM_IDS, builtin_problem  # noqa: E402


def dump(problem_id, levels):
    reports, u = sol.multilevel_run(builtin_problem(problem_id), levels)
    fields = [{k: v for k, v in dataclasses.asdict(rep).items()
               if k not in ("timings", "peak_mb")}
              for rep in reports]
    return {"problem": problem_id, "levels": fields, "dofs": u.dofs.tolist()}


def rel_change(a, b):
    """The largest |b - a| / |a| over the entries of two equal-length
    sequences (or two numbers); 0 where both are 0, None where either is
    missing."""
    if a is None or b is None:
        return None
    a, b = ([a], [b]) if isinstance(a, float) else (a, b)
    return max(0.0 if x == y else abs(y - x) / abs(x) if x else float("inf")
               for x, y in zip(a, b, strict=True))


def compare(a, b):
    """(lines, ok) of the per-level comparison of the dumps a and b (see
    the module docstring)."""
    lines = [f"{a['problem']} against {b['problem']}"]
    ok = a["problem"] == b["problem"] and len(a["levels"]) == len(b["levels"])
    if len(a["levels"]) != len(b["levels"]):
        lines.append(f"levels: {len(a['levels'])} against {len(b['levels'])}")
    for la, lb in zip(a["levels"], b["levels"]):
        same = la["dimension"] == lb["dimension"] and la["iterations"] == lb["iterations"]
        ok = ok and same
        changes = ", ".join(
            f"{name} {'-' if r is None else f'{r:.2e}'}"
            for name, r in (("errors", rel_change(la["errors"], lb["errors"])),
                            ("eps_errors", rel_change(la["eps_errors"], lb["eps_errors"])),
                            ("R", rel_change(la["residual"], lb["residual"]))))
        def both(key, fmt="", section="solver"):
            return " ".join("-" if r is None else f"{r:{fmt}}"
                            for r in ((lev[section] if section else lev).get(key)
                                      for lev in (la, lb)))

        lines.append(
            f"level {la['level']}: dimension {la['dimension']} {lb['dimension']}, "
            f"m {la['iterations']} {lb['iterations']}, krylov_iters {both('krylov_iters')}, "
            f"frozen_iters {both('frozen_iters')}; "
            f"largest relative change: {changes}; "
            f"hessian_eigmin {both('hessian_eigmin', section=None)}; lu_mb {both('lu_mb', '.4g')}, "
            f"fill_defect {both('fill_defect', '.3e')}; "
            f"stop_ratio {both('stop_ratio', '.3g')}, factorizations {both('factorizations')}"
            f"{'' if same else '  DIFFERS'}")
    return lines, ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--problem", choices=PROBLEM_IDS)
    ap.add_argument("--levels", type=int)
    ap.add_argument("-o", "--output")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two dumps level by level instead of running")
    args = ap.parse_args(argv)
    if args.compare:
        dumps = [json.loads(pathlib.Path(p).read_text()) for p in args.compare]
        lines, ok = compare(*dumps)
        print("\n".join(lines))
        return 0 if ok else 1
    if None in (args.problem, args.levels, args.output):
        ap.error("--problem, --levels and -o are required without --compare")
    if args.levels < 1:
        ap.error("--levels must be >= 1")
    pathlib.Path(args.output).write_text(json.dumps(dump(args.problem, args.levels), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
