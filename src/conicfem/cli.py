"""Command-line interface: solve built-in problems, validate/refine meshes,
inspect spaces, and export plot data.

Verbs:
  solve         run the Newton-Galerkin solver and write a convergence table
  mesh validate check a mesh file against the structural conditions
  mesh refine   uniformly refine a mesh file
  space info    print determining-set dimension and category counts
  export plot   sample a saved solution on a lattice for contour plotting
"""

import argparse
import dataclasses
import json
import logging
import sys

import numpy as np

from . import assembly as asm
from . import solver as sol
from .geometry import GeometryError
from .mesh import MeshError, load_mesh, refine_uniform, save_mesh
from .problems import PROBLEM_IDS, builtin_domain, builtin_problem
from .space import SpaceError, build_space, load_spline, save_spline

_CONFIG_KEYS = (
    "problem", "mesh", "g_expr", "levels", "output",
    "save_solution", "dump_matrix", "report_json",
)


_COLUMNS = ("level", "L2", "L2_rate", "H1", "H1_rate", "H2", "H2_rate",
            "R", "R_rate", "m")


def _cell(col, value):
    """Text of one table cell: counts as is, rates with 2 decimals, norms
    in 6-digit scientific notation, missing values empty."""
    if value is None:
        return ""
    if col in ("level", "m"):
        return str(value)
    if col.endswith("_rate"):
        return f"{value:.2f}"
    return f"{value:.6e}"


def convergence_rows(reports, use_exact):
    """Table rows (dicts) in the layout of the convergence tables: exact
    errors and their rates when use_exact, eps errors and eps rates
    otherwise."""
    rows = []
    init = reports[0]
    rows.append({
        "level": "init",
        "L2": init.init_errors[0] if init.init_errors else None,
        "H1": init.init_errors[1] if init.init_errors else None,
        "H2": init.init_errors[2] if init.init_errors else None,
        "L2_rate": None, "H1_rate": None, "H2_rate": None,
        "R": init.init_residual, "R_rate": None, "m": None,
    })
    for rep in reports:
        errs = rep.errors if use_exact else rep.eps_errors
        rates = rep.rates if use_exact else rep.eps_rates
        row = {"level": rep.level, "R": rep.residual, "m": rep.iterations,
               "R_rate": rep.rates.get("R")}
        for k, key in enumerate(("L2", "H1", "H2")):
            row[key] = errs[k] if errs else None
            row[f"{key}_rate"] = rates.get(key)
        rows.append(row)
    return rows


def write_csv(rows, path):
    lines = [",".join(_COLUMNS)]
    for row in rows:
        lines.append(",".join(_cell(c, row.get(c)) for c in _COLUMNS))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def print_table(rows):
    widths = {c: max(len(c), 12 if not c.endswith("rate") and c != "level"
                     and c != "m" else 7) for c in _COLUMNS}
    head = " ".join(c.rjust(widths[c]) for c in _COLUMNS)
    print(head)
    print("-" * len(head))
    for row in rows:
        print(" ".join(_cell(c, row.get(c)).rjust(widths[c]) for c in _COLUMNS))


def _custom_g(expr):
    """Compile a g(x1, x2) expression over a restricted numpy namespace.
    A syntax error, or a value at a probe point that is not a number,
    is a ValueError; non-finite values are left to the solver's check of
    g at the quadrature points, so g evaluates without numpy warnings."""
    allowed = {name: getattr(np, name) for name in
               ("exp", "sin", "cos", "tan", "sqrt", "abs", "log", "pi", "e",
                "cosh", "sinh", "tanh", "arctan", "minimum", "maximum")}
    try:
        code = compile(expr, "<g-expr>", "eval")
    except SyntaxError as exc:
        raise ValueError(f"--g-expr {expr!r} is not an expression: {exc.msg}") from exc
    for name in code.co_names:
        if name not in allowed and name not in ("x1", "x2"):
            raise ValueError(f"name {name!r} not allowed in --g-expr")

    def g(pts):
        pts = np.asarray(pts, dtype=float)
        env = dict(allowed, x1=pts[..., 0], x2=pts[..., 1])
        with np.errstate(all="ignore"):
            vals = eval(code, {"__builtins__": {}}, env)
        return np.broadcast_to(np.asarray(vals, dtype=float),
                               pts.shape[:-1]).copy()

    try:
        g(np.zeros((1, 2)))
    except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
        raise ValueError(f"--g-expr {expr!r} does not evaluate to numbers: {exc}") from exc
    return g


def write_report_json(reports, path):
    """Every field of each level's LevelReport, one JSON object per level,
    as a list in level order."""
    def plain(x):    # numpy scalars and arrays as Python numbers and lists
        if isinstance(x, (np.generic, np.ndarray)):
            return x.tolist()
        raise TypeError(f"{type(x).__name__} in a level report")

    with open(path, "w") as f:
        json.dump([dataclasses.asdict(rep) for rep in reports], f, indent=1,
                  default=plain)


def cmd_solve(args):
    if args.verbose:
        logging.basicConfig(format="%(message)s")
        logging.getLogger("conicfem").setLevel(logging.INFO)
    if args.problem == "custom":
        mesh = load_mesh(args.mesh)
        prob = sol.MongeAmpereProblem(mesh.domain, mesh, _custom_g(args.g_expr),
                                      name="custom")
    else:
        prob = builtin_problem(args.problem)
    reports, u = sol.multilevel_run(prob, args.levels)
    rows = convergence_rows(reports, use_exact=prob.exact is not None)
    print_table(rows)
    if args.output:
        write_csv(rows, args.output)
        print(f"wrote {args.output}")
    if args.report_json:
        write_report_json(reports, args.report_json)
        print(f"wrote {args.report_json}")
    if args.save_solution:
        save_spline(u, args.save_solution)
        print(f"wrote {args.save_solution}")
    if args.dump_matrix:
        quad = asm.TriangleQuadrature(u.space)
        A, _, _ = sol.linearize_ma(u, prob.g, quad)
        from scipy.io import mmwrite
        mmwrite(args.dump_matrix, asm.assemble(A, quad))
        print(f"wrote {args.dump_matrix}")
    if any(r.diverged for r in reports):
        print("warning: Newton iteration diverged on some level (step cap hit "
              "or four growing corrections)", file=sys.stderr)
        return 2
    return 0


def cmd_mesh_validate(args):
    mesh = load_mesh(args.path)
    kinds = {k: int(np.count_nonzero(mesh.tri_kind == k)) for k in ("ordinary", "buffer", "pie")}
    print(f"OK: {mesh.n_vertices} vertices, {mesh.n_triangles} triangles "
          f"({kinds['ordinary']} ordinary, {kinds['buffer']} buffer, "
          f"{kinds['pie']} pie), level {mesh.level}")
    return 0


def cmd_mesh_refine(args):
    mesh = load_mesh(args.path)
    for _ in range(args.levels):
        mesh = refine_uniform(mesh)
    save_mesh(mesh, args.output)
    print(f"wrote {args.output} ({mesh.n_triangles} triangles)")
    return 0


def cmd_space_info(args):
    mesh = builtin_domain(args.problem)[1] if args.problem else load_mesh(args.path)
    for _ in range(args.levels - 1):
        mesh = refine_uniform(mesh)
    space = build_space(mesh)
    print(f"dimension: {space.dimension}")
    for cat, n in space.mds.counts.items():
        print(f"  {cat}: {n}")
    print(f"propagation fill defect: {space.fill_defect:.3e}")
    return 0


def cmd_export_plot(args):
    """Values of the saved solution on the grid x grid lattice over its
    mesh's bounding box, row by row; points outside the domain are left
    out."""
    u = load_spline(args.solution)
    n = args.grid
    verts = u.space.mesh.vertices
    lo = verts.min(axis=0)
    hi = verts.max(axis=0)
    xs, ys = np.linspace(lo[0], hi[0], n), np.linspace(lo[1], hi[1], n)
    pts = np.column_stack([np.tile(xs, n), np.repeat(ys, n)])
    tris = u.space.locate(pts)
    pts = pts[tris >= 0]
    vals = u.evaluate(pts, tris[tris >= 0], order=0)[0]
    lines = ["x,y,value"]
    lines += [f"{x:.8e},{y:.8e},{v:.8e}" for (x, y), v in zip(pts, vals)]
    with open(args.output, "w") as f:
        f.write("\n".join(lines) + "\n")
    print(f"wrote {args.output}")
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="conicfem", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="run a built-in or custom problem")
    ps.add_argument("--problem", default="disk",
                    choices=tuple(PROBLEM_IDS) + ("custom",))
    ps.add_argument("--mesh", help="mesh file with embedded domain "
                                   "(--problem custom)")
    ps.add_argument("--g-expr", help="expression in x1, x2 for the datum g "
                                     "(--problem custom)")
    ps.add_argument("--levels", type=int, default=3)
    ps.add_argument("--output", help="CSV output path")
    ps.add_argument("--save-solution", help="save final-level spline (JSON)")
    ps.add_argument("--dump-matrix", help="Matrix Market dump of the final "
                                          "linearized system")
    ps.add_argument("--report-json", help="JSON of every level's report "
                                          "(errors, timings, solver facts)")
    ps.add_argument("--verbose", action="store_true",
                    help="log one line per level to stderr")
    ps.add_argument("--config", help="JSON file with defaults for the flags")
    ps.set_defaults(fn=cmd_solve)

    pm = sub.add_parser("mesh", help="mesh utilities")
    msub = pm.add_subparsers(dest="mesh_command", required=True)
    pv = msub.add_parser("validate")
    pv.add_argument("path")
    pv.set_defaults(fn=cmd_mesh_validate)
    pr = msub.add_parser("refine")
    pr.add_argument("path")
    pr.add_argument("--levels", type=int, default=1)
    pr.add_argument("--output", required=True)
    pr.set_defaults(fn=cmd_mesh_refine)

    pi = sub.add_parser("space", help="space utilities")
    ssub = pi.add_subparsers(dest="space_command", required=True)
    si = ssub.add_parser("info")
    si.add_argument("path", nargs="?")
    si.add_argument("--problem", choices=PROBLEM_IDS)
    si.add_argument("--levels", type=int, default=1)
    si.set_defaults(fn=cmd_space_info)

    pe = sub.add_parser("export", help="export utilities")
    esub = pe.add_subparsers(dest="export_command", required=True)
    ep = esub.add_parser("plot")
    ep.add_argument("--solution", required=True)
    ep.add_argument("--grid", type=int, default=81)
    ep.add_argument("--output", required=True)
    ep.set_defaults(fn=cmd_export_plot)
    return p


def main(argv=None):
    parser = build_parser()
    argv = list(argv if argv is not None else sys.argv[1:])
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        try:
            with open(args.config) as f:
                conf = json.load(f)
        except (OSError, ValueError) as exc:
            parser.error(f"--config {args.config}: {exc}")
        if not isinstance(conf, dict):
            parser.error(f"--config {args.config} must hold a JSON object")
        unknown = [k for k in conf if k.replace("-", "_") not in _CONFIG_KEYS]
        if unknown:
            parser.error(f"unknown --config key(s): {', '.join(unknown)}")
        # each value is parsed as its flag's text, placed right after the
        # subcommand, so argparse checks its type and choices and a flag
        # of the command line, given later, wins; null keeps the default
        extra = [f"--{key.replace('_', '-')}={val}" for key, val in conf.items()
                 if val is not None]
        at = argv.index(args.command) + 1
        args = parser.parse_args(argv[:at] + extra + argv[at:])
    if args.fn in (cmd_solve, cmd_space_info) and args.levels < 1:
        parser.error("levels must be >= 1")
    if args.fn is cmd_mesh_refine and args.levels < 0:
        parser.error("levels must be >= 0")
    if args.fn is cmd_export_plot and args.grid < 2:
        parser.error("--grid must be >= 2")
    if args.fn is cmd_solve and args.problem != "custom" and (args.mesh or args.g_expr):
        parser.error("--mesh and --g-expr need --problem custom")
    if args.fn is cmd_solve and args.problem == "custom" and not (args.mesh and args.g_expr):
        parser.error("--problem custom requires --mesh and --g-expr")
    if args.fn is cmd_space_info and not (args.problem or args.path):
        parser.error("space info needs a mesh file or --problem")
    if args.fn is cmd_space_info and args.problem and args.path:
        parser.error("space info takes a mesh file or --problem, not both")
    try:
        return args.fn(args)
    except (MeshError, GeometryError, SpaceError, asm.AssemblyError,
            asm.SolverError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
