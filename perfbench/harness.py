"""The conicfem benchmark: Newton-Galerkin convergence studies, timed.

A run is closed-loop and single-process: one pass at a time, no threads
of the benchmark's own.  Each workload has two kinds of pass:

- the set-up pass builds the discretization, which does not depend on
  the datum g: ``problems.builtin_domain``, ``mesh.refine_uniform`` up
  to the finest level, and ``solver.LevelContext`` (space plus
  quadrature) at every level the study uses;
- the study pass is one ``solver.multilevel_run`` call, which is what
  ``conicfem solve`` runs.

Every pass is checked against ``reference.json``, the convergence rows
recorded at the seed commit; a pass that disagrees or raises counts as
failed.  Untraced runs report ``study_s``, ``setup_s`` (medians over the
passes of the run) and ``peak_rss_mb``.  Traced runs wrap the package's
public names (see ``spans.Tracer``) and report per-layer self times,
call counts and solver facts, plus an estimate of the tracing overhead.

The inputs are the shipped meshes, so every seed gives the same inputs;
the seed is only recorded with the result.
"""

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from conicfem import mesh, problems, solver

from spans import Tracer, call_cost

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
PACKAGE = "conicfem"

SETUP_PASSES = 5
MIN_STUDY_PASSES = 3

# Tolerances of the reference check.  Single-level and multilevel solves
# of the disk at L4 agree to 3e-8 relative, and reordering a sparse solve
# moves errors by far less; a wrong kernel moves them by far more.
RTOL = 1e-6
RATE_ATOL = 1e-5


@dataclass(frozen=True)
class Workload:
    problem: str        # built-in problem id
    start_level: int    # mesh level the study starts from
    levels: int         # levels of the multilevel study

    @property
    def finest(self):
        return self.start_level + self.levels - 1


WORKLOADS = {
    # The paper's headline table: disk, levels 1-4, exact solution known.
    # Coarse-to-fine work (transfer_guess, error_norms) dominates.
    "disk-ml4": Workload("disk", 1, 4),
    # C2 domain refined to L4 in set-up, then one level (dimension 10614,
    # m = 4).  The Newton pieces dominate and transfer makes no calls.
    "c2-l4-newton": Workload("c2-domain", 4, 1),
}

# Traced names, relative to the package.  Study metrics use all of them,
# set-up metrics (prefixed "setup.") the ones the set-up pass calls.
STUDY_NAMES = (
    "solver.multilevel_run",
    "solver.newton_step",
    "solver.linearize_ma",
    "solver.transfer_guess",
    "assembly.assemble",
    "assembly.solve_sparse",
    "assembly.error_norms",
    "assembly.l2_norm",
    "assembly.residual_norm",
    "assembly.TriangleQuadrature",
    "space.build_space",
    "space.SplineSpace.spline",
    "bernstein.design_matrices",
    "bernstein.bernstein_matrix",
    "mesh.refine_uniform",
    "mesh.classify_and_validate",
    "geometry.arc_point_on_ray",
)
SETUP_NAMES = (
    "problems.builtin_domain",
    "mesh.refine_uniform",
    "mesh.classify_and_validate",
    "geometry.arc_point_on_ray",
    "space.build_space",
    "assembly.TriangleQuadrature",
    "bernstein.bernstein_matrix",
)
FACTS = (
    "assembly.nnz",
    "assembly.solve_sparse.max_rel_residual",
    "mesh.triangles",
    "space.dofs",
    "assembly.quad_points",
)


# ---------------------------------------------------------------------------
# passes

def setup_pass(wl):
    """Discretization of a workload.  Returns the domain, the mesh the
    study starts from and the space dimension of each study level."""
    domain, m = problems.builtin_domain(wl.problem)
    meshes = [m]
    while len(meshes) < wl.finest:
        meshes.append(mesh.refine_uniform(meshes[-1]))
    used = meshes[wl.start_level - 1:]
    dims = [solver.LevelContext(m).space.dimension for m in used]
    return domain, used[0], dims


def study_pass(wl, domain, start_mesh):
    """One convergence study; returns its per-level rows."""
    exact = problems.disk_exact_solution() if wl.problem == "disk" else None
    problem = solver.MongeAmpereProblem(
        domain, start_mesh, problems.problem_g(wl.problem), exact=exact,
        name=wl.problem)
    reports, _ = solver.multilevel_run(problem, wl.levels)
    return convergence_rows(reports, use_exact=exact is not None)


def _rate(a, b):
    if a is None or b is None or a <= 0 or b <= 0:
        return None
    return float(np.log2(a / b))


def convergence_rows(reports, use_exact):
    """Per-level rows: dimension, m, exact or eps errors, R and rates.

    Rates are log2 ratios of consecutive rows, computed here rather than
    read from ``LevelReport.rates``, which mixes exact and eps rates."""
    rows = []
    prev = None
    for rep in reports:
        errs = rep.errors if use_exact else rep.eps_errors
        row = {
            "level": rep.level,
            "dimension": rep.dimension,
            "m": rep.iterations,
            "errors": [float(e) for e in errs] if errs else None,
            "R": float(rep.residual),
        }
        row["rates"] = {
            "L2": None, "H1": None, "H2": None,
            "R": _rate(prev["R"], row["R"]) if prev else None,
        }
        if prev and prev["errors"] and row["errors"]:
            for k, key in enumerate(("L2", "H1", "H2")):
                row["rates"][key] = _rate(prev["errors"][k], row["errors"][k])
        rows.append(row)
        prev = row
    return rows


def _close(a, b, rtol=0.0, atol=0.0):
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= atol + rtol * abs(b)


def check_rows(rows, ref, rtol=RTOL, rate_atol=RATE_ATOL):
    """Differences of rows from reference rows; empty when they agree."""
    if len(rows) != len(ref):
        return [f"{len(rows)} levels, reference has {len(ref)}"]
    out = []
    for row, want in zip(rows, ref):
        lev = want["level"]
        for key in ("level", "dimension", "m"):
            if row[key] != want[key]:
                out.append(f"level {lev}: {key} {row[key]} != {want[key]}")
        errs, want_errs = row["errors"], want["errors"]
        if (errs is None) != (want_errs is None):
            out.append(f"level {lev}: errors {errs} != {want_errs}")
        elif errs is not None:
            for name, a, b in zip(("L2", "H1", "H2"), errs, want_errs):
                if not _close(a, b, rtol=rtol):
                    out.append(f"level {lev}: {name} error {a!r} != {b!r}")
        if not _close(row["R"], want["R"], rtol=rtol):
            out.append(f"level {lev}: R {row['R']!r} != {want['R']!r}")
        for name, b in want["rates"].items():
            a = row["rates"].get(name)
            if not _close(a, b, atol=rate_atol):
                out.append(f"level {lev}: {name} rate {a!r} != {b!r}")
    return out


def load_reference():
    return json.loads(REFERENCE.read_text())["workloads"]


# ---------------------------------------------------------------------------
# runs

class Tally:
    """Passes attempted and failed in one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, label, fn, check):
        """Time fn(); check(result) lists disagreements.  Returns
        (seconds, result), with result None when the pass failed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn()
        except Exception:
            traceback.print_exc()
            self.failed += 1
            print(f"{label}: FAILED (raised)", flush=True)
            return None, None
        seconds = time.perf_counter() - start
        problems_found = check(result)
        if problems_found:
            self.failed += 1
            print(f"{label}: FAILED {'; '.join(problems_found)}", flush=True)
            return seconds, None
        print(f"{label}: {seconds:.4f} s", flush=True)
        return seconds, result


def _study_check(ref):
    return lambda rows: check_rows(rows, ref)


def _setup_check(ref):
    dims = [row["dimension"] for row in ref]
    return lambda out: ([] if out[2] == dims
                        else [f"dimensions {out[2]} != {dims}"])


def _median(values):
    if not values:
        raise RuntimeError("no pass of the run succeeded")
    return statistics.median(values)


def _keep_going(began, done, seconds):
    """True while another pass (of the mean length so far) fits in the
    measuring window, or fewer than MIN_STUDY_PASSES passes have run."""
    if done < MIN_STUDY_PASSES:
        return True
    elapsed = time.perf_counter() - began
    return elapsed + elapsed / done <= seconds


def untraced_run(wl, ref, seconds, tally):
    """Set-up passes, then study passes for about `seconds`."""
    setup_times = []
    for i in range(SETUP_PASSES):
        t, out = tally.run(f"setup pass {i + 1}", lambda: setup_pass(wl),
                           _setup_check(ref))
        if out is not None:
            setup_times.append(t)
            domain, start_mesh, _ = out
        gc.collect()
    if not setup_times:
        raise RuntimeError("no set-up pass succeeded")
    study_times = []
    began = time.perf_counter()
    n = 0
    while _keep_going(began, n, seconds):
        n += 1
        t, rows = tally.run(f"study pass {n}",
                            lambda: study_pass(wl, domain, start_mesh),
                            _study_check(ref))
        if rows is not None:
            study_times.append(t)
        gc.collect()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "study_s": (_median(study_times), "s"),
        "setup_s": (_median(setup_times), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def _observers(facts):
    """Counts recorded at layer boundaries of the traced study pass."""
    def solve(args, result):
        facts["assembly.nnz"] = max(facts["assembly.nnz"], args[0].matrix.nnz)
        key = "assembly.solve_sparse.max_rel_residual"
        facts[key] = max(facts[key], float(result.rel_residual))

    def space(args, result):
        facts["space.dofs"] = max(facts["space.dofs"], result.dimension)
        facts["mesh.triangles"] = max(facts["mesh.triangles"],
                                      result.mesh.n_triangles)

    def quadrature(args, result):
        n = sum(len(nodes) for nodes in args[0].nodes)
        facts["assembly.quad_points"] = max(facts["assembly.quad_points"], n)

    return {
        "assembly.solve_sparse": solve,
        "space.build_space": space,
        "assembly.TriangleQuadrature": quadrature,
    }


def _traced(names, fn, observers=None):
    """Run fn() under a tracer; returns (result, tracer)."""
    with Tracer(PACKAGE, names, observers) as tracer:
        result = fn()
    return result, tracer


def traced_run(wl, ref, seconds, tally):
    """A traced set-up pass, then traced study passes for about `seconds`.
    Per-layer values are medians over the traced passes.  trace.overhead_s
    is the number of traced calls of a study pass times the cost of one
    traced call, measured once per run on an empty function."""
    names = STUDY_NAMES + SETUP_NAMES
    (_, out), tracer = _traced(
        names, lambda: tally.run("traced setup pass", lambda: setup_pass(wl),
                                 _setup_check(ref)))
    if out is None:
        raise RuntimeError("the set-up pass failed")
    domain, start_mesh, _ = out
    samples = {}

    def add(key, value, unit):
        samples.setdefault(key, ([], unit))[0].append(value)

    for name in SETUP_NAMES:
        add(f"setup.{name}.self_s", tracer.self_s[name], "s")
        add(f"setup.{name}.calls", tracer.calls[name], "count")
    absent = set(tracer.absent)
    cost = call_cost()
    gc.collect()

    began = time.perf_counter()
    n = 0
    while _keep_going(began, n, seconds):
        n += 1
        facts = dict.fromkeys(FACTS, 0)
        (t, rows), tracer = _traced(
            names, lambda: tally.run(f"traced study pass {n}",
                                     lambda: study_pass(wl, domain, start_mesh),
                                     _study_check(ref)),
            _observers(facts))
        absent.update(tracer.absent)
        gc.collect()
        if rows is None:
            continue
        add("trace.study_s", t, "s")
        add("trace.overhead_s", sum(tracer.calls.values()) * cost, "s")
        for name in STUDY_NAMES:
            add(f"{name}.self_s", tracer.self_s[name], "s")
            add(f"{name}.total_s", tracer.total_s[name], "s")
            add(f"{name}.calls", tracer.calls[name], "count")
        steps = tracer.calls["solver.newton_step"]
        add("solver.newton_useful_ratio",
            sum(row["m"] for row in rows) / steps if steps else 0.0, "ratio")
        for key in FACTS:
            add(key, facts[key], "ratio" if key.endswith("residual") else "count")

    if "trace.study_s" not in samples:
        raise RuntimeError("no traced study pass succeeded")
    if absent:
        print(f"absent: {sorted(absent)}", flush=True)
    return {key: (statistics.median(values), unit)
            for key, (values, unit) in samples.items()}


# ---------------------------------------------------------------------------
# environment

def _blas_threads():
    """Thread counts of the OpenBLAS builds numpy and scipy load."""
    out = {}
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*")):
            try:
                handle = ctypes.CDLL(str(lib))
            except OSError:
                continue
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    out[pkg.__name__] = fn()
                    break
    return out or {"env": os.environ.get("OPENBLAS_NUM_THREADS")}


def _cache_sizes():
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            out[f"L{level}{kind[0].lower()}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return out


def environment():
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "caches": _cache_sizes(),
    }


# ---------------------------------------------------------------------------
# entry point

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    ref = load_reference()[args.workload]
    tally = Tally()
    run = traced_run if args.trace else untraced_run
    metrics = run(wl, ref, args.seconds, tally)
    print("env " + json.dumps(dict(environment(), workload=args.workload,
                                   seed=args.seed, trace=args.trace)))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0
