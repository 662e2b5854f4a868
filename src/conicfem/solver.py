"""Newton-Galerkin solver for the Monge-Ampere equation.

Solves det(Hessian u) = g with homogeneous Dirichlet data by Newton's
method, where each linearized problem is solved by the C1 Galerkin
method: the linearization of u -> det(Hessian u) - g at u_k acts on a
correction w as cof(Hessian u_k) : Hessian w, and since the cofactor of
a Hessian field of a C1 function is row-wise divergence free with
edge-continuous normal flux, the correction solves

    int grad(w) . cof(Hessian u_k) grad(v) = -(det(Hessian u_k) - g, v)

for all test splines v.  The first level starts from the Galerkin
solution of the Poisson problem laplace(u) = 2 sqrt(g); refined levels
start from a quasi-interpolant of the previous level's last iterate.
"""

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from . import assembly as asm
from . import bernstein as bb
from .mesh import ORDINARY, PIE, refine_uniform
from .space import build_space, quintic_reduction

log = logging.getLogger(__name__)


@dataclass
class MongeAmpereProblem:
    """det(Hessian u) = g > 0 on a conic-bounded domain, u = 0 on the boundary.

    g maps (n,2) point arrays to positive values; exact, when available,
    is a (value, gradient, hessian) triple of callables used for error
    tables.  Only homogeneous boundary data is supported.
    """

    domain: object
    initial_mesh: object
    g: object
    exact: tuple = None
    name: str = "monge-ampere"


@dataclass
class NewtonState:
    spline: object
    iterations: int
    update_norms: list
    diverged: bool = False
    solver: dict = field(default_factory=dict)     # see LevelReport.solver


@dataclass
class LevelReport:
    level: int
    dimension: int
    iterations: int
    # L2 norms of the applied corrections, one per real Newton step; the
    # last one is the frozen-factor correction that stopped the level
    # (unless a real correction stopped it, see run_level)
    update_norms: list
    residual: float
    errors: tuple = None        # vs exact solution, (L2, H1, H2)
    eps_errors: tuple = None    # vs next level, (L2, H1, H2)
    rates: dict = field(default_factory=dict)       # of errors, and "R"
    eps_rates: dict = field(default_factory=dict)   # of eps_errors
    # least Hessian eigenvalue over all iterates linearized at: below 0 at
    # the start of some converging levels (ellipse-sin L1 -9.80e-2, Poisson
    # guess; c2-domain L2 -4.00e-1, transfer guess; next step 0.455, 0.393);
    # at any later iterate, eigmin <= 0 stops the level with a SolverError
    hessian_eigmin: float = None
    diverged: bool = False
    init_errors: tuple = None
    init_residual: float = None
    # perf_counter seconds of the level's phases: refine (building its
    # mesh, 0.0 on level 1), space, quad, transfer (the initial iterate:
    # Poisson solve on level 1), newton, norms (residual, errors, init
    # norms and the previous level's eps errors)
    timings: dict = field(default_factory=dict)
    # facts of the level's Newton solves (see NewtonSolves): the largest matrix
    # "nnz", "lu_fill" (Factors.lu_fill: the nonzeros of the factors, which
    # SuperLU stores without padding), "lu_mb" (the MB, 2**20 bytes, of those
    # float32 values) and "rel_residual"; the counts of "factorizations" (1 +
    # "refactorizations", the fresh factorizations after CG failed) and
    # "frozen_solves" (solves with the level's factors, one per real step);
    # "krylov_iters", the CG iterations of each real step after the first (on
    # its own matrix, preconditioned by the level's factors; a solve that
    # failed and fell back to a fresh factorization too); "rel_residual" is at
    # most the one tolerance of assembly.Factors.solve (1e-7) by design;
    # "frozen_iters", the CG iterations of each solve of a factored matrix
    # itself, in order: a factorization's first solve and each frozen solve
    # (NewtonSolves.frozen), each count one Factors.solve within
    # KRYLOV_MAXITER; the "newton_floor" (the roundoff floor at the final
    # iterate, see newton_floor) and the "stop_ratio" (the last correction over
    # the threshold STOP_MARGIN * newton_floor it passed); the "fill_defect" of
    # the level's space; "quad_mb", the MB (2**20 bytes) of its quadrature data
    # (TriangleQuadrature.nbytes); and "plan_mb", the MB of its assembly plan
    # (ScatterPlan.nbytes)
    solver: dict = field(default_factory=dict)


class LevelContext:
    """Space + quadrature of one refinement level."""

    def __init__(self, mesh):
        self.mesh = mesh
        start = time.perf_counter()
        self.space = build_space(mesh)
        built = time.perf_counter()
        self.quad = asm.TriangleQuadrature(self.space)
        self.timings = {"space": built - start,
                        "quad": time.perf_counter() - built}


def _check_positive_g(problem, ctx):
    for ch in ctx.quad.chunks:
        g = ch.at_nodes(problem.g)
        if not np.all(np.isfinite(g) & (g > 0.0)):
            raise ValueError("datum g must be finite and positive at all quadrature points")


def linearize_ma(u, g, quad):
    """Coefficient fields (A, f, eigmin) of one Newton step at the iterate
    u, tabulated per chunk of quad: A is the cofactor of the spline's
    Hessian in BB form (the chunk's coefficient_shape: on each triangle
    the degree-(d - 2) coefficients that bernstein.frame_coefficients
    gives the Hessian) and f the current residual det(Hessian) - g at the
    quadrature nodes.  eigmin is the minimum eigenvalue of the cofactor
    over all quadrature points (the ellipticity monitor; for 2x2
    cofactors these are exactly the Hessian eigenvalues).  The nodal
    Hessians of f and eigmin are the Hessian's coefficients evaluated by
    the chunk's degree-(d - 2) Bernstein matrices."""
    cof_tab = {}
    res_tab = {}
    eigmin = np.inf
    for ch in quad.chunks:
        cxx, cxy, cyy = bb.frame_coefficients(ch.degree, u.pieces(ch.Z, ch.cols), ch.M)[2]
        cof = np.empty(ch.coefficient_shape)
        cof[..., 0, 0], cof[..., 1, 1] = cyy[..., 0], cxx[..., 0]
        cof[..., 0, 1] = cof[..., 1, 0] = -cxy[..., 0]
        cof_tab[ch] = cof
        hxx, hxy, hyy = ((ch.B[ch.degree - 2] @ c)[..., 0] for c in (cxx, cxy, cyy))
        res_tab[ch] = asm.hessian_det(hxx, hxy, hyy) - ch.at_nodes(g)
        half_tr = 0.5 * (hxx + hyy)
        rad = np.sqrt((0.5 * (hxx - hyy)) ** 2 + hxy ** 2)
        eigmin = min(eigmin, float((half_tr - rad).min()))
    return cof_tab.__getitem__, res_tab.__getitem__, eigmin


def poisson_initial_guess(ctx, g):
    """Galerkin solution of laplace(u) = 2 sqrt(g) with zero boundary values."""
    matrix = asm.assemble(asm.constant_matrix(np.eye(2)), ctx.quad)
    rhs = asm.assemble_rhs(asm.pointwise(lambda pts: 2.0 * np.sqrt(np.asarray(g(pts)))),
                           ctx.quad)
    result = asm.solve_sparse(asm.SparseSystem(matrix, -rhs))
    return ctx.space.spline(result.dofs)


# The stop rule of run_level.  A correction below the floor NEWTON_FLOOR *
# eps * |u| is roundoff.  A level stops on a correction below STOP_MARGIN
# times that floor, its only threshold: scaling g by c^2 scales u by c and
# keeps the Newton counts.  Measured with the level's factors, every solve by
# CG to the tolerance of assembly.Factors.solve, in runs of levels 1-5:
# roundoff-only corrections read up to 1.05x the floor (c2-domain L5; disk
# L5 0.57x, ellipse-exp L5 0.52x, ellipse-sin L5 0.50x; disk L6 0.96x), and
# up to 1.22x on c2-domain L4 under one-ulp changes of its iterate; the
# smallest real correction that must not stop a level is 42.8x (ellipse-sin
# L3; c2-domain L3 54.6x, disk L3 100x).  A margin of 8 leaves 6.5x below it
# and 5.4x above it.  A level runs at most MAX_STEPS real steps.
NEWTON_FLOOR = 100.0
STOP_MARGIN = 8.0
MAX_STEPS = 20


class NewtonSolves:
    """The linear-algebra plan of one level's Newton solves: one live
    factorization, the level's, and the facts of the solves.

    Every solve is assembly.Factors.solve: CG preconditioned by the
    level's factors, under its one tolerance, one cap and one acceptance
    rule.  The first real step factors its matrix, and those factors
    become the level's.
    Later real steps solve their own matrix with the level's factors
    (solve); when that fails, the matrix is factored afresh and its
    factors replace the level's (a refactorization).  Simplified Newton
    corrections solve the factored matrix itself (frozen).  Keeps the
    largest matrix nnz, LU fill, factor MB and relative residual, the
    counts of factorizations, refactorizations and frozen-factor solves,
    and the CG iterations of each real step after the first (krylov_iters,
    a failed one too) and of each solve of a factored matrix itself
    (frozen_iters)."""

    def __init__(self):
        self.nnz = self.lu_fill = self.factorizations = self.refactorizations = 0
        self.frozen_solves = 0
        self.lu_mb = 0.0
        self.krylov_iters = []
        self.frozen_iters = []
        self.rel_residual = 0.0
        self.factors = None

    def solve(self, matrix, rhs):
        """The SolveResult of a real step's system matrix x = rhs."""
        self.nnz = max(self.nnz, matrix.nnz)
        if self.factors is not None:
            try:
                result = self.factors.solve(rhs, matrix)
            except asm.SolverError as exc:
                self.krylov_iters.append(exc.iterations)
                self.refactorizations += 1
                self.factors = None     # released before the next factorization
            else:
                self.krylov_iters.append(result.iterations)
                self.rel_residual = max(self.rel_residual, result.rel_residual)
                return result
        result = asm.solve_sparse(asm.SparseSystem(matrix, rhs))
        self.factorizations += 1
        self.lu_fill = max(self.lu_fill, result.factors.lu_fill)
        self.lu_mb = max(self.lu_mb, result.factors.lu_mb)
        self.frozen_iters.append(result.iterations)
        self.rel_residual = max(self.rel_residual, result.rel_residual)
        self.factors, result.factors = result.factors, None
        return result

    def frozen(self, rhs):
        """The SolveResult of the level's factored matrix x = rhs."""
        result = self.factors.solve(rhs)
        self.frozen_solves += 1
        self.frozen_iters.append(result.iterations)
        self.rel_residual = max(self.rel_residual, result.rel_residual)
        return result

    def facts(self):
        return {"nnz": self.nnz, "lu_fill": self.lu_fill, "lu_mb": self.lu_mb,
                "rel_residual": self.rel_residual,
                "factorizations": self.factorizations,
                "refactorizations": self.refactorizations,
                "krylov_iters": list(self.krylov_iters),
                "frozen_iters": list(self.frozen_iters),
                "frozen_solves": self.frozen_solves}


def newton_rhs(ctx, u, g):
    """The linearization at u and the right-hand side of its Galerkin
    system: (A, eigmin, rhs), see linearize_ma."""
    A, f, eigmin = linearize_ma(u, g, ctx.quad)
    return A, eigmin, asm.assemble_rhs(f, ctx.quad)


def _corrected(ctx, u, dofs):
    """(u - w, L2 norm of w) for the correction w with the given dofs."""
    w = ctx.space.spline(dofs)
    return ctx.space.spline(u.dofs - w.dofs), asm.l2_norm(w, ctx.quad)


def newton_step(ctx, u, linearized, solves):
    """One real Newton step at u: assemble the matrix of linearized (the
    newton_rhs of u) and solve its system through solves, the level's
    NewtonSolves.  Returns (new iterate, L2 norm of the correction)."""
    A, _, rhs = linearized
    result = solves.solve(asm.assemble(A, ctx.quad), -rhs)
    return _corrected(ctx, u, result.dofs)


def newton_floor(u, quad):
    """The roundoff floor NEWTON_FLOOR * eps * |u|_L2 of a Newton
    correction that gave the iterate u; the stop threshold is STOP_MARGIN
    times it."""
    return NEWTON_FLOOR * np.finfo(float).eps * asm.l2_norm(u, quad)


def run_level(ctx, g, u0):
    """Newton iteration on one level, stopped by the termination test of
    Deuflhard's error-oriented Newton code NLEQ-ERR (P. Deuflhard, Newton
    Methods for Nonlinear Problems, Springer 2004, sec. 2.1).

    u0 is linearized before the first step, and every later iterate once,
    after the real step that made it.  Each real step (newton_step)
    assembles the matrix of the latest linearization and solves it through
    the level's NewtonSolves: the first real step factors its matrix, and
    later ones solve theirs by CG preconditioned with those factors, so a
    level makes one factorization unless CG falls back to a fresh one.
    The right-hand side of the linearization at the new iterate is solved
    with the level's factored matrix (NewtonSolves.frozen): the
    simplified Newton correction.  It differs from the full correction
    by O(|previous correction| * |correction|), and by the change of the
    matrix since the level's factorization.  When it is below STOP_MARGIN
    times newton_floor of the corrected iterate it is applied and the
    level stops; otherwise the next real step assembles its matrix from
    that same linearization.  Every solve asks CG for the one tolerance of
    assembly.Factors.solve.  A real correction below the threshold also stops
    the level.  At most MAX_STEPS real steps run; four growing corrections in
    a row count as divergence.  The level's factors live in its NewtonSolves,
    so they are released when it returns.

    Every iterate after the starting one must be strictly convex (Hessian
    eigmin > 0 at all quadrature nodes), or the linearization is not
    elliptic and SolverError names the level and the iterate; the eigmin
    returned is the least over the linearizations.  The reported
    iteration count is the number of real steps, less a final real
    correction that passed the stop rule unless it is the only one: the
    convention of the reference convergence tables.
    """
    solves = NewtonSolves()
    u, norms = u0, []
    linearized = newton_rhs(ctx, u0, g)
    eigmin = linearized[1]
    stopped_by = None
    for k in range(1, MAX_STEPS + 1):
        u, n = newton_step(ctx, u, linearized, solves)
        norms.append(n)
        floor = newton_floor(u, ctx.quad)
        if n < STOP_MARGIN * floor:
            stopped_by = "real"
            break
        if len(norms) >= 4 and norms[-1] > norms[-2] > norms[-3] > norms[-4]:
            break
        linearized = newton_rhs(ctx, u, g)
        e = linearized[1]
        eigmin = min(eigmin, e)
        if not e > 0.0:
            raise asm.SolverError(
                f"level {ctx.mesh.level}: Newton iterate {k} is not convex "
                f"(least Hessian eigenvalue {e:.3e}), so its linearization "
                "is not elliptic")
        u_next, n_next = _corrected(ctx, u, solves.frozen(-linearized[2]).dofs)
        floor_next = newton_floor(u_next, ctx.quad)
        if n_next < STOP_MARGIN * floor_next:
            u, n, floor = u_next, n_next, floor_next
            norms.append(n)
            stopped_by = "frozen"
            break
    m = k - 1 if stopped_by == "real" and k > 1 else k
    facts = dict(solves.facts(), newton_floor=float(floor),
                 stop_ratio=float(n / (STOP_MARGIN * floor)))
    state = NewtonState(u, m, norms, stopped_by is None, facts)
    return state, eigmin


@dataclass
class CoarseOnFine:
    """A coarse spline written in the BB basis of each triangle of the next,
    uniformly refined level (the parent's piece re-expanded on the child).

    Arrays over the fine triangles: degree (n,), the parent's degree (never
    below the child's: every boundary fan is pie-buffer-pie, so ordinary
    triangles have ordinary children), and two (n, 28) tables, row t
    zero-padded: exact, the parent's piece, and stored, the fine stored
    form of it (see SplineSpace.extract_dofs): the parent's factor times
    the ratio of the pie scales on pies, since s = p_c q / scale_c = p_f q
    / scale_f; on ordinary children of degree-6 parents the
    quintic_reduction of the exact piece; the exact piece elsewhere.
    """

    degree: np.ndarray
    exact: np.ndarray
    stored: np.ndarray


def coarse_on_fine(u_coarse, fine_space):
    """Re-expand every piece of a coarse spline on its fine children, one
    coarse map group and fine triangle kind at a time."""
    mesh_f = fine_space.mesh
    if mesh_f.parents is None:
        raise ValueError("fine mesh does not record its parent triangles")
    space_c = u_coarse.space
    mesh_c = space_c.mesh
    parents = mesh_f.parents
    S = bb.barycentric_many(mesh_c.vertices[mesh_c.tri_verts[parents]],
                            mesh_f.vertices[mesh_f.tri_verts])
    kinds = mesh_f.tri_kind
    if ((kinds == PIE) & (mesh_c.tri_kind[parents] != PIE)).any():
        raise ValueError("pie triangle refined from a non-pie parent")
    degree = np.empty(mesh_f.n_triangles, dtype=np.int64)
    exact, stored = np.zeros((2, mesh_f.n_triangles, bb.n_coeffs(6)))
    for grp in space_c.groups:
        children = np.flatnonzero(np.isin(parents, grp.tris))
        rows = np.searchsorted(grp.tris, parents[children])
        degree[children] = grp.degree
        C = u_coarse.pieces(grp.Z, grp.cols)[:, :, 0]
        for kind in np.unique(kinds[children]).tolist():
            of_kind = kinds[children] == kind
            idx, r = children[of_kind], rows[of_kind]
            e = bb.reexpand(grp.degree, C[r], S[idx])
            exact[idx, :e.shape[1]] = e
            if kind == PIE:
                F = u_coarse.pieces(grp.stored, grp.cols)[r, :, 0]
                ratio = fine_space.pie_scale[idx] / space_c.pie_scale[parents[idx]]
                e = ratio[:, None] * bb.reexpand(4, F, S[idx])
            elif kind == ORDINARY and grp.degree == 6:
                e = e @ quintic_reduction().T
            stored[idx, :e.shape[1]] = e
    return CoarseOnFine(degree, exact, stored)


def transfer_guess(coarse, fine_space):
    """Quasi-interpolant of a coarse spline in the next level's space: the
    fine determining functionals applied to the coarse spline in the fine
    stored form (coarse.stored of its CoarseOnFine)."""
    return fine_space.spline(fine_space.extract_dofs(coarse.stored))


def multilevel_run(problem, levels):
    """Newton-Galerkin runs on a hierarchy of uniformly refined meshes.

    Returns the list of LevelReports (with consecutive-level eps errors
    and rates filled in) and the final-level solution spline.  Each level
    logs one INFO line.
    """
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    reports = []
    meshes = [problem.initial_mesh]
    refine_s = [0.0]
    for _ in range(levels - 1):
        start = time.perf_counter()
        meshes.append(refine_uniform(meshes[-1]))
        refine_s.append(time.perf_counter() - start)

    prev_u = None
    prev_report = None
    u = None
    for lev, mesh in enumerate(meshes, start=1):
        ctx = LevelContext(mesh)
        timings = {"refine": refine_s[lev - 1], **ctx.timings}
        _check_positive_g(problem, ctx)
        start = time.perf_counter()
        if lev == 1:
            u0 = poisson_initial_guess(ctx, problem.g)
        else:
            coarse = coarse_on_fine(prev_u, ctx.space)
            u0 = transfer_guess(coarse, ctx.space)
        timings["transfer"] = time.perf_counter() - start
        start = time.perf_counter()
        state, eigmin = run_level(ctx, problem.g, u0)
        timings["newton"] = time.perf_counter() - start
        start = time.perf_counter()
        init_res = init_err = None
        if lev == 1:
            init_res = asm.residual_norm(u0, ctx.quad, problem.g)
            if problem.exact is not None:
                init_err = asm.error_norms(u0, ctx.quad, ref=problem.exact)
        u = state.spline
        rep = LevelReport(
            level=lev,
            dimension=ctx.space.dimension,
            iterations=state.iterations,
            update_norms=state.update_norms,
            residual=asm.residual_norm(u, ctx.quad, problem.g),
            hessian_eigmin=eigmin,
            diverged=state.diverged,
            init_errors=init_err,
            init_residual=init_res,
            timings=timings,
            solver=dict(state.solver, fill_defect=ctx.space.fill_defect,
                        quad_mb=ctx.quad.nbytes / 2**20,
                        plan_mb=ctx.quad.scatter.nbytes / 2**20),
        )
        if problem.exact is not None:
            rep.errors = asm.error_norms(u, ctx.quad, ref=problem.exact)
        if prev_report is not None:
            # difference of consecutive-level solutions on the finer
            # quadrature: the coarse pieces re-expanded on the fine
            # triangles are subtracted coefficient by coefficient
            prev_report.eps_errors = asm.error_norms(u, ctx.quad, coarse=coarse)
        timings["norms"] = time.perf_counter() - start
        log.info("level %d: dim=%d m=%d factorizations=%d refactorizations=%d "
                 "krylov_iters=%s R=%.3e updates=%s lu_mb=%.2f frozen_iters=%s",
                 lev, rep.dimension, rep.iterations, rep.solver["factorizations"],
                 rep.solver["refactorizations"], rep.solver["krylov_iters"],
                 rep.residual, ["%.1e" % n for n in rep.update_norms],
                 rep.solver["lu_mb"], rep.solver["frozen_iters"])
        reports.append(rep)
        prev_u, prev_report = u, rep
        # the next level's transfer needs prev_u alone: release this
        # level's quadrature and plan before the next space is built
        ctx = coarse = None

    _fill_rates(reports)
    return reports, u


def _rate(a, b):
    """log2(a / b), or None unless both are positive."""
    return float(np.log2(a / b)) if a and b and a > 0 and b > 0 else None


def _fill_rates(reports):
    """Rates between consecutive levels: `rates` of the exact errors (when
    known) and of the residual "R", `eps_rates` of the eps errors."""
    for prev, rep in zip(reports, reports[1:]):
        for rates, a, b in ((rep.rates, prev.errors, rep.errors),
                            (rep.eps_rates, prev.eps_errors, rep.eps_errors)):
            if a and b:
                for name, x, y in zip(("L2", "H1", "H2"), a, b):
                    rates[name] = _rate(x, y)
        rep.rates["R"] = _rate(prev.residual, rep.residual)
