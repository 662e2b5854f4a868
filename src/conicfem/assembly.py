"""Quadrature, Galerkin assembly, Sobolev error norms and sparse solves.

Straight triangles use a fixed reference rule of polynomial exactness 16
(collapsed Gauss-Jacobi x Gauss-Legendre).  Pie triangles use a 12x12
tensor Gauss rule through a radial blending map whose far edge is pushed
onto the boundary arc by per-node ray intersection, with exact Jacobians,
so the curved geometry enters the integrals without any polynomial
approximation of the boundary.

Assembly works on chunks of triangles of one kind and sums the local
contributions in mesh order (deterministic by construction); rules and
maps are immutable and shareable across threads.
"""

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla
from scipy.special import roots_jacobi, roots_legendre

from . import bernstein as bb
from .geometry import arc_point_on_ray, grad_conic
from .mesh import ORDINARY, PIE


class AssemblyError(RuntimeError):
    pass


class SolverError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# reference rule on straight triangles

@dataclass(frozen=True)
class QuadratureRule:
    """Barycentric nodes and weights on the reference triangle.

    Weights sum to one, so the integral over a physical triangle T is
    area(T) * sum(w * f(nodes)).
    """

    degree: int
    bary: np.ndarray
    weights: np.ndarray


def triangle_rule(degree=16):
    """Rule of the requested polynomial exactness via a collapsed tensor grid."""
    n = degree // 2 + 1
    xj, wj = roots_jacobi(n, 1.0, 0.0)
    xl, wl = roots_legendre(n)
    xi = 0.5 * (xj + 1.0)      # weight (1-xi) absorbed: sum wj/4 = 1/2
    eta = 0.5 * (xl + 1.0)
    bary = []
    weights = []
    for i in range(n):
        for j in range(n):
            u = xi[i]
            v = eta[j] * (1.0 - xi[i])
            bary.append((1.0 - u - v, u, v))
            weights.append((wj[i] / 4.0) * (wl[j] / 2.0))
    w = np.asarray(weights)
    return QuadratureRule(degree, np.asarray(bary), w / w.sum())


# ---------------------------------------------------------------------------
# pie triangles: radial blending map

@dataclass(frozen=True)
class PieQuadratureMap:
    """Mapped quadrature nodes and weights on one pie triangle."""

    nodes: np.ndarray       # (npts, 2) physical points
    weights: np.ndarray     # (npts,) positive, sum = curved area
    bary: np.ndarray        # (npts, 3) w.r.t. the chord triangle


def pie_quadrature(mesh, t, order=12):
    """Tensor Gauss rule mapped onto the curved pie triangle t.

    The map is (r, s) -> v1 + r*(A(s) - v1) where A(s) is the ray/arc
    intersection through the chord point at parameter s; the Jacobian
    r * det[A - v1, A'(s)] is exact (implicit differentiation of the arc).
    """
    rec = mesh.triangles[t]
    if rec.kind != PIE:
        raise AssemblyError(f"triangle {t} is not pie-shaped")
    tri = mesh.tri_coords(t)
    v1, v2, v3 = tri
    arc = mesh.domain.arcs[rec.arc]
    conic = arc.conic
    xg, wg = roots_legendre(order)
    r = 0.5 * (xg + 1.0)
    wr = 0.5 * wg
    s = 0.5 * (xg + 1.0)
    ws = 0.5 * wg
    cdir = v3 - v2
    apts = np.empty((order, 2))
    adot = np.empty((order, 2))
    for j in range(order):
        c = v2 + s[j] * cdir
        a = arc_point_on_ray(arc, v1, c)
        g = grad_conic(conic, a)
        denom = float(g @ (c - v1))
        if denom == 0.0:
            raise AssemblyError(f"tangential ray on pie {t} (star-shape violated)")
        tpar = float((a - v1) @ (c - v1)) / float((c - v1) @ (c - v1))
        tdot = -tpar * float(g @ cdir) / denom
        apts[j] = a
        adot[j] = tdot * (c - v1) + tpar * cdir
    js = (apts[:, 0] - v1[0]) * adot[:, 1] - (apts[:, 1] - v1[1]) * adot[:, 0]
    if np.any(js <= 0):
        raise AssemblyError(f"non-positive blending Jacobian on pie triangle {t}")
    nodes = np.empty((order * order, 2))
    weights = np.empty(order * order)
    k = 0
    for i in range(order):
        for j in range(order):
            nodes[k] = v1 + r[i] * (apts[j] - v1)
            weights[k] = wr[i] * ws[j] * r[i] * js[j]
            k += 1
    bary = bb.barycentric_many(tri, nodes)
    return PieQuadratureMap(nodes, weights, bary)


# ---------------------------------------------------------------------------
# per-triangle quadrature data shared by assembly and norms

class TriangleQuadrature:
    """Physical nodes/weights plus basis design matrices per triangle."""

    def __init__(self, space, degree=16, pie_order=12):
        self.space = space
        mesh = space.mesh
        self.rule = triangle_rule(degree)
        self._ref = {}
        for d in (5, 6):
            self._ref[d] = (
                bb.bernstein_matrix(d, self.rule.bary),
                bb.bernstein_matrix(d - 1, self.rule.bary),
                bb.bernstein_matrix(d - 2, self.rule.bary),
            )
        self.nodes = []
        self.weights = []
        self.basis = []        # (V, [Gx, Gy], [Hxx, Hxy, Hyy]) per triangle
        for t in range(mesh.n_triangles):
            rec = mesh.triangles[t]
            tri = mesh.tri_coords(t)
            d = 5 if rec.kind == ORDINARY else 6
            if rec.kind == PIE:
                pq = pie_quadrature(mesh, t, order=pie_order)
                nodes, w = pq.nodes, pq.weights
                basis = bb.design_matrices(d, tri, pq.bary)
            else:
                nodes = self.rule.bary @ tri
                w = abs(bb.triangle_area(tri)) * self.rule.weights
                basis = bb.derivative_matrices(d, tri, *self._ref[d])
            self.nodes.append(nodes)
            self.weights.append(w)
            self.basis.append(basis)

    def spline_data(self, spline, t, order=2):
        """(values, grads, hessians) of a spline at this triangle's nodes."""
        V, G, H = self.basis[t]
        return bb.apply_design(V, G if order >= 1 else None,
                               H if order >= 2 else None, spline.patch(t))

    def design(self, t, d):
        """(V, G, H) of degree d at triangle t's nodes: the cached basis at
        the triangle's own degree, else (straight triangles, d in 5, 6) one
        built from the reference Bernstein matrices."""
        if d == self.space.tri_degree(t):
            return self.basis[t]
        if self.space.mesh.triangles[t].kind == PIE:
            raise AssemblyError(f"pie triangle {t} has only its degree-6 basis")
        return bb.derivative_matrices(d, self.space.mesh.tri_coords(t), *self._ref[d])


def _quadrature_sums(quad, fields):
    """Integrals of the fields that fields(t) returns at triangle t's nodes
    (a sequence of arrays), summed triangle by triangle in mesh order."""
    totals = itertools.repeat(0.0)     # a list of sums after triangle 0
    for t, w in enumerate(quad.weights):
        totals = [s + float(w @ f) for s, f in zip(totals, fields(t))]
    return totals


def integrate(quad, field):
    """Integral of a pointwise field over the mesh."""
    return _quadrature_sums(quad, lambda t: [np.asarray(field(quad.nodes[t]))])[0]


def domain_area(quad):
    return integrate(quad, lambda x: np.ones(len(x)))


# ---------------------------------------------------------------------------
# the linear elliptic weak form

@dataclass
class LinearEllipticProblem:
    """Coefficients of the weak form
    int grad(u) . A grad(v) + int v b . grad(u) + int c u v = int f v.

    Each field is a callable of (points, triangle_index): A returns
    (n,2,2) matrices, b returns (n,2), c and f return (n,).  None means
    the term is absent.  Analytic coefficients can ignore the triangle
    index (see ``pointwise`` and ``constant_matrix``)."""

    A: object = None
    b: object = None
    c: object = None
    f: object = None


def pointwise(fn):
    """Wrap a points-only callable as a weak-form coefficient field."""
    return lambda pts, t: fn(pts)


def constant_matrix(M):
    """Constant matrix-valued coefficient field (e.g. the identity)."""
    M = np.asarray(M, dtype=float)
    return lambda pts, t: np.tile(M, (len(pts), 1, 1))


@dataclass
class SparseSystem:
    matrix: sps.csr_matrix
    rhs: np.ndarray


# triangles per chunk: keeps each stacked (g, q, c) array of assemble near 2 MB
CHUNK = 128


def triangle_chunks(space):
    """Triangle indices grouped by kind and local dof count, in mesh order
    within a group, in chunks of at most CHUNK: the per-triangle
    quadrature data and dof maps of one chunk stack into (g, ...) arrays."""
    groups = {}
    for t in range(space.mesh.n_triangles):
        key = (space.mesh.triangles[t].kind, len(space.tri_cols[t]))
        groups.setdefault(key, []).append(t)
    for idx in groups.values():
        for start in range(0, len(idx), CHUNK):
            yield idx[start:start + CHUNK]


def stack_shared(mats):
    """The matrix itself when every entry is one object (the reference
    design matrix of straight triangles), else the (g, ...) stack.  Batched
    matmul with either gives what each triangle's own product gives."""
    first = mats[0]
    return first if all(m is first for m in mats) else np.stack(mats)


def assemble(problem, space, quad=None):
    """Galerkin system of the weak form in the determining-set basis.

    Local matrices are computed for a chunk of triangles at a time with
    stacked matmuls, which per triangle run the same BLAS products as a
    loop over single triangles; the local blocks and right-hand-side pieces
    are then summed in mesh order, so the system does not depend on the
    chunking."""
    if quad is None:
        quad = TriangleQuadrature(space)
    n = space.dimension
    tri_cols = [space.tri_cols[t] for t in range(space.mesh.n_triangles)]
    sizes = np.array([len(c) for c in tri_cols])
    block = np.concatenate([[0], np.cumsum(sizes * sizes)])   # COO slots
    piece = np.concatenate([[0], np.cumsum(sizes)])           # rhs slots
    rows = np.empty(block[-1], dtype=np.int64)
    cols = np.empty(block[-1], dtype=np.int64)
    vals = np.empty(block[-1])
    rhs_vals = np.empty(piece[-1])
    for idx in triangle_chunks(space):
        k = sizes[idx[0]]
        gdofs = np.array([tri_cols[t] for t in idx])
        Z = np.stack([space.patch_map(t) for t in idx])
        V = stack_shared([quad.basis[t][0] for t in idx])
        Gx = np.stack([quad.basis[t][1][0] for t in idx])
        Gy = np.stack([quad.basis[t][1][1] for t in idx])
        w = np.stack([quad.weights[t] for t in idx])[:, :, None]

        def field(fn):
            return np.stack([np.asarray(fn(quad.nodes[t], t)) for t in idx])

        Phi = V @ Z
        Dx = Gx @ Z
        Dy = Gy @ Z
        PhiT = Phi.swapaxes(1, 2)
        loc = np.zeros((len(idx), k, k))
        if problem.A is not None:
            Amat = field(problem.A)
            qx = Amat[:, :, 0, 0, None] * Dx + Amat[:, :, 0, 1, None] * Dy
            qy = Amat[:, :, 1, 0, None] * Dx + Amat[:, :, 1, 1, None] * Dy
            loc += Dx.swapaxes(1, 2) @ (w * qx) + Dy.swapaxes(1, 2) @ (w * qy)
        if problem.b is not None:
            bvec = field(problem.b)
            loc += PhiT @ (w * (bvec[:, :, 0, None] * Dx + bvec[:, :, 1, None] * Dy))
        if problem.c is not None:
            loc += PhiT @ ((w[:, :, 0] * field(problem.c))[:, :, None] * Phi)
        if problem.f is not None:
            wf = (w[:, :, 0] * field(problem.f))[:, :, None]
            rhs_vals[piece[idx][:, None] + np.arange(k)] = (PhiT @ wf)[:, :, 0]
        slots = block[idx][:, None] + np.arange(k * k)
        rows[slots] = np.repeat(gdofs, k, axis=1)
        cols[slots] = np.tile(gdofs, (1, k))
        vals[slots] = loc.reshape(len(idx), k * k)
    rhs = np.zeros(n)
    if problem.f is not None:
        # one unbuffered sum per dof, triangle by triangle in mesh order
        np.add.at(rhs, np.concatenate(tri_cols), rhs_vals)
    matrix = sps.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    return SparseSystem(matrix, rhs)


@dataclass
class SolveResult:
    dofs: np.ndarray
    rel_residual: float
    lu_fill: int            # nonzeros of the L and U factors


def solve_sparse(system):
    """Direct sparse solve with a residual check.

    The Galerkin matrices are symmetric (or nearly so), so SuperLU runs in
    symmetric mode: minimum-degree ordering on A + A^T and diagonal pivots
    unless one is below 0.01 of its column's largest entry.  One step of
    iterative refinement with the same factors follows."""
    A, b = system.matrix, system.rhs
    try:
        lu = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.01, options={"SymmetricMode": True})
    except RuntimeError as exc:     # SuperLU: "Factor is exactly singular"
        raise SolverError(f"matrix is singular: {exc}") from exc
    x = lu.solve(b)
    x += lu.solve(b - A @ x)
    if not np.all(np.isfinite(x)):
        raise SolverError("sparse factorization produced non-finite values "
                          "(matrix singular or severely ill-conditioned)")
    bn = np.linalg.norm(b)
    res = np.linalg.norm(A @ x - b) / (bn if bn > 0 else 1.0)
    if res > 1e-6:
        est = spla.norm(A) * np.linalg.norm(x) / max(bn, 1e-300)
        raise SolverError(
            f"sparse solve residual {res:.2e} too large (condition estimate {est:.2e})"
        )
    return SolveResult(x, float(res), int(lu.L.nnz + lu.U.nnz))


# ---------------------------------------------------------------------------
# norms

def hessian_det(hess):
    """Pointwise determinants of an (..., 2, 2) array of Hessians."""
    return hess[..., 0, 0] * hess[..., 1, 1] - hess[..., 0, 1] * hess[..., 1, 0]


def error_norms(spline, quad, ref=None, ref_batch=None, ref_coeffs=None):
    """(L2, H1, H2) norms of spline - reference.

    ref: (value, gradient, hessian) callables on (n,2) arrays, or None to
    measure the spline itself.  ref_batch: alternative per-triangle batch
    evaluator t, pts -> (vals, grads, hess).  ref_coeffs: per triangle, a
    (degree, BB coefficients) pair of a polynomial on that triangle, at
    least the spline's degree there (a coarser spline re-expanded, see
    solver.coarse_on_fine); its coefficients are subtracted from the
    spline's before evaluation.  Full norms: H1 and H2 include the
    lower-order terms.
    """
    def fields(t):
        if ref_coeffs is not None:
            d, coeffs = ref_coeffs[t]
            own = quad.space.tri_degree(t)
            diff = bb.degree_raise(own, spline.patch(t), d) if d > own else spline.patch(t)
            vals, grads, hess = bb.apply_design(*quad.design(t, d), diff - coeffs)
        else:
            vals, grads, hess = quad.spline_data(spline, t)
            pts = quad.nodes[t]
            if ref is not None:
                rv, rg, rh = (np.asarray(r(pts)) for r in ref)
            elif ref_batch is not None:
                rv, rg, rh = ref_batch(t, pts)
            else:
                rv = rg = rh = 0.0
            vals, grads, hess = vals - rv, grads - rg, hess - rh
        return (vals * vals, grads[:, 0] ** 2 + grads[:, 1] ** 2,
                hess[:, 0, 0] ** 2 + 2.0 * hess[:, 0, 1] ** 2 + hess[:, 1, 1] ** 2)

    l2, h1s, h2s = _quadrature_sums(quad, fields)
    return (
        float(np.sqrt(l2)),
        float(np.sqrt(l2 + h1s)),
        float(np.sqrt(l2 + h1s + h2s)),
    )


def l2_norm(spline, quad):
    """L2 norm of a spline (values only, no derivatives)."""
    def fields(t):
        vals = quad.spline_data(spline, t, order=0)[0]
        return [vals * vals]

    return float(np.sqrt(_quadrature_sums(quad, fields)[0]))


def residual_norm(spline, quad, g):
    """L2 norm of det(Hessian of spline) - g over the domain."""
    def fields(t):
        r = hessian_det(quad.spline_data(spline, t)[2]) - np.asarray(g(quad.nodes[t]))
        return [r * r]

    return float(np.sqrt(_quadrature_sums(quad, fields)[0]))
