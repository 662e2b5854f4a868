"""Quadrature, Galerkin assembly, Sobolev error norms and sparse solves.

Straight triangles use a fixed reference rule of polynomial exactness 16
(collapsed Gauss-Jacobi x Gauss-Legendre).  Pie triangles use a 12x12
tensor Gauss rule through a radial blending map whose far edge is pushed
onto the boundary arc by per-node ray intersection, with exact Jacobians,
so the curved geometry enters the integrals without any polynomial
approximation of the boundary.

The quadrature data is stored per chunk of triangles of one kind and
local dof count (stacked arrays, see QuadratureChunk).  Assembly and the
norms walk those chunks.  The norms sum the per-triangle integrals in
mesh order, and the load vector and the stiffness matrix sum their
per-triangle terms in slot order (map groups in order, their triangles
in mesh order; see ScatterPlan), so the order of the sums does not
depend on the chunking.  The norms and the load vector come from
per-triangle products, so their bits do not either.  The stiffness
matrix forms each triangle's block in its Bernstein basis first.  Its
coefficient is given by its BB coefficients, so on straight triangles
the block is exact and one GEMM per chunk of the frame-weighted
coefficients with a shared table (stiffness_table); BLAS blocks that
GEMM's rows by their number and position, so the matrix's last bits
depend on the chunk size (CHUNK).  Rules and maps are immutable and
shareable across threads.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla
from scipy.special import roots_jacobi, roots_legendre

from . import bernstein as bb
from .geometry import grad_conic
from .mesh import PIE, conic_rows, pie_arc_points


class AssemblyError(RuntimeError):
    pass


class SolverError(RuntimeError):
    """A sparse factorization or solve that failed.  `iterations` is the
    number of CG iterations the failed solve ran (see Factors.solve), None
    when it failed before CG."""

    def __init__(self, message, iterations=None):
        super().__init__(message)
        self.iterations = iterations


QUAD_DEGREE = 16    # polynomial exactness of the straight-triangle rule
PIE_ORDER = 12      # Gauss points per direction of the pie rule


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


@lru_cache(maxsize=None)
def triangle_rule(degree):
    """Rule of the requested polynomial exactness via a collapsed tensor
    grid.  Built once per degree and process, read-only."""
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
    rule = QuadratureRule(degree, np.asarray(bary), w / w.sum())
    rule.bary.flags.writeable = rule.weights.flags.writeable = False
    return rule


@lru_cache(maxsize=None)
def _reference_bernstein():
    """The Bernstein matrices of degrees 6 down to 3 at the nodes of the
    reference rule, keyed by degree, that every straight chunk shares.
    Built once per process, read-only."""
    B = dict(zip(range(6, 2, -1),
                 bb.design_matrices(6, triangle_rule(QUAD_DEGREE).bary, order=3)))
    for b in B.values():
        b.flags.writeable = False
    return B


def product_table(d):
    """(3 nq, nc * nc) table P of the products of the basis gradients of
    degree d on straight triangles, at the nq nodes of the reference rule:
    the source of stiffness_table.

    The basis gradients along e0 - e2 and e1 - e2 there, G_s = B_{d-1} @
    frame_diff(d)[s], are the same for every straight triangle.  Row
    (q, ij) of P holds G_i[q, a] G_j[q, b] at column (a, b) for ij = 00
    and 11, and G_0[q, a] G_1[q, b] + G_1[q, a] G_0[q, b] for ij = 01,
    which folds A01 and A10 of a symmetric A."""
    B1 = _reference_bernstein()[d - 1]
    G0, G1 = (B1 @ Ds for Ds in bb.frame_diff(d))
    return np.stack([G0[:, :, None] * G0[:, None],
                     G0[:, :, None] * G1[:, None] + G1[:, :, None] * G0[:, None],
                     G1[:, :, None] * G1[:, None]], axis=1).reshape(3 * len(B1), -1)


@lru_cache(maxsize=None)
def stiffness_table(d):
    """(3 nk, nc * nc) table T of the stiffness blocks of degree d on
    straight triangles from the BB coefficients of the weak form's
    coefficient, nk = n_coeffs(d - 2): row (k, ij) holds sum_q w_q
    B_{d-2}[q, k] P[(q, ij), (a, b)] at column (a, b), P the
    product_table(d) and w the weights of the reference rule.  A
    triangle's block in its Bernstein basis is then W @ T, W its (nk, 3)
    frame-weighted coefficients of QuadratureChunk.frame_weights (the
    element-independent tensor form of R. C. Kirby, Numer. Math. 117
    (2011), on Bernstein coefficients as in M. Ainsworth, G. Andriamaro
    and O. Davydov, SIAM J. Sci. Comput. 33 (2011)).  The integrand
    B_{d-2} G_i G_j has degree 3 d - 4 <= 14, below the rule's exactness
    QUAD_DEGREE, so T is exact up to roundoff.  Built once per degree and
    process, read-only."""
    rule = triangle_rule(QUAD_DEGREE)
    wB = rule.weights[:, None] * _reference_bernstein()[d - 2]
    T = (wB.T @ product_table(d).reshape(len(wB), -1)).reshape(3 * wB.shape[1], -1)
    T.flags.writeable = False
    return T


# ---------------------------------------------------------------------------
# pie triangles: radial blending map

def pie_quadrature(mesh, tris):
    """Tensor Gauss rule mapped onto the curved pie triangles tris: physical
    nodes (g, PIE_ORDER**2, 2) and positive weights (g, PIE_ORDER**2) that
    sum to each pie's area.

    The map is (r, s) -> v1 + r*(A(s) - v1) where A(s) is the ray/arc
    intersection through the chord point at parameter s; the Jacobian
    r * det[A - v1, A'(s)] is exact (implicit differentiation of the arc).
    The rays of all pies on one arc are one batched query; an error names
    the first pie, in the order of tris, whose rule fails.
    """
    tris = np.asarray(tris)
    for t in tris[mesh.tri_kind[tris] != PIE][:1]:
        raise AssemblyError(f"triangle {t} is not pie-shaped")
    arcs = mesh.tri_arc[tris]
    v1, v2, v3 = mesh.vertices[mesh.tri_verts[tris]].transpose(1, 0, 2)
    xg, wg = roots_legendre(PIE_ORDER)
    r = 0.5 * (xg + 1.0)
    wr = 0.5 * wg
    s = 0.5 * (xg + 1.0)
    ws = 0.5 * wg
    cdir = (v3 - v2)[:, None]
    c = v2[:, None] + s[:, None] * cdir
    a, failure = pie_arc_points(mesh.domain, arcs, v1, c)
    g = conic_rows(grad_conic, mesh.domain, arcs, a)
    cv = c - v1[:, None]
    denom = np.vecdot(g, cv)
    with np.errstate(all="ignore"):     # failing rays are reported below
        tpar = np.vecdot(a - v1[:, None], cv) / np.vecdot(cv, cv)
        tdot = -tpar * np.vecdot(g, cdir) / denom
        adot = tdot[:, :, None] * cv + tpar[:, :, None] * cdir
        js = ((a[:, :, 0] - v1[:, None, 0]) * adot[:, :, 1]
              - (a[:, :, 1] - v1[:, None, 1]) * adot[:, :, 0])
    # the first failure of a walk over the pies: rays in order, then the Jacobian
    fails = []
    if failure is not None:
        fails.append((failure[:2], failure[2]))
    if (denom == 0.0).any():
        p, j = np.unravel_index(np.argmax(denom == 0.0), denom.shape)
        fails.append(((p, j), AssemblyError(
            f"tangential ray on pie {tris[p]} (star-shape violated)")))
    if (js <= 0).any():
        p = int(np.argmax((js <= 0).any(axis=1)))
        fails.append(((p, PIE_ORDER), AssemblyError(
            f"non-positive blending Jacobian on pie triangle {tris[p]}")))
    if fails:
        raise min(fails, key=lambda f: f[0])[1]
    # node PIE_ORDER * i + j at radius r[i] on the ray through a[:, j]
    nodes = v1[:, None, None] + r[:, None, None] * (a - v1[:, None])[:, None]
    weights = (wr[:, None] * ws * r[:, None]) * js[:, None]
    return nodes.reshape(len(tris), -1, 2), weights.reshape(len(tris), -1)


# ---------------------------------------------------------------------------
# quadrature data per chunk of triangles, shared by assembly and norms

# triangles per chunk: the rows of a straight chunk's stiffness GEMM, and
# the size of the stacked arrays (a pie chunk's (g, nq, n1) products of
# assemble take 3 MB)
CHUNK = 128

@dataclass(eq=False)
class QuadratureChunk:
    """Quadrature data of g triangles of one kind and local dof count,
    stacked along the leading axis: triangles tris (g,) in mesh order,
    their vertices coords (g, 3, 2), dofs cols (g, k) and patch maps Z
    (g, nc, k) (views into the space's MapGroup); nodes (g, nq, 2),
    weights (g, nq) and frames M (g, 2, 2) (bernstein.frames of coords,
    the chord triangle on pies).

    B maps a degree to its Bernstein matrix at the nodes: on straight
    triangles the quadrature's shared (nq, nc) matrices of degrees 3-6,
    on pies the chunk's own (g, nq, nc) stacks of degrees 4-6 (the chord
    triangle's basis at the curved nodes).  Derivatives come from
    bernstein.frame_derivatives, stiffness blocks from frame_weights and
    bb_stiffness: straight chunks contract the weak form's coefficient
    in BB form with stiffness_table, pies evaluate it at their nodes.
    Chunks compare by identity, so they can key per-chunk tables."""

    degree: int
    tris: np.ndarray
    coords: np.ndarray
    cols: np.ndarray
    Z: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    M: np.ndarray
    B: dict

    def at_nodes(self, fn):
        """A callable of (n, 2) points evaluated at the chunk's nodes
        (flattened to (g * nq, 2)), shaped (g, nq, ...)."""
        vals = np.asarray(fn(self.nodes.reshape(-1, 2)))
        return vals.reshape(self.weights.shape + vals.shape[1:])

    def arrays(self):
        """The arrays of the chunk's quadrature data, each once, the shared
        Bernstein matrices included (the maps Z and cols are the space's)."""
        return [self.coords, self.nodes, self.weights, self.M, *self.B.values()]

    @property
    def coefficient_shape(self):
        """(g, n_coeffs(d - 2), 2, 2): the shape of a matrix coefficient
        field on the chunk, the degree-(d - 2) BB coefficients of a 2 x 2
        matrix polynomial on each triangle (the chord triangle's basis on
        pies)."""
        return (len(self.tris), bb.n_coeffs(self.degree - 2), 2, 2)

    def frame_weights(self, A):
        """The weighted coefficient of the weak form in the chunk's frame,
        F = M^T A M for the symmetric BB coefficients A (coefficient_shape)
        (grad u . A grad v equals (D u) . F (D v) for the gradients D along
        e0 - e2 and e1 - e2): F_ij sums M_si A_st M_tj over the four
        entries (s, t), one (nk, 4) @ (4, 3) product per triangle.  On
        straight chunks the (g, nk, 3) coefficients of F00, F01 and F11
        times each triangle's area (the frame scaled by it); on pies
        w F00, w F01 and w F11 at the nodes, (g, nq, 3), from the chunk's
        degree-(d - 2) Bernstein matrices."""
        m = self.M
        C = np.stack([m[:, :, None, i] * m[:, None, :, j] for i, j in ((0, 0), (0, 1), (1, 1))],
                     axis=-1).reshape(-1, 4, 3)
        B2 = self.B[self.degree - 2]
        if B2.ndim == 2:
            C *= np.abs(bb.triangle_area(self.coords))[:, None, None]
        F = A.reshape(len(C), -1, 4) @ C
        return F if B2.ndim == 2 else (B2 @ F) * self.weights[:, :, None]

    def bb_stiffness(self, W):
        """(g, nc, nc) local stiffness matrices of the chunk's triangles in
        their Bernstein bases, int sum_ij F_ij G_i^T G_j, from the weights
        W of frame_weights (G_i the basis gradients along the frame's
        directions).  Straight chunks make one (g, 3 nk) @ (3 nk, nc^2)
        GEMM with the shared stiffness_table; pies, whose Bernstein
        matrices are their own, contract the weighted Gram blocks
        B_{d-1}^T W_ij B_{d-1} with the shared difference matrices
        frame_diff(d), and form no gradient stacks."""
        d = self.degree
        g = len(W)
        nc = bb.n_coeffs(d)
        B1 = self.B[d - 1]
        if B1.ndim == 2:
            return (W.reshape(g, -1) @ stiffness_table(d)).reshape(g, nc, nc)
        n1 = B1.shape[2]
        N = np.empty((g, 2, n1, 2, n1))
        for r, (i, j) in enumerate(((0, 0), (0, 1), (1, 1))):
            N[:, i, :, j] = B1.swapaxes(1, 2) @ (W[:, :, r, None] * B1)
        N[:, 1, :, 0] = N[:, 0, :, 1]
        D = bb.frame_diff(d).reshape(2 * n1, nc)
        return D.T @ (N.reshape(g, 2 * n1, 2 * n1) @ D)

    def derivatives(self, C, rows=slice(None), degree=None, orders=(0, 1, 2)):
        """[v, gx, gy, hxx, hxy, hyy], each (g, nq), at the nodes of the
        polynomials with BB coefficients C (g, nc, 1) of degree `degree`
        (the chunk's by default; 6 also on straight chunks of degree 5),
        one for each triangle of the chunk that rows selects; only the
        entries of the derivative orders in `orders`."""
        d = self.degree if degree is None else degree
        B = [self.B[d - s] for s in range(max(orders) + 1)]
        B = [b if b.ndim == 2 else b[rows] for b in B]
        return [f[:, :, 0] for f in bb.frame_derivatives(d, C, B, self.M[rows], orders)]

    def values(self, C):
        """The values (g, nq) alone of derivatives."""
        return self.derivatives(C, orders=(0,))[0]

    def hessians(self, C):
        """The Hessian entries [hxx, hxy, hyy] alone of derivatives."""
        return self.derivatives(C, orders=(2,))


class TriangleQuadrature:
    """Quadrature nodes, weights, frames and Bernstein matrices of a space,
    stored once per chunk (at most CHUNK triangles of one of the space's
    map groups) in `chunks`.  Straight chunks share the Bernstein matrices
    `B` of degrees 3-6 at the reference rule's nodes."""

    def __init__(self, space):
        self.space = space
        self.rule = triangle_rule(QUAD_DEGREE)
        self.B = _reference_bernstein()
        self.chunks = [self._chunk(grp, slice(i, i + CHUNK))
                       for grp in space.groups for i in range(0, len(grp.tris), CHUNK)]

    @cached_property
    def scatter(self):
        """The ScatterPlan of assemble, built on its first call."""
        return ScatterPlan(self)

    def _chunk(self, grp, rows):
        mesh = self.space.mesh
        idx, d = grp.tris[rows], grp.degree
        coords = mesh.vertices[mesh.tri_verts[idx]]
        if grp.kind == PIE:
            nodes, weights = pie_quadrature(mesh, idx)
            # basis of the chord triangle, evaluated at the curved nodes
            B = dict(zip(range(d, d - 3, -1),
                         bb.design_matrices(d, bb.barycentric_many(coords, nodes))))
        else:
            nodes = self.rule.bary @ coords
            weights = np.abs(bb.triangle_area(coords))[:, None] * self.rule.weights
            B = self.B
        return QuadratureChunk(d, idx, coords, grp.cols[rows], grp.Z[rows], nodes, weights,
                               bb.frames(coords), B)

    @property
    def nodes(self):
        """The quadrature nodes of each chunk, flattened to (g * nq, 2)
        (the benchmark's traced runs count quadrature points with it)."""
        return [ch.nodes.reshape(-1, 2) for ch in self.chunks]

    @property
    def nbytes(self):
        """Bytes held by the quadrature data of all chunks, each shared
        array (the straight chunks' Bernstein matrices) counted once."""
        arrays = {id(a): a for ch in self.chunks for a in ch.arrays()}
        return sum(a.nbytes for a in arrays.values())


def _quadrature_sums(quad, fields):
    """Integrals of the fields that fields(chunk) returns at the chunk's
    nodes (a sequence of (g, nq) arrays): one integral per triangle, then
    summed triangle by triangle in mesh order."""
    per_tri = None
    for ch in quad.chunks:
        ints = [(ch.weights[:, None, :] @ f[:, :, None])[:, 0, 0] for f in fields(ch)]
        if per_tri is None:
            per_tri = np.empty((len(ints), quad.space.mesh.n_triangles))
        per_tri[:, ch.tris] = ints
    return [float(np.cumsum(row)[-1]) for row in per_tri]


# ---------------------------------------------------------------------------
# the Galerkin weak form int grad(u) . A grad(v) = int f v

# A and f are coefficient fields: callables of one QuadratureChunk.  A
# returns the BB coefficients of a symmetric matrix polynomial of degree
# d - 2 on each triangle, in the shape QuadratureChunk.coefficient_shape
# (g, n_coeffs(d - 2), 2, 2) (see constant_matrix; the Newton steps' cofactor
# is one), and f its values (g, nq) at the chunk's nodes (see pointwise).

def pointwise(fn):
    """Wrap a callable of (n, 2) points as a load coefficient field f."""
    return lambda chunk: chunk.at_nodes(fn)


def constant_matrix(M):
    """Constant matrix coefficient field A (e.g. the identity): every BB
    coefficient is the 2 x 2 matrix M (ValueError for any other shape)."""
    M = np.asarray(M, dtype=float)
    if M.shape != (2, 2):
        raise ValueError(f"a constant matrix coefficient is 2 x 2, not {M.shape}")
    return lambda chunk: np.broadcast_to(M, chunk.coefficient_shape)


@dataclass
class SparseSystem:
    matrix: sps.csr_matrix
    rhs: np.ndarray


def assemble(A, quad):
    """CSR stiffness matrix of int grad(u) . A grad(v) in the
    determining-set basis of quad.space, for the coefficient field A of BB
    coefficients, which must have each chunk's coefficient_shape and be
    symmetric (AssemblyError otherwise: the blocks fold A01 and A10
    together, and the solver's CG assumes a symmetric matrix).

    Each chunk forms its triangles' blocks L in the Bernstein basis
    (QuadratureChunk.frame_weights and bb_stiffness: one GEMM of the
    frame-weighted coefficients with the shared stiffness_table on
    straight chunks), and the quadrature's ScatterPlan (built on the
    first call) adds Z^T L Z, Z each triangle's map, into the matrix's
    entries in slot order, one chunk at a time, so no array of all the
    slot values exists.  BLAS blocks the rows of a straight chunk's GEMM
    as it sees fit, so a block's last bits can depend on the chunk size
    (CHUNK) and on the triangle's row in its chunk; the order of the
    sums does not."""
    def blocks():
        for ch in quad.chunks:
            coef = np.asarray(A(ch))
            if coef.shape != ch.coefficient_shape:
                raise AssemblyError(
                    f"the coefficient A has shape {coef.shape} on a chunk of degree "
                    f"{ch.degree}, which takes its BB coefficients {ch.coefficient_shape}")
            a01, a10 = coef[..., 0, 1], coef[..., 1, 0]
            if (a01 != a10).any() and not np.array_equal(a01, a10, equal_nan=True):
                raise AssemblyError("the coefficient A of the weak form is not symmetric")
            L = ch.bb_stiffness(ch.frame_weights(coef))
            yield ch.Z.swapaxes(1, 2) @ L @ ch.Z

    return quad.scatter.csr(blocks())


class ScatterPlan:
    """The CSR pattern of the stiffness matrices of a quadrature's space,
    and the entry of each slot.

    A slot is one entry of one triangle's local block; slots run over the
    space's map groups in order, their triangles in mesh order, each
    block row by row, which is also the order of the chunks.  target[s]
    is the CSR entry of slot s, and csr adds the slot values into the
    entries in slot order (np.add.at from +0.0), so each entry sums its
    slots in slot order, whatever the chunk size, and an entry whose
    terms are all -0.0 reads +0.0.  The build finds the entries with
    tocsr() of the slot ids, marked canonical so that it sums none of
    them (AssemblyError if it did), and sort_indices.  target, indptr and
    indices are int32 unless the slots outnumber it, and read-only;
    every matrix of csr shares indptr and indices."""

    def __init__(self, quad):
        n = quad.space.dimension
        total = sum(grp.cols.size * grp.cols.shape[1] for grp in quad.space.groups)
        # scipy keeps 32-bit indices whenever they fit
        index = np.int32 if max(total, n) <= np.iinfo(np.int32).max else np.int64
        rows = np.empty(total, dtype=index)
        cols = np.empty(total, dtype=index)
        start = 0
        for grp in quad.space.groups:
            g, k = grp.cols.shape
            rows[start:start + g * k * k].reshape(g, k, k)[...] = grp.cols[:, :, None]
            cols[start:start + g * k * k].reshape(g, k, k)[...] = grp.cols[:, None, :]
            start += g * k * k
        triplets = sps.coo_matrix((np.arange(total, dtype=index), (rows, cols)), shape=(n, n))
        triplets.has_canonical_format = True
        order = triplets.tocsr()
        del triplets, rows, cols
        if order.nnz != total:
            raise AssemblyError(f"tocsr() summed slot ids: {order.nnz} entries for {total} slots")
        order.sort_indices()
        slot, cols, indptr = order.data, order.indices, order.indptr
        del order
        # a new entry at a new column or a new row
        new = np.ones(total, dtype=bool)
        np.not_equal(cols[1:], cols[:-1], out=new[1:])
        new[indptr[:-1][np.diff(indptr) > 0]] = True
        entry = np.cumsum(new, dtype=index)
        entry -= 1
        self.indices = cols[new]
        self.indptr = np.where(indptr > 0, entry[indptr - 1] + 1, 0).astype(index)
        del cols, new
        self.target = np.empty(total, dtype=index)
        self.target[slot] = entry
        self.shape = (n, n)
        for a in (self.target, self.indices, self.indptr):
            a.flags.writeable = False

    def csr(self, pieces):
        """The CSR matrix of the slot values, given as an iterable of
        consecutive pieces in slot order (arrays of any shape, read in C
        order), each added into the data as it comes (see the class)."""
        data = np.zeros(self.indices.size)
        start = 0
        for piece in pieces:
            piece = np.ravel(piece)
            target = self.target[start:start + piece.size]
            start += piece.size
            if target.size < piece.size:
                break
            np.add.at(data, target, piece)
        if start != self.target.size:
            raise AssemblyError(f"the slot values do not fill the {self.target.size} slots")
        matrix = sps.csr_matrix((data, self.indices, self.indptr), shape=self.shape)
        matrix.has_canonical_format = True
        return matrix

    @property
    def nbytes(self):
        """Bytes held by target, indices and indptr."""
        return self.target.nbytes + self.indices.nbytes + self.indptr.nbytes


def assemble_rhs(f, quad):
    """Load vector int f v of the coefficient field f: per triangle
    Z^T (B_d^T (w f)) as batched products, whose bits do not depend on
    the chunking, then one sum per dof from +0.0 over its triangles in
    slot order (see ScatterPlan).  A Newton step whose matrix is already
    factored needs only this."""
    vals = []
    for ch in quad.chunks:
        wf = (ch.weights * np.asarray(f(ch)))[:, :, None]
        Bwf = ch.B[ch.degree].swapaxes(-1, -2) @ wf
        vals.append((ch.Z.swapaxes(1, 2) @ Bwf).ravel())
    cols = np.concatenate([ch.cols.ravel() for ch in quad.chunks])
    return np.bincount(cols, weights=np.concatenate(vals), minlength=quad.space.dimension)


@dataclass
class SolveResult:
    dofs: np.ndarray
    rel_residual: float
    iterations: int         # of the preconditioned CG that solved it (Factors.solve)
    factors: object = None  # of solve_sparse: the Factors it made


# the largest relative residual |A x - b| / |b| a solve may leave
MAX_REL_RESIDUAL = 1e-6

# conjugate gradients preconditioned by single-precision factors
# (Factors.solve): the relative residual of every solve, within at most
# KRYLOV_MAXITER iterations, on the factored matrix or a nearby one.
# Newton-Galerkin needs no more (inexact Newton: R. Dembo, S. Eisenstat
# and T. Steihaug, SIAM J. Numer. Anal. 19 (1982); P. Deuflhard, Newton
# Methods for Nonlinear Problems, Springer 2004, sec. 2.1.5): it needs
# each correction's error small, and CG preconditioned by the float32
# factors of the matrix or a nearby one is nearly exact, so the error
# follows the residual.  Against the same systems solved to 1e-13, in
# runs of levels 1-5 of the four built-in problems, disk L6 and c2-domain
# L4 from the Poisson guess, every correction's relative L2 error is at
# most 9.1e-8 (a later real step of c2-domain L2; 7.0e-9 on a factored
# matrix itself), the last real step's at most 3e-3 and a frozen
# correction's at most 1e-9 of the stop threshold (solver.STOP_MARGIN *
# solver.newton_floor).  Every m holds, and the final iterates of
# test_frozen_termination_matches_full_steps are within 7.0e-15 of full
# steps solved to 1e-13.
KRYLOV_RTOL = MAX_REL_RESIDUAL / 10
KRYLOV_MAXITER = 40


def _rel_residual(A, x, b):
    bn = np.linalg.norm(b)
    return float(np.linalg.norm(A @ x - b) / (bn if bn > 0 else 1.0))


class Factors:
    """Single-precision SuperLU factors of a sparse matrix's equilibration,
    kept with the matrix, so that every solve with them (solve), the first,
    a later one with another right-hand side or one of a nearby matrix,
    runs the same preconditioned conjugate gradients on the float64 matrix
    and the same checks (mixed-precision iterative refinement with a
    Krylov solver, E. Carson and N. J. Higham, SIAM J. Sci. Comput. 40
    (2018)).

    S = diag(|a_ii|^-1/2), with 1 where a_ii = 0, scales the matrix to
    S A S, so that float32 holds its entries whatever the matrix's scale;
    the float32 copy of S A S is the one copy made.  The Galerkin matrices
    are symmetric (or nearly so), so SuperLU runs in symmetric mode:
    minimum-degree ordering on A + A^T and diagonal pivots unless one is
    below 0.01 of its column's largest entry.  Its supernodes are exact
    (relax=1): columns join one only where their structure agrees, so no
    stored entry is padding; SuperLU's default relaxed supernodes padded
    the c2-domain L4 Newton matrix's factors from 2 495 284 to 2 717 716
    entries, and the disk L6 factorization took 1.6 times as long.
    SuperLU reads the CSR arrays of S A S as the CSC arrays of its
    transpose, so it factors (S A S)^T, and the solves apply those
    factors as they are (trans="N", faster than SuperLU's transposed
    solve): the matrices CG sees are symmetric to about 1e-16 relative
    (c2-domain L4, disk L4 and L5 Newton matrices), far below the
    float32 factors' own error, so (S A S)^T preconditions as S A S does.
    lu_fill is SuperLU's own count of the factors' entries (SuperLU.nnz),
    the structural nonzeros of L and U, so the factors are never copied
    out to count them; lu_mb is the MB (2**20 bytes) of those float32
    values.  The matrix's CSR form is canonicalized in place
    (sum_duplicates)."""

    def __init__(self, matrix):
        matrix = matrix.tocsr()
        if not np.isfinite(matrix.data).all():
            raise SolverError("matrix has non-finite entries")
        matrix.sum_duplicates()     # SuperLU would sort the shared indices otherwise
        diag = np.abs(matrix.diagonal())
        self.scale = np.divide(1.0, np.sqrt(diag), out=np.ones_like(diag), where=diag > 0)
        scaled = np.repeat(self.scale, np.diff(matrix.indptr))
        scaled *= matrix.data
        scaled *= self.scale[matrix.indices]
        scaled = scaled.astype(np.float32)
        try:
            self.lu = spla.splu(sps.csc_matrix((scaled, matrix.indices, matrix.indptr),
                                               shape=matrix.shape),
                                permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.01,
                                relax=1, options={"SymmetricMode": True})
        except RuntimeError as exc:     # SuperLU: "Factor is exactly singular"
            raise SolverError(f"matrix is singular: {exc}") from exc
        self.matrix = matrix
        self.lu_fill = int(self.lu.nnz)
        self.lu_mb = self.lu_fill * scaled.itemsize / 2**20

    def precondition(self, r):
        """S LU32^-1 (S r), with S r divided by its max-norm before the
        float32 cast and multiplied back after it, so that the cast
        neither overflows nor flushes the vector to zero."""
        y = self.scale * r
        top = np.abs(y).max() or 1.0
        y /= top
        z = self.lu.solve(y.astype(np.float32)).astype(float)
        z *= top
        z *= self.scale
        return z

    def solve(self, rhs, matrix=None):
        """Solve matrix x = rhs, the factored matrix when matrix is None,
        by conjugate gradients preconditioned by precondition, to the
        relative residual KRYLOV_RTOL within KRYLOV_MAXITER iterations.
        SolverError, carrying the iterations run, when x is not finite,
        when its relative residual exceeds MAX_REL_RESIDUAL, or when CG
        missed KRYLOV_RTOL, checked in that order.  A solve within
        KRYLOV_RTOL passes also when CG reached its cap: scipy's cg tests
        its residual before each iteration only, so its last one may have
        converged."""
        A = self.matrix if matrix is None else matrix
        precond = spla.LinearOperator(A.shape, matvec=self.precondition, dtype=float)
        steps = []      # the iterate x, once per CG iteration
        x, info = spla.cg(A, rhs, rtol=KRYLOV_RTOL, atol=0.0, maxiter=KRYLOV_MAXITER,
                          M=precond, callback=steps.append)
        iterations = len(steps)
        if not np.all(np.isfinite(x)):
            raise SolverError("sparse factorization produced non-finite values "
                              "(matrix singular or severely ill-conditioned)", iterations)
        res = _rel_residual(A, x, rhs)
        if res > MAX_REL_RESIDUAL:
            est = spla.norm(A) * np.linalg.norm(x) / max(np.linalg.norm(rhs), 1e-300)
            raise SolverError(f"sparse solve residual {res:.2e} too large "
                              f"(condition estimate {est:.2e})", iterations)
        if info != 0 and res > KRYLOV_RTOL:
            raise SolverError(f"CG missed the relative residual {KRYLOV_RTOL:.3g} "
                              f"within {iterations} iterations", iterations)
        return SolveResult(x, res, iterations)


def solve_sparse(system):
    """Factor the system's matrix and solve it (see Factors.solve).  The
    result's factors solve further right-hand sides with the same matrix
    without factoring it again; results of those solves hold no factors,
    so dropping this result and the factors frees them."""
    factors = Factors(system.matrix)
    result = factors.solve(system.rhs)
    result.factors = factors
    return result


# ---------------------------------------------------------------------------
# norms

def hessian_det(hxx, hxy, hyy):
    """Pointwise determinants of symmetric 2x2 Hessians from their entries."""
    return hxx * hyy - hxy * hxy


def error_norms(spline, quad, ref=None, coarse=None):
    """(L2, H1, H2) norms of spline - reference.

    ref: (value, gradient, hessian) callables on (n,2) arrays, or None to
    measure the spline itself.  coarse: a coarser spline re-expanded on
    the triangles of quad.space (a solver.CoarseOnFine): the first
    n_coeffs(coarse.degree[t]) entries of coarse.exact[t] are subtracted
    from the spline's BB coefficients on triangle t, raised to that
    degree where it exceeds the spline's, before evaluation.  Full norms:
    H1 and H2 include the lower-order terms.
    """
    def fields(ch):
        C = spline.pieces(ch.Z, ch.cols)
        if coarse is None:
            diff = ch.derivatives(C)
            if ref is not None:
                rv, rg, rh = (ch.at_nodes(r) for r in ref)
                diff = [a - b for a, b in zip(diff, (
                    rv, rg[..., 0], rg[..., 1], rh[..., 0, 0], rh[..., 0, 1], rh[..., 1, 1]))]
        else:
            diff = [np.empty(ch.weights.shape) for _ in range(6)]
            degree = coarse.degree[ch.tris]
            for d in np.unique(degree).tolist():
                rows = slice(None) if (degree == d).all() else degree == d
                R = coarse.exact[ch.tris[rows], :bb.n_coeffs(d), None]
                if d == ch.degree:
                    D = C[rows] - R
                else:   # a straight triangle under a parent of higher degree
                    D = bb.degree_raise_matrix(ch.degree, d) @ C[rows] - R
                for out, f in zip(diff, ch.derivatives(D, rows, d)):
                    out[rows] = f
        v, gx, gy, hxx, hxy, hyy = diff
        return (v * v, gx ** 2 + gy ** 2, hxx ** 2 + 2.0 * hxy ** 2 + hyy ** 2)

    l2, h1s, h2s = _quadrature_sums(quad, fields)
    return (
        float(np.sqrt(l2)),
        float(np.sqrt(l2 + h1s)),
        float(np.sqrt(l2 + h1s + h2s)),
    )


def l2_norm(spline, quad):
    """L2 norm of a spline (values only, no derivatives)."""
    def fields(ch):
        vals = ch.values(spline.pieces(ch.Z, ch.cols))
        return [vals * vals]

    return float(np.sqrt(_quadrature_sums(quad, fields)[0]))


def residual_norm(spline, quad, g):
    """L2 norm of det(Hessian of spline) - g over the domain."""
    def fields(ch):
        r = hessian_det(*ch.hessians(spline.pieces(ch.Z, ch.cols))) - ch.at_nodes(g)
        return [r * r]

    return float(np.sqrt(_quadrature_sums(quad, fields)[0]))
