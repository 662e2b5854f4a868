import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conicfem import bernstein as bb

from _oracles import (barycentric, bb_product, bb_to_monomial, de_casteljau, degree_raise,
                      derivative_matrices, eval_bb, monomial_product, monomial_to_bb,
                      smoothness_gaps)

TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
SKEW = np.array([[0.2, -0.1], [1.3, 0.4], [0.5, 1.1]])


def rand_bary(rng, n):
    return rng.dirichlet((1.0, 1.0, 1.0), n)


def test_index_ordering_and_bijection():
    for d in range(0, 9):
        idx = bb.multi_indices(d)
        assert len(idx) == bb.n_coeffs(d)
        assert idx[0] == (d, 0, 0)
        assert idx[-1] == (0, 0, d)
        assert all(sum(g) == d for g in idx)
        im = bb.index_map(d)
        assert sorted(im.values()) == list(range(len(idx)))


def test_barycentric_vertex_centroid_exterior():
    assert np.allclose(barycentric(TRI, TRI[0]), (1, 0, 0))
    assert np.allclose(barycentric(TRI, (1 / 3, 1 / 3)), (1 / 3, 1 / 3, 1 / 3))
    # affine extension outside the triangle
    assert np.allclose(barycentric(TRI, (2.0, 0.0)), (-1, 2, 0))


def test_barycentric_affine_reproduction():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((50, 2)) * 3
    b = bb.barycentric_many(SKEW, pts)
    assert np.abs(b.sum(axis=1) - 1).max() < 1e-13
    assert np.abs(b @ SKEW - pts).max() < 1e-13 * 3


def test_degenerate_triangle_rejected():
    degen = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(ValueError):
        barycentric(degen, (0.5, 0.5))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10**9))
def test_partition_of_unity(d, seed):
    rng = np.random.default_rng(seed)
    B = bb.bernstein_matrix(d, rand_bary(rng, 20))
    assert np.abs(B.sum(axis=1) - 1.0).max() < 1e-14


def test_de_casteljau_matches_multinomial_formula():
    rng = np.random.default_rng(1)
    for d in range(1, 9):
        c = rng.standard_normal(bb.n_coeffs(d))
        bary = rand_bary(rng, 30)
        direct = bb.bernstein_matrix(d, bary) @ c
        ref = [de_casteljau(d, c, b) for b in bary]
        scale = np.abs(direct).max()
        assert np.abs(direct - ref).max() < 1e-13 * max(scale, 1.0)


def test_eval_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    c = rng.standard_normal(bb.n_coeffs(3))
    h = 1e-5
    for _ in range(10):
        x = rng.random(2) * 0.5
        g = eval_bb(3, c, SKEW, x, order=1)
        fd = np.array([
            (eval_bb(3, c, SKEW, x + (h, 0)) - eval_bb(3, c, SKEW, x - (h, 0))) / (2 * h),
            (eval_bb(3, c, SKEW, x + (0, h)) - eval_bb(3, c, SKEW, x - (0, h))) / (2 * h),
        ])
        assert np.abs(g - fd).max() < 1e-7


def test_eval_hessian_quadratic():
    # BB form of 1 - x^2 - y^2 has constant Hessian -2I
    from conicfem.geometry import Conic, conic_bb_form
    q = conic_bb_form(Conic((-1, 0, -1, 0, 0, 1)), TRI)
    H = eval_bb(2, q, TRI, (0.3, 0.2), order=2)
    assert np.allclose(H, [[-2, 0], [0, -2]], atol=1e-13)


def test_constant_eval_partition():
    c = np.ones(bb.n_coeffs(5))
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.standard_normal(2)
        assert abs(eval_bb(5, c, SKEW, x) - 1.0) < 1e-13


def test_degree_raise_constant_and_linear():
    c = np.ones(bb.n_coeffs(5))
    r = degree_raise(5, c, 6)
    assert np.allclose(r, 1.0, atol=1e-14)
    # linear b1 at d=1 raised to d=2: c_ijk = i/2
    lin = np.array([1.0, 0.0, 0.0])
    r = degree_raise(1, lin, 2)
    expect = {g: g[0] / 2 for g in bb.multi_indices(2)}
    assert np.allclose(r, [expect[g] for g in bb.multi_indices(2)], atol=1e-15)


def test_degree_raise_preserves_values():
    rng = np.random.default_rng(4)
    c = rng.standard_normal(bb.n_coeffs(5))
    r = degree_raise(5, c, 6)
    for _ in range(20):
        x = rng.standard_normal(2)
        v0 = eval_bb(5, c, SKEW, x)
        v1 = eval_bb(6, r, SKEW, x)
        assert abs(v0 - v1) < 1e-13 * max(1.0, abs(v0))


@pytest.mark.parametrize("d", [4, 5, 6])
def test_reexpand_matches_parent_evaluation(d):
    rng = np.random.default_rng(10 + d)
    mid = 0.5 * (SKEW + SKEW[[1, 2, 0]])      # midpoints of v1v2, v2v3, v3v1
    child = np.array([SKEW[0], mid[0], mid[2]])
    outside = np.array([[0.1, -0.4], [1.6, 0.2], [0.3, 1.5]])
    targets = (child, mid, outside)
    S = np.array([bb.barycentric_many(SKEW, tri) for tri in targets])
    c = rng.standard_normal((len(targets), bb.n_coeffs(d)))
    got = bb.reexpand(d, c, S)
    for k, tri in enumerate(targets):
        for x in rand_bary(rng, 10) @ tri:
            for order in (0, 1):
                want = eval_bb(d, c[k], SKEW, x, order=order)
                assert np.abs(eval_bb(d, got[k], tri, x, order=order) - want).max() <= 1e-12


def test_product_identity_factor():
    rng = np.random.default_rng(5)
    q = rng.standard_normal(bb.n_coeffs(2))
    one4 = np.ones(bb.n_coeffs(4))
    prod = bb_product(4, one4, 2, q)
    assert np.allclose(prod, degree_raise(2, q, 6), atol=1e-14)


def test_product_b1_b2():
    b1 = np.array([1.0, 0.0, 0.0])
    b2 = np.array([0.0, 1.0, 0.0])
    prod = bb_product(1, b1, 1, b2)
    im = bb.index_map(2)
    expect = np.zeros(6)
    expect[im[(1, 1, 0)]] = 0.5
    assert np.allclose(prod, expect, atol=1e-15)


def test_product_matches_monomial_oracle():
    rng = np.random.default_rng(6)
    p = rng.standard_normal(bb.n_coeffs(4))
    q = rng.standard_normal(bb.n_coeffs(2))
    got = bb_product(4, p, 2, q)
    mono = monomial_product(4, bb_to_monomial(4, p, SKEW), 2, bb_to_monomial(2, q, SKEW))
    expect = monomial_to_bb(6, mono, SKEW)
    assert np.abs(got - expect).max() < 1e-10 * max(1.0, np.abs(expect).max())


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_product_bilinear_commutative(seed):
    rng = np.random.default_rng(seed)
    p1 = rng.standard_normal(bb.n_coeffs(4))
    p2 = rng.standard_normal(bb.n_coeffs(4))
    q = rng.standard_normal(bb.n_coeffs(2))
    a, b2 = rng.standard_normal(2)
    lhs = bb_product(4, a * p1 + b2 * p2, 2, q)
    rhs = a * bb_product(4, p1, 2, q) + b2 * bb_product(4, p2, 2, q)
    assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, np.abs(rhs).max())
    sym = bb_product(2, q, 4, p1)
    assert np.abs(sym - bb_product(4, p1, 2, q)).max() < 1e-14 * max(
        1.0, np.abs(sym).max())


def test_vertex_ring_slot_examples():
    assert bb.vertex_ring(5, 1) == [
        (5, 0, 0), (4, 1, 0), (4, 0, 1), (3, 2, 0), (3, 0, 2), (3, 1, 1)]
    assert bb.vertex_ring(4, 2) == [
        (0, 4, 0), (1, 3, 0), (0, 3, 1), (2, 2, 0), (0, 2, 2), (1, 2, 1)]
    assert bb.vertex_ring(6, 3) == [
        (0, 0, 6), (1, 0, 5), (0, 1, 5), (2, 0, 4), (0, 2, 4), (1, 1, 4)]


def test_smoothness_predicates_on_raised_polynomial():
    # one global quintic split over two triangles is C1 across the edge
    rng = np.random.default_rng(7)
    tri_a = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tri_b = np.array([[1.1, 1.2], [0.0, 1.0], [1.0, 0.0]])
    mono = rng.standard_normal(21)
    ca = monomial_to_bb(5, mono, tri_a)
    cb = monomial_to_bb(5, mono, tri_b)
    g0, g1 = smoothness_gaps(5, tri_a, ca, (2, 3), tri_b, cb, (3, 2))
    scale = max(np.abs(ca).max(), np.abs(cb).max())
    assert g0 < 1e-10 * scale
    assert g1 < 1e-10 * scale
    # breaking one interior coefficient of side b trips the C1 predicate
    cb2 = cb.copy()
    cb2[bb.index_map(5)[(1, 2, 2)]] += 1.0
    _, g1b = smoothness_gaps(5, tri_a, ca, (2, 3), tri_b, cb2, (3, 2))
    assert g1b > 0.1


def test_c1_matrix_builds_the_selected_rows_alone():
    # the rows a slice selects equal those rows of the whole matrix, for
    # every ordered pair of shared slots, stacked and alone
    rng = np.random.default_rng(3)
    pairs = np.array([(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)])
    b_off = rng.standard_normal((len(pairs), 3))
    for d in (5, 6):
        full = bb.c1_matrix(d, pairs, b_off)
        assert full.shape == (len(pairs), d, bb.n_coeffs(d))
        for m in range(d):
            rows = slice(m, m + 1)
            np.testing.assert_array_equal(bb.c1_matrix(d, pairs, b_off, rows), full[:, rows])
            np.testing.assert_array_equal(bb.c1_matrix(d, pairs[1], b_off[1], rows), full[1, rows])


def test_max_degree_cap():
    with pytest.raises(bb.DegreeError):
        bb.multi_indices(11)


@pytest.mark.parametrize("d", [4, 5, 6])
@pytest.mark.parametrize("stacked", [False, True])
def test_frame_derivatives_match_cartesian_design(d, stacked):
    # differenced coefficients in each triangle's frame against the
    # Cartesian design matrices, on random well-shaped triangles of sizes
    # 0.05-1 at random points (shared by all triangles or one set each),
    # to 32 eps of each triangle's largest entry (measured at most: values
    # 0, gradients 3.0 eps, Hessians 9.3 eps)
    eps = np.finfo(float).eps
    rng = np.random.default_rng(10 * d + stacked)
    g, n, k = 9, 11, 3
    ref = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.9]])
    tri = (rng.uniform(-1, 1, (g, 1, 2)) + rng.uniform(0.05, 1.0, (g, 1, 1))
           * (ref + 0.2 * rng.standard_normal((g, 3, 2))))
    bary = rng.dirichlet(np.ones(3), size=(g, n) if stacked else n)
    C = rng.standard_normal((g, bb.n_coeffs(d), k))
    M = bb.frames(tri)
    for order in range(3):
        B = bb.design_matrices(d, bary, order=order)
        assert len(B) == order + 1
        V, G, H = derivative_matrices(d, tri, *B, *[None] * (2 - order))
        want = [[V], G, H][order]
        got = bb.frame_derivatives(d, C, B, M, orders=(order,))
        assert len(got) == len(want)
        for a, A in zip(got, want):
            w = A @ C
            scale = np.abs(w).max(axis=(1, 2), keepdims=True)
            assert np.all(np.abs(a - w) <= 32 * eps * scale)
        every = bb.frame_derivatives(d, C, B, M, orders=range(order + 1))
        np.testing.assert_array_equal(every[-len(got):], got)


@pytest.mark.parametrize("d", [4, 5, 6])
def test_cartesian_diff_twice_gives_the_hessians_of_quadratics(d):
    # the degree-d BB forms of x1^2, x1 x2 and x2^2 on random well-shaped
    # triangles of sizes 0.05-1 (coefficient (i, j, k): the blossom of
    # x^T Q x at i copies of v1, j of v2 and k of v3, with
    # sum_{r != s} u_r^T Q u_s = S^T Q S - sum_r u_r^T Q u_r): cartesian_diff
    # applied twice gives the coefficients of their constant Hessians
    # (2, 0, 0), (0, 1, 0) and (0, 0, 2), and the two mixed derivatives
    # (y of cx, x of cy) agree.  Two differences amplify roundoff by
    # d (d - 1) |M|^2, so the bounds are 32 and 4 units of
    # eps d (d - 1) |C| |M|^2 per triangle (measured at most 12.4 and 1.3
    # over 1800 triangles per degree; up to 1.2e4 eps unscaled)
    eps = np.finfo(float).eps
    rng = np.random.default_rng(d)
    g = 9
    ref = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.9]])
    tri = (rng.uniform(-1, 1, (g, 1, 2)) + rng.uniform(0.05, 1.0, (g, 1, 1))
           * (ref + 0.2 * rng.standard_normal((g, 3, 2))))
    Q = np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.5], [0.5, 0.0]], [[0.0, 0.0], [0.0, 1.0]]])
    ijk = np.array(bb.multi_indices(d), dtype=float)
    S = ijk @ tri
    vQv = np.einsum("gva,qab,gvb->gvq", tri, Q, tri)
    C = (np.einsum("gna,qab,gnb->gnq", S, Q, S) - ijk @ vQv) / (d * (d - 1))
    M = bb.frames(tri)
    cx, cy = bb.cartesian_diff(d, C, M)
    (hxx, hxy), (hyx, hyy) = bb.cartesian_diff(d - 1, cx, M), bb.cartesian_diff(d - 1, cy, M)
    assert hxx.shape == (g, bb.n_coeffs(d - 2), 3)
    unit = eps * d * (d - 1) * np.abs(C).max(axis=(1, 2)) * np.abs(M).max(axis=(1, 2)) ** 2
    unit = unit[:, None, None]
    for h, want in zip((hxx, hxy, hyy), ((2.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 2.0))):
        assert np.all(np.abs(h - np.array(want)) <= 32 * unit)
    assert np.all(np.abs(hxy - hyx) <= 4 * unit)
