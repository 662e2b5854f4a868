"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete.  The qualitative convergence studies (criteria 5 and 6) run one
level past the nominal table depth because a consecutive-level error rate
at level L needs the level L+1 solution.
"""

import time

import numpy as np
import pytest

from conicfem import assembly as asm
from conicfem import bernstein as bb
from conicfem import solver as sol
from conicfem.mesh import refine_uniform
from conicfem.problems import builtin_domain, disk_exact_solution, problem_g
from conicfem.space import build_space, corner_block

from _oracles import (basis_support, bb_product, boundary_sample_matrix, domain_area,
                      eval_bb, extraction_matrix, smoothness_residual_matrix,
                      space_dimension_by_rank, star)


def _line(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def tp1():
    dom, mesh = builtin_domain("disk")
    prob = sol.MongeAmpereProblem(dom, mesh, problem_g("disk"),
                                  exact=disk_exact_solution(), name="tp1")
    t0 = time.time()
    reports, u = sol.multilevel_run(prob, 4)
    return reports, u, time.time() - t0


@pytest.fixture(scope="module")
def tp2():
    dom, mesh = builtin_domain("ellipse-exp")
    prob = sol.MongeAmpereProblem(dom, mesh, problem_g("ellipse-exp"), name="tp2")
    t0 = time.time()
    reports, u = sol.multilevel_run(prob, 4)
    return reports, u, time.time() - t0


@pytest.fixture(scope="module")
def tp3():
    dom, mesh = builtin_domain("ellipse-sin")
    prob = sol.MongeAmpereProblem(dom, mesh, problem_g("ellipse-sin"), name="tp3")
    reports, u = sol.multilevel_run(prob, 5)
    return reports, u


@pytest.fixture(scope="module")
def tp5():
    dom, mesh = builtin_domain("c2-domain")
    prob = sol.MongeAmpereProblem(dom, mesh, problem_g("c2-domain"), name="tp5")
    reports, u = sol.multilevel_run(prob, 5)
    return reports, u


def test_criterion_1_space_correctness():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst_smooth = worst_bd = worst_dual = 0.0
    dims_ok = True
    details = []
    for pid in ("disk", "ellipse-exp"):
        _, mesh = builtin_domain(pid)
        for mesh_l in (mesh, refine_uniform(mesh)):
            space = build_space(mesh_l)
            D = rng.standard_normal((space.dimension, 100))
            R, maps = smoothness_residual_matrix(space)
            coeff_scale = np.zeros(100)
            for G in maps:
                coeff_scale = np.maximum(coeff_scale, np.abs(G @ D).max(axis=0))
            smooth = np.abs(R @ D).max(axis=0) / coeff_scale
            worst_smooth = max(worst_smooth, smooth.max())
            Bm = boundary_sample_matrix(space, per_arc=30)
            bd = np.abs(Bm @ D).max(axis=0) / np.abs(D).max(axis=0)
            worst_bd = max(worst_bd, bd.max())
            E = extraction_matrix(space)
            worst_dual = max(worst_dual,
                             np.abs(E - np.eye(space.dimension)).max())
            dims_ok = dims_ok and (
                space_dimension_by_rank(mesh_l) == space.dimension)
            details.append(f"{pid} L{mesh_l.level} dim={space.dimension}")
    elapsed = time.time() - t0
    ok = (worst_smooth < 1e-10 and worst_bd < 1e-10
          and worst_dual < 1e-12 and dims_ok and elapsed <= 60.0)
    _line(1, ok,
          f"smoothness {worst_smooth:.2e}, boundary {worst_bd:.2e}, "
          f"duality {worst_dual:.2e}, rank-oracle match {dims_ok}, "
          f"{elapsed:.1f}s ({'; '.join(details)})")


def test_criterion_2_factor_ring_round_trip():
    rng = np.random.default_rng(7)
    im2, im4, im6 = bb.index_map(2), bb.index_map(4), bb.index_map(6)
    ring6 = [im6[g] for g in bb.vertex_ring(6, 1)]
    ring4 = [im4[g] for g in bb.vertex_ring(4, 1)]
    t0 = time.time()
    worst = 0.0
    for _ in range(1000):
        p = rng.standard_normal(15)
        q110, q101, q011 = rng.standard_normal(3)
        q = np.zeros(6)
        q[im2[(2, 0, 0)]] = 1.0
        q[im2[(1, 1, 0)]] = q110
        q[im2[(1, 0, 1)]] = q101
        q[im2[(0, 1, 1)]] = q011
        a = bb_product(4, p, 2, q)
        c = np.linalg.solve(corner_block(bb.product_matrix(4, 2, q)), a[ring6])
        worst = max(worst, np.abs(c - p[ring4]).max()
                    / max(1.0, np.abs(p[ring4]).max()))
    elapsed = time.time() - t0
    ok = worst < 1e-12 and elapsed <= 1.0
    _line(2, ok, f"1000 round trips, worst {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_disk_tables(tp1):
    reports, _, elapsed = tp1
    r4 = reports[3].rates
    rate_ok = (abs(r4["L2"] - 5.6) <= 0.7 and abs(r4["H1"] - 4.7) <= 0.7
               and abs(r4["H2"] - 3.8) <= 0.7)
    l2_l3 = reports[2].errors[0]
    err_ok = 6.79e-9 / 10 <= l2_l3 <= 6.79e-9 * 10
    m = [rep.iterations for rep in reports]
    m_ok = m[0] <= 3 and all(v <= 2 for v in m[1:])
    ok = rate_ok and err_ok and m_ok and elapsed <= 600.0
    _line(3, ok,
          f"L4 rates ({r4['L2']:.2f},{r4['H1']:.2f},{r4['H2']:.2f}) vs "
          f"(5.6,4.7,3.8); L3 L2 err {l2_l3:.2e} vs 6.79e-9; m={m}; "
          f"{elapsed:.0f}s")


def test_criterion_4_ellipse_exp_tables(tp2):
    reports, _, elapsed = tp2
    r_rate = reports[3].rates["R"]
    l2_rates = [rep.eps_rates.get("L2") for rep in reports[1:3]]
    best_l2 = max(r for r in l2_rates if r is not None)
    ok = abs(r_rate - 3.8) <= 0.7 and best_l2 >= 4.5 and elapsed <= 600.0
    _line(4, ok,
          f"residual rate {r_rate:.2f} vs 3.8; eps L2 rate by level 3 "
          f"{best_l2:.2f} >= 4.5; {elapsed:.0f}s")


def test_criterion_5_ellipse_sin_tables(tp3):
    reports, _ = tp3
    h2_rate = reports[3].eps_rates["H2"]
    r_rate = reports[3].rates["R"]
    ok = 1.0 <= h2_rate <= 2.2 and 1.2 <= r_rate <= 1.8
    _line(5, ok, f"level-4 H2 eps-rate {h2_rate:.2f} in [1.0,2.2]; "
                 f"residual rate {r_rate:.2f} in [1.2,1.8]")


def test_criterion_6_c2_domain_tables(tp5):
    reports, _ = tp5
    l2_rate = reports[3].eps_rates["L2"]
    h2_rate = reports[3].eps_rates["H2"]
    ok = l2_rate >= 3.3 and 1.5 <= h2_rate <= 2.5
    _line(6, ok, f"eps L2 rate {l2_rate:.2f} >= 3.3; "
                 f"H2 eps-rate {h2_rate:.2f} in [1.5,2.5]")


def test_criterion_7_linearization():
    # the FD remainder is exactly t*det(Hv), so a relative tolerance is
    # meaningful only for unit-scale perturbations: normalize both patches
    # to unit Hessian scale at the sample point and skip near-orthogonal
    # pairs whose directional derivative vanishes
    rng = np.random.default_rng(55)
    tri = np.array([[0.0, 0.0], [1.1, 0.1], [0.2, 1.2]])
    worst = 0.0
    t = 1e-6
    n_checked = 0
    while n_checked < 50:
        cu = rng.standard_normal(bb.n_coeffs(5))
        cv = rng.standard_normal(bb.n_coeffs(5))
        x = rng.dirichlet((2, 2, 2)) @ tri
        Hu = eval_bb(5, cu, tri, x, order=2)
        Hv = eval_bb(5, cv, tri, x, order=2)
        Hu = Hu / np.linalg.norm(Hu)
        Hv = Hv / np.linalg.norm(Hv)
        cof = np.array([[Hu[1, 1], -Hu[0, 1]], [-Hu[0, 1], Hu[0, 0]]])
        exact = float(np.trace(cof @ Hv))
        if abs(exact) < 1e-2:
            continue
        n_checked += 1
        fd = (np.linalg.det(Hu + t * Hv) - np.linalg.det(Hu)) / t
        worst = max(worst, abs(fd - exact) / abs(exact))
    # exact identity on quadratics: det(H + V) - det H - det V = tr(cof(H) V)
    quad_ok = True
    for _ in range(50):
        H = rng.standard_normal((2, 2)); H = H + H.T
        V = rng.standard_normal((2, 2)); V = V + V.T
        cof = np.array([[H[1, 1], -H[0, 1]], [-H[0, 1], H[0, 0]]])
        lhs = np.linalg.det(H + V) - np.linalg.det(H) - np.linalg.det(V)
        if abs(lhs - np.trace(cof @ V)) > 1e-12 * max(1.0, abs(lhs)):
            quad_ok = False
    ok = worst <= 1e-4 and quad_ok
    _line(7, ok, f"Frechet FD worst rel err {worst:.2e} <= 1e-4; "
                 f"cofactor identity exact: {quad_ok}")


def test_criterion_8_geometry_and_poisson(tight_cg):
    _, dmesh = builtin_domain("disk")
    dspace = build_space(refine_uniform(dmesh))
    dquad = asm.TriangleQuadrature(dspace)
    area_disk = domain_area(dquad)
    _, emesh = builtin_domain("ellipse-exp")
    espace = build_space(refine_uniform(emesh))
    equad = asm.TriangleQuadrature(espace)
    area_ell = domain_area(equad)
    a_ok = (abs(area_disk - np.pi) <= 1e-9 * np.pi
            and abs(area_ell - 0.4 * np.pi) <= 1e-9 * 0.4 * np.pi)
    rhs = asm.assemble_rhs(asm.pointwise(lambda x: 2.0 * np.ones(len(x))), dquad)
    res = asm.solve_sparse(asm.SparseSystem(
        asm.assemble(asm.constant_matrix(np.eye(2)), dquad), -rhs))
    u = dspace.spline(res.dofs)
    ref = (
        lambda x: 0.5 * (x[:, 0] ** 2 + x[:, 1] ** 2 - 1.0),
        lambda x: x.copy(),
        lambda x: np.tile(np.eye(2), (len(x), 1, 1)),
    )
    l2 = asm.error_norms(u, dquad, ref=ref)[0]
    ok = a_ok and l2 <= 1e-9
    _line(8, ok,
          f"disk area err {abs(area_disk - np.pi) / np.pi:.2e}, ellipse area "
          f"err {abs(area_ell - 0.4 * np.pi) / (0.4 * np.pi):.2e}, Poisson "
          f"L2 err {l2:.2e}")


def test_criterion_9_locality():
    ok = True
    worst_detail = ""
    for pid in ("disk", "ellipse-exp"):
        _, mesh = builtin_domain(pid)
        space = build_space(mesh)
        for lam in range(space.dimension):
            supp = basis_support(space, lam)
            for t in supp:
                if not supp <= star(mesh, [t], level=3):
                    ok = False
                    worst_detail = f"dof {lam} of {pid} escapes st3({t})"
    _line(9, ok, worst_detail or "all dual supports within st3 of every "
                                 "triangle they touch (disk + ellipse)")
