import hashlib
import json

import numpy as np
import pytest

from conicfem import geometry as geo
from conicfem.mesh import mesh_to_dict
from conicfem.problems import (PROBLEM_IDS, builtin_domain, builtin_problem, c2_domain,
                               c2_domain_params, disk_domain,
                               disk_exact_solution, ellipse_domain, problem_exact,
                               problem_g)

from _oracles import corner_is_tangent


def _param_curvature_fd(a, b, t, h=1e-4):
    def r(tt):
        return np.array([a * np.cos(tt), b * np.sin(tt)])
    d1 = (r(t + h) - r(t - h)) / (2 * h)
    d2 = (r(t + h) - 2 * r(t) + r(t - h)) / (h * h)
    num = abs(d1[0] * d2[1] - d1[1] * d2[0])
    return num / np.linalg.norm(d1) ** 3


def _implicit_curvature(conic, x):
    qx, qy = geo.grad_conic(conic, x)
    k = conic.coeffs
    qxx, qxy, qyy = 2 * k[0], k[1], 2 * k[2]
    num = qy * qy * qxx - 2 * qx * qy * qxy + qx * qx * qyy
    return abs(num) / (qx * qx + qy * qy) ** 1.5


def test_osculating_circle_parameters():
    a, b, t0 = 4.0, 1.3, 0.85 * np.pi
    r, c1, c2 = c2_domain_params()
    # radius against a finite-difference curvature of the parameterization
    kappa_fd = _param_curvature_fd(a, b, t0)
    assert abs(1.0 / kappa_fd - r) < 1e-5 * r
    # center: walk from the point along the unit normal by the radius
    p = np.array([a * np.cos(t0), b * np.sin(t0)])
    tang = np.array([-a * np.sin(t0), b * np.cos(t0)])
    n = np.array([-tang[1], tang[0]]) / np.linalg.norm(tang)
    if np.dot(n, -p) < 0:
        n = -n   # curvature center lies on the inner side
    center = p + r * n
    assert np.allclose(center, (c1, c2), atol=1e-10)


def test_c2_domain_joins_with_continuous_curvature():
    dom = c2_domain()
    n = len(dom.arcs)
    for j, z in enumerate(dom.corners):
        arc_in = dom.arcs[(j - 1) % n]
        arc_out = dom.arcs[j]
        k_in = _implicit_curvature(arc_in.conic, z)
        k_out = _implicit_curvature(arc_out.conic, z)
        assert abs(k_in - k_out) <= 1e-8 * max(k_in, k_out)
        assert corner_is_tangent(dom, j)


def test_disk_g_matches_exact_solution_determinant():
    val, grad, hess = disk_exact_solution()
    g = problem_g("disk")
    rng = np.random.default_rng(0)
    h = 1e-5
    for _ in range(30):
        x = rng.uniform(-0.6, 0.6, 2)
        H = hess(x[None, :])[0]
        assert abs(np.linalg.det(H) - g(x[None, :])[0]) < 1e-12 * max(
            1.0, abs(g(x[None, :])[0]))
        # independent check of the stated Hessian by finite differences
        fd = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                e_i = np.zeros(2); e_i[i] = h
                e_j = np.zeros(2); e_j[j] = h
                fd[i, j] = (
                    val(x + e_i + e_j) - val(x + e_i - e_j)
                    - val(x - e_i + e_j) + val(x - e_i - e_j)
                ) / (4 * h * h)
        assert np.abs(fd - H).max() < 1e-5 * max(1.0, np.abs(H).max())


def test_g_fields_positive_and_shapes():
    rng = np.random.default_rng(1)
    pts = rng.uniform(-0.3, 0.3, (50, 2))
    for pid in PROBLEM_IDS:
        g = problem_g(pid)
        vals = g(pts)
        assert vals.shape == (50,)
        assert np.all(vals > 0)
    assert np.all(problem_g("ellipse-sin")(pts) >= 0.1)


def test_builtin_domains_load_and_validate():
    for pid in PROBLEM_IDS:
        dom, mesh = builtin_domain(pid)
        assert mesh.level == 1
        assert mesh.n_triangles % 3 == 0   # wheel construction
    with pytest.raises(KeyError):
        builtin_domain("nonesuch")


def test_unknown_problem_id_names_the_choices():
    for fn in (builtin_domain, builtin_problem, problem_g, problem_exact):
        with pytest.raises(KeyError) as err:
            fn("nope")
        assert err.value.args == (f"unknown problem id 'nope'; choose from {PROBLEM_IDS}",)


@pytest.mark.parametrize("pid", PROBLEM_IDS)
def test_builtin_problem_is_its_row(pid):
    prob = builtin_problem(pid)
    domain, mesh = builtin_domain(pid)
    assert prob.name == pid and prob.g is problem_g(pid)
    assert mesh_to_dict(prob.initial_mesh) == mesh_to_dict(mesh)
    assert geo.domain_to_dict(prob.domain) == geo.domain_to_dict(domain)
    assert (prob.exact is None) == (problem_exact(pid) is None)


def test_only_the_disk_has_an_exact_solution():
    assert [pid for pid in PROBLEM_IDS if problem_exact(pid) is not None] == ["disk"]
    x = np.array([[0.3, -0.2]])
    assert [f(x).tolist() for f in problem_exact("disk")] == [
        f(x).tolist() for f in disk_exact_solution()]


def test_disk_and_ellipse_conics():
    dom = disk_domain()
    assert len(dom.arcs) == 4
    for arc in dom.arcs:
        assert np.allclose(arc.conic.coeffs, (-1, 0, -1, 0, 0, 1))
    edom = ellipse_domain()
    for arc in edom.arcs:
        assert np.allclose(arc.conic.coeffs, (-1, 0, -6.25, 0, 0, 1))
    assert np.allclose(edom.interior_angles, np.pi)


def test_builtin_meshes_are_pinned():
    # SHA-256 of each initial mesh's file text: a change to the wheel code
    # that moves a vertex, a slot or an arc of a built-in mesh fails here
    ellipse = "d940027b5a6e0d4597c63093f2064053fb9cbb0b7a5c6f812dbf9f6febf8a3d8"
    digests = {
        "disk": "059fa46beffda9dc3f17427042f36b06d88bbbeb957ddab456388a4af2d7b2c4",
        "ellipse-exp": ellipse,
        "ellipse-sin": ellipse,
        "c2-domain": "0c27a564f0d237bc5285e3ae56a76bc85c874fd8c3c6ae8028a3787ce400f75a",
    }
    for pid in PROBLEM_IDS:
        text = json.dumps(mesh_to_dict(builtin_domain(pid)[1]), indent=1)
        assert hashlib.sha256(text.encode()).hexdigest() == digests[pid], pid
