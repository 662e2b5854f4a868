"""Built-in test domains, initial meshes and model problems.

The three built-in domains are the unit disk, the ellipse
x1^2 + 6.25 x2^2 = 1, and a centrally symmetric C2 domain made of two
elliptic and two circular segments that join with continuous curvature.
Each initial mesh is a wheel (wheel_mesh), built and validated on each call.
"""

import numpy as np

from .geometry import BoundaryArc, Conic, ConicDomain
from .mesh import classify_and_validate
from .solver import MongeAmpereProblem


def _ellipse_domain(k):
    """The conic x1^2 + k x2^2 = 1 as four quarter arcs."""
    b = 1.0 / np.sqrt(k)
    q = Conic((-1.0, 0.0, -k, 0.0, 0.0, 1.0))
    pts = [(1.0, 0.0), (0.0, b), (-1.0, 0.0), (0.0, -b)]
    return ConicDomain(tuple(BoundaryArc(q, pts[j], pts[(j + 1) % 4]) for j in range(4)))


def disk_domain():
    """Unit circle boundary as four quarter arcs of the same conic."""
    return _ellipse_domain(1.0)


def ellipse_domain():
    """Ellipse x1^2 + 6.25 x2^2 = 1 as four quarter arcs."""
    return _ellipse_domain(6.25)


# the C2 domain's ellipse (C2_A cos t, C2_B sin t) and its cut parameter
C2_A, C2_B, C2_T0 = 4.0, 1.3, 0.85 * np.pi


def c2_domain_params():
    """Radius and center of the osculating circle at the ellipse point t0.

    Returns (r, c1, c2) for the ellipse (a cos t, b sin t) with
    (a, b, t0) = (C2_A, C2_B, C2_T0); the C2 test domain shifts the
    ellipse down by c2 so the circle center lands on the x axis.
    Curvature kappa = a b / (a^2 sin^2 t + b^2 cos^2 t)^(3/2).
    """
    a, b, t0 = C2_A, C2_B, C2_T0
    st, ct = np.sin(t0), np.cos(t0)
    kappa = a * b / (a * a * st * st + b * b * ct * ct) ** 1.5
    r = 1.0 / kappa
    # evolute of the ellipse
    c1 = (a * a - b * b) * ct**3 / a
    c2 = (b * b - a * a) * st**3 / b
    return float(r), float(c1), float(c2)


def c2_domain():
    """Centrally symmetric C2 domain: two elliptic and two circular segments.

    The top segment is (a cos t, b sin t - c2), t in [pi - t0, t0]; the left
    cap is the osculating circle at t0 (center (c1, 0) after the shift), and
    the bottom/right pieces are the point reflections through the origin.
    """
    a, b, t0 = C2_A, C2_B, C2_T0
    r, c1, c2 = c2_domain_params()
    t1 = np.pi - t0

    def top_pt(t):
        return (a * np.cos(t), b * np.sin(t) - c2)

    z1 = top_pt(t1)
    z2 = top_pt(t0)
    z3 = (-z1[0], -z1[1])
    z4 = (-z2[0], -z2[1])

    q_top = Conic((
        -1.0 / a**2, 0.0, -1.0 / b**2, 0.0, -2.0 * c2 / b**2,
        1.0 - c2 * c2 / b**2,
    ))
    q_bot = Conic((
        -1.0 / a**2, 0.0, -1.0 / b**2, 0.0, 2.0 * c2 / b**2,
        1.0 - c2 * c2 / b**2,
    ))
    q_left = Conic((-1.0, 0.0, -1.0, 2.0 * c1, 0.0, r * r - c1 * c1))
    q_right = Conic((-1.0, 0.0, -1.0, -2.0 * c1, 0.0, r * r - c1 * c1))

    arcs = (
        BoundaryArc(q_top, z1, z2),
        BoundaryArc(q_left, z2, z3),
        BoundaryArc(q_bot, z3, z4),
        BoundaryArc(q_right, z4, z1),
    )
    return ConicDomain(arcs)


# ---------------------------------------------------------------------------
# wheel meshes: ring of pie/buffer triangles around an ordinary fan

def wheel_mesh(domain, boundary_pts, boundary_arcs, shrink=0.55):
    """Initial triangulation with one ring of pies/buffers around a hub fan
    at the origin.

    boundary_pts: ccw list of boundary vertices (on the domain arcs);
    boundary_arcs[i] is the arc index of the edge boundary_pts[i] ->
    boundary_pts[i+1].  Ring vertex i sits at shrink * (chord midpoint of
    edge i).  Every boundary vertex then has the pie-buffer-pie fan the
    dof construction expects.
    """
    b = np.asarray(boundary_pts, dtype=float)
    n = len(b)
    ring = shrink * (0.5 * (b + np.roll(b, -1, axis=0)))
    vertices = np.vstack([b, ring, np.zeros(2)])
    ctr = 2 * n
    tris = []
    for i in range(n):
        j = (i + 1) % n
        tris.append((n + i, i, j))                    # pie, interior vertex first
        tris.append((i, n + (i - 1) % n, n + i))      # buffer at boundary vertex i
        tris.append((ctr, n + (i - 1) % n, n + i))    # ordinary hub triangle
    boundary_edges = [(i, (i + 1) % n, boundary_arcs[i]) for i in range(n)]
    return classify_and_validate(domain, vertices, tris, boundary_edges)


def _ellipse_wheel_points(k):
    """Eight boundary vertices of x1^2 + k x2^2 = 1, two on each quarter arc."""
    b = 1.0 / np.sqrt(k)
    pts = [(np.cos(t), b * np.sin(t)) for t in (np.pi * j / 4 for j in range(8))]
    return pts, [j // 2 for j in range(8)]


def disk_wheel_points():
    return _ellipse_wheel_points(1.0)


def ellipse_wheel_points():
    return _ellipse_wheel_points(6.25)


def c2_wheel_points():
    """Boundary vertices for the C2 domain wheel: each elliptic arc in 4
    pieces, each circular arc in 2."""
    a, b, t0 = C2_A, C2_B, C2_T0
    n_ellipse, n_circle = 4, 2
    r, c1, c2 = c2_domain_params()
    t1 = np.pi - t0
    top = [
        (a * np.cos(t), b * np.sin(t) - c2)
        for t in np.linspace(t1, t0, n_ellipse + 1)
    ]
    cc = np.array([c1, 0.0])
    th_start = np.arctan2(top[-1][1] - cc[1], top[-1][0] - cc[0])
    th_end = np.arctan2(-top[0][1] - cc[1], -top[0][0] - cc[0])
    if th_end < th_start:
        th_end += 2 * np.pi
    left = [
        (cc[0] + r * np.cos(th), cc[1] + r * np.sin(th))
        for th in np.linspace(th_start, th_end, n_circle + 1)
    ]
    bottom = [(-p[0], -p[1]) for p in top]
    right = [(-p[0], -p[1]) for p in left]
    pts = top[:-1] + left[:-1] + bottom[:-1] + right[:-1]
    arcs = (
        [0] * n_ellipse + [1] * n_circle + [2] * n_ellipse + [3] * n_circle
    )
    return pts, arcs


# ---------------------------------------------------------------------------
# model problem data (right-hand sides and exact solutions)

def disk_exact_solution():
    """Exact convex solution exp(0.5 r^2) - exp(0.5) on the unit disk.

    Returns (value, gradient, hessian) callables; the corresponding
    Monge-Ampere datum is g = exp(r^2) (1 + r^2).
    """

    e_half = np.exp(0.5)

    def value(x):
        x = np.asarray(x, dtype=float)
        return np.exp(0.5 * (x[..., 0] ** 2 + x[..., 1] ** 2)) - e_half

    def gradient(x):
        x = np.asarray(x, dtype=float)
        w = np.exp(0.5 * (x[..., 0] ** 2 + x[..., 1] ** 2))
        return np.stack([w * x[..., 0], w * x[..., 1]], axis=-1)

    def hessian(x):
        x = np.asarray(x, dtype=float)
        x1, x2 = x[..., 0], x[..., 1]
        w = np.exp(0.5 * (x1**2 + x2**2))
        h11 = w * (1 + x1 * x1)
        h12 = w * x1 * x2
        h22 = w * (1 + x2 * x2)
        return np.stack(
            [np.stack([h11, h12], axis=-1), np.stack([h12, h22], axis=-1)],
            axis=-2,
        )

    return value, gradient, hessian


def _disk_g(x):
    x = np.asarray(x, dtype=float)
    r2 = x[..., 0] ** 2 + x[..., 1] ** 2
    return np.exp(r2) * (1.0 + r2)


def _ellipse_sin_g(x):
    return np.sin(np.pi * np.abs(np.asarray(x, dtype=float)[..., 0])) + 1.1


_BUILTIN = {    # domain, wheel boundary points, ring shrink, datum g, exact solution
    "disk": (disk_domain, disk_wheel_points, 0.55, _disk_g, disk_exact_solution),
    "ellipse-exp": (ellipse_domain, ellipse_wheel_points, 0.55,
                    lambda x: np.exp(np.asarray(x, dtype=float)[..., 0]), None),
    "ellipse-sin": (ellipse_domain, ellipse_wheel_points, 0.55, _ellipse_sin_g, None),
    "c2-domain": (c2_domain, c2_wheel_points, 0.5,
                  lambda x: np.ones(np.asarray(x, dtype=float).shape[:-1]), None),
}
PROBLEM_IDS = tuple(_BUILTIN)


def _row(problem_id):
    if problem_id not in _BUILTIN:
        raise KeyError(f"unknown problem id {problem_id!r}; choose from {PROBLEM_IDS}")
    return _BUILTIN[problem_id]


def builtin_domain(problem_id):
    """Analytic domain and validated initial mesh of a built-in problem."""
    domain_fn, points_fn, shrink, _, _ = _row(problem_id)
    domain = domain_fn()
    return domain, wheel_mesh(domain, *points_fn(), shrink=shrink)


def problem_g(problem_id):
    """The positive Monge-Ampere datum g of a built-in problem."""
    return _row(problem_id)[3]


def problem_exact(problem_id):
    """The exact solution (value, gradient, hessian) of a built-in problem,
    or None where it is not known."""
    exact_fn = _row(problem_id)[4]
    return None if exact_fn is None else exact_fn()


def builtin_problem(problem_id):
    """The MongeAmpereProblem of a built-in problem, read off its row."""
    domain, mesh = builtin_domain(problem_id)
    return MongeAmpereProblem(domain, mesh, problem_g(problem_id),
                              exact=problem_exact(problem_id), name=problem_id)
