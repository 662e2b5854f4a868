import numpy as np
import pytest

from conicfem import assembly as asm
from conicfem.geometry import BoundaryArc, Conic, ConicDomain
from conicfem.mesh import refine_uniform
from conicfem.problems import builtin_domain, disk_domain, disk_wheel_points, wheel_mesh
from conicfem.space import build_space

from _oracles import TIGHT_RTOL


@pytest.fixture
def tight_cg(monkeypatch):
    """Every CG solve (assembly.Factors.solve) asked for the relative
    residual TIGHT_RTOL (1e-13), not KRYLOV_RTOL (1e-7): for the tests that
    check a solution or its residual near roundoff."""
    monkeypatch.setattr(asm, "KRYLOV_RTOL", TIGHT_RTOL)


@pytest.fixture(scope="session")
def disk():
    return builtin_domain("disk")


@pytest.fixture(scope="session")
def ellipse():
    return builtin_domain("ellipse-exp")


@pytest.fixture(scope="session")
def c2dom():
    return builtin_domain("c2-domain")


@pytest.fixture(scope="session")
def disk_mesh(disk):
    return disk[1]


@pytest.fixture(scope="session")
def disk_mesh2(disk_mesh):
    return refine_uniform(disk_mesh)


@pytest.fixture(scope="session")
def ellipse_mesh(ellipse):
    return ellipse[1]


@pytest.fixture(scope="session")
def ellipse_mesh2(ellipse_mesh):
    return refine_uniform(ellipse_mesh)


@pytest.fixture(scope="session")
def hierarchies():
    """Levels 1-3 of the disk, ellipse-exp and c2-domain meshes."""
    out = {}
    for pid in ("disk", "ellipse-exp", "c2-domain"):
        meshes = [builtin_domain(pid)[1]]
        while len(meshes) < 3:
            meshes.append(refine_uniform(meshes[-1]))
        out[pid] = meshes
    return out


@pytest.fixture(scope="session")
def disk_space(disk_mesh):
    return build_space(disk_mesh)


@pytest.fixture(scope="session")
def disk_space2(disk_mesh2):
    return build_space(disk_mesh2)


@pytest.fixture(scope="session")
def ellipse_space(ellipse_mesh):
    return build_space(ellipse_mesh)


@pytest.fixture(scope="session")
def c2_space(c2dom):
    return build_space(c2dom[1])


def make_lens_domain(radius=1.25, offset=0.75):
    """Lens bounded by two circular arcs crossing at non-tangent corners."""
    half_width = np.sqrt(radius**2 - offset**2)
    q_low = Conic((-1.0, 0.0, -1.0, 0.0, -2.0 * offset,
                   radius**2 - offset**2))   # circle centered (0, -offset)
    q_up = Conic((-1.0, 0.0, -1.0, 0.0, 2.0 * offset,
                  radius**2 - offset**2))    # circle centered (0, +offset)
    arcs = (
        BoundaryArc(q_low, (half_width, 0.0), (-half_width, 0.0)),
        BoundaryArc(q_up, (-half_width, 0.0), (half_width, 0.0)),
    )
    return ConicDomain(arcs)


def lens_boundary_points(domain, n_per_arc=3):
    radius, offset = 1.25, 0.75
    w = np.sqrt(radius**2 - offset**2)
    th0 = np.arctan2(0.0 - (-offset), w)
    th1 = np.pi - th0
    top = [(radius * np.cos(t), -offset + radius * np.sin(t))
           for t in np.linspace(th0, th1, n_per_arc + 1)]
    bottom = [(-p[0], -p[1]) for p in top]
    pts = top[:-1] + bottom[:-1]
    arcs = [0] * n_per_arc + [1] * n_per_arc
    return pts, arcs


@pytest.fixture(scope="session")
def lens_mesh():
    dom = make_lens_domain()
    pts, arcs = lens_boundary_points(dom)
    return wheel_mesh(dom, pts, arcs, shrink=0.45)


@pytest.fixture(scope="session")
def lens_space(lens_mesh):
    return build_space(lens_mesh)


def _wheel_data(pts, arcs, shrink=0.55):
    """Vertices, triangles and boundary edges of problems.wheel_mesh (centre
    at the origin), before validation."""
    b = np.asarray(pts, dtype=float)
    n = len(b)
    ring = shrink * (0.5 * (b + np.roll(b, -1, axis=0)))
    tris = []
    for i in range(n):
        tris += [(n + i, i, (i + 1) % n), (i, n + (i - 1) % n, n + i),
                 (2 * n, n + (i - 1) % n, n + i)]
    return np.vstack([b, ring, [0.0, 0.0]]), tris, [(i, (i + 1) % n, arcs[i]) for i in range(n)]


@pytest.fixture(scope="session")
def wheels():
    """Raw wheel meshes (domain, vertices, triangles, boundary edges) of
    the disk, and of the disk with its lower-right quarter arc replaced by
    a concave circular arc ("circle-bite", centre (1, -1)) or by a
    hyperbola branch ("hyperbola-bite", 2(x-y)^2 - (x+y)^2 = 1) through
    (0, -1) and (1, 0).  The bites fail condition (e), respectively (d),
    first at pie 18: its rays run through the concave side of the conic."""
    pts, arcs = disk_wheel_points()
    out = {"disk": (disk_domain(), *_wheel_data(pts, arcs))}
    circle = Conic((-1.0, 0.0, -1.0, 0.0, 0.0, 1.0))
    corners = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
    for name, bite, mid in (
            ("circle-bite", Conic((1.0, 0.0, 1.0, -2.0, 2.0, 1.0)),
             (1.0 - np.sqrt(0.5), np.sqrt(0.5) - 1.0)),
            ("hyperbola-bite", Conic((1.0, -6.0, 1.0, 0.0, 0.0, -1.0)),
             (np.sqrt(2.0) / 4.0, -np.sqrt(2.0) / 4.0))):
        dom = ConicDomain(tuple(BoundaryArc(circle, corners[j], corners[j + 1])
                                for j in range(3))
                          + (BoundaryArc(bite, corners[3], corners[0]),))
        out[name] = (dom, *_wheel_data(pts[:7] + [mid], arcs))
    return out
