import numpy as np
import pytest

from conicfem.geometry import BoundaryArc, Conic, ConicDomain
from conicfem.mesh import refine_uniform
from conicfem.problems import builtin_domain, wheel_mesh
from conicfem.space import build_space


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
