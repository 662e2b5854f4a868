"""Implicit conics, boundary arcs and piecewise-conic domains.

A boundary is an ordered, counter-clockwise chain of arcs, each the zero
set of a genuine conic (an irreducible implicit quadratic; straight
pieces are rejected).  Arcs are kept purely implicit: point queries are
answered by ray intersection, never by a stored parameterization.  All
values are immutable after construction and all operations are pure
functions.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .bernstein import index_map


class GeometryError(ValueError):
    """Invalid or degenerate geometric input.  `row` is the first failing
    row of a batched query (see arc_point_on_ray), None otherwise."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


@dataclass(frozen=True)
class Conic:
    """Implicit curve q(x) = k1 x1^2 + k2 x1 x2 + k3 x2^2 + k4 x1 + k5 x2 + k6,
    a genuine conic: the quadratic part is nonzero and q is irreducible.
    """

    coeffs: tuple

    def __post_init__(self):
        k = np.asarray(self.coeffs, dtype=float)
        if k.shape != (6,):
            raise GeometryError("conic needs 6 coefficients")
        if not np.isfinite(k).all():
            raise GeometryError(f"conic coefficients {k.tolist()} are not all finite")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in k))
        scale = np.abs(k).max()
        if scale == 0.0:
            raise GeometryError("zero conic")
        if np.abs(k[:3]).max() <= 1e-12 * scale:
            raise GeometryError("conic has zero quadratic part: straight boundary pieces "
                                "are not supported")
        if not _is_irreducible(k):
            raise GeometryError("reducible conic (factors into lines)")

    def negated(self):
        return Conic(tuple(-c for c in self.coeffs))

    def __array__(self, dtype=None, copy=None):     # a Conic is a k of the conic functions
        return np.array(self.coeffs, dtype=dtype)


def _is_irreducible(k):
    """A quadratic factors into (possibly complex) linear forms iff the
    3x3 symmetric matrix of the form is singular."""
    k = np.asarray(k, dtype=float) / np.abs(k).max()
    m = np.array(
        [
            [k[0], k[1] / 2, k[3] / 2],
            [k[1] / 2, k[2], k[4] / 2],
            [k[3] / 2, k[4] / 2, k[5]],
        ]
    )
    return abs(np.linalg.det(m)) > 1e-12


def _aligned(k, ndim):
    """k (6,) or (n, 6) as ndim axes, to broadcast against points (..., 2)."""
    k = np.asarray(k, dtype=float)
    return k.reshape(k.shape[:-1] + (1,) * (ndim - k.ndim) + (6,))


def eval_conic(k, x):
    """Value of the implicit quadratic k at a point or points x (..., 2).
    k, here and in every conic function, is one conic's coefficients (6,)
    or rows of them (n, 6) with row i for the points x[i]."""
    x = np.asarray(x, dtype=float)
    k = np.moveaxis(_aligned(k, x.ndim), -1, 0)
    x1, x2 = x[..., 0], x[..., 1]
    return (
        k[0] * x1 * x1 + k[1] * x1 * x2 + k[2] * x2 * x2
        + k[3] * x1 + k[4] * x2 + k[5]
    )


def grad_conic(k, x):
    """Gradient of the implicit quadratic k at a point or points x (..., 2)."""
    x = np.asarray(x, dtype=float)
    k = np.moveaxis(_aligned(k, x.ndim), -1, 0)
    x1, x2 = x[..., 0], x[..., 1]
    return np.stack(
        [2 * k[0] * x1 + k[1] * x2 + k[3], k[1] * x1 + 2 * k[2] * x2 + k[4]],
        axis=-1,
    )


def gradients_parallel(g1, g2, tol=1e-10):
    """True where the gradients g1, g2 (..., 2) are parallel up to tol
    relative: the curves through a point with these gradients share a
    tangent line there."""
    cross = np.abs(g1[..., 0] * g2[..., 1] - g1[..., 1] * g2[..., 0])
    return cross <= tol * np.sqrt(np.vecdot(g1, g1)) * np.sqrt(np.vecdot(g2, g2))


def conic_scale(q, x):
    """Magnitude scale of q near x, for relative on-curve tolerances."""
    k = np.abs(np.asarray(q.coeffs))
    x = np.asarray(x, dtype=float)
    r = max(1.0, float(np.abs(x).max()))
    return float(k[0] * r * r + k[1] * r * r + k[2] * r * r + k[3] * r + k[4] * r + k[5])


def point_on_conic(q, x, tol=1e-12):
    return abs(eval_conic(q.coeffs, x)) <= tol * conic_scale(q, x)


@dataclass(frozen=True)
class BoundaryArc:
    """Open arc of a conic between two endpoints, oriented counter-clockwise
    around the domain (domain on the left when walking start -> end).

    The stored conic satisfies q > 0 on the domain side near the arc.
    """

    conic: Conic
    start: tuple
    end: tuple

    def __post_init__(self):
        s = np.asarray(self.start, dtype=float)
        e = np.asarray(self.end, dtype=float)
        object.__setattr__(self, "start", (float(s[0]), float(s[1])))
        object.__setattr__(self, "end", (float(e[0]), float(e[1])))
        if np.linalg.norm(e - s) < 1e-14 * max(1.0, np.abs(s).max()):
            raise GeometryError("degenerate arc: coincident endpoints")
        for z in (s, e):
            if not point_on_conic(self.conic, z):
                raise GeometryError(
                    f"arc endpoint {tuple(z.tolist())} not on conic "
                    f"(|q| = {abs(eval_conic(self.conic.coeffs, z)):.3e})"
                )


def arc_midpoint(arc):
    """A point on the arc near the chord midpoint (Newton projection)."""
    x = 0.5 * (np.asarray(arc.start) + np.asarray(arc.end))
    for _ in range(60):
        qv = eval_conic(arc.conic.coeffs, x)
        g = grad_conic(arc.conic.coeffs, x)
        gn = float(g @ g)
        if gn == 0.0:
            raise GeometryError("vanishing conic gradient while projecting")
        step = -qv / gn * g
        x = x + step
        if np.linalg.norm(step) < 1e-15 * max(1.0, np.linalg.norm(x)):
            break
    if not point_on_conic(arc.conic, x, tol=1e-10):
        raise GeometryError("arc midpoint projection failed")
    return x


def normalize_arc_sign(arc):
    """Flip the conic sign if needed so the domain side has q > 0.

    Uses the counter-clockwise orientation: at the arc midpoint the outward
    normal is the right-hand side of the travel direction, and the normal
    derivative of q must be negative there.  Idempotent.
    """
    x = arc_midpoint(arc)
    g = grad_conic(arc.conic.coeffs, x)
    gn = np.linalg.norm(g)
    if gn == 0.0:
        raise GeometryError("vanishing conic gradient on arc")
    chord = np.asarray(arc.end) - np.asarray(arc.start)
    tang = np.array([-g[1], g[0]])
    if tang @ chord < 0:
        tang = -tang
    outward = np.array([tang[1], -tang[0]])
    if g @ outward < 0:
        return arc
    return BoundaryArc(arc.conic.negated(), arc.start, arc.end)


def arc_point_on_ray(k, origin, through):
    """Intersection of the conic k with the ray origin -> through (extended).

    origin and through are points (2,) or rows of points (n, 2), broadcast
    against each other, and k one conic or a row per ray; the result has
    their broadcast shape.  Each `through` must lie between its origin and
    the arc; the quadratic in the ray parameter must then have exactly one
    admissible root at or beyond `through`.  Anything else is reported as
    a geometry error (a violation of the star-shapedness the construction
    relies on) for the first failing row, whose index is the error's
    `row`.  Rows do not affect one another: each gets the value, or the
    message, it gets alone.
    """
    origin = np.asarray(origin, dtype=float)
    through = np.asarray(through, dtype=float)
    shape = np.broadcast_shapes(origin.shape, through.shape)
    o = np.broadcast_to(origin, shape).reshape(-1, 2)
    d = (through - origin).reshape(-1, 2)
    k = np.broadcast_to(_aligned(k, len(shape)), shape[:-1] + (6,)).reshape(-1, 6)
    with np.errstate(all="ignore"):
        # float_power and vecdot round as the scalar d[0] ** 2 and g @ d do
        a2 = (k[:, 0] * np.float_power(d[:, 0], 2) + k[:, 1] * d[:, 0] * d[:, 1]
              + k[:, 2] * np.float_power(d[:, 1], 2))
        a1 = np.vecdot(grad_conic(k, o), d)
        a0 = eval_conic(k, o)
        linear = np.abs(a2) < 1e-15 * np.maximum(np.maximum(np.abs(a1), np.abs(a0)), 1.0)
        disc = a1 * a1 - 4 * a2 * a0
        sq = np.sqrt(disc)
        t1 = np.where(linear, -a0 / a1, (-a1 - sq) / (2 * a2))
        t2 = (-a1 + sq) / (2 * a2)
        ok1 = (t1 >= 1.0 - 1e-9) & ~(linear & (a1 == 0.0))
        ok2 = (t2 >= 1.0 - 1e-9) & ~linear
        found = ok1.astype(int) + ok2
        x = o + np.where(ok1, t1, t2)[:, None] * d
        # polish with one Newton step along the ray to kill rounding
        g1 = np.vecdot(grad_conic(k, x), d)
        x = np.where((g1 != 0.0)[:, None], x + (-eval_conic(k, x) / g1)[:, None] * d, x)
    degenerate = np.sqrt(np.vecdot(d, d)) < 1e-15
    no_root = ~linear & (disc < 0)
    double = (found == 2) & (np.abs(t1 - t2) < 1e-12)
    bad = degenerate | no_root | ((found != 1) & ~double)
    if bad.any():
        r = int(np.argmax(bad))
        if degenerate[r]:
            message = "ray direction degenerate"
        elif no_root[r]:
            message = "ray does not reach the arc (no real root)"
        else:
            message = (f"expected one ray/arc crossing beyond the through point, "
                       f"found {found[r]} (star-shapedness violated?)")
        raise GeometryError(message, row=r)
    return x.reshape(shape)


def conic_bb_form(k, tri):
    """Degree-2 BB coefficients (..., 6) of the conic k over a triangle
    (3, 2), or over each of a stack of them (..., 3, 2) (exact).

    Corner coefficients are values at the vertices; edge coefficients come
    from midpoint values.  Ordering follows bernstein.multi_indices(2):
    (200, 110, 101, 020, 011, 002).
    """
    v1, v2, v3 = np.moveaxis(np.asarray(tri, dtype=float), -2, 0)
    c200, c020, c002 = eval_conic(k, v1), eval_conic(k, v2), eval_conic(k, v3)
    c110 = 2.0 * eval_conic(k, 0.5 * (v1 + v2)) - 0.5 * (c200 + c020)
    c101 = 2.0 * eval_conic(k, 0.5 * (v1 + v3)) - 0.5 * (c200 + c002)
    c011 = 2.0 * eval_conic(k, 0.5 * (v2 + v3)) - 0.5 * (c020 + c002)
    return np.stack([c200, c110, c101, c020, c011, c002], axis=-1)


def pie_conic(k, tri):
    """BB form of the conic k over the chord triangle (3, 2), or over each
    of a stack of them (..., 3, 2), divided by its value at the interior
    vertex v1, and that divisor.  The conic must vanish at the other two
    vertices; the error is that of the first failing triangle of the stack.
    """
    c = conic_bb_form(k, tri)
    im = index_map(2)
    c200 = c[..., im[(2, 0, 0)]]
    far = [im[(0, 2, 0)], im[(0, 0, 2)]]
    vanishes = np.abs(c200) <= 1e-12 * np.maximum(1.0, np.abs(c).max(axis=-1))
    with np.errstate(all="ignore"):
        c = c / c200[..., None]
    off = (np.abs(c[..., far]) > 1e-9).any(axis=-1) | vanishes
    if off.any():
        r = np.argmax(off.ravel())
        raise GeometryError("conic vanishes at the pie interior vertex" if vanishes.ravel()[r]
                            else "chord triangle corners are not on the conic")
    c[..., far] = 0.0
    return c, c200


@dataclass(frozen=True)
class ConicDomain:
    """Simply connected domain bounded by a counter-clockwise chain of arcs.

    Simple connectivity is a documented assumption, not verified here.
    interior_angles[j] is the angle between incoming and outgoing tangents
    at corner j (the start point of arc j), strictly between 0 and 2 pi: a
    cusp, where the tangents are antiparallel, is a GeometryError.
    """

    arcs: tuple
    corners: np.ndarray = field(default=None)
    interior_angles: np.ndarray = field(default=None)
    coeffs: np.ndarray = field(default=None)     # (n_arcs, 6), row j the conic of arc j

    def __post_init__(self):
        arcs = tuple(normalize_arc_sign(a) for a in self.arcs)
        if not arcs:
            raise GeometryError("domain needs at least one arc")
        n = len(arcs)
        tol = 1e-10
        for j in range(n):
            e = np.asarray(arcs[j].end)
            s = np.asarray(arcs[(j + 1) % n].start)
            if np.linalg.norm(e - s) > tol * max(1.0, np.linalg.norm(e)):
                raise GeometryError(f"arcs {j} and {(j + 1) % n} do not chain")
        corners = np.array([a.start for a in arcs])
        angles = np.array(
            [_corner_angle(arcs[(j - 1) % n], arcs[j]) for j in range(n)]
        )
        # _corner_angle reads a cusp (antiparallel tangents) as 2 pi, or
        # as a sliver above 0 after roundoff
        cusp = np.minimum(angles, 2 * np.pi - angles) <= tol
        for j in np.flatnonzero(cusp & np.roll(cusp, -1))[:1]:     # see normalize_arc_sign
            raise GeometryError(f"arc {j} from {arcs[j].start} to {arcs[j].end} makes both its "
                                "corners cusps: it is longer than the piece of its conic nearest "
                                "its chord's midpoint, which sets its side; split it in two")
        if cusp.any():
            j = int(np.argmax(cusp))
            raise GeometryError(f"corner {j} at {arcs[j].start} is a cusp: "
                                "its two tangents are antiparallel")
        object.__setattr__(self, "arcs", arcs)
        object.__setattr__(self, "corners", corners)
        object.__setattr__(self, "interior_angles", angles)
        object.__setattr__(self, "coeffs", np.array([a.conic.coeffs for a in arcs]))
        self.coeffs.flags.writeable = False


def _corner_angle(arc_in, arc_out):
    """Interior angle between boundary tangents at the shared corner."""
    z = np.asarray(arc_out.start)
    g_in = grad_conic(arc_in.conic.coeffs, z)
    g_out = grad_conic(arc_out.conic.coeffs, z)
    # ccw travel: domain (q > 0) lies on the left, so the travel tangent is
    # the -90 degree rotation of the inward-pointing gradient
    t_in = np.array([g_in[1], -g_in[0]])
    t_out = np.array([g_out[1], -g_out[0]])
    cross = t_out[0] * (-t_in[1]) - t_out[1] * (-t_in[0])
    ang = float(np.arctan2(cross, np.dot(t_out, -t_in)))
    if ang <= 0:
        ang += 2 * np.pi
    return ang


# ---------------------------------------------------------------------------
# the "domain" object of a mesh file

def domain_to_dict(domain):
    return {
        "arcs": [
            {"coeffs": list(a.conic.coeffs), "degree": 2,
             "from": list(a.start), "to": list(a.end)}
            for a in domain.arcs
        ]
    }


def domain_from_dict(data):
    """The domain of a mesh file's "domain" object: an "arcs" list of arc
    objects, each a conic of "degree" 2 (the only degree, and the default).

    ConicDomain re-checks endpoint-on-conic (relative tolerance 1e-12, a
    choice the source material leaves open), chaining and corners, and
    normalizes the conic signs.
    """
    if not isinstance(data, dict) or not isinstance(data.get("arcs"), list):
        raise GeometryError('domain: expected a JSON object with an "arcs" list')
    arcs = []
    for j, a in enumerate(data["arcs"]):
        if not isinstance(a, dict):
            raise GeometryError(f"arc {j}: expected a JSON object, got {type(a).__name__}")
        if a.get("degree", 2) != 2:
            raise GeometryError(f"arc {j} has degree {a['degree']!r}, expected 2: straight "
                                "boundary pieces are not supported")
        coeffs, start, end = (_arc_numbers(j, a, key, n)
                              for key, n in (("coeffs", 6), ("from", 2), ("to", 2)))
        arcs.append(BoundaryArc(Conic(coeffs), start, end))
    return ConicDomain(tuple(arcs))


def is_number_list(v, n=None):
    """Whether the JSON value v is a list of numbers, of n of them when n is
    given: the number rule of the domain, mesh and spline file readers.  A
    number is an int or a float; a bool or a numeric string is not."""
    return (isinstance(v, list) and (n is None or len(v) == n)
            and all(type(x) in (int, float) for x in v))


def _arc_numbers(j, arc, key, n):
    """The field `key` of the arc object j as a tuple of n numbers, else a
    GeometryError that names the arc and the field."""
    if key not in arc:
        raise GeometryError(f'arc {j} has no "{key}": expected a list of {n} numbers')
    v = arc[key]
    if not is_number_list(v, n):
        raise GeometryError(f'arc {j}: "{key}" is {json.dumps(v)}, expected a list of '
                            f"{n} numbers")
    return tuple(v)
