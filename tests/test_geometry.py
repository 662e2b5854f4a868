import json
import warnings

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from conicfem import bernstein as bb
from conicfem import geometry as geo
from conicfem.mesh import PIE, refine_uniform
from conicfem.problems import PROBLEM_IDS, builtin_domain, c2_domain, disk_domain, ellipse_domain

from _oracles import (arc_point_on_ray_scalar, barycentric, corner_is_tangent, de_casteljau,
                      domain_points)

CIRCLE = geo.Conic((-1.0, 0.0, -1.0, 0.0, 0.0, 1.0))      # 1 - x^2 - y^2
ELLIPSE = geo.Conic((-1.0, 0.0, -6.25, 0.0, 0.0, 1.0))    # 1 - x^2 - 6.25 y^2
TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def test_eval_and_grad():
    assert geo.eval_conic(CIRCLE, (0.0, 0.0)) == 1.0
    assert np.allclose(geo.grad_conic(CIRCLE, (1.0, 0.0)), (-2.0, 0.0))
    parabola = geo.Conic((-1.0, 0, 0, 0, -1.0, 1.0))   # 1 - y - x^2
    assert geo.eval_conic(parabola, (0.5, 0.75)) == 0.0
    assert np.allclose(geo.grad_conic(parabola, (0.5, 0.75)), (-1.0, -1.0))
    assert abs(geo.eval_conic(ELLIPSE, (0.0, 0.4))) < 1e-14


def test_vectorized_eval():
    pts = np.random.default_rng(0).standard_normal((40, 2))
    vals = geo.eval_conic(CIRCLE, pts)
    assert np.allclose(vals, 1 - pts[:, 0] ** 2 - pts[:, 1] ** 2)
    grads = geo.grad_conic(CIRCLE, pts)
    assert np.allclose(grads, -2 * pts)


def test_reducible_conic_rejected():
    with pytest.raises(geo.GeometryError):
        geo.Conic((1.0, 0.0, -1.0, 0.0, 0.0, 0.0))   # (x-y)(x+y)
    with pytest.raises(geo.GeometryError):
        geo.Conic((1.0, 0.0, 0.0, 0.0, 0.0, 0.0))    # x^2
    # genuine conics pass
    geo.Conic((-1.0, 0.2, -1.1, 0.1, 0.0, 0.9))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_conic_coefficients_rejected(bad):
    # before any other check, which would warn or misname the fault
    k = [1.0, 0.0, 1.0, 0.0, 0.0, -1.0]
    for j in (0, 5):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(geo.GeometryError, match=r"^conic coefficients .* are not all "
                                                         "finite$"):
                geo.Conic(tuple(k[:j] + [bad] + k[j + 1:]))


def test_line_conic_rejected():
    # every arc is a genuine conic: a zero quadratic part is a straight piece
    for k in ((0, 0, 0, -1.0, 1.0, 1.0), (1e-13, 0, 0, 0, 1.0, 0)):
        with pytest.raises(geo.GeometryError, match=r"^conic has zero quadratic part: straight "
                                                    "boundary pieces are not supported$"):
            geo.Conic(k)
    with pytest.raises(TypeError):
        geo.Conic((-1.0, 0, 0, 0, -1.0, 1.0), 2)      # Conic takes only coeffs


def test_normalize_arc_sign_flip_and_idempotence():
    flipped = geo.Conic((1.0, 0.0, 1.0, 0.0, 0.0, -1.0))
    arc = geo.BoundaryArc(flipped, (1.0, 0.0), (0.0, 1.0))
    fixed = geo.normalize_arc_sign(arc)
    assert geo.eval_conic(fixed.conic, (0.0, 0.0)) > 0
    again = geo.normalize_arc_sign(fixed)
    assert again.conic.coeffs == fixed.conic.coeffs


def test_normalize_arc_sign_positive_on_pie_side():
    # top segment of the ellipse: conic positive at an attached interior point
    arc = geo.normalize_arc_sign(geo.BoundaryArc(ELLIPSE, (1.0, 0.0), (0.0, 0.4)))
    centroid = np.array([0.3, 0.1])
    assert geo.eval_conic(arc.conic, centroid) > 0
    for s in np.linspace(0.05, 0.95, 20):
        chord = (1 - s) * np.array([1.0, 0.0]) + s * np.array([0.0, 0.4])
        x = 0.5 * chord   # strictly inside
        assert geo.eval_conic(arc.conic, x) > 0


def test_degenerate_arc_rejected():
    with pytest.raises(geo.GeometryError):
        geo.BoundaryArc(CIRCLE, (1.0, 0.0), (1.0, 0.0))
    with pytest.raises(geo.GeometryError, match=r"^arc endpoint \(0\.5, 0\.0\) not on conic"):
        geo.BoundaryArc(CIRCLE, (0.5, 0.0), (0.0, 1.0))   # endpoint off conic


def test_arc_point_on_ray_examples():
    arc = geo.BoundaryArc(CIRCLE, (1.0, 0.0), (0.0, 1.0))
    assert np.allclose(geo.arc_point_on_ray(arc.conic, (0, 0), (0.5, 0)), (1, 0), atol=1e-13)
    p = geo.arc_point_on_ray(arc.conic, (0, 0), (0.3, 0.3))
    assert np.allclose(p, (np.sqrt(2) / 2, np.sqrt(2) / 2), atol=1e-13)
    earc = geo.BoundaryArc(ELLIPSE, (1.0, 0.0), (0.0, 0.4))
    assert np.allclose(geo.arc_point_on_ray(earc.conic, (0, 0), (0, 0.2)), (0, 0.4), atol=1e-13)


def test_arc_point_on_ray_residual_and_errors():
    arc = geo.BoundaryArc(CIRCLE, (1.0, 0.0), (0.0, 1.0))
    rng = np.random.default_rng(1)
    for _ in range(30):
        th = rng.uniform(0.05, np.pi / 2 - 0.05)
        x = geo.arc_point_on_ray(arc.conic, (0.1, 0.1),
                                 (0.1 + 0.3 * np.cos(th), 0.1 + 0.3 * np.sin(th)))
        assert abs(geo.eval_conic(arc.conic, x)) < 1e-13
    with pytest.raises(geo.GeometryError):
        geo.arc_point_on_ray(arc.conic, (0.0, 0.0), (0.0, 0.0))   # degenerate ray
    with pytest.raises(geo.GeometryError):
        # through point already beyond the arc: both crossings behind it
        geo.arc_point_on_ray(arc.conic, (0.0, 0.0), (2.0, 0.0))


BUILTIN_ARCS = [a for dom in (disk_domain(), ellipse_domain(), c2_domain()) for a in dom.arcs]


def _scalar_outcome(arc, origin, through):
    try:
        return arc_point_on_ray_scalar(arc, origin, through)
    except geo.GeometryError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(BUILTIN_ARCS), st.integers(min_value=1, max_value=40),
       st.integers(min_value=0, max_value=10**9))
def test_batched_ray_points_match_scalar_rule(arc, n, seed):
    # rays between random points around the domain: most meet the arc
    # once, some twice, not at all or beyond reach; a few are degenerate
    rng = np.random.default_rng(seed)
    scale = np.abs(np.array([arc.start, arc.end])).max()
    origin = rng.uniform(-1.2, 1.2, (n, 2)) * scale
    through = rng.uniform(-1.2, 1.2, (n, 2)) * scale
    through[rng.random(n) < 0.05] = origin[0]
    origin[rng.random(n) < 0.05] = origin[0]
    want = [_scalar_outcome(arc, o, t) for o, t in zip(origin, through)]
    failing = [i for i, w in enumerate(want) if isinstance(w, str)]
    for i in range(n):      # each row alone, as a point and as one row
        for o, t in ((origin[i], through[i]), (origin[i:i + 1], through[i:i + 1])):
            if i in failing:
                with pytest.raises(geo.GeometryError) as err:
                    geo.arc_point_on_ray(arc.conic, o, t)
                assert str(err.value) == want[i] and err.value.row == 0
            else:
                got = geo.arc_point_on_ray(arc.conic, o, t)
                assert got.shape == np.shape(t)
                np.testing.assert_array_equal(got.reshape(2), want[i])
    if failing:
        with pytest.raises(geo.GeometryError) as err:
            geo.arc_point_on_ray(arc.conic, origin, through)
        assert err.value.row == failing[0] and str(err.value) == want[failing[0]]
    ok = [i for i in range(n) if i not in failing]
    got = geo.arc_point_on_ray(arc.conic, origin[ok], through[ok])
    np.testing.assert_array_equal(got, np.array([want[i] for i in ok]).reshape(-1, 2))
    # one origin broadcast against many through points
    got = [_scalar_outcome(arc, origin[0], t) for t in through]
    if all(not isinstance(g, str) for g in got):
        np.testing.assert_array_equal(geo.arc_point_on_ray(arc.conic, origin[0], through), got)


def test_conic_bb_form_constant_and_circle():
    parabola = geo.Conic((-1.0, 0, 0, 0.0, -1.0, 1.0))   # 1 - y - x^2
    c = geo.conic_bb_form(parabola, TRI)
    for g, x in zip(bb.multi_indices(2), domain_points(2, TRI)):
        assert abs(de_casteljau(2, c, barycentric(TRI, x))
                   - geo.eval_conic(parabola, x)) < 1e-14
    c = geo.conic_bb_form(CIRCLE, TRI)
    im = bb.index_map(2)
    assert abs(c[im[(2, 0, 0)]] - 1.0) < 1e-14
    assert abs(c[im[(0, 2, 0)]]) < 1e-14
    assert abs(c[im[(0, 0, 2)]]) < 1e-14
    assert abs(c[im[(1, 1, 0)]] - 1.0) < 1e-14
    assert abs(c[im[(1, 0, 1)]] - 1.0) < 1e-14
    assert abs(c[im[(0, 1, 1)]] - 1.0) < 1e-14


def test_conic_bb_form_random_identity():
    rng = np.random.default_rng(2)
    for _ in range(5):
        k = rng.standard_normal(6)
        k[0] -= 2.0   # keep it irreducible with high probability
        try:
            q = geo.Conic(tuple(k))
        except geo.GeometryError:
            continue
        tri = rng.standard_normal((3, 2))
        if abs(bb.triangle_area(tri)) < 0.1:
            continue
        c = geo.conic_bb_form(q, tri)
        scale = max(1.0, np.abs(c).max())
        for _ in range(10):
            x = rng.standard_normal(2)
            v = de_casteljau(2, c, barycentric(tri, x))
            ref = geo.eval_conic(q, x)
            assert abs(v - ref) < 1e-13 * max(scale, abs(ref))


def test_normalized_pie_conic(c2dom):
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    c = geo.pie_conic(CIRCLE, tri)[0]
    im = bb.index_map(2)
    assert c[im[(2, 0, 0)]] == 1.0
    assert c[im[(0, 2, 0)]] == 0.0 and c[im[(0, 0, 2)]] == 0.0
    # factor-scale invariance: the scaled conic normalizes identically
    scaled = geo.Conic(tuple(3.7 * np.array(CIRCLE.coeffs)))
    assert np.allclose(geo.pie_conic(scaled, tri)[0], c, atol=1e-14)
    # vanishing at the interior vertex is an error
    bad_tri = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(geo.GeometryError):
        geo.pie_conic(CIRCLE, bad_tri)
    # the chord triangles of every pie of each arc as one stack: each row
    # equals the one-triangle call bit for bit, and so does each row of
    # the stacked product matrix
    mesh = refine_uniform(c2dom[1])
    for a, arc in enumerate(mesh.domain.arcs):
        pies = np.flatnonzero((mesh.tri_kind == PIE) & (mesh.tri_arc == a))
        tris = mesh.vertices[mesh.tri_verts[pies]]
        assert len(pies) >= 4
        got = geo.pie_conic(arc.conic, tris)[0]
        want = np.array([geo.pie_conic(arc.conic, tri)[0] for tri in tris])
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(geo.pie_conic(arc.conic, tris[None])[0][0], want)
        np.testing.assert_array_equal(
            bb.product_matrix(4, 2, got), [bb.product_matrix(4, 2, q) for q in want])
        # one bad triangle in the stack raises its error
        k = len(tris) // 2
        on_conic = tris.copy()
        on_conic[k] = tris[k, [1, 0, 2]]          # the interior vertex on the arc
        with pytest.raises(geo.GeometryError, match="vanishes at the pie interior vertex"):
            geo.pie_conic(arc.conic, on_conic)
        off_conic = tris.copy()
        off_conic[k, 1] = 0.5 * (tris[k, 0] + tris[k, 1])   # a corner off the arc
        with pytest.raises(geo.GeometryError, match="corners are not on the conic"):
            geo.pie_conic(arc.conic, off_conic)


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want, dtype=float)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("pid", PROBLEM_IDS)
def test_conic_functions_on_rows_match_per_conic_calls(pid):
    # row i of k goes with point row i: every entry is the per-conic
    # call's, bit for bit, on rows of mixed arcs, for one point, for
    # (n, m, 2) points, and for one conic as (6,) or as (n, 6)
    mesh = refine_uniform(builtin_domain(pid)[1])
    dom = mesh.domain
    pies = np.flatnonzero(mesh.tri_kind == PIE)
    arcs = mesh.tri_arc[pies]
    assert len(set(arcs.tolist())) == len(dom.arcs)
    k, conics = dom.coeffs[arcs], [dom.arcs[a].conic for a in arcs]
    tris = mesh.vertices[mesh.tri_verts[pies]]
    x = tris[:, :1] + np.linspace(-0.5, 1.5, 7)[:, None] * (tris[:, 1:2] - tris[:, :1])
    for fn in (geo.eval_conic, geo.grad_conic):
        _same_bits(fn(k, x), [fn(q, xi) for q, xi in zip(conics, x)])
        _same_bits(fn(k, x[:, 0]), [fn(q, xi) for q, xi in zip(conics, x[:, 0])])
        _same_bits(fn(k[0], x[0, 0]), fn(conics[0], x[0, 0]))
        _same_bits(fn(dom.coeffs[0], x), fn(np.repeat(dom.coeffs[:1], len(x), axis=0), x))
    for fn in (geo.conic_bb_form, lambda k, tri: geo.pie_conic(k, tri)[0]):
        _same_bits(fn(k, tris), [fn(q, tri) for q, tri in zip(conics, tris)])
        _same_bits(fn(k[0], tris[0]), fn(conics[0], tris[0]))
        one = arcs == arcs[0]
        _same_bits(fn(k[0], tris[one]), fn(k[one], tris[one]))
    _same_bits(geo.pie_conic(k, tris)[1], geo.eval_conic(k, tris[:, 0]))
    # rays from each pie's interior vertex through points of its chord
    through = tris[:, 1:2] + np.linspace(0.1, 0.9, 5)[:, None] * (tris[:, 2:] - tris[:, 1:2])
    got = geo.arc_point_on_ray(k, tris[:, :1], through)
    _same_bits(got, [geo.arc_point_on_ray(q, tri[0], t)
                     for q, tri, t in zip(conics, tris, through)])
    _same_bits(geo.arc_point_on_ray(k[0], tris[0, 0], through[0, 0]), got[0, 0])
    _same_bits(geo.arc_point_on_ray(k[0], tris[one, :1], through[one]),
               geo.arc_point_on_ray(k[one], tris[one, :1], through[one]))


def test_domain_coeffs_are_the_normalized_arcs_read_only():
    for pid in PROBLEM_IDS:
        dom = builtin_domain(pid)[0]
        _same_bits(dom.coeffs, [a.conic.coeffs for a in dom.arcs])
        with pytest.raises(ValueError):
            dom.coeffs[0, 0] = 1.0


def test_domain_chain_validation():
    pts = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
    arcs = [geo.BoundaryArc(CIRCLE, pts[j], pts[(j + 1) % 4]) for j in range(4)]
    dom = geo.ConicDomain(tuple(arcs))
    assert np.allclose(dom.interior_angles, np.pi, atol=1e-12)
    assert all(corner_is_tangent(dom, j) for j in range(4))
    # broken chain
    bad = [arcs[0], arcs[2], arcs[1], arcs[3]]
    with pytest.raises(geo.GeometryError):
        geo.ConicDomain(tuple(bad))


def test_domain_rejects_a_cusp_corner():
    # y = x^2 from (0,0) to (1,1), a circle arc to (1,2), y = 2 x^2 back to
    # (0,0): the two parabolas leave the origin along the same tangent
    arcs = (geo.BoundaryArc(geo.Conic((-1.0, 0.0, 0.0, 0.0, 1.0, 0.0)), (0.0, 0.0), (1.0, 1.0)),
            geo.BoundaryArc(geo.Conic((-1.0, 0.0, -1.0, 1.0, 3.0, -2.0)), (1.0, 1.0), (1.0, 2.0)),
            geo.BoundaryArc(geo.Conic((-2.0, 0.0, 0.0, 0.0, 1.0, 0.0)), (1.0, 2.0), (0.0, 0.0)))
    with pytest.raises(geo.GeometryError, match=r"^corner 0 at \(0\.0, 0\.0\) is a cusp"):
        geo.ConicDomain(arcs)
    # the same corner rotated to the middle of the chain is named by its index
    with pytest.raises(geo.GeometryError, match=r"^corner 2 at \(0\.0, 0\.0\) is a cusp"):
        geo.ConicDomain(arcs[1:] + arcs[:1])


def test_domain_names_an_arc_longer_than_its_near_piece():
    # the unit circle cut at 0, 190 and 280 degrees: arc 0 is oriented at
    # the circle's point nearest its chord's midpoint, which lies on arc 1,
    # so both its corners read as cusps; cut at 0, 120 and 240 it is fine
    def circle(*degrees):
        pts = [(float(np.cos(t)), float(np.sin(t))) for t in np.radians(degrees)]
        return tuple(geo.BoundaryArc(CIRCLE, p, q) for p, q in zip(pts, pts[1:] + pts[:1]))

    geo.ConicDomain(circle(0, 120, 240))
    with pytest.raises(geo.GeometryError,
                       match=r"^arc 0 from \(1\.0, 0\.0\) to .* makes both its corners "
                             r"cusps: .* split it in two$"):
        geo.ConicDomain(circle(0, 190, 280))


def test_domain_file_roundtrip():
    # a domain is read and written as the "domain" object of a mesh file
    pts = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
    arcs = [geo.BoundaryArc(CIRCLE, pts[j], pts[(j + 1) % 4]) for j in range(4)]
    dom = geo.ConicDomain(tuple(arcs))
    text = json.dumps(geo.domain_to_dict(dom))
    assert [a["degree"] for a in json.loads(text)["arcs"]] == [2] * 4
    dom2 = geo.domain_from_dict(json.loads(text))
    assert len(dom2.arcs) == 4
    assert np.allclose(dom2.corners, dom.corners)
    # the reader rejects off-conic endpoints
    data = json.loads(text)
    data["arcs"][0]["from"] = [0.9, 0.0]
    with pytest.raises(geo.GeometryError, match="not on conic"):
        geo.domain_from_dict(data)


@pytest.mark.parametrize("degree", [1, 3, "2", None])
def test_domain_arc_degree_other_than_two_rejected(degree):
    # straight pieces (degree 1) and any other degree value; a missing
    # degree reads as 2
    data = geo.domain_to_dict(disk_domain())
    data["arcs"][1]["degree"] = degree
    with pytest.raises(geo.GeometryError, match=rf"^arc 1 has degree {degree!r}, expected 2: "
                                                "straight boundary pieces are not supported$"):
        geo.domain_from_dict(data)
    del data["arcs"][1]["degree"]
    assert len(geo.domain_from_dict(data).arcs) == 4


@pytest.mark.parametrize("edit, message", [
    (lambda d: [d], r'^domain: expected a JSON object with an "arcs" list$'),
    (lambda d: {"arcs": {}}, r'^domain: expected a JSON object with an "arcs" list$'),
    (lambda d: {"arcs": d["arcs"][:2] + [list(d["arcs"][2].values())] + d["arcs"][3:]},
     r"^arc 2: expected a JSON object, got list$"),
], ids=["list", "arcs-object", "arc-list"])
def test_domain_that_is_not_an_object_rejected(edit, message):
    with pytest.raises(geo.GeometryError, match=message):
        geo.domain_from_dict(edit(geo.domain_to_dict(disk_domain())))
