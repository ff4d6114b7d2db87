import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ehzcap.geometry
from ehzcap import jsonio
from ehzcap.bodies import named_body, named_body_names, random_polygon
from ehzcap.errors import (
    DimensionMismatchError,
    InvalidBodyError,
    LpNumericalError,
    OriginNotInteriorError,
)
from ehzcap.geometry import (
    GEOM_TOL,
    ConvexPolytope,
    affine_image,
    chebyshev_center,
    hausdorff_distance,
    negate,
    polar,
    project_point,
    support_function,
    translate,
)
from ehzcap.lp import LpSolution
from test_lp import highs_normal_cone_contains


def square():
    return ConvexPolytope.from_vertices([[1, 1], [1, -1], [-1, 1], [-1, -1]])


def cross():
    return ConvexPolytope.from_vertices([[1, 0], [-1, 0], [0, 1], [0, -1]])


def triangle():
    return ConvexPolytope.from_vertices([[0, 0], [1, 0], [0, 1]])


def cube():
    corners = [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
    return ConvexPolytope.from_vertices(corners)


@st.composite
def planar_bodies(draw, min_pts=3, max_pts=8):
    seed = draw(st.integers(0, 2**32 - 1))
    k = draw(st.integers(min_pts, max_pts))
    rng = np.random.RandomState(seed)
    for _ in range(40):
        pts = rng.uniform(-3, 3, size=(k, 2)).round(3)
        try:
            return ConvexPolytope.from_vertices(pts)
        except InvalidBodyError:
            continue
    return square()


@st.composite
def centered_bodies(draw):
    body = draw(planar_bodies(min_pts=4))
    return translate(body, -chebyshev_center(body)[0])


class TestConstruction:
    def test_square_has_four_facets_and_vertices(self):
        s = square()
        assert s.dim == 2
        assert s.num_facets == 4
        assert len(s.vertices) == 4
        expected = {(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)}
        assert {tuple(np.round(a, 9)) for a in s.normals} == expected
        assert np.allclose(s.offsets, 1.0)

    def test_interior_points_are_dropped_from_vertex_list(self):
        s = ConvexPolytope.from_vertices(
            [[1, 1], [1, -1], [-1, 1], [-1, -1], [0, 0], [0.5, 0.5]])
        assert len(s.vertices) == 4

    def test_from_halfspaces_matches_from_vertices(self):
        h = ConvexPolytope.from_halfspaces(
            [[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1])
        v = square()
        assert np.allclose(np.sort(h.vertices, axis=0), np.sort(v.vertices, axis=0))

    def test_from_halfspaces_drops_redundant_rows(self):
        h = ConvexPolytope.from_halfspaces(
            [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]], [1, 1, 1, 1, 5])
        assert h.num_facets == 4

    def test_unbounded_halfspaces_rejected(self):
        with pytest.raises(InvalidBodyError):
            ConvexPolytope.from_halfspaces([[1, 0], [0, 1]], [1, 1])

    def test_lower_dimensional_input_rejected(self):
        with pytest.raises(InvalidBodyError):
            ConvexPolytope.from_vertices([[0, 0], [1, 0], [2, 0]])

    def test_unsupported_dimension_rejected(self):
        with pytest.raises(InvalidBodyError):
            ConvexPolytope.from_vertices([[0], [1]])

    @pytest.mark.parametrize("build", [
        lambda: ConvexPolytope.from_vertices(
            [[float(c) for c in f"{i:05b}"] for i in range(32)]),
        lambda: ConvexPolytope.from_halfspaces(
            np.vstack([np.eye(5), -np.eye(5)]), np.ones(10)),
    ], ids=["five-cube-corners", "five-box-halfspaces"])
    def test_fifth_dimension_rejected_before_any_hull(self, monkeypatch,
                                                      build):
        def no_hull(pts):
            raise AssertionError("hull computed before the dimension check")

        monkeypatch.setattr(ehzcap.geometry, "_facets_from_points", no_hull)
        with pytest.raises(InvalidBodyError, match=re.escape(
                "dimension 5 unsupported (must be between 2 and 4)")):
            build()

    def test_mismatched_representations_rejected(self):
        s = square()
        with pytest.raises(InvalidBodyError):
            ConvexPolytope.from_representations(
                s.normals, s.offsets + 1.0, s.vertices)

    def test_arrays_are_immutable(self):
        s = square()
        with pytest.raises(ValueError):
            s.vertices[0, 0] = 5.0

    def test_cube_construction(self):
        c = cube()
        assert c.num_facets == 6
        assert len(c.vertices) == 8


class TestSupportFunction:
    def test_square_value_and_argmax(self):
        s = square()
        value, arg = support_function(s, (3, 4))
        assert value == pytest.approx(7.0, abs=1e-12)
        chosen = s.vertices[list(arg)]
        assert chosen.shape == (1, 2)
        assert np.allclose(chosen[0], [1, 1])

    def test_cross_polytope(self):
        c = cross()
        value, arg = support_function(c, (3, 4))
        assert value == pytest.approx(4.0, abs=1e-12)
        assert np.allclose(c.vertices[list(arg)][0], [0, 1])

    def test_triangle_negative_direction(self):
        t = triangle()
        value, arg = support_function(t, (-1, -1))
        assert value == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(t.vertices[list(arg)][0], [0, 0])

    def test_ties_return_all_argmax_vertices(self):
        value, arg = support_function(square(), (1, 0))
        assert value == pytest.approx(1.0)
        assert len(arg) == 2

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            support_function(square(), (1, 2, 3))

    @given(planar_bodies(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_subadditive_and_homogeneous(self, body, seed):
        rng = np.random.RandomState(seed)
        u, v = rng.uniform(-2, 2, size=(2, 2))
        lam = rng.uniform(0, 3)
        h = lambda d: support_function(body, d)[0]
        assert h(u + v) <= h(u) + h(v) + 1e-9
        assert abs(h(lam * v) - lam * h(v)) <= 1e-9 * (1 + abs(h(v)))


class TestPolar:
    def test_square_polar_is_cross(self):
        p = polar(square())
        assert np.allclose(np.sort(p.vertices, axis=0),
                           np.sort(cross().vertices, axis=0))

    def test_cross_polar_is_square(self):
        p = polar(cross())
        assert np.allclose(np.sort(p.vertices, axis=0),
                           np.sort(square().vertices, axis=0))

    def test_scaling_reciprocity(self):
        p = polar(affine_image(square(), 2.0))
        expected = affine_image(cross(), 0.5)
        assert np.allclose(np.sort(p.vertices, axis=0),
                           np.sort(expected.vertices, axis=0))

    def test_needs_interior_origin(self):
        with pytest.raises(OriginNotInteriorError):
            polar(triangle())

    @given(centered_bodies())
    @settings(max_examples=40, deadline=None)
    def test_involution(self, body):
        back = polar(polar(body))
        dist = np.max(np.abs(body.vertices[:, None, :] - back.vertices[None, :, :]),
                      axis=-1)
        assert body.vertices.shape == back.vertices.shape
        assert np.all(dist.min(axis=1) <= 1e-7)

    @given(centered_bodies(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_gauge_of_polar_equals_support(self, body, seed):
        v = np.random.RandomState(seed).uniform(-2, 2, size=2)
        dual = polar(body)
        lhs = max(0.0, np.max(dual.normals @ v / dual.offsets))
        rhs = support_function(body, v)[0]
        assert abs(lhs - rhs) <= 1e-8 * (1 + abs(rhs))


class TestNormalCone:
    @given(planar_bodies(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_argmax_vertices_match_cone_membership(self, body, seed):
        v = np.random.RandomState(seed).uniform(-2, 2, size=2)
        if np.linalg.norm(v) < 1e-3:
            v = np.array([1.0, 0.0])
        _, arg = support_function(body, v)
        for j, w in enumerate(body.vertices):
            inside = highs_normal_cone_contains(body, w, v, 1e-8)
            assert inside == (j in arg)


class TestContains:
    def test_classification(self):
        s = square()
        assert s.locate((0, 0)) == "interior"
        assert s.locate((1, 0.5)) == "boundary"
        assert s.locate((1.1, 0)) == "outside"

    def test_contains_includes_boundary(self):
        s = square()
        assert s.contains((1, 1))
        assert not s.contains((1 + 1e-6, 1))


class TestProjectionAndHausdorff:
    def test_projection_onto_square(self):
        point, dist = project_point(square(), (2, 2))
        assert np.allclose(point, [1, 1], atol=1e-9)
        assert dist == pytest.approx(np.sqrt(2), abs=1e-9)

    def test_projection_onto_cross(self):
        point, dist = project_point(cross(), (1, 1))
        assert np.allclose(point, [0.5, 0.5], atol=1e-9)
        assert dist == pytest.approx(np.sqrt(2) / 2, abs=1e-9)

    def test_projection_of_inside_point_is_identity(self):
        point, dist = project_point(square(), (0.25, -0.5))
        assert np.allclose(point, [0.25, -0.5], atol=1e-9)
        assert dist <= 1e-9

    def test_hausdorff_identical_bodies(self):
        assert hausdorff_distance(square(), square()) == pytest.approx(0.0, abs=1e-9)

    def test_hausdorff_square_to_double_square(self):
        d = hausdorff_distance(square(), affine_image(square(), 2.0))
        assert d == pytest.approx(np.sqrt(2), abs=1e-9)

    def test_hausdorff_square_to_cross(self):
        d = hausdorff_distance(square(), cross())
        assert d == pytest.approx(np.sqrt(2) / 2, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            hausdorff_distance(square(), cube())

    @given(planar_bodies(), planar_bodies(), planar_bodies())
    @settings(max_examples=25, deadline=None)
    def test_metric_axioms(self, a, b, c):
        dab = hausdorff_distance(a, b)
        dba = hausdorff_distance(b, a)
        assert dab == dba
        assert dab + hausdorff_distance(b, c) >= hausdorff_distance(a, c) - 1e-8


class TestAffineImage:
    def test_negate_triangle(self):
        t = negate(triangle())
        expected = np.array([[-1, 0], [0, -1], [0, 0]], dtype=float)
        assert np.allclose(np.sort(t.vertices, axis=0), np.sort(expected, axis=0))

    def test_scale_square_doubles_offsets(self):
        s = affine_image(square(), 2.0)
        assert np.allclose(s.offsets, 2.0)
        assert np.allclose(np.sort(s.normals, axis=0),
                           np.sort(square().normals, axis=0))

    def test_translate_square_offsets(self):
        s = translate(square(), (1, 0))
        got = {tuple(np.round(a, 9)): b for a, b in zip(s.normals, s.offsets)}
        assert got[(1.0, 0.0)] == pytest.approx(2.0)
        assert got[(-1.0, 0.0)] == pytest.approx(0.0)
        assert got[(0.0, 1.0)] == pytest.approx(1.0)
        assert got[(0.0, -1.0)] == pytest.approx(1.0)

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            affine_image(square(), 0.0)

    @pytest.mark.parametrize("scale", [1e7, 1e8, 1e9, 1e10])
    def test_large_images_keep_their_counts(self, scale):
        body = random_polygon(6, 0)
        body = translate(body, -chebyshev_center(body)[0])
        image = affine_image(body, scale)
        assert len(image.vertices) == len(body.vertices)
        assert image.num_facets == body.num_facets

    @pytest.mark.parametrize("scale", [1e7, 1e8, 1e10])
    def test_large_point_sets_build(self, scale):
        # The incidence tests scale with the largest point norm beyond 1.
        body = random_polygon(6, 0)
        body = translate(body, -chebyshev_center(body)[0])
        big = ConvexPolytope.from_vertices(scale * body.vertices)
        assert len(big.vertices) == 6 and big.num_facets == 6
        big_cube = ConvexPolytope.from_vertices(scale * cube().vertices)
        assert len(big_cube.vertices) == 8 and big_cube.num_facets == 6

    @pytest.mark.parametrize("scale", [1e7, 1e8, 1e9, 1e10])
    def test_large_images_rebuild_from_their_arrays(self, scale):
        body = random_polygon(6, 0)
        body = translate(body, -chebyshev_center(body)[0])
        image = affine_image(body, scale)
        rebuilt = ConvexPolytope.from_representations(
            image.normals, image.offsets, image.vertices)
        assert np.array_equal(rebuilt.vertices, image.vertices)
        back = jsonio.body_from_dict(jsonio.loads(jsonio.dumps(
            jsonio.body_to_dict(image))))
        assert len(back.vertices) == 6 and back.num_facets == 6
        assert np.allclose(back.vertices, image.vertices, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("scale, excess", [(1.0, 2e-9), (1e8, 1.0)])
    def test_margin_still_rejects_a_violating_vertex(self, scale, excess):
        body = affine_image(square(), scale)
        with pytest.raises(InvalidBodyError,
                           match="a vertex violates a facet inequality"):
            ConvexPolytope._image(body.normals, body.offsets - excess,
                                  body.vertices)

    @given(planar_bodies(), st.floats(-3, 3), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, body, scale, seed):
        if abs(scale) < 1e-2:
            scale = 1.0
        t = np.random.RandomState(seed).uniform(-2, 2, size=2)
        image = affine_image(body, scale, t)
        back = affine_image(image, 1.0 / scale, -t / scale)
        dist = np.max(np.abs(body.vertices[:, None, :] - back.vertices[None, :, :]),
                      axis=-1)
        assert np.all(dist.min(axis=1) <= 1e-7)


class TestChebyshevCenter:
    def test_square_center(self):
        center, radius = chebyshev_center(square())
        assert np.allclose(center, [0, 0], atol=1e-9)
        assert radius == pytest.approx(1.0, abs=1e-9)

    def test_triangle_radius(self):
        _, radius = chebyshev_center(triangle())
        assert radius == pytest.approx(1.0 / (2.0 + np.sqrt(2.0)), abs=1e-9)

    @given(planar_bodies())
    @settings(max_examples=40, deadline=None)
    def test_center_is_interior(self, body):
        center, radius = chebyshev_center(body)
        assert radius > 0
        assert body.locate(center) == "interior"

    def test_nonoptimal_program_raises_naming_the_stage(self, monkeypatch):
        monkeypatch.setattr(ehzcap.geometry, "solve_lp",
                            lambda lp: LpSolution(status="unbounded"))
        with pytest.raises(LpNumericalError, match="Chebyshev-center"):
            chebyshev_center(square())


def _reference_incidence(body):
    """The vertex-on-facet test written out: one product of the vertices
    with the normals, the tolerance scaled by the largest vertex norm
    beyond 1."""
    v = body.vertices
    tol = 1e-9 * max(1.0, float(np.max(np.linalg.norm(v, axis=1))))
    return v @ body.normals.T - body.offsets >= -tol


def _corpus_and_images():
    for name in named_body_names():
        body = named_body(name)
        yield name, body
        shift = [0.3] + [-0.7] * (body.dim - 1)
        yield f"{name} translated", translate(body, shift)
        yield f"{name} negated", negate(body)
        if np.all(body.offsets > GEOM_TOL):
            yield f"{name} polar", polar(body)
        yield (f"{name} from representations",
               ConvexPolytope.from_representations(
                   body.normals, body.offsets, body.vertices))
    for seed in range(5):
        body = random_polygon(7, seed)
        yield f"random polygon {seed}", body
        yield f"random polygon {seed} at 1e8", affine_image(body, 1e8)


class TestIncidence:
    def test_matches_the_product_test_byte_for_byte(self):
        for label, body in _corpus_and_images():
            expected = _reference_incidence(body)
            assert body.incidence.shape == (len(body.vertices),
                                            body.num_facets)
            assert body.incidence.tobytes() == expected.tobytes(), label

    def test_is_read_only_and_computed_once(self):
        body = square()
        assert body.incidence is body.incidence
        with pytest.raises(ValueError):
            body.incidence[0, 0] = not body.incidence[0, 0]


class TestDiameter:
    def test_square_diameter(self):
        assert square().diameter == pytest.approx(2 * np.sqrt(2), abs=1e-12)
