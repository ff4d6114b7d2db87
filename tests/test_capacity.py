import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ehzcap.capacity import (
    FacetAssignment,
    boundary_grid,
    brute_force_oracle,
    capacity_identities,
    ehz_capacity,
    enumerate_assignments,
    solve_assignment,
    _margin_dual_vertices,
    _merge_degenerate_pairs,
)
from ehzcap.curves import (
    ClosedPolygonalCurve,
    canonicalize,
    minkowski_length,
    translation_margin,
)
from ehzcap.errors import InvalidBodyError, OriginNotInteriorError
from ehzcap.billiards import verify_strong, verify_weak
from ehzcap.geometry import (
    ConvexPolytope,
    affine_image,
    chebyshev_center,
    negate,
    translate,
)


def square():
    return ConvexPolytope.from_vertices([[1, 1], [1, -1], [-1, 1], [-1, -1]])


def cross():
    return ConvexPolytope.from_vertices([[1, 0], [-1, 0], [0, 1], [0, -1]])


def triangle():
    return ConvexPolytope.from_vertices([[0, 0], [1, 0], [0, 1]])


def cube():
    corners = [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
    return ConvexPolytope.from_vertices(corners)


def octahedron():
    return ConvexPolytope.from_vertices(
        np.vstack([np.eye(3), -np.eye(3)]))


def simplex_4d():
    """Regular 4-simplex: e1..e4 and ((1 - sqrt 5)/4)(1,1,1,1), with its
    vertex centroid moved to the origin."""
    apex = (1.0 - np.sqrt(5.0)) / 4.0 * np.ones(4)
    pts = np.vstack([np.eye(4), apex])
    return ConvexPolytope.from_vertices(pts - pts.mean(axis=0))


def facet_index(body, direction):
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    dots = body.normals @ direction
    return int(np.argmax(dots))


@st.composite
def centered_polygons(draw, min_pts=4, max_pts=7):
    seed = draw(st.integers(0, 2**32 - 1))
    k = draw(st.integers(min_pts, max_pts))
    rng = np.random.RandomState(seed)
    for _ in range(50):
        try:
            body = ConvexPolytope.from_vertices(
                rng.uniform(-2, 2, size=(k, 2)).round(3))
        except InvalidBodyError:
            continue
        return translate(body, -chebyshev_center(body)[0])
    return square()


class TestEnumerateAssignments:
    def test_square_has_ten(self):
        out = enumerate_assignments(square())
        assert len(out) == 10
        sizes = sorted(a.size for a in out)
        assert sizes == [2, 2, 3, 3, 3, 3, 3, 3, 3, 3]

    def test_square_pairs_are_the_opposite_facets(self):
        pairs = [a.indices for a in enumerate_assignments(square()) if a.size == 2]
        sq = square()
        for i, j in pairs:
            assert np.allclose(sq.normals[i], -sq.normals[j])

    def test_triangle_has_two(self):
        out = enumerate_assignments(triangle())
        assert [a.indices for a in out] == [(0, 1, 2), (0, 2, 1)]

    def test_cube_has_117(self):
        out = enumerate_assignments(cube())
        assert len(out) == 117
        by_size = {2: 0, 3: 0, 4: 0}
        for a in out:
            by_size[a.size] += 1
        assert by_size == {2: 3, 3: 24, 4: 90}

    def test_hull_certificates_are_valid(self):
        for a in enumerate_assignments(cube()):
            assert np.all(a.hull_weights >= -1e-9)
            assert abs(a.hull_weights.sum() - 1.0) <= 1e-9
            combo = a.hull_weights @ cube().normals[list(a.indices)]
            assert np.max(np.abs(combo)) <= 1e-9

    def test_deterministic(self):
        first = [a.indices for a in enumerate_assignments(square())]
        second = [a.indices for a in enumerate_assignments(square())]
        assert first == second

    @given(centered_polygons())
    @settings(max_examples=20, deadline=None)
    def test_never_empty(self, body):
        assert enumerate_assignments(body)


class TestSolveAssignment:
    def test_opposite_pair_on_square(self):
        sq = square()
        pair = (facet_index(sq, (-1, 0)), facet_index(sq, (1, 0)))
        weights = np.array([0.5, 0.5])
        out = solve_assignment(sq, sq, FacetAssignment(pair, weights))
        assert out.value == pytest.approx(4.0, abs=1e-9)
        assert np.allclose(out.points[:, 0], [-1, 1], atol=1e-9)
        assert out.points[0, 1] == pytest.approx(out.points[1, 1], abs=1e-9)

    def test_table_scaling_doubles_value(self):
        sq = square()
        big = affine_image(sq, 2.0)
        pair = (facet_index(big, (-1, 0)), facet_index(big, (1, 0)))
        out = solve_assignment(big, sq, FacetAssignment(pair, np.array([0.5, 0.5])))
        assert out.value == pytest.approx(8.0, abs=1e-9)

    def test_triangle_facet_triple(self):
        tri = triangle()
        assignment = enumerate_assignments(tri)[0]
        out = solve_assignment(tri, square(), assignment)
        assert out.value == pytest.approx(2.0, abs=1e-9)

    def test_length_body_needs_interior_origin(self):
        sq = square()
        assignment = enumerate_assignments(sq)[0]
        with pytest.raises(OriginNotInteriorError):
            solve_assignment(sq, triangle(), assignment)

    def test_bad_indices_rejected(self):
        with pytest.raises(InvalidBodyError):
            solve_assignment(square(), square(),
                             FacetAssignment((0, 9), np.array([0.5, 0.5])))

    def test_cube_winner_momenta_lie_in_the_length_body(self):
        winner = ehz_capacity(cube(), cube()).assignment
        out = solve_assignment(cube(), cube(), winner)
        assert out.momenta.shape == out.points.shape
        for p in out.momenta:
            assert cube().contains(p)
        points, momenta = _merge_degenerate_pairs(out.points, out.momenta)
        assert verify_strong(cube(), cube(), ClosedPolygonalCurve(points),
                             momenta).verified


class TestMergeDegeneratePairs:
    def test_spike_between_coincident_neighbours_is_kept(self):
        points = np.array([[1.0, 0, 0], [0, 1, 0], [1, 0, 0], [0, 0, 1]])
        momenta = np.arange(12.0).reshape(4, 3)
        merged = _merge_degenerate_pairs(points, momenta)
        assert merged is not None
        np.testing.assert_array_equal(merged[0], points)
        np.testing.assert_array_equal(merged[1], momenta)

    def test_coincident_pair_drops_the_later_point(self):
        points = np.array([[0.0, 0], [1, 0], [1, 1e-12], [0, 1]])
        momenta = np.arange(8.0).reshape(4, 2)
        merged_points, merged_momenta = _merge_degenerate_pairs(points, momenta)
        np.testing.assert_array_equal(merged_points, points[[0, 1, 3]])
        np.testing.assert_array_equal(merged_momenta, momenta[[0, 2, 3]])

    def test_wrapped_coincident_pair_matches_canonicalize(self):
        points = np.array([[0.0, 0], [1, 0], [0, 1], [0, 0]])
        momenta = np.arange(8.0).reshape(4, 2)
        merged_points, merged_momenta = _merge_degenerate_pairs(points, momenta)
        np.testing.assert_array_equal(merged_points,
                                      canonicalize(points).points)
        np.testing.assert_array_equal(merged_momenta, momenta[[1, 2, 0]])

    def test_collinear_point_with_a_kick_blocks_the_merge(self):
        points = np.array([[0.0, 0], [0.5, 0], [1, 0], [0, 1]])
        momenta = np.arange(8.0).reshape(4, 2)
        assert _merge_degenerate_pairs(points, momenta) is None


class TestCapacityFrozenValues:
    def test_square_square(self):
        result = ehz_capacity(square(), square())
        assert result.value == pytest.approx(4.0, abs=1e-6)
        assert result.quantities.consistent
        assert result.certificate.pinned
        assert result.realized
        spread = np.ptp(result.minimizing_curve.points, axis=0)
        assert max(spread) == pytest.approx(2.0, abs=1e-9)

    def test_square_cross(self):
        result = ehz_capacity(square(), cross())
        assert result.value == pytest.approx(4.0, abs=1e-6)
        assert result.quantities.consistent

    def test_triangle_square_both_orders(self):
        forward = ehz_capacity(triangle(), square())
        backward = ehz_capacity(square(), triangle())
        assert forward.value == pytest.approx(2.0, abs=1e-6)
        assert backward.value == pytest.approx(2.0, abs=1e-6)

    def test_cube_cube(self):
        result = ehz_capacity(cube(), cube())
        assert result.value == pytest.approx(4.0, abs=1e-6)
        assert result.quantities.consistent
        assert result.realized

    def test_cube_octahedron_cross_equality(self):
        result = ehz_capacity(cube(), octahedron())
        assert result.quantities.consistent

    def test_simplex_4d_realizes_on_both_sides(self):
        body = simplex_4d()
        result = ehz_capacity(body, body)
        assert result.realized
        assert result.quantities.consistent
        assert result.dual_note == ""
        assert verify_strong(body, body, result.billiard_curve,
                             result.dual_curve).verified

    def test_deterministic_output(self):
        a = ehz_capacity(square(), square())
        b = ehz_capacity(square(), square())
        assert a.value == b.value
        assert a.minimizing_curve.points.tobytes() == \
            b.minimizing_curve.points.tobytes()
        assert a.assignment.indices == b.assignment.indices

    def test_dimension_mismatch(self):
        from ehzcap.errors import DimensionMismatchError
        with pytest.raises(DimensionMismatchError):
            ehz_capacity(square(), cube())


class TestCapacityResultContracts:
    def test_minimizer_is_pinned_and_length_matches(self):
        result = ehz_capacity(triangle(), square())
        cert = translation_margin(triangle(), result.minimizing_curve)
        assert cert.pinned
        assert minkowski_length(square(), result.minimizing_curve) == \
            pytest.approx(result.value, abs=1e-8)

    def test_billiard_curve_verifies_against_given_bodies(self):
        result = ehz_capacity(square(), cross())
        pair = verify_strong(square(), cross(), result.billiard_curve,
                             result.dual_curve)
        assert pair.verified

    def test_offcenter_geometry_translates_internally(self):
        shifted = translate(square(), (5.0, -3.0))
        result = ehz_capacity(square(), shifted)
        assert result.value == pytest.approx(4.0, abs=1e-6)
        assert result.realized
        pair = verify_strong(square(), shifted, result.billiard_curve,
                             result.dual_curve)
        assert pair.verified

    def test_offcenter_table_no_special_handling_needed(self):
        shifted = translate(square(), (5.0, -3.0))
        result = ehz_capacity(shifted, square())
        assert result.value == pytest.approx(4.0, abs=1e-6)

    @given(centered_polygons(), centered_polygons())
    @settings(max_examples=15, deadline=None)
    def test_random_pairs_fully_cross_check(self, table, geometry):
        result = ehz_capacity(table, geometry)
        assert result.value > 0
        assert result.quantities.consistent
        assert result.realized
        assert verify_strong(table, geometry, result.billiard_curve,
                             result.dual_curve).verified
        assert verify_weak(table, geometry, result.billiard_curve).verified


class TestScalingAndMonotonicity:
    @pytest.mark.parametrize("lam", [0.5, 2.0])
    @pytest.mark.parametrize("mu", [0.5, 2.0])
    def test_scaling(self, lam, mu):
        base = ehz_capacity(square(), cross()).value
        scaled = ehz_capacity(affine_image(square(), lam),
                              affine_image(cross(), mu)).value
        assert abs(scaled - lam * mu * base) <= 1e-8 * lam * mu * base

    def test_monotone_in_the_table_body(self):
        big = square()
        small = affine_image(big, 0.9)
        assert ehz_capacity(small, cross()).value <= \
            ehz_capacity(big, cross()).value + 1e-8

    @given(centered_polygons(), st.floats(0.25, 3.0))
    @settings(max_examples=10, deadline=None)
    def test_scaling_property_random(self, body, lam):
        base = ehz_capacity(body, square()).value
        scaled = ehz_capacity(affine_image(body, lam), square()).value
        assert abs(scaled - lam * base) <= 1e-7 * (1 + lam * base)

    def test_translation_invariance_of_value(self):
        base = ehz_capacity(triangle(), square()).value
        moved = ehz_capacity(translate(triangle(), (3.0, -7.0)), square()).value
        assert abs(base - moved) <= 1e-8 * (1 + base)


class TestBruteForceOracle:
    def test_square_square_exact_on_grid(self):
        assert brute_force_oracle(square(), square(), 0.25) == \
            pytest.approx(4.0, abs=1e-8)

    def test_triangle_square_exact_on_grid(self):
        assert brute_force_oracle(triangle(), square(), 0.25) == \
            pytest.approx(2.0, abs=1e-8)

    def test_dominates_solver_value(self):
        for table, geometry in [(square(), cross()), (triangle(), square())]:
            value = ehz_capacity(table, geometry).value
            assert brute_force_oracle(table, geometry, 0.2) >= value - 1e-8

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            brute_force_oracle(square(), square(), 0.0)
        with pytest.raises(ValueError):
            brute_force_oracle(square(), square(), 0.25, m_max=7)

    def test_grid_covers_boundary(self):
        pts = boundary_grid(square(), 0.25)
        assert len(pts) == 32
        sq = square()
        for p in pts:
            assert sq.locate(p) == "boundary"

    @given(centered_polygons(), st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_margin_dual_matches_lp_margin(self, body, seed):
        duals = _margin_dual_vertices(body)
        rng = np.random.RandomState(seed)
        pts = rng.uniform(-2, 2, size=(3, 2)).round(2)
        worst = (body.offsets - pts @ body.normals.T).min(axis=0)
        closed_form = float((worst @ duals.T).min())
        try:
            curve = canonicalize(pts)
        except Exception:
            return
        lp_margin = translation_margin(body, curve).margin
        assert abs(closed_form - lp_margin) <= 1e-8 * (1 + abs(lp_margin))


class TestIdentityReport:
    def test_square_pair_all_four(self):
        report = capacity_identities(square(), square())
        assert set(report.values) == {"base", "swapped", "negated_table",
                                      "negated_geometry", "negated_both"}
        for v in report.values.values():
            assert v == pytest.approx(4.0, abs=1e-6)
        assert report.consistent

    def test_triangle_square_all_two(self):
        report = capacity_identities(triangle(), square())
        for v in report.values.values():
            assert v == pytest.approx(2.0, abs=1e-6)
        assert report.max_relative_deviation <= 1e-6

    @given(centered_polygons(max_pts=5), centered_polygons(max_pts=5))
    @settings(max_examples=10, deadline=None)
    def test_random_pairs_consistent(self, table, geometry):
        assert capacity_identities(table, geometry).consistent

    def test_full_mode_matches_light_mode(self):
        light = capacity_identities(triangle(), square())
        full = capacity_identities(triangle(), square(), full=True)
        for name in light.values:
            assert light.values[name] == pytest.approx(full.values[name],
                                                       abs=1e-9)


class TestNegatedBodies:
    def test_negated_table_same_value_and_realizes(self):
        result = ehz_capacity(negate(triangle()), square())
        assert result.value == pytest.approx(2.0, abs=1e-6)
        assert result.realized
