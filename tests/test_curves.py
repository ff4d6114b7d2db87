import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ehzcap.curves
from ehzcap.curves import (
    ClosedPolygonalCurve,
    canonicalize,
    discrete_action,
    minkowski_length,
    reduce_vertex_count,
    translation_margin,
)
from ehzcap.errors import (
    CurveCollapseError,
    DimensionMismatchError,
    LpNumericalError,
    NoValidSubselectionError,
    OriginNotInteriorError,
)
from ehzcap.geometry import ConvexPolytope, affine_image
from ehzcap.lp import LpSolution


PINNED_TOL_HALF = 0.5e-8


def square():
    return ConvexPolytope.from_vertices([[1, 1], [1, -1], [-1, 1], [-1, -1]])


def cross():
    return ConvexPolytope.from_vertices([[1, 0], [-1, 0], [0, 1], [0, -1]])


def back_and_forth():
    return ClosedPolygonalCurve(np.array([[-1.0, 0.0], [1.0, 0.0]]))


@st.composite
def random_curves(draw, dim=2, max_pts=6):
    seed = draw(st.integers(0, 2**32 - 1))
    k = draw(st.integers(2, max_pts))
    rng = np.random.RandomState(seed)
    for _ in range(30):
        try:
            return canonicalize(rng.uniform(-2, 2, size=(k, dim)).round(3))
        except CurveCollapseError:
            continue
    return back_and_forth()


class TestCurveInvariants:
    def test_two_point_curve_is_fine(self):
        c = back_and_forth()
        assert c.num_points == 2
        assert c.dim == 2

    def test_coincident_consecutive_points_rejected(self):
        with pytest.raises(CurveCollapseError):
            ClosedPolygonalCurve(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]))

    def test_collinear_vertex_rejected(self):
        with pytest.raises(CurveCollapseError):
            ClosedPolygonalCurve(
                np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [0.0, 1.0]]))

    def test_single_point_rejected(self):
        with pytest.raises(CurveCollapseError):
            ClosedPolygonalCurve(np.array([[0.0, 0.0]]))

    def test_deltas_close_up(self):
        c = canonicalize([[0, 0], [1, 0], [0, 1]])
        assert np.allclose(c.deltas.sum(axis=0), 0.0)

    def test_rotation_helpers(self):
        c = canonicalize([[1, 0], [0, 1], [0, 0]])
        r = c.canonical_rotation()
        assert np.allclose(r.points[0], [0, 0])
        assert r.same_up_to_rotation(c)
        assert not r.same_up_to_rotation(c.translated([1, 0]))


class TestCanonicalize:
    def test_duplicate_removed(self):
        c = canonicalize([[0, 0], [1, 0], [1, 0], [0, 1]])
        assert np.allclose(c.points, [[0, 0], [1, 0], [0, 1]])

    def test_collinear_removed(self):
        c = canonicalize([[0, 0], [0.5, 0], [1, 0], [0, 1]])
        assert np.allclose(c.points, [[0, 0], [1, 0], [0, 1]])

    def test_already_canonical_unchanged(self):
        c = canonicalize([[0, 0], [1, 0], [0, 1]])
        assert np.allclose(c.points, [[0, 0], [1, 0], [0, 1]])

    def test_wraparound_duplicate_removed(self):
        c = canonicalize([[0, 0], [1, 0], [0, 1], [0, 0]])
        assert c.num_points == 3

    def test_cascading_removals(self):
        # dropping the duplicate makes the middle vertex collinear
        c = canonicalize([[0, 0], [0.5, 0], [0.5, 0], [1, 0], [0, 1]])
        assert np.allclose(c.points, [[0, 0], [1, 0], [0, 1]])

    def test_collapse_to_point_raises(self):
        with pytest.raises(CurveCollapseError):
            canonicalize([[1, 1], [1, 1], [1, 1]])

    @given(random_curves())
    @settings(max_examples=40, deadline=None)
    def test_canonical_output_is_fixed_point(self, curve):
        again = canonicalize(curve.points)
        assert np.allclose(again.points, curve.points)


class TestMinkowskiLength:
    def test_square_measures_back_and_forth(self):
        assert minkowski_length(square(), back_and_forth()) == pytest.approx(4.0)

    def test_cross_measures_back_and_forth(self):
        assert minkowski_length(cross(), back_and_forth()) == pytest.approx(4.0)

    def test_positive_homogeneity(self):
        doubled = back_and_forth().scaled(2.0)
        assert minkowski_length(square(), doubled) == pytest.approx(8.0)

    def test_needs_interior_origin(self):
        shifted = affine_image(square(), 1.0, [1, 0])
        with pytest.raises(OriginNotInteriorError):
            minkowski_length(shifted, back_and_forth())

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            minkowski_length(square(), ClosedPolygonalCurve(
                np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])))

    @given(random_curves(), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_translation_invariance(self, curve, seed):
        t = np.random.RandomState(seed).uniform(-5, 5, size=2)
        base = minkowski_length(square(), curve)
        moved = minkowski_length(square(), curve.translated(t))
        assert abs(base - moved) <= 1e-9 * (1 + abs(base))

    @given(random_curves())
    @settings(max_examples=40, deadline=None)
    def test_dropping_a_vertex_never_lengthens(self, curve):
        if curve.num_points < 3:
            return
        base = minkowski_length(square(), curve)
        for j in range(curve.num_points):
            try:
                shorter = canonicalize(np.delete(curve.points, j, axis=0))
            except CurveCollapseError:
                continue
            assert minkowski_length(square(), shorter) <= base + 1e-9


class TestTranslationMargin:
    def test_width_matching_curve_is_pinned_at_zero(self):
        cert = translation_margin(square(), back_and_forth())
        assert cert.margin == pytest.approx(0.0, abs=1e-10)
        assert cert.pinned

    def test_small_triangle_slides_inside(self):
        c = canonicalize([[0, 0], [0.5, 0], [0, 0.5]])
        cert = translation_margin(square(), c)
        assert cert.margin == pytest.approx(0.75, abs=1e-10)
        assert np.allclose(cert.translation, [-0.25, -0.25], atol=1e-10)
        assert not cert.pinned

    def test_oversized_curve_has_negative_margin(self):
        c = ClosedPolygonalCurve(np.array([[-2.0, 0.0], [2.0, 0.0]]))
        cert = translation_margin(square(), c)
        assert cert.margin == pytest.approx(-1.0, abs=1e-10)
        assert cert.pinned

    def test_active_facets_of_small_triangle(self):
        c = canonicalize([[0, 0], [0.5, 0], [0, 0.5]])
        cert = translation_margin(square(), c)
        assert set(cert.active_facets) == {0, 1, 2, 3}

    def test_unpinned_curve_translates_strictly_inside(self):
        c = canonicalize([[0, 0], [0.5, 0], [0, 0.5]])
        cert = translation_margin(square(), c)
        body = square()
        for point in c.translated(cert.translation).points:
            assert body.locate(point, tol=PINNED_TOL_HALF) == "interior"

    @given(random_curves(), st.floats(0.1, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_margin_scales_with_body_and_curve(self, curve, lam):
        base = translation_margin(square(), curve)
        scaled = translation_margin(affine_image(square(), lam),
                                    curve.scaled(lam))
        assert abs(scaled.margin - lam * base.margin) <= 1e-8 * (1 + lam)
        assert scaled.pinned == base.pinned or abs(base.margin) <= 1e-6

    @given(random_curves(), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_no_random_translation_beats_the_optimum(self, curve, seed):
        cert = translation_margin(square(), curve)
        body = square()
        rng = np.random.RandomState(seed)
        for _ in range(100):
            t = rng.uniform(-2, 2, size=2)
            margin = float(np.min(body.offsets
                                  - (curve.points + t) @ body.normals.T))
            assert margin <= cert.margin + 1e-9

    def test_nonoptimal_program_raises_naming_the_stage(self, monkeypatch):
        monkeypatch.setattr(ehzcap.curves, "solve_lp",
                            lambda lp: LpSolution(status="unbounded"))
        with pytest.raises(LpNumericalError, match="translation-margin"):
            translation_margin(square(), back_and_forth())


class TestDiscreteAction:
    def test_hand_computed_value(self):
        q = back_and_forth()
        p = [[1, 0], [-1, 0]]
        assert discrete_action(q, p) == pytest.approx(4.0)

    def test_zero_momenta(self):
        assert discrete_action(back_and_forth(), [[0, 0], [0, 0]]) == 0.0

    def test_linear_in_curve(self):
        q = back_and_forth()
        p = [[1, 0], [-1, 0]]
        assert discrete_action(q.scaled(2.0), p) == pytest.approx(8.0)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            discrete_action(back_and_forth(), [[1, 0]])


class TestReduceVertexCount:
    def test_small_curve_passes_through(self):
        c = back_and_forth()
        assert reduce_vertex_count(square(), c) is c

    def test_diamond_reduces_to_three_points(self):
        c = canonicalize([[-1, 0], [0, -1], [1, 0], [0, 1]])
        out = reduce_vertex_count(square(), c, length_body=square())
        assert out.num_points <= 3
        assert translation_margin(square(), out).pinned
        assert (minkowski_length(square(), out)
                <= minkowski_length(square(), c) + 1e-9)

    def test_two_point_core_is_found(self):
        c = canonicalize([[-1, 0], [1, 0], [-1, 0.5], [1, 0.5]])
        out = reduce_vertex_count(square(), c, length_body=square())
        assert out.num_points <= 3
        assert translation_margin(square(), out).pinned
        spread = out.points[:, 0].max() - out.points[:, 0].min()
        assert spread == pytest.approx(2.0)

    def test_unpinned_input_rejected(self):
        c = canonicalize([[0, 0], [0.5, 0], [0, 0.5]])
        with pytest.raises(NoValidSubselectionError):
            reduce_vertex_count(square(), c)

    @given(random_curves(max_pts=6))
    @settings(max_examples=30, deadline=None)
    def test_reduction_preserves_pinning_and_shortens(self, curve):
        grown = curve.scaled(2.5 / max(1.0, float(np.max(np.abs(curve.points)))))
        cert = translation_margin(square(), grown)
        if not cert.pinned:
            return
        out = reduce_vertex_count(square(), grown, length_body=square())
        assert out.num_points <= 3
        assert translation_margin(square(), out).pinned
        assert (minkowski_length(square(), out)
                <= minkowski_length(square(), grown) + 1e-8)
