from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import ehzcap.billiards
import ehzcap.capacity
import ehzcap.geometry
from ehzcap.billiards import CONE_TOL, extract_dual, verify_strong, verify_weak
from ehzcap.bodies import random_polygon
from ehzcap.capacity import ehz_capacity
from ehzcap.curves import (
    ClosedPolygonalCurve,
    canonicalize,
    discrete_action,
    minkowski_length,
    translation_margin,
)
from ehzcap.errors import (
    CurveCollapseError,
    LpNumericalError,
    NotABilliardError,
    PointOffBoundaryError,
)
from ehzcap.geometry import (
    ConvexPolytope,
    negate,
    support_function,
)
from ehzcap.lp import make_lp, solve_lp
from test_capacity import simplex_4d
from test_lp import highs_normal_cone_contains


def square():
    return ConvexPolytope.from_vertices([[1, 1], [1, -1], [-1, 1], [-1, -1]])


def cross():
    return ConvexPolytope.from_vertices([[1, 0], [-1, 0], [0, 1], [0, -1]])


def width_curve():
    return ClosedPolygonalCurve(np.array([[-1.0, 0.0], [1.0, 0.0]]))


def candidate_points(body):
    """Vertices, and points a half and a quarter of the way along every
    vertex pair: edge points and interior points of the body."""
    v = body.vertices
    pairs = list(combinations(range(len(v)), 2))
    halves = [(v[i] + v[j]) / 2 for i, j in pairs]
    quarters = [(v[i] + 3 * v[j]) / 4 for i, j in pairs]
    return np.vstack([v, halves, quarters])


@st.composite
def candidate_bounces(draw):
    """Random polygons with a curve through candidate points of the table
    and momenta at candidate points of the geometry body."""
    table = random_polygon(draw(st.integers(3, 7)), draw(st.integers(0, 9999)))
    geometry = random_polygon(draw(st.integers(3, 7)),
                              draw(st.integers(0, 9999)))
    q_points = candidate_points(table)
    p_points = candidate_points(geometry)
    m = draw(st.integers(2, 4))
    qi = draw(st.lists(st.integers(0, len(q_points) - 1), min_size=m,
                       max_size=m, unique=True))
    pi = draw(st.lists(st.integers(0, len(p_points) - 1), min_size=m,
                       max_size=m))
    return table, geometry, q_points[qi], p_points[pi]


def raw_length(body, points):
    pts = np.asarray(points, dtype=float)
    return float(sum(support_function(body, d)[0]
                     for d in np.roll(pts, -1, axis=0) - pts))


class TestVerifyStrong:
    def test_two_bounce_pair_on_square_passes(self):
        pair = verify_strong(square(), square(), width_curve(),
                             [[1, 0], [-1, 0]])
        assert pair.verified
        for record in pair.records:
            assert record.segment_residual <= 1e-8
            assert record.kick_residual <= 1e-8

    def test_interior_momentum_point_fails(self):
        pair = verify_strong(square(), square(), width_curve(),
                             [[0.9, 0], [-1, 0]])
        assert not pair.verified
        first = pair.records[0]
        assert not first.p_on_boundary
        assert not first.segment_in_momentum_cone
        assert "off-boundary" in first.note

    def test_swapped_momenta_fail_the_cone_check(self):
        pair = verify_strong(square(), square(), width_curve(),
                             [[-1, 0], [1, 0]])
        assert not pair.verified
        first = pair.records[0]
        assert first.p_on_boundary
        assert not first.segment_in_momentum_cone
        assert first.segment_residual > 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(PointOffBoundaryError):
            verify_strong(square(), square(), width_curve(), [[1, 0]])

    def test_momentum_outside_geometry_body(self):
        pair = verify_strong(square(), square(), width_curve(),
                             [[2, 0], [-1, 0]])
        assert not pair.verified
        assert "outside" in pair.records[0].note

    @given(candidate_bounces())
    @settings(max_examples=60, deadline=None)
    def test_support_gaps_match_the_cone_lp(self, bounce):
        table, geometry, q_points, p = bounce
        try:
            q = ClosedPolygonalCurve(q_points)
        except CurveCollapseError:
            return
        pair = verify_strong(table, geometry, q, p)
        m = q.num_points
        for j, record in enumerate(pair.records):
            q_next = q.points[(j + 1) % m]
            segment = highs_normal_cone_contains(
                geometry, p[j], q.deltas[j], CONE_TOL, CONE_TOL)
            kick = highs_normal_cone_contains(
                table, q_next, -(p[(j + 1) % m] - p[j]), CONE_TOL, CONE_TOL)
            assert record.segment_in_momentum_cone == segment
            assert record.kick_in_position_cone == kick

    def test_solves_no_lp(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("bounce-law verification solved an LP")

        def refusing_lps(call):
            def guarded(*args):
                with monkeypatch.context() as m:
                    m.setattr(ehzcap.geometry, "solve_lp", refuse)
                    m.setattr(ehzcap.billiards, "solve_lp", refuse)
                    return call(*args)
            return guarded

        assert refusing_lps(verify_strong)(
            square(), square(), width_curve(), [[1, 0], [-1, 0]]).verified
        assert not refusing_lps(verify_strong)(
            square(), square(), width_curve(), [[-1, 0], [1, 0]]).verified
        # The solve's own translation-margin certificate is an LP in
        # ``geometry``; realization and verification must solve none.
        monkeypatch.setattr(ehzcap.capacity, "_realize_billiard",
                            refusing_lps(ehzcap.capacity._realize_billiard))
        assert ehz_capacity(square(), cross()).realized


def realized(table, geometry):
    return table, geometry, ehz_capacity(table, geometry).billiard_curve


@st.composite
def weak_cases(draw):
    """The realized billiard of a random polygon pair, and in half the
    cases that billiard with one point moved along a facet through it."""
    table = random_polygon(draw(st.integers(3, 7)), draw(st.integers(0, 9999)))
    geometry = random_polygon(draw(st.integers(3, 7)),
                              draw(st.integers(0, 9999)))
    q = ehz_capacity(table, geometry).billiard_curve
    assume(q is not None)
    if draw(st.booleans()):
        j = draw(st.integers(0, q.num_points - 1))
        facets = table.active_facets(q.points[j])
        ends = table.vertices[table.incidence[:, draw(st.sampled_from(facets))]]
        far = ends[np.argmax(np.linalg.norm(ends - q.points[j], axis=1))]
        t = draw(st.floats(0.1, 0.9))
        points = q.points.copy()
        points[j] += t * (far - points[j])
        try:
            q = ClosedPolygonalCurve(points)
        except CurveCollapseError:
            assume(False)
    return table, geometry, q


class TestExtractDual:
    def test_horizontal_width_curve(self):
        # the momenta lie on the exposed faces x = 1 and x = -1; where on
        # those edges is left to the solver
        p = extract_dual(square(), square(), width_curve())
        assert np.allclose(p[:, 0], [1, -1], atol=1e-9)
        assert verify_strong(square(), square(), width_curve(), p).verified

    def test_vertical_width_curve(self):
        q = ClosedPolygonalCurve(np.array([[0.0, -1.0], [0.0, 1.0]]))
        p = extract_dual(square(), square(), q)
        assert np.allclose(p[0, 1], 1.0, atol=1e-9)
        assert np.allclose(p[1, 1], -1.0, atol=1e-9)
        assert np.allclose(p[0, 0], p[1, 0], atol=1e-9)
        assert verify_strong(square(), square(), q, p).verified

    def test_single_facet_chord_is_not_a_billiard(self):
        q = ClosedPolygonalCurve(np.array([[-0.5, -1.0], [0.5, -1.0]]))
        with pytest.raises(NotABilliardError):
            extract_dual(square(), square(), q)

    def test_interior_vertex_rejected(self):
        q = ClosedPolygonalCurve(np.array([[-0.5, 0.0], [0.5, 0.0]]))
        with pytest.raises(PointOffBoundaryError):
            extract_dual(square(), square(), q)

    def test_cross_table_width_curve(self):
        p = extract_dual(cross(), square(), width_curve())
        assert verify_strong(cross(), square(), width_curve(), p).verified

    def test_deterministic_across_repeats(self):
        first = extract_dual(square(), square(), width_curve())
        second = extract_dual(square(), square(), width_curve())
        assert first.tobytes() == second.tobytes()

    def test_solves_one_lp(self, monkeypatch):
        calls = []

        def counting(program):
            calls.append(program)
            return solve_lp(program)

        monkeypatch.setattr(ehzcap.billiards, "solve_lp", counting)
        for table, geometry, q in [
            (square(), square(), width_curve()),
            (cross(), square(), width_curve()),
            realized(simplex_4d(), simplex_4d()),
        ]:
            calls.clear()
            extract_dual(table, geometry, q)
            assert len(calls) == 1
        calls.clear()
        with pytest.raises(NotABilliardError):
            extract_dual(square(), square(), ClosedPolygonalCurve(
                np.array([[-0.5, -1.0], [0.5, -1.0]])))
        assert len(calls) == 1

    def test_solver_failure_names_the_momentum_program(self, monkeypatch):
        def failing(program):
            raise LpNumericalError("terminal basis is singular")

        monkeypatch.setattr(ehzcap.billiards, "solve_lp", failing)
        with pytest.raises(LpNumericalError) as info:
            extract_dual(square(), square(), width_curve())
        assert type(info.value) is LpNumericalError
        assert str(info.value) == (
            "momentum program: terminal basis is singular")


class TestVerifyWeak:
    def test_strong_pair_curve_passes_weak(self):
        report = verify_weak(square(), square(), width_curve())
        assert report.verified
        for record in report.records:
            assert record.hyperplane_minimum is not None
            assert record.hyperplane_minimum >= record.value_at_vertex - 1e-7

    def test_flat_detour_over_a_facet_passes(self):
        # the middle vertex slides along y = 1 without changing the length,
        # so it minimizes over its supporting line
        q = canonicalize([[-1, 0], [0.5, 1], [1, 0]])
        report = verify_weak(square(), square(), q)
        assert report.verified

    def test_spike_onto_a_facet_fails(self):
        # hand check at (0, 1): both exposed faces are single vertices of the
        # geometry body, their difference (2, 2) is no multiple of the facet
        # normal e2, and sliding toward (-1, 1) shortens both segments
        q = canonicalize([[-1, 0.5], [0, 1]])
        report = verify_weak(square(), square(), q)
        assert not report.verified
        assert not report.records[1].passed

    def test_interior_vertex_raises(self):
        q = ClosedPolygonalCurve(np.array([[-0.5, 0.0], [0.5, 0.0]]))
        with pytest.raises(PointOffBoundaryError):
            verify_weak(square(), square(), q)

    def test_weak_solves_one_lp_per_vertex(self, monkeypatch):
        calls = []

        def counting(program):
            calls.append(program)
            return solve_lp(program)

        monkeypatch.setattr(ehzcap.billiards, "solve_lp", counting)
        for table, geometry, q in [
            (square(), square(), width_curve()),
            (square(), square(), canonicalize([[-1, 0], [0.5, 1], [1, 0]])),
            (square(), square(), canonicalize([[-1, 0.5], [0, 1]])),
            realized(simplex_4d(), simplex_4d()),
        ]:
            calls.clear()
            verify_weak(table, geometry, q)
            assert len(calls) == q.num_points

    @given(weak_cases())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_reference_with_two_lps_per_vertex(self, case):
        table, geometry, q = case
        got = verify_weak(table, geometry, q).records
        want = _reference_verify_weak(table, geometry, q)
        assert [r.passed for r in got] == [r.passed for r in want]
        for g, w in zip(got, want):
            assert g.value_at_vertex == w.value_at_vertex
            if w.hyperplane_minimum is None:
                assert g.hyperplane_minimum is None
            else:
                assert abs(g.hyperplane_minimum - w.hyperplane_minimum) <= (
                    1e-12 * abs(w.hyperplane_minimum))


# The weak check as it was when it solved two LPs per vertex: a first-order
# system for the kick, then a minimization over the hyperplane with that
# normal.  The weights' signs, once nonnegative variables, are -eta <= 0 rows.

def _reference_verify_weak(table, geometry, q, tol=CONE_TOL):
    m = q.num_points
    deltas = q.deltas
    records = []
    for j in range(m):
        incoming = deltas[(j - 1) % m]
        outgoing = deltas[j]
        normal = _reference_first_order_solution(table, geometry, q.points[j],
                                                 incoming, outgoing, tol)
        value = (support_function(geometry, incoming)[0]
                 + support_function(geometry, outgoing)[0])
        if normal is None:
            records.append(ehzcap.billiards.WeakBounceRecord(
                index=j, passed=False, normal=None,
                value_at_vertex=value, hyperplane_minimum=None))
            continue
        if np.linalg.norm(normal) <= 1e-10:
            normal = table.normals[table.active_facets(q.points[j], tol)[0]]
        minimum = _reference_hyperplane_minimum(
            geometry, q.points[(j - 1) % m], q.points[(j + 1) % m],
            q.points[j], normal)
        records.append(ehzcap.billiards.WeakBounceRecord(
            index=j, passed=minimum >= value - tol * (1 + abs(value)),
            normal=normal, value_at_vertex=value, hyperplane_minimum=minimum))
    return records


def _reference_first_order_solution(table, geometry, vertex, incoming,
                                    outgoing, tol):
    n = table.dim
    gen = table.normals[list(table.active_facets(vertex, tol))]
    k = gen.shape[0]
    nvars = 2 * n + k
    f = geometry.num_facets
    a_ub = np.zeros((2 * f + k, nvars))
    a_ub[:f, :n] = geometry.normals
    a_ub[f:2 * f, n:2 * n] = geometry.normals
    a_ub[2 * f:, 2 * n:] = -np.eye(k)
    b_ub = np.concatenate([geometry.offsets, geometry.offsets, np.zeros(k)])
    a_eq = np.zeros((2 + n, nvars))
    b_eq = np.zeros(2 + n)
    a_eq[0, :n] = incoming
    b_eq[0] = support_function(geometry, incoming)[0]
    a_eq[1, n:2 * n] = outgoing
    b_eq[1] = support_function(geometry, outgoing)[0]
    a_eq[2:, :n] = np.eye(n)
    a_eq[2:, n:2 * n] = -np.eye(n)
    a_eq[2:, 2 * n:] = -gen.T
    sol = solve_lp(make_lp(np.zeros(nvars), a_ub=a_ub, b_ub=b_ub,
                           a_eq=a_eq, b_eq=b_eq))
    if sol.status != "optimal":
        return None
    return gen.T @ sol.x[2 * n:]


def _reference_hyperplane_minimum(geometry, prev_point, next_point, vertex,
                                  normal):
    """min h(x - prev) + h(next - x) over the hyperplane through the vertex,
    as an epigraph LP over the geometry body's vertices."""
    n = len(vertex)
    w = geometry.vertices
    k = w.shape[0]
    c = np.zeros(n + 2)
    c[n:] = 1.0
    a_ub = np.zeros((2 * k, n + 2))
    a_ub[:k, :n] = w
    a_ub[:k, n] = -1.0
    a_ub[k:, :n] = -w
    a_ub[k:, n + 1] = -1.0
    b_ub = np.concatenate([w @ prev_point, -(w @ next_point)])
    a_eq = np.zeros((1, n + 2))
    a_eq[0, :n] = normal
    sol = solve_lp(make_lp(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq,
                           b_eq=[float(normal @ vertex)]))
    assert sol.status == "optimal"
    return float(sol.objective)


class TestPairInvariants:
    @pytest.fixture(scope="class")
    def cases(self):
        sq = square()
        out = []
        for table, geometry, q in [
            (sq, sq, width_curve()),
            (sq, sq, ClosedPolygonalCurve(np.array([[0.0, -1.0], [0.0, 1.0]]))),
            (cross(), sq, width_curve()),
            (sq, cross(), width_curve()),
            # billiards realized by the solver, in 4-D and on random polygons
            realized(simplex_4d(), simplex_4d()),
            realized(random_polygon(3, 54), random_polygon(6, 1054)),
            realized(random_polygon(4, 121), random_polygon(5, 1121)),
        ]:
            p = extract_dual(table, geometry, q)
            out.append((table, geometry, q, p))
        return out

    def test_round_trip_verifies(self, cases):
        for table, geometry, q, p in cases:
            assert verify_strong(table, geometry, q, p).verified

    def test_strong_implies_weak(self, cases):
        for table, geometry, q, p in cases:
            assert verify_weak(table, geometry, q).verified

    def test_action_matches_length(self, cases):
        for table, geometry, q, p in cases:
            action = discrete_action(q, p)
            length = minkowski_length(geometry, q)
            assert abs(action - length) <= 1e-8 * (1 + abs(length))

    def test_length_duality_against_negated_table(self, cases):
        for table, geometry, q, p in cases:
            length_q = minkowski_length(geometry, q)
            length_p = raw_length(negate(table), p)
            assert abs(length_q - length_p) <= 1e-8 * (1 + abs(length_q))

    def test_both_trajectories_are_pinned(self, cases):
        for table, geometry, q, p in cases:
            assert translation_margin(table, q).pinned
            assert translation_margin(geometry, canonicalize(p)).pinned

    def test_swapped_factor_image_is_strong(self, cases):
        # from a verified pair, momenta become the curve on the old geometry
        # body and negated shifted bounce points become the momenta
        for table, geometry, q, p in cases:
            image_q = canonicalize(p)
            if image_q.num_points != q.num_points:
                continue
            image_p = -np.roll(q.points, -1, axis=0)
            pair = verify_strong(geometry, negate(table), image_q, image_p)
            assert pair.verified
