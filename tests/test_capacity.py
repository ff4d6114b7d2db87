import dataclasses
import gc
import re
import tracemalloc
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import ehzcap.capacity
import ehzcap.geometry
from ehzcap.bodies import named_body, perturbed_body, random_polygon
from ehzcap.capacity import (
    VALUE_TIE_TOL,
    FacetAssignment,
    boundary_grid,
    brute_force_oracle,
    capacity_identities,
    check_oracle_parameters,
    ehz_capacity,
    enumerate_assignments,
    solve_assignment,
    _assignment_bounds,
    _centrally_symmetric,
    _margin_dual_vertices,
    _one_orientation,
    _realize_billiard,
    _solve_side,
)
from ehzcap.curves import (
    ClosedPolygonalCurve,
    _canonical_rows,
    canonicalize,
    minkowski_length,
    translation_margin,
)
from ehzcap.errors import (
    CurveCollapseError,
    DimensionMismatchError,
    EhzcapError,
    GridTooCoarseError,
    InvalidBodyError,
    InvalidParameterError,
    LpNumericalError,
)
from ehzcap.billiards import verify_strong, verify_weak
from ehzcap.geometry import (
    GEOM_TOL,
    ConvexPolytope,
    affine_image,
    chebyshev_center,
    negate,
    polar,
    translate,
    _incidence_tol,
)
import ehzcap.lp
from ehzcap.lp import LpSolution, solve_lp


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


def tesseract():
    corners = [[sx, sy, sz, sw] for sx in (-1, 1) for sy in (-1, 1)
               for sz in (-1, 1) for sw in (-1, 1)]
    return ConvexPolytope.from_vertices(corners)


def regular_pentagon():
    angles = np.pi / 2 + 2 * np.pi * np.arange(5) / 5
    return ConvexPolytope.from_vertices(
        np.column_stack([np.cos(angles), np.sin(angles)]))


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


@st.composite
def symmetric_polygons_off_center(draw):
    """A centrally symmetric polygon whose center is moved off the origin,
    sometimes far enough that the origin leaves the body."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.RandomState(seed)
    for _ in range(50):
        half = rng.uniform(-2, 2, size=(int(rng.randint(2, 5)), 2)).round(3)
        center = rng.uniform(-3, 3, size=2).round(3)
        try:
            body = ConvexPolytope.from_vertices(np.vstack([half, -half]))
        except InvalidBodyError:
            continue
        return translate(body, center)
    return translate(square(), [0.3, -0.2])


class TestEnumerateAssignments:
    def test_square_has_two(self):
        out = enumerate_assignments(square())
        assert [a.size for a in out] == [2, 2]

    def test_square_pairs_are_the_opposite_facets(self):
        pairs = [a.indices for a in enumerate_assignments(square()) if a.size == 2]
        sq = square()
        for i, j in pairs:
            assert np.allclose(sq.normals[i], -sq.normals[j])

    def test_triangle_has_two(self):
        out = enumerate_assignments(triangle())
        assert [a.indices for a in out] == [(0, 1, 2), (0, 2, 1)]

    def test_cube_has_three(self):
        # the three antipodal pairs; every other hull-valid subset holds one
        out = enumerate_assignments(cube())
        assert [a.size for a in out] == [2, 2, 2]

    def test_hull_certificates_are_valid(self):
        for body in (cube(), perturbed_body(cube(), 1e-3, seed=0)):
            for a in enumerate_assignments(body):
                assert np.all(a.hull_weights >= -1e-9)
                assert abs(a.hull_weights.sum() - 1.0) <= 1e-9
                combo = a.hull_weights @ body.normals[list(a.indices)]
                assert np.max(np.abs(combo)) <= 1e-9

    @pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-4])
    @pytest.mark.parametrize("name", ["cube", "octahedron", "simplex-3d"])
    def test_subsets_match_highs_feasibility(self, name, delta):
        # The facet sets are the minimal HiGHS-feasible subsets: feasible,
        # with no feasible proper subset.
        linprog = pytest.importorskip("scipy.optimize").linprog
        base = perturbed_body(named_body(name), delta, seed=0)
        for body in (base, negate(base)):
            found = {tuple(sorted(a.indices))
                     for a in enumerate_assignments(body)}
            feasible = set()
            for m in range(2, body.dim + 2):
                for subset in combinations(range(body.num_facets), m):
                    a_eq = np.vstack([body.normals[list(subset)].T,
                                      np.ones((1, m))])
                    b_eq = np.zeros(body.dim + 1)
                    b_eq[-1] = 1.0
                    ref = linprog(np.zeros(m), A_eq=a_eq, b_eq=b_eq,
                                  bounds=[(0, None)] * m, method="highs")
                    if ref.status == 0:
                        feasible.add(subset)
            minimal = {s for s in feasible
                       if not any(set(t) < set(s) for t in feasible)}
            assert found == minimal

    def test_solves_no_lp(self, monkeypatch):
        def refuse(lp):
            raise AssertionError("the enumeration solved an LP")

        monkeypatch.setattr(ehzcap.capacity, "solve_lp", refuse)
        assert len(enumerate_assignments(cube())) == 3

    def test_deterministic(self):
        first = [a.indices for a in enumerate_assignments(square())]
        second = [a.indices for a in enumerate_assignments(square())]
        assert first == second

    @given(centered_polygons())
    @settings(max_examples=20, deadline=None)
    def test_never_empty(self, body):
        assert enumerate_assignments(body)


# The enumeration as it was before it was reduced to minimal supports: every
# facet subset that contains the support of a vertex of the weight polytope,
# with the first such vertex, restricted and renormalized, as hull weights.

def _superset_enumeration(table):
    n = table.dim
    f = table.num_facets
    vertices = _margin_dual_vertices(table)
    supports = vertices > GEOM_TOL
    support_sizes = supports.sum(axis=1)
    out = []
    for m in range(2, min(n + 1, f) + 1):
        subsets = list(combinations(range(f), m))
        members = np.zeros((len(subsets), f), dtype=bool)
        members[np.arange(len(subsets))[:, None], subsets] = True
        first_vertex = np.full(len(subsets), -1)
        for k in np.flatnonzero(support_sizes <= m):
            hit = (first_vertex < 0) & members[:, supports[k]].all(axis=1)
            first_vertex[hit] = k
        for subset, k in zip(subsets, first_vertex):
            if k < 0:
                continue
            vertex = vertices[k]
            total = vertex[list(subset)].sum()
            for perm in permutations(subset[1:]):
                order = (subset[0],) + perm
                out.append(FacetAssignment(order, vertex[list(order)] / total))
    return tuple(out)


def _side_outcome(solve):
    """The side minimum, or the message of the LpNumericalError it raised."""
    try:
        return solve()
    except LpNumericalError as exc:
        return str(exc)


def _compare_with_superset_search(table, geometry):
    """Run a side on the minimal supports and on every hull-valid facet set.

    The enumeration must be a subsequence of the superset enumeration with
    the same hull weights.  Both searches solve one orientation per cycle
    when the length body is symmetric, as the solver does, so where the
    simplex breaks down their messages can be compared.  Returns both
    outcomes and the two enumeration sizes.
    """
    reference = _superset_enumeration(table)
    out = enumerate_assignments(table)
    sizes = (len(out), len(reference))
    by_indices = {a.indices: a for a in reference}
    positions = {a.indices: i for i, a in enumerate(reference)}
    order = [positions[a.indices] for a in out]
    assert order == sorted(order)
    for a in out:
        np.testing.assert_allclose(a.hull_weights,
                                   by_indices[a.indices].hull_weights,
                                   rtol=0, atol=1e-12)
    if _centrally_symmetric(geometry):
        reference = _one_orientation(reference)
    full = _side_outcome(lambda: min(
        solve_assignment(table, geometry, a).value for a in reference))
    side = _side_outcome(lambda: _solve_side(table, geometry).value)
    return side, full, sizes


def _assert_same_minimum(side, full):
    assert isinstance(side, float) and isinstance(full, float)
    assert abs(side - full) <= 1e-12 * full


class TestMinimalSupports:
    @given(st.one_of(centered_polygons(), symmetric_polygons_off_center()),
           st.one_of(centered_polygons(), symmetric_polygons_off_center()))
    @settings(max_examples=20, deadline=None)
    def test_polygons_match_the_superset_search(self, table, geometry):
        side, full, _ = _compare_with_superset_search(table, geometry)
        _assert_same_minimum(side, full)

    @pytest.mark.parametrize("table, geometry, counts", [
        (cube, octahedron, (3, 117)),
        (octahedron, cube, (16, 388)),
        (lambda: named_body("simplex-3d"), cube, (6, 6)),
    ], ids=["cube", "octahedron", "simplex-3d"])
    def test_named_bodies_match_the_superset_search(self, table, geometry,
                                                    counts):
        side, full, sizes = _compare_with_superset_search(table(), geometry())
        _assert_same_minimum(side, full)
        assert sizes == counts

    def test_perturbed_cube_fails_where_the_superset_search_fails(self):
        # A generic table: every hull-valid subset is a minimal support.
        # The in-package simplex cannot solve this side yet, so the check is
        # that both break down.  The superset search solves in enumeration
        # order, the side in bound order, so the side may name another
        # program first; that program must fail alone with the same message.
        table = perturbed_body(cube(), 1e-3, seed=0)
        side, full, sizes = _compare_with_superset_search(table, octahedron())
        assert sizes == (576, 576)
        assert full.startswith("assignment program (0, 4, 2, 10): ")
        assert isinstance(side, str)
        named = re.match(r"assignment program \(([\d, ]+)\): ", side)
        indices = tuple(int(i) for i in named.group(1).split(", "))
        assignment = next(a for a in enumerate_assignments(table)
                          if a.indices == indices)
        with pytest.raises(LpNumericalError) as info:
            solve_assignment(table, octahedron(), assignment)
        assert str(info.value) == side


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

    def test_length_body_needs_no_interior_origin(self):
        # The triangle has the origin at a vertex; a translate of the
        # length body leaves every closed curve's length unchanged.
        sq = square()
        inside = translate(triangle(), [-0.25, -0.25])
        for assignment in enumerate_assignments(sq):
            value = solve_assignment(sq, triangle(), assignment).value
            expected = solve_assignment(sq, inside, assignment).value
            assert abs(value - expected) <= 1e-12 * expected

    def test_bad_indices_rejected(self):
        with pytest.raises(InvalidBodyError):
            solve_assignment(square(), square(),
                             FacetAssignment((0, 9), np.array([0.5, 0.5])))

    def test_repeated_index_rejected(self):
        with pytest.raises(InvalidBodyError, match="must be distinct"):
            solve_assignment(square(), square(),
                             FacetAssignment((0, 0), np.array([0.5, 0.5])))

    def test_length_body_of_another_dimension_rejected(self):
        with pytest.raises(DimensionMismatchError,
                           match="table and length body dimensions differ"):
            solve_assignment(square(), cube(),
                             FacetAssignment((0, 1), np.array([0.5, 0.5])))

    def test_pivot_limit_names_the_assignment(self, monkeypatch):
        # The call builds its side's programs, so the program solved is a
        # family program and hits the limit in the shared form's phase 1.
        monkeypatch.setattr(ehzcap.lp, "MAX_PIVOTS", 1)
        with pytest.raises(LpNumericalError,
                           match=r"assignment program \(0, 1, 2\): pivot "
                                 "limit exceeded"):
            solve_assignment(triangle(), square(),
                             FacetAssignment((0, 1, 2), np.ones(3) / 3))

    def test_solver_error_names_the_assignment(self, monkeypatch):
        def fail(lp):
            raise LpNumericalError("phase 1 reported unbounded")

        monkeypatch.setattr(ehzcap.capacity, "solve_lp", fail)
        with pytest.raises(LpNumericalError,
                           match=r"assignment program \(0, 1, 2\): phase 1"
                           ) as info:
            solve_assignment(triangle(), square(),
                             FacetAssignment((0, 1, 2), np.ones(3) / 3))
        assert isinstance(info.value.__cause__, LpNumericalError)

    def test_nonoptimal_status_names_the_assignment(self, monkeypatch):
        monkeypatch.setattr(ehzcap.capacity, "solve_lp",
                            lambda lp: LpSolution(status="unbounded"))
        with pytest.raises(LpNumericalError,
                           match=r"assignment program \(0, 2, 1\) ended with "
                                 "status unbounded"):
            solve_assignment(triangle(), square(),
                             FacetAssignment((0, 2, 1), np.ones(3) / 3))

    def test_cube_winner_momenta_lie_in_the_length_body(self):
        winner = ehz_capacity(cube(), cube()).assignment
        out = solve_assignment(cube(), cube(), winner)
        assert out.momenta.shape == out.points.shape
        for p in out.momenta:
            assert cube().locate(p) != "outside"
        rows, carry = _canonical_rows(out.points, out.momenta)
        assert verify_strong(cube(), cube(),
                             ClosedPolygonalCurve(out.points[rows]),
                             out.momenta[carry]).verified


SYMMETRIC_BODIES = {
    "square": square,
    "cross-polytope": cross,
    "cube": cube,
    "octahedron": octahedron,
    "tesseract": tesseract,
    "translated-square": lambda: translate(square(), [0.3, -0.2]),
}
ASYMMETRIC_BODIES = {
    "triangle": triangle,
    "regular-pentagon": regular_pentagon,
    "simplex-3d": lambda: named_body("simplex-3d"),
    "4-simplex": simplex_4d,
    "perturbed-square": lambda: perturbed_body(square(), 1e-6, seed=0),
}


class TestReversalFilter:
    @pytest.mark.parametrize("name", SYMMETRIC_BODIES)
    def test_symmetric_bodies_are_detected(self, name):
        assert _centrally_symmetric(SYMMETRIC_BODIES[name]())

    @pytest.mark.parametrize("name", ASYMMETRIC_BODIES)
    def test_asymmetric_bodies_are_not(self, name):
        assert not _centrally_symmetric(ASYMMETRIC_BODIES[name]())

    def test_simplex_keeps_one_orientation_of_each_cycle(self):
        table, lengths = named_body("simplex-3d"), octahedron()
        every = enumerate_assignments(table)
        kept = _one_orientation(every)
        assert (len(every), len(kept)) == (6, 3)
        values = {a.indices: solve_assignment(table, lengths, a).value
                  for a in every}
        for a in kept:
            reverse = a.indices[:1] + a.indices[:0:-1]
            assert abs(values[reverse] - values[a.indices]) <= (
                1e-12 * values[a.indices])

    # The regular pentagon's minimal supports are its five facet triples
    # whose normals surround the origin, ten cycles in all.
    @pytest.mark.parametrize("lengths, kept", [(square, 5), (triangle, 10)])
    def test_filter_runs_only_for_symmetric_lengths(self, lengths, kept):
        side = _solve_side(regular_pentagon(), lengths())
        assert (side.enumerated, side.kept) == (10, kept)

    @given(centered_polygons(), symmetric_polygons_off_center())
    @settings(max_examples=15, deadline=None)
    def test_filtered_side_matches_every_assignment(self, table, geometry):
        side = _solve_side(table, geometry)
        assert _centrally_symmetric(geometry)
        every = [solve_assignment(table, geometry, a)
                 for a in enumerate_assignments(table)]
        value = min(s.value for s in every)
        assert abs(side.value - value) <= 1e-12 * value
        tie = VALUE_TIE_TOL * (1.0 + abs(value))
        first = min((s for s in every if s.value <= value + tie),
                    key=lambda s: s.assignment.indices)
        assert side.tied[0].assignment.indices == first.assignment.indices


def _unpruned_side(table, geometry):
    """Stage 3 of a side without the bound: every kept assignment solved,
    in enumeration order.  Returns the minimum and the tie set."""
    assignments = enumerate_assignments(table)
    if _centrally_symmetric(geometry):
        assignments = _one_orientation(assignments)
    solutions = [solve_assignment(table, geometry, a) for a in assignments]
    value = min(s.value for s in solutions)
    tie = VALUE_TIE_TOL * (1.0 + abs(value))
    tied = sorted((s for s in solutions if s.value <= value + tie),
                  key=lambda s: s.assignment.indices)
    return value, tuple(tied)


def _assert_matches_unpruned(table, geometry):
    side = _solve_side(table, geometry)
    value, tied = _unpruned_side(table, geometry)
    assert side.value == value
    assert ([s.assignment.indices for s in side.tied]
            == [s.assignment.indices for s in tied])
    for got, want in zip(side.tied, tied):
        assert got.points.tobytes() == want.points.tobytes()
        assert got.momenta.tobytes() == want.momenta.tobytes()
    assert side.solved <= side.kept


def _assert_bounds_below_values(table, geometry):
    """Every assignment's bound is at most its value, up to rounding."""
    assignments = enumerate_assignments(table)
    bounds = _assignment_bounds(table, geometry, assignments)
    values = [solve_assignment(table, geometry, a).value
              for a in assignments]
    for a, bound, value in zip(assignments, bounds, values):
        assert bound <= value + 1e-12 * (1.0 + value), a.indices


polygons = st.one_of(centered_polygons(), symmetric_polygons_off_center())


def _pair_bounds(table, length_body):
    """Reference copy of the pair bounds the cycle bound replaced: (F, F)
    lower bounds on every closed curve through two table facets, the
    largest over p = w_a - w_b of the least <p, v> on facet j's vertices
    minus the greatest <p, u> on facet i's, symmetrized."""
    w = length_body.vertices
    diffs = (w[:, None, :] - w[None, :, :]).reshape(-1, table.dim)
    dots = table.vertices @ diffs.T  # (V_K, V_T^2)
    incident = (table.vertices @ table.normals.T - table.offsets
                >= -_incidence_tol(table.vertices))  # (V_K, F)
    facet, vertex = np.nonzero(incident.T)
    starts = np.flatnonzero(np.r_[True, facet[1:] != facet[:-1]])
    low = np.minimum.reduceat(dots[vertex], starts, axis=0)  # (F, V_T^2)
    high = np.maximum.reduceat(dots[vertex], starts, axis=0)
    bounds = np.array([(low - h).max(axis=1) for h in high])
    return np.maximum(bounds, bounds.T)


def _assert_cycle_bounds_match_their_definition(table, geometry):
    """Every kept assignment's cycle bound is, up to rounding, the largest
    over vertex momentum sequences of sum_j min over facet i_j's vertices v
    of <w_{a_{j-1}} - w_{a_j}, v>, each sequence summed in a loop."""
    assignments = enumerate_assignments(table)
    if _centrally_symmetric(geometry):
        assignments = _one_orientation(assignments)
    bounds = _assignment_bounds(table, geometry, assignments)
    w = geometry.vertices
    on_facet = [table.vertices[table.vertices @ a - b
                               >= -_incidence_tol(table.vertices)]
                for a, b in zip(table.normals, table.offsets)]
    for a, bound in zip(assignments, bounds):
        best = max(
            sum(min((w[seq[j - 1]] - w[seq[j]]) @ v for v in on_facet[i])
                for j, i in enumerate(a.indices))
            for seq in product(range(len(w)), repeat=a.size))
        assert abs(bound - best) <= 1e-12 * (1.0 + abs(best)), a.indices


def _assert_cycle_bounds_dominate_pair_bounds(table, geometry):
    """Every kept assignment's cycle bound is at least its largest pair
    bound, and equal to it on a 2-cycle, up to rounding."""
    assignments = enumerate_assignments(table)
    if _centrally_symmetric(geometry):
        assignments = _one_orientation(assignments)
    bounds = _assignment_bounds(table, geometry, assignments)
    pair = _pair_bounds(table, geometry)
    for a, bound in zip(assignments, bounds):
        largest = max(pair[i, j] for i, j in combinations(a.indices, 2))
        tol = 1e-12 * (1.0 + abs(bound))
        assert bound >= largest - tol, a.indices
        if a.size == 2:
            assert bound <= largest + tol, a.indices


class TestBestFirstSearch:
    @given(polygons, polygons)
    @settings(max_examples=25, deadline=None)
    def test_polygons_match_the_unpruned_search(self, table, geometry):
        _assert_matches_unpruned(table, geometry)

    @pytest.mark.parametrize("table, geometry", [
        (cube, octahedron),
        (octahedron, cube),
        (lambda: named_body("simplex-3d"), cube),
        (lambda: named_body("simplex-3d"), octahedron),
    ], ids=["cube-octahedron", "octahedron-cube", "simplex-3d-cube",
            "simplex-3d-octahedron"])
    def test_named_bodies_match_the_unpruned_search(self, table, geometry):
        _assert_matches_unpruned(table(), geometry())

    @given(polygons, polygons)
    @settings(max_examples=20, deadline=None)
    def test_bounds_are_below_the_values_on_polygons(self, table, geometry):
        _assert_bounds_below_values(table, geometry)

    def test_bounds_are_below_the_values_on_a_pentagon_with_triangle_lengths(
            self):
        # The triangle is not centrally symmetric, so a cycle and its
        # reverse differ: (1, 2, 3) has the value 1.382, and the bound of
        # its reverse reads 1.809.
        _assert_bounds_below_values(regular_pentagon(), triangle())

    @given(st.sampled_from(["cube", "octahedron", "simplex-3d"]),
           st.sampled_from(["cube", "octahedron", "simplex-3d"]),
           st.sampled_from([1e-2, 1e-3]), st.integers(0, 20))
    @settings(max_examples=6, deadline=None)
    def test_bounds_are_below_the_values_on_perturbed_bodies(
            self, table, geometry, delta, seed):
        # Sides where the in-package simplex fails are skipped: their
        # programs that do solve may carry only about eight digits
        # (cube delta=1e-3 seed=3 x octahedron has one 9.7e-11 below the
        # bound, which HiGHS puts above it).
        try:
            _assert_bounds_below_values(
                perturbed_body(named_body(table), delta, seed=seed),
                named_body(geometry))
        except LpNumericalError:
            assume(False)

    @given(polygons, polygons)
    @settings(max_examples=25, deadline=None)
    def test_cycle_bounds_dominate_pair_bounds_on_polygons(self, table,
                                                          geometry):
        _assert_cycle_bounds_dominate_pair_bounds(table, geometry)

    @pytest.mark.parametrize("table, geometry", [
        (t, g) for t in ("cube", "octahedron", "simplex-3d")
        for g in ("cube", "octahedron", "simplex-3d")])
    def test_cycle_bounds_dominate_pair_bounds_on_named_bodies(
            self, table, geometry):
        _assert_cycle_bounds_dominate_pair_bounds(named_body(table),
                                                  named_body(geometry))

    @given(polygons, polygons)
    @settings(max_examples=10, deadline=None)
    def test_cycle_bounds_match_their_definition_on_polygons(self, table,
                                                            geometry):
        _assert_cycle_bounds_match_their_definition(table, geometry)

    @pytest.mark.parametrize("table, geometry", [
        ("cube", "octahedron"), ("octahedron", "cube"),
        ("simplex-3d", "simplex-3d")])
    def test_cycle_bounds_match_their_definition_on_named_bodies(
            self, table, geometry):
        _assert_cycle_bounds_match_their_definition(named_body(table),
                                                    named_body(geometry))

    def test_triangle_cycle_is_bounded_where_every_pair_reads_zero(self):
        # Momenta on the square's vertices reach the value; no two of the
        # triangle's facets alone carry any length bound.
        tri, sq = triangle(), square()
        assignment = next(a for a in enumerate_assignments(tri)
                          if a.indices == (0, 1, 2))
        bound = _assignment_bounds(tri, sq, [assignment])[0]
        assert abs(bound - 2.0) <= 1e-12
        assert solve_assignment(tri, sq, assignment).value == 2.0000000000000004
        assert np.all(_pair_bounds(tri, sq) == 0.0)

    def test_opposite_square_facets_bound_the_capacity_exactly(self):
        sq = square()
        assert (facet_index(sq, (-1, 0)), facet_index(sq, (1, 0))) == (0, 3)
        opposite = next(a for a in enumerate_assignments(sq)
                        if a.indices == (0, 3))
        assert abs(_assignment_bounds(sq, sq, [opposite])[0] - 4.0) <= 1e-12

    def test_cycle_bound_reads_the_tables_own_incidence(self, monkeypatch):
        table, geometry = random_polygon(7, 1), random_polygon(6, 2)
        expected = _solve_side(table, geometry).value
        assert table.incidence.shape == (7, 7)  # built with the table

        def refuse(*args):
            raise AssertionError("incidence computed again")

        monkeypatch.setattr(ehzcap.geometry, "_incidence", refuse)
        assert _solve_side(table, geometry).value == expected

    @pytest.mark.parametrize("table, geometry, counts", [
        (square, square, (2, 2, 2)),
        (lambda: random_polygon(8, 2), lambda: random_polygon(8, 3),
         (36, 36, 5)),
    ], ids=["square-square", "8-gon-8-gon"])
    def test_counts(self, table, geometry, counts):
        side = _solve_side(table(), geometry())
        assert (side.enumerated, side.kept, side.solved) == counts


class TestCanonicalRowsWithMomenta:
    def test_spike_between_coincident_neighbours_is_kept(self):
        points = np.array([[1.0, 0, 0], [0, 1, 0], [1, 0, 0], [0, 0, 1]])
        momenta = np.arange(12.0).reshape(4, 3)
        rows, carry = _canonical_rows(points, momenta)
        assert rows == carry == [0, 1, 2, 3]

    def test_coincident_pair_drops_the_later_point(self):
        points = np.array([[0.0, 0], [1, 0], [1, 1e-12], [0, 1]])
        momenta = np.arange(8.0).reshape(4, 2)
        rows, carry = _canonical_rows(points, momenta)
        assert (rows, carry) == ([0, 1, 3], [0, 2, 3])

    def test_wrapped_coincident_pair_matches_canonicalize(self):
        points = np.array([[0.0, 0], [1, 0], [0, 1], [0, 0]])
        momenta = np.arange(8.0).reshape(4, 2)
        rows, carry = _canonical_rows(points, momenta)
        np.testing.assert_array_equal(points[rows],
                                      canonicalize(points).points)
        assert carry == [1, 2, 0]

    def test_collinear_point_with_a_kick_blocks_the_merge(self):
        points = np.array([[0.0, 0], [0.5, 0], [1, 0], [0, 1]])
        momenta = np.arange(8.0).reshape(4, 2)
        with pytest.raises(CurveCollapseError, match=re.escape(
                "a collinear bounce with a genuine kick blocks the merge")):
            _canonical_rows(points, momenta)


def _swap_momenta(solution):
    return dataclasses.replace(solution, momenta=solution.momenta[::-1])


class TestRealizeBilliard:
    """The tie loop, on square x cross: it ties (0, 3) and (1, 2), two
    width chords whose momenta are the two vertices of the cross on
    their line."""

    def side(self):
        side = _solve_side(square(), cross())
        assert [s.assignment.indices for s in side.tied] == [(0, 3), (1, 2)]
        return side

    def test_falls_through_to_the_second_tie(self):
        side = self.side()
        first, second = side.tied
        side = dataclasses.replace(side, tied=(_swap_momenta(first), second))
        curve, momenta, length, note = _realize_billiard(square(), cross(),
                                                         side)
        np.testing.assert_array_equal(curve.points, second.points)
        np.testing.assert_array_equal(momenta, second.momenta)
        assert length == side.value
        assert note == ""

    def test_every_tie_failing_names_each_assignment(self):
        side = self.side()
        side = dataclasses.replace(
            side, tied=tuple(_swap_momenta(s) for s in side.tied))
        assert _realize_billiard(square(), cross(), side) == (
            None, None, None,
            "(0, 3): multiplier momenta failed verification; "
            "(1, 2): multiplier momenta failed verification")

    def test_collapsing_tie_is_named_with_the_loop_message(self):
        side = self.side()
        first, second = side.tied
        first = dataclasses.replace(first, points=np.zeros_like(first.points))
        side = dataclasses.replace(side, tied=(first, _swap_momenta(second)))
        assert _realize_billiard(square(), cross(), side) == (
            None, None, None,
            "(0, 3): curve collapses to a point; "
            "(1, 2): multiplier momenta failed verification")

    def test_verified_curve_of_the_wrong_length(self):
        side = dataclasses.replace(self.side(), value=5.0)
        assert _realize_billiard(square(), cross(), side) == (
            None, None, None,
            "realized trajectory has length 4.0 instead of 5.0")


class TestStageNamedErrors:
    """The minimizer checks of ``ehz_capacity`` name the winning assignment
    of the primary side, (0, 3) for square x cross."""

    def test_unpinned_minimizer(self, monkeypatch):
        monkeypatch.setattr(
            ehzcap.capacity, "translation_margin",
            lambda body, curve: dataclasses.replace(
                translation_margin(body, curve), pinned=False))
        with pytest.raises(LpNumericalError, match=re.escape(
                "assignment (0, 3): minimizing curve is not pinned")):
            ehz_capacity(square(), cross())

    def test_minimizer_that_changed_length(self, monkeypatch):
        monkeypatch.setattr(ehzcap.capacity, "minkowski_length",
                            lambda body, curve: 5.0)
        with pytest.raises(LpNumericalError, match=re.escape(
                "assignment (0, 3): canonical minimizer changed length")):
            ehz_capacity(square(), cross())


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

    def test_offcenter_geometry_realizes_against_the_given_body(self):
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

    # A centered polygon's vertices lie within 4 sqrt 2 < 6 of the origin,
    # so a translation of length 6 or more moves the origin out of it.
    @given(centered_polygons(), centered_polygons(),
           st.floats(0, 2 * np.pi),
           st.one_of(st.floats(0, 1), st.floats(6, 10)))
    @settings(max_examples=15, deadline=None)
    def test_translating_the_geometry_keeps_the_value(self, table, geometry,
                                                      angle, radius):
        t = radius * np.array([np.cos(angle), np.sin(angle)])
        moved = translate(geometry, t)
        if radius >= 6:
            assert moved.locate(np.zeros(2)) == "outside"
        base = ehz_capacity(table, geometry)
        result = ehz_capacity(table, moved)
        assert base.quantities.consistent and result.quantities.consistent
        assert abs(result.value - base.value) <= 1e-9 * base.value


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

    @pytest.mark.parametrize("step, m_max", [
        (0.0, None), (-1.0, None), (float("nan"), None), (0.25, 1),
        (0.25, 4)])
    def test_bad_parameters_are_package_errors(self, step, m_max):
        with pytest.raises(InvalidParameterError) as info:
            brute_force_oracle(square(), square(), step, m_max=m_max)
        assert isinstance(info.value, EhzcapError)
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("body, points, value", [
        (lambda: random_polygon(6, 0), 35, 2.029828571428572),
        (lambda: named_body("triangle"), 14, 2.0),
    ], ids=["6-gon", "triangle"])
    @pytest.mark.parametrize("scale", [1e7, 1e8, 1e10])
    def test_scaled_table_gives_the_unscaled_grid_and_value(
            self, body, points, value, scale):
        # The facet corners and the inside filter scale with the body, so
        # the grid at scale s and step 0.25 s is the unscaled grid times s.
        # The margins are slack averages in the table's units, so the
        # pinned tolerance scales too; an absolute one pinned extra tuples
        # of the 6-gon at 1e10 and no tuple of the triangle.
        table = affine_image(body(), scale)
        assert len(boundary_grid(body(), 0.25)) == points
        assert len(boundary_grid(table, 0.25 * scale)) == points
        oracle = brute_force_oracle(table, square(), 0.25 * scale) / scale
        assert abs(oracle - value) <= 1e-14

    def test_no_pinned_tuple_names_its_error(self, monkeypatch):
        # The grid holds the table's corners, so some tuple of the corpus's
        # grids always pins; a negative tolerance pins none.
        monkeypatch.setattr(ehzcap.capacity, "PINNED_TOL", -1.0)
        with pytest.raises(GridTooCoarseError,
                           match="no pinned tuple of up to 3 grid points at "
                                 "step 0.25"):
            brute_force_oracle(triangle(), square(), 0.25)

    @pytest.mark.parametrize("step", [1e-300, 1e-9])
    def test_too_fine_a_step_is_refused_before_the_grid(self, monkeypatch,
                                                        step):
        def refuse(body, facet, step):
            raise AssertionError("grid built before the step was checked")

        monkeypatch.setattr(ehzcap.capacity, "_facet_grid", refuse)
        for call in (lambda: boundary_grid(triangle(), step),
                     lambda: brute_force_oracle(triangle(), square(), step)):
            with pytest.raises(InvalidParameterError, match="too fine"):
                call()

    def test_grid_size_bound_is_scale_free(self):
        # The triangle's diameter is sqrt 2 and it has 3 facets, so a step
        # of sqrt 2 / 333332 gives at most 3 * 333333 points, and one a
        # little finer more than 10**6.
        for scale in (1.0, 1e-6, 1e6):
            table = affine_image(triangle(), scale)
            step = scale * np.sqrt(2.0) / 333332 * (1 + 1e-9)
            assert check_oracle_parameters(table, step) == 3
            with pytest.raises(InvalidParameterError):
                check_oracle_parameters(table, step / 1.01)

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


    def test_margin_dual_vertices_one_per_support(self):
        # The octahedron's vertex with support (3, 4) comes out of two bases
        # a few ulps apart, with another vertex sorting between the copies.
        duals = _margin_dual_vertices(octahedron())
        supports = {tuple(np.flatnonzero(row > GEOM_TOL)) for row in duals}
        assert len(duals) == 6
        assert len(supports) == 6


@st.composite
def symmetric_centered_polygons(draw):
    """The hull of 2 to 5 random points and their negatives."""
    rng = np.random.RandomState(draw(st.integers(0, 2**32 - 1)))
    for _ in range(50):
        half = rng.uniform(-2, 2, size=(int(rng.randint(2, 6)), 2))
        try:
            return ConvexPolytope.from_vertices(np.vstack([half, -half]))
        except InvalidBodyError:
            continue
    return square()


class TestSymmetricBodyAndPolar:
    @given(symmetric_centered_polygons())
    @settings(max_examples=20, deadline=None)
    def test_capacity_of_body_times_polar_is_four(self, body):
        # Artstein-Avidan, Karasev & Ostrover 2014: c(K x K polar) = 4 for
        # every centrally symmetric convex body K centered at the origin.
        result = ehz_capacity(body, polar(body))
        assert result.quantities.consistent
        assert abs(result.value - 4.0) <= 1e-9


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

    def test_each_body_is_negated_once(self, monkeypatch):
        calls = []

        def counting_negate(body):
            calls.append(body)
            return negate(body)

        monkeypatch.setattr(ehzcap.capacity, "negate", counting_negate)
        report = capacity_identities(triangle(), square())
        assert len(calls) == 2
        assert report.consistent

    def test_error_names_the_variant(self, monkeypatch):
        # (-1/sqrt 2, -1/sqrt 2) is a normal of the negated triangle only,
        # and every assignment of a triangle uses all three facets.
        normals = negate(triangle()).normals
        diagonal = normals[np.argmin(normals.sum(axis=1))]

        def unbounded_on_negated_table(lp_):
            m = lp_.a_eq.shape[0]
            blocks = lp_.a_eq[:, :2 * m].reshape(m, m, 2)
            if np.all(blocks == diagonal, axis=2).any():
                return LpSolution(status="unbounded")
            return solve_lp(lp_)

        monkeypatch.setattr(ehzcap.capacity, "solve_lp",
                            unbounded_on_negated_table)
        with pytest.raises(LpNumericalError, match=r"^negated_table: "
                           r"assignment program \(\d, \d, \d\) ended with "
                           "status unbounded"):
            capacity_identities(triangle(), square())

    def test_caught_errors_do_not_hold_the_failing_side(self):
        # Each error's traceback held the failing side's 576 assignments,
        # programs and tableaux, about 300 KB per error, for as long as a
        # caller kept it; the frames are cleared, the chain of causes kept.
        table = perturbed_body(named_body("cube"), 1e-2, seed=0)
        geometry = named_body("octahedron")
        kept = []
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(20):
                with pytest.raises(LpNumericalError) as info:
                    capacity_identities(table, geometry)
                kept.append(info.value)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 20 * 30_000
        assert {str(e) for e in kept} == {"base: assignment program "
                                          "(2, 4, 9, 8): phase 1 reported "
                                          "unbounded"}
        cause = kept[0].__cause__
        assert str(cause) == ("assignment program (2, 4, 9, 8): phase 1 "
                              "reported unbounded")
        assert str(cause.__cause__) == "phase 1 reported unbounded"


def _reference_identity_values(table, geometry):
    """The identity report's values with every variant solved anew, the
    loop that ran before repeated sides were reused."""
    neg_table, neg_geometry = negate(table), negate(geometry)
    variants = {
        "base": (table, geometry),
        "swapped": (geometry, table),
        "negated_table": (neg_table, geometry),
        "negated_geometry": (table, neg_geometry),
        "negated_both": (neg_table, neg_geometry),
    }
    return {name: _solve_side(k, t).value for name, (k, t) in variants.items()}


@pytest.fixture
def side_solves(monkeypatch):
    """The (table, geometry) pairs ``_solve_side`` is called with."""
    calls = []

    def counting_solve_side(table, geometry):
        calls.append((table, geometry))
        return _solve_side(table, geometry)

    monkeypatch.setattr(ehzcap.capacity, "_solve_side", counting_solve_side)
    return calls


class TestRepeatedSides:
    """A side whose bodies repeat the bytes of a side solved earlier in the
    same call is not solved again."""

    def test_identity_report_solves_three_sides(self, side_solves):
        # -square has the square's arrays, so the variants negating the
        # geometry repeat base and negated_table.
        report = capacity_identities(triangle(), square())
        assert len(side_solves) == 3
        assert report.values == _reference_identity_values(triangle(),
                                                           square())

    def test_self_pair_solves_one_side(self, side_solves):
        # Two square() calls build two objects: the key is bytes, not
        # identity.
        result = ehz_capacity(square(), square())
        assert len(side_solves) == 1
        assert result.quantities.swapped_pinned_minimum == result.value
        assert result.quantities.consistent

    @given(centered_polygons(max_pts=5),
           st.one_of(centered_polygons(max_pts=5), st.builds(square)),
           st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_values_bit_equal_to_solving_every_variant(self, polygon,
                                                       partner, swap):
        table, geometry = (partner, polygon) if swap else (polygon, partner)
        assert (capacity_identities(table, geometry).values
                == _reference_identity_values(table, geometry))

    def test_equal_values_in_other_bytes_are_solved_again(self, side_solves):
        body = triangle()
        vertices = body.vertices.copy()
        vertices[tuple(np.argwhere(vertices == 0.0)[0])] = -0.0
        zeroed = ConvexPolytope._image(body.normals, body.offsets, vertices)
        assert np.array_equal(zeroed.vertices, body.vertices)
        assert zeroed.vertices.tobytes() != body.vertices.tobytes()
        ehz_capacity(zeroed, body)
        assert len(side_solves) == 2

    def test_raising_first_variant_stops_the_report(self, monkeypatch,
                                                    side_solves):
        def fail(lp_):
            raise LpNumericalError("phase 1 reported unbounded")

        monkeypatch.setattr(ehzcap.capacity, "solve_lp", fail)
        with pytest.raises(LpNumericalError) as parent:
            _reference_identity_values(triangle(), square())
        with pytest.raises(LpNumericalError) as info:
            capacity_identities(triangle(), square())
        assert str(info.value) == f"base: {parent.value}"
        assert len(side_solves) == 1


class TestNegatedBodies:
    def test_negated_table_same_value_and_realizes(self):
        result = ehz_capacity(negate(triangle()), square())
        assert result.value == pytest.approx(2.0, abs=1e-6)
        assert result.realized
