"""Capacity of a product of two convex polytopes via facet assignments.

The capacity of the product of a table body K and a geometry body T equals
the shortest length, measured by T, of a closed curve with at most dim+1
vertices that cannot be translated into the interior of K.  A minimizing
curve can always be translated to touch the boundary, and the touched
facets then carry the origin in the convex hull of their outward normals.
The solver therefore enumerates the small cyclic facet sequences with that
hull property, solves one linear program per sequence for the shortest
touching curve, and takes the minimum.

The result is cross-checked four ways: the same enumeration runs with the
two bodies swapped, and on both sides a strong billiard trajectory of the
optimal length is reconstructed and verified.  The bounce laws are the KKT
conditions of the assignment program, so the trajectory's momenta are that
program's own multipliers and realization solves no further LP.  A
brute-force grid oracle provides an independent upper-bound search for
tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from math import ceil, inf

import numpy as np

from .billiards import verify_strong
from .curves import (
    PINNED_TOL,
    ClosedPolygonalCurve,
    TranslationCertificate,
    _on_segment,
    canonicalize,
    minkowski_length,
    translation_margin,
)
from .errors import (
    CurveCollapseError,
    DimensionMismatchError,
    GridTooCoarseError,
    InvalidBodyError,
    LpNumericalError,
    OriginNotInteriorError,
)
from .geometry import (
    GEOM_TOL,
    ConvexPolytope,
    chebyshev_center,
    negate,
    translate,
)
from .lp import make_lp, solve_lp

VALUE_TIE_TOL = 1e-9
QUANTITY_AGREEMENT_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class FacetAssignment:
    """Cyclic sequence of distinct table facets a touching curve can use.

    ``hull_weights`` certifies the defining property: nonnegative weights
    summing to one that combine the assigned facet normals to zero.
    """

    indices: tuple[int, ...]
    hull_weights: np.ndarray

    @property
    def size(self) -> int:
        return len(self.indices)

    def __repr__(self) -> str:
        return f"FacetAssignment{self.indices}"


def _zero_hull_weights(normals: np.ndarray):
    """Weights putting the origin in the convex hull of the rows, or None."""
    m, n = normals.shape
    a_eq = np.vstack([normals.T, np.ones((1, m))])
    b_eq = np.zeros(n + 1)
    b_eq[n] = 1.0
    sol = solve_lp(make_lp(np.zeros(m), a_eq=a_eq, b_eq=b_eq,
                           bounds=[(0.0, None)] * m))
    if sol.status != "optimal":
        return None
    return sol.x.copy()


def enumerate_assignments(table: ConvexPolytope,
                          m_max: int | None = None) -> tuple[FacetAssignment, ...]:
    """All valid facet assignments with 2 to m_max facets, in a fixed order.

    One representative per cyclic rotation class (smallest index first);
    both traversal orientations appear because curve lengths are sensitive
    to direction for non-symmetric geometry bodies.  Order: by size, then
    by facet subset, then by permutation of the remaining indices.
    """
    n = table.dim
    if m_max is None:
        m_max = n + 1
    if m_max < 2:
        raise ValueError("assignments need at least two facets")
    out = []
    for m in range(2, min(m_max, table.num_facets) + 1):
        for subset in combinations(range(table.num_facets), m):
            weights = _zero_hull_weights(table.normals[list(subset)])
            if weights is None:
                continue
            first, rest = subset[0], subset[1:]
            for perm in permutations(rest):
                order = (first,) + perm
                w = np.array([weights[subset.index(i)] for i in order])
                w.flags.writeable = False
                out.append(FacetAssignment(indices=order, hull_weights=w))
    return tuple(out)


@dataclass(frozen=True, eq=False)
class AssignmentSolution:
    """Optimal touching curve for one facet assignment.

    ``momenta`` holds the program's multipliers on the epigraph rows of each
    segment, combined into points of the length body: row j is the momentum
    of the segment from point j to point j+1.
    """

    assignment: FacetAssignment
    value: float
    points: np.ndarray
    momenta: np.ndarray


def solve_assignment(table: ConvexPolytope, length_body: ConvexPolytope,
                     assignment: FacetAssignment) -> AssignmentSolution:
    """Shortest closed curve inside the table touching the assigned facets.

    One linear program: points q_j constrained to the table and to their
    assigned facet, per-segment epigraph scalars bounding the support values
    of the length body over the segment directions.  Coincident consecutive
    points are allowed (a zero segment has zero length) and removed later.

    The multipliers of the epigraph rows of segment j sum to one
    (stationarity in its scalar), so they weight the length body's vertices
    into a momentum p_j; complementary slackness puts p_j on the face that
    q_{j+1} - q_j exposes, and stationarity in the points makes each kick
    p_j - p_{j-1} a combination of table normals.  These are the two bounce
    laws, which ``verify_strong`` checks.
    """
    if table.dim != length_body.dim:
        raise DimensionMismatchError("table and length body dimensions differ")
    if np.any(length_body.offsets <= GEOM_TOL):
        raise OriginNotInteriorError(
            "length body must contain the origin in its interior")
    idx = assignment.indices
    if len(set(idx)) != len(idx) or len(idx) < 2:
        raise InvalidBodyError("assignment indices must be distinct, >= 2")
    if min(idx) < 0 or max(idx) >= table.num_facets:
        raise InvalidBodyError("assignment indices out of range for the table")
    m = len(idx)
    n = table.dim
    w = length_body.vertices
    v = w.shape[0]
    nvars = m * n + m

    cost = np.zeros(nvars)
    cost[m * n:] = 1.0
    ub_rows = []
    ub_rhs = []
    for j in range(m):
        jn = (j + 1) % m
        block = np.zeros((v, nvars))
        block[:, jn * n:(jn + 1) * n] = w
        block[:, j * n:(j + 1) * n] -= w
        block[:, m * n + j] = -1.0
        ub_rows.append(block)
        ub_rhs.append(np.zeros(v))
    for j in range(m):
        block = np.zeros((table.num_facets, nvars))
        block[:, j * n:(j + 1) * n] = table.normals
        ub_rows.append(block)
        ub_rhs.append(table.offsets)
    eq_rows = np.zeros((m, nvars))
    eq_rhs = np.zeros(m)
    for j, i in enumerate(idx):
        eq_rows[j, j * n:(j + 1) * n] = table.normals[i]
        eq_rhs[j] = table.offsets[i]

    sol = solve_lp(make_lp(cost, a_ub=np.vstack(ub_rows),
                           b_ub=np.concatenate(ub_rhs),
                           a_eq=eq_rows, b_eq=eq_rhs))
    if sol.status != "optimal":
        raise LpNumericalError(
            f"assignment program ended with status {sol.status}; it is "
            "feasible and bounded by construction")
    return AssignmentSolution(assignment=assignment,
                              value=float(sol.objective),
                              points=sol.x[:m * n].reshape(m, n).copy(),
                              momenta=sol.ineq_duals[:m * v].reshape(m, v) @ w)


@dataclass(frozen=True, eq=False)
class CrossCheckQuantities:
    """The four independently computed numbers that must all agree.

    ``pinned_minimum``: shortest geometry-measured length over pinned curves
    of the table (the primary enumeration).  ``swapped_pinned_minimum``: the
    same with the two bodies' roles exchanged.  ``billiard_length`` and
    ``swapped_billiard_length``: lengths of the verified strong trajectories
    realized on each side, or None when realization failed.
    """

    pinned_minimum: float
    swapped_pinned_minimum: float
    billiard_length: float | None
    swapped_billiard_length: float | None

    def present(self) -> tuple[float, ...]:
        vals = [self.pinned_minimum, self.swapped_pinned_minimum,
                self.billiard_length, self.swapped_billiard_length]
        return tuple(v for v in vals if v is not None)

    @property
    def complete(self) -> bool:
        return (self.billiard_length is not None
                and self.swapped_billiard_length is not None)

    @property
    def max_relative_deviation(self) -> float:
        vals = self.present()
        lo, hi = min(vals), max(vals)
        return (hi - lo) / (1.0 + abs(lo))

    @property
    def consistent(self) -> bool:
        return (self.complete
                and self.max_relative_deviation <= QUANTITY_AGREEMENT_TOL)


@dataclass(frozen=True, eq=False)
class CapacityResult:
    value: float
    minimizing_curve: ClosedPolygonalCurve
    assignment: FacetAssignment
    certificate: TranslationCertificate
    quantities: CrossCheckQuantities
    billiard_curve: ClosedPolygonalCurve | None
    dual_curve: np.ndarray | None
    dual_note: str

    @property
    def realized(self) -> bool:
        return self.dual_curve is not None


@dataclass(frozen=True, eq=False)
class _SideSolve:
    value: float
    tied: tuple[AssignmentSolution, ...]
    length_body: ConvexPolytope
    length_shift: np.ndarray


def _centered_length_body(body: ConvexPolytope):
    """Translate the body so the origin is interior, if it is not already.

    Lengths of closed curves are unchanged because segment differences sum
    to zero around the curve.
    """
    if np.all(body.offsets > GEOM_TOL):
        return body, np.zeros(body.dim)
    center, radius = chebyshev_center(body)
    if radius <= GEOM_TOL:
        raise InvalidBodyError("length body has empty interior")
    return translate(body, -center), center


def _solve_side(table: ConvexPolytope, geometry: ConvexPolytope) -> _SideSolve:
    length_body, shift = _centered_length_body(geometry)
    solutions = [solve_assignment(table, length_body, a)
                 for a in enumerate_assignments(table)]
    value = min(s.value for s in solutions)
    tie = VALUE_TIE_TOL * (1.0 + abs(value))
    tied = sorted((s for s in solutions if s.value <= value + tie),
                  key=lambda s: s.assignment.indices)
    return _SideSolve(value=value, tied=tuple(tied), length_body=length_body,
                      length_shift=shift)


def _merge_degenerate_pairs(points: np.ndarray, momenta: np.ndarray):
    """Remove curve degeneracies while preserving the strong bounce laws.

    Points are dropped in the order :func:`canonicalize` drops them, so the
    merged curve is the canonical one.  A coincident pair drops the later
    point with the zero segment's momentum: the two kicks combine at the
    shared bounce point, whose normal cone contains both.  A collinear point
    may only be dropped when its momentum equals the previous one, so the
    merged segment keeps a single valid momentum.  Returns None when a
    collinear point with a genuine kick blocks the merge.
    """
    pts = [p.copy() for p in points]
    mom = [p.copy() for p in momenta]
    changed = True
    while changed:
        changed = False
        m = len(pts)
        if m < 2:
            return None
        for j in range(m):
            later = (j + 1) % m
            if np.linalg.norm(pts[later] - pts[j]) <= GEOM_TOL:
                # point j takes the momentum of the segment that leaves the
                # shared point, which keeps the lists aligned when later == 0
                mom[j] = mom[later]
                del pts[later], mom[later]
                changed = True
                break
        if changed:
            continue
        if m <= 2:
            break
        for j in range(m):
            if not _on_segment(pts[j], pts[j - 1], pts[(j + 1) % m]):
                continue
            if np.linalg.norm(mom[j] - mom[j - 1]) > 1e-8:
                return None
            del pts[j], mom[j]
            changed = True
            break
    if len(pts) < 2:
        return None
    return np.array(pts), np.array(mom)


def _realize_billiard(table: ConvexPolytope, length_body: ConvexPolytope,
                      tied: tuple[AssignmentSolution, ...]):
    """Find a verified strong trajectory at the optimal value.

    Per value-tied assignment, pairs the optimal touching curve with the
    momenta from the assignment program's own multipliers, merges away
    degenerate points, and keeps the first pair that ``verify_strong``
    accepts.  Returns (curve, momenta, note); curve is None with a
    diagnostic note when no tied assignment verifies.
    """
    notes = []
    for solution in tied:
        label = str(solution.assignment.indices)
        merged = _merge_degenerate_pairs(solution.points, solution.momenta)
        if merged is None:
            notes.append(f"{label}: a collinear bounce with a genuine kick "
                         "blocks the merge")
            continue
        points, momenta = merged
        try:
            curve = ClosedPolygonalCurve(points)
        except CurveCollapseError as exc:
            notes.append(f"{label}: minimizer collapsed ({exc})")
            continue
        if verify_strong(table, length_body, curve, momenta).verified:
            return curve, momenta, ""
        notes.append(f"{label}: multiplier momenta failed verification")
    return None, None, "; ".join(notes)


def ehz_capacity(table: ConvexPolytope, geometry: ConvexPolytope) -> CapacityResult:
    """Capacity of the product of the two bodies, with full cross-checks.

    Runs the facet-assignment enumeration on the table, the same enumeration
    with the roles swapped, and realizes verified strong billiard
    trajectories on both sides.  The four resulting numbers are reported in
    ``quantities``; they agree within 1e-6 relative on valid inputs, and the
    returned value is the primary enumeration minimum.
    """
    if table.dim != geometry.dim:
        raise DimensionMismatchError("bodies live in different dimensions")
    primary = _solve_side(table, geometry)
    swapped = _solve_side(geometry, table)

    winner = primary.tied[0]
    q_star = canonicalize(winner.points).canonical_rotation()
    certificate = translation_margin(table, q_star)
    if not certificate.pinned:
        raise LpNumericalError("minimizing curve is not pinned; assignment "
                               "certificates are inconsistent")
    check = minkowski_length(primary.length_body, q_star)
    if abs(check - primary.value) > 1e-8 * (1.0 + abs(primary.value)):
        raise LpNumericalError("canonical minimizer changed length; curve "
                               "cleanup lost a segment")

    bill_q, bill_p, note = _realize_billiard(table, primary.length_body,
                                             primary.tied)
    billiard_length = None
    dual_curve = None
    if bill_q is not None:
        billiard_length = minkowski_length(primary.length_body, bill_q)
        if abs(billiard_length - primary.value) > 1e-8 * (1.0 + primary.value):
            note = (f"realized trajectory has length {billiard_length!r} "
                    f"instead of {primary.value!r}")
            bill_q, billiard_length = None, None
        else:
            dual_curve = bill_p + primary.length_shift
            against_user_body = verify_strong(table, geometry, bill_q,
                                              dual_curve)
            if not against_user_body.verified:
                raise LpNumericalError(
                    "trajectory verified against the centered geometry body "
                    "but not the original; translation broke a cone check")

    swap_q, _, swap_note = _realize_billiard(geometry, swapped.length_body,
                                             swapped.tied)
    swapped_length = None
    if swap_q is not None:
        swapped_length = minkowski_length(swapped.length_body, swap_q)
        if abs(swapped_length - swapped.value) > 1e-8 * (1.0 + swapped.value):
            swapped_length = None
            swap_note = "swapped realization length mismatch"
    if swapped_length is None and swap_note:
        note = (note + "; " if note else "") + f"swapped side: {swap_note}"

    quantities = CrossCheckQuantities(
        pinned_minimum=primary.value,
        swapped_pinned_minimum=swapped.value,
        billiard_length=billiard_length,
        swapped_billiard_length=swapped_length)
    return CapacityResult(
        value=primary.value,
        minimizing_curve=q_star,
        assignment=winner.assignment,
        certificate=certificate,
        quantities=quantities,
        billiard_curve=bill_q,
        dual_curve=dual_curve,
        dual_note=note)


# -- brute-force oracle ------------------------------------------------------


def _margin_dual_vertices(table: ConvexPolytope) -> np.ndarray:
    """Vertices of the weight polytope dual to the translation-margin LP.

    The best translation margin of any point set equals the minimum over
    these weight vectors of the weighted slack; enumerating them once makes
    the pinned test for millions of tuples a single matrix product.
    """
    f = table.num_facets
    n = table.dim
    e_mat = np.vstack([table.normals.T, np.ones((1, f))])
    rhs = np.zeros(n + 1)
    rhs[n] = 1.0
    rank = np.linalg.matrix_rank(e_mat, tol=1e-9)
    found = []
    for subset in combinations(range(f), rank):
        cols = e_mat[:, list(subset)]
        if np.linalg.matrix_rank(cols, tol=1e-9) < rank:
            continue
        x, *_ = np.linalg.lstsq(cols, rhs, rcond=None)
        if np.max(np.abs(cols @ x - rhs)) > 1e-9:
            continue
        if np.min(x) < -1e-9:
            continue
        lam = np.zeros(f)
        lam[list(subset)] = np.clip(x, 0.0, None)
        found.append(lam)
    if not found:
        raise InvalidBodyError("facet normals do not positively span; the "
                               "table body cannot be bounded")
    rows = np.array(found)
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    keep = [rows[0]]
    for r in rows[1:]:
        if np.max(np.abs(r - keep[-1])) > 1e-9:
            keep.append(r)
    return np.array(keep)


def _facet_grid(body: ConvexPolytope, facet: int, step: float) -> np.ndarray:
    """Grid of the given spacing on one facet, in facet-intrinsic coordinates,
    together with the facet's corners."""
    margins = body.vertices @ body.normals[facet] - body.offsets[facet]
    corners = body.vertices[margins >= -GEOM_TOL]
    centroid = corners.mean(axis=0)
    shifted = corners - centroid
    _, s, vt = np.linalg.svd(shifted, full_matrices=False)
    basis = vt[s > 1e-9 * max(1.0, s.max())]  # rows span the facet plane
    coords = shifted @ basis.T
    axes = []
    for k in range(coords.shape[1]):
        lo, hi = coords[:, k].min(), coords[:, k].max()
        count = max(1, ceil((hi - lo) / step))
        axes.append(np.linspace(lo, hi, count + 1))
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    candidates = centroid + mesh @ basis
    inside = (candidates @ body.normals.T - body.offsets).max(axis=1) <= GEOM_TOL
    return np.vstack([corners, candidates[inside]])


def _dedupe(points: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    order = np.lexsort(points.T[::-1])
    pts = points[order]
    keep = [pts[0]]
    for p in pts[1:]:
        if np.max(np.abs(p - keep[-1])) > tol:
            keep.append(p)
    return np.array(keep)


def boundary_grid(table: ConvexPolytope, step: float) -> np.ndarray:
    """Deduplicated grid points covering the whole boundary of the body."""
    parts = [_facet_grid(table, i, step) for i in range(table.num_facets)]
    return _dedupe(np.vstack(parts))


def brute_force_oracle(table: ConvexPolytope, geometry: ConvexPolytope,
                       grid_step: float, m_max: int | None = None,
                       tol: float = PINNED_TOL) -> float:
    """Min length over pinned tuples of boundary grid points, by brute force.

    Independent of the assignment machinery: pinnedness of each tuple is
    decided by closed-form evaluation of the translation-margin dual over
    precomputed weight vertices, and lengths come straight from support
    values.  Searches a finite subset of the admissible curves, so the
    result is always an upper bound for the capacity.
    """
    if grid_step <= 0:
        raise ValueError("grid step must be positive")
    n = table.dim
    if m_max is None:
        m_max = n + 1
    if not 2 <= m_max <= n + 1:
        raise ValueError(f"tuple size bound must be in [2, {n + 1}]")
    length_body, _ = _centered_length_body(geometry)
    points = boundary_grid(table, grid_step)
    duals = _margin_dual_vertices(table)
    slack = table.offsets - points @ table.normals.T  # (G, F), >= -tol
    w = length_body.vertices

    best = inf
    found_any = False
    for m in range(2, m_max + 1):
        orders = [(0,) + perm for perm in permutations(range(1, m))]
        for chunk in _combination_chunks(points.shape[0], m, 200_000):
            tuple_slack = slack[chunk]  # (C, m, F)
            # per-facet worst slack over the tuple, then the dual reading of
            # the translation-margin program: min over weight vertices
            margins = (tuple_slack.min(axis=1) @ duals.T).min(axis=1)
            pinned = margins <= tol
            if not np.any(pinned):
                continue
            found_any = True
            pts = points[chunk[pinned]]  # (P, m, n)
            for order in orders:
                arranged = pts[:, list(order), :]
                deltas = np.roll(arranged, -1, axis=1) - arranged
                lengths = np.einsum("pmn,vn->pmv", deltas, w).max(axis=2).sum(axis=1)
                low = float(lengths.min())
                if low < best:
                    best = low
    if not found_any:
        raise GridTooCoarseError(
            f"no pinned tuple of up to {m_max} grid points at step {grid_step}")
    return best


def _combination_chunks(count: int, size: int, chunk: int):
    buf = []
    for combo in combinations(range(count), size):
        buf.append(combo)
        if len(buf) >= chunk:
            yield np.array(buf)
            buf = []
    if buf:
        yield np.array(buf)


# -- identity report ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class IdentityReport:
    """Capacity values of the five sign/order variants of a body pair."""

    values: dict[str, float]

    @property
    def max_relative_deviation(self) -> float:
        vals = list(self.values.values())
        lo, hi = min(vals), max(vals)
        return (hi - lo) / (1.0 + abs(lo))

    @property
    def consistent(self) -> bool:
        return self.max_relative_deviation <= QUANTITY_AGREEMENT_TOL


def capacity_identities(table: ConvexPolytope, geometry: ConvexPolytope,
                        full: bool = False) -> IdentityReport:
    """Capacity of (K,T), (T,K), (-K,T), (K,-T) and (-K,-T).

    The five numbers agree for valid inputs.  By default each variant runs
    only the primary enumeration (the values are what the identity is
    about); ``full`` also performs the swapped solves and billiard
    realizations per variant.
    """
    variants = {
        "base": (table, geometry),
        "swapped": (geometry, table),
        "negated_table": (negate(table), geometry),
        "negated_geometry": (table, negate(geometry)),
        "negated_both": (negate(table), negate(geometry)),
    }
    values = {}
    for name, (k, t) in variants.items():
        if full:
            values[name] = ehz_capacity(k, t).value
        else:
            values[name] = _solve_side(k, t).value
    return IdentityReport(values=values)
