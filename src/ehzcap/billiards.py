"""Verification of billiard trajectory pairs on a pair of convex bodies.

A trajectory pair consists of a closed curve q on the boundary of the table
body K and a momentum sequence p on the boundary of the geometry body T.  The
strong bounce laws couple them: each segment direction of q must be an
outward normal of T at the matching momentum, and each momentum kick must be
an inward normal of K at the bounce point; both are support-function
equalities, which ``verify_strong`` checks without an LP.  The weak law asks
less: each bounce point only needs a supporting hyperplane of K over which it
minimizes the two adjacent segment lengths measured by T.

``verify_strong`` reports per-bounce findings instead of raising on a bad
pair, because callers routinely probe candidate pairs.  ``verify_weak``
raises when the curve is not even on the boundary, since that is a misuse
rather than a near miss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LpNumericalError, NotABilliardError, PointOffBoundaryError
from .geometry import ConvexPolytope, support_function
from .curves import ClosedPolygonalCurve
from .lp import make_lp, solve_lp

CONE_TOL = 1e-8
_ZERO_NORMAL_TOL = 1e-10  # a normal combination shorter than this is zero


@dataclass(frozen=True, eq=False)
class BounceRecord:
    """Verification outcome for one bounce of a strong trajectory pair."""

    index: int
    q_on_boundary: bool
    p_on_boundary: bool
    segment_in_momentum_cone: bool
    kick_in_position_cone: bool
    segment_residual: float
    kick_residual: float
    note: str = ""

    @property
    def passed(self) -> bool:
        return (self.q_on_boundary and self.p_on_boundary
                and self.segment_in_momentum_cone and self.kick_in_position_cone)


@dataclass(frozen=True, eq=False)
class BilliardPair:
    """Curve on the table boundary with its momentum sequence and records."""

    table: ConvexPolytope
    geometry: ConvexPolytope
    q: ClosedPolygonalCurve
    p: np.ndarray
    records: tuple[BounceRecord, ...]

    @property
    def verified(self) -> bool:
        return all(r.passed for r in self.records)


def verify_strong(table: ConvexPolytope, geometry: ConvexPolytope,
                  q: ClosedPolygonalCurve, p, tol: float = CONE_TOL) -> BilliardPair:
    """Check the strong bounce laws for a candidate pair (q, p).

    For every index j the segment d_j = q_{j+1} - q_j must be an outward
    normal of the geometry body at p_j, and the kick k_j = p_j - p_{j+1} one
    of the table at q_{j+1}.  At a point x of a body that is the
    support-function equality <v, x> = h(v), so each law is decided by its
    gap h(v) - <v, x>, reported as its residual, against the bound
    ``tol * (1 + |v|) * (1 + R)``, R the body's largest vertex norm.  A
    bounce with a point outside its body fails both laws and still reports
    its gaps; a gap is negative when the point lies beyond the support in
    the direction v.
    """
    p = np.atleast_2d(np.asarray(p, dtype=float))
    if p.shape != q.points.shape:
        raise PointOffBoundaryError(
            f"momentum sequence shape {p.shape} does not match curve shape "
            f"{q.points.shape}")
    m = q.num_points
    q_next = np.roll(q.points, -1, axis=0)
    q_where = [table.locate(x, tol) for x in q_next]
    p_where = [geometry.locate(x, tol) for x in p]
    seg_gap, seg_ok = _support_gaps(geometry, q.deltas, p, tol)
    kick_gap, kick_ok = _support_gaps(table, p - np.roll(p, -1, axis=0),
                                      q_next, tol)
    records = []
    for j in range(m):
        inside = "outside" not in (q_where[j], p_where[j], p_where[(j + 1) % m])
        q_on = inside and q_where[j] == "boundary"
        p_on = inside and p_where[j] == "boundary"
        if not inside:
            note = "point-off-boundary: a point lies outside its body"
        elif not (q_on and p_on):
            note = "point-off-boundary: interior point has only the zero cone"
        else:
            note = ""
        records.append(BounceRecord(
            index=j,
            q_on_boundary=q_on,
            p_on_boundary=p_on,
            segment_in_momentum_cone=inside and bool(seg_ok[j]),
            kick_in_position_cone=inside and bool(kick_ok[j]),
            segment_residual=float(seg_gap[j]),
            kick_residual=float(kick_gap[j]),
            note=note))
    return BilliardPair(table=table, geometry=geometry, q=q, p=p,
                        records=tuple(records))


def _support_gaps(body: ConvexPolytope, vectors: np.ndarray,
                  points: np.ndarray, tol: float):
    """Support gaps h(v_j) - <v_j, x_j> and whether each is within bound."""
    gaps = ((vectors @ body.vertices.T).max(axis=1)
            - np.einsum("ij,ij->i", vectors, points))
    radius = float(np.linalg.norm(body.vertices, axis=1).max())
    bound = tol * (1.0 + np.linalg.norm(vectors, axis=1)) * (1.0 + radius)
    return gaps, gaps <= bound


def _require_on_boundary(table: ConvexPolytope, q: ClosedPolygonalCurve,
                         tol: float) -> None:
    """Raise unless every curve vertex lies on the table boundary."""
    for j, point in enumerate(q.points):
        if table.locate(point, tol) != "boundary":
            raise PointOffBoundaryError(
                f"curve vertex {j} is not on the table boundary")


def extract_dual(table: ConvexPolytope, geometry: ConvexPolytope,
                 q: ClosedPolygonalCurve, tol: float = CONE_TOL) -> np.ndarray:
    """Recover a momentum sequence turning q into a verified strong pair.

    One feasibility program constrains the momenta jointly: p_j must lie on
    the face of the geometry body exposed by the segment direction (the
    support-duality reading of the first bounce law) and consecutive kicks
    must combine active table normals at the bounce point with nonnegative
    weights.  It is solved once with a zero objective, and the answer is
    the vertex of that program's feasible set where the simplex stops: some
    valid momentum sequence, not a canonical point of the face.  The LP data
    depend only on the inputs, so the output is bitwise deterministic on one
    platform.  Raises ``NotABilliardError`` when no momentum sequence
    exists, and ``LpNumericalError``, prefixed "momentum program: ", when
    the solver fails.
    """
    n = table.dim
    m = q.num_points
    _require_on_boundary(table, q, tol)
    deltas = q.deltas
    face_values = [support_function(geometry, d)[0] for d in deltas]
    active = [table.active_facets(q.points[(j + 1) % m], tol) for j in range(m)]
    eta_offsets = []
    total_eta = 0
    for j in range(m):
        eta_offsets.append(m * n + total_eta)
        total_eta += len(active[j])
    nvars = m * n + total_eta

    rows_ub, rhs_ub = [], []
    for j in range(m):
        block = np.zeros((geometry.num_facets, nvars))
        block[:, j * n:(j + 1) * n] = geometry.normals
        rows_ub.append(block)
        rhs_ub.append(geometry.offsets)
    a_ub = np.vstack(rows_ub)
    b_ub = np.concatenate(rhs_ub)

    rows_eq, rhs_eq = [], []
    for j in range(m):
        row = np.zeros(nvars)
        row[j * n:(j + 1) * n] = deltas[j]
        rows_eq.append(row)
        rhs_eq.append(face_values[j])
    for j in range(m):
        jn = (j + 1) % m
        block = np.zeros((n, nvars))
        block[:, jn * n:(jn + 1) * n] = np.eye(n)
        block[:, j * n:(j + 1) * n] -= np.eye(n)
        for k, i in enumerate(active[j]):
            block[:, eta_offsets[j] + k] = table.normals[i]
        rows_eq.append(block)
        rhs_eq.append(np.zeros(n))
    a_eq = np.vstack([np.atleast_2d(r) for r in rows_eq])
    b_eq = np.concatenate([np.atleast_1d(r) for r in rhs_eq])

    nonneg = [False] * (m * n) + [True] * total_eta
    try:
        sol = solve_lp(make_lp(np.zeros(nvars), a_ub=a_ub, b_ub=b_ub,
                               a_eq=a_eq, b_eq=b_eq, nonneg=nonneg))
    except LpNumericalError as exc:
        raise LpNumericalError(f"momentum program: {exc}") from exc
    if sol.status == "infeasible":
        raise NotABilliardError(
            "no momentum sequence satisfies the bounce laws for this curve "
            "(joint feasibility program is infeasible)")
    if sol.status != "optimal":
        raise LpNumericalError(
            f"momentum program: ended with status {sol.status}")
    return sol.x[:m * n].reshape(m, n).copy()


@dataclass(frozen=True, eq=False)
class WeakBounceRecord:
    """Outcome of the supporting-hyperplane optimality test at one vertex.

    ``value_at_vertex`` is the sum of the two adjacent segment lengths;
    ``hyperplane_minimum`` is the best value over the found hyperplane (only
    present for vertices where the first-order system was feasible).
    """

    index: int
    passed: bool
    normal: np.ndarray | None
    value_at_vertex: float
    hyperplane_minimum: float | None


@dataclass(frozen=True, eq=False)
class WeakVerification:
    records: tuple[WeakBounceRecord, ...]

    @property
    def verified(self) -> bool:
        return all(r.passed for r in self.records)


def verify_weak(table: ConvexPolytope, geometry: ConvexPolytope,
                q: ClosedPolygonalCurve, tol: float = CONE_TOL) -> WeakVerification:
    """Check the weak bounce law at every vertex of the curve.

    Vertex j passes when some point u of the face of the geometry body
    exposed by the incoming direction, some point v of the face exposed by
    the outgoing direction, and some outward table normal combination w at
    q_j satisfy u - v = w.  That is the first-order optimality condition for
    q_j minimizing the two adjacent segment lengths over the supporting
    hyperplane with normal w.  Every positive answer is cross-checked by
    minimizing the same objective over that hyperplane directly; the check
    failing marks the vertex as failed and is a solver defect, not a
    property of the input.
    """
    m = q.num_points
    _require_on_boundary(table, q, tol)
    deltas = q.deltas
    records = []
    for j in range(m):
        incoming = deltas[(j - 1) % m]
        outgoing = deltas[j]
        sol = _first_order_solution(table, geometry, q.points[j],
                                    incoming, outgoing, tol)
        value = (support_function(geometry, incoming)[0]
                 + support_function(geometry, outgoing)[0])
        if sol is None:
            records.append(WeakBounceRecord(
                index=j, passed=False, normal=None,
                value_at_vertex=value, hyperplane_minimum=None))
            continue
        normal = sol
        if np.linalg.norm(normal) <= _ZERO_NORMAL_TOL:
            # Zero combination: the vertex minimizes unconstrained, so any
            # supporting normal works; pick one for the cross-check.
            normal = table.normals[table.active_facets(q.points[j], tol)[0]]
        minimum = _hyperplane_minimum(geometry, q.points[(j - 1) % m],
                                      q.points[(j + 1) % m], q.points[j], normal)
        passed = minimum >= value - tol * (1 + abs(value))
        records.append(WeakBounceRecord(
            index=j, passed=passed, normal=normal,
            value_at_vertex=value, hyperplane_minimum=minimum))
    return WeakVerification(records=tuple(records))


def _first_order_solution(table, geometry, vertex, incoming, outgoing, tol):
    """Find u, v on the exposed faces and w in the normal cone with u-v=w.

    Returns the normal combination w, or None when the system is infeasible.
    """
    n = table.dim
    gen = table.normals[list(table.active_facets(vertex, tol))]
    k = gen.shape[0]
    nvars = 2 * n + k
    f = geometry.num_facets
    a_ub = np.zeros((2 * f, nvars))
    a_ub[:f, :n] = geometry.normals
    a_ub[f:, n:2 * n] = geometry.normals
    b_ub = np.concatenate([geometry.offsets, geometry.offsets])
    h_in = support_function(geometry, incoming)[0]
    h_out = support_function(geometry, outgoing)[0]
    a_eq = np.zeros((2 + n, nvars))
    b_eq = np.zeros(2 + n)
    a_eq[0, :n] = incoming
    b_eq[0] = h_in
    a_eq[1, n:2 * n] = outgoing
    b_eq[1] = h_out
    a_eq[2:, :n] = np.eye(n)
    a_eq[2:, n:2 * n] = -np.eye(n)
    a_eq[2:, 2 * n:] = -gen.T
    sol = solve_lp(make_lp(np.zeros(nvars), a_ub=a_ub, b_ub=b_ub,
                           a_eq=a_eq, b_eq=b_eq,
                           nonneg=[False] * (2 * n) + [True] * k))
    if sol.status != "optimal":
        return None
    return gen.T @ sol.x[2 * n:]


def _hyperplane_minimum(geometry, prev_point, next_point, vertex, normal):
    """Minimize the two adjacent segment lengths over a hyperplane.

    The objective x -> h(x - prev) + h(next - x) is piecewise linear, so the
    minimum over the hyperplane through the vertex is an epigraph LP over
    the geometry body's vertex set.
    """
    n = len(vertex)
    w = geometry.vertices
    k = w.shape[0]
    # variables (x, s1, s2): minimize s1 + s2
    c = np.zeros(n + 2)
    c[n] = 1.0
    c[n + 1] = 1.0
    a_ub = np.zeros((2 * k, n + 2))
    a_ub[:k, :n] = w
    a_ub[:k, n] = -1.0
    a_ub[k:, :n] = -w
    a_ub[k:, n + 1] = -1.0
    b_ub = np.concatenate([w @ prev_point, -(w @ next_point)])
    a_eq = np.zeros((1, n + 2))
    a_eq[0, :n] = normal
    b_eq = np.array([float(normal @ vertex)])
    sol = solve_lp(make_lp(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq))
    if sol.status != "optimal":
        raise LpNumericalError("hyperplane minimization failed to solve")
    return float(sol.objective)
