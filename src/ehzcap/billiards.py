"""Verification of billiard trajectory pairs on a pair of convex bodies.

A trajectory pair consists of a closed curve q on the boundary of the table
body K and a momentum sequence p on the boundary of the geometry body T.  The
strong bounce laws couple them: each segment direction of q must be an
outward normal of T at the matching momentum, and each momentum kick must be
an inward normal of K at the bounce point; both are support-function
equalities, which ``verify_strong`` checks without an LP.  The weak law asks
less: each bounce point only needs a supporting hyperplane of K over which it
minimizes the two adjacent segment lengths measured by T.

Both laws meet in one momentum program: momenta on the faces of T that the
segments expose, each kick a nonnegative combination of the normals of K
active at its bounce point.  ``extract_dual`` solves it once over the whole
cycle, and ``verify_weak`` once per vertex over the two adjacent segments,
where the momenta also certify the bound over the hyperplane.

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
    support-duality reading of the first bounce law) and each kick
    p_j - p_{j+1} must combine active table normals at q_{j+1} with
    nonnegative weights.  It is solved once with a zero objective, and the
    answer is the vertex of that program's feasible set where the simplex
    stops: some valid momentum sequence, not a canonical point of the face.
    The LP data depend only on the inputs, so the output is bitwise
    deterministic on one platform.  Raises ``NotABilliardError`` when no
    momentum sequence exists, and ``LpNumericalError``, prefixed "momentum
    program: ", when the solver fails.
    """
    m = q.num_points
    _require_on_boundary(table, q, tol)
    kicks = [(j, (j + 1) % m, q.points[(j + 1) % m]) for j in range(m)]
    momenta = _momentum_program(table, geometry, q.deltas, kicks, tol)
    if momenta is None:
        raise NotABilliardError(
            "no momentum sequence satisfies the bounce laws for this curve "
            "(joint feasibility program is infeasible)")
    return momenta


def _momentum_program(table: ConvexPolytope, geometry: ConvexPolytope,
                      directions: np.ndarray, kicks, tol: float):
    """Momenta p_j, one per direction d_j, on the faces of the geometry body
    that the directions expose, such that for every kick (i, k, x) the
    difference p_i - p_k is a nonnegative combination of the table normals
    active at x.

    One feasibility LP with a zero objective.  Its variables are the
    momenta, then each kick's weights; its inequality rows are p_j in the
    geometry body, then the weights' signs (-eta <= 0); its equality rows
    are <d_j, p_j> = h(d_j), then p_k - p_i + sum eta_l a_l = 0 per kick.
    Returns the momenta as an (m, n) array, or None when the program is
    infeasible.  Raises ``LpNumericalError``, prefixed "momentum program: ",
    when the solver fails.
    """
    m, n = directions.shape
    f = geometry.num_facets
    gens = [table.normals[list(table.active_facets(x, tol))]
            for _, _, x in kicks]
    starts = np.cumsum([m * n] + [g.shape[0] for g in gens])
    nvars = int(starts[-1])
    n_eta = nvars - m * n
    a_ub = np.zeros((m * f + n_eta, nvars))
    for j in range(m):
        a_ub[j * f:(j + 1) * f, j * n:(j + 1) * n] = geometry.normals
    a_ub[m * f:, m * n:] = -np.eye(n_eta)
    b_ub = np.concatenate([np.tile(geometry.offsets, m), np.zeros(n_eta)])
    a_eq = np.zeros((m + n * len(kicks), nvars))
    b_eq = np.zeros(m + n * len(kicks))
    for j, d in enumerate(directions):
        a_eq[j, j * n:(j + 1) * n] = d
        b_eq[j] = support_function(geometry, d)[0]
    for r, ((i, k, _), gen) in enumerate(zip(kicks, gens)):
        rows = slice(m + r * n, m + (r + 1) * n)
        a_eq[rows, k * n:(k + 1) * n] = np.eye(n)
        a_eq[rows, i * n:(i + 1) * n] -= np.eye(n)
        a_eq[rows, starts[r]:starts[r + 1]] = gen.T
    try:
        sol = solve_lp(make_lp(np.zeros(nvars), a_ub=a_ub, b_ub=b_ub,
                               a_eq=a_eq, b_eq=b_eq))
    except LpNumericalError as exc:
        raise LpNumericalError(f"momentum program: {exc}") from exc
    if sol.status == "infeasible":
        return None
    if sol.status != "optimal":
        raise LpNumericalError(
            f"momentum program: ended with status {sol.status}")
    return sol.x[:m * n].reshape(m, n).copy()


@dataclass(frozen=True, eq=False)
class WeakBounceRecord:
    """Outcome of the supporting-hyperplane optimality test at one vertex.

    ``value_at_vertex`` is the sum of the two adjacent segment lengths.
    Where the first-order system is feasible, ``normal`` is the kick u - v
    of its momenta, an outward normal combination of the table at the
    vertex, and ``hyperplane_minimum`` the lower bound that u and v certify
    for the two lengths over the hyperplane with that normal; both are None
    where the system is infeasible.
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
    exposed by the incoming direction d_in, some point v of the face exposed
    by the outgoing direction d_out, and some outward table normal
    combination w at q_j satisfy u - v = w: the momentum program of the two
    segments with one kick at q_j, one LP per vertex.  That is the
    first-order optimality condition for q_j minimizing the two adjacent
    segment lengths over the supporting hyperplane with normal w, and u and
    v certify it: for every x on that hyperplane,
    h(x - q_{j-1}) + h(q_{j+1} - x) >= <u, x - q_{j-1}> + <v, q_{j+1} - x>
    = <u, d_in> + <v, d_out>, the reported ``hyperplane_minimum``.  The
    vertex passes when that bound is at least the value at the vertex, up
    to ``tol * (1 + |value|)``.
    """
    m = q.num_points
    _require_on_boundary(table, q, tol)
    deltas = q.deltas
    records = []
    for j in range(m):
        incoming = deltas[(j - 1) % m]
        outgoing = deltas[j]
        value = (support_function(geometry, incoming)[0]
                 + support_function(geometry, outgoing)[0])
        momenta = _momentum_program(table, geometry,
                                    np.array([incoming, outgoing]),
                                    [(0, 1, q.points[j])], tol)
        if momenta is None:
            records.append(WeakBounceRecord(
                index=j, passed=False, normal=None,
                value_at_vertex=value, hyperplane_minimum=None))
            continue
        u, v = momenta
        bound = float(u @ incoming) + float(v @ outgoing)
        records.append(WeakBounceRecord(
            index=j, passed=bound >= value - tol * (1 + abs(value)),
            normal=u - v, value_at_vertex=value, hyperplane_minimum=bound))
    return WeakVerification(records=tuple(records))
