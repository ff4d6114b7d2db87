"""Closed polygonal curves and the length/translation calculus on them.

A curve is a cyclic vertex sequence; the length of a segment is measured by
the support function of a fixed convex body, so the total length of a curve
depends on the body but not on any parametrization.  The translation margin
of a curve inside a body decides whether the curve can be pushed into the
body's interior; curves that cannot are called pinned here.

One scan finds a curve's degeneracies, coincident neighbours and a vertex
on its neighbours' segment, and one loop drops them.  The constructor
rejects what the scan finds; :func:`canonicalize` cleans the canonical
minimizer with the loop, and the capacity solver cleans the realized
billiard trajectory, momenta and all, with the same loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CurveCollapseError,
    DimensionMismatchError,
    LpNumericalError,
)
from .geometry import GEOM_TOL, ConvexPolytope, _clearance_lp, support_function

PINNED_TOL = 1e-8
_MOMENTUM_MATCH_TOL = 1e-8  # a collinear point merges when its momenta agree


@dataclass(frozen=True, eq=False)
class ClosedPolygonalCurve:
    """Cyclic sequence of at least two vertices, indices taken modulo m.

    Canonical-form invariants: consecutive vertices are distinct and no
    vertex lies on the segment joining its neighbours.  Build curves with
    :func:`canonicalize` when the input may violate these.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 2:
            raise CurveCollapseError("a closed curve needs at least two vertices")
        if not np.all(np.isfinite(pts)):
            raise CurveCollapseError("non-finite vertex data")
        found = _first_degeneracy(pts)
        if found is not None:
            kind, j = found
            if kind == "coincident":
                raise CurveCollapseError("consecutive vertices coincide")
            raise CurveCollapseError(
                f"vertex {j} lies on the segment of its neighbours")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def num_points(self) -> int:
        return self.points.shape[0]

    @property
    def deltas(self) -> np.ndarray:
        """Cyclic successive differences q_{j+1} - q_j, one row per vertex."""
        return np.roll(self.points, -1, axis=0) - self.points

    def canonical_rotation(self) -> "ClosedPolygonalCurve":
        """Rotate so the lexicographically smallest vertex comes first."""
        order = np.lexsort(self.points.T[::-1])
        return ClosedPolygonalCurve(np.roll(self.points, -int(order[0]), axis=0))

    def __repr__(self) -> str:
        return f"ClosedPolygonalCurve({self.points.tolist()})"


def _on_segment(point, start, end) -> bool:
    d = end - start
    length2 = float(d @ d)
    if length2 <= GEOM_TOL * GEOM_TOL:
        return bool(np.linalg.norm(point - start) <= GEOM_TOL)
    s = float(np.clip((point - start) @ d / length2, 0.0, 1.0))
    return bool(np.linalg.norm(point - (start + s * d)) <= GEOM_TOL)


def _first_degeneracy(pts):
    """The first degeneracy of a cyclic point list, or None.

    Coincident neighbours come first: ``("coincident", j)`` when point j+1
    repeats point j.  Only then, and only for more than two points,
    ``("collinear", j)`` when point j lies on the segment of its neighbours.
    """
    m = len(pts)
    for j in range(m):
        if np.linalg.norm(pts[(j + 1) % m] - pts[j]) <= GEOM_TOL:
            return "coincident", j
    if m > 2:
        for j in range(m):
            if _on_segment(pts[j], pts[j - 1], pts[(j + 1) % m]):
                return "collinear", j
    return None


def _canonical_rows(points, momenta=None):
    """Rows of the points that :func:`canonicalize` keeps, and the momentum
    row each kept point carries.

    The first degeneracy is removed until none is left, because deleting
    one point can make a previously bent neighbour collinear.  A coincident
    pair drops the later point, and the earlier one carries the momentum of
    the segment that leaves the shared point: the two kicks combine at one
    bounce point, whose normal cone holds both.  A collinear point is
    dropped; with momenta, only when its momentum matches the previous one,
    so the merged segment keeps a single momentum.
    """
    pts = np.asarray(points)
    rows = list(range(len(pts)))
    carry = list(rows)
    while len(rows) >= 2:
        found = _first_degeneracy(pts[rows])
        if found is None:
            break
        kind, j = found
        if kind == "coincident":
            later = (j + 1) % len(rows)
            carry[j] = carry[later]
            del rows[later], carry[later]
            continue
        if momenta is not None and np.linalg.norm(
                momenta[carry[j]] - momenta[carry[j - 1]]) > _MOMENTUM_MATCH_TOL:
            raise CurveCollapseError(
                "a collinear bounce with a genuine kick blocks the merge")
        del rows[j], carry[j]
    if len(rows) < 2:
        raise CurveCollapseError("curve collapses to a point")
    return rows, carry


def canonicalize(points) -> ClosedPolygonalCurve:
    """Drop coincident and collinear vertices until the curve is canonical.

    The drop loop is :func:`_canonical_rows`, the one that also cleans a
    realized billiard trajectory together with its momenta, and it stops on
    the scan the constructor checks with.  Lengths measured by any convex
    body are preserved.  Raises when fewer than two distinct vertices
    remain.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    rows, _ = _canonical_rows(pts)
    return ClosedPolygonalCurve(pts[rows])


def minkowski_length(length_body: ConvexPolytope,
                     curve: ClosedPolygonalCurve) -> float:
    """Total curve length measured by the support function of the body.

    Each segment q_j -> q_{j+1} contributes the support value of the body at
    the segment direction.  The body need not contain the origin: a
    translate by c adds <c, q_{j+1} - q_j> per segment, and those terms sum
    to zero around the closed curve.
    """
    if length_body.dim != curve.dim:
        raise DimensionMismatchError("curve and body dimensions differ")
    return float(sum(support_function(length_body, d)[0] for d in curve.deltas))


@dataclass(frozen=True, eq=False)
class TranslationCertificate:
    """Optimum of the max-margin translation program for a curve in a body.

    ``margin`` is the best clearance achievable by translating the curve:
    positive means the whole curve fits strictly inside, nonpositive means
    every translate keeps some vertex on or outside the boundary.  ``pinned``
    is the decision ``margin <= tol``; ``active_facets`` lists the facets
    tight at the optimal translation.
    """

    margin: float
    translation: np.ndarray
    active_facets: tuple[int, ...]
    pinned: bool


def translation_margin(body: ConvexPolytope, curve: ClosedPolygonalCurve,
                       tol: float = PINNED_TOL) -> TranslationCertificate:
    """Maximize the clearance of the translated curve inside the body.

    Solves, over translation t and margin eps, the program
    ``max eps  s.t.  <a_i, q_j + t> <= b_i - eps`` for every facet i and
    vertex j.  Only the per-facet extreme vertex binds, so one row per facet
    suffices.  Always feasible and bounded for a valid body.
    """
    if body.dim != curve.dim:
        raise DimensionMismatchError("curve and body dimensions differ")
    reach = curve.points @ body.normals.T  # (m, F)
    worst = reach.max(axis=0)  # per-facet max over vertices
    sol = _clearance_lp(body, body.offsets - worst)
    if sol.status != "optimal":
        raise LpNumericalError(
            f"translation-margin program ended with status {sol.status}; it "
            "is feasible and bounded for a valid body")
    margin = float(sol.x[-1])
    translation = sol.x[:-1].copy()
    translation.flags.writeable = False
    return TranslationCertificate(margin=margin, translation=translation,
                                  active_facets=sol.active_ub,
                                  pinned=margin <= tol)


def discrete_action(curve: ClosedPolygonalCurve, momenta) -> float:
    """Sum over segments of <q_{j+1} - q_j, p_j> for a momentum sequence p."""
    p = np.atleast_2d(np.asarray(momenta, dtype=float))
    if p.shape != curve.points.shape:
        raise DimensionMismatchError(
            f"momentum sequence of shape {p.shape} does not match curve "
            f"of shape {curve.points.shape}")
    return float(np.sum(curve.deltas * p))

