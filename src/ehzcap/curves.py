"""Closed polygonal curves and the length/translation calculus on them.

A curve is a cyclic vertex sequence; the length of a segment is measured by
the support function of a fixed convex body, so the total length of a curve
depends on the body but not on any parametrization.  The translation margin
of a curve inside a body decides whether the curve can be pushed into the
body's interior; curves that cannot are called pinned here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    CurveCollapseError,
    DimensionMismatchError,
    LpNumericalError,
    NoValidSubselectionError,
    OriginNotInteriorError,
)
from .geometry import GEOM_TOL, ConvexPolytope, support_function
from .lp import make_lp, solve_lp

PINNED_TOL = 1e-8


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
        m = pts.shape[0]
        deltas = np.roll(pts, -1, axis=0) - pts
        if np.any(np.linalg.norm(deltas, axis=1) <= GEOM_TOL):
            raise CurveCollapseError("consecutive vertices coincide")
        if m > 2:
            for j in range(m):
                if _on_segment(pts[j], pts[j - 1], pts[(j + 1) % m]):
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

    def translated(self, shift) -> "ClosedPolygonalCurve":
        t = np.asarray(shift, dtype=float)
        return ClosedPolygonalCurve(self.points + t)

    def scaled(self, factor: float) -> "ClosedPolygonalCurve":
        return ClosedPolygonalCurve(factor * self.points)

    def rotated_to_start(self, index: int) -> "ClosedPolygonalCurve":
        return ClosedPolygonalCurve(np.roll(self.points, -index, axis=0))

    def canonical_rotation(self) -> "ClosedPolygonalCurve":
        """Rotate so the lexicographically smallest vertex comes first."""
        order = np.lexsort(self.points.T[::-1])
        return self.rotated_to_start(int(order[0]))

    def same_up_to_rotation(self, other: "ClosedPolygonalCurve",
                            tol: float = 1e-8) -> bool:
        if self.points.shape != other.points.shape:
            return False
        for k in range(self.num_points):
            if np.max(np.abs(np.roll(self.points, -k, axis=0)
                             - other.points)) <= tol:
                return True
        return False

    def __repr__(self) -> str:
        return f"ClosedPolygonalCurve({self.points.tolist()})"


def _on_segment(point, start, end, tol: float = GEOM_TOL) -> bool:
    d = end - start
    length2 = float(d @ d)
    if length2 <= tol * tol:
        return bool(np.linalg.norm(point - start) <= tol)
    s = float(np.clip((point - start) @ d / length2, 0.0, 1.0))
    return bool(np.linalg.norm(point - (start + s * d)) <= tol)


def canonicalize(points) -> ClosedPolygonalCurve:
    """Drop coincident and collinear vertices until the curve is canonical.

    Removal is cyclic and iterates to a fixed point, because deleting one
    vertex can make a previously bent neighbour collinear.  Lengths measured
    by any convex body are preserved.  Raises when fewer than two distinct
    vertices remain.
    """
    pts = [np.asarray(p, dtype=float) for p in np.atleast_2d(
        np.asarray(points, dtype=float))]
    changed = True
    while changed:
        changed = False
        m = len(pts)
        if m < 2:
            break
        for j in range(m):
            if np.linalg.norm(pts[(j + 1) % m] - pts[j]) <= GEOM_TOL:
                del pts[(j + 1) % m]
                changed = True
                break
        if changed:
            continue
        if m <= 2:
            break
        for j in range(m):
            if _on_segment(pts[j], pts[j - 1], pts[(j + 1) % m]):
                del pts[j]
                changed = True
                break
    if len(pts) < 2:
        raise CurveCollapseError("curve collapses to a point")
    return ClosedPolygonalCurve(np.array(pts))


def minkowski_length(length_body: ConvexPolytope,
                     curve: ClosedPolygonalCurve) -> float:
    """Total curve length measured by the support function of the body.

    Each segment q_j -> q_{j+1} contributes the support value of the body at
    the segment direction; equivalently the gauge of the polar body at the
    difference vector.  Requires the origin strictly inside the body so that
    the gauge reading is defined.
    """
    if length_body.dim != curve.dim:
        raise DimensionMismatchError("curve and body dimensions differ")
    if np.any(length_body.offsets <= GEOM_TOL):
        raise OriginNotInteriorError(
            "length body must contain the origin in its interior")
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
    n = body.dim
    reach = curve.points @ body.normals.T  # (m, F)
    worst = reach.max(axis=0)  # per-facet max over vertices
    # variables (t, eps): minimize -eps s.t. <a_i, t> + eps <= b_i - worst_i
    c = np.zeros(n + 1)
    c[n] = -1.0
    a_ub = np.hstack([body.normals, np.ones((body.num_facets, 1))])
    sol = solve_lp(make_lp(c, a_ub=a_ub, b_ub=body.offsets - worst))
    if sol.status != "optimal":
        raise LpNumericalError(
            f"translation-margin program ended with status {sol.status}; it "
            "is feasible and bounded for a valid body")
    margin = float(sol.x[n])
    translation = sol.x[:n].copy()
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


def reduce_vertex_count(body: ConvexPolytope, curve: ClosedPolygonalCurve,
                        length_body: ConvexPolytope | None = None,
                        tol: float = PINNED_TOL) -> ClosedPolygonalCurve:
    """Shrink a pinned curve to at most dim+1 vertices, staying pinned.

    Order-preserving vertex subselections never increase length measured by
    any convex body (support-function subadditivity), and among those of
    size dim+1 at least one stays pinned when the input is pinned.  Subsets
    of the target size are tried first, then smaller ones.  When
    ``length_body`` is given the shortest valid subselection is returned,
    ties resolved by enumeration order; otherwise the first valid one.
    """
    if not translation_margin(body, curve, tol).pinned:
        raise NoValidSubselectionError(
            "input curve is not pinned in the body, nothing to preserve")
    n = body.dim
    m = curve.num_points
    if m <= n + 1:
        return curve
    for size in range(n + 1, 1, -1):
        found: list[ClosedPolygonalCurve] = []
        for subset in combinations(range(m), size):
            try:
                candidate = canonicalize(curve.points[list(subset)])
            except CurveCollapseError:
                continue
            if translation_margin(body, candidate, tol).pinned:
                found.append(candidate)
        if not found:
            continue
        if length_body is None:
            return found[0]
        lengths = [minkowski_length(length_body, c) for c in found]
        best = min(lengths)
        for c, val in zip(found, lengths):
            if val <= best + 1e-9:
                return c
    raise NoValidSubselectionError(
        "no pinned subselection of any size exists; the pinned precondition "
        "on the input curve must have failed")
