"""Convex polytope kernel: dual representations, support calculus, distances.

A :class:`ConvexPolytope` is bounded, full-dimensional, and keeps both a
facet (H) and a vertex (V) representation in sync.  Facet normals are unit
vectors; construction from either representation derives the other by
n-subset incidence enumeration, which is exact at the dimensions this
package targets (2 <= n <= 4).  All predicates resolve at ``GEOM_TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidBodyError,
    LpNumericalError,
    OriginNotInteriorError,
    PointOutsideBodyError,
)
from .lp import make_lp, solve_lp

GEOM_TOL = 1e-9
MEMBERSHIP_TOL = 1e-8
MIN_DIM = 2
MAX_DIM = 4


class ConvexPolytope:
    """Bounded full-dimensional polytope with synchronized H- and V-reps.

    Build instances through :meth:`from_vertices`, :meth:`from_halfspaces`
    or :meth:`from_representations`; the raw constructor expects both
    representations and validates them against each other.  Instances are
    immutable; the backing arrays are read-only views.
    """

    def __init__(self, normals, offsets, vertices, validate: bool = True):
        normals = np.array(normals, dtype=float)
        offsets = np.array(offsets, dtype=float)
        vertices = np.array(vertices, dtype=float)
        if normals.ndim != 2 or vertices.ndim != 2 or offsets.ndim != 1:
            raise InvalidBodyError("representation arrays have wrong rank")
        if normals.shape[0] != offsets.shape[0]:
            raise InvalidBodyError("normals and offsets disagree in count")
        if normals.shape[1] != vertices.shape[1]:
            raise InvalidBodyError("normals and vertices disagree in dimension")
        self._normals = normals
        self._offsets = offsets
        self._vertices = vertices
        if validate:
            self._validate()
        for arr in (self._normals, self._offsets, self._vertices):
            arr.flags.writeable = False

    # -- construction ----------------------------------------------------

    @classmethod
    def from_vertices(cls, points) -> "ConvexPolytope":
        pts = _clean_points(np.asarray(points, dtype=float))
        n = pts.shape[1]
        _check_dim(n)
        if pts.shape[0] < n + 1:
            raise InvalidBodyError(
                f"{pts.shape[0]} distinct points cannot span dimension {n}")
        if np.linalg.matrix_rank(pts - pts[0], tol=1e-9) < n:
            raise InvalidBodyError("points do not span the ambient dimension")
        normals, offsets = _facets_from_points(pts)
        extreme = _extreme_points(pts, normals, offsets)
        return cls(normals, offsets, extreme)

    @classmethod
    def from_halfspaces(cls, normals, offsets) -> "ConvexPolytope":
        a = np.atleast_2d(np.asarray(normals, dtype=float))
        b = np.atleast_1d(np.asarray(offsets, dtype=float))
        _check_dim(a.shape[1])
        if a.shape[0] != b.shape[0]:
            raise InvalidBodyError("normals and offsets disagree in count")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise InvalidBodyError("non-finite halfspace data")
        norms = np.linalg.norm(a, axis=1)
        if np.any(norms < 1e-12):
            raise InvalidBodyError("zero facet normal")
        a = a / norms[:, None]
        b = b / norms
        a, b = _dedupe_facets(a, b)
        verts = _vertices_from_facets(a, b)
        if verts.shape[0] < a.shape[1] + 1:
            raise InvalidBodyError("halfspaces do not bound a full-dimensional "
                                   "polytope (too few vertices)")
        # Re-derive facets from the vertex hull; this drops redundant input
        # rows and rejects unbounded inputs (their hull cannot reproduce them).
        normals, offsets = _facets_from_points(verts)
        body = cls(normals, offsets, _extreme_points(verts, normals, offsets))
        support = body.vertices @ a.T
        if np.any(np.max(support, axis=0) > b + 1e-7):
            raise InvalidBodyError("halfspaces describe an unbounded set")
        return body

    @classmethod
    def from_representations(cls, normals, offsets, vertices) -> "ConvexPolytope":
        return cls(normals, offsets, vertices)

    # -- basic accessors ---------------------------------------------------

    @property
    def dim(self) -> int:
        return self._normals.shape[1]

    @property
    def normals(self) -> np.ndarray:
        """Unit outward facet normals, one row per facet, in canonical order."""
        return self._normals

    @property
    def offsets(self) -> np.ndarray:
        return self._offsets

    @property
    def vertices(self) -> np.ndarray:
        return self._vertices

    @property
    def num_facets(self) -> int:
        return self._normals.shape[0]

    def __repr__(self) -> str:
        return (f"ConvexPolytope(dim={self.dim}, facets={self.num_facets}, "
                f"vertices={len(self.vertices)})")

    @cached_property
    def centroid(self) -> np.ndarray:
        c = self._vertices.mean(axis=0)
        c.flags.writeable = False
        return c

    @cached_property
    def diameter(self) -> float:
        v = self._vertices
        d2 = np.sum((v[:, None, :] - v[None, :, :]) ** 2, axis=-1)
        return float(np.sqrt(d2.max()))

    # -- predicates --------------------------------------------------------

    def locate(self, point, tol: float = GEOM_TOL) -> str:
        """Classify a point as ``"interior"``, ``"boundary"`` or ``"outside"``."""
        x = self._as_point(point)
        margin = float(np.max(self._normals @ x - self._offsets))
        if margin > tol:
            return "outside"
        if margin < -tol:
            return "interior"
        return "boundary"

    def contains(self, point, tol: float = GEOM_TOL) -> bool:
        return self.locate(point, tol) != "outside"

    def active_facets(self, point, tol: float = GEOM_TOL) -> tuple[int, ...]:
        """Indices of facets on which the point lies (point must be in the body)."""
        x = self._as_point(point)
        margin = self._normals @ x - self._offsets
        if float(np.max(margin)) > tol:
            raise PointOutsideBodyError(f"point {x.tolist()} lies outside the body")
        return tuple(int(i) for i in np.flatnonzero(margin >= -tol))

    def _as_point(self, point) -> np.ndarray:
        x = np.atleast_1d(np.asarray(point, dtype=float))
        if x.shape != (self.dim,):
            raise DimensionMismatchError(
                f"point of dimension {x.shape} against body of dimension {self.dim}")
        return x

    # -- validation ---------------------------------------------------------

    def _validate(self) -> None:
        a, b, v = self._normals, self._offsets, self._vertices
        n = self.dim
        _check_dim(n)
        for arr in (a, b, v):
            if not np.all(np.isfinite(arr)):
                raise InvalidBodyError("non-finite representation data")
        if np.any(np.abs(np.linalg.norm(a, axis=1) - 1.0) > GEOM_TOL):
            raise InvalidBodyError("facet normals are not unit vectors")
        if v.shape[0] < n + 1:
            raise InvalidBodyError("too few vertices for the ambient dimension")
        if np.linalg.matrix_rank(v - v[0], tol=1e-9) < n:
            raise InvalidBodyError("vertex set is not full-dimensional")
        margins = v @ a.T - b  # (V, F)
        if float(np.max(margins)) > GEOM_TOL:
            raise InvalidBodyError("a vertex violates a facet inequality")
        active = margins >= -GEOM_TOL
        # Facet support: each facet carries at least n vertices spanning it.
        for i in range(a.shape[0]):
            sup = v[active[:, i]]
            if sup.shape[0] < n:
                raise InvalidBodyError(f"facet {i} is supported by fewer than "
                                       f"{n} vertices")
            if np.linalg.matrix_rank(sup - sup[0], tol=1e-9) < n - 1:
                raise InvalidBodyError(f"facet {i} support is degenerate")
        # Vertex extremality: active normals span the ambient space.
        for j in range(v.shape[0]):
            rows = a[active[j]]
            if rows.shape[0] < n or np.linalg.matrix_rank(rows, tol=1e-9) < n:
                raise InvalidBodyError(f"vertex {j} is not an extreme point")
        # Cross-reproduction: the hull of the vertices yields these facets and
        # the facets yield these vertices.  This pins both representations to
        # the same bounded polytope.
        a2, b2 = _facets_from_points(v)
        if not _same_facet_sets(a, b, a2, b2):
            raise InvalidBodyError("facet list does not match the vertex hull")
        v2 = _vertices_from_facets(a, b)
        if not _same_point_sets(v, v2):
            raise InvalidBodyError("vertex list does not match the facet "
                                   "intersection points")


# -- representation conversion helpers --------------------------------------


def _check_dim(n: int) -> None:
    if not MIN_DIM <= n <= MAX_DIM:
        raise InvalidBodyError(
            f"dimension {n} unsupported (must be between {MIN_DIM} and {MAX_DIM})")


def _clean_points(pts: np.ndarray) -> np.ndarray:
    if pts.ndim != 2:
        raise InvalidBodyError("points array must be two-dimensional")
    if not np.all(np.isfinite(pts)):
        raise InvalidBodyError("non-finite point data")
    return _dedupe_rows(pts, tol=GEOM_TOL)


def _dedupe_rows(rows: np.ndarray, tol: float) -> np.ndarray:
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    keep = []
    for r in rows:
        if not keep or min(np.max(np.abs(r - k)) for k in keep) > tol:
            keep.append(r)
    return np.array(keep)


def _dedupe_facets(a: np.ndarray, b: np.ndarray):
    rows = np.column_stack([a, b])
    rows = _dedupe_rows(rows, tol=1e-9)
    return rows[:, :-1], rows[:, -1]


def _sort_facets(a: np.ndarray, b: np.ndarray):
    key = np.round(np.column_stack([a, b]), 9)
    order = np.lexsort(key.T[::-1])
    return a[order], b[order]


def _facets_from_points(pts: np.ndarray):
    """All supporting hyperplanes through n affinely independent points."""
    k, n = pts.shape
    found_a: list[np.ndarray] = []
    found_b: list[float] = []
    for subset in combinations(range(k), n):
        base = pts[list(subset)]
        diffs = base[1:] - base[0]
        u, s, vt = np.linalg.svd(diffs)
        if s.size and s.min() < 1e-9 * max(1.0, s.max()):
            continue  # affinely dependent subset
        normal = vt[-1]
        b = float(normal @ base[0])
        proj = pts @ normal
        if np.max(proj) <= b + GEOM_TOL:
            pass
        elif np.min(proj) >= b - GEOM_TOL:
            normal, b = -normal, -b
        else:
            continue
        if not any(np.max(np.abs(normal - fa)) <= 1e-8 and abs(b - fb) <= 1e-8
                   for fa, fb in zip(found_a, found_b)):
            found_a.append(normal)
            found_b.append(b)
    if not found_a:
        raise InvalidBodyError("no supporting facets found")
    return _sort_facets(np.array(found_a), np.array(found_b))


def _vertices_from_facets(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, n = a.shape
    pts = []
    for subset in combinations(range(m), n):
        sub_a = a[list(subset)]
        if abs(np.linalg.det(sub_a)) < 1e-9:
            continue
        x = np.linalg.solve(sub_a, b[list(subset)])
        if np.max(a @ x - b) <= GEOM_TOL * max(1.0, float(np.max(np.abs(x)))):
            pts.append(x)
    if not pts:
        raise InvalidBodyError("halfspaces have no vertices")
    return _dedupe_rows(np.array(pts), tol=1e-8)


def _extreme_points(pts: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = pts.shape[1]
    keep = []
    for p in pts:
        rows = a[np.flatnonzero(a @ p - b >= -GEOM_TOL)]
        if rows.shape[0] >= n and np.linalg.matrix_rank(rows, tol=1e-9) == n:
            keep.append(p)
    return np.array(keep)


def _same_point_sets(u: np.ndarray, v: np.ndarray, tol: float = 1e-8) -> bool:
    if u.shape != v.shape:
        return False
    d = np.max(np.abs(u[:, None, :] - v[None, :, :]), axis=-1)
    return bool(np.all(d.min(axis=1) <= tol) and np.all(d.min(axis=0) <= tol))


def _same_facet_sets(a1, b1, a2, b2, tol: float = 1e-8) -> bool:
    return _same_point_sets(np.column_stack([a1, b1]), np.column_stack([a2, b2]),
                            tol=tol)


# -- support calculus --------------------------------------------------------


def support_function(body: ConvexPolytope, direction) -> tuple[float, tuple[int, ...]]:
    """Max of <direction, v> over the body, with the argmax vertex indices.

    The argmax set collects every vertex within ``GEOM_TOL`` of the maximum.
    """
    d = body._as_point(direction)
    vals = body.vertices @ d
    h = float(np.max(vals))
    arg = tuple(int(i) for i in np.flatnonzero(vals >= h - GEOM_TOL))
    return h, arg


def minkowski_functional(body: ConvexPolytope, point) -> float:
    """Gauge of the body at a point: least s >= 0 with point in s * body.

    Requires the origin strictly inside the body.
    """
    x = body._as_point(point)
    if np.any(body.offsets <= GEOM_TOL):
        raise OriginNotInteriorError("gauge needs the origin strictly inside "
                                     "the body")
    return float(max(0.0, np.max((body.normals @ x) / body.offsets)))


def polar(body: ConvexPolytope) -> ConvexPolytope:
    """Polar dual {x : <x, y> <= 1 for all y in the body}.

    Facets of the input map to vertices of the polar and vice versa; both
    representations are produced directly and re-validated.
    """
    if np.any(body.offsets <= GEOM_TOL):
        raise OriginNotInteriorError("polar needs the origin strictly inside "
                                     "the body")
    new_vertices = body.normals / body.offsets[:, None]
    norms = np.linalg.norm(body.vertices, axis=1)
    if np.any(norms < 1e-12):
        raise InvalidBodyError("a vertex at the origin has no polar facet")
    new_normals = body.vertices / norms[:, None]
    new_offsets = 1.0 / norms
    new_normals, new_offsets = _sort_facets(new_normals, new_offsets)
    new_vertices = _dedupe_rows(new_vertices, tol=GEOM_TOL)
    return ConvexPolytope.from_representations(new_normals, new_offsets,
                                               new_vertices)


@dataclass(frozen=True, eq=False)
class ConeMembership:
    inside: bool
    residual: float
    coefficients: np.ndarray


@dataclass(frozen=True, eq=False)
class Cone:
    """Finitely generated convex cone; ``generators`` may be empty (the
    zero cone)."""

    generators: np.ndarray

    def membership(self, vector, tol: float = MEMBERSHIP_TOL) -> ConeMembership:
        """LP check that ``vector`` is a nonnegative combination of the
        generators, within residual ``tol * (1 + |vector|)``."""
        v = np.atleast_1d(np.asarray(vector, dtype=float))
        g = self.generators
        n = v.shape[0]
        if g.size == 0:
            res = float(np.sum(np.abs(v)))
            return ConeMembership(res <= tol * (1.0 + float(np.linalg.norm(v))),
                                  res, np.zeros(0))
        k = g.shape[0]
        # minimize sum(e+ + e-) s.t. g.T lam + e+ - e- = v, lam, e >= 0
        c = np.concatenate([np.zeros(k), np.ones(2 * n)])
        a_eq = np.hstack([g.T, np.eye(n), -np.eye(n)])
        lp = make_lp(c, a_eq=a_eq, b_eq=v,
                     bounds=[(0.0, None)] * (k + 2 * n))
        sol = solve_lp(lp)
        if sol.status != "optimal":
            raise LpNumericalError(
                f"cone-membership program ended with status {sol.status}; it "
                "is feasible and bounded below by construction")
        res = float(sol.objective)
        return ConeMembership(res <= tol * (1.0 + float(np.linalg.norm(v))),
                              res, sol.x[:k])

    def contains(self, vector, tol: float = MEMBERSHIP_TOL) -> bool:
        return self.membership(vector, tol).inside


def normal_cone(body: ConvexPolytope, point, tol: float = GEOM_TOL) -> Cone:
    """Outward normal cone at a point of the body.

    Generated by the active facet normals; the zero cone at interior points.
    Raises for points outside the body.
    """
    x = body._as_point(point)
    where = body.locate(x, tol)
    if where == "outside":
        raise PointOutsideBodyError(f"point {x.tolist()} lies outside the body")
    if where == "interior":
        return Cone(np.zeros((0, body.dim)))
    return Cone(body.normals[list(body.active_facets(x, tol))])


# -- metric operations -------------------------------------------------------


def project_point(body: ConvexPolytope, point) -> tuple[np.ndarray, float]:
    """Euclidean projection onto the body via Wolfe's min-norm-point scheme.

    Runs the fully corrective conditional-gradient iteration on the vertex
    set (linear-optimization oracle = vertex argmin); terminates when the
    duality gap certifies the squared distance to 1e-18, i.e. the distance
    to well below 1e-9.
    """
    y = body._as_point(point)
    atoms = body.vertices - y
    x, coeffs = _min_norm_point(atoms)
    return y + x, float(np.linalg.norm(x))


def _min_norm_point(atoms: np.ndarray, max_iter: int = 1000):
    norms2 = np.sum(atoms * atoms, axis=1)
    scale = 1.0 + float(norms2.max())
    start = int(np.argmin(norms2))
    support = [start]
    lam = np.array([1.0])
    x = atoms[start].copy()
    for _ in range(max_iter):
        dots = atoms @ x
        j = int(np.argmin(dots))
        gap = float(x @ x - dots[j])
        if gap <= 1e-14 * scale:
            break
        if j not in support:
            support.append(j)
            lam = np.append(lam, 0.0)
        # Minor cycle: affine minimizer over the current support, stepping
        # back to the simplex boundary and dropping dead atoms as needed.
        for _ in range(len(atoms) + 1):
            sub = atoms[support]
            k = len(support)
            kkt = np.zeros((k + 1, k + 1))
            kkt[:k, :k] = sub @ sub.T
            kkt[:k, k] = 1.0
            kkt[k, :k] = 1.0
            rhs = np.zeros(k + 1)
            rhs[k] = 1.0
            alpha = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:k]
            if np.all(alpha >= -1e-12):
                lam = np.maximum(alpha, 0.0)
                lam /= lam.sum()
                break
            shrink = lam - alpha
            steps = np.where(alpha < 0, lam / np.maximum(shrink, 1e-300), np.inf)
            theta = float(np.min(steps))
            lam = (1.0 - theta) * lam + theta * alpha
            lam[lam < 1e-12] = 0.0
            alive = np.flatnonzero(lam > 0)
            support = [support[i] for i in alive]
            lam = lam[alive]
            lam /= lam.sum()
        x = atoms[support].T @ lam
    full = np.zeros(len(atoms))
    full[support] = lam
    return x, full


def hausdorff_distance(first: ConvexPolytope, second: ConvexPolytope) -> float:
    """Hausdorff distance: the larger of the two directed vertex-to-body
    distances (the directed distance of a polytope is attained at a vertex)."""
    if first.dim != second.dim:
        raise DimensionMismatchError("bodies live in different dimensions")

    def directed(a: ConvexPolytope, b: ConvexPolytope) -> float:
        return max(project_point(b, v)[1] for v in a.vertices)

    return max(directed(first, second), directed(second, first))


def chebyshev_center(body: ConvexPolytope) -> tuple[np.ndarray, float]:
    """Center and radius of a largest inscribed ball (deterministic LP pick)."""
    n = body.dim
    c = np.zeros(n + 1)
    c[n] = -1.0
    a_ub = np.hstack([body.normals, np.ones((body.num_facets, 1))])
    sol = solve_lp(make_lp(c, a_ub=a_ub, b_ub=body.offsets))
    if sol.status != "optimal":
        raise LpNumericalError(
            f"Chebyshev-center program ended with status {sol.status}; it is "
            "feasible and bounded for a valid body")
    return sol.x[:n], float(sol.x[n])


def affine_image(body: ConvexPolytope, scale: float, translation=None) -> ConvexPolytope:
    """Image of the body under x -> scale * x + translation (scale nonzero)."""
    if scale == 0:
        raise ValueError("scale must be nonzero")
    t = np.zeros(body.dim) if translation is None else body._as_point(translation)
    new_vertices = scale * body.vertices + t
    sign = 1.0 if scale > 0 else -1.0
    new_normals = sign * body.normals
    new_offsets = abs(scale) * body.offsets + new_normals @ t
    new_normals, new_offsets = _sort_facets(new_normals, new_offsets)
    new_vertices = _dedupe_rows(new_vertices, tol=GEOM_TOL)
    return ConvexPolytope.from_representations(new_normals, new_offsets,
                                               new_vertices)


def translate(body: ConvexPolytope, translation) -> ConvexPolytope:
    return affine_image(body, 1.0, translation)


def negate(body: ConvexPolytope) -> ConvexPolytope:
    """Pointwise negation -K."""
    return affine_image(body, -1.0)
