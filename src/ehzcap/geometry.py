"""Convex polytope kernel: dual representations, support calculus, distances.

A :class:`ConvexPolytope` is bounded, full-dimensional, and keeps both a
facet (H) and a vertex (V) representation in sync.  Facet normals are unit
vectors.  :meth:`ConvexPolytope.from_vertices` derives the facets by
n-subset incidence enumeration, which is exact at the dimensions this
package targets (2 <= n <= 4); :meth:`ConvexPolytope.from_halfspaces`
rejects halfspaces whose normals leave the origin outside the interior of
their hull, the unbounded regions, then enumerates the intersection points
of its facets and takes the vertex route.  Both enumerations run as stacked
LAPACK calls (``svd``, ``det``, ``solve``) over fixed-size chunks of index
subsets in ``combinations`` order; a vectorized test with a slightly wider
tolerance narrows each chunk to candidates, and every candidate then gets
the exact scalar test, in subset order, so the arrays are those of a
subset-by-subset loop.  A body is validated once.  Every
body built from outside input gets the structural checks: margins, facet
supports, vertex extremality and distinct vertices.  Facets that come from
outside, given beside the vertices, must also be reproduced by the hull of
the vertices; facets that ``from_vertices`` derived are that hull already,
so they are not compared with it again.  Images of a validated body
(:func:`affine_image`, :func:`translate`, :func:`negate`, :func:`polar`)
map its arrays exactly or up to rounding, so they keep only the shape,
finiteness, unit-normal and margin checks.  All predicates resolve at
``GEOM_TOL``; the margin and incidence tests, and the offset matches of
facets, scale it by the largest point norm beyond 1, because rounding grows
with the coordinates.  Which vertex lies on which facet is decided by one
test, ``_incidence``, and each body keeps its answer as
:attr:`ConvexPolytope.incidence`, computed once: the structure check, the
assignment solver's cycle bound and the grid oracle all read that array.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, combinations, islice

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
_RANK_TOL = 1e-9  # rank, determinant and singular-value cut-off
_SAME_POINT_TOL = 1e-8  # max-abs distance at which two rows are one point
_ZERO_NORM_TOL = 1e-12  # a normal or vertex shorter than this is zero
# Slack added to a vectorized prefilter's tolerance, times (1 + scale): it
# covers the rounding by which a stacked product can differ from the scalar
# one of the exact test, so the prefilter only narrows the candidates.
_PREFILTER_SLACK = 1e-12
_SUBSET_CHUNK = 4096  # index subsets per stacked LAPACK call
_ROW_BLOCK = 256  # rows per pairwise-distance block of _dedupe_rows
# Wolfe's min-norm-point solver: the relative duality gap that stops it,
# and the weight below which an atom leaves the support.
_MNP_GAP_TOL = 1e-14
_MNP_WEIGHT_TOL = 1e-12
MIN_DIM = 2
MAX_DIM = 4


class ConvexPolytope:
    """Bounded full-dimensional polytope with synchronized H- and V-reps.

    Build instances through :meth:`from_vertices`, :meth:`from_halfspaces`
    or :meth:`from_representations`; the raw constructor expects both
    representations and validates them against each other once, hull
    comparison included.  The vertex route computes the hull once and checks
    only the structure of the body it builds.  Images of a validated body
    are built without repeating the proof.  Instances are immutable; the
    backing arrays are read-only views.  The vertex-facet incidence is
    computed on first use, at the body's scaled tolerance, and kept.
    """

    def __init__(self, normals, offsets, vertices):
        self._adopt(normals, offsets, vertices)
        self._validate()

    @classmethod
    def _image(cls, normals, offsets, vertices) -> "ConvexPolytope":
        """A body from arrays that map a validated body exactly or up to
        rounding, or that ``from_vertices`` derived; only the checks of
        :meth:`_adopt` run."""
        body = cls.__new__(cls)
        body._adopt(normals, offsets, vertices)
        return body

    def _adopt(self, normals, offsets, vertices) -> None:
        """Take copies of the arrays, run the checks every body gets, and
        freeze them."""
        a, b, v = (np.array(x, dtype=float) for x in (normals, offsets, vertices))
        if a.ndim != 2 or v.ndim != 2 or b.ndim != 1:
            raise InvalidBodyError("representation arrays have wrong rank")
        if a.shape[0] != b.shape[0]:
            raise InvalidBodyError("normals and offsets disagree in count")
        if a.shape[1] != v.shape[1]:
            raise InvalidBodyError("normals and vertices disagree in dimension")
        n = a.shape[1]
        _check_dim(n)
        if not all(np.all(np.isfinite(arr)) for arr in (a, b, v)):
            raise InvalidBodyError("non-finite representation data")
        if np.any(np.abs(np.linalg.norm(a, axis=1) - 1.0) > GEOM_TOL):
            raise InvalidBodyError("facet normals are not unit vectors")
        if v.shape[0] < n + 1:
            raise InvalidBodyError("too few vertices for the ambient dimension")
        if float(np.max(v @ a.T - b)) > GEOM_TOL * _scale(v):
            raise InvalidBodyError("a vertex violates a facet inequality")
        for arr in (a, b, v):
            arr.flags.writeable = False
        self._normals, self._offsets, self._vertices = a, b, v

    # -- construction ----------------------------------------------------

    @classmethod
    def from_vertices(cls, points) -> "ConvexPolytope":
        pts = _clean_points(np.asarray(points, dtype=float))
        n = pts.shape[1]
        _check_dim(n)
        if pts.shape[0] < n + 1:
            raise InvalidBodyError(
                f"{pts.shape[0]} distinct points cannot span dimension {n}")
        if np.linalg.matrix_rank(pts - pts[0], tol=_RANK_TOL) < n:
            raise InvalidBodyError("points do not span the ambient dimension")
        normals, offsets = _facets_from_points(pts)
        active = _incidence(pts, normals, offsets)
        # The facets are the hull of these very points, so comparing them
        # with a hull again would prove nothing; the structure still decides.
        body = cls._image(normals, offsets, pts[_extreme_mask(normals, active)])
        body._check_structure()
        return body

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
        if np.any(norms < _ZERO_NORM_TOL):
            raise InvalidBodyError("zero facet normal")
        a = a / norms[:, None]
        b = b / norms
        a, b = _dedupe_facets(a, b)
        # The region is bounded exactly when the origin is interior to the
        # hull of the normals.
        if (np.linalg.matrix_rank(a - a[0], tol=_RANK_TOL) < a.shape[1]
                or np.any(_facets_from_points(a)[1] <= GEOM_TOL)):
            raise InvalidBodyError("halfspaces describe an unbounded set")
        # The hull of the intersection points drops redundant input rows.
        return cls.from_vertices(_vertices_from_facets(a, b))

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
    def incidence(self) -> np.ndarray:
        """(V, F) booleans, true where a vertex lies on a facet.  Computed
        once per body, read-only."""
        active = _incidence(self._vertices, self._normals, self._offsets)
        active.flags.writeable = False
        return active

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
        """The proof that both representations describe one polytope, on
        top of :meth:`_adopt`'s checks."""
        self._check_structure()
        # Cross-reproduction: the hull of the vertices yields these facets.
        # With the margins and the structure, this pins both
        # representations to the same bounded polytope.
        if not _same_facet_sets(self._normals, self._offsets,
                                *_facets_from_points(self._vertices),
                                scale=_scale(self._vertices)):
            raise InvalidBodyError("facet list does not match the vertex hull")

    def _check_structure(self) -> None:
        """Rank, facet support, vertex extremality and distinct vertices:
        all of the proof but the hull comparison."""
        a, v = self._normals, self._vertices
        n = self.dim
        if np.linalg.matrix_rank(v - v[0], tol=_RANK_TOL) < n:
            raise InvalidBodyError("vertex set is not full-dimensional")
        active = self.incidence
        # Facet support: each facet carries at least n vertices spanning it.
        # The first facet that fails names the error.
        few = np.count_nonzero(active, axis=0) < n
        degenerate = _group_ranks(v, active.T, shift=True) < n - 1
        failing = few | degenerate
        if failing.any():
            i = int(np.argmax(failing))
            if few[i]:
                raise InvalidBodyError(f"facet {i} is supported by fewer than "
                                       f"{n} vertices")
            raise InvalidBodyError(f"facet {i} support is degenerate")
        extreme = _extreme_mask(a, active)
        if not extreme.all():
            raise InvalidBodyError(
                f"vertex {int(np.argmin(extreme))} is not an extreme point")
        if np.any(_gaps(v, v)[np.triu_indices(len(v), 1)] <= _SAME_POINT_TOL):
            raise InvalidBodyError("vertex list repeats a vertex")


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


def _scale(points: np.ndarray) -> float:
    """The largest point norm beyond 1.  Rounding grows with the
    coordinates, so the margin, incidence and facet-offset tolerances are
    multiplied by it."""
    return max(1.0, float(np.max(np.linalg.norm(points, axis=1))))


def _incidence_tol(points: np.ndarray) -> float:
    """How far inside a facet's plane a point may lie and still be on the
    facet, in the incidence tests of a body's points against its facets."""
    return GEOM_TOL * _scale(points)


def _incidence(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(P, F) booleans, true where a point lies on a facet: no farther
    than :func:`_incidence_tol` inside its plane.  The one incidence test
    of the package."""
    return points @ a.T - b >= -_incidence_tol(points)


def _subset_chunks(k: int, r: int):
    """The ``r``-subsets of ``range(k)`` in ``combinations`` order, as index
    arrays of at most ``_SUBSET_CHUNK`` rows each."""
    subsets = combinations(range(k), r)
    while True:
        chunk = np.fromiter(chain.from_iterable(islice(subsets, _SUBSET_CHUNK)),
                            dtype=np.intp)
        if not chunk.size:
            return
        yield chunk.reshape(-1, r)


def _group_ranks(rows: np.ndarray, members: np.ndarray, shift: bool = False):
    """Rank of ``rows[members[i]]`` for every row ``i`` of the boolean
    ``members``, less its first row when ``shift`` (the affine rank).

    Member sets of one size are stacked into one ``matrix_rank`` call; the
    empty set has rank 0.
    """
    counts = np.count_nonzero(members, axis=1)
    ranks = np.zeros(len(members), dtype=int)
    # np.bincount, not np.unique: its integer sort maps in ~1.5 MB of code.
    sizes = np.flatnonzero(np.bincount(counts))
    for count in sizes[sizes > 0]:
        sets = np.flatnonzero(counts == count)
        picked = rows[np.nonzero(members[sets])[1].reshape(len(sets), count)]
        if shift:
            picked = picked - picked[:, :1]
        ranks[sets] = np.linalg.matrix_rank(picked, tol=_RANK_TOL)
    return ranks


def _sort_rows(rows: np.ndarray) -> np.ndarray:
    return rows[np.lexsort(rows.T[::-1])]


def _dedupe_rows(rows: np.ndarray, tol: float) -> np.ndarray:
    """Sorted rows, each kept unless it lies within ``tol`` (max-abs) of an
    earlier kept row.  Rows are decided a block at a time: first against
    the rows kept before the block, then among themselves in order."""
    rows = _sort_rows(rows)
    kept = rows[:0]
    for start in range(0, len(rows), _ROW_BLOCK):
        block = rows[start:start + _ROW_BLOCK]
        block = block[~np.any(_gaps(block, kept) <= tol, axis=1)]
        close = np.tril(_gaps(block, block) <= tol, -1)
        keep = ~close.any(axis=1)
        # A row near earlier rows of the block is kept when none of them
        # is; those are decided first.
        for i in np.flatnonzero(~keep):
            keep[i] = not np.any(close[i, :i] & keep[:i])
        kept = np.vstack([kept, block[keep]])
    return kept


def _gaps(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Max-abs distance between every row of ``u`` and every row of ``v``."""
    return np.max(np.abs(u[:, None, :] - v[None, :, :]), axis=-1)


def _dedupe_facets(a: np.ndarray, b: np.ndarray):
    rows = np.column_stack([a, b])
    rows = _dedupe_rows(rows, tol=GEOM_TOL)
    return rows[:, :-1], rows[:, -1]


def _sort_facets(a: np.ndarray, b: np.ndarray):
    key = np.round(np.column_stack([a, b]), 9)
    order = np.lexsort(key.T[::-1])
    return a[order], b[order]


def _facets_from_points(pts: np.ndarray):
    """All supporting hyperplanes through n affinely independent points.

    The ``n``-subsets go through one stacked SVD per chunk.  A vectorized
    support test, with its tolerance widened by ``_PREFILTER_SLACK``, picks
    the candidates; each candidate then gets the exact scalar support test,
    orientation and dedupe, in subset order.
    """
    k, n = pts.shape
    scale = _scale(pts)
    tol = GEOM_TOL * scale
    wide = tol + _PREFILTER_SLACK * (1.0 + scale)
    found_a = np.empty((0, n))
    found_b = np.empty(0)
    for subsets in _subset_chunks(k, n):
        base = pts[subsets]
        _, s, vt = np.linalg.svd(base[:, 1:] - base[:, :1])
        independent = ~(s.min(axis=1) < _RANK_TOL * np.maximum(1.0, s.max(axis=1)))
        normals, base0 = vt[independent, -1], base[independent, 0]
        offsets = np.einsum("ij,ij->i", normals, base0)
        heights = pts @ normals.T
        candidates = ((heights.max(axis=0) <= offsets + wide)
                      | (heights.min(axis=0) >= offsets - wide))
        for normal, point in zip(normals[candidates], base0[candidates]):
            b = float(normal @ point)
            proj = pts @ normal
            if np.max(proj) <= b + tol:
                pass
            elif np.min(proj) >= b - tol:
                normal, b = -normal, -b
            else:
                continue
            if not np.any((np.max(np.abs(normal - found_a), axis=1)
                           <= _SAME_POINT_TOL)
                          & (np.abs(b - found_b) <= _SAME_POINT_TOL * scale)):
                found_a = np.vstack([found_a, normal])
                found_b = np.append(found_b, b)
    if not len(found_a):
        raise InvalidBodyError("no supporting facets found")
    return _sort_facets(found_a, found_b)


def _vertices_from_facets(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The intersection points of ``n`` facets that satisfy all facets.

    One stacked ``det`` and ``solve`` per chunk of facet subsets; a widened
    vectorized feasibility test picks the candidates, and each gets the
    exact test.  ``a`` has unit rows.
    """
    m, n = a.shape
    pts = []
    for subsets in _subset_chunks(m, n):
        sub_a = a[subsets]
        regular = ~(np.abs(np.linalg.det(sub_a)) < _RANK_TOL)
        x = np.linalg.solve(sub_a[regular], b[subsets[regular]][..., None])[..., 0]
        reach = np.max(np.abs(x), axis=1)
        wide = (GEOM_TOL * np.maximum(1.0, reach)
                + _PREFILTER_SLACK * (1.0 + reach))
        for point in x[np.max(x @ a.T - b, axis=1) <= wide]:
            if np.max(a @ point - b) <= GEOM_TOL * max(
                    1.0, float(np.max(np.abs(point)))):
                pts.append(point)
    if not pts:
        raise InvalidBodyError("halfspaces have no vertices")
    return _dedupe_rows(np.array(pts), tol=_SAME_POINT_TOL)


def _extreme_mask(a: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Which points are extreme: the facet normals active at each point (one
    row of ``active`` per point) span the space."""
    return _group_ranks(a, active) == a.shape[1]


def _same_facet_sets(a1, b1, a2, b2, scale: float = 1.0) -> bool:
    """Whether every facet of each list has a twin in the other: normals
    within ``_SAME_POINT_TOL``, offsets within it times ``scale``."""
    if a1.shape != a2.shape:
        return False
    close = ((_gaps(a1, a2) <= _SAME_POINT_TOL)
             & (np.abs(b1[:, None] - b2[None, :]) <= _SAME_POINT_TOL * scale))
    return bool(close.any(axis=1).all() and close.any(axis=0).all())


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


def polar(body: ConvexPolytope) -> ConvexPolytope:
    """Polar dual {x : <x, y> <= 1 for all y in the body}.

    Facets of the input map to vertices of the polar and vice versa; both
    representations are produced directly, sorted, and given the margin
    checks of every body.
    """
    if np.any(body.offsets <= GEOM_TOL):
        raise OriginNotInteriorError("polar needs the origin strictly inside "
                                     "the body")
    new_vertices = body.normals / body.offsets[:, None]
    norms = np.linalg.norm(body.vertices, axis=1)
    if np.any(norms < _ZERO_NORM_TOL):
        raise InvalidBodyError("a vertex at the origin has no polar facet")
    new_normals = body.vertices / norms[:, None]
    new_offsets = 1.0 / norms
    new_normals, new_offsets = _sort_facets(new_normals, new_offsets)
    return ConvexPolytope._image(new_normals, new_offsets,
                                 _sort_rows(new_vertices))


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
    x = _min_norm_point(atoms)
    return y + x, float(np.linalg.norm(x))


def _min_norm_point(atoms: np.ndarray):
    norms2 = np.sum(atoms * atoms, axis=1)
    scale = 1.0 + float(norms2.max())
    start = int(np.argmin(norms2))
    support = [start]
    lam = np.array([1.0])
    x = atoms[start].copy()
    for _ in range(1000):
        dots = atoms @ x
        j = int(np.argmin(dots))
        gap = float(x @ x - dots[j])
        if gap <= _MNP_GAP_TOL * scale:
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
            if np.all(alpha >= -_MNP_WEIGHT_TOL):
                lam = np.maximum(alpha, 0.0)
                lam /= lam.sum()
                break
            shrink = lam - alpha
            steps = np.divide(lam, shrink, out=np.full(k, np.inf), where=alpha < 0)
            theta = float(np.min(steps))
            lam = (1.0 - theta) * lam + theta * alpha
            lam[lam < _MNP_WEIGHT_TOL] = 0.0
            alive = np.flatnonzero(lam > 0)
            support = [support[i] for i in alive]
            lam = lam[alive]
            lam /= lam.sum()
        x = atoms[support].T @ lam
    return x


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
    sol = _clearance_lp(body, body.offsets)
    if sol.status != "optimal":
        raise LpNumericalError(
            f"Chebyshev-center program ended with status {sol.status}; it is "
            "feasible and bounded for a valid body")
    return sol.x[:-1], float(sol.x[-1])


def _clearance_lp(body: ConvexPolytope, bounds: np.ndarray):
    """Solve ``max eps  s.t.  <a_i, t> + eps <= bounds_i`` over (t, eps).

    With the body's offsets as bounds, eps is the inscribed radius at t;
    with the offsets less a curve's reach per facet, it is the clearance of
    the curve translated by t.
    """
    c = np.zeros(body.dim + 1)
    c[-1] = -1.0
    a_ub = np.hstack([body.normals, np.ones((body.num_facets, 1))])
    return solve_lp(make_lp(c, a_ub=a_ub, b_ub=bounds))


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
    return ConvexPolytope._image(new_normals, new_offsets,
                                 _sort_rows(new_vertices))


def translate(body: ConvexPolytope, translation) -> ConvexPolytope:
    return affine_image(body, 1.0, translation)


def negate(body: ConvexPolytope) -> ConvexPolytope:
    """Pointwise negation -K."""
    return affine_image(body, -1.0)
