"""Capacity of a product of two convex polytopes via facet assignments.

The capacity of the product of a table body K and a geometry body T equals
the shortest length, measured by T, of a closed curve with at most dim+1
vertices that cannot be translated into the interior of K.  A minimizing
curve can always be translated to touch the boundary, and the touched
facets then carry the origin in the convex hull of their outward normals.
The solver therefore enumerates cyclic facet sequences with that hull
property, solves one linear program per sequence for the shortest touching
curve, and takes the minimum, skipping the sequences whose lower bound
shows they cannot reach it.  The hull property itself needs no LP: the
vertices of the polytope of hull weights are listed once per table, and a
facet set has the property exactly when it contains the support of one of
them.  Only those vertex supports, the minimal sets, are enumerated: a
curve's points on facets outside such a support can be dropped without
lengthening it or letting it be translated into the interior.

Each side runs in three stages: enumerate the assignments, filter them,
solve the kept assignments best-first.  The filter acts only when the length
body is centrally symmetric, about some center c.  Then h_T(-d) =
h_T(d) - 2 c.d, and the linear term sums to zero around a closed curve, so
a curve traversed backwards keeps its length and a facet cycle has the same
optimal value as its reverse.  Of each such pair only the lexicographically
smaller cycle is solved, which is also the one the tie-break reports.

The search bounds each kept assignment from below by its cycle bound.  A
curve's length sum_j h_T(q_{j+1} - q_j) is a maximum over momenta in the
length body T.  Fixing one vertex of T as each segment's momentum leaves a
linear function of the points, whose least value over the assigned facets
is read off the facets' vertices, and the largest such value over the
vertex sequences is a max-plus trace of one (V_T, V_T) table per facet.
Sequences constant on the two arcs between two of the facets bound the
shortest 2-cycle through those two, so the cycle bound is never below
such a pair bound, and it is the value itself when some optimal momentum
sequence uses only vertices of T.  The assignments are solved in
ascending bound order, ties in enumeration order, and the search stops at
the first bound above the best value so far plus the tie band and the
LP's duality-gap tolerance, both relative to 1 + |best|.  Every assignment
that could tie is solved, each LP with the data and pivots it would have
without the bound, so the value, the tie set and the curves are those of
solving every kept assignment.  An ``LpNumericalError`` names the first
failing program in bound order.

The programs of one size on one side share all but their facet rows: the
cost, the epigraph and table rows, and those rows' standard form and
phase-1 start tableau are built once per size, on first use, and each
program adds its facet rows (:class:`_AssignmentPrograms`).  Every array
is the one a program built on its own would have, to the byte, so the
pivots, the values and the errors are too.  A side that raises clears
its traceback's frames, so a caller that keeps the error does not keep
the side's programs with it.

The result is cross-checked four ways: the same enumeration runs with the
two bodies swapped, and on both sides a strong billiard trajectory of the
optimal length is reconstructed and verified once, against the user's
bodies.  The bounce laws are the KKT conditions of the assignment program,
so the trajectory's momenta are that program's own multipliers and
realization solves no further LP.  The trajectory is cleaned of
degenerate points by the loop that makes the minimizer canonical, so the
two curves of one solve come from one decision.  Within one call, a side
whose two bodies repeat the bytes of a side already solved is not solved
again: a self-pair K x K solves one side, and in the identity report the
negation of a centrally symmetric body often has the body's own arrays.
A brute-force grid oracle provides an independent upper-bound search for
tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import ceil, inf

import numpy as np

from .billiards import verify_strong
from .curves import (
    PINNED_TOL,
    ClosedPolygonalCurve,
    TranslationCertificate,
    _canonical_rows,
    canonicalize,
    minkowski_length,
    translation_margin,
)
from .errors import (
    CurveCollapseError,
    DimensionMismatchError,
    GridTooCoarseError,
    InvalidBodyError,
    InvalidParameterError,
    LpNumericalError,
    OriginNotInteriorError,
)
from .geometry import (
    GEOM_TOL,
    ConvexPolytope,
    _RANK_TOL,
    _dedupe_rows,
    _incidence_tol,
    _subset_chunks,
    chebyshev_center,
    negate,
    translate,
)
from .lp import (
    DUALITY_GAP_TOL,
    LinearProgram,
    _SharedForm,
    make_lp,
    solve_lp,
)

VALUE_TIE_TOL = 1e-9
LENGTH_AGREEMENT_TOL = 1e-8
QUANTITY_AGREEMENT_TOL = 1e-6
# Relative margin above the best value so far past which an assignment's
# lower bound stops the best-first search: the tie band plus the distance
# by which an accepted LP value may fall short of the true optimum.
_PRUNE_MARGIN = VALUE_TIE_TOL + DUALITY_GAP_TOL
# Assignments whose cycle bounds are formed at once: each step of the
# max-plus product holds a few (chunk, V_T, V_T) arrays.
_BOUND_CHUNK = 4096


@dataclass(frozen=True, eq=False)
class FacetAssignment:
    """Cyclic sequence of distinct table facets a touching curve can use.

    ``hull_weights`` certifies the defining property: nonnegative weights
    summing to one that combine the assigned facet normals to zero.  They
    are the vertex of the table's weight polytope whose support is the
    assigned facets, read in the assignment's order, without renormalizing.
    """

    indices: tuple[int, ...]
    hull_weights: np.ndarray

    @property
    def size(self) -> int:
        return len(self.indices)

    def __repr__(self) -> str:
        return f"FacetAssignment{self.indices}"


def _margin_dual_vertices(table: ConvexPolytope) -> np.ndarray:
    """Vertices of the weight polytope {l >= 0, sum l_i a_i = 0, sum l_i = 1}.

    Rows are sorted, one per support (the entries above ``GEOM_TOL``): a
    vertex found from several bases can come out a few ulps apart, and the
    first of its copies in sorted order is kept.  The enumeration reads its
    facet hull test off the supports; the brute-force oracle uses them as
    the dual of the translation-margin LP, whose best margin for any point
    set is the minimum over these weight vectors of the weighted slack,
    which makes the pinned test for millions of tuples a single matrix
    product.

    A vertex is the basic solution of n+1 facets whose columns of
    [A^T; 1^T] are independent.  That matrix has rank n+1 for a bounded
    body (a positive l with A^T l = 0 has 1 l > 0), so every candidate
    basis is square; the bases are tested and solved in stacked chunks, and
    only the feasible ones are kept.
    """
    f = table.num_facets
    n = table.dim
    e_mat = np.vstack([table.normals.T, np.ones((1, f))])
    rhs = np.zeros(n + 1)
    rhs[n] = 1.0
    kept_bases, kept_x = [], []
    for bases in _subset_chunks(f, n + 1):
        cols = e_mat[:, bases].transpose(1, 0, 2)  # (bases, n+1, n+1)
        regular = np.linalg.matrix_rank(cols, tol=GEOM_TOL) == n + 1
        bases, cols = bases[regular], cols[regular]
        x = np.linalg.solve(cols, np.broadcast_to(rhs[:, None],
                                                  cols.shape[:2] + (1,)))
        residual = np.abs(cols @ x - rhs[:, None]).max(axis=(1, 2))
        x = x[..., 0]
        feasible = (residual <= GEOM_TOL) & (x.min(axis=1) >= -GEOM_TOL)
        kept_bases.append(bases[feasible])
        kept_x.append(x[feasible])
    bases, x = np.concatenate(kept_bases), np.concatenate(kept_x)
    if not len(bases):
        raise InvalidBodyError("facet normals do not positively span; the "
                               "table body cannot be bounded")
    rows = np.zeros((len(bases), f))
    rows[np.arange(len(bases))[:, None], bases] = np.clip(x, 0.0, None)
    rows = rows[np.lexsort(rows.T[::-1])]
    first = {}
    for k, key in enumerate(np.packbits(rows > GEOM_TOL, axis=1)):
        first.setdefault(key.tobytes(), k)
    return rows[list(first.values())]


def enumerate_assignments(table: ConvexPolytope) -> tuple[FacetAssignment, ...]:
    """The cyclic orders of the minimal supports of the table, in a fixed order.

    A facet set qualifies when the origin lies in the convex hull of its
    normals.  Those weights form the face of the weight polytope (see
    :func:`_margin_dual_vertices`) where the other facets weigh zero, so a
    set qualifies exactly when it contains the support (the entries above
    ``GEOM_TOL``) of a vertex.  Only the vertex supports themselves are
    enumerated.  Take an assignment whose set strictly contains a vertex
    support σ and drop its points on the facets outside σ: the curve gets
    no longer, because the support function of the length body is
    sublinear, and it still touches the facets of σ, so it still cannot be
    translated into the interior.  The minimum over all qualifying sets is
    therefore the minimum over the vertex supports.  A vertex support has
    at most n + 1 facets, n the table's dimension.  The hull weights are
    the vertex itself, read in the assignment's order; no LP is solved.

    One representative per cyclic rotation class (smallest index first);
    both traversal orientations appear because curve lengths are sensitive
    to direction for non-symmetric geometry bodies.  The enumeration knows
    nothing of the length body: :func:`_solve_side`'s filter, not this
    function, drops reversed cycles when the length body is centrally
    symmetric.  Order: by size, then by facet set, then by permutation of
    the remaining indices.
    """
    vertices = _margin_dual_vertices(table)
    supports = [tuple(int(i) for i in np.flatnonzero(v > GEOM_TOL))
                for v in vertices]
    out = []
    for support, vertex in sorted(zip(supports, vertices),
                                  key=lambda sv: (len(sv[0]), sv[0])):
        for perm in permutations(support[1:]):
            order = (support[0],) + perm
            w = vertex[list(order)]
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


class _AssignmentPrograms:
    """The assignment programs of one side: a table and a length body.

    A program of m facets has 2 m n + m columns and minimizes the sum of
    its m epigraph scalars over m V_T epigraph rows and m F table rows,
    which depend on m alone; only its m facet rows name the facets.  So
    the cost, those rows and their standard form (an
    :class:`~ehzcap.lp._SharedForm`) are built once per size, on first
    use, and each program adds its facet rows.  The programs are the ones
    built one at a time, and solve with the same bytes.
    """

    def __init__(self, table: ConvexPolytope, length_body: ConvexPolytope):
        if table.dim != length_body.dim:
            raise DimensionMismatchError(
                "table and length body dimensions differ")
        if np.any(length_body.offsets <= GEOM_TOL):
            raise OriginNotInteriorError(
                "length body must contain the origin in its interior")
        self.table = table
        self.w = length_body.vertices
        self._forms = {}

    def program(self, idx: tuple[int, ...]) -> LinearProgram:
        """The program of the facets ``idx`` in their cyclic order."""
        m = len(idx)
        n = self.table.dim
        form = self._forms.get(m)
        if form is None:
            form = self._forms[m] = self._shared_form(m)
        facets = list(idx)
        eq_rows = np.zeros((m, m * n + m))  # row j: facet j's normal at q_j
        eq_rows[np.arange(m)[:, None], np.arange(m * n).reshape(m, n)] = (
            self.table.normals[facets])
        return form.program(eq_rows, self.table.offsets[facets])

    def _shared_form(self, m: int) -> _SharedForm:
        table, w = self.table, self.w
        n = table.dim
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
        base = make_lp(cost, a_ub=np.vstack(ub_rows),
                       b_ub=np.concatenate(ub_rhs))
        for arr in (base.c, base.a_ub, base.b_ub):
            arr.flags.writeable = False
        return _SharedForm(base, n_eq=m)


def solve_assignment(table: ConvexPolytope, length_body: ConvexPolytope,
                     assignment: FacetAssignment, *,
                     _programs: _AssignmentPrograms | None = None,
                     ) -> AssignmentSolution:
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

    ``_programs`` is the side's :class:`_AssignmentPrograms`, which
    :func:`_solve_side` passes so that programs of one size share their
    standard form; without it the call builds its own.
    """
    programs = _programs
    if programs is None:
        programs = _AssignmentPrograms(table, length_body)
    idx = assignment.indices
    if len(set(idx)) != len(idx) or len(idx) < 2:
        raise InvalidBodyError("assignment indices must be distinct, >= 2")
    if min(idx) < 0 or max(idx) >= table.num_facets:
        raise InvalidBodyError("assignment indices out of range for the table")
    m = len(idx)
    n = table.dim
    w = programs.w
    v = w.shape[0]
    try:
        sol = solve_lp(programs.program(idx))
    except LpNumericalError as exc:
        raise LpNumericalError(f"assignment program {idx}: {exc}") from exc
    if sol.status != "optimal":
        raise LpNumericalError(
            f"assignment program {idx} ended with status {sol.status}; it "
            "is feasible and bounded by construction")
    return AssignmentSolution(assignment=assignment,
                              value=float(sol.objective),
                              points=sol.x[:m * n].reshape(m, n).copy(),
                              momenta=sol.ineq_duals[:m * v].reshape(m, v) @ w)


def _relative_spread(values) -> float:
    """Spread of the values relative to the smallest, the deviation both
    agreement reports compare with ``QUANTITY_AGREEMENT_TOL``."""
    vals = list(values)
    lo, hi = min(vals), max(vals)
    return (hi - lo) / (1.0 + abs(lo))


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
        return _relative_spread(self.present())

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
    """One side's minimum and tie set.  ``enumerated`` counts the
    assignments on minimal supports, ``kept`` those the reversal filter
    keeps, and ``solved`` the LPs solved before the bound stopped the
    search."""

    value: float
    tied: tuple[AssignmentSolution, ...]
    length_body: ConvexPolytope
    length_shift: np.ndarray
    enumerated: int
    kept: int
    solved: int


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


def _centrally_symmetric(body: ConvexPolytope) -> bool:
    """Whether every vertex mirrored through the vertex centroid is a vertex.

    A centrally symmetric polytope's vertices come in antipodal pairs, so
    its center is the vertex centroid.  The tolerance is ``GEOM_TOL`` times
    the largest vertex distance from the centroid, because the value error
    near-symmetry could cause scales with the body's size.
    """
    spread = body.vertices - body.vertices.mean(axis=0)
    tol = GEOM_TOL * np.linalg.norm(spread, axis=1).max()
    mirror_gap = np.linalg.norm(spread[:, None, :] + spread[None, :, :],
                                axis=2).min(axis=1)
    return bool(np.all(mirror_gap <= tol))


def _one_orientation(assignments: tuple[FacetAssignment, ...]):
    """Keep each 2-cycle and the lexicographically smaller of every cycle
    and its reverse.

    The reverse of (i0, i1, ..., ik) starts at the same smallest facet and
    is (i0, ik, ..., i1), so the smaller of the two has i1 < ik.
    """
    return tuple(a for a in assignments
                 if a.size == 2 or a.indices[1] < a.indices[-1])


def _momentum_tables(table: ConvexPolytope,
                     length_body: ConvexPolytope) -> np.ndarray:
    """(F, V_T, V_T) tables, entry [i, a, b] the least <w_a - w_b, v> over
    the vertices v of table facet i, the w being the length body's
    vertices.

    A point q on facet i, entered with momentum w_a and left with momentum
    w_b, adds <w_a - w_b, q> to a curve's length at fixed momenta, and a
    linear function takes its least value on a facet at a vertex.  The
    facet vertices are the table's own :attr:`ConvexPolytope.incidence`;
    the products come from one V_K x V_T^2 matrix.
    """
    w = length_body.vertices
    diffs = (w[:, None, :] - w[None, :, :]).reshape(-1, table.dim)
    dots = table.vertices @ diffs.T  # (V_K, V_T^2)
    facet, vertex = np.nonzero(table.incidence.T)
    starts = np.flatnonzero(np.r_[True, facet[1:] != facet[:-1]])
    low = np.minimum.reduceat(dots[vertex], starts, axis=0)  # (F, V_T^2)
    return low.reshape(-1, len(w), len(w))


def _assignment_bounds(table: ConvexPolytope, length_body: ConvexPolytope,
                       assignments) -> np.ndarray:
    """A lower bound on each assignment's optimal value: its cycle bound.

    Fix one length-body vertex w_{a_j} as the momentum of each segment j,
    from q_j to q_{j+1}.  Since h_T(d) >= <w_a, d>, the curve is at least
    as long as sum_j <w_{a_j}, q_{j+1} - q_j> = sum_j <w_{a_{j-1}} -
    w_{a_j}, q_j>, and its least value over points on the assigned facets
    is sum_j M_{i_j}[a_{j-1}, a_j], M the :func:`_momentum_tables`.  The
    bound is the largest such sum over the momentum sequences, the trace
    of the max-plus product of the assignment's tables.  The sequences
    constant on the two arcs between facets i and j give max over a, b of
    M_i[b, a] + M_j[a, b], the closed-form bound of the shortest 2-cycle
    through the two, so the bound is never below that pair bound, and it
    equals the value when some optimal momentum sequence uses only
    vertices of T.

    Shorter assignments are padded to one width with the max-plus identity
    (0 on the diagonal, -inf off it).  The products are formed one inner
    index at a time, so a block of k assignments holds k V_T^2 numbers,
    and at most ``_BOUND_CHUNK`` assignments are bounded at once.
    """
    tables = _momentum_tables(table, length_body)
    v = tables.shape[1]
    identity = np.full((1, v, v), -inf)
    identity[0, range(v), range(v)] = 0.0
    tables = np.concatenate([tables, identity])
    pad = len(tables) - 1
    width = max(a.size for a in assignments)
    idx = np.array([a.indices + (pad,) * (width - a.size)
                    for a in assignments])
    bounds = []
    for start in range(0, len(idx), _BOUND_CHUNK):
        block = idx[start:start + _BOUND_CHUNK]
        product = tables[block[:, 0]]  # (k, V_T, V_T)
        for column in block[:, 1:].T:
            step = tables[column]
            nxt = np.full_like(product, -inf)
            for b in range(v):
                np.maximum(nxt, product[:, :, b:b + 1] + step[:, None, b, :],
                           out=nxt)
            product = nxt
        bounds.append(product.diagonal(axis1=1, axis2=2).max(axis=1))
    return np.concatenate(bounds)


def _solve_side(table: ConvexPolytope, geometry: ConvexPolytope) -> _SideSolve:
    """Minimum over the table's facet assignments, in three stages.

    Enumerate the assignments on minimal supports; filter, solving only one
    orientation of each facet cycle when the centered length body is
    centrally symmetric (a reversed curve then keeps its length, see the
    module docstring); solve the kept assignments best-first.  Each kept
    assignment is bounded from below by its cycle bound
    (:func:`_assignment_bounds`), the assignments are solved in ascending
    bound order (ties in enumeration order), and the search stops at the
    first bound above ``best +
    (VALUE_TIE_TOL + DUALITY_GAP_TOL) * (1 + |best|)``, ``best`` being the
    smallest value solved so far.  An assignment left unsolved has a true
    value above that, and its computed value could not come within
    ``VALUE_TIE_TOL`` of the minimum, since an accepted LP value is within
    ``DUALITY_GAP_TOL`` of the true one.  So every assignment that could
    tie is solved, with the same data as without the bound, and the value
    and the tie set are those of solving them all.  An ``LpNumericalError``
    names the first failing program in bound order; a failing program
    whose bound lies past the stop is never solved.

    The tie set holds every solved assignment within ``VALUE_TIE_TOL`` of
    the minimum, sorted by indices.  The filter keeps the smaller cycle of
    each reversed pair, so the first tied assignment is the one the
    enumeration without the filter would give.  A search over every facet
    set with the hull property has the same minimum but may tie on a set
    that strictly contains a minimal support and sorts first; that
    assignment is not enumerated, so ``tied[0]`` can differ from it.
    """
    length_body, shift = _centered_length_body(geometry)
    assignments = enumerate_assignments(table)
    enumerated = len(assignments)
    if _centrally_symmetric(length_body):
        assignments = _one_orientation(assignments)
    bounds = _assignment_bounds(table, length_body, assignments)
    programs = _AssignmentPrograms(table, length_body)
    solutions = []
    best = inf
    for k in np.argsort(bounds, kind="stable"):
        if bounds[k] > best + _PRUNE_MARGIN * (1.0 + abs(best)):
            break
        solutions.append(solve_assignment(table, length_body, assignments[k],
                                          _programs=programs))
        best = min(best, solutions[-1].value)
    tie = VALUE_TIE_TOL * (1.0 + abs(best))
    tied = sorted((s for s in solutions if s.value <= best + tie),
                  key=lambda s: s.assignment.indices)
    return _SideSolve(value=best, tied=tuple(tied), length_body=length_body,
                      length_shift=shift, enumerated=enumerated,
                      kept=len(assignments), solved=len(solutions))


def _body_key(body: ConvexPolytope) -> tuple:
    """Everything of a body that :func:`_solve_side` reads, as shapes and
    bytes: equal keys give bit-identical solves, and bodies that are equal
    in value but not in bytes (``-0.0`` against ``0.0``) stay apart."""
    return (body.normals.shape, body.vertices.shape, body.normals.tobytes(),
            body.offsets.tobytes(), body.vertices.tobytes())


def _solve_sides(pairs):
    """Yield :func:`_solve_side` of each (table, geometry) pair, in order.

    A pair whose bodies repeat the bytes of an earlier pair's reuses that
    solve.  Solves are bitwise deterministic, so the reuse is exact.  The
    memo lives as long as the generator, which is one public call.

    A side that raises has the frames of its traceback, and of the
    exceptions chained to it, cleared first: they hold the side's
    assignments, programs and tableaux, which a caller that keeps the
    error would otherwise keep too.  The message and the chain stay.
    """
    memo = {}
    for table, geometry in pairs:
        key = (_body_key(table), _body_key(geometry))
        if key not in memo:
            try:
                memo[key] = _solve_side(table, geometry)
            except Exception as exc:
                _clear_frames(exc)
                raise
        yield memo[key]


def _clear_frames(exc: BaseException) -> None:
    """Clear the finished frames of the tracebacks along an exception's
    chain of causes and contexts."""
    # Imported on the failure path only: the module holds about 100 KB,
    # which every process importing the package would carry.
    import traceback

    seen = set()
    while exc is not None and id(exc) not in seen:
        seen.add(id(exc))
        traceback.clear_frames(exc.__traceback__)
        exc = exc.__cause__ or exc.__context__


def _realize_billiard(table: ConvexPolytope, geometry: ConvexPolytope,
                      side: _SideSolve):
    """Find a strong trajectory at the side's optimal value, verified once.

    Per value-tied assignment, pairs the optimal touching curve with the
    momenta from the assignment program's own multipliers, cleans both with
    the loop :func:`canonicalize` cleans the minimizer with
    (:func:`~ehzcap.curves._canonical_rows`) and shifts the momenta by
    ``side.length_shift``; the first pair ``verify_strong`` accepts against
    the user's bodies is kept.  Returns (curve, momenta, length, note); all
    but the note are None when no tie verifies or the verified length is
    not ``side.value``.
    """
    notes = []
    for solution in side.tied:
        label = str(solution.assignment.indices)
        try:
            rows, carry = _canonical_rows(solution.points, solution.momenta)
            curve = ClosedPolygonalCurve(solution.points[rows])
        except CurveCollapseError as exc:
            notes.append(f"{label}: {exc}")
            continue
        momenta = solution.momenta[carry] + side.length_shift
        if verify_strong(table, geometry, curve, momenta).verified:
            break
        notes.append(f"{label}: multiplier momenta failed verification")
    else:
        return None, None, None, "; ".join(notes)
    length = minkowski_length(side.length_body, curve)
    if abs(length - side.value) > LENGTH_AGREEMENT_TOL * (1.0 + side.value):
        return None, None, None, (f"realized trajectory has length {length!r} "
                                  f"instead of {side.value!r}")
    return curve, momenta, length, ""


def ehz_capacity(table: ConvexPolytope, geometry: ConvexPolytope) -> CapacityResult:
    """Capacity of the product of the two bodies, with full cross-checks.

    Runs the facet-assignment enumeration on the table, the same enumeration
    with the roles swapped, and realizes a strong billiard trajectory on
    each side, verified once against the user's bodies.  The four resulting
    numbers are reported in ``quantities``; they agree within 1e-6 relative
    on valid inputs, and the returned value is the primary enumeration
    minimum.  A failed minimizer check names the primary side's winning
    assignment.  When the two bodies are byte-identical, the swapped side
    is the primary one and is solved once.
    """
    if table.dim != geometry.dim:
        raise DimensionMismatchError("bodies live in different dimensions")
    primary, swapped = _solve_sides([(table, geometry), (geometry, table)])

    winner = primary.tied[0]
    label = f"assignment {winner.assignment.indices}"
    q_star = canonicalize(winner.points).canonical_rotation()
    certificate = translation_margin(table, q_star)
    if not certificate.pinned:
        raise LpNumericalError(f"{label}: minimizing curve is not pinned; "
                               "assignment certificates are inconsistent")
    check = minkowski_length(primary.length_body, q_star)
    if (abs(check - primary.value)
            > LENGTH_AGREEMENT_TOL * (1.0 + abs(primary.value))):
        raise LpNumericalError(f"{label}: canonical minimizer changed "
                               "length; curve cleanup lost a segment")

    bill_q, dual_curve, billiard_length, note = _realize_billiard(
        table, geometry, primary)
    swap_q, _, swapped_length, swap_note = _realize_billiard(
        geometry, table, swapped)
    if swap_q is None:
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


def _facet_grid(body: ConvexPolytope, facet: int, step: float) -> np.ndarray:
    """Grid of the given spacing on one facet, in facet-intrinsic coordinates,
    together with the facet's corners.

    The corners are the body's own incidence; a grid point is kept when no
    facet inequality fails by more than the body's incidence tolerance, so
    both tests scale with the body.
    """
    corners = body.vertices[body.incidence[:, facet]]
    centroid = corners.mean(axis=0)
    shifted = corners - centroid
    _, s, vt = np.linalg.svd(shifted, full_matrices=False)
    basis = vt[s > _RANK_TOL * max(1.0, s.max())]  # rows span the facet plane
    coords = shifted @ basis.T
    axes = []
    for k in range(coords.shape[1]):
        lo, hi = coords[:, k].min(), coords[:, k].max()
        count = max(1, ceil((hi - lo) / step))
        axes.append(np.linspace(lo, hi, count + 1))
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    candidates = centroid + mesh @ basis
    slack = (candidates @ body.normals.T - body.offsets).max(axis=1)
    inside = slack <= _incidence_tol(body.vertices)
    return np.vstack([corners, candidates[inside]])


def boundary_grid(table: ConvexPolytope, step: float) -> np.ndarray:
    """Grid points covering the whole boundary of the body, sorted, each
    kept once: points within the incidence tolerance of the grid's scale
    are one point."""
    pts = np.vstack([_facet_grid(table, i, step)
                     for i in range(table.num_facets)])
    return _dedupe_rows(pts, tol=_incidence_tol(pts))


def check_oracle_parameters(table: ConvexPolytope, grid_step: float,
                            m_max: int | None = None) -> int:
    """The tuple size bound :func:`brute_force_oracle` uses on this table,
    ``dim + 1`` when ``m_max`` is None.  A step that is not positive and
    finite (NaN included) or a bound outside ``[2, dim + 1]`` raises
    :class:`InvalidParameterError`."""
    if not 0 < grid_step < inf:
        raise InvalidParameterError(
            f"grid step must be positive and finite, got {grid_step}")
    n = table.dim
    if m_max is None:
        m_max = n + 1
    if not 2 <= m_max <= n + 1:
        raise InvalidParameterError(
            f"tuple size bound must be in [2, {n + 1}], got {m_max}")
    return m_max


def brute_force_oracle(table: ConvexPolytope, geometry: ConvexPolytope,
                       grid_step: float, m_max: int | None = None,
                       tol: float = PINNED_TOL) -> float:
    """Min length over pinned tuples of boundary grid points, by brute force.

    Independent of the assignment machinery: pinnedness of each tuple is
    decided by closed-form evaluation of the translation-margin dual over
    precomputed weight vertices, and lengths come straight from support
    values.  Searches a finite subset of the admissible curves, so the
    result is always an upper bound for the capacity.  The grid
    (:func:`boundary_grid`) scales with the table: its facet corners are
    the table's incidence and its tolerances are the incidence tolerance.
    A step that is not positive (NaN included) or a tuple size bound
    outside ``[2, dim + 1]`` raises :class:`InvalidParameterError`, as
    :func:`check_oracle_parameters` checks them.
    """
    m_max = check_oracle_parameters(table, grid_step, m_max)
    length_body, _ = _centered_length_body(geometry)
    points = boundary_grid(table, grid_step)
    duals = _margin_dual_vertices(table)
    slack = table.offsets - points @ table.normals.T  # (G, F), >= -tol
    w = length_body.vertices

    best = inf
    found_any = False
    for m in range(2, m_max + 1):
        orders = [(0,) + perm for perm in permutations(range(1, m))]
        for chunk in _subset_chunks(points.shape[0], m):
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


# -- identity report ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class IdentityReport:
    """Capacity values of the five sign/order variants of a body pair."""

    values: dict[str, float]

    @property
    def max_relative_deviation(self) -> float:
        return _relative_spread(self.values.values())

    @property
    def consistent(self) -> bool:
        return self.max_relative_deviation <= QUANTITY_AGREEMENT_TOL


def capacity_identities(table: ConvexPolytope,
                        geometry: ConvexPolytope) -> IdentityReport:
    """Capacity of (K,T), (T,K), (-K,T), (K,-T) and (-K,-T).

    The five numbers agree for valid inputs.  Each variant runs only the
    primary enumeration: the values are what the identity is about.  A
    variant whose two bodies are byte-identical to an earlier variant's
    reuses that solve: when negating the geometry body gives the same
    arrays, as for the square, the variants that negate it repeat two
    others.  An ``LpNumericalError`` is raised again prefixed with the
    variant that solved the side, as in ``"base: assignment program ..."``.
    """
    neg_table, neg_geometry = negate(table), negate(geometry)
    variants = {
        "base": (table, geometry),
        "swapped": (geometry, table),
        "negated_table": (neg_table, geometry),
        "negated_geometry": (table, neg_geometry),
        "negated_both": (neg_table, neg_geometry),
    }
    values = {}
    sides = _solve_sides(variants.values())
    for name in variants:
        try:
            values[name] = next(sides).value
        except LpNumericalError as exc:
            raise LpNumericalError(f"{name}: {exc}") from exc
    return IdentityReport(values=values)
