"""The body kernel against a reference copy of its previous pipelines.

An earlier kernel proved every body twice: besides the hull of the
vertices it re-derived the vertices from the facets, and every image of a
validated body (``affine_image``, ``translate``, ``negate``, ``polar``) ran
that whole proof again on deduplicated vertices.  A later one still
compared the facets of ``from_vertices`` with the hull they came from.  The
references below copy those pipelines.  The tests pin that the stored
arrays are byte-identical to them, that accept/reject verdicts agree with
them, that only facets from outside are compared with a hull, and that
images enumerate no facet subsets.  The kernels now run stacked, in
chunks of index subsets; the references still loop over one subset at a
time, so the byte comparisons also pin the stacked kernels, at the default
chunk size and at tiny ones.
"""

from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ehzcap.geometry
from ehzcap import jsonio
from ehzcap.bodies import perturbed_body, random_polygon
from ehzcap.capacity import _margin_dual_vertices
from ehzcap.errors import InvalidBodyError
from ehzcap.geometry import (
    ConvexPolytope,
    affine_image,
    chebyshev_center,
    negate,
    polar,
    translate,
)
from ehzcap.lp import make_lp, solve_lp

CORPUS = Path(__file__).parent.parent / "bodies"
REF_GEOM_TOL = 1e-9
INTERSECTION_MISMATCH = ("vertex list does not match the facet intersection "
                         "points")


# -- reference: the previous pipelines, unchanged ---------------------------


def _ref_dedupe_rows(rows, tol):
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    keep = []
    for r in rows:
        if not keep or min(np.max(np.abs(r - k)) for k in keep) > tol:
            keep.append(r)
    return np.array(keep)


def _ref_dedupe_facets(a, b):
    rows = _ref_dedupe_rows(np.column_stack([a, b]), tol=1e-9)
    return rows[:, :-1], rows[:, -1]


def _ref_sort_facets(a, b):
    key = np.round(np.column_stack([a, b]), 9)
    order = np.lexsort(key.T[::-1])
    return a[order], b[order]


def _ref_facets_from_points(pts):
    k, n = pts.shape
    found_a, found_b = [], []
    for subset in combinations(range(k), n):
        base = pts[list(subset)]
        diffs = base[1:] - base[0]
        u, s, vt = np.linalg.svd(diffs)
        if s.size and s.min() < 1e-9 * max(1.0, s.max()):
            continue
        normal = vt[-1]
        b = float(normal @ base[0])
        proj = pts @ normal
        if np.max(proj) <= b + REF_GEOM_TOL:
            pass
        elif np.min(proj) >= b - REF_GEOM_TOL:
            normal, b = -normal, -b
        else:
            continue
        if not any(np.max(np.abs(normal - fa)) <= 1e-8 and abs(b - fb) <= 1e-8
                   for fa, fb in zip(found_a, found_b)):
            found_a.append(normal)
            found_b.append(b)
    if not found_a:
        raise InvalidBodyError("no supporting facets found")
    return _ref_sort_facets(np.array(found_a), np.array(found_b))


def _ref_vertices_from_facets(a, b):
    m, n = a.shape
    pts = []
    for subset in combinations(range(m), n):
        sub_a = a[list(subset)]
        if abs(np.linalg.det(sub_a)) < 1e-9:
            continue
        x = np.linalg.solve(sub_a, b[list(subset)])
        if np.max(a @ x - b) <= REF_GEOM_TOL * max(1.0, float(np.max(np.abs(x)))):
            pts.append(x)
    if not pts:
        raise InvalidBodyError("halfspaces have no vertices")
    return _ref_dedupe_rows(np.array(pts), tol=1e-8)


def _ref_extreme_points(pts, a, b):
    n = pts.shape[1]
    keep = []
    for p in pts:
        rows = a[np.flatnonzero(a @ p - b >= -REF_GEOM_TOL)]
        if rows.shape[0] >= n and np.linalg.matrix_rank(rows, tol=1e-9) == n:
            keep.append(p)
    return np.array(keep)


def _ref_same_point_sets(u, v, tol=1e-8):
    if u.shape != v.shape:
        return False
    d = np.max(np.abs(u[:, None, :] - v[None, :, :]), axis=-1)
    return bool(np.all(d.min(axis=1) <= tol) and np.all(d.min(axis=0) <= tol))


def _ref_same_facet_sets(a1, b1, a2, b2, tol=1e-8):
    return _ref_same_point_sets(np.column_stack([a1, b1]),
                                np.column_stack([a2, b2]), tol=tol)


def reference_validate(normals, offsets, vertices):
    """The previous constructor's checks; raises InvalidBodyError."""
    a = np.array(normals, dtype=float)
    b = np.array(offsets, dtype=float)
    v = np.array(vertices, dtype=float)
    if a.ndim != 2 or v.ndim != 2 or b.ndim != 1:
        raise InvalidBodyError("representation arrays have wrong rank")
    if a.shape[0] != b.shape[0]:
        raise InvalidBodyError("normals and offsets disagree in count")
    if a.shape[1] != v.shape[1]:
        raise InvalidBodyError("normals and vertices disagree in dimension")
    n = a.shape[1]
    if not 2 <= n <= 4:
        raise InvalidBodyError(f"dimension {n} unsupported")
    for arr in (a, b, v):
        if not np.all(np.isfinite(arr)):
            raise InvalidBodyError("non-finite representation data")
    if np.any(np.abs(np.linalg.norm(a, axis=1) - 1.0) > REF_GEOM_TOL):
        raise InvalidBodyError("facet normals are not unit vectors")
    if v.shape[0] < n + 1:
        raise InvalidBodyError("too few vertices for the ambient dimension")
    if np.linalg.matrix_rank(v - v[0], tol=1e-9) < n:
        raise InvalidBodyError("vertex set is not full-dimensional")
    margins = v @ a.T - b
    if float(np.max(margins)) > REF_GEOM_TOL:
        raise InvalidBodyError("a vertex violates a facet inequality")
    active = margins >= -REF_GEOM_TOL
    for i in range(a.shape[0]):
        sup = v[active[:, i]]
        if sup.shape[0] < n:
            raise InvalidBodyError(f"facet {i} is supported by fewer than "
                                   f"{n} vertices")
        if np.linalg.matrix_rank(sup - sup[0], tol=1e-9) < n - 1:
            raise InvalidBodyError(f"facet {i} support is degenerate")
    for j in range(v.shape[0]):
        rows = a[active[j]]
        if rows.shape[0] < n or np.linalg.matrix_rank(rows, tol=1e-9) < n:
            raise InvalidBodyError(f"vertex {j} is not an extreme point")
    a2, b2 = _ref_facets_from_points(v)
    if not _ref_same_facet_sets(a, b, a2, b2):
        raise InvalidBodyError("facet list does not match the vertex hull")
    if not _ref_same_point_sets(v, _ref_vertices_from_facets(a, b)):
        raise InvalidBodyError(INTERSECTION_MISMATCH)


def parent_validate(normals, offsets, vertices):
    """The checks of the kernel that still compared the facets of
    ``from_vertices`` with a second hull, in its order; raises
    InvalidBodyError."""
    a, b, v = (np.array(x, dtype=float) for x in (normals, offsets, vertices))
    n = a.shape[1]
    if np.any(np.abs(np.linalg.norm(a, axis=1) - 1.0) > REF_GEOM_TOL):
        raise InvalidBodyError("facet normals are not unit vectors")
    if v.shape[0] < n + 1:
        raise InvalidBodyError("too few vertices for the ambient dimension")
    if float(np.max(v @ a.T - b)) > REF_GEOM_TOL:
        raise InvalidBodyError("a vertex violates a facet inequality")
    if np.linalg.matrix_rank(v - v[0], tol=1e-9) < n:
        raise InvalidBodyError("vertex set is not full-dimensional")
    active = v @ a.T - b >= -REF_GEOM_TOL
    for i in range(a.shape[0]):
        sup = v[active[:, i]]
        if sup.shape[0] < n:
            raise InvalidBodyError(f"facet {i} is supported by fewer than "
                                   f"{n} vertices")
        if np.linalg.matrix_rank(sup - sup[0], tol=1e-9) < n - 1:
            raise InvalidBodyError(f"facet {i} support is degenerate")
    for j in range(v.shape[0]):
        rows = a[active[j]]
        if rows.shape[0] < n or np.linalg.matrix_rank(rows, tol=1e-9) < n:
            raise InvalidBodyError(f"vertex {j} is not an extreme point")
    a2, b2 = _ref_facets_from_points(v)
    if not _ref_same_facet_sets(a, b, a2, b2):
        raise InvalidBodyError("facet list does not match the vertex hull")
    gaps = np.max(np.abs(v[:, None, :] - v[None, :, :]), axis=-1)
    if np.any(gaps[np.triu_indices(len(v), 1)] <= 1e-8):
        raise InvalidBodyError("vertex list repeats a vertex")


def parent_from_vertices(points):
    """Verdict of that kernel's ``from_vertices``: None or the message."""
    pts = _ref_dedupe_rows(np.asarray(points, dtype=float), tol=REF_GEOM_TOL)
    n = pts.shape[1]
    if pts.shape[0] < n + 1:
        return f"{pts.shape[0]} distinct points cannot span dimension {n}"
    if np.linalg.matrix_rank(pts - pts[0], tol=1e-9) < n:
        return "points do not span the ambient dimension"
    try:
        arrays = reference_from_vertices(pts)
    except InvalidBodyError as exc:
        return str(exc)
    return verdict(parent_validate, *arrays)


def reference_from_vertices(points):
    """The previous ``from_vertices`` arrays, without validation."""
    pts = np.asarray(points, dtype=float)
    pts = _ref_dedupe_rows(pts, tol=REF_GEOM_TOL)
    normals, offsets = _ref_facets_from_points(pts)
    return normals, offsets, _ref_extreme_points(pts, normals, offsets)


def reference_from_halfspaces(normals, offsets):
    """The previous ``from_halfspaces`` arrays, without validation."""
    a = np.atleast_2d(np.asarray(normals, dtype=float))
    b = np.atleast_1d(np.asarray(offsets, dtype=float))
    norms = np.linalg.norm(a, axis=1)
    a, b = _ref_dedupe_facets(a / norms[:, None], b / norms)
    verts = _ref_vertices_from_facets(a, b)
    normals, offsets = _ref_facets_from_points(verts)
    return normals, offsets, _ref_extreme_points(verts, normals, offsets)


def reference_affine_image(arrays, scale, translation=None):
    normals, offsets, vertices = arrays
    t = np.zeros(normals.shape[1]) if translation is None else translation
    new_vertices = scale * vertices + t
    new_normals = (1.0 if scale > 0 else -1.0) * normals
    new_offsets = abs(scale) * offsets + new_normals @ t
    new_normals, new_offsets = _ref_sort_facets(new_normals, new_offsets)
    return (new_normals, new_offsets,
            _ref_dedupe_rows(new_vertices, tol=REF_GEOM_TOL))


def reference_polar(arrays):
    normals, offsets, vertices = arrays
    new_vertices = normals / offsets[:, None]
    norms = np.linalg.norm(vertices, axis=1)
    new_normals, new_offsets = _ref_sort_facets(vertices / norms[:, None],
                                                1.0 / norms)
    return (new_normals, new_offsets,
            _ref_dedupe_rows(new_vertices, tol=REF_GEOM_TOL))


def arrays_of(body):
    return body.normals, body.offsets, body.vertices


def assert_same_arrays(got, expected):
    for g, e in zip(got, expected):
        assert g.shape == e.shape
        assert np.array_equal(g, e)


def verdict(check, *arrays):
    """None when the check accepts, the error message when it rejects."""
    try:
        check(*arrays)
    except InvalidBodyError as exc:
        return str(exc)
    return None


def corpus_bodies():
    return {path.stem: jsonio.body_from_dict(jsonio.loads(path.read_text()))
            for path in sorted(CORPUS.glob("*.json"))}


def tesseract():
    return ConvexPolytope.from_vertices(
        [[a, b, c, d] for a in (-1.0, 1.0) for b in (-1.0, 1.0)
         for c in (-1.0, 1.0) for d in (-1.0, 1.0)])


def simplex_4d():
    apex = (1.0 - np.sqrt(5.0)) / 4.0 * np.ones(4)
    pts = np.vstack([np.eye(4), apex])
    return ConvexPolytope.from_vertices(pts - pts.mean(axis=0))


def cell_16():
    return ConvexPolytope.from_vertices(np.vstack([np.eye(4), -np.eye(4)]))


def random_4d_body(count=14, seed=0):
    pts = np.random.RandomState(seed).normal(size=(count, 4))
    return ConvexPolytope.from_vertices(
        pts / np.linalg.norm(pts, axis=1)[:, None])


def cell_24():
    """The 24-cell: its facets are 24 regular octahedra."""
    pts = [np.eye(4)[i] * si + np.eye(4)[j] * sj
           for i, j in combinations(range(4), 2)
           for si in (-1.0, 1.0) for sj in (-1.0, 1.0)]
    return ConvexPolytope.from_vertices(pts)


def sphere_points(dim, count, seed):
    pts = np.random.RandomState(seed).normal(size=(count, dim))
    return pts / np.linalg.norm(pts, axis=1)[:, None]


def square():
    return ConvexPolytope.from_vertices([[1, 1], [1, -1], [-1, 1], [-1, -1]])


# -- mutations of a valid representation --------------------------------------


def _edge_pairs(body):
    """Vertex pairs sharing at least n - 1 facets: the ends of an edge."""
    active = body.vertices @ body.normals.T - body.offsets >= -REF_GEOM_TOL
    n = body.dim
    return [(i, j) for i, j in combinations(range(len(body.vertices)), 2)
            if np.count_nonzero(active[i] & active[j]) >= n - 1]


def mutate(body, kind, size, rng):
    """The body's arrays with one mutation applied.

    ``repeat`` appends a copy of a vertex shifted by ``size`` (exact at 0);
    ``move``, ``offset`` and ``tilt`` move a vertex, shift an offset or
    tilt a normal by ``size``; the structural kinds ignore ``size``.
    """
    a, b, v = (np.array(x) for x in arrays_of(body))
    direction = rng.normal(size=body.dim)
    direction /= np.linalg.norm(direction)
    j = rng.randint(len(v))
    i = rng.randint(len(a))
    if kind == "repeat":
        v = np.vstack([v, v[j] + size * direction])
    elif kind == "move":
        v[j] += size * direction
    elif kind == "offset":
        b[i] += size * rng.choice([-1.0, 1.0])
    elif kind == "tilt":
        a[i] += size * direction
        a[i] /= np.linalg.norm(a[i])
    elif kind == "drop_vertex":
        v = np.delete(v, j, axis=0)
    elif kind == "drop_facet":
        a, b = np.delete(a, i, axis=0), np.delete(b, i)
    elif kind == "midpoint":
        pairs = _edge_pairs(body)
        p, q = pairs[rng.randint(len(pairs))]
        v = np.vstack([v, (v[p] + v[q]) / 2.0])
    else:
        raise ValueError(kind)
    return a, b, v


SIZED = ("repeat", "move", "offset", "tilt")
STRUCTURAL = ("drop_vertex", "drop_facet", "midpoint")
SIZES = (0.0, 1e-12, 1e-10, 6e-10, 1e-9, 3e-9, 1e-8, 3e-8, 1e-7, 1e-5, 1e-3,
         1e-1)


@st.composite
def small_bodies(draw):
    """Random 2-D and 3-D bodies with up to 8 vertices."""
    seed = draw(st.integers(0, 2**32 - 1))
    dim = draw(st.sampled_from((2, 3)))
    k = draw(st.integers(dim + 1, 8))
    rng = np.random.RandomState(seed)
    for _ in range(40):
        pts = rng.uniform(-3, 3, size=(k, dim)).round(3)
        try:
            return ConvexPolytope.from_vertices(pts)
        except InvalidBodyError:
            continue
    return square()


def in_scaled_band(a, b, v):
    """Whether the kernel's scaled tolerances and the reference's absolute
    ones can decide these arrays differently.

    The kernel's incidence tests, like its margin, scale with the largest
    vertex norm beyond 1, and so does its offset match against the hull.  A
    vertex whose margin on a facet lies between the two incidence
    tolerances is on the facet for the kernel and off it for the reference;
    so is a hull offset between the two offset tolerances.
    """
    scale = max(1.0, np.max(np.linalg.norm(v, axis=1)))
    margins = v @ a.T - b
    if np.any((margins < -REF_GEOM_TOL) & (margins >= -REF_GEOM_TOL * scale)):
        return True
    try:
        a2, b2 = _ref_facets_from_points(v)
    except InvalidBodyError:
        return False
    normals_match = np.max(np.abs(a[:, None, :] - a2[None, :, :]), axis=-1) <= 1e-8
    gaps = np.abs(b[:, None] - b2[None, :])
    return bool(np.any(normals_match & (gaps > 1e-8) & (gaps <= 1e-8 * scale)))


def points_in_scaled_band(points):
    """Whether some point lies between the absolute and the scaled incidence
    tolerance of a facet of the reference's hull or the kernel's, so that
    the two can decide ``from_vertices`` of these points differently."""
    pts = _ref_dedupe_rows(np.asarray(points, dtype=float), tol=REF_GEOM_TOL)
    scale = max(1.0, np.max(np.linalg.norm(pts, axis=1)))
    for hull in (_ref_facets_from_points, ehzcap.geometry._facets_from_points):
        try:
            a, b = hull(pts)
        except InvalidBodyError:
            continue
        gaps = np.abs(pts @ a.T - b)
        if np.any((gaps > REF_GEOM_TOL) & (gaps <= REF_GEOM_TOL * scale)):
            return True
    return False


def _check_verdict(body, kind, size, rng):
    arrays = mutate(body, kind, size, rng)
    got = verdict(ConvexPolytope.from_representations, *arrays)
    expected = verdict(reference_validate, *arrays)
    a, b, v = arrays
    if (got is None and expected == "a vertex violates a facet inequality"
            and np.max(v @ a.T - b) <= REF_GEOM_TOL * max(
                1.0, np.max(np.linalg.norm(v, axis=1)))):
        # The kernel's margin test scales with the largest vertex norm
        # beyond 1; the reference's is absolute.  Only this band may differ.
        return got, expected
    if got != expected and in_scaled_band(a, b, v):
        # So do its incidence tests and its offset match against the hull.
        return got, expected
    if kind in STRUCTURAL or kind == "repeat" or size > 1e-8:
        assert (got is None) == (expected is None), (kind, size, got, expected)
    elif got is None:
        # Up to 1e-8 the facet rows match the hull within the inclusive
        # set-matching tolerance; only the dropped intersection-point match
        # may differ (a triangle with one normal tilted by exactly 1e-8 is
        # one such case).
        assert expected in (None, INTERSECTION_MISMATCH), (kind, size, expected)
    else:
        assert expected is not None, (kind, size, got)
    return got, expected


class TestVerdictsMatchReference:
    @given(small_bodies(), st.sampled_from(SIZED + STRUCTURAL),
           st.sampled_from(SIZES), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_one_mutation(self, body, kind, size, seed):
        _check_verdict(body, kind, size, np.random.RandomState(seed))

    @pytest.mark.parametrize("name", sorted(p.stem for p in CORPUS.glob("*.json")))
    @pytest.mark.parametrize("kind,size", [
        ("repeat", 0.0), ("repeat", 1e-9), ("move", 1e-3), ("offset", 1e-3),
        ("tilt", 1e-3), ("drop_vertex", None), ("drop_facet", None),
        ("midpoint", None)])
    def test_corpus_mutation_is_rejected_by_both(self, name, kind, size):
        body = corpus_bodies()[name]
        got, expected = _check_verdict(body, kind, size or 0.0,
                                       np.random.RandomState(7))
        assert got is not None and expected is not None
        if kind == "repeat":
            assert got == "vertex list repeats a vertex"
            assert expected == INTERSECTION_MISMATCH

    @pytest.mark.parametrize("name", sorted(p.stem for p in CORPUS.glob("*.json")))
    def test_corpus_representations_are_accepted_by_both(self, name):
        arrays = arrays_of(corpus_bodies()[name])
        assert verdict(ConvexPolytope.from_representations, *arrays) is None
        assert verdict(reference_validate, *arrays) is None


# -- byte identity of the stored arrays --------------------------------------


def _recorded_from_vertices(monkeypatch, build):
    """Run ``build`` and return every ``from_vertices`` call it made, as
    (input points, body or None)."""
    calls = []
    original = ConvexPolytope.from_vertices.__func__

    def recording(cls, points):
        pts = np.array(points, dtype=float)
        try:
            body = original(cls, points)
        except InvalidBodyError:
            calls.append((pts, None))
            raise
        calls.append((pts, body))
        return body

    monkeypatch.setattr(ConvexPolytope, "from_vertices", classmethod(recording))
    build()
    monkeypatch.undo()
    return calls


def planar_suite_polygons():
    """The benchmark's planar-suite polygons, centered as it centers them."""
    suite = np.random.RandomState(20240814)
    polygons = []
    for i in range(50):
        for seed in (1000 + i, 2000 + i):
            body = random_polygon(int(suite.randint(5, 9)), seed)
            polygons.append(translate(body, -chebyshev_center(body)[0]))
    return polygons


def perturbed_bodies():
    corpus = corpus_bodies()
    bases = [(corpus[name], (0, 1)) for name in
             ("square", "triangle", "random-polygon-6-seed3",
              "random-polygon-8-seed1")]
    bases.append((corpus["cube"], (0,)))
    return [perturbed_body(base, delta, seed) for base, seeds in bases
            for delta in (1e-2, 1e-3, 1e-4) for seed in seeds]


def spatial_bodies():
    return [tesseract(), simplex_4d(), cell_16(), random_4d_body()]


def stacked_kernel_bodies():
    """Bodies with many subsets per chunk, or with non-simplicial facets."""
    bodies = [ConvexPolytope.from_vertices(sphere_points(3, 30, seed))
              for seed in (0, 1)]
    bodies += [ConvexPolytope.from_vertices(sphere_points(4, 24, seed))
               for seed in (0, 1)]
    bodies += [cell_16(), tesseract(), cell_24()]
    bodies += [perturbed_body(corpus_bodies()["cube"], 1e-6, seed)
               for seed in (0, 12)]
    return bodies


BUILDERS = {
    "corpus": lambda: [ConvexPolytope.from_vertices(body.vertices)
                       for body in corpus_bodies().values()],
    "planar-suite": planar_suite_polygons,
    "perturbed": perturbed_bodies,
    "4-d": spatial_bodies,
    "stacked": stacked_kernel_bodies,
}


def _images(body, rng):
    t = rng.uniform(-2.0, 2.0, size=body.dim)
    images = [("negate", negate(body), reference_affine_image(
                  arrays_of(body), -1.0)),
              ("translate", translate(body, t), reference_affine_image(
                  arrays_of(body), 1.0, t)),
              ("scale", affine_image(body, 2.5, t), reference_affine_image(
                  arrays_of(body), 2.5, t)),
              ("reflect", affine_image(body, -0.375), reference_affine_image(
                  arrays_of(body), -0.375))]
    if np.all(body.offsets > REF_GEOM_TOL):
        images.append(("polar", polar(body), reference_polar(arrays_of(body))))
    return images


class TestStoredArraysMatchReference:
    @pytest.mark.parametrize("family", sorted(BUILDERS))
    def test_built_bodies(self, family, monkeypatch):
        calls = _recorded_from_vertices(monkeypatch, BUILDERS[family])
        assert any(body is not None for _, body in calls)
        for pts, body in calls:
            if body is None:
                continue
            assert_same_arrays(arrays_of(body), reference_from_vertices(pts))

    def test_rejected_builds_are_rejected_by_the_reference(self, monkeypatch):
        calls = _recorded_from_vertices(monkeypatch, BUILDERS["planar-suite"])
        calls += _recorded_from_vertices(monkeypatch, BUILDERS["perturbed"])
        for pts, body in calls:
            try:
                arrays = reference_from_vertices(pts)
                accepted = verdict(reference_validate, *arrays) is None
            except InvalidBodyError:
                accepted = False
            assert accepted == (body is not None)

    @pytest.mark.parametrize("name", sorted(p.stem for p in CORPUS.glob("*.json")))
    def test_from_halfspaces(self, name):
        body = corpus_bodies()[name]
        built = ConvexPolytope.from_halfspaces(body.normals, body.offsets)
        assert_same_arrays(arrays_of(built), reference_from_halfspaces(
            body.normals, body.offsets))

    @pytest.mark.parametrize("family", sorted(BUILDERS))
    def test_images(self, family):
        rng = np.random.RandomState(3)
        for body in BUILDERS[family]():
            for kind, image, expected in _images(body, rng):
                assert_same_arrays(arrays_of(image), expected)
                if len(image.vertices) <= 20:
                    # The hull of the random 4-D body's 46-vertex polar
                    # takes C(46, 4) SVDs; its arrays are checked above.
                    image._validate()
                if kind == "polar":
                    assert image.num_facets == len(body.vertices)
                    assert len(image.vertices) == body.num_facets
                else:
                    assert image.num_facets == body.num_facets
                    assert len(image.vertices) == len(body.vertices)
            assert_same_arrays(arrays_of(negate(negate(body))), arrays_of(body))


# -- cost structure -------------------------------------------------------------


def _refuse(*args, **kwargs):
    raise AssertionError("subset enumeration called")


class TestValidationCost:
    def test_construction_never_intersects_facet_subsets(self, monkeypatch):
        monkeypatch.setattr(ehzcap.geometry, "_vertices_from_facets", _refuse)
        for body in (square(), tesseract(), simplex_4d(), cell_16()):
            rebuilt = ConvexPolytope.from_representations(*arrays_of(body))
            assert_same_arrays(arrays_of(rebuilt), arrays_of(body))
            for _, image, _ in _images(body, np.random.RandomState(0)):
                assert image.dim == body.dim

    def test_images_enumerate_no_subsets(self, monkeypatch):
        bodies = [square(), tesseract(), simplex_4d(), cell_16(),
                  random_4d_body()]
        monkeypatch.setattr(ehzcap.geometry, "_vertices_from_facets", _refuse)
        monkeypatch.setattr(ehzcap.geometry, "_facets_from_points", _refuse)
        for body in bodies:
            for kind, image, expected in _images(body,
                                                 np.random.RandomState(0)):
                assert_same_arrays(arrays_of(image), expected)

    def test_tiny_image_keeps_every_vertex(self):
        # Images keep every vertex, even ones closer than GEOM_TOL.
        image = affine_image(square(), 1e-10)
        assert len(image.vertices) == 4
        assert np.array_equal(image.vertices, 1e-10 * square().vertices)


# -- only facets from outside are compared with a hull ------------------------


def _counting(monkeypatch, name):
    """Count the calls of a geometry kernel function, which still runs."""
    calls = []
    original = getattr(ehzcap.geometry, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(ehzcap.geometry, name, counted)
    return calls


def perturbed_points(base, delta, rng):
    """The base's vertices moved as ``perturbed_body`` moves them."""
    offsets = rng.uniform(-delta, delta, size=base.vertices.shape)
    norms = np.linalg.norm(offsets, axis=1)
    too_far = norms > delta
    offsets[too_far] *= (delta / norms[too_far])[:, None]
    return base.vertices + offsets


class TestHullComparedOnlyForOutsideFacets:
    def test_from_vertices_derives_the_hull_once(self, monkeypatch):
        bodies = [square(), tesseract(), simplex_4d(), cell_16()]
        calls = _counting(monkeypatch, "_facets_from_points")
        for body in bodies:
            calls.clear()
            rebuilt = ConvexPolytope.from_vertices(body.vertices)
            assert len(calls) == 1
            assert_same_arrays(arrays_of(rebuilt), arrays_of(body))
            calls.clear()
            for _, image, expected in _images(body, np.random.RandomState(0)):
                assert_same_arrays(arrays_of(image), expected)
            assert calls == []

    def test_outside_representations_get_the_hull_comparison(self, monkeypatch):
        hulls = _counting(monkeypatch, "_facets_from_points")
        structure = []
        original = ConvexPolytope._check_structure

        def counted(body):
            structure.append(body)
            return original(body)

        monkeypatch.setattr(ConvexPolytope, "_check_structure", counted)
        for name, body in corpus_bodies().items():
            hulls.clear()
            structure.clear()
            rebuilt = ConvexPolytope.from_representations(*arrays_of(body))
            assert len(hulls) == 1 and len(structure) == 1, name
            assert_same_arrays(arrays_of(rebuilt), arrays_of(body))

    def test_a_missing_facet_passes_the_structure_but_not_the_hull(self):
        normals, offsets, vertices = arrays_of(corpus_bodies()["octahedron"])
        normals, offsets = normals[1:], offsets[1:]
        ConvexPolytope._image(normals, offsets, vertices)._check_structure()
        with pytest.raises(InvalidBodyError,
                           match="facet list does not match the vertex hull"):
            ConvexPolytope.from_representations(normals, offsets, vertices)

    @given(st.integers(0, 2**32 - 1), st.sampled_from((2, 3, 4)),
           st.integers(0, 6), st.sampled_from((3, 6, 9)))
    @settings(max_examples=80, deadline=None)
    def test_clouds_get_the_parent_verdict(self, seed, dim, extra, decimals):
        rng = np.random.RandomState(seed)
        pts = rng.uniform(-1.0, 1.0, size=(dim + 1 + extra, dim)).round(decimals)
        assert (verdict(ConvexPolytope.from_vertices, pts)
                == parent_from_vertices(pts) or points_in_scaled_band(pts))

    @given(st.integers(0, 2**32 - 1), st.sampled_from(("cube", "octahedron")),
           st.sampled_from((1e-5, 1e-6, 1e-7)))
    @settings(max_examples=80, deadline=None)
    def test_perturbed_bodies_get_the_parent_verdict(self, seed, name, delta):
        pts = perturbed_points(corpus_bodies()[name], delta,
                               np.random.RandomState(seed))
        assert (verdict(ConvexPolytope.from_vertices, pts)
                == parent_from_vertices(pts) or points_in_scaled_band(pts))

    def test_perturbed_cube_retry_gets_the_parent_verdicts(self, monkeypatch):
        # At delta 1e-6 and seed 12 the first draw has 11 hull facets on 7
        # extreme points; the facet-support check rejects it and the retry
        # loop draws again.
        calls = _recorded_from_vertices(
            monkeypatch, lambda: perturbed_body(corpus_bodies()["cube"],
                                                1e-6, 12))
        assert [body is None for _, body in calls] == [True, False]
        for pts, body in calls:
            expected = parent_from_vertices(pts)
            assert (expected is None) == (body is not None)
            if body is not None:
                assert_same_arrays(arrays_of(body),
                                   reference_from_vertices(pts))


# -- halfspace input ------------------------------------------------------------


UNBOUNDED = {
    "trapezoid": ([[0, 1], [-1, 1], [1, 1], [-2, 1], [2, 1]], [1, 2, 2, 4, 4]),
    "slab": ([[0, 0, 1], [0, 0, -1], [1, 0, 0], [-1, 0, 0]], [1, 1, 1, 1]),
    "quadrant": ([[1, 0], [0, 1]], [1, 1]),
}


def bounded_halfspaces():
    """H-representations of bounded bodies, each also with three redundant
    rows."""
    rng = np.random.RandomState(5)
    bodies = list(corpus_bodies().values())
    bodies += [random_polygon(k, seed) for k, seed in ((5, 1), (7, 2), (9, 3))]
    bodies += [perturbed_body(corpus_bodies()["cube"], delta, 0)
               for delta in (1e-2, 1e-4, 1e-6)]
    bodies += [ConvexPolytope.from_vertices(rng.normal(size=(9, 3))),
               random_4d_body(count=8, seed=1)]
    bodies += [ConvexPolytope.from_vertices(sphere_points(3, 30, 0)),
               tesseract(), cell_16(), cell_24()]
    cases = []
    for body in bodies:
        cases.append((body.normals, body.offsets))
        extra = rng.normal(size=(3, body.dim))
        extra /= np.linalg.norm(extra, axis=1)[:, None]
        reach = np.max(body.vertices @ extra.T, axis=0) + 0.5
        cases.append((np.vstack([body.normals, extra]),
                      np.concatenate([body.offsets, reach])))
    return cases


class TestFromHalfspaces:
    @pytest.mark.parametrize("name", sorted(UNBOUNDED))
    def test_unbounded_input_is_rejected(self, name):
        with pytest.raises(InvalidBodyError,
                           match="halfspaces describe an unbounded set"):
            ConvexPolytope.from_halfspaces(*UNBOUNDED[name])

    def test_bounded_input_keeps_the_reference_arrays(self):
        for normals, offsets in bounded_halfspaces():
            built = ConvexPolytope.from_halfspaces(normals, offsets)
            assert_same_arrays(arrays_of(built),
                               reference_from_halfspaces(normals, offsets))


# -- one clearance program -------------------------------------------------------


def reference_chebyshev_center(body):
    n = body.dim
    c = np.zeros(n + 1)
    c[n] = -1.0
    a_ub = np.hstack([body.normals, np.ones((body.num_facets, 1))])
    sol = solve_lp(make_lp(c, a_ub=a_ub, b_ub=body.offsets))
    return sol.x[:n], float(sol.x[n])


@pytest.mark.parametrize("family", ["corpus", "planar-suite"])
def test_chebyshev_center_keeps_its_bytes(family):
    for body in BUILDERS[family]():
        center, radius = chebyshev_center(body)
        expected_center, expected_radius = reference_chebyshev_center(body)
        assert center.tobytes() == expected_center.tobytes()
        assert radius == expected_radius


# -- stacked subset kernels --------------------------------------------------------


def reference_margin_dual_vertices(table):
    """The previous ``_margin_dual_vertices``: every basis at once."""
    f, n = table.num_facets, table.dim
    e_mat = np.vstack([table.normals.T, np.ones((1, f))])
    rhs = np.zeros(n + 1)
    rhs[n] = 1.0
    bases = np.array(list(combinations(range(f), n + 1)))
    cols = e_mat[:, bases].transpose(1, 0, 2)
    regular = np.linalg.matrix_rank(cols, tol=REF_GEOM_TOL) == n + 1
    bases, cols = bases[regular], cols[regular]
    x = np.linalg.solve(cols, np.broadcast_to(rhs[:, None],
                                              cols.shape[:2] + (1,)))
    residual = np.abs(cols @ x - rhs[:, None]).max(axis=(1, 2))
    x = x[..., 0]
    feasible = (residual <= REF_GEOM_TOL) & (x.min(axis=1) >= -REF_GEOM_TOL)
    bases, x = bases[feasible], x[feasible]
    rows = np.zeros((len(bases), f))
    rows[np.arange(len(bases))[:, None], bases] = np.clip(x, 0.0, None)
    rows = rows[np.lexsort(rows.T[::-1])]
    _, first = np.unique(rows > REF_GEOM_TOL, axis=0, return_index=True)
    return rows[np.sort(first)]


def margin_tables():
    corpus = corpus_bodies()
    return [corpus["cube"], corpus["octahedron"], tesseract(), cell_16(),
            simplex_4d(), random_polygon(9, 3),
            ConvexPolytope.from_vertices(sphere_points(3, 12, 0))]


class TestStackedKernels:
    @pytest.mark.parametrize("chunk, block", [(1, 1), (7, 3)])
    def test_tiny_chunks_keep_the_bytes(self, chunk, block, monkeypatch):
        bodies = [ConvexPolytope.from_vertices(sphere_points(3, 16, 0)),
                  ConvexPolytope.from_vertices(sphere_points(4, 12, 0)),
                  tesseract(), cell_16(), square(), simplex_4d(),
                  perturbed_body(corpus_bodies()["cube"], 1e-6, 12)]
        halfspaces = bounded_halfspaces()[-5:-2]  # tesseract, 16-cell
        tables = margin_tables()[:4]
        expected = ([arrays_of(ConvexPolytope.from_vertices(b.vertices))
                     for b in bodies],
                    [arrays_of(ConvexPolytope.from_halfspaces(*h))
                     for h in halfspaces],
                    [_margin_dual_vertices(t) for t in tables])
        monkeypatch.setattr(ehzcap.geometry, "_SUBSET_CHUNK", chunk)
        monkeypatch.setattr(ehzcap.geometry, "_ROW_BLOCK", block)
        for body, arrays in zip(bodies, expected[0]):
            assert_same_arrays(
                arrays_of(ConvexPolytope.from_vertices(body.vertices)), arrays)
        for h, arrays in zip(halfspaces, expected[1]):
            assert_same_arrays(
                arrays_of(ConvexPolytope.from_halfspaces(*h)), arrays)
        for table, rows in zip(tables, expected[2]):
            assert np.array_equal(_margin_dual_vertices(table), rows)

    def test_margin_dual_vertices_keep_the_bytes(self):
        for table in margin_tables():
            got = _margin_dual_vertices(table)
            expected = reference_margin_dual_vertices(table)
            assert got.shape == expected.shape
            assert np.array_equal(got, expected)

    def test_one_svd_per_chunk(self, monkeypatch):
        calls = []
        original = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        body = ConvexPolytope.from_vertices(sphere_points(3, 30, 0))
        chunks = -(-len(list(combinations(range(30), 3)))
                   // ehzcap.geometry._SUBSET_CHUNK)
        assert body.num_facets == 56
        assert 1 <= len(calls) <= chunks


class TestQhullFacetCounts:
    """Qhull (scipy, test-only) as the reference for the facet counts."""

    @pytest.mark.parametrize("dim, count", [(3, 12), (3, 30), (4, 10), (4, 16)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sphere_points(self, dim, count, seed):
        spatial = pytest.importorskip("scipy.spatial")
        pts = sphere_points(dim, count, seed)
        hull = spatial.ConvexHull(pts)
        equations = np.unique(np.round(hull.equations, 6), axis=0)
        body = ConvexPolytope.from_vertices(pts)
        assert body.num_facets == len(equations)
        assert len(body.vertices) == len(hull.vertices)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_interior_points(self, seed):
        # Gaussian clouds: many points are interior and get dropped.
        spatial = pytest.importorskip("scipy.spatial")
        for dim, count in ((3, 25), (4, 18)):
            pts = np.random.RandomState(seed).normal(size=(count, dim))
            hull = spatial.ConvexHull(pts)
            body = ConvexPolytope.from_vertices(pts)
            assert body.num_facets == len(
                np.unique(np.round(hull.equations, 6), axis=0))
            assert len(body.vertices) == len(hull.vertices)

    def test_non_simplicial_facets(self):
        spatial = pytest.importorskip("scipy.spatial")
        for body, facets in ((tesseract(), 8), (cell_16(), 16),
                             (cell_24(), 24)):
            hull = spatial.ConvexHull(body.vertices)
            assert body.num_facets == facets == len(
                np.unique(np.round(hull.equations, 6), axis=0))
