"""Named corpus bodies and seeded random body generation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidBodyError
from .geometry import GEOM_TOL, ConvexPolytope, hausdorff_distance

GENERATION_RETRIES = 200


def _square():
    return ConvexPolytope.from_vertices(
        [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])


def _cross_polytope():
    return ConvexPolytope.from_vertices(
        [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])


def _triangle():
    return ConvexPolytope.from_vertices([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def _cube():
    corners = [[float(sx), float(sy), float(sz)]
               for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
    return ConvexPolytope.from_vertices(corners)


def _octahedron():
    return ConvexPolytope.from_vertices(np.vstack([np.eye(3), -np.eye(3)]))


def _simplex_3d():
    return ConvexPolytope.from_vertices(np.vstack([np.zeros(3), np.eye(3)]))


_NAMED = {
    "square": _square,
    "cross-polytope": _cross_polytope,
    "triangle": _triangle,
    "cube": _cube,
    "octahedron": _octahedron,
    "simplex-3d": _simplex_3d,
}


def named_body_names() -> tuple[str, ...]:
    return tuple(_NAMED)


def named_body(name: str) -> ConvexPolytope:
    try:
        return _NAMED[name]()
    except KeyError:
        raise InvalidBodyError(
            f"unknown body name {name!r}; known: {', '.join(_NAMED)}") from None


@dataclass(frozen=True, eq=False)
class BodySpec:
    """A body together with its name and how it came to be."""

    name: str
    polytope: ConvexPolytope
    provenance: dict = field(default_factory=lambda: {"kind": "literal"})


def _convex_position_points(rng: np.random.RandomState, k: int) -> np.ndarray:
    """k points in convex position via paired monotone coordinate chains.

    Sorted x and y samples are each split into an increasing and a
    decreasing chain; the resulting step vectors, matched up at random and
    sorted by angle, trace a convex polygon with exactly k corners (up to
    ties of measure zero, which the caller's retry loop absorbs).
    """

    def deltas(values: np.ndarray) -> np.ndarray:
        lo, hi = values[0], values[-1]
        rising = np.concatenate([[lo], values[1:-1][rng.rand(k - 2) < 0.5],
                                 [hi]])
        falling = np.concatenate(
            [[lo], np.setdiff1d(values[1:-1], rising[1:-1]), [hi]])
        return np.concatenate([np.diff(rising), -np.diff(falling)])

    dx = deltas(np.sort(rng.uniform(-2.0, 2.0, k)))
    dy = deltas(np.sort(rng.uniform(-2.0, 2.0, k)))
    rng.shuffle(dy)
    order = np.argsort(np.arctan2(dy, dx))
    steps = np.column_stack([dx, dy])[order]
    return np.cumsum(steps, axis=0)


def random_polygon(k: int, seed: int) -> ConvexPolytope:
    """Polygon with exactly k vertices, deterministic in the seed.

    The vertex centroid is moved to the origin, so the origin is always
    interior.
    """
    if k < 3:
        raise InvalidBodyError("a polygon needs at least three vertices")
    rng = np.random.RandomState(seed)
    for _ in range(GENERATION_RETRIES):
        pts = _convex_position_points(rng, k)
        pts = (pts - pts.mean(axis=0)).round(6)
        try:
            body = ConvexPolytope.from_vertices(pts)
        except InvalidBodyError:
            continue
        if len(body.vertices) == k and np.all(body.offsets > GEOM_TOL):
            return body
    raise InvalidBodyError(
        f"could not place {k} points in convex position after "
        f"{GENERATION_RETRIES} attempts")


def perturbed_body(base: ConvexPolytope, delta: float, seed: int = 0) -> ConvexPolytope:
    """Copy of the base with each vertex moved by at most delta.

    The output lies within Hausdorff distance delta of the base, inside the
    contract bound delta * (1 + diameter).  When every moved vertex stays a
    vertex this holds by construction: each offset o_i is clipped to norm
    delta, so a point sum l_i (v_i + o_i) of the new hull lies within
    sum l_i |o_i| <= delta of the point sum l_i v_i of the base, and the
    converse holds the same way.  Only a draw that loses a vertex has its
    distance computed: at a delta near the kernel's tolerances (the cube at
    1e-8), ``from_vertices`` can drop an extreme point and build a body
    that misses a corner.  Zero delta returns the base itself.  A delta
    must be nonnegative, and ``2 * delta``, the width of the range the
    offsets are drawn from, finite.
    """
    if not (delta >= 0 and np.isfinite(2 * delta)):
        raise InvalidBodyError(
            f"perturbation size must be nonnegative with 2 * delta finite, "
            f"got {delta}")
    if delta == 0:
        return base
    rng = np.random.RandomState(seed)
    for _ in range(GENERATION_RETRIES):
        offsets = rng.uniform(-delta, delta, size=base.vertices.shape)
        norms = np.linalg.norm(offsets, axis=1)
        too_far = norms > delta
        if np.any(too_far):
            offsets[too_far] *= (delta / norms[too_far])[:, None]
        try:
            body = ConvexPolytope.from_vertices(base.vertices + offsets)
        except InvalidBodyError:
            continue
        if (len(body.vertices) == len(base.vertices)
                or hausdorff_distance(body, base) <= delta * (1.0 + base.diameter)):
            return body
    raise InvalidBodyError(
        f"perturbation of size {delta} kept degenerating after "
        f"{GENERATION_RETRIES} attempts")


def generate_body(family: str, *, name: str | None = None, k: int | None = None,
                  base: ConvexPolytope | None = None, delta: float | None = None,
                  seed: int = 0) -> BodySpec:
    """Build a BodySpec from one of the supported families.

    ``named`` needs ``name``; ``random-polygon`` needs ``k``; ``perturbed``
    needs ``base`` and ``delta``.
    """
    if family == "named":
        if name is None:
            raise InvalidBodyError("the named family needs a body name")
        return BodySpec(name=name, polytope=named_body(name))
    if family == "random-polygon":
        if k is None:
            raise InvalidBodyError("the random-polygon family needs a vertex "
                                   "count k")
        return BodySpec(
            name=f"random-polygon-{k}-seed{seed}",
            polytope=random_polygon(k, seed),
            provenance={"kind": "generated", "family": "random-polygon",
                        "k": k, "seed": seed})
    if family == "perturbed":
        if base is None or delta is None:
            raise InvalidBodyError("the perturbed family needs a base body "
                                   "and a delta")
        return BodySpec(
            name=f"perturbed-delta{delta}-seed{seed}",
            polytope=perturbed_body(base, delta, seed),
            provenance={"kind": "generated", "family": "perturbed",
                        "delta": delta, "seed": seed})
    raise InvalidBodyError(f"unknown generation family {family!r}")
