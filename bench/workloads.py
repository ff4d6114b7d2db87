"""Workload construction for the benchmark: bodies, operations, references.

Every body is built through the package's public functions.  Seed 0 is the
canonical corpus.  A nonzero seed maps both bodies of each planar operation
by one seeded signed permutation R of the coordinates.  Capacity is
invariant under (q, p) -> (Rq, Rp) for orthogonal R, so the reference
values hold at every seed, while the solver sees other coordinates and
facet orders.  The seed changes nothing else, because anything more moved
the work per pass by more than the benchmark's bounds:

- drawing the planar facet counts or the perturbations from the seed
  changed which bodies were solved (one perturbed cube took 0.23 s at one
  seed and 1.45 s at another);
- signed permutations of 3-D and 4-D bodies changed the solve paths: the
  pivots of simplex-3d x simplex-3d ranged over 799-1194, and the
  perturbed cube at delta 1e-2 raised its LpNumericalError after 0.22 s to
  1.0 s.

Three workloads stress different layers of the solver:

``planar-suite``
    The 50-pair 2-D acceptance suite plus the 2-D literature anchors.
    Realization and verification carry real weight only here, and the many
    small LPs expose per-call LP overhead.
``spatial-corpus``
    The 3-D and 4-D pairs.  Assignment LPs dominate and their number grows
    combinatorially with dimension, so pruning and LP reformulation show.
``perturbed-study``
    ``capacity_identities`` on perturbed bodies, the call behind
    ``ehzcap study symmetry``: five primary enumerations per operation, no
    realization, near-degenerate inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
BODIES_DIR = REPO_ROOT / "bodies"
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

WORKLOADS = ("planar-suite", "spatial-corpus", "perturbed-study")

# Generator seed of the acceptance suite the tier-1 tests certify.
PLANAR_SUITE_SEED = 20240814
PLANAR_PAIRS = 50
PLANAR_FACETS = (5, 9)  # randint bounds: 5 to 8 facets
PERTURB_DELTAS = (1e-2, 1e-3, 1e-4)
PERTURB_PLANAR_BASES = ("square", "triangle", "random-polygon-6-seed3",
                        "random-polygon-8-seed1")

# Pentagon counterexample to Viterbo's conjecture (Haim-Kislev & Ostrover
# 2024): the systolic ratio c^2 / (2 vol K vol T) of K x (K rotated by 90
# degrees) is (3 + sqrt 5) / 5.
PENTAGON_SYSTOLIC_RATIO = (3.0 + math.sqrt(5.0)) / 5.0


@dataclass(frozen=True)
class Operation:
    """One closed-loop operation: a capacity solve or an identity report.

    ``reference`` maps a value name (``"value"`` for a solve, a variant
    name for an identity report) to the expected number; ``source`` says
    where it came from (``"anchor"``, ``"pinned"`` or ``"none"``).
    """

    op_id: str
    kind: str  # "capacity" or "identities"
    table: object
    geometry: object
    reference: dict = field(default_factory=dict)
    source: str = "none"


def anchored(op_id: str, table, geometry, value: float) -> Operation:
    return Operation(op_id, "capacity", table, geometry, {"value": value},
                     "anchor")


def pinned_op(op_id: str, kind: str, table, geometry, pinned: dict):
    """An operation checked against its value in ``reference.json``, if
    it has one."""
    value = pinned.get(op_id)
    if value is None:
        return Operation(op_id, kind, table, geometry)
    ref = dict(value) if kind == "identities" else {"value": value}
    return Operation(op_id, kind, table, geometry, ref, "pinned")


def load_body(ez, name: str):
    """A corpus body from ``bodies/<name>.json`` through the package's JSON
    reader, as the CLI loads it."""
    text = (BODIES_DIR / f"{name}.json").read_text()
    return ez.jsonio.body_from_dict(ez.jsonio.loads(text))


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def polygon_area(body) -> float:
    """Area of a 2-D body by the shoelace formula over its angle-sorted
    vertices."""
    v = body.vertices - body.vertices.mean(axis=0)
    order = np.argsort(np.arctan2(v[:, 1], v[:, 0]))
    x, y = v[order, 0], v[order, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def regular_pentagon(ez, quarter_turns: int):
    angles = (np.pi / 2 + quarter_turns * np.pi / 2
              + 2 * np.pi * np.arange(5) / 5)
    return ez.geometry.ConvexPolytope.from_vertices(
        np.column_stack([np.cos(angles), np.sin(angles)]))


def centered_random_polygon(ez, k: int, seed: int):
    body = ez.bodies.random_polygon(k, seed)
    center, _ = ez.geometry.chebyshev_center(body)
    return ez.geometry.translate(body, -center)


def signed_permutation(rng: np.random.RandomState, n: int) -> np.ndarray:
    """A random n x n permutation matrix with random signs: an orthogonal
    map that is exact in floating point and keeps axis-aligned facets
    axis-aligned."""
    matrix = np.zeros((n, n))
    matrix[np.arange(n), rng.permutation(n)] = rng.choice((-1.0, 1.0), n)
    return matrix


def oriented(ez, op: Operation, matrix: np.ndarray) -> Operation:
    def image(body):
        return ez.geometry.ConvexPolytope.from_vertices(
            body.vertices @ matrix.T)

    return replace(op, table=image(op.table), geometry=image(op.geometry))


def planar_suite(ez, pinned: dict) -> list[Operation]:
    square = load_body(ez, "square")
    triangle = load_body(ez, "triangle")
    cross = load_body(ez, "cross-polytope")
    pentagon = regular_pentagon(ez, 0)
    turned = regular_pentagon(ez, 1)
    pentagon_value = math.sqrt(2.0 * polygon_area(pentagon)
                               * polygon_area(turned)
                               * PENTAGON_SYSTOLIC_RATIO)
    ops = [
        anchored("square x square", square, square, 4.0),
        anchored("triangle x square", triangle, square, 2.0),
        anchored("square x triangle", square, triangle, 2.0),
        anchored("square x cross-polytope", square, cross, 4.0),
        anchored("pentagon x rotated pentagon", pentagon, turned,
                 pentagon_value),
    ]
    suite = np.random.RandomState(PLANAR_SUITE_SEED)
    for i in range(PLANAR_PAIRS):
        k_table = int(suite.randint(*PLANAR_FACETS))
        k_geom = int(suite.randint(*PLANAR_FACETS))
        ops.append(pinned_op(
            f"pair-{i:02d} k{k_table}-k{k_geom}", "capacity",
            centered_random_polygon(ez, k_table, 1000 + i),
            centered_random_polygon(ez, k_geom, 2000 + i), pinned))
    return ops


def simplex_4d_vertices() -> np.ndarray:
    """Regular 4-simplex: e1..e4 and ((1 - sqrt 5)/4)(1,1,1,1), with its
    vertex centroid moved to the origin."""
    apex = (1.0 - math.sqrt(5.0)) / 4.0 * np.ones(4)
    pts = np.vstack([np.eye(4), apex])
    return pts - pts.mean(axis=0)


def tesseract_vertices() -> np.ndarray:
    return np.array([[sx, sy, sz, sw] for sx in (-1.0, 1.0)
                     for sy in (-1.0, 1.0) for sz in (-1.0, 1.0)
                     for sw in (-1.0, 1.0)])


def spatial_corpus(ez, pinned: dict) -> list[Operation]:
    """The 3-D pairs, tesseract x 4-simplex and 4-simplex x 4-simplex.

    ``BENCHMARK.json`` leaves this workload out.  Its 7 s operation fits
    only three times in a run, so its times spread 17-20% from run to run
    on a shared two-vCPU host, more than the benchmark's bounds allow.  Run
    it by hand for its layer counts, which repeat exactly.
    """
    bodies = {name: load_body(ez, name)
              for name in ("cube", "octahedron", "simplex-3d")}
    bodies["tesseract"] = ez.geometry.ConvexPolytope.from_vertices(
        tesseract_vertices())
    bodies["4-simplex"] = ez.geometry.ConvexPolytope.from_vertices(
        simplex_4d_vertices())
    anchors = {("cube", "cube"): 4.0, ("cube", "octahedron"): 4.0,
               ("octahedron", "cube"): 4.0}
    pairs = [(k, t) for k in ("cube", "octahedron", "simplex-3d")
             for t in ("cube", "octahedron", "simplex-3d")]
    pairs += [("tesseract", "4-simplex"), ("4-simplex", "4-simplex")]
    ops = []
    for k, t in pairs:
        op_id = f"{k} x {t}"
        if (k, t) in anchors:
            ops.append(anchored(op_id, bodies[k], bodies[t], anchors[(k, t)]))
        else:
            ops.append(pinned_op(op_id, "capacity", bodies[k], bodies[t],
                                 pinned))
    return ops


def perturbed_study(ez, pinned: dict) -> list[Operation]:
    """Two perturbation seeds per planar base and one for the cube."""
    square = load_body(ez, "square")
    octahedron = load_body(ez, "octahedron")
    cases = [(name, load_body(ez, name), square, "square", (0, 1))
             for name in PERTURB_PLANAR_BASES]
    cases.append(("cube", load_body(ez, "cube"), octahedron, "octahedron",
                  (0,)))
    ops = []
    for name, base, geometry, geometry_name, seeds in cases:
        for delta in PERTURB_DELTAS:
            for pseed in seeds:
                ops.append(pinned_op(
                    f"{name} delta={delta:g} seed={pseed} x {geometry_name}",
                    "identities", ez.bodies.perturbed_body(base, delta, pseed),
                    geometry, pinned))
    return ops


WORKLOAD_OPERATIONS = {
    "planar-suite": planar_suite,
    "spatial-corpus": spatial_corpus,
    "perturbed-study": perturbed_study,
}


def build_operations(ez, workload: str, seed: int, reference: dict):
    """The workload's operations; a nonzero seed maps both bodies of each
    planar operation by one seeded signed permutation of the coordinates."""
    ops = WORKLOAD_OPERATIONS[workload](ez, reference.get(workload, {}))
    if seed:
        rng = np.random.RandomState(seed)
        ops = [oriented(ez, op, signed_permutation(rng, 2))
               if op.table.dim == 2 else op for op in ops]
    return ops
