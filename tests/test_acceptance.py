"""Acceptance gate: one test and one reported PASS/FAIL line per criterion.

The random-instance batches are deterministic (fixed seeds) and shared
across the criteria that reuse them, so the suite measures the same
instances it certifies.
"""

import math
import time

import numpy as np
import pytest

from ehzcap.billiards import verify_strong, verify_weak
from ehzcap.bodies import named_body, perturbed_body, random_polygon
from ehzcap.capacity import (
    _centrally_symmetric,
    brute_force_oracle,
    capacity_identities,
    ehz_capacity,
)
from ehzcap.curves import discrete_action, minkowski_length
from ehzcap.errors import InvalidBodyError
from ehzcap.geometry import (
    ConvexPolytope,
    affine_image,
    chebyshev_center,
    negate,
    polar,
    support_function,
    translate,
)

CROSS_EQUALITY_TOL = 1e-6
VALUE_TOL = 1e-6
LENGTH_EQUALITY_TOL = 1e-8
ORACLE_RELATIVE_BOUND = 0.03
ORACLE_DOMINANCE_SLACK = 1e-8
SCALING_REL_TOL = 1e-8
MONOTONICITY_SLACK = 1e-8
LITERATURE_REL_TOL = 1e-9


def centered_random_polygon(k, seed):
    body = random_polygon(k, seed)
    center, _ = chebyshev_center(body)
    return translate(body, -center)


def regular_pentagon(quarter_turns):
    angles = (np.pi / 2 + quarter_turns * np.pi / 2
              + 2 * np.pi * np.arange(5) / 5)
    return ConvexPolytope.from_vertices(
        np.column_stack([np.cos(angles), np.sin(angles)]))


def polygon_area(body):
    """Shoelace area over the angle-sorted vertices."""
    v = body.vertices - body.vertices.mean(axis=0)
    v = v[np.argsort(np.arctan2(v[:, 1], v[:, 0]))]
    return 0.5 * abs(float(v[:, 0] @ np.roll(v[:, 1], -1)
                           - v[:, 1] @ np.roll(v[:, 0], -1)))


def random_symmetric_polygon(rng):
    """Hull of 2 to 5 random points and their negatives, centered at 0."""
    while True:
        half = rng.uniform(-2, 2, size=(int(rng.randint(2, 6)), 2))
        try:
            return ConvexPolytope.from_vertices(np.vstack([half, -half]))
        except InvalidBodyError:
            continue


def raw_length(body, points):
    deltas = np.roll(points, -1, axis=0) - points
    return float(sum(support_function(body, d)[0] for d in deltas))


def cross_equality_gap(result):
    q = result.quantities
    return abs(q.pinned_minimum - q.swapped_pinned_minimum)


def check_billiard_certificates(table, geometry, result):
    """Criterion 6 conditions for one solved instance; returns deviations."""
    assert result.billiard_curve is not None, "no realized billiard"
    q = result.billiard_curve
    p = result.dual_curve
    assert verify_strong(table, geometry, q, p).verified
    length_q = minkowski_length(geometry, q)
    assert abs(length_q - result.value) <= LENGTH_EQUALITY_TOL
    dual_gap = abs(length_q - raw_length(negate(table), p))
    action_gap = abs(discrete_action(q, p) - length_q)
    assert dual_gap <= LENGTH_EQUALITY_TOL
    assert action_gap <= LENGTH_EQUALITY_TOL
    return dual_gap, action_gap


@pytest.fixture(scope="session")
def random_pair_suite():
    """Fifty deterministic 2-D pairs with 5 to 8 facets, origin interior."""
    started = time.perf_counter()
    rng = np.random.RandomState(20240814)
    instances = []
    for i in range(50):
        k_table = int(rng.randint(5, 9))
        k_geom = int(rng.randint(5, 9))
        table = centered_random_polygon(k_table, seed=1000 + i)
        geometry = centered_random_polygon(k_geom, seed=2000 + i)
        instances.append((table, geometry, ehz_capacity(table, geometry)))
    elapsed = time.perf_counter() - started
    return instances, elapsed


def test_criterion_01_square_square(criterion):
    with criterion(1, "capacity(square, square) = 4 within 1e-6, under 1 s") as c:
        square = named_body("square")
        started = time.perf_counter()
        result = ehz_capacity(square, square)
        elapsed = time.perf_counter() - started
        assert abs(result.value - 4.0) <= VALUE_TOL
        assert elapsed < 1.0
        c.detail = f"value {result.value:.9f}, runtime {elapsed:.3f} s"


def test_criterion_02_triangle_square_symmetry(criterion):
    with criterion(2, "capacity(triangle, square) = capacity(square, "
                      "triangle) = 2 within 1e-6") as c:
        triangle = named_body("triangle")
        square = named_body("square")
        first = ehz_capacity(triangle, square).value
        second = ehz_capacity(square, triangle).value
        assert abs(first - 2.0) <= VALUE_TOL
        assert abs(second - 2.0) <= VALUE_TOL
        c.detail = f"values {first:.9f} and {second:.9f}"


def test_criterion_03_square_cross_polytope(criterion):
    with criterion(3, "capacity(square, cross-polytope) = 4 within 1e-6") as c:
        result = ehz_capacity(named_body("square"),
                              named_body("cross-polytope"))
        assert abs(result.value - 4.0) <= VALUE_TOL
        c.detail = f"value {result.value:.9f}"


def test_criterion_04_cube_cube(criterion):
    with criterion(4, "capacity(cube, cube) = 4 within 1e-6, under 30 s") as c:
        cube = named_body("cube")
        started = time.perf_counter()
        result = ehz_capacity(cube, cube)
        elapsed = time.perf_counter() - started
        assert abs(result.value - 4.0) <= VALUE_TOL
        assert elapsed < 30.0
        c.detail = f"value {result.value:.9f}, runtime {elapsed:.2f} s"


def test_criterion_05_cross_equality_suite(criterion, random_pair_suite):
    with criterion(5, "cross-equality on 50 random 2-D pairs, under 2 min") as c:
        instances, elapsed = random_pair_suite
        worst = 0.0
        for _, _, result in instances:
            gap = cross_equality_gap(result)
            bound = CROSS_EQUALITY_TOL * (1.0 + result.value)
            assert gap <= bound
            worst = max(worst, gap / bound)
        assert elapsed < 120.0
        c.detail = (f"50 instances, worst gap at {worst:.2e} of bound, "
                    f"runtime {elapsed:.1f} s")


def test_criterion_06_billiard_certification(criterion, random_pair_suite):
    with criterion(6, "realized billiards: strong verification and length "
                      "equalities within 1e-8 on all 50 instances") as c:
        instances, _ = random_pair_suite
        worst_dual = worst_action = 0.0
        for table, geometry, result in instances:
            dual_gap, action_gap = check_billiard_certificates(
                table, geometry, result)
            worst_dual = max(worst_dual, dual_gap)
            worst_action = max(worst_action, action_gap)
        c.detail = (f"worst dual-length gap {worst_dual:.2e}, "
                    f"worst action gap {worst_action:.2e}")


def test_criterion_07_strong_implies_weak(criterion, random_pair_suite):
    with criterion(7, "every verified strong pair also passes the weak "
                      "check") as c:
        instances, _ = random_pair_suite
        for table, geometry, result in instances:
            outcome = verify_weak(table, geometry, result.billiard_curve)
            assert outcome.verified
        c.detail = "50 of 50 weak verifications passed"


def test_criterion_08_negation_identities(criterion):
    with criterion(8, "five sign/order variants agree within 1e-6 relative "
                      "on 20 random pairs") as c:
        rng = np.random.RandomState(77)
        worst = 0.0
        for i in range(20):
            table = centered_random_polygon(int(rng.randint(5, 9)), 3000 + i)
            geometry = centered_random_polygon(int(rng.randint(5, 9)),
                                               3100 + i)
            report = capacity_identities(table, geometry)
            assert report.max_relative_deviation <= 1e-6
            worst = max(worst, report.max_relative_deviation)
        c.detail = f"worst relative deviation {worst:.2e}"


def test_criterion_09_oracle_agreement(criterion, random_pair_suite):
    with criterion(9, "grid oracle at step 0.05 dominates the solver value "
                      "and stays within 3% on 10 instances") as c:
        instances, _ = random_pair_suite
        worst = 0.0
        for table, geometry, result in instances[:10]:
            oracle = brute_force_oracle(table, geometry, 0.05)
            assert oracle >= result.value - ORACLE_DOMINANCE_SLACK
            rel = (oracle - result.value) / result.value
            assert rel <= ORACLE_RELATIVE_BOUND
            worst = max(worst, rel)
        c.detail = f"worst oracle excess {worst:.2%}"


def test_criterion_10_continuity_study(criterion):
    with criterion(10, "perturbation deviations shrink by at least 5x from "
                       "delta 1e-2 to 1e-3; perturbed runs keep criteria "
                       "5-7 tolerances") as c:
        square = named_body("square")
        ratios = []
        for base_name in ("square", "triangle"):
            base = named_body(base_name)
            reference = ehz_capacity(base, square).value
            deviations = {}
            for delta in (1e-2, 1e-3):
                perturbed = perturbed_body(base, delta, seed=5)
                result = ehz_capacity(perturbed, square)
                deviations[delta] = abs(result.value - reference)
                gap = cross_equality_gap(result)
                assert gap <= CROSS_EQUALITY_TOL * (1.0 + result.value)
                check_billiard_certificates(perturbed, square, result)
                assert verify_weak(perturbed, square,
                                   result.billiard_curve).verified
            assert deviations[1e-2] >= 5.0 * deviations[1e-3], (
                f"{base_name}: {deviations}")
            ratios.append(deviations[1e-2] / deviations[1e-3])
        c.detail = ("shrink factors " +
                    ", ".join(f"{r:.1f}" for r in ratios))


def test_criterion_11_scaling_and_monotonicity(criterion):
    with criterion(11, "scaling identity for lambda, mu in {0.5, 2} and "
                       "monotonicity under 0.9-shrinking") as c:
        square = named_body("square")
        pairs = [
            (square, square),
            (centered_random_polygon(6, 42), centered_random_polygon(7, 43)),
        ]
        worst_scaling = 0.0
        for table, geometry in pairs:
            base = ehz_capacity(table, geometry).value
            for lam in (0.5, 2.0):
                for mu in (0.5, 2.0):
                    scaled = ehz_capacity(affine_image(table, lam),
                                          affine_image(geometry, mu)).value
                    err = abs(scaled - lam * mu * base)
                    assert err <= SCALING_REL_TOL * lam * mu * base
                    worst_scaling = max(worst_scaling,
                                        err / (lam * mu * base))
            shrunk = ehz_capacity(affine_image(table, 0.9), geometry).value
            assert shrunk <= base + MONOTONICITY_SLACK
        c.detail = f"worst scaling error {worst_scaling:.2e} relative"


def test_criterion_12_pentagon_systolic_ratio(criterion):
    with criterion(12, "regular pentagon x its 90-degree rotation: systolic "
                       "ratio (3 + sqrt 5)/5 within 1e-9 relative "
                       "(Haim-Kislev & Ostrover 2024)") as c:
        pentagon, turned = regular_pentagon(0), regular_pentagon(1)
        # no reversal filter on either side
        assert not _centrally_symmetric(pentagon)
        assert not _centrally_symmetric(turned)
        result = ehz_capacity(pentagon, turned)
        assert result.quantities.consistent
        ratio = result.value ** 2 / (2.0 * polygon_area(pentagon)
                                     * polygon_area(turned))
        expected = (3.0 + math.sqrt(5.0)) / 5.0
        assert abs(ratio - expected) <= LITERATURE_REL_TOL * expected
        c.detail = f"ratio {ratio:.12f}, expected {expected:.12f}"


def test_criterion_13_symmetric_body_and_polar(criterion):
    with criterion(13, "c(K x K polar) = 4 within 1e-9 on 10 random "
                       "centrally symmetric polygons (Artstein-Avidan, "
                       "Karasev & Ostrover 2014)") as c:
        rng = np.random.RandomState(2014)
        worst = 0.0
        for _ in range(10):
            body = random_symmetric_polygon(rng)
            dual = polar(body)
            # both sides solve one orientation per facet cycle
            assert _centrally_symmetric(body) and _centrally_symmetric(dual)
            result = ehz_capacity(body, dual)
            assert result.quantities.consistent
            assert abs(result.value - 4.0) <= LITERATURE_REL_TOL * 4.0
            worst = max(worst, abs(result.value - 4.0))
        c.detail = f"10 polygons, worst |c - 4| {worst:.1e}"


def test_criterion_14_tesseract_and_cross_polytope(criterion):
    with criterion(14, "c(K x K polar) = 4 within 1e-9 for the tesseract "
                       "and the 16-cell, in both roles") as c:
        corners = [[a, b, d, e] for a in (-1, 1) for b in (-1, 1)
                   for d in (-1, 1) for e in (-1, 1)]
        tesseract = ConvexPolytope.from_vertices(corners)
        cell16 = ConvexPolytope.from_vertices(np.vstack([np.eye(4),
                                                         -np.eye(4)]))
        values = []
        for table, geometry in ((tesseract, cell16), (cell16, tesseract)):
            result = ehz_capacity(table, geometry)
            assert result.quantities.consistent
            assert result.realized
            assert abs(result.value - 4.0) <= LITERATURE_REL_TOL * 4.0
            values.append(result.value)
        c.detail = "values " + ", ".join(f"{v:.12f}" for v in values)
