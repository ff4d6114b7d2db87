import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ehzcap.bodies
import ehzcap.geometry
from ehzcap.bodies import (
    BodySpec,
    generate_body,
    named_body,
    named_body_names,
    perturbed_body,
    random_polygon,
)
from ehzcap.errors import InvalidBodyError
from ehzcap.geometry import hausdorff_distance


class TestNamedCorpus:
    def test_all_names_build(self):
        for name in named_body_names():
            body = named_body(name)
            assert body.num_facets >= body.dim + 1

    def test_square_vertices(self):
        square = named_body("square")
        got = set(map(tuple, square.vertices))
        assert got == {(1, 1), (1, -1), (-1, 1), (-1, -1)}

    def test_cross_polytope_vertices(self):
        cross = named_body("cross-polytope")
        got = set(map(tuple, cross.vertices))
        assert got == {(1, 0), (-1, 0), (0, 1), (0, -1)}

    def test_triangle_vertices(self):
        tri = named_body("triangle")
        got = set(map(tuple, tri.vertices))
        assert got == {(0, 0), (1, 0), (0, 1)}

    def test_cube_counts(self):
        cube = named_body("cube")
        assert cube.dim == 3
        assert len(cube.vertices) == 8
        assert cube.num_facets == 6

    def test_octahedron_counts(self):
        octa = named_body("octahedron")
        assert len(octa.vertices) == 6
        assert octa.num_facets == 8

    def test_simplex_3d_counts(self):
        simplex = named_body("simplex-3d")
        assert len(simplex.vertices) == 4
        assert simplex.num_facets == 4

    def test_unknown_name(self):
        with pytest.raises(InvalidBodyError, match="unknown body name"):
            named_body("dodecahedron")


class TestRandomPolygon:
    def test_exact_vertex_count(self):
        for k in (3, 5, 8):
            body = random_polygon(k, seed=11)
            assert len(body.vertices) == k

    def test_deterministic(self):
        a = random_polygon(6, seed=3)
        b = random_polygon(6, seed=3)
        assert a.vertices.tobytes() == b.vertices.tobytes()
        assert a.normals.tobytes() == b.normals.tobytes()

    def test_seed_changes_output(self):
        a = random_polygon(6, seed=3)
        b = random_polygon(6, seed=4)
        assert a.vertices.shape != b.vertices.shape or not np.allclose(
            a.vertices, b.vertices)

    def test_too_few_vertices(self):
        with pytest.raises(InvalidBodyError, match="at least three"):
            random_polygon(2, seed=0)


class TestPerturbedBody:
    def test_zero_delta_is_identity(self):
        square = named_body("square")
        assert perturbed_body(square, 0.0, seed=7) is square

    def test_hausdorff_bound(self):
        square = named_body("square")
        out = perturbed_body(square, 0.01, seed=7)
        assert hausdorff_distance(out, square) <= 0.01 * (1.0 + square.diameter)
        assert hausdorff_distance(out, square) <= 0.03

    def test_bound_across_bases_and_seeds(self):
        for name in ("triangle", "cross-polytope", "cube"):
            base = named_body(name)
            for seed in range(5):
                out = perturbed_body(base, 0.05, seed=seed)
                bound = 0.05 * (1.0 + base.diameter)
                assert hausdorff_distance(out, base) <= bound

    @given(st.sampled_from(("square", "triangle", "cube", "octahedron",
                            "polygon")),
           st.floats(1e-6, 0.1), st.integers(0, 50), st.integers(3, 9))
    @settings(max_examples=60, deadline=None)
    def test_bound_holds_by_construction(self, name, delta, seed, k):
        base = (random_polygon(k, seed) if name == "polygon"
                else named_body(name))
        out = perturbed_body(base, delta, seed)
        assert hausdorff_distance(out, base) <= delta * (1.0 + base.diameter)

    def test_builds_that_keep_every_vertex_skip_the_distance(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("Hausdorff distance computed")

        monkeypatch.setattr(ehzcap.bodies, "hausdorff_distance", refuse)
        monkeypatch.setattr(ehzcap.geometry, "hausdorff_distance", refuse)
        for name in ("square", "triangle", "cube", "octahedron"):
            for delta in (1e-2, 1e-4, 1e-6):
                out = perturbed_body(named_body(name), delta, seed=3)
                assert len(out.vertices) == len(named_body(name).vertices)

    def test_a_build_that_loses_a_corner_is_rejected(self):
        # At delta 1e-8 the hull of a perturbed cube can merge the slightly
        # tilted facets through a corner into one, and drop the corner; such
        # a body lies about 1.15 from the cube.  Every draw of seed 1 either
        # degenerates or loses a corner.
        with pytest.raises(InvalidBodyError, match="kept degenerating"):
            perturbed_body(named_body("cube"), 1e-8, seed=1)

    def test_deterministic(self):
        cube = named_body("cube")
        a = perturbed_body(cube, 0.02, seed=5)
        b = perturbed_body(cube, 0.02, seed=5)
        assert a.vertices.tobytes() == b.vertices.tobytes()

    def test_negative_delta(self):
        with pytest.raises(InvalidBodyError, match="nonnegative"):
            perturbed_body(named_body("square"), -0.1)


class TestGenerateBody:
    def test_named(self):
        spec = generate_body("named", name="triangle")
        assert spec.name == "triangle"
        assert spec.provenance == {"kind": "literal"}
        assert np.allclose(spec.polytope.vertices,
                           named_body("triangle").vertices)

    def test_random_polygon(self):
        spec = generate_body("random-polygon", k=5, seed=2)
        assert len(spec.polytope.vertices) == 5
        assert spec.provenance["seed"] == 2
        assert spec.provenance["family"] == "random-polygon"

    def test_perturbed(self):
        square = named_body("square")
        spec = generate_body("perturbed", base=square, delta=0.01, seed=1)
        assert spec.provenance["delta"] == 0.01
        assert hausdorff_distance(spec.polytope, square) <= 0.03

    def test_missing_arguments(self):
        with pytest.raises(InvalidBodyError):
            generate_body("named")
        with pytest.raises(InvalidBodyError):
            generate_body("random-polygon")
        with pytest.raises(InvalidBodyError):
            generate_body("perturbed", base=named_body("square"))
        with pytest.raises(InvalidBodyError):
            generate_body("cursed")

    def test_spec_is_frozen(self):
        spec = BodySpec(name="square", polytope=named_body("square"))
        with pytest.raises(AttributeError):
            spec.name = "other"
