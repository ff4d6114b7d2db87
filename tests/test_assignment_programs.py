"""Assignment programs that share their standard form per size.

Each side builds the cost, the epigraph and table rows, their standard form
and the phase-1 start tableau once per program size, and each program adds
its facet rows.  These tests run the sides against a reference copy of the
path that built and converted every program on its own, and require the
same values, tie sets and curve bytes, and the same error messages.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ehzcap.capacity
from ehzcap import lp
from ehzcap.bodies import named_body, perturbed_body, random_polygon
from ehzcap.capacity import (
    AssignmentSolution,
    _AssignmentPrograms,
    _solve_side,
    enumerate_assignments,
)
from ehzcap.errors import LpNumericalError
from ehzcap.geometry import negate, translate
from ehzcap.lp import make_lp, solve_lp


# -- reference: every program built, converted and started on its own ----------


def _reference_standard_form(lp_):
    """The conversion to standard form, all rows at once; every variable
    is free and splits over two adjacent columns."""
    free = [(k, 2 * k) for k in range(lp_.num_vars)]
    nz = 2 * lp_.num_vars
    n_ub = lp_.a_ub.shape[0]

    def encode(a_rows):
        out = np.zeros(a_rows.shape[:-1] + (nz,))
        for k, c in free:
            out[..., c] = a_rows[..., k]
            out[..., c + 1] = -a_rows[..., k]
        return out

    def x_from_z(z):
        x = np.zeros(lp_.num_vars)
        for k, c in free:
            x[k] = z[c] - z[c + 1]
        return x

    m = n_ub + lp_.a_eq.shape[0]
    ncols = nz + n_ub
    amat = np.zeros((m, ncols))
    amat[:n_ub, :nz] = encode(lp_.a_ub)
    amat[:n_ub, nz:] = np.eye(n_ub)
    amat[n_ub:, :nz] = encode(lp_.a_eq)
    bvec = np.concatenate([lp_.b_ub, lp_.b_eq])
    row_sign = np.ones(m)
    neg = bvec < 0
    if neg.any():
        amat[neg] *= -1.0
        bvec[neg] *= -1.0
        row_sign[neg] = -1.0
    return SimpleNamespace(nz=nz, n_ub=n_ub, amat=amat, bvec=bvec,
                           row_sign=row_sign, x_from_z=x_from_z,
                           cost=np.concatenate([encode(lp_.c), np.zeros(n_ub)]),
                           row_kept=np.ones(m, dtype=bool))


def _reference_start(sf):
    """The phase-1 start tableau and basis, every row priced in place."""
    m, ncols = sf.amat.shape
    has_slack = np.zeros(m, dtype=bool)
    has_slack[: sf.n_ub] = sf.row_sign[: sf.n_ub] > 0
    need_art = np.flatnonzero(~has_slack)
    n_art = need_art.size
    basis = sf.nz + np.arange(m)
    basis[need_art] = ncols + np.arange(n_art)
    tab = np.zeros((m + 1, ncols + n_art + 1))
    tab[:m, :ncols] = sf.amat
    tab[:m, -1] = sf.bvec
    tab[need_art, ncols:-1] = np.eye(n_art)
    if n_art:
        tab[-1, ncols:-1] = 1.0
        for r in need_art:
            tab[-1] -= tab[r]
    return tab, basis, n_art


def _reference_solve_lp(lp_):
    """``solve_lp`` with the reference conversion and start; the simplex
    loop, the drive-outs, phase 2, the terminal re-solve and the validator
    as they are."""
    sf = _reference_standard_form(lp_)
    amat, bvec = sf.amat, sf.bvec
    m, ncols = amat.shape
    iterations = [0]
    if m == 0:
        if np.any(sf.cost < -lp.PIVOT_TOL):
            return lp.LpSolution(status="unbounded", iterations=0)
        return lp._finish(lp_, sf, sf.row_sign, np.zeros(ncols), np.zeros(0),
                          0)
    tab, basis, n_art = _reference_start(sf)
    art_scale = 1.0 + float(np.max(bvec))
    if n_art:
        status, _ = lp._run_simplex(tab, basis, iterations)
        if status != "optimal":
            raise LpNumericalError("phase 1 reported unbounded")
        if -tab[-1, -1] > lp.INFEASIBILITY_TOL * art_scale:
            return lp.LpSolution(status="infeasible", iterations=iterations[0])
        drop_rows = []
        for r in np.flatnonzero(basis >= ncols):
            mags = abs(tab[r, :ncols])
            scale = max(1.0, float(mags.max()))
            nz = (mags > lp.DRIVE_OUT_TOL * scale).nonzero()[0]
            if nz.size:
                col = int(nz[mags[nz].argmax()])
                lp._pivot(tab, r, col)
                basis[r] = col
                iterations[0] += 1
            else:
                drop_rows.append(r)
        if drop_rows:
            keep = np.setdiff1d(np.arange(m), drop_rows)
            sf.row_kept = np.isin(np.arange(m), keep)
            tab = np.vstack([tab[keep], tab[-1:]])
            basis = basis[keep]
    tab = np.hstack([tab[:, :ncols], tab[:, -1:]])
    tab[-1, :-1] = sf.cost
    tab[-1, -1] = 0.0
    for r in np.flatnonzero(sf.cost[basis]):
        tab[-1] -= tab[-1, basis[r]] * tab[r]
    status, _ = lp._run_simplex(tab, basis, iterations)
    if status == "unbounded":
        return lp.LpSolution(status="unbounded", iterations=iterations[0])
    kept = np.flatnonzero(sf.row_kept)
    bmat = amat[kept][:, basis]
    try:
        xb = np.linalg.solve(bmat, bvec[kept])
        y_kept = np.linalg.solve(bmat.T, sf.cost[basis])
    except np.linalg.LinAlgError as exc:
        raise LpNumericalError(f"terminal basis is singular: {exc}") from exc
    z = np.zeros(ncols)
    z[basis] = xb
    y = np.zeros(m)
    y[kept] = y_kept
    return lp._finish(lp_, sf, sf.row_sign, z, y, iterations[0])


def _reference_solve_assignment(table, length_body, assignment, **_):
    """``solve_assignment`` building every row of its program itself."""
    idx = assignment.indices
    m, n = len(idx), table.dim
    w = length_body.vertices
    v = w.shape[0]
    nvars = m * n + m
    cost = np.zeros(nvars)
    cost[m * n:] = 1.0
    ub_rows, ub_rhs = [], []
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
    eq_rows = np.zeros((m, nvars))
    eq_rhs = np.zeros(m)
    for j, i in enumerate(idx):
        eq_rows[j, j * n:(j + 1) * n] = table.normals[i]
        eq_rhs[j] = table.offsets[i]
    try:
        sol = _reference_solve_lp(make_lp(
            cost, a_ub=np.vstack(ub_rows), b_ub=np.concatenate(ub_rhs),
            a_eq=eq_rows, b_eq=eq_rhs))
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


def _side(table, geometry):
    """The side's (value, tied indices, points bytes, momenta bytes), or
    the message of the LpNumericalError it raised."""
    try:
        side = _solve_side(table, geometry)
    except LpNumericalError as exc:
        return str(exc)
    return (side.value, [s.assignment.indices for s in side.tied],
            [s.points.tobytes() for s in side.tied],
            [s.momenta.tobytes() for s in side.tied])


def _assert_same_side(table, geometry):
    got = _side(table, geometry)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ehzcap.capacity, "solve_assignment",
                   _reference_solve_assignment)
        expected = _side(table, geometry)
    assert got == expected
    return got


# -- sides -------------------------------------------------------------------------


@st.composite
def polygon_sides(draw):
    table = random_polygon(draw(st.integers(3, 8)), draw(st.integers(0, 9999)))
    geometry = random_polygon(draw(st.integers(3, 8)),
                              draw(st.integers(0, 9999)))
    shift = draw(st.sampled_from([(0.0, 0.0), (0.7, -0.4), (3.0, 1.0)]))
    return translate(table, shift), geometry


@given(polygon_sides())
@settings(max_examples=40, deadline=None)
def test_polygon_sides_match_the_per_program_path(side):
    _assert_same_side(*side)


@pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-4])
def test_identity_sides_match_the_per_program_path(delta):
    # The five sides of the perturbed cube's identity report, which fail
    # at delta 1e-2 and 1e-3 on some sides and solve on others.
    cube = perturbed_body(named_body("cube"), delta, seed=0)
    octahedron = named_body("octahedron")
    outcomes = [_assert_same_side(t, g) for t, g in [
        (cube, octahedron), (octahedron, cube), (negate(cube), octahedron),
        (cube, negate(octahedron)), (negate(cube), negate(octahedron))]]
    if delta == 1e-2:
        assert any(isinstance(o, str) for o in outcomes)
        assert any(not isinstance(o, str) for o in outcomes)


def test_programs_of_one_size_share_their_form():
    table, length_body = named_body("octahedron"), named_body("cube")
    programs = _AssignmentPrograms(table, length_body)
    by_size = {}
    for a in enumerate_assignments(table):
        program = programs.program(a.indices)
        first = by_size.setdefault(a.size, program)
        assert program.shared is first.shared
        assert program.a_ub is first.a_ub
        assert not program.a_ub.flags.writeable
    assert sorted(by_size) == [2, 4]


# -- generic families ----------------------------------------------------------------


@pytest.mark.parametrize("seed", range(20))
def test_family_programs_match_programs_built_alone(seed):
    # Sign rows -x_k <= 0 on some variables, and rhs of both signs, so
    # inequality and equality rows are negated and phase 1 prices both kinds.
    rng = np.random.default_rng(900 + seed)
    n = int(rng.integers(2, 7))
    m_ub, m_eq = int(rng.integers(0, 8)), int(rng.integers(0, 4))
    x0 = rng.normal(size=n)
    nonneg = rng.random(n) < 0.4
    x0[nonneg] = abs(x0[nonneg])
    a_ub = rng.normal(size=(m_ub, n))
    b_ub = a_ub @ x0 + rng.uniform(0.0, 1.0, size=m_ub)
    signs = -np.eye(n)[nonneg]
    box = np.vstack([np.eye(n), -np.eye(n)])  # keeps the programs bounded
    a_ub = np.vstack([a_ub, signs, box])
    b_ub = np.concatenate([b_ub, np.zeros(len(signs)), np.full(2 * n, 9.0)])
    c = rng.normal(size=n)
    family = lp._SharedForm(make_lp(c, a_ub=a_ub, b_ub=b_ub), m_eq)
    for _ in range(3):
        a_eq = rng.normal(size=(m_eq, n))
        b_eq = a_eq @ x0
        alone = make_lp(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
        shared = family.program(a_eq, b_eq)
        amat, bvec, row_sign, tab, basis = family.standard(shared.a_eq,
                                                           shared.b_eq)
        ref = _reference_standard_form(alone)
        assert amat.tobytes() == ref.amat.tobytes()
        assert bvec.tobytes() == ref.bvec.tobytes()
        assert row_sign.tobytes() == ref.row_sign.tobytes()
        ref_tab, ref_basis, _ = _reference_start(ref)
        assert tab.tobytes() == ref_tab.tobytes()
        assert np.array_equal(basis, ref_basis)
        got, want = solve_lp(shared), _reference_solve_lp(alone)
        assert (got.status, got.iterations) == (want.status, want.iterations)
        if want.status == "optimal":
            for name in ("x", "ineq_duals", "eq_duals"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
            assert got.active_ub == want.active_ub


def test_family_checks_its_equality_rows():
    family = lp._SharedForm(make_lp([1.0, 1.0], a_ub=[[1.0, 0.0]], b_ub=[1.0]),
                            1)
    with pytest.raises(ValueError, match="2 equality rows given to a family "
                       "with 1"):
        family.program(np.zeros((2, 2)), np.zeros(2))
    with pytest.raises(ValueError, match="non-finite"):
        family.program([[np.inf, 0.0]], [1.0])
    with pytest.raises(ValueError, match="does not match"):
        family.program([[1.0, 0.0, 0.0]], [1.0])
