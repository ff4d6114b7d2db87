"""LP core: frozen pivot examples, duals, infeasibility, determinism."""

import numpy as np
import pytest
import scipy.optimize

from ehzcap import lp
from ehzcap.bodies import named_body, perturbed_body, random_polygon
from ehzcap.capacity import enumerate_assignments, solve_assignment
from ehzcap.errors import LpNumericalError
from ehzcap.geometry import GEOM_TOL, chebyshev_center, translate
from ehzcap.lp import make_lp, solve_lp


def highs_normal_cone_contains(body, point, vector, tol, facet_tol=GEOM_TOL):
    """Whether ``vector`` is a nonnegative combination of the normals of
    ``body`` active at ``point`` (within ``facet_tol``), up to the residual
    ``tol * (1 + |vector|)``.  The residual is the least l1 misfit, found by
    HiGHS, so this reference does not depend on the package's simplex."""
    v = np.asarray(vector, dtype=float)
    g = body.normals[list(body.active_facets(point, facet_tol))]
    bound = tol * (1.0 + float(np.linalg.norm(v)))
    if g.size == 0:
        return float(np.sum(np.abs(v))) <= bound
    k, n = g.shape
    # minimize sum(e+ + e-) s.t. g.T lam + e+ - e- = v, lam, e >= 0
    c = np.concatenate([np.zeros(k), np.ones(2 * n)])
    a_eq = np.hstack([g.T, np.eye(n), -np.eye(n)])
    ref = scipy.optimize.linprog(c, A_eq=a_eq, b_eq=v, bounds=(0, None),
                                 method="highs")
    assert ref.status == 0
    return ref.fun <= bound


def test_bounded_single_variable_with_dual():
    # minimize -x s.t. x <= 1, x >= 0  ->  x = 1, objective -1, dual 1 binding.
    lp = make_lp([-1.0], a_ub=[[1.0], [-1.0]], b_ub=[1.0, 0.0])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(1.0, abs=1e-12)
    assert sol.objective == pytest.approx(-1.0, abs=1e-12)
    assert sol.ineq_duals[0] == pytest.approx(1.0, abs=1e-10)
    assert sol.active_ub == (0,)


def test_infeasible_with_farkas_certificate():
    # x <= 0 and -x <= -1 cannot both hold.
    lp = make_lp([1.0], a_ub=[[1.0], [-1.0]], b_ub=[0.0, -1.0])
    sol = solve_lp(lp)
    assert sol.status == "infeasible"


def test_unbounded():
    lp = make_lp([-1.0], a_ub=[[-1.0]], b_ub=[0.0])
    assert solve_lp(lp).status == "unbounded"


def test_degenerate_tie_break_is_blands():
    # minimize 0 s.t. x1 + x2 = 1, x >= 0: Bland returns the basic solution (1, 0).
    lp = make_lp([0.0, 0.0], a_ub=-np.eye(2), b_ub=[0.0, 0.0],
                 a_eq=[[1.0, 1.0]], b_eq=[1.0])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x, [1.0, 0.0], atol=1e-12)


def test_bitwise_determinism():
    rng = np.random.default_rng(7)
    c = rng.normal(size=6)
    a_ub = rng.normal(size=(9, 6))
    b_ub = a_ub @ rng.normal(size=6) + rng.uniform(0.1, 1.0, size=9)
    # The box -20 <= x <= 20 keeps the program bounded.
    box = np.vstack([np.eye(6), -np.eye(6)])
    lp = make_lp(c, a_ub=np.vstack([a_ub, box]),
                 b_ub=np.concatenate([b_ub, np.full(12, 20.0)]))
    s1, s2 = solve_lp(lp), solve_lp(lp)
    assert s1.status == "optimal"
    assert s1.x.tobytes() == s2.x.tobytes()
    assert s1.ineq_duals.tobytes() == s2.ineq_duals.tobytes()
    assert s1.objective == s2.objective
    assert s1.iterations == s2.iterations


def test_equalities_and_two_sided_bounds():
    # minimize x + 2y s.t. x + y = 1, x <= 0.4, x >= 0, y free.
    lp = make_lp([1.0, 2.0], a_ub=[[1.0, 0.0], [-1.0, 0.0]], b_ub=[0.4, 0.0],
                 a_eq=[[1.0, 1.0]], b_eq=[1.0])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x, [0.4, 0.6], atol=1e-10)
    assert sol.objective == pytest.approx(1.6, abs=1e-10)
    # Stationarity on the free variable pins the equality dual to -2.
    assert sol.eq_duals[0] == pytest.approx(-2.0, abs=1e-9)


def _random_feasible_lp(rng, n, m_ub, m_eq):
    x0 = rng.normal(size=n)
    a_ub = rng.normal(size=(m_ub, n))
    b_ub = a_ub @ x0 + rng.uniform(0.0, 1.0, size=m_ub)
    a_eq = rng.normal(size=(m_eq, n)) if m_eq else None
    b_eq = a_eq @ x0 if m_eq else None
    c = rng.normal(size=n)
    return make_lp(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)


@pytest.mark.parametrize("seed", range(30))
def test_random_lps_match_scipy(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    m_eq = int(rng.integers(0, min(3, n)))
    lp = _random_feasible_lp(rng, n, m_ub=int(rng.integers(3, 12)), m_eq=m_eq)
    sol = solve_lp(lp)
    ref = scipy.optimize.linprog(
        lp.c, A_ub=lp.a_ub, b_ub=lp.b_ub,
        A_eq=lp.a_eq if lp.a_eq.size else None,
        b_eq=lp.b_eq if lp.b_eq.size else None,
        bounds=[(None, None)] * n, method="highs")
    if sol.status == "optimal":
        assert ref.status == 0
        assert sol.objective == pytest.approx(ref.fun, abs=1e-7, rel=1e-7)
        # KKT residuals were already certified inside solve_lp; spot-check one.
        g = lp.c + lp.a_ub.T @ sol.ineq_duals + (
            lp.a_eq.T @ sol.eq_duals if lp.a_eq.size else 0.0)
        assert np.max(np.abs(g)) <= 1e-7
    elif sol.status == "unbounded":
        assert ref.status == 3
    else:
        assert ref.status == 2


@pytest.mark.parametrize("seed", range(10))
def test_random_infeasible_certificates(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(2, 5))
    a = rng.normal(size=(4, n))
    # a x <= b and -(a x) <= -(b + 1) together are infeasible.
    a_ub = np.vstack([a, -a])
    b = rng.normal(size=4)
    b_ub = np.concatenate([b, -(b + 1.0)])
    sol = solve_lp(make_lp(np.zeros(n), a_ub=a_ub, b_ub=b_ub))
    assert sol.status == "infeasible"


def test_shape_validation():
    with pytest.raises(ValueError):
        make_lp([1.0, 2.0], a_ub=[[1.0]], b_ub=[1.0])
    with pytest.raises(ValueError):
        make_lp([np.nan])
    with pytest.raises(ValueError):
        make_lp([1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0, 0.0])


def test_drive_out_pivots_are_counted():
    # minimize x s.t. x + y = 0, -x - y = 0, x, y >= 0.  The two equality
    # rows cancel in the phase-1 cost row, so phase 1 prices once and stops
    # with both artificials basic at level zero.  One pivot on x drives the
    # first out, which leaves the second row zero, so it is dropped.  Phase 2
    # pivots once and prices once.
    sol = solve_lp(make_lp([1.0, 0.0], a_ub=-np.eye(2), b_ub=[0.0, 0.0],
                           a_eq=[[1.0, 1.0], [-1.0, -1.0]], b_eq=[0.0, 0.0]))
    assert sol.status == "optimal"
    assert sol.iterations == 1 + 1 + 2


# The simplex loop as it was before it was rewritten for fewer NumPy calls
# per pivot.  The rewrite must take the same pivots and leave the same bits.

def _reference_pivot(tab, row, col):
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= np.outer(factors, tab[row])


def _reference_run_simplex(tab, basis, iterations):
    stall = 0
    last_value = tab[-1, -1]
    while True:
        iterations[0] += 1
        if iterations[0] > lp.MAX_PIVOTS:
            raise LpNumericalError("pivot limit exceeded")
        red = tab[-1, :-1]
        candidates = np.flatnonzero(red < -lp.PIVOT_TOL)
        if candidates.size == 0:
            return "optimal", -1
        enter = int(candidates[0])
        col = tab[:-1, enter]
        threshold = lp.PIVOT_TOL * max(1.0, float(np.abs(col).max()))
        rows = np.flatnonzero(col > threshold)
        if rows.size == 0:
            return "unbounded", enter
        ratios = np.maximum(tab[rows, -1], 0.0) / col[rows]
        rmin = ratios.min()
        tie = rows[ratios <= rmin + 1e-9 * (1.0 + abs(rmin))]
        if stall > lp.STALL_LIMIT:
            leave = int(tie[np.argmin(basis[tie])])
        else:
            leave = int(tie[np.argmax(col[tie])])
        _reference_pivot(tab, leave, enter)
        basis[leave] = enter
        value = tab[-1, -1]
        if abs(value - last_value) > 1e-12 * (1.0 + abs(value)):
            stall = 0
        else:
            stall += 1
        last_value = value


@pytest.fixture(scope="module")
def recorded_tableaux():
    """Every tableau that enters the simplex loop while solving assignment
    programs: square x triangle, the first pair of the 2-D acceptance suite,
    and the perturbed cube assignment whose phase 1 reports unbounded."""
    def centered(body):
        return translate(body, -chebyshev_center(body)[0])

    rng = np.random.RandomState(20240814)
    k_table, k_geom = int(rng.randint(5, 9)), int(rng.randint(5, 9))
    pairs = [(named_body("square"), centered(named_body("triangle"))),
             (centered(random_polygon(k_table, 1000)),
              centered(random_polygon(k_geom, 2000)))]
    tableaux = []
    run_simplex = lp._run_simplex

    def recording(tab, basis, iterations):
        tableaux.append((tab.copy(), basis.copy()))
        return run_simplex(tab, basis, iterations)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "_run_simplex", recording)
        for table, geometry in pairs:
            for assignment in enumerate_assignments(table):
                solve_assignment(table, geometry, assignment)
        cube = perturbed_body(named_body("cube"), 1e-2, seed=0)
        assignment, = [a for a in enumerate_assignments(cube)
                       if a.indices == (0, 7, 3, 9)]
        with pytest.raises(LpNumericalError,
                           match="phase 1 reported unbounded"):
            solve_assignment(cube, named_body("octahedron"), assignment)
    return tableaux


def _outcome(run, tab, basis):
    iterations = [0]
    try:
        result = run(tab, basis, iterations)
    except LpNumericalError as exc:
        result = str(exc)
    return result, iterations[0]


@pytest.mark.parametrize("stall_limit", [lp.STALL_LIMIT, 0])
def test_kernel_is_bit_identical_to_reference(recorded_tableaux, stall_limit,
                                              monkeypatch):
    # STALL_LIMIT = 0 sends every degenerate stretch through strict Bland.
    monkeypatch.setattr(lp, "STALL_LIMIT", stall_limit)
    for tab, basis in recorded_tableaux:
        ref_tab, ref_basis = tab.copy(), basis.copy()
        new_tab, new_basis = tab.copy(), basis.copy()
        expected = _outcome(_reference_run_simplex, ref_tab, ref_basis)
        assert _outcome(lp._run_simplex, new_tab, new_basis) == expected
        assert np.array_equal(new_basis, ref_basis)
        assert new_tab.tobytes() == ref_tab.tobytes()


# The standard-form conversion and the KKT validator as they were before
# their per-variable loops became slice assignments.  Every variable is
# free.  The rewrite must build the same tableau data, map back the same x
# and raise the same messages.

def _reference_standard_form(lp_):
    n = lp_.num_vars
    col = 2 * n

    def encode(a_rows):
        out = np.zeros((a_rows.shape[0], col))
        for k in range(n):
            out[:, 2 * k] = a_rows[:, k]
            out[:, 2 * k + 1] = -a_rows[:, k]
        return out

    def x_from_z(z):
        x = np.zeros(n)
        for k in range(n):
            x[k] = z[2 * k] - z[2 * k + 1]
        return x

    rhs = np.concatenate([lp_.b_ub, lp_.b_eq])
    return (np.vstack([encode(lp_.a_ub), encode(lp_.a_eq)]), rhs,
            encode(lp_.c[None, :])[0], x_from_z)


def _reference_validate(lp_, x, mu, nu):
    scale_b = 1.0 + max(
        float(np.max(np.abs(lp_.b_ub))) if lp_.b_ub.size else 0.0,
        float(np.max(np.abs(lp_.b_eq))) if lp_.b_eq.size else 0.0)
    slack_ub = lp_.b_ub - lp_.a_ub @ x if lp_.a_ub.shape[0] else np.zeros(0)
    res_eq = lp_.a_eq @ x - lp_.b_eq if lp_.a_eq.shape[0] else np.zeros(0)
    tol = lp.FEASIBILITY_TOL
    ctol = lp.COMPLEMENTARITY_TOL
    problems = []
    if slack_ub.size and float(np.min(slack_ub)) < -tol * scale_b:
        problems.append(f"primal ub residual {-float(np.min(slack_ub)):.2e}")
    if res_eq.size and float(np.max(np.abs(res_eq))) > tol * scale_b:
        problems.append(f"primal eq residual {float(np.max(np.abs(res_eq))):.2e}")
    if mu.size and float(np.min(mu)) < -ctol:
        problems.append(f"negative inequality dual {float(np.min(mu)):.2e}")
    g = lp_.c.copy()
    if mu.size:
        g += lp_.a_ub.T @ mu
    if nu.size:
        g += lp_.a_eq.T @ nu
    scale_c = 1.0 + float(np.max(np.abs(lp_.c))) if lp_.c.size else 1.0
    for k in range(lp_.num_vars):
        gk = g[k]
        if not abs(gk) <= ctol * scale_c:
            problems.append(f"stationarity residual {gk:.2e} on variable {k}")
    if mu.size:
        cs = float(np.max(np.abs(mu * slack_ub)))
        if cs > ctol * scale_b * (1 + float(np.max(mu))):
            problems.append(f"complementary slackness residual {cs:.2e}")
    primal = float(lp_.c @ x)
    dual = -(float(lp_.b_ub @ mu) if mu.size else 0.0) - (
        float(lp_.b_eq @ nu) if nu.size else 0.0)
    if abs(primal - dual) > lp.DUALITY_GAP_TOL * (1.0 + abs(primal)):
        problems.append(f"duality gap {abs(primal - dual):.2e}")
    return "; ".join(problems)


@pytest.mark.parametrize("seed", range(20))
def test_standard_form_and_validate_match_reference(seed):
    rng = np.random.default_rng(500 + seed)
    n = int(rng.integers(1, 7))
    m_ub, m_eq = int(rng.integers(0, 6)), int(rng.integers(0, 3))
    lp_ = make_lp(rng.normal(size=n),
                  a_ub=rng.normal(size=(m_ub, n)) if m_ub else None,
                  b_ub=rng.normal(size=m_ub) if m_ub else None,
                  a_eq=rng.normal(size=(m_eq, n)) if m_eq else None,
                  b_eq=rng.normal(size=m_eq) if m_eq else None)
    form = lp._SharedForm(lp_, m_eq)
    got_amat, got_rhs, _, _, _ = form.standard(lp_.a_eq, lp_.b_eq)
    amat, rhs, c_z, x_from_z = _reference_standard_form(lp_)
    flip = np.where(rhs < 0, -1.0, 1.0)
    assert (got_amat[:, :form.nz] * flip[:, None]).tobytes() == amat.tobytes()
    assert (got_rhs * flip).tobytes() == rhs.tobytes()
    assert form.c_z.tobytes() == c_z.tobytes()
    z = rng.uniform(0.0, 2.0, size=form.ncols)
    x = form.x_from_z(z)
    assert x.tobytes() == x_from_z(z).tobytes()
    # Random multipliers miss most KKT conditions, so the messages differ
    # from one seed to the next.
    mu = rng.normal(size=m_ub) * (rng.random(m_ub) < 0.5)
    nu = rng.normal(size=m_eq)
    expected = _reference_validate(lp_, x, mu, nu)
    try:
        lp._validate(lp_, x, mu, nu)
        message = ""
    except LpNumericalError as exc:
        message = str(exc)
    assert message == expected
