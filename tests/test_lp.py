"""LP core: frozen pivot examples, duals, infeasibility, determinism."""

import numpy as np
import pytest
import scipy.optimize

from ehzcap.errors import LpNumericalError
from ehzcap.lp import make_lp, solve_lp


def test_bounded_single_variable_with_dual():
    # minimize -x s.t. x <= 1, x >= 0  ->  x = 1, objective -1, dual 1 binding.
    lp = make_lp([-1.0], a_ub=[[1.0]], b_ub=[1.0], bounds=[(0.0, None)])
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
    lp = make_lp([0.0, 0.0], a_eq=[[1.0, 1.0]], b_eq=[1.0],
                 bounds=[(0.0, None), (0.0, None)])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x, [1.0, 0.0], atol=1e-12)


def test_bitwise_determinism():
    rng = np.random.default_rng(7)
    c = rng.normal(size=6)
    a_ub = rng.normal(size=(9, 6))
    b_ub = a_ub @ rng.normal(size=6) + rng.uniform(0.1, 1.0, size=9)
    lp = make_lp(c, a_ub=a_ub, b_ub=b_ub, bounds=[(-20.0, 20.0)] * 6)
    s1, s2 = solve_lp(lp), solve_lp(lp)
    assert s1.status == "optimal"
    assert s1.x.tobytes() == s2.x.tobytes()
    assert s1.ineq_duals.tobytes() == s2.ineq_duals.tobytes()
    assert s1.objective == s2.objective
    assert s1.iterations == s2.iterations


def test_equalities_and_two_sided_bounds():
    # minimize x + 2y s.t. x + y = 1, 0 <= x <= 0.4, y free.
    lp = make_lp([1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0],
                 bounds=[(0.0, 0.4), (None, None)])
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
