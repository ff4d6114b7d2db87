"""Deterministic dense-simplex linear programming with dual multipliers.

Self-contained solver sized for this package's needs (tens of variables,
a few hundred constraints).  Two-phase primal simplex on a dense tableau
with Bland's anti-cycling rule; the final answer is re-derived from the
terminal basis against the original data, so the reported solution, duals
and active set carry no tableau round-off.  Identical inputs take identical
pivot sequences, so outputs are bitwise reproducible on one platform.

Problems are stated as

    minimize c.x  subject to  a_ub @ x <= b_ub,  a_eq @ x == b_eq,

with optional per-variable bounds (default: free).  Solutions report
multipliers in the convention

    c + a_ub.T @ ineq_duals + a_eq.T @ eq_duals == 0  on unbounded variables,

with ineq_duals >= 0 and complementary slackness against the slacks.
Infeasible and unbounded problems report only their status and pivot
count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LpNumericalError

FEASIBILITY_TOL = 1e-9
COMPLEMENTARITY_TOL = 1e-8
DUALITY_GAP_TOL = 1e-8
PIVOT_TOL = 1e-10
STALL_LIMIT = 100
MAX_PIVOTS = 50_000

_FREE = (None, None)


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """Immutable problem record.  Use :func:`make_lp` to build one."""

    c: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    bounds: tuple[tuple[float | None, float | None], ...]

    @property
    def num_vars(self) -> int:
        return self.c.shape[0]


@dataclass(frozen=True, eq=False)
class LpSolution:
    """Result of :func:`solve_lp`.

    ``status`` is one of ``"optimal"``, ``"infeasible"``, ``"unbounded"``.
    ``x``/``objective``/duals are populated only for ``"optimal"``.
    ``active_ub`` lists the inequality rows tight at the solution within
    ``FEASIBILITY_TOL`` scale.
    """

    status: str
    x: np.ndarray | None = None
    objective: float | None = None
    ineq_duals: np.ndarray | None = None
    eq_duals: np.ndarray | None = None
    active_ub: tuple[int, ...] = ()
    iterations: int = 0


def make_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=None) -> LinearProgram:
    """Assemble a LinearProgram, normalizing shapes and defaulting to free variables."""
    c = np.atleast_1d(np.asarray(c, dtype=float))
    n = c.shape[0]

    def _block(a, b):
        if a is None:
            return np.zeros((0, n)), np.zeros(0)
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        if a.shape != (b.shape[0], n):
            raise ValueError(f"constraint block shape {a.shape} does not match "
                             f"{b.shape[0]} rhs entries over {n} variables")
        return a, b

    a_ub, b_ub = _block(a_ub, b_ub)
    a_eq, b_eq = _block(a_eq, b_eq)
    if bounds is None:
        bounds = tuple(_FREE for _ in range(n))
    else:
        bounds = tuple((lo, hi) for lo, hi in bounds)
        if len(bounds) != n:
            raise ValueError(f"{len(bounds)} bounds given for {n} variables")
    for arr in (c, a_ub, b_ub, a_eq, b_eq):
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite entries in LP data")
    return LinearProgram(c, a_ub, b_ub, a_eq, b_eq, bounds)


class _StandardForm:
    """min c.z s.t. A z = b, z >= 0, plus the bookkeeping to map z back to x."""

    def __init__(self, lp: LinearProgram):
        n = lp.num_vars
        # Per-variable encoding: ('shift', lo, col), ('neg', hi, col),
        # ('split', None, col) using columns col (and col+1 for split).
        self.var_map: list[tuple[str, float | None, int]] = []
        col = 0
        extra_rows = []  # (col, cap) for two-sided bounds: z_col <= cap
        for k, (lo, hi) in enumerate(lp.bounds):
            if lo is not None:
                self.var_map.append(("shift", float(lo), col))
                if hi is not None:
                    cap = float(hi) - float(lo)
                    if cap < 0:
                        raise ValueError(f"variable {k} has empty bound interval")
                    extra_rows.append((col, cap))
                col += 1
            elif hi is not None:
                self.var_map.append(("neg", float(hi), col))
                col += 1
            else:
                self.var_map.append(("split", None, col))
                col += 2
        self.nz = col
        self.n_user_ub = lp.a_ub.shape[0]
        self.n_extra = len(extra_rows)
        self.n_eq = lp.a_eq.shape[0]

        def _encode_rows(a_rows):
            out = np.zeros((a_rows.shape[0], self.nz))
            shift = np.zeros(a_rows.shape[0])
            for k, (kind, val, c0) in enumerate(self.var_map):
                coeff = a_rows[:, k]
                if kind == "shift":
                    out[:, c0] = coeff
                    shift += coeff * val
                elif kind == "neg":
                    out[:, c0] = -coeff
                    shift += coeff * val
                else:
                    out[:, c0] = coeff
                    out[:, c0 + 1] = -coeff
            return out, shift

        a_ub_z, s_ub = _encode_rows(lp.a_ub)
        a_eq_z, s_eq = _encode_rows(lp.a_eq)
        rows_extra = np.zeros((self.n_extra, self.nz))
        rhs_extra = np.zeros(self.n_extra)
        for r, (c0, cap) in enumerate(extra_rows):
            rows_extra[r, c0] = 1.0
            rhs_extra[r] = cap

        # Objective over z.
        self.c_z = np.zeros(self.nz)
        self.obj_shift = 0.0
        for k, (kind, val, c0) in enumerate(self.var_map):
            ck = lp.c[k]
            if kind == "shift":
                self.c_z[c0] = ck
                self.obj_shift += ck * val
            elif kind == "neg":
                self.c_z[c0] = -ck
                self.obj_shift += ck * val
            else:
                self.c_z[c0] = ck
                self.c_z[c0 + 1] = -ck

        # Stack: user ub rows, bound rows, eq rows; slacks for all ub-kind rows.
        n_ub_all = self.n_user_ub + self.n_extra
        a_top = np.vstack([a_ub_z, rows_extra]) if n_ub_all else np.zeros((0, self.nz))
        b_top = np.concatenate([lp.b_ub - s_ub, rhs_extra])
        a_bot = a_eq_z
        b_bot = lp.b_eq - s_eq
        m = n_ub_all + self.n_eq
        self.ncols = self.nz + n_ub_all
        amat = np.zeros((m, self.ncols))
        amat[:n_ub_all, : self.nz] = a_top
        amat[:n_ub_all, self.nz :] = np.eye(n_ub_all)
        amat[n_ub_all:, : self.nz] = a_bot
        bvec = np.concatenate([b_top, b_bot])

        # Normalize rhs >= 0, remembering flips for dual signs.
        self.row_sign = np.ones(m)
        neg = bvec < 0
        amat[neg] *= -1.0
        bvec[neg] *= -1.0
        self.row_sign[neg] = -1.0

        self.amat = amat
        self.bvec = bvec
        self.n_ub_all = n_ub_all
        self.cost = np.concatenate([self.c_z, np.zeros(n_ub_all)])
        self.row_kept = np.ones(m, dtype=bool)

    def x_from_z(self, z: np.ndarray) -> np.ndarray:
        x = np.zeros(len(self.var_map))
        for k, (kind, val, c0) in enumerate(self.var_map):
            if kind == "shift":
                x[k] = val + z[c0]
            elif kind == "neg":
                x[k] = val - z[c0]
            else:
                x[k] = z[c0] - z[c0 + 1]
        return x


def _pivot(tab: np.ndarray, row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= np.outer(factors, tab[row])


def _run_simplex(tab: np.ndarray, basis: np.ndarray, allowed: np.ndarray,
                 iterations: list[int]) -> tuple[str, int]:
    """Run simplex on a tableau whose last row is the reduced-cost row and
    last column the rhs.  Returns ('optimal', -1) or ('unbounded', col).

    Entering follows Bland (lowest eligible index).  The leaving row is the
    min-ratio row with the largest pivot element, which keeps round-off from
    piling up; after a long degenerate stall the tie-break reverts to strict
    Bland to rule out cycling.  Pivot eligibility is relative to the column
    magnitude: a tableau whose entries have grown to 1e3 carries absolute
    noise far above any fixed epsilon, and pivoting on such an entry was
    observed to inflate the tableau to 1e16 within two iterations.
    """
    stall = 0
    last_value = tab[-1, -1]
    while True:
        iterations[0] += 1
        if iterations[0] > MAX_PIVOTS:
            raise LpNumericalError("pivot limit exceeded")
        red = tab[-1, :-1]
        candidates = np.flatnonzero((red < -PIVOT_TOL) & allowed)
        if candidates.size == 0:
            return "optimal", -1
        enter = int(candidates[0])  # Bland: lowest index
        col = tab[:-1, enter]
        threshold = PIVOT_TOL * max(1.0, float(np.abs(col).max()))
        rows = np.flatnonzero(col > threshold)
        if rows.size == 0:
            return "unbounded", enter
        # Clamp small negative rhs drift; a positive pivot over a negative
        # rhs would otherwise win the ratio test and amplify the drift.
        ratios = np.maximum(tab[rows, -1], 0.0) / col[rows]
        rmin = ratios.min()
        tie = rows[ratios <= rmin + 1e-9 * (1.0 + abs(rmin))]
        if stall > STALL_LIMIT:
            leave = int(tie[np.argmin(basis[tie])])  # strict Bland
        else:
            leave = int(tie[np.argmax(col[tie])])  # largest pivot element
        _pivot(tab, leave, enter)
        basis[leave] = enter
        value = tab[-1, -1]
        if abs(value - last_value) > 1e-12 * (1.0 + abs(value)):
            stall = 0
        else:
            stall += 1
        last_value = value


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve the LP; see module docstring for conventions and guarantees."""
    sf = _StandardForm(lp)
    amat, bvec = sf.amat, sf.bvec
    m, ncols = amat.shape
    iterations = [0]

    if m == 0:
        # No constraints at all: optimal iff no improving column exists.
        if np.any(sf.cost < -PIVOT_TOL):
            return LpSolution(status="unbounded", iterations=0)
        z = np.zeros(ncols)
        return _finish(lp, sf, z, np.zeros(0), np.array([], dtype=int), 0)

    # Initial basis: slack where possible (unflipped ub rows), else artificial.
    basis = np.full(m, -1, dtype=int)
    need_art = []
    for r in range(m):
        if r < sf.n_ub_all and sf.row_sign[r] > 0:
            basis[r] = sf.nz + r
        else:
            need_art.append(r)
    n_art = len(need_art)
    tab = np.zeros((m + 1, ncols + n_art + 1))
    tab[:m, :ncols] = amat
    tab[:m, -1] = bvec
    for j, r in enumerate(need_art):
        tab[r, ncols + j] = 1.0
        basis[r] = ncols + j

    art_scale = 1.0 + float(np.max(bvec)) if m else 1.0
    if n_art:
        # Phase 1: minimize the sum of artificials.
        cost1 = np.zeros(ncols + n_art)
        cost1[ncols:] = 1.0
        tab[-1, :-1] = cost1
        for r in range(m):
            if basis[r] >= ncols:
                tab[-1] -= tab[r]
        allowed = np.ones(ncols + n_art, dtype=bool)
        status, _ = _run_simplex(tab, basis, allowed, iterations)
        if status != "optimal":  # phase 1 is bounded below by zero
            raise LpNumericalError("phase 1 reported unbounded")
        phase1_obj = -tab[-1, -1]
        if phase1_obj > 1e-8 * art_scale:
            return LpSolution(status="infeasible", iterations=iterations[0])
        # Drive remaining artificials out of the basis or drop their rows.
        drop_rows = []
        for r in range(m):
            if basis[r] >= ncols:
                row = tab[r, :ncols]
                scale = max(1.0, float(np.abs(row).max()))
                nz = np.flatnonzero(np.abs(row) > 1e-9 * scale)
                if nz.size:
                    col = int(nz[np.argmax(np.abs(row[nz]))])
                    _pivot(tab, r, col)
                    basis[r] = col
                else:
                    drop_rows.append(r)
        if drop_rows:
            keep = np.setdiff1d(np.arange(m), drop_rows)
            kept_mask = np.zeros(m, dtype=bool)
            kept_mask[keep] = True
            sf.row_kept = kept_mask
            tab = np.vstack([tab[keep], tab[-1:]])
            basis = basis[keep]
            m = len(keep)
    tab = np.hstack([tab[:, :ncols], tab[:, -1:]])  # drop artificial columns

    # Phase 2.
    tab[-1, :-1] = sf.cost
    tab[-1, -1] = 0.0
    for r in range(m):
        cb = tab[-1, basis[r]]
        if cb != 0.0:
            tab[-1] -= cb * tab[r]
    allowed = np.ones(ncols, dtype=bool)
    status, _ = _run_simplex(tab, basis, allowed, iterations)
    if status == "unbounded":
        return LpSolution(status="unbounded", iterations=iterations[0])

    # Recompute the solution from the terminal basis against original data.
    kept = np.flatnonzero(sf.row_kept)
    bmat = amat[kept][:, basis]
    try:
        xb = np.linalg.solve(bmat, bvec[kept])
        y_kept = np.linalg.solve(bmat.T, sf.cost[basis])
    except np.linalg.LinAlgError as exc:
        raise LpNumericalError(f"terminal basis is singular: {exc}") from exc
    z = np.zeros(ncols)
    z[basis] = xb
    y = np.zeros(sf.row_kept.shape[0])
    y[kept] = y_kept
    return _finish(lp, sf, z, y, basis, iterations[0])


def _finish(lp: LinearProgram, sf: _StandardForm, z, y, basis, iters) -> LpSolution:
    x = sf.x_from_z(z)
    y_signed = y * sf.row_sign
    mu = -y_signed[: sf.n_user_ub]
    nu = -y_signed[sf.n_ub_all :]
    _validate(lp, x, mu, nu)
    slack = lp.b_ub - lp.a_ub @ x if lp.a_ub.shape[0] else np.zeros(0)
    scale = 1.0 + (float(np.max(np.abs(lp.b_ub))) if lp.b_ub.size else 0.0)
    active = tuple(int(i) for i in np.flatnonzero(slack <= FEASIBILITY_TOL * scale))
    return LpSolution(status="optimal", x=x, objective=float(lp.c @ x),
                      ineq_duals=mu, eq_duals=nu, active_ub=active,
                      iterations=iters)


def _validate(lp: LinearProgram, x, mu, nu) -> None:
    """KKT checks in user coordinates; raise LpNumericalError if uncertified."""
    scale_b = 1.0 + max(
        float(np.max(np.abs(lp.b_ub))) if lp.b_ub.size else 0.0,
        float(np.max(np.abs(lp.b_eq))) if lp.b_eq.size else 0.0,
    )
    slack_ub = lp.b_ub - lp.a_ub @ x if lp.a_ub.shape[0] else np.zeros(0)
    res_eq = lp.a_eq @ x - lp.b_eq if lp.a_eq.shape[0] else np.zeros(0)
    problems = []
    if slack_ub.size and float(np.min(slack_ub)) < -FEASIBILITY_TOL * scale_b:
        problems.append(f"primal ub residual {-float(np.min(slack_ub)):.2e}")
    if res_eq.size and float(np.max(np.abs(res_eq))) > FEASIBILITY_TOL * scale_b:
        problems.append(f"primal eq residual {float(np.max(np.abs(res_eq))):.2e}")
    for k, (lo, hi) in enumerate(lp.bounds):
        if lo is not None and x[k] < lo - FEASIBILITY_TOL * (1 + abs(lo)):
            problems.append(f"lower bound violated on variable {k}")
        if hi is not None and x[k] > hi + FEASIBILITY_TOL * (1 + abs(hi)):
            problems.append(f"upper bound violated on variable {k}")
    if mu.size and float(np.min(mu)) < -COMPLEMENTARITY_TOL:
        problems.append(f"negative inequality dual {float(np.min(mu)):.2e}")
    # Stationarity g = c + a_ub.T mu + a_eq.T nu must vanish on free variables
    # and act as a valid bound multiplier otherwise.
    g = lp.c.copy()
    if mu.size:
        g += lp.a_ub.T @ mu
    if nu.size:
        g += lp.a_eq.T @ nu
    scale_c = 1.0 + float(np.max(np.abs(lp.c))) if lp.c.size else 1.0
    for k, (lo, hi) in enumerate(lp.bounds):
        at_lo = lo is not None and x[k] <= lo + 1e-7 * (1 + abs(lo))
        at_hi = hi is not None and x[k] >= hi - 1e-7 * (1 + abs(hi))
        gk = g[k]
        if at_lo and at_hi:
            continue
        if at_lo:
            ok = gk >= -COMPLEMENTARITY_TOL * scale_c
        elif at_hi:
            ok = gk <= COMPLEMENTARITY_TOL * scale_c
        else:
            ok = abs(gk) <= COMPLEMENTARITY_TOL * scale_c
        if not ok:
            problems.append(f"stationarity residual {gk:.2e} on variable {k}")
    if mu.size:
        cs = float(np.max(np.abs(mu * slack_ub)))
        if cs > COMPLEMENTARITY_TOL * scale_b * (1 + float(np.max(mu))):
            problems.append(f"complementary slackness residual {cs:.2e}")
    # Duality gap: primal objective vs. Lagrangian dual value.
    primal = float(lp.c @ x)
    dual = -(float(lp.b_ub @ mu) if mu.size else 0.0) - (
        float(lp.b_eq @ nu) if nu.size else 0.0
    )
    for k, (lo, hi) in enumerate(lp.bounds):
        gk = g[k]
        if lo is not None and gk > 0:
            dual += gk * lo
        elif hi is not None and gk < 0:
            dual += gk * hi
    if abs(primal - dual) > DUALITY_GAP_TOL * (1.0 + abs(primal)):
        problems.append(f"duality gap {abs(primal - dual):.2e}")
    if problems:
        raise LpNumericalError("; ".join(problems))
