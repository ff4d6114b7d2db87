"""Deterministic dense-simplex linear programming with dual multipliers.

Self-contained solver sized for this package's needs (tens of variables,
a few hundred constraints).  Two-phase primal simplex on a dense tableau
with Bland's anti-cycling rule; the final answer is re-derived from the
terminal basis against the original data, so the reported solution, duals
and active set carry no tableau round-off.  Identical inputs take identical
pivot sequences, so outputs are bitwise reproducible on one platform.

The pivot path is part of that guarantee: which programs solve and which
raise, and every bit of an answer, follow from it.  So the simplex loop
may be made faster only by doing the same floating-point operations on the
same operands in the same order; the tests run it against a reference copy
of an earlier version on recorded tableaux and require the same pivots and
the same tableau bytes.  The same holds for the conversion to standard form
and for the KKT validator, which the tests compare with reference copies
on random programs.

Each program's standard form comes from its family's form
(:class:`_SharedForm`): the part of the standard form and of the phase-1
start tableau that all but the equality rows determine.  Programs that
differ only in their equality rows share one form, and a program without
a family gets a form of its own.  :meth:`_SharedForm.standard` fills in a
program's equality rows and returns its rows, rhs and row signs and its
phase-1 start tableau and basis.  Every array is built by the same
operations on the same operands whether the form is shared or not, so a
shared form keeps the bitwise guarantee: the same pivots, the same
answer, the same errors.

Problems are stated as

    minimize c.x  subject to  a_ub @ x <= b_ub,  a_eq @ x == b_eq,

with every variable free: a bound such as x >= 0 is an inequality row.
Solutions report multipliers in the convention

    c + a_ub.T @ ineq_duals + a_eq.T @ eq_duals == 0,

with ineq_duals >= 0 and complementary slackness against the slacks.
Infeasible and unbounded problems report only their status and pivot
count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import LpNumericalError

FEASIBILITY_TOL = 1e-9
COMPLEMENTARITY_TOL = 1e-8
DUALITY_GAP_TOL = 1e-8
PIVOT_TOL = 1e-10
RATIO_TIE_TOL = 1e-9  # min-ratio tie width, relative to 1 + |min ratio|
STALL_TOL = 1e-12  # objective change, relative, that ends a degenerate stall
INFEASIBILITY_TOL = 1e-8  # phase-1 optimum, relative to 1 + max rhs
DRIVE_OUT_TOL = 1e-9  # pivot entry, relative to its row, to drive an artificial out
STALL_LIMIT = 100
MAX_PIVOTS = 50_000


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """Immutable problem record.  Use :func:`make_lp` to build one, or
    :meth:`_SharedForm.program` for one of a family of programs that share
    all but their equality rows."""

    c: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    # The standard form shared with the rest of the program's family, or
    # None for a program that :func:`solve_lp` converts on its own.
    shared: _SharedForm | None = field(default=None, repr=False)

    @property
    def num_vars(self) -> int:
        return self.c.shape[0]


@dataclass(frozen=True, eq=False)
class LpSolution:
    """Result of :func:`solve_lp`.

    ``status`` is one of ``"optimal"``, ``"infeasible"``, ``"unbounded"``.
    ``x``/``objective``/duals are populated only for ``"optimal"``.
    ``active_ub`` lists the inequality rows tight at the solution within
    ``FEASIBILITY_TOL`` scale.  ``iterations`` counts the passes of the
    simplex loop (each pivot, and the pricing pass that ends each phase) and
    the pivots that drive artificials out of the basis after phase 1.
    """

    status: str
    x: np.ndarray | None = None
    objective: float | None = None
    ineq_duals: np.ndarray | None = None
    eq_duals: np.ndarray | None = None
    active_ub: tuple[int, ...] = ()
    iterations: int = 0


def _block(a, b, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A constraint block over n variables as float arrays, (0, n) and (0,)
    when absent."""
    if a is None:
        return np.zeros((0, n)), np.zeros(0)
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape != (b.shape[0], n):
        raise ValueError(f"constraint block shape {a.shape} does not match "
                         f"{b.shape[0]} rhs entries over {n} variables")
    return a, b


def _check_finite(*arrays) -> None:
    for arr in arrays:
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite entries in LP data")


def make_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None) -> LinearProgram:
    """Assemble a LinearProgram over free variables, normalizing shapes."""
    c = np.atleast_1d(np.asarray(c, dtype=float))
    n = c.shape[0]
    a_ub, b_ub = _block(a_ub, b_ub, n)
    a_eq, b_eq = _block(a_eq, b_eq, n)
    _check_finite(c, a_ub, b_ub, a_eq, b_eq)
    return LinearProgram(c, a_ub, b_ub, a_eq, b_eq)


class _SharedForm:
    """The standard form of a family of programs that share c and the
    inequality rows and have the same number of equality rows, up to those
    rows.

    Standard form is min c.z s.t. A z = b, z >= 0.  Variable k splits as
    x_k = z_{2k} - z_{2k+1}.  Rows are the inequality rows, each with its
    slack column, then the equality rows; a row with negative rhs is
    negated, and its sign is kept for the duals.  This holds the cost, the
    inequality rows, and the phase-1 start tableau with those
    rows in place: the initial basis (the slack of each unnegated
    inequality row, an artificial for every other row) and the phase-1
    cost row priced against the negated inequality rows.  Each program
    adds its equality rows (:meth:`standard`).
    """

    def __init__(self, base: LinearProgram, n_eq: int):
        self.base = base
        self.n_eq = n_eq
        self.num_vars = base.num_vars
        self.nz = 2 * self.num_vars
        self.n_ub = n_ub = base.a_ub.shape[0]
        self.c_z = self.encode(base.c)
        self.ncols = ncols = self.nz + n_ub
        self.cost = np.concatenate([self.c_z, np.zeros(n_ub)])
        self.amat_ub, self.bvec_ub, self.sign_ub = self.rows(
            base.a_ub, base.b_ub, slacks=True)

        # The start tableau.  Pricing subtracts the artificial rows one at
        # a time in row order, the inequality rows here and the equality
        # rows in standard; subtracting their sum would round differently.
        m = n_ub + n_eq
        negated = np.flatnonzero(self.sign_ub < 0)
        need_art = np.concatenate([negated, n_ub + np.arange(n_eq)])
        self.n_art = n_art = need_art.size
        self.basis = self.nz + np.arange(m)
        self.basis[need_art] = ncols + np.arange(n_art)
        tab = np.zeros((m + 1, ncols + n_art + 1))
        tab[:n_ub, :ncols] = self.amat_ub
        tab[:n_ub, -1] = self.bvec_ub
        tab[need_art, ncols:-1] = np.eye(n_art)
        if n_art:
            tab[-1, ncols:-1] = 1.0
            for r in negated:
                tab[-1] -= tab[r]
        self.tab = tab

    def program(self, a_eq, b_eq) -> LinearProgram:
        """The family's program with these equality rows, checked as
        :func:`make_lp` checks them."""
        a_eq, b_eq = _block(a_eq, b_eq, self.num_vars)
        if a_eq.shape[0] != self.n_eq:
            raise ValueError(f"{a_eq.shape[0]} equality rows given to a "
                             f"family with {self.n_eq}")
        _check_finite(a_eq, b_eq)
        base = self.base
        return LinearProgram(base.c, base.a_ub, base.b_ub, a_eq, b_eq,
                             shared=self)

    def standard(self, a_eq, b_eq):
        """The family's program with these equality rows in standard form:
        its rows, rhs and row signs, and a fresh phase-1 start tableau (its
        last row the phase-1 cost row, its last column the rhs) and basis."""
        amat, bvec, sign = self.rows(a_eq, b_eq)
        tab = self.tab.copy()
        eq = slice(self.n_ub, self.n_ub + self.n_eq)
        tab[eq, : self.ncols] = amat
        tab[eq, -1] = bvec
        if self.n_art:
            for r in range(eq.start, eq.stop):
                tab[-1] -= tab[r]
        return (np.concatenate([self.amat_ub, amat]),
                np.concatenate([self.bvec_ub, bvec]),
                np.concatenate([self.sign_ub, sign]), tab, self.basis.copy())

    def encode(self, a_rows: np.ndarray) -> np.ndarray:
        """The columns of a_rows over z."""
        out = np.zeros(a_rows.shape[:-1] + (self.nz,))
        out[..., 0::2] = a_rows
        out[..., 1::2] = -a_rows
        return out

    def rows(self, a_rows, b, slacks: bool = False):
        """Rows of A over all columns, the slack columns the identity for
        the inequality rows (``slacks``) and zero otherwise, with a copy of
        their rhs and their signs; the rows with negative rhs are negated,
        so every rhs is >= 0."""
        amat = np.zeros((a_rows.shape[0], self.ncols))
        amat[:, : self.nz] = self.encode(a_rows)
        if slacks:
            amat[:, self.nz:] = np.eye(self.n_ub)
        bvec, sign = b.copy(), np.ones(b.shape[0])
        neg = bvec < 0
        if neg.any():
            amat[neg] *= -1.0
            bvec[neg] *= -1.0
            sign[neg] = -1.0
        return amat, bvec, sign

    def x_from_z(self, z: np.ndarray) -> np.ndarray:
        return z[0:self.nz:2] - z[1:self.nz:2]


def _pivot(tab: np.ndarray, row: int, col: int) -> None:
    prow = tab[row]
    prow /= prow[col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    # Every row takes the update, even where its factor is zero: skipping
    # it would keep a -0.0 that the subtraction turns into 0.0.
    tab -= factors[:, None] * prow


def _run_simplex(tab: np.ndarray, basis: np.ndarray,
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
    red = tab[-1, :-1]  # views: _pivot updates tab in place
    rhs = tab[:-1, -1]
    body = tab[:-1]
    # A reduction below reads one element at its arg-index, which costs a
    # fraction of max()/min() on arrays this small and returns the same
    # value, NaN included.
    while True:
        iterations[0] += 1
        if iterations[0] > MAX_PIVOTS:
            raise LpNumericalError("pivot limit exceeded")
        improving = red < -PIVOT_TOL
        enter = int(improving.argmax())  # Bland: lowest index
        if not improving[enter]:
            return "optimal", -1
        col = body[:, enter]
        mags = abs(col)
        threshold = PIVOT_TOL * max(1.0, mags.item(mags.argmax()))
        rows = (col > threshold).nonzero()[0]
        if rows.size == 0:
            return "unbounded", enter
        pivots = col[rows]
        # Clamp small negative rhs drift; a positive pivot over a negative
        # rhs would otherwise win the ratio test and amplify the drift.
        ratios = np.maximum(rhs[rows], 0.0) / pivots
        rmin = ratios.item(ratios.argmin())
        if rmin != rmin:  # a NaN ratio; no row would tie
            raise LpNumericalError("ratio test met a NaN in the tableau")
        tie = ratios <= rmin + RATIO_TIE_TOL * (1.0 + abs(rmin))
        if stall > STALL_LIMIT:
            tied = rows[tie]
            leave = int(tied[np.argmin(basis[tied])])  # strict Bland
        else:
            # Largest pivot element among the ties: pivots are positive, so
            # zeroing the others leaves argmax on the first of the largest.
            leave = int(rows[(pivots * tie).argmax()])
        _pivot(tab, leave, enter)
        basis[leave] = enter
        value = tab[-1, -1]
        if abs(value - last_value) > STALL_TOL * (1.0 + abs(value)):
            stall = 0
        else:
            stall += 1
        last_value = value


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve the LP; see module docstring for conventions and guarantees.
    The program needs at least one constraint row."""
    form = lp.shared or _SharedForm(lp, lp.a_eq.shape[0])
    amat, bvec, row_sign, tab, basis = form.standard(lp.a_eq, lp.b_eq)
    m, ncols = amat.shape
    kept = np.arange(m)  # the rows phase 1 keeps
    iterations = [0]

    art_scale = 1.0 + float(np.max(bvec))
    if form.n_art:
        # Phase 1: minimize the sum of artificials, from the start tableau.
        status, _ = _run_simplex(tab, basis, iterations)
        if status != "optimal":  # phase 1 is bounded below by zero
            raise LpNumericalError("phase 1 reported unbounded")
        if -tab[-1, -1] > INFEASIBILITY_TOL * art_scale:  # phase-1 optimum
            return LpSolution(status="infeasible", iterations=iterations[0])
        # Drive remaining artificials out of the basis or drop their rows.
        # A pivot on row r changes only basis[r], so the rows can be listed
        # up front.
        drop_rows = []
        for r in np.flatnonzero(basis >= ncols):
            mags = abs(tab[r, :ncols])
            scale = max(1.0, float(mags.max()))
            nz = (mags > DRIVE_OUT_TOL * scale).nonzero()[0]
            if nz.size:
                col = int(nz[mags[nz].argmax()])
                _pivot(tab, r, col)
                basis[r] = col
                iterations[0] += 1
            else:
                drop_rows.append(r)
        if drop_rows:
            kept = np.setdiff1d(kept, drop_rows)
            tab = np.vstack([tab[kept], tab[-1:]])
            basis = basis[kept]
    tab = np.hstack([tab[:, :ncols], tab[:, -1:]])  # drop artificial columns

    # Phase 2.  Basic columns are exact unit vectors, so pricing out a row
    # leaves the cost of every other basic column as it was: only rows whose
    # basic column costs something change the cost row.
    tab[-1, :-1] = form.cost
    tab[-1, -1] = 0.0
    for r in np.flatnonzero(form.cost[basis]):
        tab[-1] -= tab[-1, basis[r]] * tab[r]
    status, _ = _run_simplex(tab, basis, iterations)
    if status == "unbounded":
        return LpSolution(status="unbounded", iterations=iterations[0])

    # Recompute the solution from the terminal basis against original data.
    bmat = amat[kept][:, basis]
    try:
        xb = np.linalg.solve(bmat, bvec[kept])
        y_kept = np.linalg.solve(bmat.T, form.cost[basis])
    except np.linalg.LinAlgError as exc:
        raise LpNumericalError(f"terminal basis is singular: {exc}") from exc
    z = np.zeros(ncols)
    z[basis] = xb
    y = np.zeros(m)
    y[kept] = y_kept
    return _finish(lp, form, row_sign, z, y, iterations[0])


def _finish(lp: LinearProgram, form: _SharedForm, row_sign, z, y, iters) -> LpSolution:
    x = form.x_from_z(z)
    y_signed = y * row_sign
    mu = -y_signed[: form.n_ub]
    nu = -y_signed[form.n_ub :]
    slack = _validate(lp, x, mu, nu)
    scale = 1.0 + (float(abs(lp.b_ub).max()) if lp.b_ub.size else 0.0)
    active = tuple(int(i) for i in np.flatnonzero(slack <= FEASIBILITY_TOL * scale))
    return LpSolution(status="optimal", x=x, objective=float(lp.c @ x),
                      ineq_duals=mu, eq_duals=nu, active_ub=active,
                      iterations=iters)


def _validate(lp: LinearProgram, x, mu, nu) -> np.ndarray:
    """KKT checks in user coordinates; raise LpNumericalError if
    uncertified, else return the inequality slacks b_ub - a_ub @ x."""
    scale_b = 1.0 + max(
        float(abs(lp.b_ub).max()) if lp.b_ub.size else 0.0,
        float(abs(lp.b_eq).max()) if lp.b_eq.size else 0.0,
    )
    slack_ub = lp.b_ub - lp.a_ub @ x if lp.a_ub.shape[0] else np.zeros(0)
    res_eq = lp.a_eq @ x - lp.b_eq if lp.a_eq.shape[0] else np.zeros(0)
    problems = []
    if slack_ub.size and float(slack_ub.min()) < -FEASIBILITY_TOL * scale_b:
        problems.append(f"primal ub residual {-float(slack_ub.min()):.2e}")
    if res_eq.size and float(abs(res_eq).max()) > FEASIBILITY_TOL * scale_b:
        problems.append(f"primal eq residual {float(abs(res_eq).max()):.2e}")
    if mu.size and float(mu.min()) < -COMPLEMENTARITY_TOL:
        problems.append(f"negative inequality dual {float(mu.min()):.2e}")
    # Stationarity: g = c + a_ub.T mu + a_eq.T nu must vanish.
    g = lp.c.copy()
    if mu.size:
        g += lp.a_ub.T @ mu
    if nu.size:
        g += lp.a_eq.T @ nu
    scale_c = 1.0 + float(abs(lp.c).max()) if lp.c.size else 1.0
    tol_c = COMPLEMENTARITY_TOL * scale_c
    for k in (~(abs(g) <= tol_c)).nonzero()[0]:  # a NaN residual fails too
        problems.append(f"stationarity residual {g[k]:.2e} on variable {k}")
    if mu.size:
        cs = float(abs(mu * slack_ub).max())
        if cs > COMPLEMENTARITY_TOL * scale_b * (1 + float(mu.max())):
            problems.append(f"complementary slackness residual {cs:.2e}")
    # Duality gap: primal objective vs. Lagrangian dual value.
    primal = float(lp.c @ x)
    dual = -(float(lp.b_ub @ mu) if mu.size else 0.0) - (
        float(lp.b_eq @ nu) if nu.size else 0.0
    )
    if abs(primal - dual) > DUALITY_GAP_TOL * (1.0 + abs(primal)):
        problems.append(f"duality gap {abs(primal - dual):.2e}")
    if problems:
        raise LpNumericalError("; ".join(problems))
    return slack_ub
