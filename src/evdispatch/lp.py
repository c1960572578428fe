"""Bounded-variable linear programming with a dense two-phase simplex.

Self-contained minimization solver for problems with box-constrained
variables and sparse linear rows. Built for the sizes this package produces
(a few hundred rows and columns), where a dense tableau is both fast enough
and easy to verify.

Algorithm notes:
- every row gets a slack variable (bounds encode the sense; equalities get a
  slack fixed at zero), phase 1 adds artificial columns only for rows whose
  slack cannot absorb the initial residual;
- pricing is Dantzig (most negative reduced cost) with a permanent switch to
  Bland's rule after a stall, which guarantees termination;
- a bound flip is taken when the entering variable hits its opposite bound
  before any basic variable hits one of its own;
- optimality and primal feasibility are re-verified from the original data
  before a solution is declared optimal; on drift the tableau is rebuilt from
  the current basis and iteration continues.

Deterministic by construction: same problem, same pivots, same answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

INF = float("inf")

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"

# nonbasic/basic status codes
_AT_LB, _AT_UB, _BASIC, _FREE = 0, 1, 2, 3


class LpError(ValueError):
    """Raised for malformed problems (inverted bounds, unknown variable ids)."""


class LpProblem:
    """A minimization LP under construction.

    Variables carry bounds and an objective coefficient; constraints are
    sparse coefficient lists with a sense and right-hand side. Duplicate
    terms on one variable within a constraint are summed.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self._lb: list[float] = []
        self._ub: list[float] = []
        self._cost: list[float] = []
        self._var_names: list[str] = []
        self._rows: list[dict[int, float]] = []
        self._senses: list[str] = []
        self._rhs: list[float] = []
        self._row_names: list[str] = []

    @property
    def num_variables(self) -> int:
        return len(self._lb)

    @property
    def num_constraints(self) -> int:
        return len(self._rows)

    def add_variable(self, lb: float = 0.0, ub: float = INF, cost: float = 0.0, name: str = "") -> int:
        if not lb <= ub:
            raise LpError(f"variable {name or len(self._lb)}: inverted bounds lb={lb} > ub={ub}")
        if lb == INF or ub == -INF or np.isnan(cost):
            raise LpError(f"variable {name or len(self._lb)}: unusable bounds or cost")
        self._lb.append(float(lb))
        self._ub.append(float(ub))
        self._cost.append(float(cost))
        self._var_names.append(name or f"x{len(self._lb) - 1}")
        return len(self._lb) - 1

    def add_constraint(
        self, terms: list[tuple[int, float]], sense: str, rhs: float, name: str = ""
    ) -> int:
        if sense == "==":
            sense = "="
        if sense not in ("<=", ">=", "="):
            raise LpError(f"constraint {name!r}: unknown sense {sense!r}")
        merged: dict[int, float] = {}
        for var, coef in terms:
            if not 0 <= var < len(self._lb):
                raise LpError(f"constraint {name!r}: unknown variable id {var}")
            merged[var] = merged.get(var, 0.0) + float(coef)
        self._rows.append(merged)
        self._senses.append(sense)
        self._rhs.append(float(rhs))
        self._row_names.append(name or f"r{len(self._rows) - 1}")
        return len(self._rows) - 1

    def set_cost(self, var: int, cost: float) -> None:
        """Replace one variable's objective coefficient."""
        if not 0 <= var < len(self._lb):
            raise LpError(f"unknown variable id {var}")
        self._cost[var] = float(cost)

    def variable_name(self, var: int) -> str:
        return self._var_names[var]

    def constraint_name(self, row: int) -> str:
        return self._row_names[row]

    def row_names(self) -> list[str]:
        return list(self._row_names)

    def to_lp_text(self) -> str:
        """Debug dump in LP text format for cross-checking with other tools."""
        out = [f"\\ {self.name}", "Minimize", " obj:"]
        terms = [
            f" {c:+.12g} {n}" for c, n in zip(self._cost, self._var_names) if c != 0.0
        ]
        out.append("".join(terms) if terms else " 0 " + (self._var_names[0] if self._var_names else "x0"))
        out.append("Subject To")
        for row, sense, rhs, name in zip(self._rows, self._senses, self._rhs, self._row_names):
            body = "".join(
                f" {coef:+.12g} {self._var_names[var]}" for var, coef in sorted(row.items())
            )
            op = {"<=": "<=", ">=": ">=", "=": "="}[sense]
            out.append(f" {name}:{body} {op} {rhs:.12g}")
        out.append("Bounds")
        for i, (lo, hi) in enumerate(zip(self._lb, self._ub)):
            lo_s = "-inf" if lo == -INF else f"{lo:.12g}"
            hi_s = "+inf" if hi == INF else f"{hi:.12g}"
            out.append(f" {lo_s} <= {self._var_names[i]} <= {hi_s}")
        out.append("End")
        return "\n".join(out) + "\n"


@dataclass
class LpSolution:
    """Solver outcome. ``x`` holds one value per problem variable when optimal."""

    status: str
    objective: float | None
    x: np.ndarray | None
    iterations: int

    def value(self, var: int) -> float:
        if self.x is None:
            raise ValueError(f"no solution values (status={self.status})")
        return float(self.x[var])


def solve(p: LpProblem, *, feas_tol: float = 1e-6, max_iter: int | None = None) -> LpSolution:
    """Solve a problem to optimality, or classify it infeasible/unbounded.

    ``feas_tol`` bounds the constraint violation accepted in an optimal
    solution; reaching ``max_iter`` reports the distinct iteration_limit
    status instead of raising.
    """
    n = p.num_variables
    m = p.num_constraints
    if n == 0:
        if m == 0 or all(_row_trivially_ok(p, i, feas_tol) for i in range(m)):
            return LpSolution(OPTIMAL, 0.0, np.zeros(0), 0)
        return LpSolution(INFEASIBLE, None, None, 0)

    sim = _Simplex(p, feas_tol=feas_tol, max_iter=max_iter)
    return sim.run()


def _row_trivially_ok(p: LpProblem, i: int, tol: float) -> bool:
    rhs, sense = p._rhs[i], p._senses[i]
    if sense == "<=":
        return 0.0 <= rhs + tol
    if sense == ">=":
        return 0.0 >= rhs - tol
    return abs(rhs) <= tol


class _Simplex:
    def __init__(self, p: LpProblem, feas_tol: float, max_iter: int | None):
        self.p = p
        self.feas_tol = feas_tol
        self.opt_tol = 1e-9
        self.pivot_tol = 1e-9
        n, m = p.num_variables, p.num_constraints
        self.n_struct = n
        self.m = m

        # columns: structural | slacks | artificials (appended in _setup)
        ncols = n + m
        A = np.zeros((m, ncols))
        for i, row in enumerate(p._rows):
            for var, coef in row.items():
                A[i, var] = coef
            A[i, n + i] = 1.0
        self.b = np.array(p._rhs, dtype=float)

        lb = np.concatenate([np.array(p._lb), np.zeros(m)])
        ub = np.concatenate([np.array(p._ub), np.zeros(m)])
        for i, sense in enumerate(p._senses):
            if sense == "<=":
                lb[n + i], ub[n + i] = 0.0, INF
            elif sense == ">=":
                lb[n + i], ub[n + i] = -INF, 0.0
            else:
                lb[n + i], ub[n + i] = 0.0, 0.0
        self.A = A
        self.lb = lb
        self.ub = ub
        self.cost = np.concatenate([np.array(p._cost), np.zeros(m)])
        self.max_iter = max_iter if max_iter is not None else 200 * (m + n + 20)
        self.iterations = 0

    # -- setup -------------------------------------------------------------

    def _setup(self) -> None:
        ncols = self.A.shape[1]
        status = np.empty(ncols, dtype=np.int8)
        finite_lb = np.isfinite(self.lb)
        finite_ub = np.isfinite(self.ub)
        status[:] = _FREE
        status[finite_ub] = _AT_UB
        status[finite_lb] = _AT_LB  # prefer the lower bound when both are finite

        xbar = np.where(status == _AT_LB, self.lb, np.where(status == _AT_UB, self.ub, 0.0))
        resid = self.b - self.A @ xbar

        basis: list[int] = []
        art_cols: list[np.ndarray] = []
        art_sign: list[float] = []
        xB = np.zeros(self.m)
        row_scale = np.ones(self.m)
        for i in range(self.m):
            s_idx = self.n_struct + i
            r = resid[i] + xbar[s_idx]  # slack currently at a bound; absorb if possible
            if self.lb[s_idx] - 1e-12 <= r <= self.ub[s_idx] + 1e-12:
                basis.append(s_idx)
                status[s_idx] = _BASIC
                xB[i] = min(max(r, self.lb[s_idx]), self.ub[s_idx])
            else:
                clamped = min(max(r, self.lb[s_idx]), self.ub[s_idx])
                status[s_idx] = _AT_LB if clamped == self.lb[s_idx] else _AT_UB
                xbar[s_idx] = clamped
                sigma = 1.0 if r - clamped > 0 else -1.0
                col = np.zeros(self.m)
                col[i] = sigma
                art_cols.append(col)
                art_sign.append(sigma)
                basis.append(ncols + len(art_cols) - 1)
                xB[i] = abs(r - clamped)
                row_scale[i] = sigma

        n_art = len(art_cols)
        if n_art:
            self.A = np.hstack([self.A, np.stack(art_cols, axis=1)])
            self.lb = np.concatenate([self.lb, np.zeros(n_art)])
            self.ub = np.concatenate([self.ub, np.full(n_art, INF)])
            self.cost = np.concatenate([self.cost, np.zeros(n_art)])
            status = np.concatenate([status, np.full(n_art, _BASIC, dtype=np.int8)])
        self.n_art = n_art
        self.basis = np.array(basis, dtype=int)
        self.status = status
        self.xB = xB
        # initial basis matrix is diagonal +-1, so B^-1 A is a row rescale
        self.T = self.A * row_scale[:, None]
        self.nb_value = np.where(
            self.status == _AT_LB, self.lb, np.where(self.status == _AT_UB, self.ub, 0.0)
        )
        self._buf = np.empty_like(self.T)  # scratch for in-place pivot updates

    # -- helpers -----------------------------------------------------------

    def _reduced_costs(self, cost: np.ndarray) -> np.ndarray:
        return cost - cost[self.basis] @ self.T

    def _refactorize(self) -> None:
        """Rebuild the tableau and basic values from the original columns."""
        B = self.A[:, self.basis]
        self.T = np.linalg.solve(B, self.A)
        nb_mask = self.status != _BASIC
        contrib = self.A[:, nb_mask] @ self.nb_value[nb_mask]
        self.xB = np.linalg.solve(B, self.b - contrib)

    def _assemble_x(self) -> np.ndarray:
        x = self.nb_value.copy()
        x[self.basis] = self.xB
        return x

    def _violation(self, x: np.ndarray) -> float:
        """Worst bound/row violation of a candidate point, original data."""
        worst = 0.0
        lo = np.maximum(self.lb[: self.n_struct] - x[: self.n_struct], 0.0)
        hi = np.maximum(x[: self.n_struct] - self.ub[: self.n_struct], 0.0)
        if lo.size:
            worst = max(worst, float(lo.max()), float(hi.max()))
        act = self.A[:, : self.n_struct] @ x[: self.n_struct]
        for i, sense in enumerate(self.p._senses):
            if sense == "<=":
                worst = max(worst, act[i] - self.b[i])
            elif sense == ">=":
                worst = max(worst, self.b[i] - act[i])
            else:
                worst = max(worst, abs(act[i] - self.b[i]))
        return worst

    # -- core iteration ----------------------------------------------------

    def _price(self, d: np.ndarray, bland: bool) -> int:
        """Pick the entering column, or -1 at optimality."""
        at_lb = self.status == _AT_LB
        at_ub = self.status == _AT_UB
        free = self.status == _FREE
        score = np.zeros(d.size)
        score[at_lb] = -d[at_lb]
        score[at_ub] = d[at_ub]
        score[free] = np.abs(d[free])
        score[self.ub - self.lb <= 0.0] = -INF  # fixed vars never enter
        score[self.status == _BASIC] = -INF
        if bland:
            eligible = np.flatnonzero(score > self.opt_tol)
            return int(eligible[0]) if eligible.size else -1
        q = int(np.argmax(score))
        return q if score[q] > self.opt_tol else -1

    def _iterate(self, cost: np.ndarray) -> str:
        d = self._reduced_costs(cost)
        bland = False
        stall = 0
        stall_limit = 50 + 2 * (self.m + self.n_struct)
        verified = False
        while True:
            q = self._price(d, bland)
            if q < 0:
                if verified:
                    return "optimal"
                # re-derive reduced costs from scratch to rule out drift
                d = self._reduced_costs(cost)
                verified = True
                continue
            verified = False
            if self.iterations >= self.max_iter:
                return "iteration_limit"
            self.iterations += 1

            if self.status[q] == _AT_UB or (self.status[q] == _FREE and d[q] > 0):
                sigma = -1.0
            else:
                sigma = 1.0
            w = self.T[:, q]
            sw = sigma * w
            lbB = self.lb[self.basis]
            ubB = self.ub[self.basis]
            ratios = np.full(self.m, INF)
            pos = sw > self.pivot_tol
            neg = sw < -self.pivot_tol
            if pos.any():
                ratios[pos] = np.maximum(self.xB[pos] - lbB[pos], 0.0) / sw[pos]
            if neg.any():
                ratios[neg] = np.maximum(ubB[neg] - self.xB[neg], 0.0) / (-sw[neg])
            t_rows = ratios.min() if self.m else INF
            t_flip = self.ub[q] - self.lb[q]
            delta = min(t_rows, t_flip)
            if delta == INF:
                return "unbounded"

            if delta <= 1e-12:
                stall += 1
                if stall > stall_limit:
                    bland = True
            else:
                stall = 0

            if t_flip <= t_rows:
                # entering variable runs to its opposite bound; basis unchanged
                self.xB = self.xB - w * (sigma * t_flip)
                self.status[q] = _AT_UB if self.status[q] == _AT_LB else _AT_LB
                self.nb_value[q] = self.ub[q] if self.status[q] == _AT_UB else self.lb[q]
                continue

            cand = np.flatnonzero(ratios <= delta + 1e-9)
            if bland:
                r = int(cand[np.argmin(self.basis[cand])])
            else:
                r = int(cand[np.argmax(np.abs(w[cand]))])

            entering_val = self.nb_value[q] + sigma * delta
            self.xB = self.xB - w * (sigma * delta)
            leaving = self.basis[r]
            if sw[r] > 0:
                self.status[leaving] = _AT_LB
                self.nb_value[leaving] = self.lb[leaving]
            else:
                self.status[leaving] = _AT_UB
                self.nb_value[leaving] = self.ub[leaving]

            piv = self.T[r, q]
            self.T[r, :] /= piv
            col = self.T[:, q].copy()
            col[r] = 0.0
            np.multiply(col[:, None], self.T[r, :][None, :], out=self._buf)
            np.subtract(self.T, self._buf, out=self.T)
            d = d - d[q] * self.T[r, :]
            self.basis[r] = q
            self.status[q] = _BASIC
            self.xB[r] = entering_val

    def _evict_artificials(self) -> None:
        """Pivot basic artificial columns out where possible; lock them at zero."""
        ncols_real = self.n_struct + self.m
        for r in range(self.m):
            if self.basis[r] < ncols_real:
                continue
            row = self.T[r, :ncols_real]
            cand = np.flatnonzero(
                (np.abs(row) > 1e-7) & (self.status[:ncols_real] != _BASIC)
            )
            if cand.size == 0:
                continue  # redundant row; artificial stays basic at zero
            q = int(cand[0])
            piv = self.T[r, q]
            leaving = self.basis[r]
            entering_val = self.nb_value[q]
            self.T[r, :] /= piv
            col = self.T[:, q].copy()
            col[r] = 0.0
            np.multiply(col[:, None], self.T[r, :][None, :], out=self._buf)
            np.subtract(self.T, self._buf, out=self.T)
            self.status[leaving] = _AT_LB
            self.nb_value[leaving] = 0.0
            self.basis[r] = q
            self.status[q] = _BASIC
            self.xB[r] = entering_val
        # artificials may never re-enter
        self.ub[ncols_real:] = 0.0

    def run(self) -> LpSolution:
        self._setup()

        if self.n_art:
            cost1 = np.zeros(self.A.shape[1])
            cost1[self.n_struct + self.m :] = 1.0
            outcome = self._iterate(cost1)
            if outcome == "iteration_limit":
                return LpSolution(ITERATION_LIMIT, None, None, self.iterations)
            if outcome == "unbounded":
                raise ArithmeticError("phase-1 objective cannot be unbounded")
            art_level = float(cost1[self.basis] @ self.xB)
            scale = max(1.0, float(np.abs(self.b).max()) if self.m else 1.0)
            if art_level > self.feas_tol * scale:
                return LpSolution(INFEASIBLE, None, None, self.iterations)
            self._evict_artificials()

        for attempt in range(4):
            outcome = self._iterate(self.cost)
            if outcome == "iteration_limit":
                return LpSolution(ITERATION_LIMIT, None, None, self.iterations)
            if outcome == "unbounded":
                return LpSolution(UNBOUNDED, None, None, self.iterations)
            x = self._assemble_x()
            if self._violation(x) <= self.feas_tol:
                obj = float(self.cost[: self.n_struct] @ x[: self.n_struct])
                return LpSolution(OPTIMAL, obj, x[: self.n_struct].copy(), self.iterations)
            self._refactorize()  # numerical drift: rebuild and keep iterating
        raise ArithmeticError(
            f"simplex failed to reach a verified solution for {self.p.name!r}"
        )
