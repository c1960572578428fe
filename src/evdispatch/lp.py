"""Bounded-variable linear programming with a dense two-phase simplex.

Self-contained minimization solver for problems with box-constrained
variables and sparse linear rows. Built for the sizes this package produces
(a few hundred rows and columns), where a dense tableau is both fast enough
and easy to verify.

Algorithm notes:
- every row gets a slack variable whose bounds are the only encoding of the
  row sense (``<=`` slack in [0, inf), ``>=`` in (-inf, 0], ``=`` fixed at
  zero); phase 1 adds artificial columns only for rows whose slack cannot
  absorb the initial residual;
- pricing is Dantzig (most negative reduced cost) with a permanent switch to
  Bland's rule after a stall, which guarantees termination;
- a bound flip is taken when the entering variable hits its opposite bound
  before any basic variable hits one of its own;
- optimality and primal feasibility are re-verified from the original data
  before a solution is declared optimal: structurals and the implied slacks
  ``b - A x`` are checked against their bounds, and a NaN anywhere fails the
  check; on drift the tableau is rebuilt from the current basis and iteration
  continues.

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
    """Raised for malformed problems (inverted bounds, non-finite data, unknown variable ids)."""


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
        if lb == INF or ub == -INF or not np.isfinite(cost):
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
        if not np.isfinite(rhs):
            raise LpError(f"constraint {name!r}: non-finite right-hand side {rhs}")
        merged: dict[int, float] = {}
        for var, coef in terms:
            if not 0 <= var < len(self._lb):
                raise LpError(f"constraint {name!r}: unknown variable id {var}")
            if not np.isfinite(coef):
                raise LpError(f"constraint {name!r}: non-finite coefficient {coef} on variable {var}")
            merged[var] = merged.get(var, 0.0) + float(coef)
        self._rows.append(merged)
        self._senses.append(sense)
        self._rhs.append(float(rhs))
        self._row_names.append(name or f"r{len(self._rows) - 1}")
        return len(self._rows) - 1

    def variable_name(self, var: int) -> str:
        return self._var_names[var]

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
            out.append(f" {name}:{body} {sense} {rhs:.12g}")
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
    return _Simplex(p, feas_tol=feas_tol, max_iter=max_iter).run()


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
        A = np.zeros((m, n + m))
        for i, row in enumerate(p._rows):
            for var, coef in row.items():
                A[i, var] = coef
        A[np.arange(m), n + np.arange(m)] = 1.0
        self.b = np.array(p._rhs, dtype=float)

        # the slack bounds are the one place the row sense is encoded
        sense = np.array(p._senses, dtype=str)
        self.A = A
        self.lb = np.concatenate([np.array(p._lb), np.where(sense == ">=", -INF, 0.0)])
        self.ub = np.concatenate([np.array(p._ub), np.where(sense == "<=", INF, 0.0)])
        self.cost = np.concatenate([np.array(p._cost), np.zeros(m)])
        self.max_iter = max_iter if max_iter is not None else 200 * (m + n + 20)
        self.iterations = 0

    # -- setup -------------------------------------------------------------

    def _setup(self) -> None:
        n, m = self.n_struct, self.m
        ncols = self.A.shape[1]
        status = np.full(ncols, _FREE, dtype=np.int8)
        status[np.isfinite(self.ub)] = _AT_UB
        status[np.isfinite(self.lb)] = _AT_LB  # prefer the lower bound when both are finite

        xbar = np.where(status == _AT_LB, self.lb, np.where(status == _AT_UB, self.ub, 0.0))
        resid = self.b - self.A @ xbar

        # each slack absorbs its row's residual if that fits its bounds;
        # otherwise it rests at the nearer bound and an artificial column
        # signed like the remainder starts basic in its place
        lbS, ubS = self.lb[n:], self.ub[n:]
        r = resid + xbar[n:]
        clamped = np.minimum(np.maximum(r, lbS), ubS)
        art = ~((lbS - 1e-12 <= r) & (r <= ubS + 1e-12))
        status[n:] = np.where(art, np.where(clamped == lbS, _AT_LB, _AT_UB), _BASIC)
        sigma = np.where(art, np.where(r - clamped > 0, 1.0, -1.0), 1.0)
        art_rows = np.flatnonzero(art)
        n_art = art_rows.size
        art_cols = np.zeros((m, n_art))
        art_cols[art_rows, np.arange(n_art)] = sigma[art_rows]
        basis = n + np.arange(m)
        basis[art_rows] = ncols + np.arange(n_art)

        self.A = np.hstack([self.A, art_cols])
        self.lb = np.concatenate([self.lb, np.zeros(n_art)])
        self.ub = np.concatenate([self.ub, np.full(n_art, INF)])
        self.cost = np.concatenate([self.cost, np.zeros(n_art)])
        self.n_art = n_art
        self.basis = basis
        self.status = np.concatenate([status, np.full(n_art, _BASIC, dtype=np.int8)])
        self.xB = np.where(art, np.abs(r - clamped), clamped)
        # initial basis matrix is diagonal +-1, so B^-1 A is a row rescale
        self.T = self.A * sigma[:, None]
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
        """Worst bound/row violation of a candidate point, original data.

        Rows are checked through their implied slacks ``b - A x`` against the
        slack bounds; ``np.max`` propagates NaN, so a NaN point never passes.
        """
        n = self.n_struct
        xs = np.concatenate([x[:n], self.b - self.A[:, :n] @ x[:n]])
        lo, hi = self.lb[: n + self.m], self.ub[: n + self.m]
        return float(np.max(np.maximum(lo - xs, xs - hi), initial=0.0))

    # -- core iteration ----------------------------------------------------

    def _price(self, d: np.ndarray, bland: bool) -> int:
        """Pick the entering column, or -1 when none is eligible (optimality)."""
        at_lb = self.status == _AT_LB
        at_ub = self.status == _AT_UB
        free = self.status == _FREE
        score = np.zeros(d.size)
        score[at_lb] = -d[at_lb]
        score[at_ub] = d[at_ub]
        score[free] = np.abs(d[free])
        score[self.ub - self.lb <= 0.0] = -INF  # fixed vars never enter
        score[self.status == _BASIC] = -INF
        eligible = score > self.opt_tol
        if not eligible.any():
            return -1
        # argmax of the mask is the first eligible column, which Bland's rule takes
        return int(np.argmax(eligible if bland else score))

    def _pivot(self, r: int, q: int, entering_val: float, leaving_status: int) -> None:
        """Exchange basic row ``r`` for column ``q``; the leaver rests at a bound."""
        leaving = self.basis[r]
        self.status[leaving] = leaving_status
        self.nb_value[leaving] = self.lb[leaving] if leaving_status == _AT_LB else self.ub[leaving]
        self.T[r, :] /= self.T[r, q]
        col = self.T[:, q].copy()
        col[r] = 0.0
        np.multiply(col[:, None], self.T[r, :][None, :], out=self._buf)
        np.subtract(self.T, self._buf, out=self.T)
        self.basis[r] = q
        self.status[q] = _BASIC
        self.xB[r] = entering_val

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
            self._pivot(r, q, entering_val, _AT_LB if sw[r] > 0 else _AT_UB)
            d = d - d[q] * self.T[r, :]

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
            self._pivot(r, q, self.nb_value[q], _AT_LB)
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
