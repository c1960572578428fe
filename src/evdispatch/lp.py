"""Bounded-variable linear programming with a dense simplex.

Self-contained minimization solver for problems with box-constrained
variables and sparse linear rows. Built for the sizes this package produces
(a few hundred rows and columns), where a dense tableau is both fast enough
and easy to verify.

Algorithm notes:
- every row gets a slack variable whose bounds are the only encoding of the
  row sense (``<=`` slack in [0, inf), ``>=`` in (-inf, 0], ``=`` fixed at
  zero). There are no artificial columns: every slack starts basic at its
  row residual, even outside its bounds, and a triangular crash makes one
  structural column basic per equality row (Bixby, ORSA J. Comput. 4(3), 1992);
- phase 1 is Wolfe's composite method in the same pivot loop: it minimises
  the sum of the basic variables' bound violations, prices from the
  infeasible rows only, and lets an infeasible basic variable block at the
  bound it violates (SIAM Rev. 7(1), 1965);
- the tableau ``T = B^-1 A`` is stored column-major, and a pivot updates
  only the columns where the normalised pivot row is nonzero: every other
  column is unchanged by the rank-1 update. Each updated column is one
  contiguous row of the C-ordered view ``T.T``, and each updated entry gets
  the same arithmetic as a full update, so skipping columns changes no bit;
- reduced costs are computed from a row-major copy of ``T``: BLAS uses a
  different kernel for a column-major operand, its sums differ in the last
  bits, and those bits feed pricing decisions;
- pricing is Dantzig (most negative reduced cost) with a permanent switch to
  Bland's rule after a stall, which guarantees termination. The score comes
  from one lookup by column status, and fixed columns never enter;
- a bound flip is taken when the entering variable hits its opposite bound
  before any basic variable hits one of its own;
- optimality and primal feasibility are re-verified from the original data
  before a solution is declared optimal: structurals and the implied slacks
  ``b - A x`` are checked against their bounds, and a NaN anywhere fails the
  check; on drift the tableau is rebuilt from the current basis and both
  phases run again.

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
# pricing score per unit reduced cost, indexed by status: a column at its
# lower bound gains from a negative d, one at its upper bound from a positive
# d; basic columns score 0 and free columns are overwritten with |d|
_SCORE_SIGN = np.array([-1.0, 1.0, 0.0, 0.0])


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


@dataclass(frozen=True)
class SolveStats:
    """What one solve did; the crash pivots of set-up are not iterations,
    the phase-1 and phase-2 pivots and the bound flips are."""

    n: int  # structural columns
    m: int  # rows
    crash_columns: int
    phase1_pivots: int
    phase2_pivots: int
    bound_flips: int
    bland_from: int | None  # iteration at which Bland's rule took over, if it did
    refactorizations: int
    max_violation: float  # worst bound or row violation of the final point


@dataclass
class LpSolution:
    """Solver outcome. ``x`` holds one value per problem variable when optimal."""

    status: str
    objective: float | None
    x: np.ndarray | None
    iterations: int
    stats: SolveStats | None = None

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

        # columns: structural | slacks
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
        self.fixed = self.ub - self.lb <= 0.0  # fixed columns never enter
        self.max_iter = max_iter if max_iter is not None else 200 * (m + n + 20)
        self.iterations = 0
        self.crash_columns = self.phase1_pivots = self.flips = self.refactorizations = 0
        self.bland_from: int | None = None

    # -- setup -------------------------------------------------------------

    def _setup(self) -> None:
        """Slack basis, then a triangular crash: each equality row in order
        takes the structural column with the widest nonzero bound range
        (ties to the lowest index) among those nonzero in it and zero in
        every row taken before it."""
        n, m = self.n_struct, self.m
        status = np.full(n + m, _FREE, dtype=np.int8)
        status[np.isfinite(self.ub)] = _AT_UB
        status[np.isfinite(self.lb)] = _AT_LB  # prefer the lower bound when both are finite
        status[n:] = _BASIC
        self.status = status
        self.nb_value = np.where(status == _AT_LB, self.lb, np.where(status == _AT_UB, self.ub, 0.0))
        self.basis = n + np.arange(m)
        self.xB = self.b - self.A[:, :n] @ self.nb_value[:n]
        self.T = np.array(self.A, order="F")  # B = I; a copy, never a view of A
        width = self.ub[:n] - self.lb[:n]
        blocked = np.zeros(n, dtype=bool)
        crash = []
        for i in map(int, np.flatnonzero(self.fixed[n:])):  # the equality rows
            nonzero = [j for j, coef in self.p._rows[i].items() if coef != 0.0]
            cand = [j for j in nonzero if not blocked[j] and width[j] > 0.0]
            if cand:
                crash.append((i, min(cand, key=lambda j: (-width[j], j))))
                blocked[nonzero] = True
        # the picks are triangular, so in reverse order every pivot row is an
        # original row; each pivot moves its column until the slack is zero
        for r, q in reversed(crash):
            delta = self.xB[r] / self.T[r, q]
            self.xB = self.xB - self.T[:, q] * delta
            self._pivot(r, q, self.nb_value[q] + delta, _AT_LB)
        self.crash_columns = len(crash)

    # -- helpers -----------------------------------------------------------

    def _reduced_costs(self) -> np.ndarray:
        # on a row-major copy, so the sums keep their last bits (see above)
        return self.cost - self.cost[self.basis] @ np.ascontiguousarray(self.T)

    def _refactorize(self) -> None:
        """Rebuild the tableau and basic values from the original columns."""
        self.refactorizations += 1
        B = self.A[:, self.basis]
        nb_mask = self.status != _BASIC
        contrib = self.A[:, nb_mask] @ self.nb_value[nb_mask]
        try:
            self.T = np.asfortranarray(np.linalg.solve(B, self.A))
            self.xB = np.linalg.solve(B, self.b - contrib)
        except np.linalg.LinAlgError as exc:
            raise ArithmeticError(f"singular basis in {self.p.name!r}: {exc}") from exc

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
        return float(np.max(np.maximum(self.lb - xs, xs - self.ub), initial=0.0))

    # -- core iteration ----------------------------------------------------

    def _price(self, d: np.ndarray, bland: bool) -> int:
        """Pick the entering column, or -1 when none is eligible (optimality)."""
        score = _SCORE_SIGN[self.status] * d
        free = self.status == _FREE
        score[free] = np.abs(d[free])
        score[self.fixed] = -INF
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
        # only columns with a nonzero pivot-row entry change; each is one
        # contiguous row of the C-ordered view T.T
        cols = np.flatnonzero(self.T[r])
        Tt = self.T.T
        Tt[cols] -= self.T[r, cols][:, None] * col[None, :]
        self.basis[r] = q
        self.status[q] = _BASIC
        self.xB[r] = entering_val

    def _iterate(self, phase1: bool) -> str:
        """Pivot until no column improves the phase's objective: the sum of
        bound violations in phase 1, which ends infeasible above
        ``feas_tol`` times the largest |rhs|; the cost in phase 2."""
        d = None if phase1 else self._reduced_costs()
        stall = 0
        stall_limit = 50 + 2 * (self.m + self.n_struct)
        verified = False
        while True:
            bland = self.bland_from is not None
            lbB = self.lb[self.basis]
            ubB = self.ub[self.basis]
            out = np.zeros(self.m, dtype=bool)
            if phase1:
                gap = np.maximum(lbB - self.xB, self.xB - ubB)
                out = gap > self.pivot_tol
                if not out.any():
                    return OPTIMAL
                # a basic variable costs -1 below its lower bound, +1 above its
                # upper, and blocks only at the bound it violates
                above = out & (self.xB > ubB)
                d = np.where(above[out], -1.0, 1.0) @ np.ascontiguousarray(self.T[out])
                lbB, ubB = (np.where(above, ubB, np.where(out, -INF, lbB)),
                            np.where(above, INF, np.where(out, lbB, ubB)))
            q = self._price(d, bland)
            if q < 0:
                if phase1:
                    scale = max(1.0, float(np.abs(self.b).max()))
                    return INFEASIBLE if gap[out].sum() > self.feas_tol * scale else OPTIMAL
                if verified:
                    return OPTIMAL
                # re-derive reduced costs from scratch to rule out drift
                d = self._reduced_costs()
                verified = True
                continue
            verified = False
            if self.iterations >= self.max_iter:
                return ITERATION_LIMIT
            self.iterations += 1

            if self.status[q] == _AT_UB or (self.status[q] == _FREE and d[q] > 0):
                sigma = -1.0
            else:
                sigma = 1.0
            w = self.T[:, q]
            sw = sigma * w
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
                if phase1:
                    raise ArithmeticError("phase-1 objective cannot be unbounded")
                return UNBOUNDED

            if delta <= 1e-12:
                stall += 1
                if stall > stall_limit and not bland:
                    self.bland_from = self.iterations
            else:
                stall = 0

            if t_flip <= t_rows:
                # entering variable runs to its opposite bound; basis unchanged
                self.flips += 1
                self.xB = self.xB - w * (sigma * t_flip)
                self.status[q] = _AT_UB if self.status[q] == _AT_LB else _AT_LB
                self.nb_value[q] = self.ub[q] if self.status[q] == _AT_UB else self.lb[q]
                continue

            cand = np.flatnonzero(ratios <= delta + 1e-9)
            if bland:
                r = int(cand[np.argmin(self.basis[cand])])
            else:
                r = int(cand[np.argmax(np.abs(w[cand]))])

            self.phase1_pivots += phase1
            entering_val = self.nb_value[q] + sigma * delta
            self.xB = self.xB - w * (sigma * delta)
            # a feasible leaver rests at the bound it moves toward, an
            # infeasible one at the bound it violated, on the other side
            self._pivot(r, q, entering_val, _AT_LB if (sw[r] > 0) != out[r] else _AT_UB)
            if not phase1:
                d = d - d[q] * self.T[r, :]

    def run(self) -> LpSolution:
        self._setup()
        for attempt in range(4):
            status = self._iterate(phase1=True)
            if status == OPTIMAL:
                status = self._iterate(phase1=False)
            x = self._assemble_x()
            violation = self._violation(x)
            if status != OPTIMAL or violation <= self.feas_tol:
                break
            self._refactorize()  # numerical drift: rebuild and keep iterating
        else:
            raise ArithmeticError(
                f"simplex failed to reach a verified solution for {self.p.name!r}"
            )
        n = self.n_struct
        stats = SolveStats(
            n, self.m, self.crash_columns, self.phase1_pivots,
            self.iterations - self.phase1_pivots - self.flips, self.flips,
            self.bland_from, self.refactorizations, violation,
        )
        if status != OPTIMAL:
            return LpSolution(status, None, None, self.iterations, stats)
        return LpSolution(status, float(self.cost[:n] @ x[:n]), x[:n].copy(), self.iterations, stats)
