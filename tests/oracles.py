"""Independent oracles used by the tests.

These deliberately avoid the package's solver paths: LPs are checked against
brute-force vertex enumeration, and the three-step arbitrage case against a
discharge-grid scan with the recharge amount resolved exactly. The one
exception is ``DenseSimplex``, the reference kernel the solver must match
pivot for pivot.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from evdispatch import lp


@lru_cache(maxsize=None)
def _combo_index(n_hyp: int, k: int) -> np.ndarray:
    combos = list(itertools.combinations(range(n_hyp), k))
    return np.array(combos, dtype=int) if combos else np.zeros((0, k), dtype=int)


def vertex_enumeration_optimum(
    c: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
    A: np.ndarray,
    senses: list[str],
    b: np.ndarray,
    feas_tol: float = 1e-7,
) -> float | None:
    """Minimum of c.x over the polytope, by enumerating candidate vertices.

    Every vertex of a bounded polytope lies on n active hyperplanes drawn
    from the rows and the finite variable bounds; equality rows are active at
    every feasible point, so they join every candidate set. Returns None when
    no feasible vertex exists.
    """
    n = c.size
    m = A.shape[0]
    rows = [A[i] for i in range(m)]
    rhs = [b[i] for i in range(m)]
    # all-zero rows are not hyperplanes: trivially satisfied or infeasible
    nonzero = [i for i in range(m) if np.any(A[i] != 0.0)]
    for i in range(m):
        if i in nonzero:
            continue
        if senses[i] == "=" and abs(b[i]) > feas_tol:
            return None
        if senses[i] == "<=" and b[i] < -feas_tol:
            return None
        if senses[i] == ">=" and b[i] > feas_tol:
            return None
    # keep only a linearly independent subset of equality rows as forced
    # hyperplanes; redundant ones still participate in the feasibility check
    eq_idx: list[int] = []
    for i in nonzero:
        if senses[i] != "=":
            continue
        trial = A[eq_idx + [i]]
        if np.linalg.matrix_rank(trial, tol=1e-9) == len(eq_idx) + 1:
            eq_idx.append(i)
    ineq_idx = [i for i in nonzero if senses[i] != "="]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        if np.isfinite(lb[j]):
            rows.append(e)
            rhs.append(lb[j])
        if np.isfinite(ub[j]):
            rows.append(e)
            rhs.append(ub[j])
    H = np.array(rows)
    hb = np.array(rhs)

    base = list(eq_idx)
    k = n - len(base)
    if k < 0:
        return None
    pool = ineq_idx + list(range(m, H.shape[0]))
    combos = _combo_index(len(pool), k)
    if combos.size == 0 and k > 0:
        return None
    pool_arr = np.array(pool, dtype=int)
    if k > 0:
        idx = np.concatenate(
            [np.tile(np.array(base, dtype=int), (combos.shape[0], 1)), pool_arr[combos]],
            axis=1,
        )
    else:
        idx = np.array([base], dtype=int)

    M = H[idx]               # (K, n, n)
    rhs_all = hb[idx]        # (K, n)
    dets = np.abs(np.linalg.det(M))
    keep = dets > 1e-9
    if not keep.any():
        return None
    X = np.linalg.solve(M[keep], rhs_all[keep][..., None])[..., 0]  # (K', n)

    ok = np.all(X >= lb[None, :] - feas_tol, axis=1) & np.all(X <= ub[None, :] + feas_tol, axis=1)
    if m:
        act = X @ A.T
        for pos, i in enumerate(range(m)):
            s = senses[i]
            if s == "<=":
                ok &= act[:, pos] <= b[i] + feas_tol
            elif s == ">=":
                ok &= act[:, pos] >= b[i] - feas_tol
            else:
                ok &= np.abs(act[:, pos] - b[i]) <= feas_tol
    if not ok.any():
        return None
    return float((X[ok] @ c).min())


def random_bounded_lp(rng: np.random.Generator):
    """A feasible LP with finite variable bounds (hence a bounded optimum).

    Feasibility holds by construction: right-hand sides are placed so a
    random interior point satisfies every row.
    """
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 7))
    lb = rng.uniform(-5.0, 0.0, n)
    ub = lb + rng.uniform(0.5, 6.0, n)
    c = rng.uniform(-2.0, 2.0, n)
    A = rng.uniform(-2.0, 2.0, (m, n))
    A[rng.random((m, n)) < 0.25] = 0.0
    x0 = rng.uniform(lb, ub)
    senses: list[str] = []
    b = np.zeros(m)
    for i in range(m):
        u = rng.random()
        act = float(A[i] @ x0)
        if u < 0.45:
            senses.append("<=")
            b[i] = act + rng.uniform(0.0, 2.0)
        elif u < 0.9:
            senses.append(">=")
            b[i] = act - rng.uniform(0.0, 2.0)
        else:
            senses.append("=")
            b[i] = act
    return c, lb, ub, A, senses, b


def build_problem(c, lb, ub, A, senses, b) -> lp.LpProblem:
    p = lp.LpProblem("random")
    ids = [p.add_variable(lb[j], ub[j], c[j], f"x{j}") for j in range(c.size)]
    for i in range(A.shape[0]):
        terms = [(ids[j], A[i, j]) for j in range(c.size) if A[i, j] != 0.0]
        if not terms:
            terms = [(ids[0], 0.0)]
        p.add_constraint(terms, senses[i], b[i], f"r{i}")
    return p


def micro_case_grid_optimum(resolution: float = 1e-3) -> float:
    """Grid oracle for the 3-step arbitrage case.

    Scans the step-1 discharge on a grid; for each value the cheapest
    recharge split is exact (both buy steps share one price, so only the
    total matters). Checks the stock floor/ceiling along the way.
    """
    cap, soe0, soe_min = 20.0, 12.0, 4.0
    eta_sch, eta_dch = 0.95, 0.85
    cp = 4.0
    d = np.arange(0.0, cp + resolution / 2, resolution)
    d = d[soe0 - d / eta_dch >= soe_min - 1e-12]      # stock floor after discharge
    recharge = (d / eta_dch) / eta_sch                # restore the end stock
    feasible = recharge <= 2 * cp + 1e-12             # two charging steps available
    cost = 0.1 * recharge - 0.5 * d
    return float(cost[feasible].min())


def block_diagonal_scipy_optimum(problems: list[lp.LpProblem]) -> float:
    """Optimum of the joint LP that stacks ``problems`` block-diagonally,
    solved by scipy's HiGHS. Callers skip when scipy is missing."""
    from scipy.optimize import linprog
    from scipy.sparse import block_diag

    def dense(p: lp.LpProblem) -> np.ndarray:
        A = np.zeros((p.num_constraints, p.num_variables))
        for i, row in enumerate(p._rows):
            for j, coef in row.items():
                A[i, j] = coef
        return A

    A = block_diag([dense(p) for p in problems], format="csr")
    senses = np.array([s for p in problems for s in p._senses])
    b = np.array([r for p in problems for r in p._rhs])
    c = np.array([x for p in problems for x in p._cost])
    bounds = [(lo, hi) for p in problems for lo, hi in zip(p._lb, p._ub)]
    sign = np.where(senses == ">=", -1.0, 1.0)  # flip >= rows into <= form
    ineq = senses != "="
    res = linprog(
        c,
        A_ub=A[ineq].multiply(sign[ineq][:, None]).tocsr(),
        b_ub=b[ineq] * sign[ineq],
        A_eq=A[~ineq],
        b_eq=b[~ineq],
        bounds=bounds,
        method="highs",
    )
    if res.status != 0:
        raise AssertionError(f"scipy could not solve the joint LP: {res.message}")
    return float(res.fun)


class DenseSimplex(lp._Simplex):
    """The simplex with its plain dense kernel, as the reference for the
    solver's sparse one: a row-major tableau, a rank-1 update of every
    column through a scratch buffer, and pricing by one mask per status.

    The solver's kernel must reproduce this one bit for bit: the same
    pivots, iterations, ``x`` and objective.
    """

    def _setup(self) -> None:
        # the crash pivots in the base set-up already go through _pivot
        self._buf = np.empty(self.A.shape)
        super()._setup()
        self.T = np.ascontiguousarray(self.T)

    def _refactorize(self) -> None:
        super()._refactorize()
        self.T = np.ascontiguousarray(self.T)

    def _price(self, d: np.ndarray, bland: bool) -> int:
        at_lb = self.status == lp._AT_LB
        at_ub = self.status == lp._AT_UB
        free = self.status == lp._FREE
        score = np.zeros(d.size)
        score[at_lb] = -d[at_lb]
        score[at_ub] = d[at_ub]
        score[free] = np.abs(d[free])
        score[self.ub - self.lb <= 0.0] = -lp.INF
        score[self.status == lp._BASIC] = -lp.INF
        eligible = score > self.opt_tol
        if not eligible.any():
            return -1
        return int(np.argmax(eligible if bland else score))

    def _pivot(self, r: int, q: int, entering_val: float, leaving_status: int) -> None:
        leaving = self.basis[r]
        self.status[leaving] = leaving_status
        self.nb_value[leaving] = self.lb[leaving] if leaving_status == lp._AT_LB else self.ub[leaving]
        self.T[r, :] /= self.T[r, q]
        col = self.T[:, q].copy()
        col[r] = 0.0
        np.multiply(col[:, None], self.T[r, :][None, :], out=self._buf)
        np.subtract(self.T, self._buf, out=self.T)
        self.basis[r] = q
        self.status[q] = lp._BASIC
        self.xB[r] = entering_val
