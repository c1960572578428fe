"""Independent oracles used by the tests.

These deliberately avoid the package's solver paths: LPs are checked against
brute-force vertex enumeration, and the three-step arbitrage case against a
discharge-grid scan with the recharge amount resolved exactly. The
exceptions are ``DenseSimplex``, the reference kernel the solver must match
pivot for pivot, ``window_lp_by_rows``, the reference for the window LP
that ``evba`` builds from arrays (with ``two_plane``, the same LP with the
wear cost as an epigraph variable over both planes, against which the
one-row wear model is checked), ``crash_by_rows``, the reference for the
crash that ``lp`` runs in arrays, ``EtaLoopSimplex``, the bit-for-bit
reference for the prefix sums of ``lp``'s chain path,
``cost_breakdown_by_steps``, the reference for the cost breakdown that
``evba`` sums from arrays, and ``check_schedule_by_steps``, the reference
for the auditor that ``analysis`` runs in array passes. These references
look up each step's plug one step at a time, through ``cp_at``,
``grid_fee`` and ``caps_by_step``, and never through ``Scenario.plugs``,
the table the LP build, the cost breakdown and the auditor share.
"""

from __future__ import annotations

import copy
import itertools
from functools import lru_cache

import numpy as np

from evdispatch import evba, lp
from evdispatch.analysis import Violation, ViolationReport
from evdispatch.degradation import plane_values
from evdispatch.domain import FAST, SLOW
from evdispatch.lp import FEAS_TOL


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


def random_banded_lp(rng: np.random.Generator):
    """A feasible LP with finite variable bounds whose every column is
    nonzero on at most three consecutive rows, as in a window LP, so the
    tableau's columns stay narrow where ``random_bounded_lp``'s are dense.

    Feasibility holds by construction, as in ``random_bounded_lp``.
    """
    m = int(rng.integers(6, 25))
    n = int(rng.integers(m, 2 * m + 1))
    A = np.zeros((m, n))
    for j in range(n):
        top = int(rng.integers(0, m))
        rows = slice(top, min(top + int(rng.integers(1, 4)), m))
        A[rows, j] = rng.uniform(-2.0, 2.0, rows.stop - top)
    lb = rng.uniform(-3.0, 0.0, n)
    ub = lb + rng.uniform(0.5, 4.0, n)
    c = rng.uniform(-2.0, 2.0, n)
    act = A @ rng.uniform(lb, ub)
    u = rng.random(m)
    senses = np.where(u < 0.4, "<=", np.where(u < 0.8, ">=", "=")).tolist()
    b = act + np.where(u < 0.4, rng.uniform(0.0, 2.0, m), np.where(u < 0.8, -rng.uniform(0.0, 2.0, m), 0.0))
    return c, lb, ub, A, senses, b


def random_free_bound_lp(rng: np.random.Generator):
    """A random LP whose columns are boxed, bounded above only or bounded
    below only and whose rows need not meet, so it may be optimal,
    infeasible or unbounded."""
    n, m = int(rng.integers(2, 7)), int(rng.integers(1, 7))
    A = rng.uniform(-2.0, 2.0, (m, n))
    A[rng.random((m, n)) < 0.25] = 0.0
    lb = rng.uniform(-5.0, 0.0, n)
    ub = lb + rng.uniform(0.5, 6.0, n)
    kind = rng.integers(0, 3, n)  # boxed, bounded above, bounded below
    lb[kind == 1] = -lp.INF
    ub[kind == 2] = lp.INF
    senses = rng.choice(["<=", ">=", "="], m, p=[0.45, 0.45, 0.1]).tolist()
    return rng.uniform(-2.0, 2.0, n), lb, ub, A, senses, rng.uniform(-3.0, 3.0, m)


class RowBuilder:
    """Row-by-row reference for building an ``LpProblem``, sharing no code
    with the package: ``var`` adds a variable and returns its id, ``row``
    adds a row, summing its duplicate terms in the order given, as
    ``0.0 + c1 + c2``, and sorting its columns; ``problem`` hands the CSR
    arrays to ``LpProblem``."""

    def __init__(self, name: str = ""):
        self.name, self.vars, self.rows = name, [], []

    def var(self, lb: float = 0.0, ub: float = lp.INF, cost: float = 0.0, name: str = "") -> int:
        self.vars.append((lb, ub, cost, name))
        return len(self.vars) - 1

    def row(self, terms, sense: str, rhs: float, name: str = "") -> None:
        merged: dict[int, float] = {}
        for j, c in terms:
            merged[j] = merged.get(j, 0.0) + c
        self.rows.append((sorted(merged.items()), sense, rhs, name))

    def problem(self) -> lp.LpProblem:
        lb, ub, cost, var_names = map(list, zip(*self.vars)) if self.vars else ([], [], [], [])
        terms, senses, rhs, row_names = map(list, zip(*self.rows)) if self.rows else ([], [], [], [])
        return lp.LpProblem(self.name, lb, ub, cost, var_names, np.cumsum([0] + [len(t) for t in terms]),
                            [j for t in terms for j, _ in t], [c for t in terms for _, c in t],
                            senses, rhs, row_names)


def build_problem(c, lb, ub, A, senses, b) -> lp.LpProblem:
    p = RowBuilder("random")
    ids = [p.var(lb[j], ub[j], c[j], f"x{j}") for j in range(c.size)]
    for i in range(A.shape[0]):
        terms = [(ids[j], A[i, j]) for j in range(c.size) if A[i, j] != 0.0]
        if not terms:
            terms = [(ids[0], 0.0)]
        p.row(terms, senses[i], b[i], f"r{i}")
    return p.problem()


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


def block_diagonal_scipy_optimum(problems: list[lp.LpProblem], method: str = "highs") -> float:
    """Optimum of the joint LP that stacks ``problems`` block-diagonally,
    solved by scipy's HiGHS (``method`` as ``linprog`` takes it). Callers
    skip when scipy is missing."""
    from scipy.optimize import linprog
    from scipy.sparse import block_diag, csr_matrix

    A = block_diag([csr_matrix((p._data, p._indices, p._indptr), shape=(p.num_constraints, p.num_variables))
                    for p in problems], format="csr")
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
        method=method,
    )
    if res.status != 0:
        raise AssertionError(f"scipy could not solve the joint LP: {res.message}")
    return float(res.fun)


def cp_at(s, v_idx: int, t: int):
    """The charging point vehicle ``v_idx`` occupies at step ``t``, or None:
    the first one its connectivity mask sets, read from the mask itself."""
    hits = np.flatnonzero(s.connectivity.mask[v_idx, t])
    return s.charging_points[hits[0]] if hits.size else None


def grid_fee(cp, t: int, cal, step_hours: float) -> float:
    """Grid tariff (EUR/kWh) at charging point ``cp`` during step ``t``: the
    low fee when the step starts inside the night band, which runs from
    ``night_start_hour`` up to ``night_end_hour`` and wraps past midnight."""
    hour = (t * step_hours) % 24.0
    start, end = cal.night_start_hour, cal.night_end_hour
    low = start != end and (start <= hour < end if start < end else hour >= start or hour < end)
    return cp.grid_fee_low_eur_per_kwh if low else cp.grid_fee_high_eur_per_kwh


def caps_by_step(s, v, cp, power: evba.PowerMode) -> tuple[float, float]:
    """Upper bounds (slow charge/discharge, fast charge) on vehicle v's flows
    on charging point ``cp`` (None when unplugged) under a power mode."""
    if cp is None:
        return 0.0, 0.0
    if cp.kind == FAST:
        return 0.0, cp.power_limit_kwh_per_step
    if power is evba.PowerMode.FIXED_4KW:
        return evba.FIXED_POWER_KW * s.horizon.step_hours, 0.0
    if power is evba.PowerMode.OBC_ONLY:
        return v.obc_max_kwh_per_step, 0.0
    if power is evba.PowerMode.CP_ONLY:
        return cp.power_limit_kwh_per_step, 0.0
    return min(cp.power_limit_kwh_per_step, v.obc_max_kwh_per_step), 0.0


def _flow_costs_by_step(
    s, ct: evba.CostToggles, cp, t: int
) -> tuple[float, float, float]:
    """Objective coefficients (slow charge, discharge, fast charge) at step t
    on charging point ``cp`` (None when unplugged)."""
    price = float(s.prices.values[t])
    sch = price
    fch = price
    if cp is not None:
        fee_grid = grid_fee(cp, t, s.tariff_calendar, s.horizon.step_hours) if ct.include_grid_tariff else 0.0
        fee_cp = cp.cp_fee_eur_per_kwh if ct.include_cp_tariff else 0.0
        if cp.kind == SLOW:
            sch += fee_grid + fee_cp
        else:
            fch += fee_grid + fee_cp
    return sch, -price, fch


def window_lp_by_rows(
    s,
    v_idx: int,
    steps: np.ndarray,
    init_soe: float,
    floor: float,
    ct: evba.CostToggles,
    power: evba.PowerMode,
    *,
    maximize_departure: bool = False,
    two_plane: bool = False,
) -> lp.LpProblem:
    """Row-by-row reference for a window LP that ``evba._slice_window`` cuts out
    of ``evba._build_vehicle_lp``, built one variable and one row at a time.

    ``init_soe`` is the stock entering the first window step; ``floor`` the
    minimum stock at the last one. Variables run per step in the order
    sch, dch, fch, soe and, when wear is priced, udeg, so a solution vector
    reshapes to one row per step (see _window_schedule). When wear is priced,
    dch pays the wear slope ``s`` and udeg, the excess over ``s * dch``, has
    one row per step. With ``two_plane`` the fifth variable is cdeg instead,
    the wear cost itself, bounded below by both planes in two rows per step,
    and dch pays no slope: the wear model before the one-row form. With
    ``maximize_departure`` the feasible set is the same and the objective is
    the negated stock at the last step.
    """
    v = s.vehicles[v_idx]
    cap = v.capacity_kwh
    soe_lb = v.soe_min_kwh
    soe_ub = v.soe_max_kwh
    last = int(steps[-1])
    p = RowBuilder(f"window[{v.id},{int(steps[0])}..{last}]")
    taper_k = None
    if v.soe_cv_frac < 1.0 - 1e-12:
        taper_k = v.obc_max_kwh_per_step / (cap * (1.0 - v.soe_cv_frac))

    prev_id = None
    for t in map(int, steps):
        cp = cp_at(s, v_idx, t)
        if maximize_departure:
            c_sch = c_dch = c_fch = 0.0
        else:
            c_sch, c_dch, c_fch = _flow_costs_by_step(s, ct, cp, t)
            if ct.include_degradation and not two_plane:
                c_dch += _wear_slope(v)
        slow_cap, fast_cap = caps_by_step(s, v, cp, power)
        sch_id = p.var(0.0, slow_cap, c_sch, f"sch[{v.id},{t}]")
        dch_id = p.var(0.0, slow_cap, c_dch, f"dch[{v.id},{t}]")
        fch_id = p.var(0.0, fast_cap, c_fch, f"fch[{v.id},{t}]")
        lb_t = soe_lb
        if t == last:
            lb_t = max(lb_t, floor)
            if lb_t > soe_ub + 1e-9:
                raise evba._FloorUnreachable(
                    f"vehicle {v.id!r}: required stock {lb_t:.3f} kWh at step {t} "
                    f"exceeds the SOE ceiling {soe_ub:.3f} kWh"
                )
            lb_t = min(lb_t, soe_ub)
        soe_cost = -1.0 if maximize_departure and t == last else 0.0
        soe_id = p.var(lb_t, soe_ub, soe_cost, f"soe[{v.id},{t}]")
        deg_id = None
        if ct.include_degradation:
            deg_cost = 0.0 if maximize_departure else 1.0
            deg_id = p.var(0.0, lp.INF, deg_cost, f"{'cdeg' if two_plane else 'udeg'}[{v.id},{t}]")

        # charge taper above the CC/CV breakpoint; slow charging only
        if taper_k is not None and slow_cap > 0.0 and power is not evba.PowerMode.CP_ONLY:
            p.row(
                [(sch_id, 1.0), (soe_id, taper_k)],
                "<=",
                taper_k * cap,
                name=f"cv[{v.id},{t}]",
            )
        terms = [
            (soe_id, 1.0),
            (sch_id, -v.eta_sch),
            (fch_id, -v.eta_fch),
            (dch_id, 1.0 / v.eta_dch),
        ]
        rhs = -float(s.trips.energy_kwh[v_idx, t]) / v.eta_run
        if prev_id is not None:
            terms.append((prev_id, -1.0))
        else:
            rhs += init_soe
        p.row(terms, "=", rhs, name=f"bal[{v.id},{t}]")
        if deg_id is not None:
            (_two_plane_rows_by_step if two_plane else _wear_row_by_step)(p, deg_id, dch_id, soe_id, v, t)
        prev_id = soe_id
    return p.problem()


def _wear_slope(v) -> float:
    """plane2 per kWh discharged, ``d4 * C_bat * 100 / cap``, clamped at 0."""
    return max(v.degradation.d4 * (v.battery_cost_eur * 100.0 / v.capacity_kwh), 0.0)


def _wear_row_by_step(p: RowBuilder, excess: int, e_dch: int, soe: int, v, t: int) -> None:
    """Add the wear row ``s * e_dch + excess >= plane1`` for one vehicle-step."""
    d = v.degradation
    scale = v.battery_cost_eur * 100.0 / v.capacity_kwh
    # excess + (s - d2') * e_dch + d3' * soe >= C_bat * (d1 + 100 * d3)
    p.row(
        [(excess, 1.0), (e_dch, _wear_slope(v) - d.d2 * scale), (soe, d.d3 * scale)],
        ">=",
        v.battery_cost_eur * (d.d1 + d.d3 * 100.0),
        name=f"deg[{v.id},{t}]",
    )


def _two_plane_rows_by_step(
    p: RowBuilder, c_deg: int, e_dch: int, soe: int, v, t: int
) -> None:
    """Add the two epigraph rows ``c_deg >= plane`` for one vehicle-step.

    ``c_deg`` must carry a +1 objective coefficient for the epigraph to be
    tight at the optimum.
    """
    cap = v.capacity_kwh
    d = v.degradation
    scale = v.battery_cost_eur * 100.0 / cap
    # plane1: c_deg - d2' * e_dch + d3' * soe >= C_bat * (d1 + 100 * d3)
    p.row(
        [(c_deg, 1.0), (e_dch, -d.d2 * scale), (soe, d.d3 * scale)],
        ">=",
        v.battery_cost_eur * (d.d1 + d.d3 * 100.0),
        name=f"deg1[{v.id},{t}]",
    )
    # plane2: c_deg - d4' * e_dch >= 0
    p.row(
        [(c_deg, 1.0), (e_dch, -d.d4 * scale)],
        ">=",
        0.0,
        name=f"deg2[{v.id},{t}]",
    )


def crash_by_rows(sim: lp._Simplex) -> tuple[list[int], list[int]]:
    """Row-by-row reference for the crash ``_Simplex._setup`` runs: the
    slack basis, in which each equality row in turn takes the widest-range
    structural column that is nonzero in it and zero in every row taken
    before it (ties to the lowest index). Returns the basis and the taken
    rows."""
    n, m = sim.n_struct, sim.m
    A, width = dense_A(sim), sim.ub[:n] - sim.lb[:n]
    basis, taken = list(range(n, n + m)), []
    for i in range(m):
        if sim.lb[n + i] != sim.ub[n + i]:
            continue
        best = None
        for j in range(n):
            if A[i, j] == 0.0 or width[j] <= 0.0 or np.any(A[taken, j] != 0.0):
                continue
            if best is None or width[j] > width[best]:
                best = j
        if best is not None:
            basis[i] = best
            taken.append(i)
    return basis, taken


def dense_A(sim: lp._Simplex) -> np.ndarray:
    """The structural block ``A`` of a solver's problem as a dense array,
    scattered from its sparse rows."""
    A = np.zeros((sim.m, sim.n_struct))
    A[sim.row_of, sim.p._indices] = sim.p._data
    return A


class DenseSimplex(lp._Simplex):
    """The simplex with its plain dense kernel, as the reference for the
    solver's revised one: a row-major tableau, a rank-1 update of every
    column through a scratch buffer, pricing by one mask per status, and a
    pivot loop that reads the basic bounds from the basis and runs its ratio
    test by boolean masks.

    In exact arithmetic the solver takes this kernel's pivots. It sums
    reduced costs in another order, from its factor, so where two columns
    tie to the last bits it may pivot otherwise and end at another optimal
    vertex; the two agree on statuses and on objectives to 1e-9 relative.
    Its tableau is full width, one column per variable, fixed ones
    included; it shares only the problem's arrays, the set-up residual
    ``b - A x`` from the sparse rows, the ``run`` loop and the final
    verification with the solver.
    """

    def _setup(self) -> None:
        """Slack basis, then the triangular crash: each equality row in order
        takes the widest-range structural column nonzero in it and zero in
        every row taken before it (ties to the lowest index)."""
        n, m = self.n_struct, self.m
        self.full = np.hstack([dense_A(self), np.eye(m)])  # [A | I]
        self.status = np.where(np.isfinite(self.lb), lp._AT_LB, lp._AT_UB).astype(np.int8)
        self.status[n:] = lp._BASIC
        self.nb_value = np.where(self.status == lp._AT_LB, self.lb,
                                 np.where(self.status == lp._AT_UB, self.ub, 0.0))
        self.basis = n + np.arange(m)
        self.xB = self.b - self._row_products(self.nb_value[:n])
        self.T = self.full.copy()
        self._buf = np.empty(self.T.shape)
        width = self.ub[:n] - self.lb[:n]
        blocked = np.zeros(n, dtype=bool)
        crash = []
        for i in np.flatnonzero(self.lb[n:] == self.ub[n:]):
            nonzero = self.full[i, :n] != 0.0
            cand = np.flatnonzero(nonzero & ~blocked & (width > 0.0))
            if cand.size:
                crash.append((i, cand[np.argmax(width[cand])]))  # the first of ties
                blocked |= nonzero
        for r, q in reversed(crash):
            delta = self.xB[r] / self.T[r, q]
            self.xB = self.xB - self.T[:, q] * delta
            self._pivot(r, q, self.nb_value[q] + delta, lp._AT_LB)
        self.crash_columns = len(crash)

    def _place_bounds(self) -> None:
        """Each nonbasic variable with two finite bounds whose reduced cost
        favours its other bound, best score first (ties to the lower index),
        moves there unless a basic variable would end further outside its
        bounds than it is."""
        d = self._reduced_costs()
        score = np.where(self.status == lp._AT_LB, -d, np.where(self.status == lp._AT_UB, d, 0.0))
        boxed = np.isfinite(self.lb) & np.isfinite(self.ub) & (self.ub > self.lb)
        for q in sorted(np.flatnonzero(boxed & (score > self.opt_tol)).tolist(), key=lambda j: -score[j]):
            sigma = 1.0 if self.status[q] == lp._AT_LB else -1.0
            xB = self.xB - self.T[:, q] * (sigma * (self.ub[q] - self.lb[q]))
            lbB, ubB = self.lb[self.basis], self.ub[self.basis]
            if np.any(xB < np.minimum(lbB, self.xB) - self.pivot_tol) or \
                    np.any(xB > np.maximum(ubB, self.xB) + self.pivot_tol):
                continue
            self.xB = xB
            self.status[q] = lp._AT_UB if sigma > 0.0 else lp._AT_LB
            self.nb_value[q] = self.ub[q] if sigma > 0.0 else self.lb[q]
            self.start_flips += 1

    def _refactorize(self) -> None:
        self.refactorizations += 1
        B = self.full[:, self.basis]
        nb = self.status != lp._BASIC
        try:
            self.T = np.ascontiguousarray(np.linalg.solve(B, self.full))
            self.xB = np.linalg.solve(B, self.b - self.full[:, nb] @ self.nb_value[nb])
        except np.linalg.LinAlgError as exc:
            raise ArithmeticError(f"singular basis in {self.p.name!r}: {exc}") from exc

    def _reduced_costs(self) -> np.ndarray:
        return self.cost - self.cost[self.basis] @ self.T

    def _price(self, d: np.ndarray, bland: bool) -> int:
        at_lb = self.status == lp._AT_LB
        at_ub = self.status == lp._AT_UB
        score = np.zeros(d.size)
        score[at_lb] = -d[at_lb]
        score[at_ub] = d[at_ub]
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

    def _iterate(self, phase1: bool) -> str:
        """Pivot until no column improves the phase's objective: the sum of
        bound violations in phase 1, which ends infeasible when a violation
        above ``FEAS_TOL`` remains; the cost in phase 2."""
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
                    return lp.OPTIMAL
                # a basic variable costs -1 below its lower bound, +1 above its
                # upper, and blocks only at the bound it violates
                above = out & (self.xB > ubB)
                d = np.where(above[out], -1.0, 1.0) @ np.ascontiguousarray(self.T[out])
                lbB, ubB = (np.where(above, ubB, np.where(out, -lp.INF, lbB)),
                            np.where(above, lp.INF, np.where(out, lbB, ubB)))
            q = self._price(d, bland)
            if q < 0:
                if phase1:
                    return lp.INFEASIBLE if gap.max() > lp.FEAS_TOL else lp.OPTIMAL
                if verified:
                    return lp.OPTIMAL
                # re-derive reduced costs from scratch to rule out drift
                d = self._reduced_costs()
                verified = True
                continue
            verified = False
            if self.iterations >= self.max_iter:
                return lp.ITERATION_LIMIT
            self.iterations += 1

            sigma = -1.0 if self.status[q] == lp._AT_UB else 1.0
            w = self.T[:, q]
            sw = sigma * w
            ratios = np.full(self.m, lp.INF)
            pos = sw > self.pivot_tol
            neg = sw < -self.pivot_tol
            if pos.any():
                ratios[pos] = np.maximum(self.xB[pos] - lbB[pos], 0.0) / sw[pos]
            if neg.any():
                ratios[neg] = np.maximum(ubB[neg] - self.xB[neg], 0.0) / (-sw[neg])
            t_rows = ratios.min() if self.m else lp.INF
            t_flip = self.ub[q] - self.lb[q]
            delta = min(t_rows, t_flip)
            if delta == lp.INF:
                if phase1:
                    raise ArithmeticError("phase-1 objective cannot be unbounded")
                return lp.UNBOUNDED

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
                self.status[q] = lp._AT_UB if self.status[q] == lp._AT_LB else lp._AT_LB
                self.nb_value[q] = self.ub[q] if self.status[q] == lp._AT_UB else self.lb[q]
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
            self._pivot(r, q, entering_val, lp._AT_LB if (sw[r] > 0) != out[r] else lp._AT_UB)
            if not phase1:
                d = d - d[q] * self.T[r, :]


class EtaLoopSimplex(lp._ChainFactor):
    """The crash's factor as a Python loop of etas, the bit-for-bit
    reference for the chain path's prefix sums, on LPs of any size: the
    crash runs as a loop over the equality rows, making each pick its own
    eta in pick order; FTRAN runs the crash etas in pick order, skipping
    each whose row of the column is zero, and BTRAN runs them the other way
    round. The pivots' etas and the pricing are the chain factor's, and
    ``solver`` runs the solver's start, pivot loop and drift path on it."""

    def __init__(self, sim: lp._Simplex):
        n, p = sim.n_struct, sim.p
        order = np.argsort(p._indices, kind="stable")
        col_ptr = np.concatenate([[0], np.cumsum(np.bincount(p._indices, minlength=n))]).tolist()
        super().__init__(p, sim.cols, (col_ptr, sim.row_of[order].tolist(), p._data[order].tolist()), None)
        row, col, cand = lp._crash_entries(sim.row_of, p._indices, p._data, sim.pos[n:] < 0,
                                           sim.ub[:n] - sim.lb[:n])
        start = np.flatnonzero(np.diff(row, prepend=-1))
        n_cand = np.add.reduceat(cand, start) if start.size else start
        # each equality row takes its first candidate that no row taken
        # before it blocks, and then blocks every column nonzero in it
        self.etas, self.picks = [], []
        cols, blocked = col.tolist(), set()
        for i, a, b, c in zip(row[start].tolist(), start.tolist(), [*start[1:].tolist(), len(cols)],
                              (start + n_cand).tolist()):
            for j in cols[a:c]:
                if j not in blocked:
                    blocked.update(cols[a:b])
                    self.picks.append(j)
                    lo, hi = self.col_ptr[j], self.col_ptr[j + 1]
                    pairs = list(zip(self.col_row[lo:hi], self.col_val[lo:hi]))
                    self.etas.append((i, pairs.pop(self.col_row.index(i, lo, hi) - lo)[1], pairs))
                    break

    @classmethod
    def solver(cls, p: lp.LpProblem) -> lp._Simplex:
        """A solver of ``p`` that starts from this loop's crash and factor.
        It solves a copy of ``p`` with a ``_Start`` of its own, so the
        crash that ``lp`` builds for ``p`` and those derived from it is
        never this one."""
        q = copy.copy(p)
        q._start = lp._Start()
        sim = lp._Simplex(q)
        factor = cls(sim)
        basis = sim.n_struct + np.arange(sim.m)
        basis[[r for r, _, _ in factor.etas]] = factor.picks
        status = np.where(np.isfinite(sim.lb), lp._AT_LB, lp._AT_UB).astype(np.int8)
        status[basis] = lp._BASIC
        nb_value = np.where(status == lp._AT_LB, sim.lb, np.where(status == lp._AT_UB, sim.ub, 0.0))
        q._start.crash = basis, status, nb_value, len(factor.picks), factor
        return sim

    def column(self, k: int) -> list:
        """Candidate column ``k`` of ``[A | I]`` as a list, the eta loop's operand."""
        v = [0.0] * self.m
        q = self.cols[k]
        if q < self.n:
            a, b = self.col_ptr[q], self.col_ptr[q + 1]
            for i, x in zip(self.col_row[a:b], self.col_val[a:b]):
                v[i] = x
        else:
            v[q - self.n] = 1.0
        return v

    def ftran(self, v) -> np.ndarray:
        for r, piv, pairs in self.etas:
            t = v[r]
            if t:
                t /= piv
                v[r] = t
                for i, x in pairs:
                    v[i] -= x * t
        v = np.fromiter(v, float, self.m)
        if self.updates:
            k = self.updates
            v -= (self.Z[:k] @ v) @ self.U[:k]
        return v

    def btran(self, y: np.ndarray) -> np.ndarray:
        if self.updates:
            k = self.updates
            y = y - (self.U[:k] @ y) @ self.Z[:k]
        y = y.tolist()
        for r, piv, pairs in reversed(self.etas if any(y) else ()):
            t = y[r]
            for i, x in pairs:
                t -= x * y[i]
            y[r] = t / piv
        return np.fromiter(y, float, self.m)


def cost_breakdown_by_steps(s, ct: evba.CostToggles, e_sch, e_dch, e_fch, deg_priced) -> list[evba.VehicleCosts]:
    """Step-by-step reference for ``evba._cost_breakdown``: each vehicle's
    fees summed over its steps with flow, one step at a time."""
    prices = s.prices.values
    out = []
    for v_idx, v in enumerate(s.vehicles):
        purchase = float(prices @ (e_sch[v_idx] + e_fch[v_idx]))
        revenue = float(prices @ e_dch[v_idx])
        grid = cp_fee = 0.0
        for t in range(s.horizon.step_count):
            flow = e_sch[v_idx, t] + e_fch[v_idx, t]
            cp = cp_at(s, v_idx, t)
            if flow == 0.0 or cp is None:
                continue
            grid += grid_fee(cp, t, s.tariff_calendar, s.horizon.step_hours) * flow
            cp_fee += cp.cp_fee_eur_per_kwh * flow
        grid = float(grid) if ct.include_grid_tariff else 0.0
        cp_fee = float(cp_fee) if ct.include_cp_tariff else 0.0
        deg = float(deg_priced[v_idx].sum())
        energy = purchase - revenue
        out.append(evba.VehicleCosts(v.id, energy, grid, cp_fee, deg, revenue, energy + grid + cp_fee + deg))
    return out


def check_schedule_by_steps(s, fs) -> ViolationReport:
    """Step-by-step reference for ``analysis.check_schedule``: recompute the
    full constraint set on a schedule, one vehicle-step at a time.

    Every violation above the solver's ``FEAS_TOL`` is reported with its
    magnitude. Steps where charge and discharge run simultaneously are flagged
    (not violations; they can be optimal under negative prices) so such
    pathologies stay visible.
    """
    V, T = len(s.vehicles), s.horizon.step_count
    if fs.e_sch.shape != (V, T):
        raise ValueError(
            f"schedule shape {fs.e_sch.shape} does not match scenario ({V}, {T})"
        )
    rep = ViolationReport()

    def add(v: int, t: int, constraint: str, magnitude: float):
        rep.violations.append(Violation(s.vehicles[v].id, t, constraint, float(magnitude)))

    for v_idx, v in enumerate(s.vehicles):
        cap = v.capacity_kwh
        prev = v.soe_initial_kwh
        for t in range(T):
            sch = fs.e_sch[v_idx, t]
            dch = fs.e_dch[v_idx, t]
            fch = fs.e_fch[v_idx, t]
            stock = fs.soe[v_idx, t]
            cp = cp_at(s, v_idx, t)
            slow_lim = cp.power_limit_kwh_per_step if cp is not None and cp.kind == SLOW else 0.0
            fast_lim = cp.power_limit_kwh_per_step if cp is not None and cp.kind == FAST else 0.0

            for name, flow in (("e_sch", sch), ("e_dch", dch), ("e_fch", fch)):
                if flow < -FEAS_TOL:
                    add(v_idx, t, "nonnegative", -flow)
            if sch > slow_lim + FEAS_TOL:
                add(v_idx, t, "CP limit", sch - slow_lim)
            if dch > slow_lim + FEAS_TOL:
                add(v_idx, t, "CP limit", dch - slow_lim)
            if sch > v.obc_max_kwh_per_step + FEAS_TOL:
                add(v_idx, t, "OBC limit", sch - v.obc_max_kwh_per_step)
            if dch > v.obc_max_kwh_per_step + FEAS_TOL:
                add(v_idx, t, "OBC limit", dch - v.obc_max_kwh_per_step)
            if fch > fast_lim + FEAS_TOL:
                add(v_idx, t, "CP limit", fch - fast_lim)
            if v.soe_cv_frac < 1.0 - 1e-12:
                taper = v.obc_max_kwh_per_step * (cap - stock) / (cap * (1.0 - v.soe_cv_frac))
                if sch > taper + FEAS_TOL:
                    add(v_idx, t, "CV taper", sch - taper)
            if stock < v.soe_min_kwh - FEAS_TOL:
                add(v_idx, t, "SOE bounds", v.soe_min_kwh - stock)
            if stock > v.soe_max_kwh + FEAS_TOL:
                add(v_idx, t, "SOE bounds", stock - v.soe_max_kwh)
            balance = (
                prev
                + sch * v.eta_sch
                + fch * v.eta_fch
                - dch / v.eta_dch
                - float(s.trips.energy_kwh[v_idx, t]) / v.eta_run
            )
            if abs(stock - balance) > FEAS_TOL:
                add(v_idx, t, "balance", abs(stock - balance))
            p1, p2 = plane_values(v, max(dch, 0.0), min(max(stock, 0.0), cap))
            short = max(p1, p2) - fs.c_deg[v_idx, t]
            if short > FEAS_TOL:
                add(v_idx, t, "degradation", short)
            if sch > 1e-6 and dch > 1e-6:
                rep.flags.append(
                    f"vehicle {v.id!r} step {t}: simultaneous charge {round(sch, 9):.4f} kWh "
                    f"and discharge {round(dch, 9):.4f} kWh"
                )
            prev = stock
        if fs.soe[v_idx, T - 1] < v.soe_initial_kwh - FEAS_TOL:
            add(v_idx, T - 1, "terminal SOE", v.soe_initial_kwh - fs.soe[v_idx, T - 1])
    return rep
