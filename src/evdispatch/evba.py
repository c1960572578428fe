"""Fleet-level day-ahead scheduler: every vehicle's whole-day plan.

The fleet LP separates per vehicle. Every row (charge taper, energy balance,
wear epigraph) and every cap involves one vehicle only, so no row couples two
vehicles and the fleet optimum is the sum of the per-vehicle optima: the
block-separable case of Dantzig & Wolfe (Oper. Res. 8(1), 1960) with no
master problem. build_evba therefore returns one LP per vehicle, solve_evba
solves them in turn and extract_schedule stitches the fleet schedule. A
shared site or feeder limit would add rows coupling vehicles and need
Dantzig-Wolfe or Lagrangian coordination of these LPs; that is out of scope.
The station model (evca) solves the same per-vehicle LP over each session.

Decision variables per vehicle and step: slow charge, grid discharge, fast
charge (all kWh, grid side) and state of energy (kWh). When the wear term is
priced, an epigraph variable per step carries the degradation cost.

Power caps are folded into variable bounds wherever they involve a single
variable (plug limit, on-board-charger limit, zero flow while unplugged);
the charge taper above the CC/CV breakpoint and the energy balance are rows.
Being plugged in is a prerequisite for any grid flow in every power mode;
the modes only change which magnitude caps apply while plugged in.

build/solve are pure given an immutable scenario, so distinct solves may run
concurrently; analysis solves the cells of its studies in forked children.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import lp
from .degradation import degradation_cost, degradation_rows
from .domain import FAST, SLOW, ChargingPoint, Scenario, ScenarioError, Vehicle, grid_fee, validate_scenario

FIXED_POWER_KW = 4.0


class PowerMode(str, Enum):
    """Which power caps constrain slow charging/discharging while plugged in."""

    FIXED_4KW = "fixed_4kw"   # flat 4 kW cap, ignoring plug and OBC ratings
    OBC_ONLY = "obc_only"     # on-board charger rating only
    CP_ONLY = "cp_only"       # plug rating only, no charge taper
    BOTH = "both"             # plug and OBC ratings plus the charge taper


@dataclass(frozen=True)
class CostToggles:
    """Objective term switches. Energy purchase/revenue is always priced."""

    include_degradation: bool = True
    include_grid_tariff: bool = True
    include_cp_tariff: bool = True


#: Objective variants used by the cost ablation, cheapest-first naming.
OBJECTIVE_VARIANTS: dict[str, CostToggles] = {
    "of1": CostToggles(False, False, False),
    "of2": CostToggles(True, False, False),
    "of3": CostToggles(False, True, False),
    "of4": CostToggles(False, False, True),
    "of5": CostToggles(True, True, True),
}


def cost_toggles_for(label: str) -> CostToggles:
    try:
        return OBJECTIVE_VARIANTS[label.lower()]
    except KeyError:
        raise ValueError(f"unknown objective variant {label!r}, expected of1..of5") from None


class AssemblyError(RuntimeError):
    """Cost breakdown failed to reconcile with the LP objective."""


class _FloorUnreachable(Exception):
    """Requested terminal stock exceeds the battery's upper SOE bound."""


@dataclass(frozen=True)
class VehicleCosts:
    """Objective-term breakdown for one vehicle, EUR.

    ``energy_eur`` is net of discharge revenue; ``v2g_revenue_eur`` reports
    the revenue component separately without being added again. The included
    terms sum to ``total_eur``.
    """

    vehicle: str
    energy_eur: float
    grid_fee_eur: float
    cp_fee_eur: float
    degradation_eur: float
    v2g_revenue_eur: float
    total_eur: float


@dataclass
class SessionResult:
    """Per-session trace entry for the station-level scheduler."""

    vehicle: str
    cp: str
    arrive_step: int
    depart_step: int
    arrival_soe_kwh: float
    depart_soe_kwh: float
    floor_kwh: float
    cost_eur: float
    note: str = ""


@dataclass
class FleetSchedule:
    """Solved trajectories plus the objective-cost breakdown.

    Arrays are (vehicles, steps). ``c_deg`` always holds the wear cost the
    trajectory implies; it enters the cost breakdown only when the wear term
    was priced in the objective.
    """

    status: str
    e_sch: np.ndarray
    e_dch: np.ndarray
    e_fch: np.ndarray
    soe: np.ndarray
    c_deg: np.ndarray
    per_vehicle: list[VehicleCosts]
    total_cost_eur: float
    message: str = ""
    warnings: list[str] = field(default_factory=list)
    sessions: list[SessionResult] | None = None

    @property
    def charged_kwh(self) -> float:
        return float(self.e_sch.sum() + self.e_fch.sum())

    @property
    def discharged_kwh(self) -> float:
        return float(self.e_dch.sum())

    @classmethod
    def empty(cls, s: Scenario, status: str, message: str = "") -> "FleetSchedule":
        shape = (len(s.vehicles), s.horizon.step_count)
        z = np.zeros(shape)
        return cls(status, z, z.copy(), z.copy(), z.copy(), z.copy(), [], 0.0, message)


# ---------------------------------------------------------------------------
# Assembly

def _flow_costs(
    s: Scenario, ct: CostToggles, plug: np.ndarray, steps: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Objective coefficients (slow charge, discharge, fast charge) per step,
    where ``plug`` is the charging-point index per step (-1 when unplugged)."""
    price = s.prices.values[steps]
    zero = np.zeros(len(steps))
    # one entry per charging point, then the unplugged one that index -1 picks
    cps = s.charging_points
    low, high, cp_fee = np.array(
        [(cp.grid_fee_low_eur_per_kwh, cp.grid_fee_high_eur_per_kwh, cp.cp_fee_eur_per_kwh) for cp in cps]
        + [(0.0, 0.0, 0.0)]
    )[plug].T
    kind = np.array([cp.kind for cp in cps] + [""])[plug]
    in_low_band = s.tariff_calendar.is_low_band(steps, s.horizon.step_hours)
    fee = (np.where(in_low_band, low, high) if ct.include_grid_tariff else zero) + (cp_fee if ct.include_cp_tariff else zero)
    return np.where(kind == SLOW, price + fee, price), -price, np.where(kind == FAST, price + fee, price)


def _caps(s: Scenario, v: Vehicle, cp: ChargingPoint | None, power: PowerMode) -> tuple[float, float]:
    """Upper bounds (slow charge/discharge, fast charge) on vehicle v's flows
    on charging point ``cp`` (None when unplugged) under a power mode."""
    if cp is None:
        return 0.0, 0.0
    if cp.kind == FAST:
        return 0.0, cp.power_limit_kwh_per_step
    if power is PowerMode.FIXED_4KW:
        return FIXED_POWER_KW * s.horizon.step_hours, 0.0
    if power is PowerMode.OBC_ONLY:
        return v.obc_max_kwh_per_step, 0.0
    if power is PowerMode.CP_ONLY:
        return cp.power_limit_kwh_per_step, 0.0
    return min(cp.power_limit_kwh_per_step, v.obc_max_kwh_per_step), 0.0


def _step_names(kinds: list[str], vid: str, tails: list[str]) -> list[str]:
    """``kind[vid,t]`` for each tail ``t]`` and kind, kinds varying fastest."""
    # joining two parts is much cheaper than formatting every name whole
    heads = [f"{kind}[{vid}," for kind in kinds]
    return [head + tail for tail in tails for head in heads]


def _build_window_lp(
    s: Scenario,
    v_idx: int,
    steps: np.ndarray,
    init_soe: float,
    floor: float,
    ct: CostToggles,
    power: PowerMode,
    *,
    maximize_departure: bool = False,
) -> lp.LpProblem:
    """One vehicle's LP over a contiguous, non-empty window of steps.

    ``init_soe`` is the stock entering the first window step; ``floor`` the
    minimum stock at the last one. Variables run per step in the order
    sch, dch, fch, soe and, when wear is priced, cdeg, so a solution vector
    reshapes to one row per step (see _window_schedule). Rows run per step
    in the order cv (where the taper applies), bal and, when wear is priced,
    deg1 and deg2. With ``maximize_departure`` the feasible set is the same
    and the objective is the negated stock at the last step.
    """
    v = s.vehicles[v_idx]
    cap = v.capacity_kwh
    steps = np.asarray(steps)
    k, last = len(steps), int(steps[-1])
    floor_lb = max(v.soe_min_kwh, floor)
    if floor_lb > v.soe_max_kwh + 1e-9:
        raise _FloorUnreachable(
            f"vehicle {v.id!r}: required stock {floor_lb:.3f} kWh at step {last} "
            f"exceeds the SOE ceiling {v.soe_max_kwh:.3f} kWh"
        )
    p = lp.LpProblem(f"window[{v.id},{int(steps[0])}..{last}]")
    window = slice(int(steps[0]), last + 1)
    plug = s.connectivity.index[v_idx, window]
    slow_cap, fast_cap = np.array([_caps(s, v, cp, power) for cp in (*s.charging_points, None)])[plug].T

    # variables: one row of these tables per step
    kinds = ["sch", "dch", "fch", "soe", "cdeg"][: 5 if ct.include_degradation else 4]
    lb, ub, cost = np.zeros((k, len(kinds))), np.empty((k, len(kinds))), np.zeros((k, len(kinds)))
    ub[:, 0] = ub[:, 1] = slow_cap
    ub[:, 2] = fast_cap
    lb[:, 3], ub[:, 3] = v.soe_min_kwh, v.soe_max_kwh
    lb[-1, 3] = min(floor_lb, v.soe_max_kwh)
    if maximize_departure:
        cost[-1, 3] = -1.0
    else:
        cost[:, 0], cost[:, 1], cost[:, 2] = _flow_costs(s, ct, plug, steps)
    if ct.include_degradation:
        ub[:, 4], cost[:, 4] = lp.INF, 0.0 if maximize_departure else 1.0
    tails = [f"{t}]" for t in steps.tolist()]
    p.add_variables(lb.ravel(), ub.ravel(), cost.ravel(), _step_names(kinds, v.id, tails))
    sch, dch, fch, soe, *cdeg = np.arange(k * len(kinds)).reshape(k, len(kinds)).T

    # rows: each step's balance row falls after the rows of earlier steps
    # and its own taper row
    taper = v.soe_cv_frac < 1.0 - 1e-12 and power is not PowerMode.CP_ONLY
    has_cv = (slow_cap > 0.0) & taper  # charge taper above the CC/CV breakpoint; slow charging only
    rows_after_cv = 3 if ct.include_degradation else 1
    bal = (has_cv + rows_after_cv).cumsum() - rows_after_cv
    cv = np.flatnonzero(has_cv)
    taper_k = v.obc_max_kwh_per_step / (cap * (1.0 - v.soe_cv_frac)) if taper else 0.0
    n_cv = len(cv)
    rows = [bal[cv] - 1, bal[cv] - 1, bal, bal, bal, bal, bal[1:]]
    terms = [sch[cv], soe[cv], soe, sch, fch, dch, soe[:-1]]
    coefs = [np.repeat([1.0, taper_k, 1.0, -v.eta_sch, -v.eta_fch, 1.0 / v.eta_dch, -1.0],
                       [n_cv, n_cv, k, k, k, k, k - 1])]
    rhs_bal = -s.trips.energy_kwh[v_idx, window] / v.eta_run
    rhs_bal[0] += init_soe
    at = [bal[cv] - 1, bal]  # where the block rows below go
    senses, rhs = [np.full(n_cv, "<="), np.full(k, "=")], [np.full(n_cv, taper_k * cap), rhs_bal]
    names = _step_names(["cv"], v.id, [tails[i] for i in cv.tolist()]) + _step_names(["bal"], v.id, tails)
    if ct.include_degradation:
        d_row, d_var, d_coef, d_senses, d_rhs, d_names = degradation_rows(v, cdeg[0], dch, soe, steps)
        deg_at = (bal[:, None] + [1, 2]).ravel()
        rows.append(deg_at[d_row])
        terms.append(d_var)
        coefs.append(d_coef)
        at.append(deg_at)
        senses.append(d_senses)
        rhs.append(d_rhs)
        names += d_names
    # the row blocks, scattered into step order
    order = np.argsort(np.concatenate(at))
    p.add_constraints(np.concatenate(rows), np.concatenate(terms), np.concatenate(coefs),
                      np.concatenate(senses)[order], np.concatenate(rhs)[order],
                      [names[i] for i in order.tolist()])
    return p


def _require_solvable(s: Scenario) -> None:
    """Raise ScenarioError unless ``s`` is valid and has prices attached."""
    diags = validate_scenario(s)
    if diags:
        raise ScenarioError("invalid scenario:\n  " + "\n  ".join(diags))
    if s.prices is None:
        raise ScenarioError("scenario has no price series attached; use Scenario.with_prices")


def build_evba(
    s: Scenario, ct: CostToggles = CostToggles(), power: PowerMode = PowerMode.BOTH
) -> list[lp.LpProblem]:
    """Assemble the whole-horizon LP of each vehicle of a validated scenario.

    Returns one problem per vehicle, in scenario order; the fleet optimum is
    the sum of their optima.
    """
    _require_solvable(s)
    steps = np.arange(s.horizon.step_count)
    # the end-of-day stock floor is the initial stock
    return [
        _build_window_lp(s, v_idx, steps, v.soe_initial_kwh, v.soe_initial_kwh, ct, power)
        for v_idx, v in enumerate(s.vehicles)
    ]


# ---------------------------------------------------------------------------
# Extraction

def _nonneg(x: np.ndarray) -> np.ndarray:
    """Elementwise ``max(x, 0.0)``; unlike np.maximum it keeps -0.0 as is."""
    return np.where(x < 0.0, 0.0, x)


def _implied_wear(v: Vehicle, e_dch: np.ndarray, soe: np.ndarray) -> np.ndarray:
    """Wear cost per step that a trajectory implies, priced or not."""
    return _nonneg(degradation_cost(v, e_dch, np.clip(soe, 0.0, v.capacity_kwh)))


def _window_schedule(v: Vehicle, sol: lp.LpSolution, ct: CostToggles) -> tuple[np.ndarray, ...]:
    """Per-step (e_sch, e_dch, e_fch, soe, c_deg) of a window LP's solution.

    ``c_deg`` is the LP's wear variable when the wear term is priced, and
    otherwise the wear the trajectory implies.
    """
    cols = sol.x.reshape(-1, 5 if ct.include_degradation else 4)
    e_sch, e_dch, e_fch = (_nonneg(cols[:, j]) for j in range(3))
    soe = cols[:, 3]
    c_deg = cols[:, 4] if ct.include_degradation else _implied_wear(v, e_dch, soe)
    return e_sch, e_dch, e_fch, soe, c_deg


def _cost_breakdown(
    s: Scenario,
    ct: CostToggles,
    e_sch: np.ndarray,
    e_dch: np.ndarray,
    e_fch: np.ndarray,
    deg_priced: np.ndarray,
) -> list[VehicleCosts]:
    """Recompute the objective per vehicle from prices and fees.

    ``deg_priced`` must hold the wear cost actually present in the objective
    (zeros when the wear term is toggled off).
    """
    prices = s.prices.values
    cal = s.tariff_calendar
    h = s.horizon.step_hours
    out = []
    for v_idx, v in enumerate(s.vehicles):
        purchase = float(prices @ (e_sch[v_idx] + e_fch[v_idx]))
        revenue = float(prices @ e_dch[v_idx])
        grid = 0.0
        cp_fee = 0.0
        for t in range(s.horizon.step_count):
            flow = e_sch[v_idx, t] + e_fch[v_idx, t]
            if flow == 0.0:
                continue
            cp = s.cp_at(v_idx, t)
            if cp is None:
                continue
            grid += grid_fee(cp, t, cal, h) * flow
            cp_fee += cp.cp_fee_eur_per_kwh * flow
        if not ct.include_grid_tariff:
            grid = 0.0
        if not ct.include_cp_tariff:
            cp_fee = 0.0
        deg = float(deg_priced[v_idx].sum())
        grid = float(grid)
        cp_fee = float(cp_fee)
        energy = purchase - revenue
        out.append(
            VehicleCosts(
                vehicle=v.id,
                energy_eur=energy,
                grid_fee_eur=grid,
                cp_fee_eur=cp_fee,
                degradation_eur=deg,
                v2g_revenue_eur=revenue,
                total_eur=energy + grid + cp_fee + deg,
            )
        )
    return out


def _assemble(
    s: Scenario,
    ct: CostToggles,
    windows: list[tuple[int, np.ndarray, tuple[np.ndarray, ...], float]],
    **extra,
) -> FleetSchedule:
    """Stitch solved window LPs into a FleetSchedule; ``extra`` goes to it as is.

    Each window is ``(v_idx, steps, arrays, objective)``: the steps it
    covers, its _window_schedule arrays and its LP objective. At a step no
    window covers, the stock follows the trips and ``c_deg`` is the wear that
    stock implies. Each vehicle's cost breakdown is recomputed independently
    from prices and fees and must reconcile with its windows' objectives plus
    its priced uncovered wear; a mismatch means the model assembly is wrong
    and raises AssemblyError.
    """
    V, T = len(s.vehicles), s.horizon.step_count
    fleet = np.zeros((5, V, T))
    e_sch, e_dch, e_fch, soe, c_deg = fleet
    covered = np.zeros((V, T), dtype=bool)
    expected = [0.0] * V
    for v_idx, steps, arrays, objective in windows:
        for dst, src in zip(fleet, arrays):
            dst[v_idx, steps] = src
        covered[v_idx, steps] = True
        expected[v_idx] += objective

    for v_idx, v in enumerate(s.vehicles):
        off = ~covered[v_idx]
        if not off.any():
            continue
        stock = v.soe_initial_kwh
        for t in range(T):
            if off[t]:
                stock -= float(s.trips.energy_kwh[v_idx, t]) / v.eta_run
                soe[v_idx, t] = stock
            else:
                stock = soe[v_idx, t]
        c_deg[v_idx, off] = _implied_wear(v, e_dch[v_idx, off], soe[v_idx, off])
        if ct.include_degradation:
            expected[v_idx] += float(c_deg[v_idx, off].sum())

    deg_priced = c_deg if ct.include_degradation else np.zeros((V, T))
    per_vehicle = _cost_breakdown(s, ct, e_sch, e_dch, e_fch, deg_priced)
    for c, want in zip(per_vehicle, expected):
        if not (abs(c.total_eur - want) <= 1e-6 * (1.0 + abs(want))):
            raise AssemblyError(
                f"vehicle {c.vehicle!r}: cost breakdown {c.total_eur:.9f} does not reconcile "
                f"with its window objectives plus uncovered wear {want:.9f}"
            )
    return FleetSchedule(
        status="optimal",
        e_sch=e_sch,
        e_dch=e_dch,
        e_fch=e_fch,
        soe=soe,
        c_deg=c_deg,
        per_vehicle=per_vehicle,
        total_cost_eur=sum(c.total_eur for c in per_vehicle),
        **extra,
    )


def extract_schedule(sols: list[lp.LpSolution], s: Scenario, ct: CostToggles) -> FleetSchedule:
    """Stitch the optimal solutions of build_evba's problems into a FleetSchedule.

    Each vehicle's cost breakdown is reconciled with its own LP objective
    (see _assemble).
    """
    if len(sols) != len(s.vehicles):
        raise ValueError(f"expected one solution per vehicle ({len(s.vehicles)}), got {len(sols)}")
    for sol in sols:
        if sol.status != lp.OPTIMAL:
            raise ValueError(f"cannot extract from a non-optimal solution (status={sol.status})")
    steps = np.arange(s.horizon.step_count)
    return _assemble(s, ct, [
        (v_idx, steps, _window_schedule(v, sol, ct), sol.objective)
        for v_idx, (v, sol) in enumerate(zip(s.vehicles, sols))
    ])


def _infeasibility_hint(s: Scenario, v_idx: int, power: PowerMode) -> str:
    """Why vehicle ``v_idx``'s LP is infeasible.

    Names the first step where even maximal charging cannot keep the vehicle
    above its SOE floor, or its unreachable end-of-day floor. The bound
    ignores the charge taper, so it is generous.
    """
    v = s.vehicles[v_idx]
    stock = v.soe_initial_kwh
    for t in range(s.horizon.step_count):
        slow, fast = _caps(s, v, s.cp_at(v_idx, t), power)
        stock = min(stock + slow * v.eta_sch + fast * v.eta_fch, v.soe_max_kwh)
        stock -= float(s.trips.energy_kwh[v_idx, t]) / v.eta_run
        if stock < v.soe_min_kwh - 1e-9:
            return (
                f"vehicle {v.id!r}: cumulative energy bound violated at step {t} "
                f"(best reachable stock {stock:.3f} kWh is below the "
                f"floor {v.soe_min_kwh:.3f} kWh)"
            )
    if stock < v.soe_initial_kwh - 1e-9:
        return (
            f"vehicle {v.id!r}: end-of-day stock floor {v.soe_initial_kwh:.3f} kWh "
            f"unreachable (best {stock:.3f} kWh)"
        )
    return (
        f"vehicle {v.id!r}: no feasible schedule, although the cumulative energy "
        f"bound, which ignores the charge taper, holds"
    )


def _numerics_hint(s: Scenario, status: str) -> str:
    """Why a window LP ends ``status`` (unbounded or at the iteration limit):
    its flow variables are all bounded, so the data must be extreme."""
    return (
        f"LP ended {status}, although every flow variable is bounded, so the data "
        f"is numerically extreme (largest |price| {np.abs(s.prices.values).max():.6g} EUR/kWh)"
    )


def solve_evba(
    s: Scenario,
    ct: CostToggles = CostToggles(),
    power: PowerMode = PowerMode.BOTH,
) -> FleetSchedule:
    """Solve each vehicle's LP and stitch the fleet schedule.

    The first vehicle whose LP is not optimal makes the fleet status, and the
    message names that vehicle and why.
    """
    sols = []
    for v_idx, problem in enumerate(build_evba(s, ct, power)):
        sol = lp.solve(problem)
        if sol.status == lp.INFEASIBLE:
            return FleetSchedule.empty(s, sol.status, _infeasibility_hint(s, v_idx, power))
        if sol.status != lp.OPTIMAL:
            message = f"vehicle {s.vehicles[v_idx].id!r}: {_numerics_hint(s, sol.status)}"
            return FleetSchedule.empty(s, sol.status, message)
        sols.append(sol)
    return extract_schedule(sols, s, ct)
