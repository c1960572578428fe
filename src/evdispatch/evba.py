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
concurrently.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import lp
from .degradation import degradation_cost, emit_degradation_rows
from .domain import FAST, SLOW, Scenario, ScenarioError, Vehicle, grid_fee, validate_scenario

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

def _flow_costs(s: Scenario, ct: CostToggles, v_idx: int, t: int) -> tuple[float, float, float]:
    """Objective coefficients (slow charge, discharge, fast charge) at (v, t)."""
    price = float(s.prices.values[t])
    cal = s.tariff_calendar
    h = s.horizon.step_hours
    sch = price
    fch = price
    cp = s.cp_at(v_idx, t)
    if cp is not None:
        fee_grid = grid_fee(cp, t, cal, h) if ct.include_grid_tariff else 0.0
        fee_cp = cp.cp_fee_eur_per_kwh if ct.include_cp_tariff else 0.0
        if cp.kind == SLOW:
            sch += fee_grid + fee_cp
        else:
            fch += fee_grid + fee_cp
    return sch, -price, fch


def _slow_cap(s: Scenario, v: Vehicle, v_idx: int, t: int, power: PowerMode) -> float:
    """Upper bound on slow charge/discharge at (v, t) under a power mode."""
    cp = s.cp_at(v_idx, t)
    if cp is None or cp.kind != SLOW:
        return 0.0
    if power is PowerMode.FIXED_4KW:
        return FIXED_POWER_KW * s.horizon.step_hours
    if power is PowerMode.OBC_ONLY:
        return v.obc_max_kwh_per_step
    if power is PowerMode.CP_ONLY:
        return cp.power_limit_kwh_per_step
    return min(cp.power_limit_kwh_per_step, v.obc_max_kwh_per_step)


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
    reshapes to one row per step (see _window_schedule). With
    ``maximize_departure`` the feasible set is the same and the objective is
    the negated stock at the last step.
    """
    v = s.vehicles[v_idx]
    cap = v.capacity_kwh
    soe_lb = v.soe_min_kwh
    soe_ub = v.soe_max_kwh
    last = int(steps[-1])
    p = lp.LpProblem(f"window[{v.id},{int(steps[0])}..{last}]")
    taper_k = None
    if v.soe_cv_frac < 1.0 - 1e-12:
        taper_k = v.obc_max_kwh_per_step / (cap * (1.0 - v.soe_cv_frac))

    prev_id = None
    for t in map(int, steps):
        if maximize_departure:
            c_sch = c_dch = c_fch = 0.0
        else:
            c_sch, c_dch, c_fch = _flow_costs(s, ct, v_idx, t)
        slow_cap = _slow_cap(s, v, v_idx, t, power)
        cp = s.cp_at(v_idx, t)
        fast_cap = cp.power_limit_kwh_per_step if cp is not None and cp.kind == FAST else 0.0
        sch_id = p.add_variable(0.0, slow_cap, c_sch, f"sch[{v.id},{t}]")
        dch_id = p.add_variable(0.0, slow_cap, c_dch, f"dch[{v.id},{t}]")
        fch_id = p.add_variable(0.0, fast_cap, c_fch, f"fch[{v.id},{t}]")
        lb_t = soe_lb
        if t == last:
            lb_t = max(lb_t, floor)
            if lb_t > soe_ub + 1e-9:
                raise _FloorUnreachable(
                    f"vehicle {v.id!r}: required stock {lb_t:.3f} kWh at step {t} "
                    f"exceeds the SOE ceiling {soe_ub:.3f} kWh"
                )
            lb_t = min(lb_t, soe_ub)
        soe_cost = -1.0 if maximize_departure and t == last else 0.0
        soe_id = p.add_variable(lb_t, soe_ub, soe_cost, f"soe[{v.id},{t}]")
        deg_id = None
        if ct.include_degradation:
            deg_cost = 0.0 if maximize_departure else 1.0
            deg_id = p.add_variable(0.0, lp.INF, deg_cost, f"cdeg[{v.id},{t}]")

        # charge taper above the CC/CV breakpoint; slow charging only
        if taper_k is not None and slow_cap > 0.0 and power is not PowerMode.CP_ONLY:
            p.add_constraint(
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
        p.add_constraint(terms, "=", rhs, name=f"bal[{v.id},{t}]")
        if deg_id is not None:
            emit_degradation_rows(p, deg_id, dch_id, soe_id, v, t)
        prev_id = soe_id
    return p


def build_evba(
    s: Scenario, ct: CostToggles = CostToggles(), power: PowerMode = PowerMode.BOTH
) -> list[lp.LpProblem]:
    """Assemble the whole-horizon LP of each vehicle of a validated scenario.

    Returns one problem per vehicle, in scenario order; the fleet optimum is
    the sum of their optima.
    """
    diags = validate_scenario(s)
    if diags:
        raise ScenarioError("invalid scenario:\n  " + "\n  ".join(diags))
    if s.prices is None:
        raise ScenarioError("scenario has no price series attached; use Scenario.with_prices")
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


def extract_schedule(sols: list[lp.LpSolution], s: Scenario, ct: CostToggles) -> FleetSchedule:
    """Stitch the optimal solutions of build_evba's problems into a FleetSchedule.

    Each vehicle's cost breakdown is recomputed independently from prices and
    fees and reconciled with its own LP objective; a mismatch means the model
    assembly is wrong and raises AssemblyError.
    """
    if len(sols) != len(s.vehicles):
        raise ValueError(f"expected one solution per vehicle ({len(s.vehicles)}), got {len(sols)}")
    for sol in sols:
        if sol.status != lp.OPTIMAL:
            raise ValueError(f"cannot extract from a non-optimal solution (status={sol.status})")
    V, T = len(s.vehicles), s.horizon.step_count
    e_sch, e_dch, e_fch, soe, c_deg = np.zeros((5, V, T))
    for v_idx, (v, sol) in enumerate(zip(s.vehicles, sols)):
        e_sch[v_idx], e_dch[v_idx], e_fch[v_idx], soe[v_idx], c_deg[v_idx] = _window_schedule(
            v, sol, ct
        )

    deg_priced = c_deg if ct.include_degradation else np.zeros((V, T))
    per_vehicle = _cost_breakdown(s, ct, e_sch, e_dch, e_fch, deg_priced)
    for c, sol in zip(per_vehicle, sols):
        if not (abs(c.total_eur - sol.objective) <= 1e-6 * (1.0 + abs(sol.objective))):
            raise AssemblyError(
                f"vehicle {c.vehicle!r}: cost breakdown {c.total_eur:.9f} does not reconcile "
                f"with LP objective {sol.objective:.9f}"
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
    )


def _infeasibility_hint(s: Scenario, v_idx: int, power: PowerMode) -> str:
    """Why vehicle ``v_idx``'s LP is infeasible.

    Names the first step where even maximal charging cannot keep the vehicle
    above its SOE floor, or its unreachable end-of-day floor. The bound
    ignores the charge taper, so it is generous.
    """
    v = s.vehicles[v_idx]
    stock = v.soe_initial_kwh
    for t in range(s.horizon.step_count):
        slow = _slow_cap(s, v, v_idx, t, power)
        cp = s.cp_at(v_idx, t)
        fast = cp.power_limit_kwh_per_step if cp is not None and cp.kind == FAST else 0.0
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


def solve_evba(
    s: Scenario,
    ct: CostToggles = CostToggles(),
    power: PowerMode = PowerMode.BOTH,
    *,
    feas_tol: float = 1e-6,
) -> FleetSchedule:
    """Solve each vehicle's LP and stitch the fleet schedule.

    The first vehicle whose LP is not optimal makes the fleet status; an
    infeasible one is named in the message.
    """
    sols = []
    for v_idx, problem in enumerate(build_evba(s, ct, power)):
        sol = lp.solve(problem, feas_tol=feas_tol)
        if sol.status != lp.OPTIMAL:
            message = _infeasibility_hint(s, v_idx, power) if sol.status == lp.INFEASIBLE else ""
            return FleetSchedule.empty(s, sol.status, message)
        sols.append(sol)
    return extract_schedule(sols, s, ct)


# ---------------------------------------------------------------------------
# Schedule export

def schedule_csv_text(s: Scenario, fs: FleetSchedule) -> str:
    """Schedule as CSV: vehicle,step,e_sch,e_dch,e_fch,soe,c_deg."""
    buf = io.StringIO()
    buf.write("vehicle,step,e_sch_kwh,e_dch_kwh,e_fch_kwh,soe_kwh,c_deg_eur\n")
    for v_idx, v in enumerate(s.vehicles):
        for t in range(s.horizon.step_count):
            buf.write(
                f"{v.id},{t},{fs.e_sch[v_idx, t]:.6f},{fs.e_dch[v_idx, t]:.6f},"
                f"{fs.e_fch[v_idx, t]:.6f},{fs.soe[v_idx, t]:.6f},{fs.c_deg[v_idx, t]:.6f}\n"
            )
    return buf.getvalue()


def breakdown_dict(s: Scenario, fs: FleetSchedule) -> dict:
    """Cost breakdown as a JSON-ready dict, including the assumption header."""
    from .analysis import ASSUMPTIONS  # late import; analysis depends on this module

    return {
        "assumptions": list(ASSUMPTIONS),
        "status": fs.status,
        "message": fs.message,
        "total_cost_eur": fs.total_cost_eur,
        "charged_kwh": fs.charged_kwh,
        "discharged_kwh": fs.discharged_kwh,
        "per_vehicle": [
            {
                "vehicle": c.vehicle,
                "energy_eur": c.energy_eur,
                "grid_fee_eur": c.grid_fee_eur,
                "cp_fee_eur": c.cp_fee_eur,
                "degradation_eur": c.degradation_eur,
                "v2g_revenue_eur": c.v2g_revenue_eur,
                "total_eur": c.total_eur,
            }
            for c in fs.per_vehicle
        ],
        "warnings": list(fs.warnings),
    }
