"""Fleet-level day-ahead scheduler: every vehicle's whole-day plan.

The fleet LP separates per vehicle. Every row (charge taper, energy balance,
wear) and every cap involves one vehicle only, so no row couples two
vehicles and the fleet optimum is the sum of the per-vehicle optima: the
block-separable case of Dantzig & Wolfe (Oper. Res. 8(1), 1960) with no
master problem. build_evba therefore returns one LP per vehicle, solve_evba
solves them in turn and extract_schedule stitches the fleet schedule. A
shared site or feeder limit would add rows coupling vehicles and need
Dantzig-Wolfe or Lagrangian coordination of these LPs; that is out of scope.

Every window LP, the whole day here and each session in the station model
(evca), is a slice of one vehicle build: _build_vehicle_lp assembles the
vehicle's whole-horizon LP once, with no prices, no arrival stock and no
floor, and _slice_window cuts a window's variables and rows out of it, at
zero costs, and sets its floor. A build depends only on the scenario,
vehicle, wear toggle and power mode. A station session is the same
per-vehicle LP over a shorter window. Both models take their window LPs from
a _Windows, which lives for one study call and is the one place that decides
what is built, cut or derived: it builds each vehicle once per wear toggle
and power mode and cuts each window once per step range and floor, and every
window a run solves is the cut derived with the run's costs (_cost_table)
and arrival stock (see lp.LpProblem.derive), on the crash and factor of the
cut's first solve.

Decision variables per vehicle and step: slow charge, grid discharge, fast
charge (all kWh, grid side) and state of energy (kWh). When the wear term is
priced, discharge also pays the wear slope and an excess variable per step
carries the rest of the degradation cost (see degradation).

Power caps are folded into variable bounds wherever they involve a single
variable (plug limit, on-board-charger limit, zero flow while unplugged);
the charge taper above the CC/CV breakpoint and the energy balance are rows.
Being plugged in is a prerequisite for any grid flow in every power mode;
the modes only change which magnitude caps apply while plugged in. Each
step's plug kind, power limit and fees are read from ``Scenario.plugs``, the
table the cost breakdown reads too.

Every fleet solve goes through _solve_evba, which takes a sequence of runs:
a priced scenario, cost toggles and a power mode each, the first run's
scenario validated once by the caller. Runs with the same wear toggle and
power mode share every variable, row and bound, so each such group is solved
together over one _Windows, which is dropped before the next group is built.
solve_evba is one run, solve_evba_series one run per price series, and each
of analysis's ablations one run per variant.

build/solve are pure given an immutable scenario; analysis runs every study's
solves one after another in the calling process.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import lp
from .degradation import degradation_cost, degradation_rows, discharge_wear_slope
from .domain import FAST, SLOW, PriceSeries, Scenario, ScenarioError, Vehicle, validate_scenario

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

def _cost_table(s: Scenario, v_idx: int, ct: CostToggles) -> np.ndarray:
    """Vehicle ``v_idx``'s objective coefficients under ``s``'s prices, one
    row per step with a column per variable kind (see _build_vehicle_lp).
    Each flow pays the price, discharge earns it, and a charge at a plug of
    its own kind also pays the plug's priced fees, from the vehicle's rows
    of ``Scenario.plugs``; with wear priced, discharge also pays the wear
    slope and the excess wear variable (EUR) costs 1."""
    price, plug = s.prices.values, s.plugs
    kind, zero = plug.kind[v_idx], np.zeros(len(price))
    fee = ((plug.grid_fee[v_idx] if ct.include_grid_tariff else zero)
           + (plug.cp_fee[v_idx] if ct.include_cp_tariff else zero))
    cost = np.zeros((len(price), 5 if ct.include_degradation else 4))
    cost[:, 0] = np.where(kind == SLOW, price + fee, price)
    cost[:, 1] = -price
    cost[:, 2] = np.where(kind == FAST, price + fee, price)
    if ct.include_degradation:
        cost[:, 1] += discharge_wear_slope(s.vehicles[v_idx])
        cost[:, 4] = 1.0
    return cost


def _caps(s: Scenario, v_idx: int, power: PowerMode) -> tuple[np.ndarray, np.ndarray]:
    """Upper bounds (slow charge/discharge, fast charge) per step on vehicle
    ``v_idx``'s flows under a power mode, from its rows of ``Scenario.plugs``:
    zero while unplugged, and zero for the flows a plug's kind cannot carry."""
    kind, limit = s.plugs.kind[v_idx], s.plugs.limit[v_idx]
    obc = s.vehicles[v_idx].obc_max_kwh_per_step
    slow = {
        PowerMode.FIXED_4KW: FIXED_POWER_KW * s.horizon.step_hours,
        PowerMode.OBC_ONLY: obc,
        PowerMode.CP_ONLY: limit,
        PowerMode.BOTH: np.where(obc < limit, obc, limit),  # min(limit, obc), as Python takes it
    }[power]
    return np.where(kind == SLOW, slow, 0.0), np.where(kind == FAST, limit, 0.0)


class _StepNames(Sequence):
    """Names ``kind[vid,t]``, formatted only when one is read: name ``i``
    joins the head ``heads[head[i]]`` (``kind[vid,``) and ``step[i]``. A
    slice is another such view, and the names equal any sequence of the
    same strings."""

    def __init__(self, heads: list[str], head: np.ndarray, step: np.ndarray):
        self._heads, self._head, self._step = heads, head, step

    def __len__(self) -> int:
        return len(self._step)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _StepNames(self._heads, self._head[i], self._step[i])
        return f"{self._heads[self._head[i]]}{int(self._step[i])}]"

    def __iter__(self):
        heads = self._heads
        return (f"{heads[h]}{t}]" for h, t in zip(self._head.tolist(), self._step.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:
        return repr(list(self))


@dataclass(frozen=True)
class _VehicleLp:
    """One vehicle's LP over the whole horizon, with no prices, no arrival
    stock and no floor: the arrays that every window LP of the vehicle is
    sliced from.

    ``lb`` and ``ub`` hold one row per step, and the rows are in
    compressed sparse row form over the whole horizon's variables. Step
    ``t`` has rows ``start[t]:start[t + 1]`` and its balance row is
    ``bal[t]``.
    """

    v: Vehicle
    lb: np.ndarray
    ub: np.ndarray
    var_names: _StepNames
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    senses: np.ndarray
    rhs: np.ndarray
    row_names: _StepNames
    start: np.ndarray
    bal: np.ndarray


def _build_vehicle_lp(s: Scenario, v_idx: int, wear: bool, power: PowerMode) -> _VehicleLp:
    """Vehicle ``v_idx``'s LP over the whole horizon, with no prices, no
    arrival stock and no floor; _slice_window cuts each window LP out of it.

    Variables run per step in the order sch, dch, fch, soe and, when wear is
    priced (``wear``), udeg (the wear above the discharge slope's share), so
    a solution vector reshapes to one row per step (see _window_schedule).
    Rows run per step in the order cv (where the taper applies), bal and,
    when wear is priced, deg: a step has ``has_cv + 2`` rows with wear
    priced and ``has_cv + 1`` without. The balance row of a step after the
    first has the previous step's soe as its first term. Nothing is
    validated here: each window LP checks what it takes.
    """
    v = s.vehicles[v_idx]
    cap = v.capacity_kwh
    steps = np.arange(s.horizon.step_count)
    k = len(steps)
    slow_cap, fast_cap = _caps(s, v_idx, power)

    # variables: one row of these tables per step
    kinds = ["sch", "dch", "fch", "soe", "udeg"][: 5 if wear else 4]
    lb, ub = np.zeros((k, len(kinds))), np.empty((k, len(kinds)))
    ub[:, 0] = ub[:, 1] = slow_cap
    ub[:, 2] = fast_cap
    lb[:, 3], ub[:, 3] = v.soe_min_kwh, v.soe_max_kwh
    if wear:
        ub[:, 4] = lp.INF
    sch, dch, fch, soe, *udeg = np.arange(k * len(kinds)).reshape(k, len(kinds)).T

    # rows: each step's rows follow those of earlier steps
    taper = v.soe_cv_frac < 1.0 - 1e-12 and power is not PowerMode.CP_ONLY
    has_cv = (slow_cap > 0.0) & taper  # charge taper above the CC/CV breakpoint; slow charging only
    start = np.concatenate([[0], (has_cv + (2 if wear else 1)).cumsum()])
    bal = start[:-1] + has_cv
    cv = np.flatnonzero(has_cv)
    taper_k = v.obc_max_kwh_per_step / (cap * (1.0 - v.soe_cv_frac)) if taper else 0.0
    n_cv = len(cv)
    rows = [bal[cv] - 1, bal[cv] - 1, bal, bal, bal, bal, bal[1:]]
    terms = [sch[cv], soe[cv], soe, sch, fch, dch, soe[:-1]]
    coefs = [np.repeat([1.0, taper_k, 1.0, -v.eta_sch, -v.eta_fch, 1.0 / v.eta_dch, -1.0],
                       [n_cv, n_cv, k, k, k, k, k - 1])]
    at = [bal[cv] - 1, bal]  # where the block rows below go
    senses = [np.full(n_cv, "<="), np.full(k, "=")]
    rhs = [np.full(n_cv, taper_k * cap), -s.trips.energy_kwh[v_idx] / v.eta_run]
    # each row block's kind (0 cv, 1 bal, 2 deg) and step, which name its rows
    row_kind, row_step = [np.zeros(n_cv, dtype=np.intp), np.ones(k, dtype=np.intp)], [cv, steps]
    if wear:
        d_row, d_var, d_coef, d_senses, d_rhs = degradation_rows(v, udeg[0], dch, soe, steps)
        deg_at = bal + 1
        rows.append(deg_at[d_row])
        terms.append(d_var)
        coefs.append(d_coef)
        at.append(deg_at)
        senses.append(d_senses)
        rhs.append(d_rhs)
        row_kind.append(np.full(k, 2))
        row_step.append(steps)
    # the row blocks, scattered into step order; the terms sorted by row,
    # then variable (no term repeats), and + 0.0 turns -0.0 into 0.0, as
    # summing duplicate terms from 0.0 would
    order = np.argsort(np.concatenate(at))
    row, var = np.concatenate(rows), np.concatenate(terms)
    by_row = np.lexsort((var, row))
    ids = np.arange(k * len(kinds))  # kinds vary fastest
    var_names = _StepNames([f"{kind}[{v.id}," for kind in kinds], ids % len(kinds), ids // len(kinds))
    row_names = _StepNames([f"{kind}[{v.id}," for kind in ("cv", "bal", "deg")], np.concatenate(row_kind)[order],
                           np.concatenate(row_step)[order])
    return _VehicleLp(
        v, lb, ub, var_names,
        np.concatenate([[0], np.bincount(row, minlength=start[-1]).cumsum()]),
        var[by_row], np.concatenate(coefs)[by_row] + 0.0,
        np.concatenate(senses)[order], np.concatenate(rhs)[order], row_names, start, bal,
    )


def _slice_window(vl: _VehicleLp, first: int, last: int, floor: float) -> lp.LpProblem:
    """The LP of ``vl``'s vehicle over steps ``first..last``, at zero costs and
    with no arrival stock: the previous step's soe term leaves the window's
    first balance row (_window_rhs adds the stock to its right-hand side).
    ``floor`` is the minimum stock at step ``last``.
    """
    v = vl.v
    floor_lb = max(v.soe_min_kwh, floor)
    if floor_lb > v.soe_max_kwh + 1e-9:
        raise _FloorUnreachable(
            f"vehicle {v.id!r}: required stock {floor_lb:.3f} kWh at step {last} "
            f"exceeds the SOE ceiling {v.soe_max_kwh:.3f} kWh"
        )
    steps = slice(first, last + 1)
    lb = vl.lb[steps].copy()
    lb[-1, 3] = min(floor_lb, v.soe_max_kwh)
    width = lb.shape[1]
    r0, r1, b0 = vl.start[first], vl.start[last + 1], vl.bal[first]
    lo, hi = vl.indptr[r0], vl.indptr[r1]
    # a window from step 0 views the build's rows, so _Windows holds them once
    indptr, indices, data = vl.indptr[r0:r1 + 1], vl.indices[lo:hi], vl.data[lo:hi]
    if first:  # soe[first - 1] leaves: the first term of the first balance row
        keep = np.arange(lo, hi) != vl.indptr[b0]
        indptr = indptr - lo
        indptr[b0 - r0 + 1:] -= 1
        indices, data = indices[keep] - first * width, data[keep]
    return lp.LpProblem(
        f"window[{v.id},{first}..{last}]", lb.ravel(), vl.ub[steps].ravel(), np.zeros(lb.size),
        vl.var_names[first * width:(last + 1) * width], indptr, indices, data, vl.senses[r0:r1],
        vl.rhs[r0:r1], vl.row_names[r0:r1],
    )


def _window_rhs(vl: _VehicleLp, first: int, last: int, init_soe: float) -> np.ndarray:
    """The right-hand side of ``vl``'s window LP over steps ``first..last``
    whose arrival stock, entering step ``first``, is ``init_soe``."""
    r0, b0 = vl.start[first], vl.bal[first]
    rhs = vl.rhs[r0:vl.start[last + 1]].copy()
    rhs[b0 - r0] += init_soe
    return rhs


class _Windows:
    """The window LPs of one study call, built once and derived after.

    Each vehicle's whole-horizon LP is built once per wear toggle and power
    mode, which with the scenario and vehicle are all a build depends on.
    Each window is cut from it once per step range and floor, which fix the
    window's rows and bounds and so its crash (see lp._Start). Every request
    gets the cut derived with its run's costs and arrival stock (see
    lp.LpProblem.derive), so it solves on the crash and factor of the cut's
    first solve, bit for bit as a cut built at those costs would.
    """

    def __init__(self) -> None:
        self._builds: dict[tuple[int, bool, PowerMode], _VehicleLp] = {}
        self._cuts: dict[tuple, lp.LpProblem] = {}

    def vehicle(self, s: Scenario, v_idx: int, ct: CostToggles, power: PowerMode) -> Callable[..., lp.LpProblem]:
        """Vehicle ``v_idx``'s windows under the run ``(s, ct, power)``: a
        function of ``(first, last, arrival, floor, maximize_departure=False)``
        that returns the window LP over steps ``first..last`` with that
        arrival stock and departure floor (see _slice_window), and raises
        _FloorUnreachable for a floor above the SOE ceiling. With
        ``maximize_departure`` the objective is the negated stock at step
        ``last`` instead of the run's costs."""
        key = (v_idx, ct.include_degradation, power)
        if key not in self._builds:
            self._builds[key] = _build_vehicle_lp(s, *key)
        vl, costs = self._builds[key], _cost_table(s, v_idx, ct)

        def window(first: int, last: int, arrival: float, floor: float,
                   maximize_departure: bool = False) -> lp.LpProblem:
            cut = self._cuts.get((*key, first, last, floor))
            if cut is None:
                cut = self._cuts[(*key, first, last, floor)] = _slice_window(vl, first, last, floor)
            if maximize_departure:  # the negated stock at step ``last``
                cost = np.zeros((last + 1 - first, costs.shape[1]))
                cost[-1, 3] = -1.0
            else:
                cost = costs[first:last + 1]
            return cut.derive(cost.ravel(), _window_rhs(vl, first, last, arrival))

        return window


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
    return _days(_Windows(), s, ct, power)


def _days(windows: _Windows, s: Scenario, ct: CostToggles, power: PowerMode) -> list[lp.LpProblem]:
    """Each vehicle's whole-day window LP under the run ``(s, ct, power)``,
    from ``windows``; the end-of-day stock floor is the initial stock."""
    last = s.horizon.step_count - 1
    return [windows.vehicle(s, v_idx, ct, power)(0, last, v.soe_initial_kwh, v.soe_initial_kwh)
            for v_idx, v in enumerate(s.vehicles)]


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

    ``c_deg`` is the wear the LP priced when the wear term is priced: the
    discharge slope's share ``s * e_dch`` plus the excess variable. Otherwise
    it is the wear the trajectory implies.
    """
    cols = sol.x.reshape(-1, 5 if ct.include_degradation else 4)
    e_sch, e_dch, e_fch = (_nonneg(cols[:, j]) for j in range(3))
    soe = cols[:, 3]
    if ct.include_degradation:
        c_deg = discharge_wear_slope(v) * e_dch + cols[:, 4]
    else:
        c_deg = _implied_wear(v, e_dch, soe)
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
    plug = s.plugs
    out = []
    for v_idx, v in enumerate(s.vehicles):
        flow = e_sch[v_idx] + e_fch[v_idx]
        purchase = float(prices @ flow)
        revenue = float(prices @ e_dch[v_idx])
        # each fee sums in step order from 0.0, as a loop over the steps would
        grid = float(0.0 + np.cumsum(plug.grid_fee[v_idx] * flow)[-1]) if ct.include_grid_tariff else 0.0
        cp_fee = float(0.0 + np.cumsum(plug.cp_fee[v_idx] * flow)[-1]) if ct.include_cp_tariff else 0.0
        deg = float(deg_priced[v_idx].sum())
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
    slow_cap, fast_cap = _caps(s, v_idx, power)
    for t, (slow, fast) in enumerate(zip(slow_cap.tolist(), fast_cap.tolist())):
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
    _require_solvable(s)
    return _solve_evba([(s, ct, power)])[0]


def solve_evba_series(
    s: Scenario,
    price_sets: Sequence[PriceSeries],
    ct: CostToggles = CostToggles(),
    power: PowerMode = PowerMode.BOTH,
) -> list[FleetSchedule]:
    """``[solve_evba(s.with_prices(ps), ct, power) for ps in price_sets]``,
    bit for bit, with the scenario validated, one ``Scenario.plugs`` table
    for every series and each vehicle's LP built once: only the objective
    differs between the series (see _solve_evba)."""
    if not price_sets:
        return []
    s = s.with_prices(price_sets[0])  # series 0's length, then an invalid scenario, is reported first
    _require_solvable(s)
    s.plugs  # computed here, so every series priced from s shares it (see Scenario.with_prices)
    return _solve_evba([(s.with_prices(ps), ct, power) for ps in price_sets])


def _solve_evba(runs: Sequence[tuple[Scenario, CostToggles, PowerMode]]) -> list[FleetSchedule]:
    """``solve_evba(sp, ct, power)`` for each run ``(sp, ct, power)``, in order
    and bit for bit. The runs' scenarios may differ in their prices only (see
    Scenario.with_prices), and the caller has validated the first run's
    (see _require_solvable).

    Runs of one wear toggle and power mode differ in their objectives only,
    so each such group is solved over one _Windows: it builds each vehicle's
    whole-day LP once, and every run solves it derived with its own costs, on
    the crash basis and factor of its first solve. A group's LPs are dropped
    before the next group is built."""
    groups: dict[tuple[bool, PowerMode], list[int]] = {}
    for i, (_, ct, power) in enumerate(runs):
        groups.setdefault((ct.include_degradation, power), []).append(i)
    out: list[FleetSchedule | None] = [None] * len(runs)
    for group in groups.values():
        windows = _Windows()
        for i in group:
            out[i] = _solve_days(windows, *runs[i])
    return out


def _solve_days(windows: _Windows, s: Scenario, ct: CostToggles, power: PowerMode) -> FleetSchedule:
    """solve_evba of the run ``(s, ct, power)``, its LPs from ``windows``."""
    sols = []
    for v_idx, day in enumerate(_days(windows, s, ct, power)):
        sol = lp.solve(day)
        if sol.status == lp.INFEASIBLE:
            return FleetSchedule.empty(s, sol.status, _infeasibility_hint(s, v_idx, power))
        if sol.status != lp.OPTIMAL:
            message = f"vehicle {s.vehicles[v_idx].id!r}: {_numerics_hint(s, sol.status)}"
            return FleetSchedule.empty(s, sol.status, message)
        sols.append(sol)
    return extract_schedule(sols, s, ct)
