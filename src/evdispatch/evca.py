"""Per-plug session scheduler: chronological LPs chained by realized state.

Each maximal run of steps a vehicle spends at one charging point is a
session. Sessions are solved one at a time, in order of arrival: the arrival
stock is whatever the previous session left after the trip in between, the
departure stock must reach a policy floor (or the end-of-day floor for the
last session). A session LP sees only the prices of its own window, so the
optimizer at one plug is blind to prices elsewhere in the day.

Each session LP is a slice of its vehicle's whole-horizon LP, which
solve_evca builds once per vehicle per call (see evba._slice_window); the
best-effort re-solves are slices of the same build. solve_evca_series solves
one scenario under several price series in one pass: it builds each vehicle
once and cuts each session's window once, and every further series solves
that window derived with its own costs and arrival stock.

Sessions of one vehicle are strictly sequential because state chains through
them; different vehicles are independent.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from . import lp
from .degradation import degradation_cost  # noqa: F401 - bench/tracing.py wraps this binding
from .domain import PriceSeries, Scenario, ScenarioError, Vehicle
from .domain import validate_scenario  # noqa: F401 - bench/tracing.py wraps this binding
from .evba import (
    CostToggles,
    FleetSchedule,
    PowerMode,
    SessionResult,
    _assemble,
    _build_vehicle_lp,
    _FloorUnreachable,
    _cost_table,
    _numerics_hint,
    _priced,
    _require_solvable,
    _slice_window,
    _VehicleLp,
    _window_rhs,
    _window_schedule,
)


class SessionInfeasibleError(RuntimeError):
    """A session LP has no feasible schedule (e.g. unreachable departure floor)."""


class ItineraryError(RuntimeError):
    """Trips drain a vehicle below its minimum stock between sessions."""


@dataclass(frozen=True)
class Session:
    """One plug visit: vehicle, charging point and an inclusive step range."""

    vehicle: str
    cp: str
    arrive_step: int
    depart_step: int

    @property
    def steps(self) -> np.ndarray:
        return np.arange(self.arrive_step, self.depart_step + 1)

    def describe(self) -> str:
        return f"vehicle {self.vehicle!r} at {self.cp!r}, steps {self.arrive_step}..{self.depart_step}"


@dataclass(frozen=True)
class SoePolicy:
    """Departure requirement: leave every plug with at least this SOE fraction."""

    depart_min_frac: float

    def floor_kwh(self, v: Vehicle) -> float:
        return self.depart_min_frac * v.capacity_kwh


HIGH_SOE = SoePolicy(0.95)
LOW_SOE = SoePolicy(0.60)


def derive_sessions(s: Scenario) -> list[list[Session]]:
    """Split each vehicle's connectivity into chronological sessions.

    A session is a maximal contiguous run of steps at one charging point.
    Returns one (possibly empty) list per vehicle, in scenario order.
    """
    out: list[list[Session]] = []
    for v, row in zip(s.vehicles, s.connectivity.index):
        # runs of equal plug index; the unplugged ones (-1) are not sessions
        edges = [0, *(np.flatnonzero(np.diff(row)) + 1).tolist(), row.size]
        out.append([
            Session(v.id, s.charging_points[row[lo]].id, lo, hi - 1)
            for lo, hi in zip(edges[:-1], edges[1:])
            if row[lo] >= 0
        ])
    return out


def chain_arrival_soe(prev_depart_soe: float, trip_energy_kwh: float, v: Vehicle) -> float:
    """Stock at the next arrival: previous departure minus the trip drain.

    Both numbers must be finite and >= 0, else ValueError names the first
    that is not; the sign check is ``not (x >= 0)`` so that NaN fails it."""
    for name, x in (("stock", prev_depart_soe), ("trip energy", trip_energy_kwh)):
        if not (x >= 0 and np.isfinite(x)):
            raise ValueError(f"{name} must be finite and >= 0, got {x}")
    arrival = prev_depart_soe - trip_energy_kwh / v.eta_run
    if arrival < v.soe_min_kwh - 1e-9:
        raise ItineraryError(
            f"vehicle {v.id!r}: trip of {trip_energy_kwh:.3f} kWh drains the battery to "
            f"{arrival:.3f} kWh, below the floor {v.soe_min_kwh:.3f} kWh"
        )
    return arrival


def _solve_session(s: Scenario, problem: lp.LpProblem, session: Session) -> lp.LpSolution | None:
    """A session LP's optimal solution, or None when it is infeasible.

    Any other non-optimal status raises ArithmeticError naming the session.
    """
    sol = lp.solve(problem)
    if sol.status == lp.INFEASIBLE:
        return None
    if sol.status != lp.OPTIMAL:
        raise ArithmeticError(f"{session.describe()}: {_numerics_hint(s, sol.status)}")
    return sol


def _solve_session_lp(
    s: Scenario,
    vl: _VehicleLp,
    session: Session,
    arrival: float,
    floor: float,
    maximize_departure: bool = False,
) -> lp.LpSolution | None:
    """One session LP, sliced from its vehicle's LP ``vl``; None when
    infeasible, its floor out of reach included (see _solve_session)."""
    try:
        problem = _slice_window(
            vl, session.arrive_step, session.depart_step, arrival, floor,
            maximize_departure=maximize_departure,
        )
    except _FloorUnreachable:
        return None
    return _solve_session(s, problem, session)


def solve_evca(
    s: Scenario,
    policy: SoePolicy,
    ct: CostToggles = CostToggles(),
    power: PowerMode = PowerMode.BOTH,
    *,
    best_effort: bool = False,
) -> FleetSchedule:
    """Solve every session chronologically and stitch the fleet schedule.

    The last session of a vehicle's day replaces the policy floor with the
    end-of-day floor (initial stock, plus coverage for any trips after the
    final unplugging). With ``best_effort`` an unreachable floor is lowered
    to the maximum reachable stock and recorded as a warning instead of
    raising SessionInfeasibleError.
    """
    fs = _solve_evca(s, [s.prices], policy, ct, power, best_effort)[0]
    if isinstance(fs, Exception):
        raise fs
    return fs


def solve_evca_series(
    s: Scenario,
    price_sets: Sequence[PriceSeries],
    policy: SoePolicy,
    ct: CostToggles = CostToggles(),
    power: PowerMode = PowerMode.BOTH,
    *,
    best_effort: bool = False,
) -> list[FleetSchedule | ItineraryError | SessionInfeasibleError]:
    """``solve_evca(s.with_prices(ps), ...)`` for each price series, bit for
    bit, with the scenario validated, each vehicle's LP built and each
    session window cut once (see _solve_evca). A series whose itinerary
    fails or whose session is infeasible gets the exception that
    solve_evca raises returned in its place, and the other series go on;
    any other exception propagates."""
    if not price_sets:
        return []
    return _solve_evca(s.with_prices(price_sets[0]), price_sets, policy, ct, power, best_effort)


def _solve_evca(
    s: Scenario,
    price_sets: Sequence[PriceSeries],
    policy: SoePolicy,
    ct: CostToggles,
    power: PowerMode,
    best_effort: bool,
) -> list[FleetSchedule | ItineraryError | SessionInfeasibleError]:
    """solve_evca of ``s`` under each price series, ``s``'s own first, with a
    failed series' exception in its place.

    The series differ only in their costs and, through the sessions before,
    in each session's arrival stock, which is its window's right-hand side.
    So each session's window is cut once, for the first series that reaches
    it, and every further series solves it derived with its own costs and
    arrival stock (see lp.LpProblem.derive), reusing the crash basis and
    factor of its first solve. A best-effort floor depends on the series'
    arrival stock, so its window is cut for that series alone.
    """
    _require_solvable(s)
    if not (policy.depart_min_frac >= 0.0):
        raise ScenarioError("policy floor must be a fraction >= 0")
    for v in s.vehicles:
        if policy.depart_min_frac < v.soe_min_frac - 1e-12:
            raise ScenarioError(
                f"policy floor {policy.depart_min_frac} below vehicle {v.id!r} "
                f"minimum SOE fraction {v.soe_min_frac}"
            )

    sessions = derive_sessions(s)
    frames = [_build_vehicle_lp(s, v_idx, ct, power) if ses else None for v_idx, ses in enumerate(sessions)]
    scenarios = _priced(s, price_sets)
    failed: list[ItineraryError | SessionInfeasibleError | None] = [None] * len(scenarios)
    windows: list[list] = [[] for _ in scenarios]
    traces: list[list[SessionResult]] = [[] for _ in scenarios]
    warnings: list[list[str]] = [[] for _ in scenarios]
    for v_idx, (v, vl) in enumerate(zip(s.vehicles, frames)):
        trips_v = s.trips.energy_kwh[v_idx]
        live = [j for j, exc in enumerate(failed) if exc is None]
        if vl is None:
            if trips_v.sum() > 0:
                for j in live:
                    failed[j] = ItineraryError(
                        f"vehicle {v.id!r}: has trips but no charging opportunity, "
                        f"end-of-day stock floor cannot be met"
                    )
            continue
        costs = {j: vl.cost if j == 0 else _cost_table(scenarios[j], v_idx, ct) for j in live}
        running = dict.fromkeys(live, v.soe_initial_kwh)
        prev_end = -1
        for k, session in enumerate(sessions[v_idx]):
            first, last = session.arrive_step, session.depart_step
            gap_trips = float(trips_v[prev_end + 1 : first].sum())
            if k == len(sessions[v_idx]) - 1:
                post_trips = float(trips_v[last + 1 :].sum())
                session_floor = v.soe_initial_kwh + post_trips / v.eta_run
                session_note = "end-of-day floor"
            else:
                session_floor = policy.floor_kwh(v)
                session_note = ""
            shared: lp.LpProblem | None = None  # the window at the session floor
            unreachable = False
            for j in live:
                sp = scenarios[j]
                try:
                    arrival = chain_arrival_soe(running[j], gap_trips, v)
                except ItineraryError as exc:
                    failed[j] = ItineraryError(f"{exc} (before {session.describe()})")
                    continue
                arrival = min(arrival, v.soe_max_kwh)
                floor, note = session_floor, session_note
                if shared is None and not unreachable:
                    try:
                        shared = _slice_window(vl, first, last, arrival, floor)
                    except _FloorUnreachable:
                        unreachable = True
                sol = None
                if not unreachable:
                    problem = shared if j == 0 else shared.derive(costs[j][first:last + 1].ravel(),
                                                                  _window_rhs(vl, first, last, arrival))
                    sol = _solve_session(sp, problem, session)
                if sol is None and best_effort:
                    relaxed = _solve_session_lp(sp, vl, session, arrival, v.soe_min_kwh, maximize_departure=True)
                    if relaxed is not None:
                        # the relaxed objective is minus the departure stock
                        reachable = min(-relaxed.objective, v.soe_max_kwh)
                        warnings[j].append(
                            f"{session.describe()}: floor {floor:.3f} kWh unreachable, "
                            f"lowered to {reachable:.3f} kWh"
                        )
                        note = (note + "; " if note else "") + "best-effort floor"
                        floor = reachable - 1e-9
                        sol = _solve_session_lp(sp, replace(vl, cost=costs[j]), session, arrival, floor)
                if sol is None:
                    failed[j] = SessionInfeasibleError(
                        f"{session.describe()}: no feasible schedule reaches the departure "
                        f"floor {floor:.3f} kWh from arrival stock {arrival:.3f} kWh"
                    )
                    continue
                arrays = _window_schedule(v, sol, ct)
                windows[j].append((v_idx, session.steps, arrays, sol.objective))
                depart_soe = float(arrays[3][-1])
                traces[j].append(
                    SessionResult(
                        vehicle=v.id,
                        cp=session.cp,
                        arrive_step=first,
                        depart_step=last,
                        arrival_soe_kwh=arrival,
                        depart_soe_kwh=depart_soe,
                        floor_kwh=float(floor),
                        cost_eur=float(sol.objective),
                        note=note,
                    )
                )
                running[j] = depart_soe
            live = [j for j in live if failed[j] is None]
            prev_end = last
    return [
        _assemble(sp, ct, windows[j], warnings=warnings[j], sessions=traces[j]) if exc is None else exc
        for j, (sp, exc) in enumerate(zip(scenarios, failed))
    ]
