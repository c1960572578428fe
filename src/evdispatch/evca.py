"""Per-plug session scheduler: chronological LPs chained by realized state.

Each maximal run of steps a vehicle spends at one charging point is a
session. Sessions are solved one at a time, in order of arrival: the arrival
stock is whatever the previous session left after the trip in between, the
departure stock must reach a policy floor (or the end-of-day floor for the
last session). A session LP sees only the prices of its own window, so the
optimizer at one plug is blind to prices elsewhere in the day.

Each session LP is a slice of its vehicle's whole-horizon LP, which
solve_evca builds once per vehicle per call (see evba._slice_window); the
best-effort re-solves are slices of the same build.

Sessions of one vehicle are strictly sequential because state chains through
them; different vehicles are independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp
from .degradation import degradation_cost  # noqa: F401 - bench/tracing.py wraps this binding
from .domain import Scenario, ScenarioError, Vehicle
from .domain import validate_scenario  # noqa: F401 - bench/tracing.py wraps this binding
from .evba import (
    CostToggles,
    FleetSchedule,
    PowerMode,
    SessionResult,
    _assemble,
    _build_vehicle_lp,
    _FloorUnreachable,
    _numerics_hint,
    _require_solvable,
    _slice_window,
    _VehicleLp,
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
    """Stock at the next arrival: previous departure minus the trip drain."""
    if prev_depart_soe < 0 or trip_energy_kwh < 0:
        raise ValueError("stock and trip energy must be >= 0")
    arrival = prev_depart_soe - trip_energy_kwh / v.eta_run
    if arrival < v.soe_min_kwh - 1e-9:
        raise ItineraryError(
            f"vehicle {v.id!r}: trip of {trip_energy_kwh:.3f} kWh drains the battery to "
            f"{arrival:.3f} kWh, below the floor {v.soe_min_kwh:.3f} kWh"
        )
    return arrival


def _solve_session_lp(
    s: Scenario,
    vl: _VehicleLp,
    session: Session,
    arrival: float,
    floor: float,
    maximize_departure: bool = False,
) -> lp.LpSolution | None:
    """One session LP, sliced from its vehicle's LP ``vl``; None when infeasible.

    Any other non-optimal status raises ArithmeticError naming the session.
    """
    try:
        problem = _slice_window(
            vl, session.arrive_step, session.depart_step, arrival, floor,
            maximize_departure=maximize_departure,
        )
    except _FloorUnreachable:
        return None
    sol = lp.solve(problem)
    if sol.status == lp.INFEASIBLE:
        return None
    if sol.status != lp.OPTIMAL:
        raise ArithmeticError(f"{session.describe()}: {_numerics_hint(s, sol.status)}")
    return sol


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
    _require_solvable(s)
    if not (policy.depart_min_frac >= 0.0):
        raise ScenarioError("policy floor must be a fraction >= 0")
    for v in s.vehicles:
        if policy.depart_min_frac < v.soe_min_frac - 1e-12:
            raise ScenarioError(
                f"policy floor {policy.depart_min_frac} below vehicle {v.id!r} "
                f"minimum SOE fraction {v.soe_min_frac}"
            )

    windows = []
    traces: list[SessionResult] = []
    warnings: list[str] = []
    for v_idx, (v, sessions) in enumerate(zip(s.vehicles, derive_sessions(s))):
        trips_v = s.trips.energy_kwh[v_idx]
        if not sessions:
            if trips_v.sum() > 0:
                raise ItineraryError(
                    f"vehicle {v.id!r}: has trips but no charging opportunity, "
                    f"end-of-day stock floor cannot be met"
                )
            continue
        vl = _build_vehicle_lp(s, v_idx, ct, power)
        running = v.soe_initial_kwh
        prev_end = -1
        for k, session in enumerate(sessions):
            gap_trips = float(trips_v[prev_end + 1 : session.arrive_step].sum())
            try:
                arrival = chain_arrival_soe(running, gap_trips, v)
            except ItineraryError as exc:
                raise ItineraryError(f"{exc} (before {session.describe()})") from None
            arrival = min(arrival, v.soe_max_kwh)
            is_last = k == len(sessions) - 1
            if is_last:
                post_trips = float(trips_v[session.depart_step + 1 :].sum())
                floor = v.soe_initial_kwh + post_trips / v.eta_run
                note = "end-of-day floor"
            else:
                floor = policy.floor_kwh(v)
                note = ""

            sol = _solve_session_lp(s, vl, session, arrival, floor)
            if sol is None and best_effort:
                relaxed = _solve_session_lp(s, vl, session, arrival, v.soe_min_kwh, maximize_departure=True)
                if relaxed is not None:
                    # the relaxed objective is minus the departure stock
                    reachable = min(-relaxed.objective, v.soe_max_kwh)
                    warnings.append(
                        f"{session.describe()}: floor {floor:.3f} kWh unreachable, "
                        f"lowered to {reachable:.3f} kWh"
                    )
                    note = (note + "; " if note else "") + "best-effort floor"
                    floor = reachable - 1e-9
                    sol = _solve_session_lp(s, vl, session, arrival, floor)
            if sol is None:
                raise SessionInfeasibleError(
                    f"{session.describe()}: no feasible schedule reaches the departure "
                    f"floor {floor:.3f} kWh from arrival stock {arrival:.3f} kWh"
                )
            arrays = _window_schedule(v, sol, ct)
            windows.append((v_idx, session.steps, arrays, sol.objective))
            depart_soe = float(arrays[3][-1])
            traces.append(
                SessionResult(
                    vehicle=v.id,
                    cp=session.cp,
                    arrive_step=session.arrive_step,
                    depart_step=session.depart_step,
                    arrival_soe_kwh=arrival,
                    depart_soe_kwh=depart_soe,
                    floor_kwh=float(floor),
                    cost_eur=float(sol.objective),
                    note=note,
                )
            )
            running = depart_soe
            prev_end = session.depart_step
    return _assemble(s, ct, windows, warnings=warnings, sessions=traces)
