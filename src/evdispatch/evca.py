"""Per-plug session scheduler: chronological LPs chained by realized state.

Each maximal run of steps a vehicle spends at one charging point is a
session. Sessions are solved one at a time, in order of arrival: the arrival
stock is whatever the previous session left after the trip in between, the
departure stock must reach a policy floor (or the end-of-day floor for the
last session). A session LP sees only the prices of its own window, so the
optimizer at one plug is blind to prices elsewhere in the day.

Sessions of one vehicle are strictly sequential because state chains through
them; different vehicles are independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp
from .degradation import degradation_cost  # noqa: F401 - bench/tracing.py wraps this binding
from .domain import Scenario, ScenarioError, Vehicle, validate_scenario
from .evba import (
    CostToggles,
    FleetSchedule,
    PowerMode,
    SessionResult,
    _build_window_lp,
    _cost_breakdown,
    _FloorUnreachable,
    _implied_wear,
    _window_schedule,
    AssemblyError,
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
    T = s.horizon.step_count
    for v_idx, v in enumerate(s.vehicles):
        sessions: list[Session] = []
        t = 0
        while t < T:
            cp_idx = s.connectivity.cp_index_at(v_idx, t)
            if cp_idx is None:
                t += 1
                continue
            start = t
            while t + 1 < T and s.connectivity.cp_index_at(v_idx, t + 1) == cp_idx:
                t += 1
            sessions.append(
                Session(
                    vehicle=v.id,
                    cp=s.charging_points[cp_idx].id,
                    arrive_step=start,
                    depart_step=t,
                )
            )
            t += 1
        out.append(sessions)
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
    v_idx: int,
    session: Session,
    arrival: float,
    floor: float,
    ct: CostToggles,
    power: PowerMode,
    feas_tol: float,
    maximize_departure: bool = False,
) -> lp.LpSolution | None:
    """One session LP; None when infeasible."""
    try:
        problem = _build_window_lp(
            s, v_idx, session.steps, arrival, floor, ct, power,
            maximize_departure=maximize_departure,
        )
    except _FloorUnreachable:
        return None
    sol = lp.solve(problem, feas_tol=feas_tol)
    return sol if sol.status == lp.OPTIMAL else None


def solve_evca(
    s: Scenario,
    policy: SoePolicy,
    ct: CostToggles = CostToggles(),
    power: PowerMode = PowerMode.BOTH,
    *,
    best_effort: bool = False,
    feas_tol: float = 1e-6,
) -> FleetSchedule:
    """Solve every session chronologically and stitch the fleet schedule.

    The last session of a vehicle's day replaces the policy floor with the
    end-of-day floor (initial stock, plus coverage for any trips after the
    final unplugging). With ``best_effort`` an unreachable floor is lowered
    to the maximum reachable stock and recorded as a warning instead of
    raising SessionInfeasibleError.
    """
    diags = validate_scenario(s)
    if diags:
        raise ScenarioError("invalid scenario:\n  " + "\n  ".join(diags))
    if s.prices is None:
        raise ScenarioError("scenario has no price series attached; use Scenario.with_prices")
    if not (policy.depart_min_frac >= 0.0):
        raise ValueError("policy floor must be a fraction >= 0")
    for v in s.vehicles:
        if policy.depart_min_frac < v.soe_min_frac - 1e-12:
            raise ValueError(
                f"policy floor {policy.depart_min_frac} below vehicle {v.id!r} "
                f"minimum SOE fraction {v.soe_min_frac}"
            )

    V, T = len(s.vehicles), s.horizon.step_count
    e_sch = np.zeros((V, T))
    e_dch = np.zeros((V, T))
    e_fch = np.zeros((V, T))
    soe = np.zeros((V, T))
    c_deg = np.zeros((V, T))
    in_window = np.zeros((V, T), dtype=bool)
    traces: list[SessionResult] = []
    warnings: list[str] = []
    session_cost_sum = 0.0

    all_sessions = derive_sessions(s)
    for v_idx, v in enumerate(s.vehicles):
        sessions = all_sessions[v_idx]
        trips_v = s.trips.energy_kwh[v_idx]
        if not sessions:
            if trips_v.sum() > 0:
                raise ItineraryError(
                    f"vehicle {v.id!r}: has trips but no charging opportunity, "
                    f"end-of-day stock floor cannot be met"
                )
            continue
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

            sol = _solve_session_lp(s, v_idx, session, arrival, floor, ct, power, feas_tol)
            if sol is None and best_effort:
                relaxed = _solve_session_lp(
                    s, v_idx, session, arrival, v.soe_min_kwh, ct, power, feas_tol,
                    maximize_departure=True,
                )
                if relaxed is not None:
                    # the relaxed objective is minus the departure stock
                    reachable = min(-relaxed.objective, v.soe_max_kwh)
                    warnings.append(
                        f"{session.describe()}: floor {floor:.3f} kWh unreachable, "
                        f"lowered to {reachable:.3f} kWh"
                    )
                    note = (note + "; " if note else "") + "best-effort floor"
                    floor = reachable - 1e-9
                    sol = _solve_session_lp(
                        s, v_idx, session, arrival, floor, ct, power, feas_tol
                    )
            if sol is None:
                raise SessionInfeasibleError(
                    f"{session.describe()}: no feasible schedule reaches the departure "
                    f"floor {floor:.3f} kWh from arrival stock {arrival:.3f} kWh"
                )
            w = slice(session.arrive_step, session.depart_step + 1)
            e_sch[v_idx, w], e_dch[v_idx, w], e_fch[v_idx, w], soe[v_idx, w], c_deg[v_idx, w] = (
                _window_schedule(v, sol, ct)
            )
            in_window[v_idx, w] = True
            depart_soe = soe[v_idx, session.depart_step]
            session_cost_sum += sol.objective
            traces.append(
                SessionResult(
                    vehicle=v.id,
                    cp=session.cp,
                    arrive_step=session.arrive_step,
                    depart_step=session.depart_step,
                    arrival_soe_kwh=arrival,
                    depart_soe_kwh=float(depart_soe),
                    floor_kwh=float(floor),
                    cost_eur=float(sol.objective),
                    note=note,
                )
            )
            running = float(depart_soe)
            prev_end = session.depart_step

    # stitch stock and wear across unplugged steps
    off_deg_sum = 0.0
    for v_idx, v in enumerate(s.vehicles):
        prev = v.soe_initial_kwh
        for t in range(T):
            if in_window[v_idx, t]:
                prev = soe[v_idx, t]
                continue
            prev = prev - float(s.trips.energy_kwh[v_idx, t]) / v.eta_run
            soe[v_idx, t] = prev
        off = ~in_window[v_idx]
        c_deg[v_idx, off] = _implied_wear(v, e_dch[v_idx, off], soe[v_idx, off])
        if ct.include_degradation:
            off_deg_sum += float(c_deg[v_idx, off].sum())

    deg_priced = c_deg if ct.include_degradation else np.zeros((V, T))
    per_vehicle = _cost_breakdown(s, ct, e_sch, e_dch, e_fch, deg_priced)
    total = sum(c.total_eur for c in per_vehicle)
    expected = session_cost_sum + off_deg_sum
    if not (abs(total - expected) <= 1e-6 * (1.0 + abs(expected))):
        raise AssemblyError(
            f"stitched cost {total:.9f} does not reconcile with session objectives "
            f"plus off-plug wear {expected:.9f}"
        )
    return FleetSchedule(
        status="optimal",
        e_sch=e_sch,
        e_dch=e_dch,
        e_fch=e_fch,
        soe=soe,
        c_deg=c_deg,
        per_vehicle=per_vehicle,
        total_cost_eur=total,
        warnings=warnings,
        sessions=traces,
    )


def sessions_csv_text(fs: FleetSchedule) -> str:
    """Per-session trace as CSV."""
    lines = ["vehicle,cp,arrive_step,depart_step,arrival_soe_kwh,depart_soe_kwh,floor_kwh,cost_eur,note"]
    for tr in fs.sessions or []:
        lines.append(
            f"{tr.vehicle},{tr.cp},{tr.arrive_step},{tr.depart_step},"
            f"{tr.arrival_soe_kwh:.6f},{tr.depart_soe_kwh:.6f},{tr.floor_kwh:.6f},"
            f"{tr.cost_eur:.6f},{tr.note}"
        )
    return "\n".join(lines) + "\n"
