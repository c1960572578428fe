"""Scenario builders for the tests: a tiny arbitrage case, seeded random
fleets, and a finer-stepped copy of one vehicle.

Random scenarios are feasible by construction for both schedulers, including
the 95% departure policy: sessions are long enough to recharge what the trips
drain, which a forward simulation of per-step maximum charging verifies
before a candidate is accepted.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from evdispatch.domain import (
    ChargingPoint,
    ConnectivityMatrix,
    Horizon,
    PriceSeries,
    Scenario,
    TripPlan,
    Vehicle,
)

T = 24


def micro_scenario() -> Scenario:
    """1 EV, 3 steps, 4 kWh/step plug, prices [0.10, 0.50, 0.10], no fees."""
    v = Vehicle(id="ev", capacity_kwh=20.0, obc_max_kwh_per_step=10.0, battery_cost_eur=1000.0)
    cp = ChargingPoint(
        id="home",
        kind="slow",
        power_limit_kwh_per_step=4.0,
        grid_fee_low_eur_per_kwh=0.0,
        grid_fee_high_eur_per_kwh=0.0,
        cp_fee_eur_per_kwh=0.0,
    )
    s = Scenario(
        horizon=Horizon(3, 1.0),
        vehicles=(v,),
        charging_points=(cp,),
        connectivity=ConnectivityMatrix(np.ones((1, 3, 1), dtype=bool)),
        trips=TripPlan(np.zeros((1, 3))),
    )
    return s.with_prices(PriceSeries("micro", np.array([0.10, 0.50, 0.10])))


def flat_scenario(n_vehicles: int = 2, price: float = 0.2, with_trips: bool = False) -> Scenario:
    """Always-connected fleet with zero fees and flat prices."""
    vehicles = tuple(
        Vehicle(id=f"ev{i}", capacity_kwh=20.0 + 10.0 * i, obc_max_kwh_per_step=10.0,
                battery_cost_eur=1000.0)
        for i in range(n_vehicles)
    )
    cp = ChargingPoint("p0", "slow", 6.0, 0.0, 0.0, 0.0)
    mask = np.ones((n_vehicles, T, 1), dtype=bool)
    trips = np.zeros((n_vehicles, T))
    if with_trips:
        mask[:, 12, 0] = False
        trips[:, 12] = 1.8
    s = Scenario(
        horizon=Horizon(T, 1.0),
        vehicles=vehicles,
        charging_points=(cp,),
        connectivity=ConnectivityMatrix(mask),
        trips=TripPlan(trips),
    )
    return s.with_prices(PriceSeries("flat", np.full(T, price)))


def refine(s: Scenario, vehicle: str, factor: int) -> Scenario:
    """One vehicle of ``s`` with every step split into ``factor`` steps.

    Plug-in windows keep their hours, a trip's energy is spread evenly over
    the sub-steps of its step, and per-step energy ratings shrink with the
    step. Prices are dropped: attach a series of the refined length.
    """
    v_idx = [v.id for v in s.vehicles].index(vehicle)
    v = s.vehicles[v_idx]
    one = slice(v_idx, v_idx + 1)
    return Scenario(
        horizon=Horizon(s.horizon.step_count * factor, s.horizon.step_hours / factor),
        vehicles=(replace(v, obc_max_kwh_per_step=v.obc_max_kwh_per_step / factor),),
        charging_points=tuple(
            replace(cp, power_limit_kwh_per_step=cp.power_limit_kwh_per_step / factor)
            for cp in s.charging_points
        ),
        connectivity=ConnectivityMatrix(np.repeat(s.connectivity.mask[one], factor, axis=1)),
        trips=TripPlan(np.repeat(s.trips.energy_kwh[one], factor, axis=1) / factor),
        tariff_calendar=s.tariff_calendar,
    )


def _max_reachable_depart(v: Vehicle, arrival: float, cap_per_step: float, n_steps: int) -> float:
    """Forward-simulate per-step maximum charging, including the taper."""
    s = arrival
    cap = v.capacity_kwh
    for _ in range(n_steps):
        e = min(cap_per_step, v.obc_max_kwh_per_step)
        if v.soe_cv_frac < 1.0:
            # taper cap is implicit in the end-of-step stock
            k = v.obc_max_kwh_per_step / (cap * (1.0 - v.soe_cv_frac))
            e = min(e, k * (cap - s) / (1.0 + k * v.eta_sch))
        e = max(e, 0.0)
        s = min(s + e * v.eta_sch, v.soe_max_kwh)
    return s


def random_scenario(seed: int, max_vehicles: int = 4) -> Scenario:
    """Seeded random daily fleet: 2-3 sessions per vehicle, trips in the gaps.

    Deterministic per seed. Guaranteed feasible for the fleet model and for
    departure policies up to 95%.
    """
    rng = np.random.default_rng(seed)
    for _ in range(40):
        s = _try_random_scenario(rng, max_vehicles)
        if s is not None:
            return s
    raise AssertionError(f"could not build a feasible random scenario for seed {seed}")


def _try_random_scenario(rng: np.random.Generator, max_vehicles: int) -> Scenario | None:
    n_v = int(rng.integers(1, max_vehicles + 1))
    cps: list[ChargingPoint] = []
    vehicles: list[Vehicle] = []
    mask = np.zeros((n_v, T, 3 * n_v), dtype=bool)
    trips = np.zeros((n_v, T))

    for i in range(n_v):
        cap = float(rng.uniform(18.0, 50.0))
        v = Vehicle(
            id=f"ev{i}",
            capacity_kwh=cap,
            obc_max_kwh_per_step=float(rng.uniform(6.0, 12.0)),
            battery_cost_eur=150.0 * cap,
            soe_initial_frac=float(rng.uniform(0.5, 0.7)),
        )
        vehicles.append(v)
        own: list[ChargingPoint] = []
        for slot in range(3):
            own.append(
                ChargingPoint(
                    id=f"cp{i}_{slot}",
                    kind="slow",
                    power_limit_kwh_per_step=float(rng.uniform(4.0, 12.0)),
                    grid_fee_low_eur_per_kwh=float(rng.uniform(0.0, 0.02)),
                    grid_fee_high_eur_per_kwh=float(rng.uniform(0.02, 0.05)),
                    cp_fee_eur_per_kwh=float(rng.uniform(0.0, 0.05)),
                )
            )
        cps.extend(own)

        n_sessions = int(rng.integers(2, 4))
        # cut the day into sessions with 1-2 step gaps, last session to step 23
        bounds = sorted(rng.choice(np.arange(5, 19), size=n_sessions - 1, replace=False))
        windows = []
        start = 0
        for b in bounds:
            gap = int(rng.integers(1, 3))
            windows.append((start, int(b)))
            start = int(b) + 1 + gap
        if start > T - 3:
            return None
        windows.append((start, T - 1))
        if any(hi - lo < 3 for lo, hi in windows):
            return None

        # trips occupy the first step of every gap
        arrival = v.soe_initial_kwh
        for k, (lo, hi) in enumerate(windows):
            cp = own[k % 3]
            mask[i, lo : hi + 1, 3 * i + (k % 3)] = True
            reachable = _max_reachable_depart(v, arrival, cp.power_limit_kwh_per_step, hi - lo + 1)
            floor = max(0.95 * cap, v.soe_initial_kwh)
            if reachable < floor + 1e-9:
                return None
            if k < len(windows) - 1:
                trip = float(rng.uniform(0.02, 0.08)) * cap * v.eta_run
                trips[i, hi + 1] = trip
                arrival = floor - trip / v.eta_run
                if arrival < v.soe_min_kwh + 0.5:
                    return None

    s = Scenario(
        horizon=Horizon(T, 1.0),
        vehicles=tuple(vehicles),
        charging_points=tuple(cps),
        connectivity=ConnectivityMatrix(mask),
        trips=TripPlan(trips),
    )
    return s
