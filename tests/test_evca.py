"""Station-model tests: session derivation, chaining, myopia, dominance."""

from __future__ import annotations

import numpy as np
import pytest

from evdispatch.analysis import check_schedule, generate_price_set
from evdispatch.domain import (
    ChargingPoint,
    ConnectivityMatrix,
    Horizon,
    PriceSeries,
    Scenario,
    TripPlan,
    Vehicle,
)
from evdispatch.evba import cost_toggles_for, solve_evba
from evdispatch.evca import (
    HIGH_SOE,
    LOW_SOE,
    ItineraryError,
    SessionInfeasibleError,
    SoePolicy,
    chain_arrival_soe,
    derive_sessions,
    solve_evca,
)
from scen import flat_scenario, micro_scenario

OF1 = cost_toggles_for("of1")
OF5 = cost_toggles_for("of5")


def _two_stop_scenario() -> Scenario:
    v = Vehicle("ev1", 40.0, 10.0, 6000.0)
    cp1 = ChargingPoint("cp1", "slow", 6.0, 0.0, 0.0, 0.0)
    cp2 = ChargingPoint("cp2", "slow", 8.0, 0.0, 0.0, 0.0)
    mask = np.zeros((1, 24, 2), dtype=bool)
    mask[0, 1:8, 0] = True    # steps 1..7 at cp1
    mask[0, 9:17, 1] = True   # steps 9..16 at cp2
    trips = np.zeros((1, 24))
    trips[0, 8] = 1.8
    s = Scenario(Horizon(24), (v,), (cp1, cp2), ConnectivityMatrix(mask), TripPlan(trips))
    return s.with_prices(generate_price_set("medium", seed=4))


def test_derive_sessions_two_runs_with_gap():
    sessions = derive_sessions(_two_stop_scenario())[0]
    assert len(sessions) == 2
    assert (sessions[0].cp, sessions[0].arrive_step, sessions[0].depart_step) == ("cp1", 1, 7)
    assert (sessions[1].cp, sessions[1].arrive_step, sessions[1].depart_step) == ("cp2", 9, 16)


def test_derive_sessions_never_connected():
    v = Vehicle("ev1", 20.0, 10.0, 3000.0)
    cp = ChargingPoint("cp1", "slow", 4.0, 0.0, 0.0, 0.0)
    s = Scenario(
        Horizon(24), (v,), (cp,),
        ConnectivityMatrix(np.zeros((1, 24, 1), dtype=bool)),
        TripPlan(np.zeros((1, 24))),
    )
    assert derive_sessions(s) == [[]]


def test_example_three_sessions_each(example_scenario):
    sessions = derive_sessions(example_scenario)
    assert [len(x) for x in sessions] == [3, 3, 3]
    for per_ev in sessions:
        assert [x.cp for x in per_ev] == ["home", "work", "leisure"]


def test_chain_arrival_arithmetic():
    v = Vehicle("ev", 40.0, 10.0, 6000.0)
    assert chain_arrival_soe(19.0, 1.8, v) == pytest.approx(17.0)


def test_chain_arrival_first_session_initial_stock():
    v = Vehicle("ev", 40.0, 10.0, 6000.0)
    assert chain_arrival_soe(v.soe_initial_kwh, 0.0, v) == pytest.approx(24.0)


def test_chain_arrival_below_floor_raises():
    v = Vehicle("ev", 20.0, 10.0, 3000.0)  # floor 4 kWh
    with pytest.raises(ItineraryError):
        chain_arrival_soe(5.0, 4.5, v)  # 5 - 5 = 0 < 4


def test_high_policy_departures_reach_95_percent(example_with_high):
    fs = solve_evca(example_with_high, HIGH_SOE, OF5)
    caps = {v.id: v.capacity_kwh for v in example_with_high.vehicles}
    finals = {v.id: max(t.depart_step for t in fs.sessions if t.vehicle == v.id)
              for v in example_with_high.vehicles}
    for tr in fs.sessions:
        if tr.depart_step == finals[tr.vehicle]:
            continue  # last session switches to the end-of-day floor
        assert tr.depart_soe_kwh >= 0.95 * caps[tr.vehicle] - 1e-6


def test_policy_at_soe_min_with_flat_prices_is_free():
    s = flat_scenario(n_vehicles=1)
    fs = solve_evca(s, SoePolicy(0.2), OF1)
    assert fs.total_cost_eur == pytest.approx(0.0, abs=1e-9)
    assert fs.e_sch.sum() == pytest.approx(0.0, abs=1e-9)
    assert fs.e_dch.sum() == pytest.approx(0.0, abs=1e-9)


def test_single_session_equals_fleet_model_on_micro_case():
    s = micro_scenario()
    evba = solve_evba(s, OF1)
    evca = solve_evca(s, SoePolicy(0.6), OF1)
    assert evca.total_cost_eur == pytest.approx(evba.total_cost_eur, abs=1e-6)
    assert evca.total_cost_eur == pytest.approx(-1.5046, abs=1e-3)


def test_sessions_are_blind_to_outside_prices():
    s = _two_stop_scenario()
    base = solve_evca(s, LOW_SOE, OF1)
    # perturb prices outside the first session's window (steps 1..7)
    prices = s.prices.values.copy()
    prices[0] += 0.5
    prices[9:] += np.linspace(0.2, 1.0, 15)
    perturbed = s.with_prices(PriceSeries("perturbed", prices))
    fs = solve_evca(perturbed, LOW_SOE, OF1)
    first = slice(1, 8)
    assert np.allclose(fs.e_sch[0, first], base.e_sch[0, first], atol=1e-9)
    assert np.allclose(fs.e_dch[0, first], base.e_dch[0, first], atol=1e-9)
    assert np.allclose(fs.soe[0, first], base.soe[0, first], atol=1e-9)


def test_fleet_model_dominates_station_model(example_with_high):
    evba = solve_evba(example_with_high, OF5)
    for policy in (HIGH_SOE, LOW_SOE):
        evca = solve_evca(example_with_high, policy, OF5)
        assert evba.total_cost_eur <= evca.total_cost_eur + 1e-6


def test_stitched_schedule_passes_full_audit(example_with_high):
    for policy in (HIGH_SOE, LOW_SOE):
        fs = solve_evca(example_with_high, policy, OF5)
        rep = check_schedule(example_with_high, fs)
        assert rep.ok, rep.violations[:3]


def test_policy_monotonicity_single_session():
    s = micro_scenario()
    costs = [
        solve_evca(s, SoePolicy(frac), OF1).total_cost_eur
        for frac in (0.2, 0.6, 0.8, 0.95)
    ]
    for lo, hi in zip(costs, costs[1:]):
        assert lo <= hi + 1e-9


def test_unreachable_floor_raises_naming_session():
    v = Vehicle("ev1", 40.0, 10.0, 6000.0)
    cp = ChargingPoint("cp1", "slow", 4.0, 0.0, 0.0, 0.0)
    mask = np.zeros((1, 8, 1), dtype=bool)
    mask[0, 0:2, 0] = True  # two steps cannot lift 24 -> 38 kWh for the 95% floor
    mask[0, 5:8, 0] = True  # later session makes the first one non-final
    trips = np.zeros((1, 8))
    trips[0, 3] = 1.0
    s = Scenario(Horizon(8), (v,), (cp,), ConnectivityMatrix(mask), TripPlan(trips))
    s = s.with_prices(PriceSeries("flat", np.full(8, 0.1)))
    with pytest.raises(SessionInfeasibleError, match="ev1"):
        solve_evca(s, HIGH_SOE, OF1)


def test_best_effort_lowers_floor_and_warns():
    v = Vehicle("ev1", 40.0, 10.0, 6000.0)
    cp = ChargingPoint("cp1", "slow", 4.0, 0.0, 0.0, 0.0)
    mask = np.zeros((1, 8, 1), dtype=bool)
    mask[0, 0:2, 0] = True
    mask[0, 5:8, 0] = True
    trips = np.zeros((1, 8))
    trips[0, 3] = 1.0
    s = Scenario(Horizon(8), (v,), (cp,), ConnectivityMatrix(mask), TripPlan(trips))
    s = s.with_prices(PriceSeries("flat", np.full(8, 0.1)))
    fs = solve_evca(s, HIGH_SOE, OF1, best_effort=True)
    assert fs.status == "optimal"
    assert fs.warnings and "unreachable" in fs.warnings[0]
    first = [t for t in fs.sessions if t.arrive_step == 0][0]
    assert first.depart_soe_kwh < 0.95 * 40.0
    assert "best-effort" in first.note


def test_trips_without_any_session_raise():
    v = Vehicle("ev1", 20.0, 10.0, 3000.0)
    cp = ChargingPoint("cp1", "slow", 4.0, 0.0, 0.0, 0.0)
    trips = np.zeros((1, 6))
    trips[0, 2] = 1.0
    s = Scenario(
        Horizon(6), (v,), (cp,),
        ConnectivityMatrix(np.zeros((1, 6, 1), dtype=bool)), TripPlan(trips),
    ).with_prices(PriceSeries("flat", np.full(6, 0.1)))
    with pytest.raises(ItineraryError):
        solve_evca(s, LOW_SOE, OF1)


def test_fast_charger_session_meets_departure_floor():
    v = Vehicle("ev1", 30.0, 10.0, 4500.0)
    fast = ChargingPoint("dc", "fast", 50.0, 0.0, 0.0, 0.0)
    slow = ChargingPoint("home", "slow", 4.0, 0.0, 0.0, 0.0)
    mask = np.zeros((1, 12, 2), dtype=bool)
    mask[0, 0:2, 0] = True      # fast stop first
    mask[0, 4:12, 1] = True     # then home until the end of day
    trips = np.zeros((1, 12))
    trips[0, 2] = 2.7
    s = Scenario(Horizon(12), (v,), (fast, slow), ConnectivityMatrix(mask), TripPlan(trips))
    s = s.with_prices(PriceSeries("flat", np.full(12, 0.1)))
    fs = solve_evca(s, HIGH_SOE, OF1)
    first = fs.sessions[0]
    assert first.cp == "dc"
    assert first.depart_soe_kwh >= 0.95 * 30.0 - 1e-6   # reached via DC charging
    assert fs.e_fch[0, 0:2].sum() > 0.0
    assert fs.e_sch[0, 0:2].sum() == pytest.approx(0.0, abs=1e-9)
    assert check_schedule(s, fs).ok


def test_session_trace_contents(example_with_high):
    fs = solve_evca(example_with_high, LOW_SOE, OF5)
    assert len(fs.sessions) == 9
    by_ev = {}
    for tr in fs.sessions:
        by_ev.setdefault(tr.vehicle, []).append(tr)
    for v in example_with_high.vehicles:
        trs = by_ev[v.id]
        assert trs[0].arrival_soe_kwh == pytest.approx(v.soe_initial_kwh)
        assert trs[-1].note == "end-of-day floor"
        assert trs[-1].depart_soe_kwh >= v.soe_initial_kwh - 1e-6
        # chained arrivals equal previous departure minus the trip drain
        for prev, nxt in zip(trs, trs[1:]):
            gap = example_with_high.trips.energy_kwh[
                example_with_high.vehicle_index(v.id),
                prev.depart_step + 1 : nxt.arrive_step,
            ].sum()
            assert nxt.arrival_soe_kwh == pytest.approx(
                prev.depart_soe_kwh - gap / v.eta_run, abs=1e-9
            )
