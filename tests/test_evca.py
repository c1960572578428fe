"""Station-model tests: session derivation, chaining, myopia, dominance."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from evdispatch import lp
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
from evdispatch.evba import AssemblyError, FleetSchedule, cost_toggles_for, solve_evba
from evdispatch.evca import (
    HIGH_SOE,
    LOW_SOE,
    ItineraryError,
    SessionInfeasibleError,
    SoePolicy,
    chain_arrival_soe,
    derive_sessions,
    solve_evca,
    solve_evca_series,
)
from scen import flat_scenario, micro_scenario, random_scenario, same_outcome, series_outcome_scenario

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


def _plugged(runs: list[tuple[int, int, int]], cp_count: int = 2) -> Scenario:
    """One vehicle over 24 steps, at slow point ``cp{k + 1}`` for each
    inclusive run ``(k, first step, last step)``."""
    mask = np.zeros((1, 24, cp_count), dtype=bool)
    for k, lo, hi in runs:
        mask[0, lo : hi + 1, k] = True
    points = tuple(ChargingPoint(f"cp{k + 1}", "slow", 6.0, 0.0, 0.0, 0.0) for k in range(cp_count))
    s = Scenario(
        Horizon(24), (Vehicle("ev1", 40.0, 10.0, 6000.0),), points,
        ConnectivityMatrix(mask), TripPlan(np.zeros((1, 24))),
    )
    return s.with_prices(generate_price_set("medium", seed=4))


def _runs(s: Scenario) -> list[tuple[str, int, int]]:
    return [(x.cp, x.arrive_step, x.depart_step) for x in derive_sessions(s)[0]]


def test_derive_sessions_adjacent_runs_at_different_points():
    s = _plugged([(0, 3, 7), (1, 8, 12), (0, 13, 15)])
    assert _runs(s) == [("cp1", 3, 7), ("cp2", 8, 12), ("cp1", 13, 15)]


def test_derive_sessions_runs_touching_both_ends_of_the_horizon():
    assert _runs(_plugged([(0, 0, 2), (1, 20, 23)])) == [("cp1", 0, 2), ("cp2", 20, 23)]
    assert _runs(_plugged([(1, 0, 23)])) == [("cp2", 0, 23)]


def test_scenario_without_charging_points_idles_in_both_models():
    # parked below 20% of capacity, where the wear plane is positive even
    # without discharge, so the idle steps carry a priced wear cost
    low = Vehicle("ev1", 40.0, 10.0, 6000.0, soe_min_frac=0.05, soe_initial_frac=0.1)
    s = dataclasses.replace(_plugged([], cp_count=0), vehicles=(low,))
    assert derive_sessions(s) == [[]]
    for fs in (solve_evca(s, LOW_SOE, OF5), solve_evba(s, OF5)):
        assert fs.status == "optimal"
        assert fs.soe == pytest.approx(np.full((1, 24), low.soe_initial_kwh))
        assert fs.c_deg.min() > 0.0
        assert fs.total_cost_eur == pytest.approx(float(fs.c_deg.sum()))


def test_evca_reconciliation_names_the_vehicle(example_with_high, monkeypatch):
    solve = lp.solve
    perturbed: list[str] = []

    def perturb_first_ev2_session(problem, **kwargs):
        sol = solve(problem, **kwargs)
        if problem.name.startswith("window[ev2,") and not perturbed:
            perturbed.append(problem.name)
            return dataclasses.replace(sol, objective=sol.objective + 1.0)
        return sol

    monkeypatch.setattr(lp, "solve", perturb_first_ev2_session)
    with pytest.raises(AssemblyError, match="ev2"):
        solve_evca(example_with_high, HIGH_SOE)
    assert perturbed


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
    for v_idx, v in enumerate(example_with_high.vehicles):
        trs = by_ev[v.id]
        assert trs[0].arrival_soe_kwh == pytest.approx(v.soe_initial_kwh)
        assert trs[-1].note == "end-of-day floor"
        assert trs[-1].depart_soe_kwh >= v.soe_initial_kwh - 1e-6
        # chained arrivals equal previous departure minus the trip drain
        for prev, nxt in zip(trs, trs[1:]):
            gap = example_with_high.trips.energy_kwh[
                v_idx,
                prev.depart_step + 1 : nxt.arrive_step,
            ].sum()
            assert nxt.arrival_soe_kwh == pytest.approx(
                prev.depart_soe_kwh - gap / v.eta_run, abs=1e-9
            )


def test_unbounded_session_lp_raises_naming_the_session(example_with_high, monkeypatch):
    monkeypatch.setattr(lp, "solve", lambda p, **kw: lp.LpSolution(lp.UNBOUNDED, None, None, 0))
    with pytest.raises(ArithmeticError, match=r"^vehicle 'ev1' at .*: LP ended unbounded"):
        solve_evca(example_with_high, LOW_SOE)


# ---------------------------------------------------------------------------
# Several price series in one call

def _one_call_per_series(s, sets, *args, **kwargs) -> list:
    """solve_evca under each series, or the exception it raised."""
    out = []
    for ps in sets:
        try:
            out.append(solve_evca(s.with_prices(ps), *args, **kwargs))
        except (ItineraryError, SessionInfeasibleError) as exc:
            out.append(exc)
    return out


@pytest.mark.parametrize("seed", [*range(12), "example"])
def test_several_series_equal_one_call_per_series_bit_for_bit(seed, example_scenario):
    s = example_scenario if seed == "example" else random_scenario(seed)
    sets = [generate_price_set(level, seed=1 if seed == "example" else seed) for level in ("low", "medium", "high")]
    for policy, ct in ((HIGH_SOE, OF5), (LOW_SOE, OF5), (LOW_SOE, OF1)):
        got = solve_evca_series(s, sets, policy, ct)
        want = _one_call_per_series(s, sets, policy, ct)
        assert all(isinstance(fs, FleetSchedule) for fs in got)
        assert len(got) == 3 and all(map(same_outcome, got, want)), (policy, ct)


@pytest.mark.parametrize("best_effort", [False, True])
def test_a_failed_series_gets_its_exception_and_the_others_go_on(best_effort):
    s, sets = series_outcome_scenario()
    got = solve_evca_series(s, sets, LOW_SOE, best_effort=best_effort)
    want = _one_call_per_series(s, sets, LOW_SOE, best_effort=best_effort)
    assert all(map(same_outcome, got, want))
    assert isinstance(got[0], FleetSchedule) and isinstance(got[1], ItineraryError)
    if best_effort:
        assert isinstance(got[2], FleetSchedule) and "best-effort floor" in got[2].sessions[-1].note
    else:
        assert isinstance(got[2], SessionInfeasibleError) and "'ev1' at 'cp3'" in str(got[2])
    # each series alone, and in another order, takes the same path
    for order in ([2], [2, 1, 0], [1, 2]):
        alone = solve_evca_series(s, [sets[j] for j in order], LOW_SOE, best_effort=best_effort)
        assert all(same_outcome(a, got[j]) for a, j in zip(alone, order))
    with pytest.raises(ItineraryError):
        solve_evca(s.with_prices(sets[1]), LOW_SOE, best_effort=best_effort)


@pytest.mark.parametrize("best_effort", [False, True])
def test_a_floor_above_the_ceiling_fails_or_lowers_every_series_alike(example_scenario, best_effort):
    # no session LP is cut for a non-final session of ev1, whose 95% floor
    # is above its 90% ceiling
    v = dataclasses.replace(example_scenario.vehicles[0], soe_max_frac=0.9)
    s = dataclasses.replace(example_scenario, vehicles=(v, *example_scenario.vehicles[1:]))
    sets = [generate_price_set(level, seed=2) for level in ("low", "medium", "high")]
    got = solve_evca_series(s, sets, HIGH_SOE, best_effort=best_effort)
    assert all(map(same_outcome, got, _one_call_per_series(s, sets, HIGH_SOE, best_effort=best_effort)))
    assert all(isinstance(fs, FleetSchedule if best_effort else SessionInfeasibleError) for fs in got)


def test_a_vehicle_with_trips_and_no_session_fails_every_series():
    v = Vehicle("ev1", 20.0, 10.0, 3000.0)
    cp = ChargingPoint("cp1", "slow", 4.0, 0.0, 0.0, 0.0)
    trips = np.zeros((1, 6))
    trips[0, 2] = 1.0
    s = Scenario(Horizon(6), (v,), (cp,), ConnectivityMatrix(np.zeros((1, 6, 1), dtype=bool)), TripPlan(trips))
    sets = [PriceSeries("flat", np.full(6, 0.1)), PriceSeries("free", np.zeros(6))]
    got = solve_evca_series(s, sets, LOW_SOE, OF1)
    assert all(map(same_outcome, got, _one_call_per_series(s, sets, LOW_SOE, OF1)))
    assert all(isinstance(exc, ItineraryError) for exc in got)
    assert solve_evca_series(s, [], LOW_SOE) == []
