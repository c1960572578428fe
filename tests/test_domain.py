"""Scenario model tests: parsing, tariffs, validation, round-trips."""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evdispatch.analysis import generate_price_set
from evdispatch.domain import (
    ChargingPoint,
    ConnectivityMatrix,
    Horizon,
    PriceSeries,
    Scenario,
    ScenarioError,
    TariffCalendar,
    TripPlan,
    Vehicle,
    example_scenario_path,
    load_price_series,
    load_scenario,
    parse_scenario,
    validate_scenario,
)
from oracles import cp_at, grid_fee
from scen import random_scenario, refine

HOME = ChargingPoint("home", "slow", 4.0, 0.02284, 0.04704, 0.004)
DCFAST = ChargingPoint("dcfast", "fast", 100.0, 0.01075, 0.02284, 0.2)


def test_example_scenario_loads_three_vehicles(example_scenario):
    assert [v.id for v in example_scenario.vehicles] == ["ev1", "ev2", "ev3"]
    assert [v.capacity_kwh for v in example_scenario.vehicles] == [20.0, 40.0, 60.0]
    assert validate_scenario(example_scenario) == []


def test_zero_vehicle_scenario_is_valid():
    s = parse_scenario(
        {
            "horizon": {"step_count": 24},
            "vehicles": [],
            "charging_points": [],
        }
    )
    assert s.vehicles == ()
    assert validate_scenario(s) == []


def _minimal_dict():
    return {
        "horizon": {"step_count": 4},
        "vehicles": [{"id": "ev1", "capacity_kwh": 20.0}],
        "charging_points": [
            {
                "id": "home",
                "kind": "slow",
                "power_kw": 4.0,
                "grid_fee_low_eur_per_kwh": 0.02284,
                "grid_fee_high_eur_per_kwh": 0.04704,
                "cp_fee_eur_per_kwh": 0.004,
            }
        ],
        "connectivity": [{"vehicle": "ev1", "cp": "home", "from_step": 0, "to_step": 2}],
        "trips": [{"vehicle": "ev1", "step": 3, "energy_kwh": 1.0}],
    }


def test_driving_while_connected_rejected():
    data = _minimal_dict()
    data["trips"][0]["step"] = 1  # inside the plug-in window
    with pytest.raises(ScenarioError, match="connected during trip"):
        parse_scenario(data)


def test_defaults_applied_for_omitted_fields():
    s = parse_scenario(_minimal_dict())
    v = s.vehicles[0]
    assert v.battery_cost_eur == pytest.approx(150.0 * 20.0)
    assert v.obc_max_kwh_per_step == pytest.approx(10.0)
    assert v.soe_initial_frac == pytest.approx(0.6)
    assert v.degradation.d1 == pytest.approx(-0.3429)
    assert s.tariff_calendar == TariffCalendar(22, 6)


def test_unknown_keys_rejected():
    data = _minimal_dict()
    data["vehicles"][0]["rang"] = 3
    with pytest.raises(ScenarioError, match="unknown key"):
        parse_scenario(data)


def test_unknown_cp_reference_rejected():
    data = _minimal_dict()
    data["connectivity"][0]["cp"] = "nope"
    with pytest.raises(ScenarioError, match="unknown charging point id"):
        parse_scenario(data)


def test_a_repeated_trip_is_rejected_whichever_entry_comes_first():
    data = json.loads(example_scenario_path().read_text())
    zero = {"vehicle": "ev1", "step": 7, "energy_kwh": 0.0}  # a copy of ev1's 1.8-kWh trip
    for trips in ([zero] + data["trips"], data["trips"] + [zero]):
        with pytest.raises(ScenarioError, match=r"^trips\[\d\]: duplicate trip for vehicle 'ev1' at step 7$"):
            parse_scenario({**data, "trips": trips})


def test_power_kw_converted_with_step_hours():
    data = _minimal_dict()
    data["horizon"] = {"step_count": 8, "step_hours": 0.5}
    data["trips"] = []
    s = parse_scenario(data)
    assert s.charging_points[0].power_limit_kwh_per_step == pytest.approx(2.0)
    assert s.vehicles[0].obc_max_kwh_per_step == pytest.approx(5.0)


def _plugged(*points, steps: int = 24, cal: TariffCalendar = TariffCalendar()) -> Scenario:
    """One vehicle per charging point, plugged into it at every step."""
    mask = np.zeros((len(points), steps, len(points)), dtype=bool)
    for k in range(len(points)):
        mask[k, :, k] = True
    vehicles = tuple(Vehicle(f"ev{k}", 20.0, 10.0, 3000.0) for k in range(len(points)))
    return Scenario(Horizon(steps), vehicles, points, ConnectivityMatrix(mask),
                    TripPlan(np.zeros((len(points), steps))), cal)


def test_plugs_grid_fee_takes_the_band_each_step_starts_in():
    plugs = _plugged(HOME, DCFAST).plugs
    assert plugs.grid_fee[0, 3] == 0.02284    # 03:00, night band
    assert plugs.grid_fee[0, 12] == 0.04704   # noon, day band
    assert plugs.grid_fee[1, 12] == 0.02284
    assert plugs.kind[:, 0].tolist() == ["slow", "fast"]
    assert plugs.limit[:, 0].tolist() == [4.0, 100.0] and plugs.cp_fee[:, 0].tolist() == [0.004, 0.2]


def test_plugs_are_read_only_and_computed_once():
    s = _plugged(HOME, DCFAST)
    assert s.plugs is s.plugs
    for name, a in s.plugs._asdict().items():
        assert a.shape == (2, 24), name
        with pytest.raises(ValueError):
            a[0, 0] = a[1, 1]


def test_default_calendar_low_band_steps():
    cal = TariffCalendar()
    low = [t for t in range(24) if cal.is_low_band(t, 1.0)]
    assert low == [0, 1, 2, 3, 4, 5, 22, 23]
    assert len(low) == 8


@settings(max_examples=60, deadline=None)
@given(
    start=st.integers(min_value=0, max_value=23),
    end=st.integers(min_value=0, max_value=23),
)
def test_calendar_assigns_exactly_one_band_per_step(start, end):
    cal = TariffCalendar(start, end)
    for t in range(24):
        # the night band runs from start up to end, wrapping past midnight
        assert cal.is_low_band(t, 1.0) == ((t - start) % 24 < (end - start) % 24)


def test_validate_multiple_connections_diagnostic():
    mask = np.zeros((1, 4, 2), dtype=bool)
    mask[0, 1, 0] = True
    mask[0, 1, 1] = True
    s = Scenario(
        horizon=Horizon(4),
        vehicles=(Vehicle("ev1", 20.0, 10.0, 3000.0),),
        charging_points=(HOME, ChargingPoint("work", "slow", 8.0, 0.0, 0.0, 0.0)),
        connectivity=ConnectivityMatrix(mask),
        trips=TripPlan(np.zeros((1, 4))),
    )
    diags = validate_scenario(s)
    assert any("multiple connections" in d for d in diags)


def test_plugs_take_the_first_of_two_connections():
    mask = np.zeros((1, 4, 3), dtype=bool)
    mask[0, 1, 1:] = True     # step 1 at work and dcfast at once
    mask[0, 2, 0] = True
    work = ChargingPoint("work", "slow", 8.0, 0.0, 0.0, 0.0)
    s = Scenario(
        Horizon(4), (Vehicle("ev1", 20.0, 10.0, 3000.0),), (HOME, work, DCFAST),
        ConnectivityMatrix(mask), TripPlan(np.zeros((1, 4))),
    )
    assert s.plugs.kind.tolist() == [["", "slow", "slow", ""]]
    assert s.plugs.limit.tolist() == [[0.0, 8.0, 4.0, 0.0]]
    assert s.plugs.grid_fee.tolist() == [[0.0, 0.0, 0.02284, 0.0]]
    assert s.plugs.cp_fee.tolist() == [[0.0, 0.0, 0.004, 0.0]]
    assert s.connectivity.index.tolist() == [[-1, 1, 0, -1]]
    with pytest.raises(ValueError):
        s.connectivity.index[0, 0] = 0


def test_plugs_without_charging_points():
    s = Scenario(
        Horizon(4), (Vehicle("ev1", 20.0, 10.0, 3000.0),), (),
        ConnectivityMatrix(np.zeros((1, 4, 0), dtype=bool)), TripPlan(np.zeros((1, 4))),
    )
    assert validate_scenario(s) == []
    assert s.plugs.kind.tolist() == [[""] * 4]
    assert [a.tolist() for a in s.plugs[1:]] == [[[0.0] * 4]] * 3


def _scenarios_for_plugs():
    """The random fleets, their 15-minute copies and the example, each under
    a wrapping, a daytime and an empty night band, and two fleets on a fast point."""
    hourly = [random_scenario(seed) for seed in range(12)] + [load_scenario(example_scenario_path())]
    fine = [refine(s, s.vehicles[0].id, 4) for s in hourly]
    for s in hourly + fine:
        for cal in (TariffCalendar(22, 6), TariffCalendar(7, 19), TariffCalendar(9, 9)):
            yield replace(s, tariff_calendar=cal)
    yield _plugged(HOME, DCFAST, steps=96, cal=TariffCalendar(23, 1))
    yield _plugged(DCFAST, HOME, steps=6, cal=TariffCalendar(0, 0))


def test_plugs_equal_the_per_step_lookup_exactly():
    for s in _scenarios_for_plugs():
        V, T = len(s.vehicles), s.horizon.step_count
        want = [[], [], [], []]
        for v_idx in range(V):
            for t in range(T):
                cp = cp_at(s, v_idx, t)
                want[0].append(cp.kind if cp else "")
                want[1].append(cp.power_limit_kwh_per_step if cp else 0.0)
                want[2].append(grid_fee(cp, t, s.tariff_calendar, s.horizon.step_hours) if cp else 0.0)
                want[3].append(cp.cp_fee_eur_per_kwh if cp else 0.0)
        assert [a.shape for a in s.plugs] == [(V, T)] * 4
        # repr tells -0.0 from 0.0, so the floats match bit for bit
        assert repr([a.reshape(-1).tolist() for a in s.plugs]) == repr(want)


def test_validate_soe_ordering_diagnostic():
    s = Scenario(
        horizon=Horizon(4),
        vehicles=(Vehicle("ev1", 20.0, 10.0, 3000.0, soe_min_frac=0.5, soe_initial_frac=0.3),),
        charging_points=(HOME,),
        connectivity=ConnectivityMatrix(np.zeros((1, 4, 1), dtype=bool)),
        trips=TripPlan(np.zeros((1, 4))),
    )
    diags = validate_scenario(s)
    assert any("SOE ordering" in d for d in diags)


@pytest.mark.parametrize("key", ["d1", "d2", "d3", "d4"])
@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_validate_rejects_non_finite_degradation_coefficient(key, bad):
    data = _minimal_dict()
    data["vehicles"][0]["degradation"] = {"d1": -0.3, "d2": 0.03, "d3": 0.004, "d4": 0.008, key: bad}
    diags = validate_scenario(parse_scenario(data, check=False))
    assert any(f"degradation.{key} must be finite" in d for d in diags)


def test_validate_rejects_battery_cost_that_overflows_the_wear_coefficients():
    data = _minimal_dict()
    data["vehicles"][0]["battery_cost_eur"] = 1e308  # finite, but 1e308 * 100 / 20 is not
    diags = validate_scenario(parse_scenario(data, check=False))
    assert len(diags) == 1 and "battery_cost_eur" in diags[0] and "must be finite" in diags[0]
    data["vehicles"][0]["battery_cost_eur"] = 1e300
    assert validate_scenario(parse_scenario(data, check=False)) == []


def test_infinite_step_hours_rejected():
    data = _minimal_dict()
    data["horizon"]["step_hours"] = float("inf")
    with pytest.raises(ScenarioError, match="step_hours"):
        parse_scenario(data, check=False)


def test_validate_passes_whatever_load_accepts(example_scenario, tmp_path):
    assert validate_scenario(example_scenario) == []
    s = parse_scenario(_minimal_dict())
    assert validate_scenario(s) == []


def test_load_price_series_constant(tmp_path):
    path = tmp_path / "flat.csv"
    path.write_text("".join(f"{t},0.05\n" for t in range(24)))
    ps = load_price_series(path, 24)
    assert ps.label == "flat"
    assert np.allclose(ps.values, 0.05)


def test_load_price_series_wrong_row_count(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("".join(f"{t},0.05\n" for t in range(23)))
    with pytest.raises(ScenarioError, match="23 rows"):
        load_price_series(path, 24)


def test_with_prices_checks_length(example_scenario):
    with pytest.raises(ScenarioError, match="23 steps"):
        example_scenario.with_prices(PriceSeries("bad", np.zeros(23)))


def test_load_price_series_non_numeric(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,cheap\n")
    with pytest.raises(ScenarioError, match="non-numeric"):
        load_price_series(path)


def test_generated_series_round_trips_through_csv(tmp_path):
    ps = generate_price_set("high", seed=3)
    path = tmp_path / "high.csv"
    path.write_text("".join(f"{t},{p!r}\n" for t, p in enumerate(ps.values.tolist())))
    again = load_price_series(path, 24)
    assert again.label == "high"
    assert np.allclose(again.values, ps.values, atol=0)


def test_example_path_exists():
    assert example_scenario_path().exists()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_price_series_rejects_non_finite_values(bad):
    with pytest.raises(ScenarioError, match="step 2"):
        PriceSeries("x", [0.1, 0.2, bad])


@pytest.mark.parametrize("bad", [1000.5, -2e3, 1e300])
def test_price_series_rejects_prices_beyond_the_limit(bad):
    with pytest.raises(ScenarioError, match="step 2"):
        PriceSeries("x", [0.1, 0.2, bad])
    assert PriceSeries("edge", [1e3, -1e3]).values.tolist() == [1e3, -1e3]
