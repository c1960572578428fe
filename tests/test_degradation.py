"""Wear-cost tests: plane arithmetic, the epigraph rows, LP tightness."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evdispatch import lp
from evdispatch.degradation import degradation_cost, emit_degradation_rows, plane_values
from evdispatch.domain import Vehicle

V40 = Vehicle(id="v", capacity_kwh=40.0, obc_max_kwh_per_step=10.0, battery_cost_eur=1000.0)


def test_zero_discharge_full_battery():
    p1, p2 = plane_values(V40, 0.0, 40.0)
    assert p1 == pytest.approx(1000.0 * -0.3429)
    assert p2 == 0.0
    assert degradation_cost(V40, 0.0, 40.0) == 0.0  # max(negative, 0)


def test_hand_computed_planes():
    p1, p2 = plane_values(V40, 4.0, 20.0)
    assert p1 == pytest.approx(211.75, abs=1e-9)
    assert p2 == pytest.approx(83.17, abs=1e-9)
    assert degradation_cost(V40, 4.0, 20.0) == pytest.approx(211.75, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    factor=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    e=st.floats(min_value=0.0, max_value=10.0),
    soe=st.floats(min_value=0.0, max_value=40.0),
)
def test_homogeneity_in_battery_cost(factor, e, soe):
    from dataclasses import replace

    scaled = replace(V40, battery_cost_eur=V40.battery_cost_eur * factor)
    p1, p2 = plane_values(V40, e, soe)
    q1, q2 = plane_values(scaled, e, soe)
    assert q1 == pytest.approx(factor * p1, rel=1e-12, abs=1e-9)
    assert q2 == pytest.approx(factor * p2, rel=1e-12, abs=1e-9)


def test_shallow_discharge_near_full_battery_uses_plane2():
    # 5% depth of discharge, small discharge: plane1 is negative, plane2 binds
    p1, p2 = plane_values(V40, 0.4, 0.95 * 40.0)
    assert p1 < 0 < p2
    assert degradation_cost(V40, 0.4, 0.95 * 40.0) == p2


def test_out_of_range_inputs_rejected():
    with pytest.raises(ValueError):
        plane_values(V40, -1.0, 20.0)
    with pytest.raises(ValueError):
        plane_values(V40, 1.0, 41.0)
    with pytest.raises(ValueError):
        plane_values(V40, 1.0, -1.0)


def test_crossover_threshold_for_small_discharges():
    # Below some depth of discharge, plane1 < plane2 for every small discharge.
    d = V40.degradation
    e_grid = np.linspace(0.0, 0.05 * V40.capacity_kwh, 21)
    # plane1 - plane2 at e = 0.05 cap: d1 + (d2 - d4) * 5 + d3 * dod_pct
    dod_threshold = -(d.d1 + (d.d2 - d.d4) * 5.0) / d.d3
    assert dod_threshold > 0
    dod_pct = dod_threshold * 0.95
    soe = V40.capacity_kwh * (1.0 - dod_pct / 100.0)
    for e in e_grid:
        p1, p2 = plane_values(V40, float(e), soe)
        assert p1 < p2


def test_emit_rows_adds_two_constraints():
    p = lp.LpProblem()
    cdeg = p.add_variable(0.0, lp.INF, 1.0, "cdeg")
    e = p.add_variable(0.0, 10.0, 0.0, "e")
    soe = p.add_variable(8.0, 40.0, 0.0, "soe")
    before = p.num_constraints
    emit_degradation_rows(p, cdeg, e, soe, V40, 0)
    assert p.num_constraints == before + 2


def test_emit_rows_counts_scale_with_fleet(example_with_high):
    from evdispatch.evba import CostToggles, build_evba

    problems = build_evba(example_with_high, CostToggles())
    deg_rows = [n for p in problems for n in p.row_names() if n.startswith("deg")]
    assert len(deg_rows) == 2 * 3 * 24  # two rows per vehicle-step


def test_lp_epigraph_matches_evaluator_at_optimum():
    # minimize cdeg subject to the two planes at fixed (e, soe): optimum is the envelope
    for e_val, soe_val in ((0.0, 40.0), (4.0, 20.0), (0.4, 38.0), (2.0, 8.0)):
        p = lp.LpProblem()
        cdeg = p.add_variable(0.0, lp.INF, 1.0, "cdeg")
        e = p.add_variable(e_val, e_val, 0.0, "e")
        soe = p.add_variable(soe_val, soe_val, 0.0, "soe")
        emit_degradation_rows(p, cdeg, e, soe, V40, 0)
        sol = lp.solve(p)
        assert sol.status == lp.OPTIMAL
        expected = max(degradation_cost(V40, e_val, soe_val), 0.0)
        assert sol.value(cdeg) == pytest.approx(expected, abs=1e-9)


def test_variable_plane1_coefficients_match_rows():
    # the emitted row must agree with the evaluator on which plane binds;
    # the discharge reward must beat the plane-1 slope (~85 EUR/kWh here)
    p = lp.LpProblem()
    cdeg = p.add_variable(0.0, lp.INF, 1.0, "cdeg")
    e = p.add_variable(0.0, 10.0, -100.0, "e")
    soe = p.add_variable(20.0, 20.0, 0.0, "soe")
    emit_degradation_rows(p, cdeg, e, soe, V40, 0)
    sol = lp.solve(p)
    assert sol.value(e) == pytest.approx(10.0, abs=1e-9)
    p1, p2 = plane_values(V40, sol.value(e), 20.0)
    assert sol.value(cdeg) == pytest.approx(max(p1, p2), abs=1e-8)
    assert p1 > p2  # deep-discharge plane binds at this depth
