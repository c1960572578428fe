"""The one-row wear model against the two-plane epigraph it replaces.

Plane 2 passes through zero at zero discharge, so evba prices it as a
discharge cost ``s * dch`` and keeps one wear row per step for the excess
over it. ``oracles.window_lp_by_rows`` with ``two_plane`` builds the same
window LP with the wear cost as an epigraph variable over both planes; the
two must have the same optimum, and the one-row form must save the
degenerate pivots in which discharge enters at zero against its plane-2 row.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest

from evdispatch import evba, lp
from evdispatch.analysis import generate_price_set
from evdispatch.degradation import plane_values
from evdispatch.domain import PriceSeries
from oracles import block_diagonal_scipy_optimum, window_lp_by_rows
from scen import random_scenario, refine

try:
    import scipy  # noqa: F401
    HAVE_SCIPY = True
except ImportError:
    HAVE_SCIPY = False

OF2, OF5 = evba.cost_toggles_for("of2"), evba.cost_toggles_for("of5")


def _with_d4(s, d4: float):
    """``s`` with every vehicle's plane-2 coefficient set to ``d4``."""
    return dataclasses.replace(s, vehicles=tuple(
        dataclasses.replace(v, degradation=dataclasses.replace(v.degradation, d4=d4)) for v in s.vehicles
    ))


def _assert_same_optimum_as_two_planes(s, ct: evba.CostToggles, power: evba.PowerMode) -> None:
    """Each vehicle's one-row LP has the two-plane LP's optimum, by our
    solver and by HiGHS, and its wear is the plane envelope at the optimum."""
    day = np.arange(s.horizon.step_count)
    for v_idx, (v, p) in enumerate(zip(s.vehicles, evba.build_evba(s, ct, power))):
        ref = window_lp_by_rows(s, v_idx, day, v.soe_initial_kwh, v.soe_initial_kwh, ct, power, two_plane=True)
        assert p.num_constraints == ref.num_constraints - s.horizon.step_count
        got, want = lp.solve(p), lp.solve(ref)
        assert got.status == want.status == lp.OPTIMAL
        assert got.objective == pytest.approx(want.objective, rel=1e-9, abs=1e-12)
        if HAVE_SCIPY:
            assert got.objective == pytest.approx(block_diagonal_scipy_optimum([ref]), rel=1e-9, abs=1e-9)
        _, e_dch, _, soe, c_deg = evba._window_schedule(v, got, ct)
        p1, p2 = plane_values(v, e_dch, np.clip(soe, 0.0, v.capacity_kwh))
        np.testing.assert_allclose(c_deg, np.maximum(np.maximum(p1, p2), 0.0), rtol=0.0, atol=lp.FEAS_TOL)


@pytest.mark.parametrize("level", ["low", "medium", "high"])
def test_one_row_wear_matches_two_planes_on_the_example(example_scenario, level):
    s = example_scenario.with_prices(generate_price_set(level, seed=1))
    for ct, power in itertools.product((OF2, OF5), evba.PowerMode):
        _assert_same_optimum_as_two_planes(s, ct, power)


def test_one_row_wear_matches_two_planes_where_wear_priced_discharge_happens(example_scenario):
    # at 3000 times the high prices discharge pays for its wear
    high = generate_price_set("high", seed=1)
    s = example_scenario.with_prices(PriceSeries("high_x3000", high.values * 3000.0))
    for ct in (OF2, OF5):
        assert evba.solve_evba(s, ct).discharged_kwh > 1.0
        _assert_same_optimum_as_two_planes(s, ct, evba.PowerMode.BOTH)


@pytest.mark.parametrize("seed", range(20))
def test_one_row_wear_matches_two_planes_on_random_scenarios(seed):
    s = random_scenario(seed).with_prices(generate_price_set(("low", "medium", "high")[seed % 3], seed=seed))
    for ct in (OF2, OF5):
        _assert_same_optimum_as_two_planes(s, ct, evba.PowerMode.BOTH)


@pytest.mark.parametrize("d4", [0.0, -0.01])
def test_one_row_wear_matches_two_planes_without_a_rising_plane_2(example_scenario, d4):
    # validation accepts any finite d4; below zero plane 2 never tops the
    # zero floor of the wear, so the discharge slope is clamped at 0
    high = generate_price_set("high", seed=1)
    for prices in (high, PriceSeries("high_x3000", high.values * 3000.0)):
        s = _with_d4(example_scenario, d4).with_prices(prices)
        for ct in (OF2, OF5):
            _assert_same_optimum_as_two_planes(s, ct, evba.PowerMode.BOTH)


def test_one_row_wear_takes_under_half_the_two_plane_pivots(example_scenario):
    # the 15-minute ev1 under high prices: with two planes most iterations
    # are degenerate, discharge entering at zero as its plane-2 slack leaves
    s = refine(example_scenario, "ev1", 4)
    s = s.with_prices(generate_price_set("high", seed=1, step_count=96, step_hours=0.25))
    v = s.vehicles[0]
    (p,) = evba.build_evba(s, OF5)
    ref = window_lp_by_rows(s, 0, np.arange(96), v.soe_initial_kwh, v.soe_initial_kwh, OF5, evba.PowerMode.BOTH,
                            two_plane=True)
    got, want = lp.solve(p).stats, lp.solve(ref).stats
    assert (got.m, want.m) == (280, 376)
    pivots = [st.phase1_pivots + st.phase2_pivots for st in (got, want)]
    assert pivots[0] < pivots[1] / 2, pivots
