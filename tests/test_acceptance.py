"""Acceptance suite: one test per shipped criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
The random-scenario batch is computed once and shared between the audit and
dominance criteria.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pytest

from evdispatch import lp
from evdispatch.analysis import (
    check_schedule,
    compare_aggregators,
    generate_price_set,
    run_cost_ablation,
    run_power_ablation,
)
from evdispatch.degradation import degradation_cost
from evdispatch.domain import Scenario
from evdispatch.evba import (
    OBJECTIVE_VARIANTS,
    FleetSchedule,
    PowerMode,
    cost_toggles_for,
    solve_evba,
)
from evdispatch.evca import HIGH_SOE, LOW_SOE, solve_evca
from oracles import build_problem, micro_case_grid_optimum, random_bounded_lp, vertex_enumeration_optimum
from scen import micro_scenario, random_scenario

OF5 = cost_toggles_for("of5")
TOL = 1e-6


def _verdict(n: int, name: str, ok: bool, detail: str = ""):
    state = "PASS" if ok else "FAIL"
    print(f"[criterion {n}] {name}: {state}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {n} failed: {detail}"


@dataclass
class Batch:
    scenario: Scenario
    evba: FleetSchedule
    evca_high: FleetSchedule
    evca_low: FleetSchedule


@pytest.fixture(scope="module")
def random_batch() -> list[Batch]:
    """100 seeded random scenarios solved under the full objective, both mode."""
    out = []
    vols = ("low", "medium", "high")
    for seed in range(100, 200):
        s = random_scenario(seed, max_vehicles=4).with_prices(
            generate_price_set(vols[seed % 3], seed=seed)
        )
        evba = solve_evba(s, OF5, PowerMode.BOTH)
        assert evba.status == "optimal", f"seed {seed}: EVBA {evba.status}"
        high = solve_evca(s, HIGH_SOE, OF5, PowerMode.BOTH)
        low = solve_evca(s, LOW_SOE, OF5, PowerMode.BOTH)
        out.append(Batch(s, evba, high, low))
    return out


def test_criterion_1_lp_kernel_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(200):
        rng = np.random.default_rng(10_000 + seed)
        data = random_bounded_lp(rng)
        sol = lp.solve(build_problem(*data))
        assert sol.status == lp.OPTIMAL, f"seed {seed}: {sol.status}"
        oracle = vertex_enumeration_optimum(*data)
        assert oracle is not None, f"seed {seed}: oracle found no vertex"
        worst = max(worst, abs(sol.objective - oracle))
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        "LP kernel matches vertex-enumeration oracle on 200 random LPs",
        worst <= TOL and elapsed < 5.0,
        f"max deviation {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_feasibility_audits(random_batch):
    bad = 0
    for b in random_batch:
        for fs in (b.evba, b.evca_high, b.evca_low):
            rep = check_schedule(b.scenario, fs)
            if not rep.ok:
                bad += 1
    _verdict(
        2,
        "EVBA and stitched EVCA schedules audit clean on 100 random scenarios",
        bad == 0,
        f"{3 * len(random_batch)} schedules audited, {bad} with violations",
    )


def test_criterion_3_evba_dominance(random_batch, example_scenario):
    worst_gap = -np.inf
    violations = 0
    for b in random_batch:
        for evca in (b.evca_high, b.evca_low):
            gap = b.evba.total_cost_eur - evca.total_cost_eur
            worst_gap = max(worst_gap, gap)
            if gap > TOL:
                violations += 1
    # shipped-example report: strictly positive gap under high-volatility prices
    rep = compare_aggregators(example_scenario, [generate_price_set("high", seed=1)])
    evba_cost = rep.cell("high", "evba").total_cost_eur
    best_evca = min(
        rep.cell("high", "evca_high").total_cost_eur,
        rep.cell("high", "evca_low").total_cost_eur,
    )
    strictly_positive = best_evca - evba_cost > 0.0
    _verdict(
        3,
        "fleet optimizer never costs more than either station policy",
        violations == 0 and strictly_positive,
        f"worst EVBA-EVCA gap {worst_gap:.2e}, example gap {best_evca - evba_cost:.4f} EUR",
    )


def test_criterion_4_power_constraint_orderings(example_scenario, high_prices):
    study = run_power_ablation(example_scenario, high_prices)
    by = {r.label: r for r in study.reports}
    cost = {k: v.total_cost_eur for k, v in by.items()}
    ok = (
        cost["obc_only"] <= cost["both"] + TOL
        and cost["cp_only"] <= cost["both"] + TOL
        and cost["both"] <= cost["fixed_4kw"] + TOL
        and by["obc_only"].violations.count("CP limit") >= 1
        and by["cp_only"].violations.count("OBC limit") >= 1
        and by["fixed_4kw"].violations.ok
        and by["both"].violations.ok
    )
    _verdict(
        4,
        "power-cap ablation orderings and audit findings",
        ok,
        f"costs {({k: round(v, 4) for k, v in cost.items()})}, "
        f"obc CP-viol {by['obc_only'].violations.count('CP limit')}, "
        f"cp OBC-viol {by['cp_only'].violations.count('OBC limit')}",
    )


def test_criterion_5_objective_term_orderings(example_scenario, high_prices):
    def orderings_hold(costs: dict[str, float]) -> bool:
        return (
            costs["of1"] <= costs["of2"] + TOL
            and costs["of2"] <= costs["of5"] + TOL
            and costs["of1"] <= costs["of3"] + TOL
            and costs["of1"] <= costs["of4"] + TOL
            and costs["of4"] <= costs["of5"] + TOL
        )

    study = run_cost_ablation(example_scenario, high_prices)
    by = {r.label: r for r in study.reports}
    example_ok = orderings_hold({k: v.total_cost_eur for k, v in by.items()})
    discharge_ok = by["of5"].discharged_kwh <= by["of1"].discharged_kwh + 1e-9

    random_ok = True
    for seed in range(300, 350):
        s = random_scenario(seed, max_vehicles=2).with_prices(
            generate_price_set("high", seed=seed)
        )
        costs = {
            label: solve_evba(s, ct).total_cost_eur
            for label, ct in OBJECTIVE_VARIANTS.items()
        }
        if not orderings_hold(costs):
            random_ok = False
            break
    _verdict(
        5,
        "objective-term orderings on the example and 50 random scenarios",
        example_ok and discharge_ok and random_ok,
        f"example of1={by['of1'].total_cost_eur:.4f} of5={by['of5'].total_cost_eur:.4f}, "
        f"discharge of1={by['of1'].discharged_kwh:.2f} of5={by['of5'].discharged_kwh:.2f} kWh",
    )


def test_criterion_6_degradation_epigraph_tightness(example_with_high):
    worst = 0.0
    checked = 0
    solves = [
        solve_evba(example_with_high, cost_toggles_for("of2")),
        solve_evba(example_with_high, OF5),
        solve_evca(example_with_high, HIGH_SOE, OF5),
        solve_evca(example_with_high, LOW_SOE, OF5),
    ]
    for fs in solves:
        assert fs.status == "optimal"
        for i, v in enumerate(example_with_high.vehicles):
            for t in range(24):
                envelope = max(
                    degradation_cost(v, fs.e_dch[i, t], min(max(fs.soe[i, t], 0.0), v.capacity_kwh)),
                    0.0,
                )
                worst = max(worst, abs(fs.c_deg[i, t] - envelope))
                checked += 1
    _verdict(
        6,
        "wear epigraph equals the plane envelope at every vehicle-step",
        worst <= TOL,
        f"{checked} entries, max deviation {worst:.2e}",
    )


def test_criterion_7_micro_case_exactness():
    fs = solve_evba(micro_scenario(), cost_toggles_for("of1"))
    oracle = micro_case_grid_optimum(1e-3)
    ok = (
        fs.status == "optimal"
        and abs(fs.total_cost_eur - (-1.5046)) <= 1e-3
        and abs(fs.total_cost_eur - oracle) <= 1e-3
    )
    _verdict(
        7,
        "three-step arbitrage case solves to -1.5046 EUR and matches the grid oracle",
        ok,
        f"lp {fs.total_cost_eur:.6f}, grid {oracle:.6f}",
    )


def test_criterion_8_volatility_direction(example_scenario):
    failures = []
    for seed in range(1, 11):
        high = solve_evba(
            example_scenario.with_prices(generate_price_set("high", seed=seed)), OF5
        ).total_cost_eur
        low = solve_evba(
            example_scenario.with_prices(generate_price_set("low", seed=seed)), OF5
        ).total_cost_eur
        if high > low + TOL:
            failures.append(seed)
    _verdict(
        8,
        "higher price volatility never raises the fleet cost (seeds 1..10)",
        not failures,
        f"failing seeds: {failures}" if failures else "all 10 seeds ordered",
    )


def test_criterion_9_comparison_grid_performance(example_scenario):
    sets = [generate_price_set(v, seed=1) for v in ("high", "medium", "low")]
    t0 = time.perf_counter()
    rep = compare_aggregators(example_scenario, sets)
    elapsed = time.perf_counter() - t0
    complete = len(rep.cells) == 9 and all(c.status == "optimal" for c in rep.cells)
    _verdict(
        9,
        "full 3x3 comparison grid under 2 seconds",
        complete and elapsed < 2.0,
        f"{elapsed:.2f}s",
    )
