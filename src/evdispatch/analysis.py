"""Constraint auditor, experiment runners, price generation and reports.

The auditor recomputes every model constraint from scratch, outside any
solver, so it can certify solver output and expose what schedules produced
under relaxed power assumptions would actually violate. The experiment
runners cover the three studies this package ships:

- compare_aggregators: fleet optimizer vs per-station optimizer under two
  departure policies, across several price series;
- run_power_ablation: four power-cap variants, each audited against the full
  constraint set;
- run_cost_ablation: objective variants of1..of5, tracking cost and
  discharge volumes.

Experiment cells are independent (pure solves of immutable inputs); report
assembly is single threaded. Reports are deterministic byte-for-byte for
identical inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import charts
from .degradation import plane_values
from .domain import FAST, SLOW, PriceSeries, Scenario
from .evba import (
    FIXED_POWER_KW,
    OBJECTIVE_VARIANTS,
    CostToggles,
    FleetSchedule,
    PowerMode,
    cost_toggles_for,
    solve_evba,
)
from .evca import HIGH_SOE, LOW_SOE, SoePolicy, solve_evca

#: Declared defaults surfaced in every report header.
ASSUMPTIONS = (
    "battery capital cost defaults to 150 EUR/kWh x capacity when not set per vehicle",
    "on-board charger rating defaults to 10 kW when not set per vehicle",
    "night tariff band defaults to 22:00-06:00",
)


class OrderingError(RuntimeError):
    """An expected objective ordering between variants failed."""


# ---------------------------------------------------------------------------
# Auditor

@dataclass(frozen=True)
class Violation:
    vehicle: str
    step: int
    constraint: str   # e.g. "CP limit", "OBC limit", "CV taper", "SOE bounds", "balance"
    magnitude: float  # kWh, or EUR for wear-cost shortfalls


@dataclass
class ViolationReport:
    violations: list[Violation] = field(default_factory=list)
    flags: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def count(self, constraint: str) -> int:
        return sum(1 for v in self.violations if v.constraint == constraint)


def check_schedule(s: Scenario, fs: FleetSchedule, tol: float = 1e-6) -> ViolationReport:
    """Recompute the full constraint set on a schedule, independent of any solver.

    Every violation above ``tol`` is reported with its magnitude. Steps where
    charge and discharge run simultaneously are flagged (not violations; they
    can be optimal under negative prices) so such pathologies stay visible.
    """
    V, T = len(s.vehicles), s.horizon.step_count
    if fs.e_sch.shape != (V, T):
        raise ValueError(
            f"schedule shape {fs.e_sch.shape} does not match scenario ({V}, {T})"
        )
    rep = ViolationReport()

    def add(v: int, t: int, constraint: str, magnitude: float):
        rep.violations.append(Violation(s.vehicles[v].id, t, constraint, float(magnitude)))

    for v_idx, v in enumerate(s.vehicles):
        cap = v.capacity_kwh
        prev = v.soe_initial_kwh
        for t in range(T):
            sch = fs.e_sch[v_idx, t]
            dch = fs.e_dch[v_idx, t]
            fch = fs.e_fch[v_idx, t]
            stock = fs.soe[v_idx, t]
            cp = s.cp_at(v_idx, t)
            slow_lim = cp.power_limit_kwh_per_step if cp is not None and cp.kind == SLOW else 0.0
            fast_lim = cp.power_limit_kwh_per_step if cp is not None and cp.kind == FAST else 0.0

            for name, flow in (("e_sch", sch), ("e_dch", dch), ("e_fch", fch)):
                if flow < -tol:
                    add(v_idx, t, "nonnegative", -flow)
            if sch > slow_lim + tol:
                add(v_idx, t, "CP limit", sch - slow_lim)
            if dch > slow_lim + tol:
                add(v_idx, t, "CP limit", dch - slow_lim)
            if sch > v.obc_max_kwh_per_step + tol:
                add(v_idx, t, "OBC limit", sch - v.obc_max_kwh_per_step)
            if dch > v.obc_max_kwh_per_step + tol:
                add(v_idx, t, "OBC limit", dch - v.obc_max_kwh_per_step)
            if fch > fast_lim + tol:
                add(v_idx, t, "CP limit", fch - fast_lim)
            if v.soe_cv_frac < 1.0 - 1e-12:
                taper = v.obc_max_kwh_per_step * (cap - stock) / (cap * (1.0 - v.soe_cv_frac))
                if sch > taper + tol:
                    add(v_idx, t, "CV taper", sch - taper)
            if stock < v.soe_min_kwh - tol:
                add(v_idx, t, "SOE bounds", v.soe_min_kwh - stock)
            if stock > v.soe_max_kwh + tol:
                add(v_idx, t, "SOE bounds", stock - v.soe_max_kwh)
            balance = (
                prev
                + sch * v.eta_sch
                + fch * v.eta_fch
                - dch / v.eta_dch
                - float(s.trips.energy_kwh[v_idx, t]) / v.eta_run
            )
            if abs(stock - balance) > tol:
                add(v_idx, t, "balance", abs(stock - balance))
            p1, p2 = plane_values(v, max(dch, 0.0), min(max(stock, 0.0), cap))
            short = max(p1, p2) - fs.c_deg[v_idx, t]
            if short > tol:
                add(v_idx, t, "degradation", short)
            if sch > 1e-6 and dch > 1e-6:
                rep.flags.append(
                    f"vehicle {v.id!r} step {t}: simultaneous charge {sch:.4f} kWh "
                    f"and discharge {dch:.4f} kWh"
                )
            prev = stock
        if fs.soe[v_idx, T - 1] < v.soe_initial_kwh - tol:
            add(v_idx, T - 1, "terminal SOE", v.soe_initial_kwh - fs.soe[v_idx, T - 1])
    return rep


# ---------------------------------------------------------------------------
# Synthetic prices

_SIGMA_BASE = 0.008
_VOLATILITY_SCALE = {"low": 1.0, "medium": 3.0, "high": 6.0}
PRICE_MEAN = 0.05


def generate_price_set(volatility: str, seed: int = 0, step_count: int = 24) -> PriceSeries:
    """Seeded day-ahead price series with a two-peak daily shape.

    The same seed produces the same normalized shape for every volatility
    level; the level only scales the standard deviation (1x/3x/6x of the
    base). The mean is exactly PRICE_MEAN by construction.
    """
    try:
        scale = _VOLATILITY_SCALE[volatility]
    except KeyError:
        raise ValueError(f"volatility must be one of {sorted(_VOLATILITY_SCALE)}, got {volatility!r}") from None
    t = np.arange(step_count, dtype=float)
    shape = (
        0.9 * np.exp(-(((t - 8.5) / 2.0) ** 2))
        + 1.1 * np.exp(-(((t - 18.5) / 2.2) ** 2))
        - 0.8 * np.exp(-(((t - 3.0) / 2.5) ** 2))
    )
    rng = np.random.default_rng(seed)
    z = shape + rng.normal(0.0, 0.35, step_count)
    z = z - z.mean()
    z = z / z.std()
    values = PRICE_MEAN + _SIGMA_BASE * scale * z
    return PriceSeries(label=volatility, values=values)


# ---------------------------------------------------------------------------
# Reports

@dataclass
class AblationReport:
    """One variant of an ablation study, audited against the full model."""

    label: str
    total_cost_eur: float
    breakdown: dict[str, float]
    charged_kwh: float
    discharged_kwh: float
    violations: ViolationReport
    status: str = "optimal"


@dataclass
class AblationStudy:
    kind: str  # "power" or "cost"
    price_label: str
    reports: list[AblationReport]
    assumptions: list[str] = field(default_factory=lambda: list(ASSUMPTIONS))


@dataclass
class ComparisonCell:
    price_label: str
    model: str  # "evba", "evca_high", "evca_low"
    status: str
    total_cost_eur: float | None
    per_vehicle_cost_eur: dict[str, float]
    charged_kwh: float | None
    discharged_kwh: float | None
    soe_kwh: dict[str, list[float]]
    dominance_gap_eur: float | None = None  # evca cost minus evba cost
    dominance_ok: bool | None = None
    error: str = ""


@dataclass
class ComparisonReport:
    price_labels: list[str]
    models: list[str]
    cells: list[ComparisonCell]
    price_series: dict[str, list[float]]
    assumptions: list[str] = field(default_factory=lambda: list(ASSUMPTIONS))

    def cell(self, price_label: str, model: str) -> ComparisonCell:
        for c in self.cells:
            if c.price_label == price_label and c.model == model:
                return c
        raise KeyError(f"no cell for ({price_label!r}, {model!r})")


# ---------------------------------------------------------------------------
# Experiment runners

def _breakdown_totals(fs: FleetSchedule) -> dict[str, float]:
    keys = ("energy_eur", "grid_fee_eur", "cp_fee_eur", "degradation_eur", "v2g_revenue_eur")
    out = {k: 0.0 for k in keys}
    for c in fs.per_vehicle:
        for k in keys:
            out[k] += getattr(c, k)
    return out


def compare_aggregators(
    s: Scenario,
    price_sets: list[PriceSeries],
    policies: tuple[float, float] = (HIGH_SOE.depart_min_frac, LOW_SOE.depart_min_frac),
    ct: CostToggles = CostToggles(),
    power: PowerMode = PowerMode.BOTH,
) -> ComparisonReport:
    """Fleet vs per-station optimizer across price series and policies.

    Solver and session errors are recorded per cell rather than raised, so a
    partially solvable grid still yields a report. Each station-model cell
    records its cost gap against the fleet model.
    """
    models = ["evba", "evca_high", "evca_low"]
    cells: list[ComparisonCell] = []
    for ps in price_sets:
        sp = s.with_prices(ps)
        evba_cost: float | None = None
        for model in models:
            try:
                if model == "evba":
                    fs = solve_evba(sp, ct, power)
                else:
                    frac = policies[0] if model == "evca_high" else policies[1]
                    fs = solve_evca(sp, SoePolicy(frac), ct, power)
                if fs.status != "optimal":
                    cells.append(
                        ComparisonCell(ps.label, model, fs.status, None, {}, None, None, {},
                                       error=fs.message)
                    )
                    continue
                cell = ComparisonCell(
                    price_label=ps.label,
                    model=model,
                    status=fs.status,
                    total_cost_eur=fs.total_cost_eur,
                    per_vehicle_cost_eur={c.vehicle: c.total_eur for c in fs.per_vehicle},
                    charged_kwh=fs.charged_kwh,
                    discharged_kwh=fs.discharged_kwh,
                    soe_kwh={
                        v.id: [float(x) for x in fs.soe[i]] for i, v in enumerate(s.vehicles)
                    },
                )
                if model == "evba":
                    evba_cost = fs.total_cost_eur
                elif evba_cost is not None:
                    cell.dominance_gap_eur = fs.total_cost_eur - evba_cost
                    cell.dominance_ok = evba_cost <= fs.total_cost_eur + 1e-6
                cells.append(cell)
            except Exception as exc:  # noqa: BLE001 - cell errors are report content
                cells.append(
                    ComparisonCell(ps.label, model, "error", None, {}, None, None, {},
                                   error=f"{type(exc).__name__}: {exc}")
                )
    return ComparisonReport(
        price_labels=[ps.label for ps in price_sets],
        models=models,
        cells=cells,
        price_series={ps.label: [float(x) for x in ps.values] for ps in price_sets},
    )


_POWER_ABLATION_ORDER = (
    PowerMode.FIXED_4KW,
    PowerMode.OBC_ONLY,
    PowerMode.CP_ONLY,
    PowerMode.BOTH,
)


def run_power_ablation(
    s: Scenario,
    prices: PriceSeries,
    ct: CostToggles = cost_toggles_for("of1"),
) -> AblationStudy:
    """Solve the fleet model under the four power-cap variants and audit each.

    Defaults to the electricity-only objective so arbitrage pushes against
    the power caps. Verifies the relaxation orderings (relaxed caps can only
    match or beat the full set; the flat 4 kW cap, when tighter than every
    plug and OBC rating, can only match or worsen it).
    """
    sp = s.with_prices(prices)
    reports: list[AblationReport] = []
    costs: dict[PowerMode, float] = {}
    for mode in _POWER_ABLATION_ORDER:
        fs = solve_evba(sp, ct, mode)
        if fs.status != "optimal":
            reports.append(
                AblationReport(mode.value, float("nan"), {}, 0.0, 0.0, ViolationReport(), fs.status)
            )
            continue
        costs[mode] = fs.total_cost_eur
        reports.append(
            AblationReport(
                label=mode.value,
                total_cost_eur=fs.total_cost_eur,
                breakdown=_breakdown_totals(fs),
                charged_kwh=fs.charged_kwh,
                discharged_kwh=fs.discharged_kwh,
                violations=check_schedule(sp, fs),
            )
        )

    def expect(lo: PowerMode, hi: PowerMode):
        if lo in costs and hi in costs and costs[lo] > costs[hi] + 1e-6:
            raise OrderingError(
                f"expected cost({lo.value}) <= cost({hi.value}), got "
                f"{costs[lo]:.9f} > {costs[hi]:.9f}"
            )

    expect(PowerMode.OBC_ONLY, PowerMode.BOTH)
    expect(PowerMode.CP_ONLY, PowerMode.BOTH)
    fixed_cap = FIXED_POWER_KW * s.horizon.step_hours
    connected_limits = [
        cp.power_limit_kwh_per_step
        for v_idx in range(len(s.vehicles))
        for t in range(s.horizon.step_count)
        if (cp := s.cp_at(v_idx, t)) is not None and cp.kind == SLOW
    ]
    if all(fixed_cap <= lim for lim in connected_limits) and all(
        fixed_cap <= v.obc_max_kwh_per_step for v in s.vehicles
    ):
        expect(PowerMode.BOTH, PowerMode.FIXED_4KW)
    return AblationStudy(kind="power", price_label=prices.label, reports=reports)


def run_cost_ablation(
    s: Scenario, prices: PriceSeries, power: PowerMode = PowerMode.BOTH
) -> AblationStudy:
    """Solve the fleet model under objective variants of1..of5.

    Verifies the toggle-monotonicity orderings (adding nonnegative cost terms
    cannot lower the optimum). Discharge-volume ordering across variants is
    reported, not asserted; ties in the LP can break it without being wrong.
    """
    sp = s.with_prices(prices)
    reports: list[AblationReport] = []
    costs: dict[str, float] = {}
    for label, ct in OBJECTIVE_VARIANTS.items():
        fs = solve_evba(sp, ct, power)
        if fs.status != "optimal":
            reports.append(
                AblationReport(label, float("nan"), {}, 0.0, 0.0, ViolationReport(), fs.status)
            )
            continue
        costs[label] = fs.total_cost_eur
        reports.append(
            AblationReport(
                label=label,
                total_cost_eur=fs.total_cost_eur,
                breakdown=_breakdown_totals(fs),
                charged_kwh=fs.charged_kwh,
                discharged_kwh=fs.discharged_kwh,
                violations=check_schedule(sp, fs),
            )
        )

    def expect(lo: str, hi: str):
        if lo in costs and hi in costs and costs[lo] > costs[hi] + 1e-6:
            raise OrderingError(
                f"expected obj({lo}) <= obj({hi}), got {costs[lo]:.9f} > {costs[hi]:.9f}"
            )

    for lo, hi in (("of1", "of2"), ("of2", "of5"), ("of1", "of3"), ("of1", "of4"), ("of4", "of5")):
        expect(lo, hi)
    return AblationStudy(kind="cost", price_label=prices.label, reports=reports)


# ---------------------------------------------------------------------------
# File emission

def _json_bytes(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _violations_json(rep: ViolationReport) -> dict:
    return {
        "violations": [
            {
                "vehicle": v.vehicle,
                "step": v.step,
                "constraint": v.constraint,
                "magnitude": round(v.magnitude, 9),
            }
            for v in rep.violations
        ],
        "flags": list(rep.flags),
    }


def _write(path: Path, text: str, written: list[Path]) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise OSError(f"cannot write report file {path}: {exc}") from exc
    written.append(path)


def write_report(report, out_dir: str | Path, *, scenario: Scenario | None = None) -> list[Path]:
    """Emit a report as JSON + CSV + SVG files; returns the written paths.

    Accepts a ComparisonReport, an AblationStudy or a FleetSchedule (the
    latter needs ``scenario``). Identical inputs produce byte-identical
    files: ordering is fixed and floats use a fixed format.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    if isinstance(report, ComparisonReport):
        payload = {
            "assumptions": report.assumptions,
            "price_labels": report.price_labels,
            "models": report.models,
            "price_series": report.price_series,
            "cells": [
                {
                    "price": c.price_label,
                    "model": c.model,
                    "status": c.status,
                    "total_cost_eur": c.total_cost_eur,
                    "per_vehicle_cost_eur": c.per_vehicle_cost_eur,
                    "charged_kwh": c.charged_kwh,
                    "discharged_kwh": c.discharged_kwh,
                    "soe_kwh": c.soe_kwh,
                    "dominance_gap_eur": c.dominance_gap_eur,
                    "dominance_ok": c.dominance_ok,
                    "error": c.error,
                }
                for c in report.cells
            ],
        }
        _write(out / "comparison.json", _json_bytes(payload), written)

        lines = ["price,model,vehicle,status,total_cost_eur,charged_kwh,discharged_kwh,dominance_gap_eur,error"]
        for c in report.cells:
            cost = "" if c.total_cost_eur is None else f"{c.total_cost_eur:.6f}"
            ch = "" if c.charged_kwh is None else f"{c.charged_kwh:.6f}"
            dc = "" if c.discharged_kwh is None else f"{c.discharged_kwh:.6f}"
            gap = "" if c.dominance_gap_eur is None else f"{c.dominance_gap_eur:.6f}"
            lines.append(f"{c.price_label},{c.model},(fleet),{c.status},{cost},{ch},{dc},{gap},{c.error}")
            for vid in sorted(c.per_vehicle_cost_eur):
                lines.append(
                    f"{c.price_label},{c.model},{vid},{c.status},"
                    f"{c.per_vehicle_cost_eur[vid]:.6f},,,,"
                )
        _write(out / "comparison.csv", "\n".join(lines) + "\n", written)

        price_lines = [(label, report.price_series[label]) for label in report.price_labels]
        _write(
            out / "prices.svg",
            charts.line_chart(price_lines, title="price series", y_label="EUR/kWh"),
            written,
        )
        if report.price_labels:
            focus = report.price_labels[0]
            vids: list[str] = []
            for c in report.cells:
                if c.price_label == focus:
                    vids.extend(k for k in c.soe_kwh if k not in vids)
            for vid in vids:
                series = [
                    (c.model, c.soe_kwh[vid])
                    for c in report.cells
                    if c.price_label == focus and vid in c.soe_kwh
                ]
                _write(
                    out / f"soe_{vid}.svg",
                    charts.line_chart(
                        series, title=f"{vid} state of energy ({focus} prices)", y_label="kWh"
                    ),
                    written,
                )
        return written

    if isinstance(report, AblationStudy):
        stem = f"{report.kind}_ablation"
        payload = {
            "assumptions": report.assumptions,
            "kind": report.kind,
            "price": report.price_label,
            "variants": [
                {
                    "label": r.label,
                    "status": r.status,
                    "total_cost_eur": r.total_cost_eur,
                    "breakdown": r.breakdown,
                    "charged_kwh": r.charged_kwh,
                    "discharged_kwh": r.discharged_kwh,
                    "violation_count": len(r.violations.violations),
                    **_violations_json(r.violations),
                }
                for r in report.reports
            ],
        }
        _write(out / f"{stem}.json", _json_bytes(payload), written)

        lines = [
            "label,status,total_cost_eur,energy_eur,grid_fee_eur,cp_fee_eur,"
            "degradation_eur,v2g_revenue_eur,charged_kwh,discharged_kwh,violation_count"
        ]
        for r in report.reports:
            b = r.breakdown
            lines.append(
                f"{r.label},{r.status},{r.total_cost_eur:.6f},"
                f"{b.get('energy_eur', 0.0):.6f},{b.get('grid_fee_eur', 0.0):.6f},"
                f"{b.get('cp_fee_eur', 0.0):.6f},{b.get('degradation_eur', 0.0):.6f},"
                f"{b.get('v2g_revenue_eur', 0.0):.6f},{r.charged_kwh:.6f},"
                f"{r.discharged_kwh:.6f},{len(r.violations.violations)}"
            )
        _write(out / f"{stem}.csv", "\n".join(lines) + "\n", written)

        _write(
            out / f"{stem}.svg",
            charts.bar_chart(
                [r.label for r in report.reports],
                [r.total_cost_eur for r in report.reports],
                title=f"{report.kind} ablation: total cost ({report.price_label} prices)",
                y_label="EUR",
            ),
            written,
        )
        _write(
            out / f"{stem}_discharge.svg",
            charts.bar_chart(
                [r.label for r in report.reports],
                [r.discharged_kwh for r in report.reports],
                title=f"{report.kind} ablation: discharged energy ({report.price_label} prices)",
                y_label="kWh",
            ),
            written,
        )
        return written

    if isinstance(report, FleetSchedule):
        # local imports keep module load acyclic
        from .evba import breakdown_dict, schedule_csv_text
        from .evca import sessions_csv_text

        if scenario is None:
            raise ValueError("write_report(FleetSchedule, ...) requires scenario=")
        _write(out / "schedule.csv", schedule_csv_text(scenario, report), written)
        _write(out / "breakdown.json", _json_bytes(breakdown_dict(scenario, report)), written)
        if report.sessions is not None:
            _write(out / "sessions.csv", sessions_csv_text(report), written)
        return written

    raise TypeError(f"unsupported report type {type(report).__name__}")
