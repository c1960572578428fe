"""Constraint auditor, experiment runners, price generation and reports.

The auditor recomputes every model constraint from scratch, outside any
solver, so it can certify solver output and expose what schedules produced
under relaxed power assumptions would actually violate. Like the LP build,
it reads each step's plug kind and power limit from ``Scenario.plugs``. The experiment
runners cover the three studies this package ships:

- compare_aggregators: fleet optimizer vs per-station optimizer under two
  departure policies, across several price series;
- run_power_ablation: four power-cap variants, each audited against the full
  constraint set;
- run_cost_ablation: objective variants of1..of5, tracking cost and
  discharge volumes.

Experiment cells are independent (pure solves of immutable inputs), so the
three models of compare_aggregators, each over every price series, and the
variants of both ablations run through _solve_cells. On Linux, with more
than one CPU in the process's affinity set, more than one cell and no other
thread running, it forks one child per extra CPU for each call and deals
the cells out among them and this process; otherwise it runs the same loop
here. Results are merged in
cell order, and report assembly runs in this process, so reports are
byte-for-byte identical either way and deterministic for identical inputs.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import pickle
import signal
import sys
import threading
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
    solve_evba_series,
)
from .evca import HIGH_SOE, LOW_SOE, solve_evca_series
from .evca import solve_evca  # noqa: F401 - bench/tracing.py's TARGETS wraps this binding
from .lp import FEAS_TOL

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


def check_schedule(s: Scenario, fs: FleetSchedule) -> ViolationReport:
    """Recompute the full constraint set on a schedule, independent of any solver.

    Every violation above the solver's ``FEAS_TOL`` is reported with its
    magnitude, ordered by vehicle, then step, then check; a vehicle's
    terminal-SOE violation follows its steps. Steps where charge and
    discharge run simultaneously are flagged (not violations; they can be
    optimal under negative prices) so such pathologies stay visible. Each
    check is one pass over a vehicle's steps. A schedule with the wrong
    shape or a non-finite entry raises ValueError.
    """
    V, T = len(s.vehicles), s.horizon.step_count
    if fs.e_sch.shape != (V, T):
        raise ValueError(
            f"schedule shape {fs.e_sch.shape} does not match scenario ({V}, {T})"
        )
    for name in ("e_sch", "e_dch", "e_fch", "soe", "c_deg"):
        bad = ~np.isfinite(getattr(fs, name))
        if bad.any():
            v_idx, t = np.argwhere(bad)[0].tolist()
            raise ValueError(
                f"schedule {name}: vehicle {s.vehicles[v_idx].id!r} step {t} holds "
                f"{getattr(fs, name)[v_idx, t]}"
            )
    rep = ViolationReport()
    kind, limit = s.plugs.kind, s.plugs.limit
    slow_lims, fast_lims = np.where(kind == SLOW, limit, 0.0), np.where(kind == FAST, limit, 0.0)
    for v_idx, v in enumerate(s.vehicles):
        cap, obc = v.capacity_kwh, v.obc_max_kwh_per_step
        sch, dch, fch, stock = fs.e_sch[v_idx], fs.e_dch[v_idx], fs.e_fch[v_idx], fs.soe[v_idx]
        slow_lim, fast_lim = slow_lims[v_idx], fast_lims[v_idx]
        # (constraint, violated at each step, magnitude) in the order checked
        checks = [
            ("nonnegative", sch < -FEAS_TOL, -sch),
            ("nonnegative", dch < -FEAS_TOL, -dch),
            ("nonnegative", fch < -FEAS_TOL, -fch),
            ("CP limit", sch > slow_lim + FEAS_TOL, sch - slow_lim),
            ("CP limit", dch > slow_lim + FEAS_TOL, dch - slow_lim),
            ("OBC limit", sch > obc + FEAS_TOL, sch - obc),
            ("OBC limit", dch > obc + FEAS_TOL, dch - obc),
            ("CP limit", fch > fast_lim + FEAS_TOL, fch - fast_lim),
        ]
        if v.soe_cv_frac < 1.0 - 1e-12:
            taper = obc * (cap - stock) / (cap * (1.0 - v.soe_cv_frac))
            checks.append(("CV taper", sch > taper + FEAS_TOL, sch - taper))
        prev = np.concatenate([[v.soe_initial_kwh], stock[:-1]])
        balance = (prev + sch * v.eta_sch + fch * v.eta_fch - dch / v.eta_dch
                   - s.trips.energy_kwh[v_idx] / v.eta_run)
        # max(x, 0.0) and min(x, cap) as Python takes them, -0.0 included
        dch_pos = np.where(0.0 > dch, 0.0, dch)
        stock_pos = np.where(0.0 > stock, 0.0, stock)
        p1, p2 = plane_values(v, dch_pos, np.where(cap < stock_pos, cap, stock_pos))
        short = np.where(p2 > p1, p2, p1) - fs.c_deg[v_idx]
        checks += [
            ("SOE bounds", stock < v.soe_min_kwh - FEAS_TOL, v.soe_min_kwh - stock),
            ("SOE bounds", stock > v.soe_max_kwh + FEAS_TOL, stock - v.soe_max_kwh),
            ("balance", abs(stock - balance) > FEAS_TOL, abs(stock - balance)),
            ("degradation", short > FEAS_TOL, short),
        ]
        hit = np.array([violated for _, violated, _ in checks])
        magnitude = np.array([m for _, _, m in checks])
        for t, c in zip(*np.nonzero(hit.T)):  # by step, then check
            rep.violations.append(Violation(v.id, int(t), checks[c][0], float(magnitude[c, t])))
        for t in np.flatnonzero((sch > 1e-6) & (dch > 1e-6)).tolist():
            # rounded to 9 decimals first, so a value on a half prints the
            # same digits whichever way its last bit falls
            rep.flags.append(
                f"vehicle {v.id!r} step {t}: simultaneous charge {round(sch[t], 9):.4f} kWh "
                f"and discharge {round(dch[t], 9):.4f} kWh"
            )
        if stock[T - 1] < v.soe_initial_kwh - FEAS_TOL:
            shortfall = float(v.soe_initial_kwh - stock[T - 1])
            rep.violations.append(Violation(v.id, T - 1, "terminal SOE", shortfall))
    return rep


# ---------------------------------------------------------------------------
# Synthetic prices

_SIGMA_BASE = 0.008
_VOLATILITY_SCALE = {"low": 1.0, "medium": 3.0, "high": 6.0}
PRICE_MEAN = 0.05


def generate_price_set(
    volatility: str, seed: int = 0, step_count: int = 24, step_hours: float = 1.0
) -> PriceSeries:
    """Seeded day-ahead price series with a two-peak daily shape.

    The shape is laid out in hours, so a horizon of shorter steps sees the
    same peaks at the same hours of the day.

    The same seed produces the same normalized shape for every volatility
    level; the level only scales the standard deviation (1x/3x/6x of the
    base). The mean is exactly PRICE_MEAN by construction; a one-step series,
    which has no spread to scale, is flat at PRICE_MEAN. Each argument is
    checked before use; a bad one raises ValueError naming it.
    """
    try:
        scale = _VOLATILITY_SCALE[volatility]
    except KeyError:
        raise ValueError(f"volatility must be one of {sorted(_VOLATILITY_SCALE)}, got {volatility!r}") from None
    if not (isinstance(step_count, (int, np.integer)) and step_count >= 1):
        raise ValueError(f"step_count must be an integer >= 1, got {step_count}")
    if not (np.isfinite(step_hours) and step_hours > 0):
        raise ValueError(f"step_hours must be finite and > 0, got {step_hours}")
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    hour = np.arange(step_count, dtype=float) * step_hours
    shape = (
        0.9 * np.exp(-(((hour - 8.5) / 2.0) ** 2))
        + 1.1 * np.exp(-(((hour - 18.5) / 2.2) ** 2))
        - 0.8 * np.exp(-(((hour - 3.0) / 2.5) ** 2))
    )
    rng = np.random.default_rng(seed)
    z = shape + rng.normal(0.0, 0.35, step_count)
    z = z - z.mean()
    z = z / z.std() if z.any() else z
    values = PRICE_MEAN + _SIGMA_BASE * scale * z
    return PriceSeries(label=volatility, values=values)


# ---------------------------------------------------------------------------
# Reports

@dataclass
class AblationReport:
    """One variant of an ablation study, audited against the full model."""

    label: str
    total_cost_eur: float | None  # None, like the flows, when the variant did not solve to optimality
    breakdown: dict[str, float]
    charged_kwh: float | None
    discharged_kwh: float | None
    violations: ViolationReport
    status: str = "optimal"


@dataclass
class AblationStudy:
    kind: str  # "power" or "cost"
    price_label: str
    reports: list[AblationReport]


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

    def cell(self, price_label: str, model: str) -> ComparisonCell:
        for c in self.cells:
            if c.price_label == price_label and c.model == model:
                return c
        raise KeyError(f"no cell for ({price_label!r}, {model!r})")


# ---------------------------------------------------------------------------
# Experiment runners

def _run_share(fn, share: list) -> list[tuple[bool, object]]:
    """``(True, fn(c))`` per cell, up to and including the first ``(False, exception)``."""
    out: list[tuple[bool, object]] = []
    for c in share:
        try:
            out.append((True, fn(c)))
        except Exception as exc:  # delivered to the caller by _solve_cells
            out.append((False, exc))
            break
    return out


def _child(fn, share: list, w: int):
    """Solve ``share`` in a forked child, pickle its outcomes to ``w`` and exit.

    ``os._exit`` runs no atexit handler and flushes no stdio buffer copied
    from the parent. The exit code is 0 only when every byte was written.
    """
    code = 1
    try:
        gc.disable()  # a short-lived child; collection would only cost time
        data = pickle.dumps(_run_share(fn, share), pickle.HIGHEST_PROTOCOL)
        with open(w, "wb") as f:
            f.write(data)
        code = 0
    finally:
        os._exit(code)


def _solve_cells(fn, cells: list) -> list:
    """Return ``[fn(c) for c in cells]``, solving the cells on every CPU.

    With k = min(CPUs in the affinity set, len(cells)) it forks k - 1
    children for this call only, so each starts from this process's exact
    state. Share j is ``cells[j::k]``; this process solves share 0, and any
    share whose child could not be forked or delivered nothing (it died, or
    its outcomes would not pickle). Forking needs Linux and no other thread
    running; otherwise k is 1 and the loop runs here. The first exception in
    cell order is raised, as in the serial loop. Every child is reaped before
    this returns or raises; on an interrupt the children are killed first.
    """
    k = 1
    if sys.platform.startswith("linux") and len(cells) > 1 and threading.active_count() == 1:
        k = min(len(os.sched_getaffinity(0)), len(cells))
    shares = [cells[j::k] for j in range(k)]
    children: dict[int, tuple[int, object]] = {}  # share -> (pid, read end); unreaped only
    try:
        for j in range(1, k):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                break
            if pid == 0:
                _child(fn, shares[j], w)
            os.close(w)
            children[j] = (pid, open(r, "rb"))
        outcomes = {j: _run_share(fn, shares[j]) for j in range(k) if j not in children}
        while children:
            j = next(iter(children))
            pid, f = children[j]
            data = f.read()
            f.close()
            status = os.waitpid(pid, 0)[1]
            del children[j]
            delivered = None
            if os.waitstatus_to_exitcode(status) == 0:
                try:
                    delivered = pickle.loads(data)
                except Exception:  # an exception whose class will not rebuild from its args
                    pass
            outcomes[j] = delivered if delivered is not None else _run_share(fn, shares[j])
    finally:
        for pid, f in children.values():
            f.close()
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
    results = []
    for i in range(len(cells)):
        ok, value = outcomes[i % k][i // k]
        if not ok:
            raise value
        results.append(value)
    return results


def _breakdown_totals(fs: FleetSchedule) -> dict[str, float]:
    keys = ("energy_eur", "grid_fee_eur", "cp_fee_eur", "degradation_eur", "v2g_revenue_eur")
    out = {k: 0.0 for k in keys}
    for c in fs.per_vehicle:
        for k in keys:
            out[k] += getattr(c, k)
    return out


def compare_aggregators(s: Scenario, price_sets: list[PriceSeries]) -> ComparisonReport:
    """Fleet vs per-station optimizer across price series and policies.

    Every model prices all objective terms under the full power caps; the
    station model runs under HIGH_SOE and LOW_SOE. A cell with no feasible
    schedule (a non-optimal LP, an infeasible session or itinerary) is
    recorded with its status and message rather than raised, so a partially
    solvable grid still yields a report; any other exception propagates.
    Each station-model cell records its cost gap against the fleet model.
    Each model solves every series in one call, the work that _solve_cells
    deals out, so the series share its LP builds (see solve_evba_series and
    solve_evca_series).
    """
    models = ["evba", "evca_high", "evca_low"]
    policies = {"evca_high": HIGH_SOE, "evca_low": LOW_SOE}

    def solve(model: str) -> list[tuple[str, str, FleetSchedule | None]]:
        if model == "evba":
            fleets = solve_evba_series(s, price_sets)
        else:
            fleets = solve_evca_series(s, price_sets, policies[model])
        return [("infeasible", str(fs), None) if isinstance(fs, Exception) else (fs.status, fs.message, fs)
                for fs in fleets]

    by_model = _solve_cells(solve, models)
    cells: list[ComparisonCell] = []
    for i, ps in enumerate(price_sets):
        evba_cost: float | None = None
        for model, outcomes in zip(models, by_model):
            status, message, fs = outcomes[i]
            if status != "optimal":
                cells.append(ComparisonCell(ps.label, model, status, None, {}, None, None, {}, error=message))
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
    return ComparisonReport(
        price_labels=[ps.label for ps in price_sets],
        models=models,
        cells=cells,
        price_series={ps.label: [float(x) for x in ps.values] for ps in price_sets},
    )


def _ablation(
    kind: str,
    s: Scenario,
    prices: PriceSeries,
    variants: list[tuple[str, CostToggles, PowerMode]],
    orderings: list[tuple[str, str]],
) -> AblationStudy:
    """Solve the fleet model for each ``(label, toggles, power)`` variant and
    audit each optimal schedule against the full constraint set.

    Raises OrderingError when, for an ``(lo, hi)`` pair of labels that both
    solved, cost(lo) exceeds cost(hi).
    """
    sp = s.with_prices(prices)

    def solve(variant: tuple[str, CostToggles, PowerMode]) -> tuple[FleetSchedule, ViolationReport | None]:
        _, ct, power = variant
        fs = solve_evba(sp, ct, power)
        return fs, check_schedule(sp, fs) if fs.status == "optimal" else None

    reports: list[AblationReport] = []
    costs: dict[str, float] = {}
    for (label, _, _), (fs, audit) in zip(variants, _solve_cells(solve, variants)):
        if fs.status != "optimal":
            reports.append(
                AblationReport(label, None, {}, None, None, ViolationReport(), fs.status)
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
                violations=audit,
            )
        )
    for lo, hi in orderings:
        if lo in costs and hi in costs and costs[lo] > costs[hi] + 1e-6:
            raise OrderingError(
                f"expected cost({lo}) <= cost({hi}), got {costs[lo]:.9f} > {costs[hi]:.9f}"
            )
    return AblationStudy(kind=kind, price_label=prices.label, reports=reports)


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
    variants = [(mode.value, ct, mode) for mode in _POWER_ABLATION_ORDER]
    orderings = [("obc_only", "both"), ("cp_only", "both")]
    fixed_cap = FIXED_POWER_KW * s.horizon.step_hours
    if (fixed_cap <= s.plugs.limit[s.plugs.kind == SLOW]).all() and all(
        fixed_cap <= v.obc_max_kwh_per_step for v in s.vehicles
    ):
        orderings.append(("both", "fixed_4kw"))
    return _ablation("power", s, prices, variants, orderings)


def run_cost_ablation(
    s: Scenario, prices: PriceSeries, power: PowerMode = PowerMode.BOTH
) -> AblationStudy:
    """Solve the fleet model under objective variants of1..of5.

    Verifies the toggle-monotonicity orderings (adding nonnegative cost terms
    cannot lower the optimum). Discharge-volume ordering across variants is
    reported, not asserted; ties in the LP can break it without being wrong.
    """
    variants = [(label, ct, power) for label, ct in OBJECTIVE_VARIANTS.items()]
    orderings = [("of1", "of2"), ("of2", "of5"), ("of1", "of3"), ("of1", "of4"), ("of4", "of5")]
    return _ablation("cost", s, prices, variants, orderings)


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


def _schedule_csv(s: Scenario, fs: FleetSchedule) -> str:
    """Schedule as CSV: vehicle,step,e_sch,e_dch,e_fch,soe,c_deg."""
    lines = ["vehicle,step,e_sch_kwh,e_dch_kwh,e_fch_kwh,soe_kwh,c_deg_eur"]
    for v_idx, v in enumerate(s.vehicles):
        for t in range(s.horizon.step_count):
            lines.append(
                f"{v.id},{t},{fs.e_sch[v_idx, t]:.6f},{fs.e_dch[v_idx, t]:.6f},"
                f"{fs.e_fch[v_idx, t]:.6f},{fs.soe[v_idx, t]:.6f},{fs.c_deg[v_idx, t]:.6f}"
            )
    return "\n".join(lines) + "\n"


def _breakdown_json(fs: FleetSchedule) -> dict:
    """Cost breakdown as a JSON-ready dict, including the assumption header."""
    return {
        "assumptions": list(ASSUMPTIONS),
        "status": fs.status,
        "message": fs.message,
        "total_cost_eur": fs.total_cost_eur,
        "charged_kwh": fs.charged_kwh,
        "discharged_kwh": fs.discharged_kwh,
        "per_vehicle": [
            {
                "vehicle": c.vehicle,
                "energy_eur": c.energy_eur,
                "grid_fee_eur": c.grid_fee_eur,
                "cp_fee_eur": c.cp_fee_eur,
                "degradation_eur": c.degradation_eur,
                "v2g_revenue_eur": c.v2g_revenue_eur,
                "total_eur": c.total_eur,
            }
            for c in fs.per_vehicle
        ],
        "warnings": list(fs.warnings),
    }


def _sessions_csv(fs: FleetSchedule) -> str:
    """Per-session trace as CSV."""
    lines = ["vehicle,cp,arrive_step,depart_step,arrival_soe_kwh,depart_soe_kwh,floor_kwh,cost_eur,note"]
    for tr in fs.sessions:
        lines.append(
            f"{tr.vehicle},{tr.cp},{tr.arrive_step},{tr.depart_step},"
            f"{tr.arrival_soe_kwh:.6f},{tr.depart_soe_kwh:.6f},{tr.floor_kwh:.6f},"
            f"{tr.cost_eur:.6f},{tr.note}"
        )
    return "\n".join(lines) + "\n"


def _write(path: Path, text: str, written: list[Path]) -> None:
    """Write ``text`` (UTF-8) to ``path`` in place: every byte over the old
    ones, then the file cut to the new length. A file truncated to zero
    and then closed makes ext4 (``auto_da_alloc``) force its writeback at
    close, tens of milliseconds per file; one never truncated to zero does
    not. A symlink is followed, as by any open."""
    data = text.encode()
    rest = memoryview(data)
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            while rest:
                rest = rest[os.write(fd, rest):]
            os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
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
            "assumptions": list(ASSUMPTIONS),
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
            "assumptions": list(ASSUMPTIONS),
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
                    "violation_count": len(r.violations.violations) if r.status == "optimal" else None,
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
            if r.status != "optimal":  # no schedule: no breakdown, flows or audit
                lines.append(f"{r.label},{r.status}" + "," * 9)
                continue
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
        if scenario is None:
            raise ValueError("write_report(FleetSchedule, ...) requires scenario=")
        _write(out / "schedule.csv", _schedule_csv(scenario, report), written)
        _write(out / "breakdown.json", _json_bytes(_breakdown_json(report)), written)
        if report.sessions is not None:
            _write(out / "sessions.csv", _sessions_csv(report), written)
        return written

    raise TypeError(f"unsupported report type {type(report).__name__}")
