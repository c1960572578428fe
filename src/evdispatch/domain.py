"""Scenario data model and input handling for EV charge scheduling.

Unit conventions used throughout the package:
- energies in kWh, prices and fees in EUR/kWh, battery capital cost in EUR;
- charger and on-board-charger ratings appear in scenario files as kW and are
  converted to energy-per-step (kWh) at load time using the horizon step length;
- state-of-energy (SOE) is stored in kWh, SOE limits in the vehicle record are
  fractions of capacity.

All types are immutable after construction and safe to share between
concurrent solver runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

import numpy as np

SLOW = "slow"
FAST = "fast"

# Defaults applied when a scenario file omits the corresponding field.
DEFAULT_SOE_MIN_FRAC = 0.2
DEFAULT_SOE_MAX_FRAC = 1.0
DEFAULT_SOE_CV_FRAC = 0.8
DEFAULT_SOE_INITIAL_FRAC = 0.6
DEFAULT_ETA_SCH = 0.95
DEFAULT_ETA_DCH = 0.85
DEFAULT_ETA_RUN = 0.90
DEFAULT_ETA_FCH = 0.80
DEFAULT_OBC_MAX_KW = 10.0
DEFAULT_BATTERY_COST_EUR_PER_KWH = 150.0


class ScenarioError(ValueError):
    """Raised for scenario or price inputs that cannot be loaded."""


@dataclass(frozen=True)
class Horizon:
    """Scheduling horizon: a fixed number of equally long time steps."""

    step_count: int = 24
    step_hours: float = 1.0


@dataclass(frozen=True)
class DegradationParams:
    """Coefficients of the two-plane linearized battery-wear cost.

    d1..d3 define the plane active at deep discharge, d4 the plane active at
    shallow discharge. Dimensionless; they multiply percentages of capacity.
    """

    d1: float = -0.3429
    d2: float = 0.03403
    d3: float = 0.004287
    d4: float = 0.008317


@dataclass(frozen=True)
class Vehicle:
    id: str
    capacity_kwh: float
    obc_max_kwh_per_step: float
    battery_cost_eur: float
    soe_min_frac: float = DEFAULT_SOE_MIN_FRAC
    soe_max_frac: float = DEFAULT_SOE_MAX_FRAC
    soe_cv_frac: float = DEFAULT_SOE_CV_FRAC      # CC->CV charging breakpoint
    soe_initial_frac: float = DEFAULT_SOE_INITIAL_FRAC
    eta_sch: float = DEFAULT_ETA_SCH              # slow (AC) charging efficiency
    eta_dch: float = DEFAULT_ETA_DCH              # grid discharge efficiency
    eta_run: float = DEFAULT_ETA_RUN              # driving discharge efficiency
    eta_fch: float = DEFAULT_ETA_FCH              # fast (DC) charging efficiency
    degradation: DegradationParams = field(default_factory=DegradationParams)

    @property
    def soe_min_kwh(self) -> float:
        return self.soe_min_frac * self.capacity_kwh

    @property
    def soe_max_kwh(self) -> float:
        return self.soe_max_frac * self.capacity_kwh

    @property
    def soe_initial_kwh(self) -> float:
        return self.soe_initial_frac * self.capacity_kwh


@dataclass(frozen=True)
class ChargingPoint:
    id: str
    kind: str                          # "slow" (AC, through the OBC) or "fast" (DC)
    power_limit_kwh_per_step: float
    grid_fee_low_eur_per_kwh: float
    grid_fee_high_eur_per_kwh: float
    cp_fee_eur_per_kwh: float


@dataclass(frozen=True)
class TariffCalendar:
    """Two-band grid tariff: a nightly low band, high band otherwise."""

    night_start_hour: int = 22
    night_end_hour: int = 6

    def is_low_band(self, t: int, step_hours: float = 1.0) -> bool:
        """True when step ``t`` starts inside the night band."""
        hour = (t * step_hours) % 24.0
        start, end = self.night_start_hour, self.night_end_hour
        if start == end:
            return False
        if start < end:
            return start <= hour < end
        return hour >= start or hour < end

    def band(self, t: int, step_hours: float = 1.0) -> str:
        return "low" if self.is_low_band(t, step_hours) else "high"


class ConnectivityMatrix:
    """Dense boolean tensor over (vehicle, step, charging point).

    mask[v, t, cp] is True when vehicle v is plugged into charging point cp
    during step t. At most one cp may be True per (v, t), and a vehicle that
    draws trip energy at step t must be disconnected at t.
    """

    def __init__(self, mask: np.ndarray):
        mask = np.array(mask, dtype=bool)  # own copy; frozen below
        if mask.ndim != 3:
            raise ScenarioError("connectivity mask must have shape (vehicles, steps, charging points)")
        mask.flags.writeable = False
        self.mask = mask

    def cp_index_at(self, v: int, t: int) -> int | None:
        hits = np.flatnonzero(self.mask[v, t])
        return int(hits[0]) if hits.size else None

    def __eq__(self, other) -> bool:
        return isinstance(other, ConnectivityMatrix) and np.array_equal(self.mask, other.mask)

    def __repr__(self) -> str:
        return f"ConnectivityMatrix(shape={self.mask.shape}, connected_steps={int(self.mask.sum())})"


class TripPlan:
    """Per (vehicle, step) mobility energy draw in kWh, battery side.

    The energy balance divides these entries by the driving efficiency.
    """

    def __init__(self, energy_kwh: np.ndarray):
        arr = np.array(energy_kwh, dtype=float)
        if arr.ndim != 2:
            raise ScenarioError("trip plan must have shape (vehicles, steps)")
        arr.flags.writeable = False
        self.energy_kwh = arr

    def __eq__(self, other) -> bool:
        return isinstance(other, TripPlan) and np.array_equal(self.energy_kwh, other.energy_kwh)

    def __repr__(self) -> str:
        return f"TripPlan(shape={self.energy_kwh.shape}, total_kwh={self.energy_kwh.sum():.3f})"


class PriceSeries:
    """Energy prices per step, EUR/kWh. Prices may be negative, not non-finite."""

    def __init__(self, label: str, values: np.ndarray):
        arr = np.array(values, dtype=float).reshape(-1)
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise ScenarioError(
                f"price series {label!r}: non-finite price {arr[bad[0]]} at step {bad[0]}"
            )
        arr.flags.writeable = False
        self.label = label
        self.values = arr

    def __len__(self) -> int:
        return self.values.size

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PriceSeries)
            and self.label == other.label
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:
        return f"PriceSeries({self.label!r}, n={len(self)})"


@dataclass(frozen=True)
class Scenario:
    """One complete problem instance shared by both scheduler models."""

    horizon: Horizon
    vehicles: tuple[Vehicle, ...]
    charging_points: tuple[ChargingPoint, ...]
    connectivity: ConnectivityMatrix
    trips: TripPlan
    tariff_calendar: TariffCalendar = field(default_factory=TariffCalendar)
    prices: PriceSeries | None = None

    def vehicle_index(self, vid: str) -> int:
        for i, v in enumerate(self.vehicles):
            if v.id == vid:
                return i
        raise KeyError(f"unknown vehicle id {vid!r}")

    def cp_index(self, cpid: str) -> int:
        for i, cp in enumerate(self.charging_points):
            if cp.id == cpid:
                return i
        raise KeyError(f"unknown charging point id {cpid!r}")

    def cp_at(self, v: int, t: int) -> ChargingPoint | None:
        """The charging point vehicle v is plugged into at step t, if any."""
        idx = self.connectivity.cp_index_at(v, t)
        return None if idx is None else self.charging_points[idx]

    def with_prices(self, prices: PriceSeries) -> "Scenario":
        """Attach a price series, checking its length against the horizon."""
        if len(prices) != self.horizon.step_count:
            raise ScenarioError(
                f"price series {prices.label!r} has {len(prices)} steps, "
                f"horizon needs {self.horizon.step_count}"
            )
        return replace(self, prices=prices)


def grid_fee(cp: ChargingPoint, t: int, cal: TariffCalendar, step_hours: float = 1.0) -> float:
    """Grid tariff (EUR/kWh) at charging point ``cp`` during step ``t``."""
    return cp.grid_fee_low_eur_per_kwh if cal.is_low_band(t, step_hours) else cp.grid_fee_high_eur_per_kwh


# ---------------------------------------------------------------------------
# Validation

def validate_scenario(s: Scenario) -> list[str]:
    """Check every structural invariant; return one diagnostic per violation.

    Returns an empty list for valid scenarios. Diagnostics name the violated
    invariant and its location; nothing is raised.
    """
    out: list[str] = []
    h = s.horizon
    if h.step_count < 1:
        out.append(f"horizon: step_count must be >= 1, got {h.step_count}")
    if not h.step_hours > 0:
        out.append(f"horizon: step_hours must be > 0, got {h.step_hours}")

    seen_vids: set[str] = set()
    for v in s.vehicles:
        loc = f"vehicle {v.id!r}"
        if v.id in seen_vids:
            out.append(f"{loc}: duplicate id")
        seen_vids.add(v.id)
        if not v.capacity_kwh > 0:
            out.append(f"{loc}: capacity_kwh must be > 0")
        if v.obc_max_kwh_per_step < 0:
            out.append(f"{loc}: obc_max must be >= 0")
        if v.battery_cost_eur < 0:
            out.append(f"{loc}: battery_cost_eur must be >= 0")
        if not (0 <= v.soe_min_frac <= v.soe_initial_frac <= v.soe_max_frac <= 1):
            out.append(
                f"{loc}: SOE ordering violated, need 0 <= min <= initial <= max <= 1 "
                f"(min={v.soe_min_frac}, initial={v.soe_initial_frac}, max={v.soe_max_frac})"
            )
        if not (v.soe_min_frac < v.soe_cv_frac <= 1):
            out.append(f"{loc}: SOE ordering violated, need min < cv <= 1 (cv={v.soe_cv_frac})")
        for name, eta in (("eta_sch", v.eta_sch), ("eta_dch", v.eta_dch),
                          ("eta_run", v.eta_run), ("eta_fch", v.eta_fch)):
            if not (0 < eta <= 1):
                out.append(f"{loc}: {name} must be in (0, 1], got {eta}")

    seen_cpids: set[str] = set()
    for cp in s.charging_points:
        loc = f"charging point {cp.id!r}"
        if cp.id in seen_cpids:
            out.append(f"{loc}: duplicate id")
        seen_cpids.add(cp.id)
        if cp.kind not in (SLOW, FAST):
            out.append(f"{loc}: kind must be 'slow' or 'fast', got {cp.kind!r}")
        if cp.power_limit_kwh_per_step < 0:
            out.append(f"{loc}: power limit must be >= 0")
        for name, fee in (("grid_fee_low", cp.grid_fee_low_eur_per_kwh),
                          ("grid_fee_high", cp.grid_fee_high_eur_per_kwh),
                          ("cp_fee", cp.cp_fee_eur_per_kwh)):
            if fee < 0:
                out.append(f"{loc}: {name} must be >= 0")

    cal = s.tariff_calendar
    for name, hour in (("night_start_hour", cal.night_start_hour), ("night_end_hour", cal.night_end_hour)):
        if not (0 <= hour < 24):
            out.append(f"tariff calendar: {name} must be in [0, 24), got {hour}")

    V, T, C = len(s.vehicles), h.step_count, len(s.charging_points)
    if s.connectivity.mask.shape != (V, T, C):
        out.append(
            f"connectivity: mask shape {s.connectivity.mask.shape} "
            f"does not match (vehicles={V}, steps={T}, charging points={C})"
        )
        return out  # remaining checks index into the mask
    if s.trips.energy_kwh.shape != (V, T):
        out.append(
            f"trips: shape {s.trips.energy_kwh.shape} does not match (vehicles={V}, steps={T})"
        )
        return out

    per_step = s.connectivity.mask.sum(axis=2)
    for v, t in zip(*np.nonzero(per_step > 1)):
        out.append(
            f"vehicle {s.vehicles[v].id!r} step {t}: multiple connections "
            f"({int(per_step[v, t])} charging points at once)"
        )
    if np.any(s.trips.energy_kwh < 0):
        v, t = [int(a[0]) for a in np.nonzero(s.trips.energy_kwh < 0)]
        out.append(f"vehicle {s.vehicles[v].id!r} step {t}: negative trip energy")
    driving_connected = (s.trips.energy_kwh > 0) & (per_step > 0)
    for v, t in zip(*np.nonzero(driving_connected)):
        out.append(
            f"vehicle {s.vehicles[v].id!r} step {t}: connected during trip "
            f"(trip energy {s.trips.energy_kwh[v, t]:.3f} kWh while plugged in)"
        )

    if s.prices is not None and len(s.prices) != T:
        out.append(f"prices: series has {len(s.prices)} steps, horizon needs {T}")
    return out


# ---------------------------------------------------------------------------
# Parsing

_REQUIRED = object()


class _Obj:
    """Strict JSON object reader: typed access, unknown keys rejected."""

    def __init__(self, data, ctx: str):
        if not isinstance(data, dict):
            raise ScenarioError(f"{ctx}: expected a JSON object, got {type(data).__name__}")
        self._d = dict(data)
        self._ctx = ctx

    _ABSENT = object()

    def _take(self, key, default):
        if key in self._d:
            return self._d.pop(key)
        if default is _REQUIRED:
            raise ScenarioError(f"{self._ctx}: missing required field {key!r}")
        return self._ABSENT

    def number(self, key, default=_REQUIRED) -> float:
        val = self._take(key, default)
        if val is self._ABSENT:
            return default
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ScenarioError(f"{self._ctx}.{key}: expected a number, got {val!r}")
        return float(val)

    def integer(self, key, default=_REQUIRED) -> int:
        val = self._take(key, default)
        if val is self._ABSENT:
            return default
        if isinstance(val, bool) or not isinstance(val, int):
            raise ScenarioError(f"{self._ctx}.{key}: expected an integer, got {val!r}")
        return val

    def string(self, key, default=_REQUIRED) -> str:
        val = self._take(key, default)
        if val is self._ABSENT:
            return default
        if not isinstance(val, str):
            raise ScenarioError(f"{self._ctx}.{key}: expected a string, got {val!r}")
        return val

    def child(self, key, default=_REQUIRED):
        val = self._take(key, default)
        return default if val is self._ABSENT else val

    def finish(self):
        if self._d:
            raise ScenarioError(f"{self._ctx}: unknown key(s): {sorted(self._d)}")


def _parse_vehicle(data, ctx: str, step_hours: float) -> Vehicle:
    o = _Obj(data, ctx)
    vid = o.string("id")
    cap = o.number("capacity_kwh")
    obc_kw = o.number("obc_max_kw", DEFAULT_OBC_MAX_KW)
    cost = o.number("battery_cost_eur", None)
    if cost is None:
        cost = DEFAULT_BATTERY_COST_EUR_PER_KWH * cap
    deg_raw = o.child("degradation", None)
    if deg_raw is None:
        deg = DegradationParams()
    else:
        do = _Obj(deg_raw, f"{ctx}.degradation")
        deg = DegradationParams(do.number("d1"), do.number("d2"), do.number("d3"), do.number("d4"))
        do.finish()
    v = Vehicle(
        id=vid,
        capacity_kwh=cap,
        obc_max_kwh_per_step=obc_kw * step_hours,
        battery_cost_eur=cost,
        soe_min_frac=o.number("soe_min_frac", DEFAULT_SOE_MIN_FRAC),
        soe_max_frac=o.number("soe_max_frac", DEFAULT_SOE_MAX_FRAC),
        soe_cv_frac=o.number("soe_cv_frac", DEFAULT_SOE_CV_FRAC),
        soe_initial_frac=o.number("soe_initial_frac", DEFAULT_SOE_INITIAL_FRAC),
        eta_sch=o.number("eta_sch", DEFAULT_ETA_SCH),
        eta_dch=o.number("eta_dch", DEFAULT_ETA_DCH),
        eta_run=o.number("eta_run", DEFAULT_ETA_RUN),
        eta_fch=o.number("eta_fch", DEFAULT_ETA_FCH),
        degradation=deg,
    )
    o.finish()
    return v


def _parse_cp(data, ctx: str, step_hours: float) -> ChargingPoint:
    o = _Obj(data, ctx)
    cp = ChargingPoint(
        id=o.string("id"),
        kind=o.string("kind"),
        power_limit_kwh_per_step=o.number("power_kw") * step_hours,
        grid_fee_low_eur_per_kwh=o.number("grid_fee_low_eur_per_kwh"),
        grid_fee_high_eur_per_kwh=o.number("grid_fee_high_eur_per_kwh"),
        cp_fee_eur_per_kwh=o.number("cp_fee_eur_per_kwh"),
    )
    o.finish()
    return cp


def parse_scenario(data: dict, *, check: bool = True) -> Scenario:
    """Build a Scenario from already-decoded JSON data.

    With ``check=True`` (the default) every invariant must hold, otherwise a
    ScenarioError listing the diagnostics is raised. ``check=False`` returns
    the structurally parseable scenario so callers can run validate_scenario
    themselves.
    """
    top = _Obj(data, "scenario")

    ho = _Obj(top.child("horizon"), "horizon")
    horizon = Horizon(step_count=ho.integer("step_count"), step_hours=ho.number("step_hours", 1.0))
    ho.finish()
    if horizon.step_count < 1 or not horizon.step_hours > 0:
        raise ScenarioError(f"horizon: invalid step_count/step_hours {horizon}")

    vraw = top.child("vehicles")
    if not isinstance(vraw, list):
        raise ScenarioError("scenario.vehicles: expected a list")
    vehicles = tuple(
        _parse_vehicle(item, f"vehicles[{i}]", horizon.step_hours) for i, item in enumerate(vraw)
    )

    craw = top.child("charging_points")
    if not isinstance(craw, list):
        raise ScenarioError("scenario.charging_points: expected a list")
    cps = tuple(_parse_cp(item, f"charging_points[{i}]", horizon.step_hours) for i, item in enumerate(craw))

    vid_index = {v.id: i for i, v in enumerate(vehicles)}
    cpid_index = {cp.id: i for i, cp in enumerate(cps)}
    V, T, C = len(vehicles), horizon.step_count, len(cps)

    mask = np.zeros((V, T, C), dtype=bool)
    conn_raw = top.child("connectivity", [])
    if not isinstance(conn_raw, list):
        raise ScenarioError("scenario.connectivity: expected a list")
    for i, item in enumerate(conn_raw):
        o = _Obj(item, f"connectivity[{i}]")
        vid, cpid = o.string("vehicle"), o.string("cp")
        lo, hi = o.integer("from_step"), o.integer("to_step")
        o.finish()
        if vid not in vid_index:
            raise ScenarioError(f"connectivity[{i}]: unknown vehicle id {vid!r}")
        if cpid not in cpid_index:
            raise ScenarioError(f"connectivity[{i}]: unknown charging point id {cpid!r}")
        if not (0 <= lo <= hi < T):
            raise ScenarioError(
                f"connectivity[{i}]: step range [{lo}, {hi}] outside horizon 0..{T - 1}"
            )
        mask[vid_index[vid], lo : hi + 1, cpid_index[cpid]] = True

    trips = np.zeros((V, T), dtype=float)
    trips_raw = top.child("trips", [])
    if not isinstance(trips_raw, list):
        raise ScenarioError("scenario.trips: expected a list")
    for i, item in enumerate(trips_raw):
        o = _Obj(item, f"trips[{i}]")
        vid = o.string("vehicle")
        step = o.integer("step")
        energy = o.number("energy_kwh")
        o.finish()
        if vid not in vid_index:
            raise ScenarioError(f"trips[{i}]: unknown vehicle id {vid!r}")
        if not (0 <= step < T):
            raise ScenarioError(f"trips[{i}]: step {step} outside horizon 0..{T - 1}")
        if trips[vid_index[vid], step] != 0.0:
            raise ScenarioError(f"trips[{i}]: duplicate trip for vehicle {vid!r} at step {step}")
        trips[vid_index[vid], step] = energy

    cal_raw = top.child("tariff_calendar", None)
    if cal_raw is None:
        cal = TariffCalendar()
    else:
        co = _Obj(cal_raw, "tariff_calendar")
        cal = TariffCalendar(
            night_start_hour=co.integer("night_start_hour", 22),
            night_end_hour=co.integer("night_end_hour", 6),
        )
        co.finish()

    top.finish()
    scenario = Scenario(
        horizon=horizon,
        vehicles=vehicles,
        charging_points=cps,
        connectivity=ConnectivityMatrix(mask),
        trips=TripPlan(trips),
        tariff_calendar=cal,
    )
    if check:
        diags = validate_scenario(scenario)
        if diags:
            raise ScenarioError("invalid scenario:\n  " + "\n  ".join(diags))
    return scenario


def load_scenario(path: str | Path, *, check: bool = True) -> Scenario:
    """Load a scenario JSON file. See parse_scenario for validation behavior."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return parse_scenario(data, check=check)


def scenario_to_dict(s: Scenario) -> dict:
    """Inverse of parse_scenario: a JSON-ready dict that parses back equal."""
    h = s.horizon
    vehicles = []
    for v in s.vehicles:
        vehicles.append(
            {
                "id": v.id,
                "capacity_kwh": v.capacity_kwh,
                "obc_max_kw": v.obc_max_kwh_per_step / h.step_hours,
                "battery_cost_eur": v.battery_cost_eur,
                "soe_min_frac": v.soe_min_frac,
                "soe_max_frac": v.soe_max_frac,
                "soe_cv_frac": v.soe_cv_frac,
                "soe_initial_frac": v.soe_initial_frac,
                "eta_sch": v.eta_sch,
                "eta_dch": v.eta_dch,
                "eta_run": v.eta_run,
                "eta_fch": v.eta_fch,
                "degradation": {
                    "d1": v.degradation.d1,
                    "d2": v.degradation.d2,
                    "d3": v.degradation.d3,
                    "d4": v.degradation.d4,
                },
            }
        )
    cps = []
    for cp in s.charging_points:
        cps.append(
            {
                "id": cp.id,
                "kind": cp.kind,
                "power_kw": cp.power_limit_kwh_per_step / h.step_hours,
                "grid_fee_low_eur_per_kwh": cp.grid_fee_low_eur_per_kwh,
                "grid_fee_high_eur_per_kwh": cp.grid_fee_high_eur_per_kwh,
                "cp_fee_eur_per_kwh": cp.cp_fee_eur_per_kwh,
            }
        )
    connectivity = []
    for v_idx, v in enumerate(s.vehicles):
        for cp_idx, cp in enumerate(s.charging_points):
            col = s.connectivity.mask[v_idx, :, cp_idx]
            t = 0
            while t < h.step_count:
                if col[t]:
                    start = t
                    while t + 1 < h.step_count and col[t + 1]:
                        t += 1
                    connectivity.append(
                        {"vehicle": v.id, "cp": cp.id, "from_step": start, "to_step": t}
                    )
                t += 1
    trips = []
    for v_idx, v in enumerate(s.vehicles):
        for t in range(h.step_count):
            e = s.trips.energy_kwh[v_idx, t]
            if e != 0.0:
                trips.append({"vehicle": v.id, "step": t, "energy_kwh": e})
    return {
        "horizon": {"step_count": h.step_count, "step_hours": h.step_hours},
        "vehicles": vehicles,
        "charging_points": cps,
        "connectivity": connectivity,
        "trips": trips,
        "tariff_calendar": {
            "night_start_hour": s.tariff_calendar.night_start_hour,
            "night_end_hour": s.tariff_calendar.night_end_hour,
        },
    }


def dump_scenario(s: Scenario, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(s), indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Price files

def load_price_series(path: str | Path, step_count: int | None = None) -> PriceSeries:
    """Load a headerless price CSV: one ``step_index,price_eur_per_kwh`` row per step.

    Step indices must run 0..n-1 in order. When ``step_count`` is given the
    row count is checked against it; Scenario.with_prices re-checks at attach
    time either way.
    """
    path = Path(path)
    values: list[float] = []
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise ScenarioError(f"cannot read price file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ScenarioError(f"{path}:{lineno}: expected 'step_index,price_eur_per_kwh'")
        try:
            idx = int(parts[0])
            price = float(parts[1])
        except ValueError as exc:
            raise ScenarioError(f"{path}:{lineno}: non-numeric entry: {line!r}") from exc
        if not np.isfinite(price):
            raise ScenarioError(f"{path}:{lineno}: non-finite price: {line!r}")
        if idx != len(values):
            raise ScenarioError(f"{path}:{lineno}: step index {idx} out of order (expected {len(values)})")
        values.append(price)
    if step_count is not None and len(values) != step_count:
        raise ScenarioError(f"{path}: has {len(values)} rows, horizon needs {step_count}")
    return PriceSeries(label=path.stem, values=np.array(values))


def save_price_series(ps: PriceSeries, path: str | Path) -> None:
    lines = [f"{t},{float(price)!r}" for t, price in enumerate(ps.values)]
    Path(path).write_text("\n".join(lines) + "\n")


def example_scenario_path() -> Path:
    """Path of the bundled three-vehicle example scenario."""
    return Path(str(resources.files("evdispatch.data").joinpath("example_3ev.json")))
