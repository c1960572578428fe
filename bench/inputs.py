"""Seeded benchmark inputs, written as files the package's public loaders read.

Everything here starts from the bundled example scenario and depends only on
the seed, so the same seed gives byte-identical input files. The price shape
is laid out in hours, not in steps, so a 15-minute horizon sees the same
daily shape as an hourly one.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
EXAMPLE = ROOT / "src" / "evdispatch" / "data" / "example_3ev.json"

PRICE_MEAN = 0.05  # EUR/kWh
SIGMA_BASE = 0.008
VOLATILITY = {"high": 6.0, "medium": 3.0, "low": 1.0}

STATION_REPLICAS = 24
LONG_VEHICLE = "ev1"
LONG_REFINE = 4  # hourly steps split into 15-minute steps


def price_values(seed: int, volatility: str, step_count: int, step_hours: float) -> np.ndarray:
    """Two-peak day-ahead shape plus seeded noise, normalised to a fixed mean.

    The noise draw depends on the seed only, so the three volatility levels
    of one seed share their shape and differ in spread alone.
    """
    hour = np.arange(step_count) * step_hours
    shape = (
        0.9 * np.exp(-(((hour - 8.5) / 2.0) ** 2))
        + 1.1 * np.exp(-(((hour - 18.5) / 2.2) ** 2))
        - 0.8 * np.exp(-(((hour - 3.0) / 2.5) ** 2))
    )
    z = shape + np.random.default_rng(seed).normal(0.0, 0.35, step_count)
    z = (z - z.mean()) / z.std()
    return PRICE_MEAN + SIGMA_BASE * VOLATILITY[volatility] * z


def replicate(data: dict, copies: int) -> dict:
    """The fleet repeated ``copies`` times; vehicle ids get an ``_rNN`` suffix.

    Charging points are shared: every cap in the model is per vehicle, so
    the copies never share an LP row.
    """
    out = copy.deepcopy(data)
    out["vehicles"], out["connectivity"], out["trips"] = [], [], []
    for r in range(copies):
        suffix = f"_r{r:02d}"
        for v in data["vehicles"]:
            out["vehicles"].append({**v, "id": v["id"] + suffix})
        for key in ("connectivity", "trips"):
            for item in data[key]:
                out[key].append({**item, "vehicle": item["vehicle"] + suffix})
    return out


def refine(data: dict, vehicle: str, factor: int) -> dict:
    """One vehicle of the scenario with every step split into ``factor`` steps.

    Plug-in windows keep their hours; a trip's energy is spread evenly over
    the sub-steps of its hour. Ratings stay in kW, so the loader rescales
    them to the shorter step.
    """
    out = copy.deepcopy(data)
    h = data["horizon"]
    out["horizon"] = {"step_count": h["step_count"] * factor, "step_hours": h["step_hours"] / factor}
    out["vehicles"] = [v for v in data["vehicles"] if v["id"] == vehicle]
    out["connectivity"] = [
        {**c, "from_step": c["from_step"] * factor, "to_step": c["to_step"] * factor + factor - 1}
        for c in data["connectivity"]
        if c["vehicle"] == vehicle
    ]
    out["trips"] = [
        {**tr, "step": tr["step"] * factor + k, "energy_kwh": tr["energy_kwh"] / factor}
        for tr in data["trips"]
        if tr["vehicle"] == vehicle
        for k in range(factor)
    ]
    return out


def scenario_data(workload: str) -> dict:
    data = json.loads(EXAMPLE.read_text())
    if workload == "station-fleet":
        return replicate(data, STATION_REPLICAS)
    if workload == "long-horizon":
        return refine(data, LONG_VEHICLE, LONG_REFINE)
    return data


def write_inputs(workload: str, seed: int, out_dir: Path) -> tuple[Path, dict[str, Path]]:
    """Write the workload's scenario and price files; return their paths.

    Prices are keyed by volatility level; the file stem is the label the
    package reports them under.
    """
    data = scenario_data(workload)
    scenario = out_dir / "scenario.json"
    scenario.write_text(json.dumps(data, indent=1) + "\n")
    h = data["horizon"]
    prices = {}
    for level in VOLATILITY:
        values = price_values(seed, level, h["step_count"], h["step_hours"])
        path = out_dir / f"{level}.csv"
        path.write_text("".join(f"{t},{float(x)!r}\n" for t, x in enumerate(values)))
        prices[level] = path
    return scenario, prices
