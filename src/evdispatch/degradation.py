"""Linearized battery-wear cost: two affine planes over discharge and SOE.

The per-step wear cost is the upper envelope of two planes scaled by the
battery capital cost:

    plane1 = C_bat * (d1 + d2 * dch_pct + d3 * dod_pct)
    plane2 = C_bat * (d4 * dch_pct)

where dch_pct is the step's grid discharge as a percentage of capacity and
dod_pct is the depth of discharge ((capacity - soe) / capacity * 100). plane1
drives the cost at deep discharge; plane2 takes over near full charge, where
plane1 drops to zero or below. In the LP the cost appears as an epigraph
variable bounded below by both planes, so a positive objective weight makes
it equal the envelope at the optimum.

Pure functions throughout; freely concurrent.
"""

from __future__ import annotations

import numpy as np

from .domain import Vehicle


def plane_values(v: Vehicle, e_dch_kwh: float, soe_kwh: float) -> tuple[float, float]:
    """Evaluate both wear planes (EUR) for one vehicle-step, or elementwise
    for equal-length arrays of steps."""
    cap = v.capacity_kwh
    if np.any(e_dch_kwh < -1e-12):
        raise ValueError(f"vehicle {v.id!r}: discharge must be >= 0, got {e_dch_kwh}")
    if not np.all((-1e-9 <= soe_kwh) & (soe_kwh <= cap + 1e-9)):
        raise ValueError(
            f"vehicle {v.id!r}: state of energy {soe_kwh} kWh outside [0, {cap}]"
        )
    d = v.degradation
    dch_pct = e_dch_kwh / cap * 100.0
    dod_pct = (cap - soe_kwh) / cap * 100.0
    plane1 = v.battery_cost_eur * (d.d1 + d.d2 * dch_pct + d.d3 * dod_pct)
    plane2 = v.battery_cost_eur * (d.d4 * dch_pct)
    return plane1, plane2


def degradation_cost(v: Vehicle, e_dch_kwh: float, soe_kwh: float) -> float:
    """Wear cost (EUR) for one step: the larger of the two planes.

    Nonnegative whenever the discharge is nonnegative and d4 >= 0, because
    plane2 passes through zero at zero discharge. Elementwise for arrays.
    """
    p1, p2 = plane_values(v, e_dch_kwh, soe_kwh)
    # same pick as max(p1, p2); [()] unwraps the 0-d result of scalar inputs
    return np.where(p2 > p1, p2, p1)[()]


def degradation_rows(
    v: Vehicle, c_deg, e_dch, soe, t
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[str]]:
    """The two epigraph rows ``c_deg >= plane`` of each vehicle-step, as a
    block for ``LpProblem.add_constraints``: ``(row, var, coef, senses,
    rhs, names)``, with plane1 in row 2i and plane2 in row 2i + 1 for the
    i-th step. The variable ids and steps are scalars or arrays of one length.
    """
    c_deg, e_dch, soe, t = (np.atleast_1d(a) for a in (c_deg, e_dch, soe, t))
    k = len(t)
    d = v.degradation
    scale = v.battery_cost_eur * 100.0 / v.capacity_kwh
    plane1 = 2 * np.arange(k)
    # plane1: c_deg - d2' * e_dch + d3' * soe >= C_bat * (d1 + 100 * d3)
    # plane2: c_deg - d4' * e_dch >= 0
    row = np.concatenate([plane1, plane1, plane1, plane1 + 1, plane1 + 1])
    var = np.concatenate([c_deg, e_dch, soe, c_deg, e_dch])
    coef = np.repeat([1.0, -d.d2 * scale, d.d3 * scale, 1.0, -d.d4 * scale], k)
    rhs = np.zeros(2 * k)
    rhs[0::2] = v.battery_cost_eur * (d.d1 + d.d3 * 100.0)
    heads = (f"deg1[{v.id},", f"deg2[{v.id},")  # joined, not formatted whole: much cheaper
    names = [head + tail for tail in [f"{step}]" for step in t.tolist()] for head in heads]
    return row, var, coef, np.full(2 * k, ">="), rhs, names
