"""Linearized battery-wear cost: two affine planes over discharge and SOE.

The per-step wear cost is the upper envelope of two planes scaled by the
battery capital cost:

    plane1 = C_bat * (d1 + d2 * dch_pct + d3 * dod_pct)
    plane2 = C_bat * (d4 * dch_pct)

where dch_pct is the step's grid discharge as a percentage of capacity and
dod_pct is the depth of discharge ((capacity - soe) / capacity * 100). plane1
drives the cost at deep discharge; plane2 takes over near full charge, where
plane1 drops to zero or below.

plane2 passes through zero at zero discharge, so the LP prices it as a
linear discharge cost ``s * dch`` with ``s = max(d4', 0)``, where d4' is d4
scaled to EUR per kWh; the clamp keeps a negative d4 exact, as plane2 then
never rises above the zero floor of the wear cost. What plane1 adds on top
is an excess variable ``u >= 0`` with objective weight 1, bounded by one row
per step, ``u >= plane1 - s * dch``, so at the optimum ``s * dch + u``
equals ``max(plane1, plane2, 0)``.

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


def _scale(v: Vehicle) -> float:
    """EUR per percent of capacity, per kWh: the factor from d2..d4 to the
    LP's per-kWh coefficients."""
    return v.battery_cost_eur * 100.0 / v.capacity_kwh


def discharge_wear_slope(v: Vehicle) -> float:
    """``s = max(d4', 0)``: plane2 as a cost per kWh discharged (EUR/kWh),
    which the LP adds to the discharge variable's objective coefficient."""
    return max(v.degradation.d4 * _scale(v), 0.0)


def degradation_rows(
    v: Vehicle, excess, e_dch, soe, t
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The wear row ``s * e_dch + excess >= plane1`` of each vehicle-step, as
    a block of terms: ``(row, var, coef, senses, rhs)``, where term
    k puts ``coef[k]`` on variable ``var[k]`` in row ``row[k]`` and the i-th
    step is in row i. The variable ids and steps are scalars or arrays of
    one length. ``excess`` needs bounds ``[0, inf)`` and objective weight 1,
    and ``e_dch`` the cost ``discharge_wear_slope``, for
    ``s * e_dch + excess`` to be the envelope at the optimum.
    """
    excess, e_dch, soe, t = (np.atleast_1d(a) for a in (excess, e_dch, soe, t))
    k = len(t)
    d = v.degradation
    scale = _scale(v)
    # excess + (s - d2') * e_dch + d3' * soe >= C_bat * (d1 + 100 * d3)
    row = np.concatenate([np.arange(k)] * 3)
    var = np.concatenate([excess, e_dch, soe])
    coef = np.repeat([1.0, discharge_wear_slope(v) - d.d2 * scale, d.d3 * scale], k)
    rhs = np.full(k, v.battery_cost_eur * (d.d1 + d.d3 * 100.0))
    return row, var, coef, np.full(k, ">="), rhs
