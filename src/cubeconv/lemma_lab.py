"""Numerical walkthrough of the one-dimensional base case: the dual
representation of the logarithm, critical points of the dual objective,
the two-value (u, v) reduction, the scalar z-equation, and the final
log inequality.

Everything here is desk-scale numerics: bracketed bisection, fixed
grids, explicit residuals.  Nothing is proved, everything is measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import HoelderParams, fit_budget

RESIDUAL_TOL = 1e-9
IDENTITY_TOL = 1e-7
BISECT_TOL = 1e-12
BRACKET_GROWTH_CAP = 2**40
# grid used to locate sign changes before bisection refines them
_SCAN_POINTS = 4096
# upper end of scan_last_value's grid in z
SCAN_Z_MAX = 1e3


def log_dual_gap(x: float, b: float) -> float:
    """Gap of the concave-dual bound of ln at parameter b:
    (b + e^{-b} x - 1) - ln x.  Nonnegative, zero iff b = ln x."""
    if x <= 0:
        raise ValueError(f"need x > 0, got {x}")
    return (b + math.exp(-b) * x - 1.0) - math.log(x)


def B_dual(x, b, params: HoelderParams) -> float:
    """Dual objective: sum_i (b_i + (1+x_i^p) e^{-b_i} - 1) - p ln(sum x_i)."""
    x, b, p = list(x), list(b), params.p
    if len(x) != len(b):
        raise ValueError("x and b must have equal length")
    if any(v <= 0 for v in x):
        raise ValueError("need all x_i > 0")
    head = sum(bi + (1.0 + xi**p) * math.exp(-bi) - 1.0 for xi, bi in zip(x, b))
    return head - p * math.log(sum(x))


def critical_x(b, params: HoelderParams) -> tuple[list[float], float]:
    """Stationary point of B_dual in x for fixed b:
    x*_k = e^{b_k/(p-1)} / (sum_i e^{b_i/(p-1)})^{1/p}.

    Returns (x*, sum x*) and checks the closed form of the sum.
    """
    b = list(b)
    if any(abs(v) > 500 for v in b):
        raise ValueError("b outside [-500, 500] would overflow exp")
    p, r = params.p, params.r
    expb = [math.exp(v / r) for v in b]
    total = sum(expb)
    xs = [e / total ** (1.0 / p) for e in expb]
    sum_x = sum(xs)
    closed = total ** (r / p)
    if abs(sum_x - closed) > 1e-9 * closed:
        raise AssertionError("sum of critical x disagrees with closed form")
    return xs, sum_x


def f_reduced(y, params: HoelderParams) -> float:
    """Reduced objective after substituting the critical x:
    1 - n + sum ln y_i^r + sum y_i^{-r} - r ln(sum y_i)."""
    y = list(y)
    if any(v <= 0 for v in y):
        raise ValueError("need all y_i > 0")
    n, r = len(y), params.r
    return (
        1.0
        - n
        + r * sum(math.log(v) for v in y)
        + sum(v**-r for v in y)
        - r * math.log(sum(y))
    )


def crit_residual(y, params: HoelderParams) -> tuple[float, float]:
    """How far y is from the stationarity system
    1/y_i - 1/y_i^{r+1} = 1/sum y_k.

    Returns (max residual, |sum y_i^{-r} - (n-1)|); the second quantity
    must vanish at exact critical points.
    """
    y = list(y)
    if any(v <= 0 for v in y):
        raise ValueError("need all y_i > 0")
    r = params.r
    inv_total = 1.0 / sum(y)
    residual = max(abs(1.0 / v - v ** -(r + 1.0) - inv_total) for v in y)
    identity_gap = abs(sum(v**-r for v in y) - (len(y) - 1))
    return residual, identity_gap


def last_value(n: int, k: int, z: float, params: HoelderParams) -> float:
    """Final scalar inequality value at a critical configuration:
    (n-1) ln z + (n-k) ln((n-k)/((n-1)z-k)) - r ln(z/(z-1))."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k}")
    if z <= 1.0 or (n - 1) * z - k <= 0:
        raise ValueError(f"nonpositive logarithm argument at z={z}")
    r = params.r
    return (
        (n - 1) * math.log(z)
        + (n - k) * math.log((n - k) / ((n - 1) * z - k))
        - r * math.log(z / (z - 1.0))
    )


def k_monotonicity_check(n: int, z: float, params: HoelderParams) -> bool:
    """k -> (n-k) ln((n-k)/((n-1)z-k)) is nondecreasing on 1..n-1."""
    if z <= n / (n - 1):
        raise ValueError(f"need z > n/(n-1), got {z}")
    vals = [(n - k) * math.log((n - k) / ((n - 1) * z - k)) for k in range(1, n)]
    return all(b - a >= -1e-12 for a, b in zip(vals, vals[1:]))


def z_ratio_monotonicity_check(n: int, z1: float, z2: float) -> bool:
    """ln(1 + 1/(z(n-1)-1)) / ln(1 + 1/(z-1)) is nondecreasing in z."""
    if not n / (n - 1) <= z1 < z2:
        raise ValueError(f"need n/(n-1) <= z1 < z2, got ({z1}, {z2})")

    def ratio(z):
        return math.log1p(1.0 / (z * (n - 1) - 1.0)) / math.log1p(1.0 / (z - 1.0))

    return ratio(z1) <= ratio(z2) + 1e-12


@dataclass(frozen=True)
class CriticalPointReport:
    """Solution of the two-value critical system for one (n, k).

    status is "ok", "no-root" (the z-equation never changes sign on the
    admissible interval), or "domain-violation" (the v formula goes
    negative).  Numeric fields are None unless status is "ok".
    """

    n: int
    k: int
    r: float
    status: str
    z: float | None = None
    u: float | None = None
    v: float | None = None
    residual_eq1: float | None = None
    identity_gap: float | None = None
    last_value: float | None = None
    sum_log_gap: float | None = None  # sum ln y_i - ln sum y_i at (u, v)
    extra_sign_changes: int = 0


def _z_equation_gap(z: float, n: int, k: int, r: float) -> float | None:
    """LHS minus RHS of the z-equation
    (z-1)^r (n-k)^{r+1} / (z(1-k)+k)^r = (n-1)z - k;
    None outside the admissible domain (nonpositive denominator)."""
    denom = z * (1 - k) + k
    if denom <= 0:
        return None
    return (z - 1.0) ** r * (n - k) ** (r + 1.0) / denom**r - ((n - 1) * z - k)


def _bisect(gap, lo, hi, f_lo):
    """Plain bisection on a sign-changing bracket, to absolute width
    BISECT_TOL in z."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = gap(mid)
        if f_mid == 0.0 or hi - lo < BISECT_TOL:
            return mid
        if (f_lo > 0) == (f_mid > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_critical_system(n: int, k: int, params: HoelderParams) -> CriticalPointReport:
    """Solve the z-equation for z >= 1+r, derive u = z^{1/r} and v, and
    evaluate all residuals of the stationarity system.

    Roots are located on a geometric scan of [1+r, cap] clipped to the
    domain where the v numerator stays positive, then refined by
    bisection.  Absence of a root or a negative v numerator is reported,
    not raised: inadmissible (n, k) pairs are information.
    """
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k}")
    r = params.r
    lo = 1.0 + r

    # admissible upper end: pole of the denominator for k >= 2
    hi_cap = lo * BRACKET_GROWTH_CAP
    if k >= 2:
        pole = k / (k - 1.0)
        if pole <= lo:
            return CriticalPointReport(n=n, k=k, r=r, status="domain-violation")
        hi_cap = min(hi_cap, pole * (1.0 - 1e-12))

    gap = lambda z: _z_equation_gap(z, n, k, r)
    f_lo = gap(lo)
    if f_lo is None:
        return CriticalPointReport(n=n, k=k, r=r, status="domain-violation")
    if abs(f_lo) < 1e-12:
        # degenerate case (n=2): the equation holds identically at the
        # left endpoint; take z = 1+r
        z = lo
    else:
        zs = np.geomspace(lo, hi_cap, _SCAN_POINTS)
        vals = [gap(z) for z in zs]
        bracket = None
        extra = 0
        prev_z, prev_v = zs[0], vals[0]
        for zi, vi in zip(zs[1:], vals[1:]):
            if vi is None:
                break
            if (prev_v > 0) != (vi > 0):
                if bracket is None:
                    bracket = (prev_z, zi, prev_v)
                else:
                    extra += 1
            prev_z, prev_v = zi, vi
        if bracket is None:
            return CriticalPointReport(n=n, k=k, r=r, status="no-root")
        z = _bisect(gap, *bracket)
        return _finish_report(n, k, params, z, extra)
    return _finish_report(n, k, params, z, 0)


def _finish_report(n, k, params, z, extra_sign_changes):
    r = params.r
    z = float(z)
    u = z ** (1.0 / r)
    numerator = u ** (r + 1.0) * (1 - k) + k * u
    if numerator < 0:
        return CriticalPointReport(n=n, k=k, r=r, status="domain-violation", z=z)
    v_direct = numerator / ((u**r - 1.0) * (n - k))
    v_closed = (z * (n - k) / ((n - 1) * z - k)) ** (1.0 / r)
    if abs(v_direct - v_closed) > 1e-9 * max(1.0, v_closed):
        raise AssertionError(f"v cross-check failed at (n={n}, k={k}): {v_direct} vs {v_closed}")
    v = v_closed
    y = [u] * k + [v] * (n - k)
    residual, identity_gap = (float(t) for t in crit_residual(y, params))
    total = sum(y)
    sum_log_gap = sum(math.log(t) for t in y) - math.log(total)
    return CriticalPointReport(
        n=n,
        k=k,
        r=r,
        status="ok",
        z=z,
        u=u,
        v=v,
        residual_eq1=residual,
        identity_gap=identity_gap,
        last_value=last_value(n, k, z, params),
        sum_log_gap=sum_log_gap,
        extra_sign_changes=extra_sign_changes,
    )


def scan_last_value(n: int, params: HoelderParams, grid: int = 10_000) -> dict:
    """Minimum of the final inequality value over a log grid in z for
    every k; the grid starts just above max(1+r, n/(n-1)) and ends at
    SCAN_Z_MAX."""
    if grid < 2:
        raise ValueError("need at least 2 grid points")
    # zs, the last k's values, the partial sum and two temporaries: five float64 arrays at once
    fit_budget(f"a scan grid of {grid} points", 5 * 8, grid)
    r = params.r
    z_lo = max(1.0 + r, n / (n - 1) + 1e-6)
    zs = np.geomspace(z_lo, SCAN_Z_MAX, grid)
    per_k = {}
    for k in range(1, n):
        vals = (
            (n - 1) * np.log(zs)
            + (n - k) * np.log((n - k) / ((n - 1) * zs - k))
            - r * np.log(zs / (zs - 1.0))
        )
        i = int(np.argmin(vals))
        per_k[k] = {"min_value": float(vals[i]), "argmin_z": float(zs[i])}
    overall = min(d["min_value"] for d in per_k.values())
    return {
        "n": n,
        "grid": grid,
        "z_lo": float(z_lo),
        "z_max": SCAN_Z_MAX,
        "min_last_value": overall,
        "per_k": per_k,
    }
