"""The array scan of solve_critical_system against the per-point loop it
replaced, and the two domain facts that let the scan drop the checks the
loop made: the z-equation's denominator and the v numerator stay positive
wherever the scan and the bisection go.  Also the array form of the final
log inequality against its scalar math.log form."""

import math

import numpy as np
import pytest

from cubeconv.core import exponent
from cubeconv.lemma_lab import (
    BRACKET_GROWTH_CAP,
    _SCAN_POINTS,
    _bisect,
    k_monotonicity_check,
    last_value,
    solve_critical_system,
)

GRID = [(n, k) for n in range(2, 61) for k in range(1, n)]


def reference_gap(z, n, k, r):
    """The z-equation gap, one point at a time; None where the
    denominator z(1-k)+k is not positive."""
    denom = z * (1 - k) + k
    if denom <= 0:
        return None
    return (z - 1.0) ** r * (n - k) ** (r + 1.0) / denom**r - ((n - 1) * z - k)


def scan_interval(k, r):
    """[1+r, cap] as solve_critical_system scans it, or None when the
    pole k/(k-1) lies at or below 1+r."""
    lo = 1.0 + r
    hi_cap = lo * BRACKET_GROWTH_CAP
    if k >= 2:
        pole = k / (k - 1.0)
        if pole <= lo:
            return None
        hi_cap = min(hi_cap, pole * (1.0 - 1e-12))
    return lo, hi_cap


def reference_scan(n, k, r):
    """The per-point scan: ("domain-violation" | "degenerate" | "no-root"
    | "ok", first sign-changing bracket (z_lo, z_hi, gap at z_lo) or None,
    number of later sign changes)."""
    interval = scan_interval(k, r)
    if interval is None:
        return "domain-violation", None, 0
    lo, hi_cap = interval
    f_lo = reference_gap(lo, n, k, r)
    if f_lo is None:
        return "domain-violation", None, 0
    if abs(f_lo) < 1e-12:
        return "degenerate", None, 0
    zs = np.geomspace(lo, hi_cap, _SCAN_POINTS)
    vals = [reference_gap(z, n, k, r) for z in zs]
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
    return ("no-root" if bracket is None else "ok"), bracket, extra


@pytest.mark.parametrize("n", range(2, 61))
def test_array_scan_finds_the_loops_bracket_and_sign_changes(n):
    r = exponent(n).r
    for k in range(1, n):
        status, bracket, extra = reference_scan(n, k, r)
        report = solve_critical_system(n, k, exponent(n))
        if status == "degenerate":
            assert (report.status, report.z) == ("ok", 1.0 + r), (n, k)
        elif status == "ok":
            z = float(_bisect(lambda z: reference_gap(z, n, k, r), *bracket))
            assert report.status == "ok" and report.z == z, (n, k)
            assert bracket[0] <= report.z <= bracket[1], (n, k)
        else:
            assert (report.status, report.z) == (status, None), (n, k)
        assert report.extra_sign_changes == extra, (n, k)


def v_numerator(z, k, r):
    """u^(r+1) (1-k) + k u at u = z^(1/r), as solve_critical_system forms v."""
    u = z ** (1.0 / r)
    return u ** (r + 1.0) * (1 - k) + k * u


def test_denominator_and_v_numerator_stay_positive():
    """At every scanned z, and at every root, for each (n, k) past the
    pole check.  Only k = 1 has roots on this grid, so the scan carries
    the k >= 2 cases, up to pole (1 - 1e-12)."""
    scans = roots = 0
    for n, k in GRID:
        r = exponent(n).r
        interval = scan_interval(k, r)
        if interval is None:
            continue
        zs = np.geomspace(*interval, _SCAN_POINTS)
        report = solve_critical_system(n, k, exponent(n))
        if report.status == "ok":
            zs = np.append(zs, report.z)
            roots += 1
        assert np.all(zs * (1 - k) + k > 0), (n, k)
        assert np.all(v_numerator(zs, k, r) > 0), (n, k)
        scans += 1
    assert (scans, roots) == (221, 59)


def scalar_terms(n, k, z, r):
    """The three terms of the final inequality value, with math.log."""
    return (n - 1) * math.log(z), (n - k) * math.log((n - k) / ((n - 1) * z - k)), r * math.log(z / (z - 1.0))


def test_last_value_and_k_monotonicity_match_the_scalar_form():
    """np.log may round differently from math.log, so last_value may move
    by a few ulp of its largest term; the monotonicity verdicts stay."""
    for n in list(range(2, 41)) + [500, 4000]:
        params = exponent(n)
        z_lo = max(1.0 + params.r, n / (n - 1))
        for z in z_lo * np.geomspace(1 + 1e-9, 1e4, 25):
            z = float(z)
            for k in sorted({1, min(2, n - 1), n // 2, n - 1}):
                a, b, c = scalar_terms(n, k, z, params.r)
                assert abs(last_value(n, k, z, params) - (a + b - c)) <= 4 * math.ulp(max(abs(a), abs(b), abs(c)))
            k_terms = [scalar_terms(n, k, z, params.r)[1] for k in range(1, n)]
            loop_verdict = all(y - x >= -1e-12 for x, y in zip(k_terms, k_terms[1:]))
            assert (k_monotonicity_check(n, z, params), loop_verdict) == (True, True), (n, z)
