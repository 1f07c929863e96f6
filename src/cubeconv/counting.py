"""Exact counting of n-fold disjoint-union tuples in a set family, the
|X|^(n/p_n) bound check, and layered extremal families."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import MAX_M, SetFamily, exponent, family_to_functions, popcounts  # noqa: F401
from .transform import corner_convolution, indicator_power_sum  # noqa: F401

# corner_convolution(family_to_functions(X, n)) gives the same count and
# kernel as _count; neither is called here, but both stay importable from
# this module, where perfbench's tracer wraps them.

BRUTE_TUPLE_CAP = 10**8
BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class CountReport:
    """Exact tuple count for (X, n) against the ln|X|-scaled bound.

    ratio = ln(count)/ln|X| is None when undefined (|X| <= 1 or count 0).
    kernel names the path that counted: "int64", "int64-crt<k>" or "brute".
    """

    n: int
    family_size: int
    count: int
    log_count: float
    bound_log: float
    ratio: float | None
    holds: bool
    kernel: str


def count_disjoint_tuples(family: SetFamily, n: int, method: str = "fast") -> int:
    """Number of tuples (A_1,..,A_{n-1},A) in X^n with A the disjoint
    union of the A_j.

    The fast path is the exact ranked subset convolution of the family's
    indicator, n-1 fold, summed at the members; brute enumerates
    (n-1)-tuples.
    """
    _check_count(family, n, method)
    return _count(family, n, method)[0]


def _check_count(family: SetFamily, n: int, method: str) -> None:
    """Refuse an n or a method that _count cannot take, before it counts."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if method not in ("fast", "brute"):
        raise ValueError(f"unknown method {method!r}")
    if method == "brute" and len(family) ** (n - 1) > BRUTE_TUPLE_CAP:
        raise ValueError(f"brute-force needs |X|^(n-1) = {len(family) ** (n - 1)} > {BRUTE_TUPLE_CAP} tuples")


def _count(family: SetFamily, n: int, method: str) -> tuple[int, str]:
    """(count, kernel) for count_disjoint_tuples, once _check_count passes."""
    if method == "fast":
        return indicator_power_sum(family, n - 1)
    members = family.members.tolist()  # Python ints: the oracle shares no numpy arithmetic
    member_set = set(members)
    count = 0
    for parts in itertools.product(members, repeat=n - 1):
        acc = 0
        for a in parts:
            if acc & a:
                break
            acc |= a
        else:
            if acc in member_set:
                count += 1
    return count, "brute"


def bound_report(family: SetFamily, n: int, method: str = "fast") -> CountReport:
    """Count tuples and compare ln(count) against (n/p_n) ln|X|.  The
    bound is taken first, so exponent refuses an n past MAX_N at once,
    not after a count that takes minutes."""
    _check_count(family, n, method)
    size = len(family)
    bound_log = exponent(n).c * math.log(size) if size >= 1 else 0.0
    count, kernel = _count(family, n, method)
    log_count = math.log(count) if count >= 1 else float("-inf")
    ratio = log_count / math.log(size) if size >= 2 and count >= 1 else None
    return CountReport(
        n=n,
        family_size=size,
        count=count,
        log_count=log_count,
        bound_log=bound_log,
        ratio=ratio,
        holds=log_count <= bound_log + BOUND_SLACK,
        kernel=kernel,
    )


def extremal_family(n: int, t: int) -> SetFamily:
    """Two-layer family over a ground set of size n*t: all subsets of
    size t plus all subsets of size (n-1)*t.

    Every counted tuple is a size-(n-1)t set split into n-1 size-t
    blocks, which is the configuration where the bound is tightest at
    desk scale.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    m = n * t
    if m > MAX_M:
        raise ValueError(f"ground size n*t = {m} exceeds cap {MAX_M}")
    pc = popcounts(m)
    return SetFamily(m, np.flatnonzero((pc == t) | (pc == (n - 1) * t)))
