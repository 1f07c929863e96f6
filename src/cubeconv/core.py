"""Domain types for functions on the Hamming cube, set families, and the
sharp Hoelder exponent.

A point of {0,1}^m is identified with a subset of {1,..,m} stored as an
m-bit integer (element i <-> bit i-1, little-endian).  Cube functions are
dense tables of 2^m values, either floats ("real" flavor) or exact Python
integers ("int" flavor).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# Dense tables: real flavor capped at m <= 24 (128 MB of float64),
# exact-integer flavor at m <= 22 (the largest layered-family ground
# sets the counting experiments need).
MAX_M_REAL = 24
MAX_M_INT = 22

REAL = "real"
INT = "int"


@dataclass(frozen=True)
class CubeFunction:
    """Dense function f : {0,1}^m -> R, indexed by mask bits."""

    m: int
    values: tuple
    flavor: str = REAL

    def __post_init__(self):
        cap = MAX_M_INT if self.flavor == INT else MAX_M_REAL
        if not 1 <= self.m <= cap:
            raise ValueError(f"m={self.m} out of range [1, {cap}] for flavor {self.flavor!r}")
        if self.flavor not in (REAL, INT):
            raise ValueError(f"unknown flavor {self.flavor!r}")
        if len(self.values) != 1 << self.m:
            raise ValueError(f"need exactly {1 << self.m} values, got {len(self.values)}")
        object.__setattr__(self, "values", tuple(self.values))

    @classmethod
    def indicator(cls, m: int, masks) -> "CubeFunction":
        """Integer 0/1 function that is 1 exactly on `masks`."""
        vals = [0] * (1 << m)
        for s in masks:
            vals[s] = 1
        return cls(m, vals, INT)


@dataclass(frozen=True)
class SetFamily:
    """Deduplicated collection of subsets of {1,..,m}, strictly sorted."""

    m: int
    members: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if not 1 <= self.m <= MAX_M_REAL:
            raise ValueError(f"m={self.m} out of range [1, {MAX_M_REAL}]")
        mem = tuple(self.members)
        if any(s < 0 or s >> self.m for s in mem):
            raise ValueError("family member outside 2^[m]")
        if any(a >= b for a, b in zip(mem, mem[1:])):
            raise ValueError("members must be strictly increasing (duplicates forbidden)")
        object.__setattr__(self, "members", mem)

    @classmethod
    def from_masks(cls, m: int, masks) -> "SetFamily":
        return cls(m, tuple(sorted(set(masks))))

    def __len__(self):
        return len(self.members)


@dataclass(frozen=True)
class HoelderParams:
    """The sharp exponent p_n and its companions r = p-1, c = n/p."""

    n: int
    p: float
    r: float
    c: float

    def __post_init__(self):
        # self-consistency with the defining logarithm identity
        lhs = self.p * math.log(self.n)
        rhs = self.n * math.log(self.n) - (self.n - 1) * math.log(self.n - 1)
        if abs(lhs - rhs) > 1e-13 * abs(rhs):
            raise ValueError(f"inconsistent HoelderParams for n={self.n}")
        if not 1.0 < self.p <= 2.0:
            raise ValueError(f"p={self.p} outside (1, 2]")


def exponent(n: int) -> HoelderParams:
    """Sharp exponent p_n = [n ln n - (n-1) ln(n-1)] / ln n for n >= 2.

    Uses the expanded logarithm form: n^n overflows floats long before
    n=64, the expanded form never does.
    """
    if n < 2:
        raise ValueError(f"exponent requires n >= 2, got {n} (n=1 has a 0/0 exponent)")
    ln_n = math.log(n)
    p = (n * ln_n - (n - 1) * math.log(n - 1)) / ln_n
    return HoelderParams(n=n, p=p, r=p - 1.0, c=n / p)


def lp_norm(f: CubeFunction, p: float) -> float:
    """(sum_x |f(x)|^p)^(1/p) over the whole cube; p >= 1."""
    if p < 1:
        raise ValueError(f"lp_norm requires p >= 1, got {p}")
    total = sum(abs(v) ** p for v in f.values)
    return total ** (1.0 / p) if total > 0 else 0.0


def family_to_functions(family: SetFamily, n: int) -> list[CubeFunction]:
    """Encode a set family as n indicator functions whose corner
    convolution counts disjoint-union tuples.

    f_1 = ... = f_{n-1} = indicator that the subset lies in the family;
    f_n(S) = indicator that the complement of S lies in the family.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    m = family.m
    full = (1 << m) - 1
    first = CubeFunction.indicator(m, family.members)
    last = CubeFunction.indicator(m, (s ^ full for s in family.members))
    return [first] * (n - 1) + [last]
