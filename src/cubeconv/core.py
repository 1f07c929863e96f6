"""Domain types for functions on the Hamming cube, set families, and the
sharp Hoelder exponent.

A point of {0,1}^m is identified with a subset of {1,..,m} stored as an
m-bit integer (element i <-> bit i-1, little-endian).  Cube functions are
dense tables of 2^m values, either floats ("real" flavor) or exact Python
integers ("int" flavor).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

# Dense tables: real flavor capped at m <= 24 (128 MB of float64),
# exact-integer flavor at m <= 22 (the largest layered-family ground
# sets the counting experiments need).
MAX_M_REAL = 24
MAX_M_INT = 22

REAL = "real"
INT = "int"


def popcount(bits: int) -> int:
    """Number of elements in the subset encoded by ``bits``."""
    return bits.bit_count()


@dataclass(frozen=True)
class SubsetMask:
    """A subset of {1,..,m} as an m-bit value."""

    bits: int
    m: int

    def __post_init__(self):
        if not 1 <= self.m <= MAX_M_REAL:
            raise ValueError(f"ground-set size m={self.m} out of range [1, {MAX_M_REAL}]")
        if self.bits < 0 or self.bits >> self.m:
            raise ValueError(f"mask {self.bits:#b} has bits beyond position {self.m}")

    def popcount(self) -> int:
        return self.bits.bit_count()

    def elements(self) -> list[int]:
        """1-based element indices, sorted."""
        return [i + 1 for i in range(self.m) if self.bits >> i & 1]


def _require_same_m(a: SubsetMask, b: SubsetMask):
    if a.m != b.m:
        raise ValueError(f"ground-set size mismatch: {a.m} != {b.m}")


def is_disjoint(a: SubsetMask, b: SubsetMask) -> bool:
    _require_same_m(a, b)
    return a.bits & b.bits == 0


def union(a: SubsetMask, b: SubsetMask) -> SubsetMask:
    _require_same_m(a, b)
    return SubsetMask(a.bits | b.bits, a.m)


def complement(a: SubsetMask) -> SubsetMask:
    return SubsetMask(a.bits ^ ((1 << a.m) - 1), a.m)


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

    def __getitem__(self, mask: int):
        return self.values[mask]

    @classmethod
    def constant(cls, m: int, value, flavor: str = REAL) -> "CubeFunction":
        return cls(m, (value,) * (1 << m), flavor)

    @classmethod
    def indicator(cls, m: int, masks, flavor: str = INT) -> "CubeFunction":
        one = 1 if flavor == INT else 1.0
        zero = 0 if flavor == INT else 0.0
        vals = [zero] * (1 << m)
        for s in masks:
            vals[s] = one
        return cls(m, vals, flavor)


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

    def __contains__(self, mask: int) -> bool:
        i = bisect.bisect_left(self.members, mask)
        return i < len(self.members) and self.members[i] == mask

    def indicator(self) -> CubeFunction:
        return CubeFunction.indicator(self.m, self.members, INT)


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
    first = family.indicator()
    full = (1 << m) - 1
    members = set(family.members)
    last = CubeFunction.indicator(m, (s ^ full for s in members), INT)
    return [first] * (n - 1) + [last]
