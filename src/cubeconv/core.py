"""Domain types for functions on the Hamming cube, set families, and the
sharp Hoelder exponent.

A point of {0,1}^m is identified with a subset of {1,..,m} stored as an
m-bit integer (element i <-> bit i-1, little-endian).  Cube functions are
dense read-only tables of 2^m values, either floats ("real" flavor) or
exact integers ("int" flavor).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

# Dense tables: real flavor capped at m <= 24 (128 MB of float64),
# exact-integer flavor at m <= 22 (the largest layered-family ground
# sets the counting experiments need).
MAX_M_REAL = 24
MAX_M_INT = 22

REAL = "real"
INT = "int"


def popcounts(m: int) -> np.ndarray:
    """The element count of every mask 0 .. 2^m - 1, as uint8."""
    pc = np.zeros(1 << m, dtype=np.uint8)
    for b in range(m):
        pc[1 << b : 2 << b] = pc[: 1 << b] + 1
    return pc


@dataclass(frozen=True, eq=False)
class CubeFunction:
    """Dense function f : {0,1}^m -> R, indexed by mask bits.

    Built from any sequence of 2^m numbers, `table` holds them once as a
    read-only ndarray: float64 in real flavor; int64 in integer flavor,
    or object dtype (Python ints) when a value needs more than 64 bits.
    `values` is the same table as a tuple of Python numbers, built on
    first read.
    """

    m: int
    table: np.ndarray
    flavor: str = REAL

    def __post_init__(self):
        cap = MAX_M_INT if self.flavor == INT else MAX_M_REAL
        if not 1 <= self.m <= cap:
            raise ValueError(f"m={self.m} out of range [1, {cap}] for flavor {self.flavor!r}")
        if self.flavor not in (REAL, INT):
            raise ValueError(f"unknown flavor {self.flavor!r}")
        if self.flavor == REAL:
            table = np.array(self.table, dtype=np.float64)
        else:
            try:
                table = np.array(self.table, dtype=np.int64)
            except OverflowError:  # some value needs more than 64 bits
                table = np.array(self.table, dtype=object)
        if table.shape != (1 << self.m,):
            raise ValueError(f"need exactly {1 << self.m} values, got {table.size}")
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    @functools.cached_property
    def values(self) -> tuple:
        return tuple(self.table.tolist())

    def __eq__(self, other):
        if not isinstance(other, CubeFunction):
            return NotImplemented
        return (self.m, self.flavor, self.values) == (other.m, other.flavor, other.values)

    def __hash__(self):
        return hash((self.m, self.flavor, self.values))

    @classmethod
    def indicator(cls, m: int, masks) -> "CubeFunction":
        """Integer 0/1 function that is 1 exactly on `masks` (an array-like
        of mask ints)."""
        table = np.zeros(1 << m, dtype=np.int64)
        table[np.asarray(masks, dtype=np.int64)] = 1
        return cls(m, table, INT)


@dataclass(frozen=True)
class SetFamily:
    """Deduplicated collection of subsets of {1,..,m}, strictly sorted."""

    m: int
    members: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if not 1 <= self.m <= MAX_M_REAL:
            raise ValueError(f"m={self.m} out of range [1, {MAX_M_REAL}]")
        mem = tuple(self.members)
        masks = np.array(mem, dtype=None if mem else np.int64)
        if masks.dtype.kind not in "biu":  # ints past 64 bits come as objects
            if not all(isinstance(s, numbers.Integral) for s in mem):
                raise TypeError("family members must be integer masks")
            raise ValueError("family member outside 2^[m]")
        if np.any((masks < 0) | (masks >> self.m != 0)):
            raise ValueError("family member outside 2^[m]")
        if np.any(masks[1:] <= masks[:-1]):
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


def lp_norms(x: np.ndarray, p: float) -> np.ndarray:
    """(sum |x|^p)^(1/p) along the last axis of a float64 array, which is
    overwritten with |x|^p; p >= 1.  lp_norm and the verifier's batched
    norms both come from here, so a tuple gets the same bits either way.

    Exact zeros would take numpy's slow pow path: they enter as 1.0
    (1^p = 1) and are taken off again."""
    np.abs(x, out=x)
    zeros = x == 0
    x += zeros
    x **= p
    x -= zeros
    return np.sum(x, axis=-1) ** (1.0 / p)


def lp_norm(f: CubeFunction, p: float) -> float:
    """(sum_x |f(x)|^p)^(1/p) over the whole cube; p >= 1."""
    if p < 1:
        raise ValueError(f"lp_norm requires p >= 1, got {p}")
    try:
        x = np.array(f.table, dtype=np.float64)
    except OverflowError:  # an integer value alone is beyond float64
        x = np.full(1, math.inf)
    with np.errstate(over="ignore"):  # an overflow is reported below
        norm = float(lp_norms(x[None], p)[0])
    if norm == math.inf:
        raise ValueError(f"sum of |f|^p at p={p} overflows float64")
    return norm


def family_to_functions(family: SetFamily, n: int) -> list[CubeFunction]:
    """Encode a set family as n indicator functions whose corner
    convolution counts disjoint-union tuples.

    f_1 = ... = f_{n-1} = indicator that the subset lies in the family;
    f_n(S) = indicator that the complement of S lies in the family.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    m = family.m
    members = np.array(family.members, dtype=np.int64)
    first = CubeFunction.indicator(m, members)
    last = CubeFunction.indicator(m, members ^ ((1 << m) - 1))
    return [first] * (n - 1) + [last]
