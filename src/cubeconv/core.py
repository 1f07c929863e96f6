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

# The size rule, for every flavor and reader: ground sets of at most MAX_M
# elements, and rank tables (ranks x 2^m masks x batch, 8 B a value) and
# the verifier's draws of at most RANK_TABLE_BUDGET bytes each, a
# full-support float64 table at m = 23 (24 x 2^23 x 8 B = 1.5 GiB): all of
# m <= 23 fits, the fold's three tables stay near 4.5 GiB, and a
# full-support table at m = 24 (3.1 GiB) is refused.
MAX_M = 24
RANK_TABLE_BUDGET = 24 * 8 << 23
# p_n's expanded form loses about log2(n) bits to cancellation; exponent(n)
# is refused when it is further than this from the cancellation-free form.
# It is a thousandth of the verifier's REL_TOL.
P_REL_TOL = 1e-12
# Every n <= 4008 is within P_REL_TOL and n = 4009 is not; past it, passing
# and failing n interleave.  So exponent(n) admits one interval, 2..MAX_N.
MAX_N = 4000

REAL = "real"
INT = "int"


def check_m(m: int) -> None:
    """Refuse a ground set of m elements outside [1, MAX_M]."""
    if not 1 <= m <= MAX_M:
        raise ValueError(f"m={m} out of range [1, {MAX_M}]")


@functools.cache
def popcounts(m: int) -> np.ndarray:
    """The element count of every mask 0 .. 2^m - 1, as read-only uint8, built once per m."""
    pc = np.zeros(1 << m, dtype=np.uint8)
    for b in range(m):
        pc[1 << b : 2 << b] = pc[: 1 << b] + 1
    pc.flags.writeable = False
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
        check_m(self.m)
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

    def __eq__(self, other):  # by flavor and table, whose length fixes m; -0.0 == 0.0, and f == f holds with nan
        if not isinstance(other, CubeFunction):
            return NotImplemented
        return self is other or self.flavor == other.flavor and np.array_equal(self.table, other.table)

    def __hash__(self):  # + 0 turns -0.0 into 0.0; an object table hashes its Python ints
        table = self.table + 0
        return hash((self.flavor, tuple(table) if table.dtype == object else table.tobytes()))

    @classmethod
    def indicator(cls, m: int, masks) -> "CubeFunction":
        """Integer 0/1 function that is 1 exactly on `masks` (an array-like
        of mask ints)."""
        table = np.zeros(1 << m, dtype=np.int64)
        table[np.asarray(masks, dtype=np.int64)] = 1
        return cls(m, table, INT)


@dataclass(frozen=True, eq=False)
class SetFamily:
    """Deduplicated subsets of {1,..,m}: `members`, a read-only int64 array of masks, strictly increasing."""

    m: int
    members: np.ndarray = field(default_factory=tuple)

    def __post_init__(self):
        check_m(self.m)
        mem = self.members if isinstance(self.members, np.ndarray) else list(self.members)
        masks = np.asarray(mem, dtype=None if len(mem) else np.int64)
        if masks.dtype.kind not in "biu":  # ints past 64 bits come as objects or floats
            if not all(isinstance(s, numbers.Integral) for s in mem):
                raise TypeError("family members must be integer masks")
            raise ValueError("family member outside 2^[m]")
        if np.any((masks < 0) | (masks >> self.m != 0)):
            raise ValueError("family member outside 2^[m]")
        if np.any(masks[1:] <= masks[:-1]):
            raise ValueError("members must be strictly increasing (duplicates forbidden)")
        masks = masks.astype(np.int64)  # a copy, so no caller can write to it
        masks.flags.writeable = False
        object.__setattr__(self, "members", masks)

    def __eq__(self, other):  # by value, as __hash__
        return isinstance(other, SetFamily) and self.m == other.m and np.array_equal(self.members, other.members)

    def __hash__(self):
        return hash((self.m, self.members.tobytes()))

    @classmethod
    def from_masks(cls, m: int, masks) -> "SetFamily":
        mem = masks if isinstance(masks, np.ndarray) else list(masks)
        s = np.sort(mem)  # repeats are dropped; __post_init__ refuses non-integer kinds in any order
        return cls(m, np.concatenate((s[:1], s[1:][s[1:] != s[:-1]])) if s.dtype.kind in "biu" else mem)

    def __len__(self):
        return len(self.members)


def fit_budget(what: str, entry: int, batch: int = 1) -> int:
    """The most entries of `entry` bytes that fit in RANK_TABLE_BUDGET;
    raises ValueError, naming `what` and its bytes, before an allocation
    that cannot hold `batch` of them is made."""
    need = entry * batch
    if need > RANK_TABLE_BUDGET:
        raise ValueError(f"{what} needs {need} bytes, over the rank-table budget of {RANK_TABLE_BUDGET} bytes")
    return RANK_TABLE_BUDGET // max(entry, 1)


def fit_rank_table(ranks: int, m: int, batch: int = 1) -> int:
    """fit_budget for a rank table of `ranks` rows over 2^m masks."""
    return fit_budget(f"a rank table of {ranks} ranks x 2^{m} masks x {batch}", ranks * 8 << m, batch)


def _check_p(n: int, p: float) -> None:
    """p must be in (1, 2] and within P_REL_TOL of 1 + (n-1) log1p(1/(n-1)) / ln n."""
    if not 1.0 < p <= 2.0 or abs(p - 1.0 - (n - 1) * math.log1p(1 / (n - 1)) / math.log(n)) > P_REL_TOL * p:
        raise ValueError(f"p={p} for n={n} is outside (1, 2] or off p_n by more than {P_REL_TOL} relative")


@dataclass(frozen=True)
class HoelderParams:
    """The sharp exponent p_n and its companions r = p-1, c = n/p."""

    n: int
    p: float
    r: float
    c: float

    def __post_init__(self):
        _check_p(self.n, self.p)


def exponent(n: int) -> HoelderParams:
    """Sharp exponent p_n = [n ln n - (n-1) ln(n-1)] / ln n for n >= 2.

    Uses the expanded logarithm form: n^n overflows floats long before
    n=64, the expanded form never does.  Its difference cancels as n grows
    (to 0 at n = 10^16), so n is capped at MAX_N, which keeps p in (1, 2]
    and c = n/p finite; HoelderParams then checks p (_check_p).
    """
    if not 2 <= n <= MAX_N:
        raise ValueError(f"exponent requires 2 <= n <= {MAX_N} (n=1 has a 0/0 exponent), got {n}")
    ln_n = math.log(n)
    p = (n * ln_n - (n - 1) * math.log(n - 1)) / ln_n
    return HoelderParams(n=n, p=p, r=p - 1.0, c=n / p)


def lp_norms(x: np.ndarray, p: float) -> np.ndarray:
    """(sum |x|^p)^(1/p) along the last axis of a float64 array, which is
    left as it is; p >= 1.

    The passes run in place on a fresh |x|.  Exact zeros would take
    numpy's slow pow path: they enter as 1.0 (1^p = 1) and are taken off
    again."""
    a = np.abs(x)
    zeros = a == 0
    a += zeros
    a **= p
    a -= zeros
    return np.sum(a, axis=-1) ** (1.0 / p)


def family_to_functions(family: SetFamily, n: int) -> list[CubeFunction]:
    """Encode a set family as n indicator functions whose corner
    convolution counts disjoint-union tuples.

    f_1 = ... = f_{n-1} = indicator that the subset lies in the family;
    f_n(S) = indicator that the complement of S lies in the family.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    m = family.m
    first = CubeFunction.indicator(m, family.members)
    last = CubeFunction.indicator(m, family.members ^ ((1 << m) - 1))
    return [first] * (n - 1) + [last]
