"""Domain types for functions on the Hamming cube, set families, and the
sharp Hoelder exponent.

A point of {0,1}^m is identified with a subset of {1,..,m} stored as an
m-bit integer (element i <-> bit i-1, little-endian).  Cube functions are
dense read-only tables of 2^m values, either floats ("real" flavor) or
exact integers ("int" flavor).
"""

from __future__ import annotations

import decimal
import functools
import numbers
from dataclasses import dataclass, field

import numpy as np

# The size rule: ground sets of at most MAX_M elements, and budgets of a
# full-support float64 rank table at m = 23 (24 x 2^23 x 8 B = 1.5 GiB):
# three for a fold plan's peak, so all of m <= 23 fits, and one for draws.
MAX_M = 24
RANK_TABLE_BUDGET = 24 * 8 << 23
# exponent(n) admits 2 <= n <= MAX_N, which bounds the work an n buys: an
# n-fold count or corner runs n - 1 rank products, and `count` at an n near
# MAX_N takes about 46 s (README).
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
        table = _table(self.table, self.flavor)
        if table.shape != (1 << self.m,):
            raise ValueError(f"need exactly {1 << self.m} values, got shape {table.shape}")
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


# By flavor: the numpy kinds taken in one pass, the table dtype, the numbers taken, and the refusal's name.
_FLAVORS = {REAL: ("biuf", np.float64, numbers.Real, "real"), INT: ("bi", np.int64, numbers.Integral, "integer")}


def _table(values, flavor: str) -> np.ndarray:
    """A fresh table: float64 in real flavor; int64 in integer flavor, or Python ints past 64 bits.
    Refuses a value that is no real number (a string, None, 1j) or no integer (a float, even 2.0), as
    the flavor takes, and a real number past float64."""
    kinds, dtype, number, name = _FLAVORS[flavor]
    table = values if isinstance(values, np.ndarray) else np.array(values)
    if table.dtype.kind in kinds:  # one pass for a numeric ndarray or a list that numpy reads as one
        return np.array(table, dtype=dtype)
    table = np.array(values, dtype=object)  # as given: numpy reads [2**63, 0] as float64 and ['1.5'] as text
    types = set(map(type, table.flat))
    bad = [t for t in types if not issubclass(t, number)]
    if bad:
        raise ValueError(f"{name} flavor refuses {next(v for v in table.flat if type(v) in bad)!r}")
    try:
        return table.astype(dtype)
    except OverflowError:  # past float64, which real flavor refuses, or past int64, kept as an object table
        if flavor == REAL:  # only an int or a fraction can be past float64, so the largest of them is
            big = max((v for v in table.flat if isinstance(v, numbers.Rational)), key=abs)
            raise ValueError(f"real flavor refuses {big!r}") from None
    if types != {int}:  # Python ints only: numpy would add an np.int64 to a big int in C, and overflow
        table.flat = [int(v) for v in table.flat]
    return table


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
    raises ValueError, naming `what` and its bytes, if `batch` do not."""
    need = entry * batch
    if need > RANK_TABLE_BUDGET:
        raise ValueError(f"{what} needs {need} bytes, over the rank-table budget of {RANK_TABLE_BUDGET} bytes")
    return RANK_TABLE_BUDGET // max(entry, 1)


@functools.cache
def exponent(n: int) -> float:
    """Sharp exponent p_n = [n ln n - (n-1) ln(n-1)] / ln n for 2 <= n <= MAX_N,
    correctly rounded to float64.

    The form is evaluated in 60 decimal digits, where `decimal` rounds each
    ln correctly and the difference loses fewer than 4 of them, then rounded
    once by float()."""
    if not 2 <= n <= MAX_N:
        raise ValueError(f"exponent requires 2 <= n <= {MAX_N} (n=1 has a 0/0 exponent), got {n}")
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        d = decimal.Decimal(int(n) if isinstance(n, numbers.Integral) else n)  # numpy ints too
        ln_n = d.ln()
        return float((d * ln_n - (d - 1) * (d - 1).ln()) / ln_n)


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
    table = np.zeros(1 << family.m, dtype=np.int64)
    table[family.members] = 1
    first = CubeFunction(family.m, table, INT)
    return [first] * (n - 1) + [CubeFunction(family.m, table[::-1], INT)]  # S^c = (2^m - 1) - S
