"""Zeta/Moebius transforms on the subset lattice and fast disjoint-union
(subset) convolution, scalar and batched.

The fast route is the classic ranked transform: tabulate the zeta
transform per subset cardinality, multiply rank polynomials pointwise,
invert.  Every flavor runs on one numpy kernel: real flavor on float64,
integer flavor exactly on int64 residues, in one pass that wraps mod 2^64
and, when a bound on |result| needs more, passes mod primes p below 2^31
joined by the Chinese remainder theorem.  A prime pass adds each rank
product term, below p^2 < 2^62, to its row, below p, and reduces the row
at once, so no int64 wraps.

One fold serves every convolution: _fold_plan picks, in Python ints, the
ranks each table and product holds, those that reach a wanted rank of h,
and _fold runs the plan's rank products.  subset_convolve wants every
rank; the corner, sum_S h(S) f_n(S^c), wants the ranks that f_n meets and
only reads f_n; both invert the last product.  indicator_power_sum sums h
over a family's members with no inversion: it reads the last product out
against weights built once a count, the adjoint of the Moebius transform.

Rank tables are mask-major, (ranks, 2^m, trials...).  The kernel works in
cache-sized pieces and skips only adds of exact zeros and outputs nothing
reads (see _batch_zeta_inplace and _batch_rank_mult), so float64 results
are the same bit for bit as a full kernel's, and a trial's value does not
depend on its batch.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

from . import core
from .core import REAL, CubeFunction, SetFamily, popcounts

# Modulus of the first residue pass: int64 arithmetic wraps around mod 2^64.
WORD = 2**64

# Rank-product block in positions (masks x trials): 128 KB operands stay in L2.
_BLOCK = 1 << 14
# Ranked zeta rows smaller than this (positions) share each butterfly pass.
_GROUP = 1 << 16
# Butterfly runs of at most this many positions are added a lane (one strided op) at a time: at
# m=21 one op over runs of 2, 4 and 8 took 14, 8 and 4.5 ms, lanes 1.9, 3.5 and 6.8 ms.
_LANES = 4


@functools.cache
def _prime(i: int) -> int:
    """The i-th prime below 2^31, counting down from 2^31 - 1.  Residues
    stay below 2^31, so every product of two fits in int64."""
    p = _prime(i - 1) - 2 if i else 2**31 - 1
    while any(p % d == 0 for d in range(3, math.isqrt(p) + 1, 2)):
        p -= 2
    return p


def _residues(a: np.ndarray, mod: int | None) -> np.ndarray:
    """`a` reduced mod `mod` as int64; mod None keeps the int64 bits, which
    are `a` mod 2^64, and returns an int64 `a` itself."""
    if a.dtype == object:
        return (a % (mod or WORD)).astype(np.uint64).view(np.int64)
    return a if mod is None else a % mod


def _mass(a: np.ndarray) -> tuple[int, int]:
    """(sum |a|, max |a|) as exact Python ints."""
    mag = np.abs(a) if a.dtype == object else np.abs(a).view(np.uint64)  # the view reads |-2^63| as 2^63
    peak = int(mag.max())
    if a.dtype == object or peak * mag.size < WORD:  # Python ints, or one uint64 sum cannot wrap
        return int(mag.sum()), peak
    # Sum the high and low 32-bit halves apart so neither sum overflows.
    return (int((mag >> 32).sum()) << 32) + int((mag & 0xFFFFFFFF).sum()), peak


def _evaluate(residue, bound: int) -> tuple[np.ndarray, str]:
    """The exact integer result of a kernel, given B = bound >= |result|
    and residue(mod), the result mod `mod` as int64 (mod None: the wrapped
    int64 pass, mod 2^64); returns it and the name of the path taken.

    The wrapped pass is exact when 2B < 2^64; otherwise prime passes join
    until the moduli multiply past 2B, and the CRT rebuilds each value."""
    limit = 2 * bound
    value = np.atleast_1d(residue(None))
    if limit < WORD:
        return value, "int64"
    value, modulus, count = value.view(np.uint64).astype(object), WORD, 1
    while modulus <= limit:
        p = _prime(count - 1)
        # Garner step: value + modulus * t also matches this pass mod p.
        step = (np.atleast_1d(residue(p)) - (value % p).astype(np.int64)) % p
        t = step * pow(modulus % p, -1, p) % p
        value = value + modulus * t.astype(object)
        modulus, count = modulus * p, count + 1
    return np.where(value > modulus // 2, value - modulus, value), f"int64-crt{count}"


def _evaluate_functions(fs: list[CubeFunction], kernel, bound) -> tuple[np.ndarray, str]:
    """Run kernel(arrays, mod=...) on the tables of fs, which must share
    fs[0]'s m and flavor; return the result array and the name of the path
    taken.  The kernel allocates with its inputs' dtype: float64 in real
    flavor, int64 residues in integer.

    Real flavor runs once on float64 and refuses non-finite values.
    Integer flavor is exact (_evaluate): bound() maps each function's
    (sum |f|, max |f|) to B >= |result|."""
    for f in fs[1:]:
        if f.m != fs[0].m:
            raise ValueError(f"ground-set size mismatch: {fs[0].m} != {f.m}")
        if f.flavor != fs[0].flavor:
            raise ValueError(f"flavor mismatch: {fs[0].flavor!r} vs {f.flavor!r}")
    tables = [f.table for f in fs]
    if fs[0].flavor == REAL:
        if not all(np.isfinite(t).all() for t in tables):  # the trimmed kernels skip +-0 x a finite value
            raise ValueError("real-flavor values must be finite")
        return kernel(tables, mod=None), "float64"
    masses = [_mass(t) for t in tables]
    return _evaluate(lambda mod: kernel([_residues(t, mod) for t in tables], mod=mod), bound(masses))


# ---------------------------------------------------------------------------
# The reshape kernel: inputs (..., 2^m), rank tables (ranks, 2^m, ...); with
# `mod` set, int64 inputs in [0, mod) give outputs in [0, mod).


def _batch_zeta_inplace(a: np.ndarray, m: int, inverse: bool = False, ranks=None, floors=None):
    """Sum over subsets along axis 1 of a (rows, 2^m, ...) array, in place,
    C-contiguous or with its mask axis reversed; inverse=True is Moebius.

    With `ranks`, row j has rank r = ranks[j].  Without `floors`, a row
    holds inputs on r-element masks only (a zeta row, or a count's readout
    row); with them, it is a rank product's row, +0.0 on masks of fewer
    than floors[j] elements and read only at r-element masks (a Moebius
    row).  Rows run in groups of up to _GROUP positions (or alone), so a
    group stays in cache.  At bit b, with H the k = m-1-b bits above b,
    the source (H, 0, L) sums inputs with high part H and fewer than floor
    (default r) elements when |H| < floor - b, so it is +0.0; a source of
    r-element inputs is also zero when |H| > r, and a product row's target
    (H, 1, L) with |H| > r-1 is never read.  So the butterfly runs only on
    floor - b <= |H| <= r (r-1 for a product row): H in [2^(floor-b) - 1,
    ((2^r - 1) << (k-r)) + 1) (a group: the union of its rows' slices).
    Subtracting +0.0 changes no value; a skipped add of +0.0 could only
    turn a -0.0 target, an input not yet added to, into +0.0.  The full
    butterfly first adds to an input at its lowest bit b, where |H| = r-1:
    inside the slice if b >= 1, and the slice at b = 0 starts one lower.
    So every value read is byte-identical."""
    op = np.subtract if inverse else np.add
    trials = math.prod(a.shape[2:])
    if ranks is None:
        lows, highs, per = [0] * len(a), [m] * len(a), max(1, len(a))
    else:
        lows, highs = floors or ranks, [r - (floors is not None) for r in ranks]
        per = max(1, _GROUP // max(trials << m, 1))
    for j in range(0, len(a), per):
        rows, low, high = a[j : j + per], min(lows[j : j + per]), max(highs[j : j + per])
        for b in range(m):
            k = m - 1 - b
            lo = (1 << max(low - max(b, 1), 0)) - 1
            hi = min(1 << k, (((1 << high) - 1) << max(k - high, 0)) + 1) if high >= 0 else 0
            v = rows.reshape(len(rows), 1 << k, 2, trials << b)[:, lo:hi]
            for w in [v[..., i] for i in range(trials << b)] if trials << b <= _LANES else [v]:
                op(w[:, :, 1], w[:, :, 0], out=w[:, :, 1])


def _rank_slots(ranks: list[int], m: int, masks=None) -> tuple[np.ndarray, np.ndarray]:
    """(rows, masks): the masks (of `masks`, default all 2^m) whose rank is
    in `ranks`, and the row of each in a table that holds just those ranks."""
    pc = popcounts(m)
    row = np.full(m + 1, -1)
    row[ranks] = np.arange(len(ranks))
    if masks is None:
        masks = np.flatnonzero((row >= 0)[pc])  # a gather of 1-byte bools, not of int64 rows
    else:
        masks = masks[(row >= 0)[pc[masks]]]
    return row[pc[masks]], masks


def _rank_support(a: np.ndarray, m: int) -> list[int]:
    """The sorted ranks r at which (..., 2^m) `a` is nonzero at some
    r-element mask in some batch entry."""
    return _ranks(np.any(a != 0, axis=tuple(range(a.ndim - 1))), m)


def _ranks(masks: np.ndarray, m: int) -> list[int]:
    """The sorted ranks of `masks` (ints, or bools over 2^m), a byte a mask."""
    ranks = popcounts(m)[masks]
    return [r for r in range(m + 1) if (ranks == r).any()]


def _batch_ranked_zeta(a: np.ndarray, m: int, mod=None, ranks=None, out=None):
    """(..., 2^m) -> (ranks, table): `ranks` (default the rank support of
    `a`) and the per-rank zeta tables of those ranks, mask-major with
    shape (len(ranks), 2^m, ...), built at the start of the flat array
    `out` (default a fresh one).  A 1-D `a` gives (len(ranks), 2^m)."""
    ranks = _rank_support(a, m) if ranks is None else ranks
    rows, masks = _rank_slots(ranks, m)
    shape = (len(ranks), 1 << m) + a.shape[:-1]
    table = (np.empty(math.prod(shape), a.dtype) if out is None else out)[: math.prod(shape)].reshape(shape)
    table.fill(0)
    table[rows, masks] = np.moveaxis(a, -1, 0)[masks]  # the gather transposes
    _batch_zeta_inplace(table, m, ranks=ranks)  # at most 2^m * mod < 2^53 before reducing
    if mod:
        table %= mod
    return ranks, table


def _member_rows(members: np.ndarray, m: int, ranks: list[int]) -> np.ndarray:
    """The indicator of the `members` (distinct int64 masks) of each rank in
    `ranks`, one int32 row a rank, scattered from the members."""
    rows, masks = _rank_slots(ranks, m, members)
    table = np.zeros((len(ranks), 1 << m), dtype=np.int32)
    table[rows, masks] = 1
    return table


def _member_zeta(members: np.ndarray, m: int, ranks: list[int]):
    """(ranks, table): the ranked zeta table of the indicator of `members`,
    int32.  Its values are at most 2^m <= 2^24, below every modulus, so
    every residue pass reads it as it is."""
    table = _member_rows(members, m, ranks)
    _batch_zeta_inplace(table, m, ranks=ranks)
    return ranks, table


def _member_readout(members: np.ndarray, m: int, ranks: list[int]):
    """(ranks, table): the readout weights of `members`, int32: row j, of
    rank r = ranks[j], holds g(T) = (-1)^(r-|T|) #{A member of rank r : A
    contains T}, so that sum_T P(T) g(T) is the Moebius transform of P
    summed at the r-element members, and |g| <= 2^m.  g at T is the
    subset Moebius transform of the members' complements, which lie on
    rank m - r, at T^c: one trimmed butterfly a row, run on the row
    reversed, a view that holds mask T^c at position T."""
    table = _member_rows(members, m, ranks)
    _batch_zeta_inplace(table[:, ::-1], m, inverse=True, ranks=[m - r for r in ranks])
    return ranks, table


def _sumset(a, b, keep) -> list[int]:
    """The sorted ranks i + j, i in a and j in b, that are in `keep`."""
    return sorted({i + j for i in a for j in b}.intersection(keep))


def _batch_rank_mult(a, b, m: int, mod=None, keep=None, out=None, weights=None):
    """Product of two (ranks, table[, floors]) rank polynomials; returns
    (ranks, table, floors).  Builds the ranks k in the sumset of the
    supports that are in `keep` (default 0 .. m); row k sums a_i *
    b_(k-i) over the live pairs in ascending i, from 0.  A row is zero on
    masks with fewer elements than its floor: r for a zeta row of rank r
    (the default), else the least over its terms of their factors' larger.
    The table is float64 for float64 factors and int64 for integer ones
    (a count's zeta rows are int32), built at the start of the flat array
    `out` (default a fresh one), which may hold a's table: the product
    then overwrites it.  With `weights`, int32 rows at the product's ranks
    (no trials axis), no table is written: it returns the readout, sum_k
    sum_T P_k(T) weights_k(T) (_readout).

    Blocks of 2^c masks (about _BLOCK positions with their trials, at most
    half the masks) are built one at a time in a scratch array, so the
    operands stay in cache, and written to `out` (or read out) after their
    last read.  Block g holds the masks with high part g, and a term needs
    only those from low part 2^(floor - |g|) - 1 on.  A skipped term is
    +-0 times a finite value, and a sum from +0.0 never turns -0.0, so
    results are bit-identical.  Under `mod` each term is added and its row
    reduced in place: the row is below mod <= 2^31 - 1 and the term below
    mod^2 < 2^62, so the sum does not wrap, and a k-term row takes k
    remainders."""
    (ranks_a, table_a, *floors_a), (ranks_b, table_b, *floors_b) = a, b
    floors_a, floors_b = (floors_a or [ranks_a])[0], (floors_b or [ranks_b])[0]
    slot_b = {r: j for j, r in enumerate(ranks_b)}
    ranks = _sumset(ranks_a, ranks_b, range(m + 1) if keep is None else keep)
    pairs = [[(ia, slot_b[k - i]) for ia, i in enumerate(ranks_a) if k - i in slot_b] for k in ranks]
    floors = [[max(floors_a[ia], floors_b[ib]) for ia, ib in terms] for terms in pairs]
    trials = math.prod(table_a.shape[2:])
    c = min(m - 1, (_BLOCK // max(trials, 1) or 1).bit_length() - 1)
    size = trials << c
    # (rows, positions) views, sized explicitly: a table may have no rows
    flat_a, flat_b = (t.reshape(len(t), trials << m) for t in (table_a, table_b))
    dtype = np.promote_types(table_a.dtype, np.int64)  # float64 stays, int32 and int64 give int64
    if weights is None:
        entries = len(ranks) * trials << m
        table = (np.empty(entries, dtype=dtype) if out is None else out)[:entries]
        table = table.reshape((len(ranks),) + table_a.shape[1:])
        flat_out = table.reshape(len(ranks), trials << m)
    total = 0
    block = np.empty((len(ranks) + 1, size), dtype=dtype)  # the block's rows, and a term
    term = block[-1]
    # int32 factor rows (a count's zeta table) are cast to int64 a block at a time, once for a squared table:
    # numpy multiplies two int32 operands in int32 even into an int64 `out`, and casting in every term's
    # multiply would cost more
    factors = [flat_a] if table_b is table_a else [flat_a, flat_b]
    casts = [np.empty((len(f), size), dtype) if f.dtype != dtype else None for f in factors]
    for g in range(1 << (m - c)):
        start, base = size * g, g.bit_count()
        rows = [_cast(f[:, start : start + size], cast) for f, cast in zip(factors, casts)]
        rows_a, rows_b = rows[0], rows[-1]
        block[:-1] = 0
        for acc_row, terms, row_floors in zip(block, pairs, floors):
            for (ia, ib), floor in zip(terms, row_floors):
                lo = trials * ((1 << (floor - base)) - 1) if floor > base else 0
                if lo < size:
                    t, acc = term[lo:], acc_row[lo:]  # names: += in place
                    np.multiply(rows_a[ia, lo:], rows_b[ib, lo:], out=t)
                    acc += t
                    if mod:
                        acc %= mod
        if weights is None:
            flat_out[:, start : start + size] = block[:-1]
        else:
            total += _readout(block[:-1], weights[:, start : start + size], mod, term)
    if weights is not None:
        return np.array([total % (mod or WORD)], dtype=np.uint64).view(np.int64)
    return ranks, table, [min(row_floors) for row_floors in floors]


def _cast(view: np.ndarray, cast) -> np.ndarray:
    """`view`, or with `cast` (an array of its shape) its values copied there."""
    if cast is None:
        return view
    cast[...] = view
    return cast


def _readout(rows: np.ndarray, weights: np.ndarray, mod, term: np.ndarray) -> int:
    """sum of rows * weights, int64 rows (below `mod` if set) and int32
    weights of one shape, a power of two of masks, as a Python int that is
    exact mod `mod` (None: mod 2^64, summed in uint64); `term` is one row
    of scratch.  Under a prime p < 2^31 a term is below 2^31 * 2^24 = 2^55
    in magnitude, so int64 sums of 2^8 terms do not wrap; each is reduced."""
    total = 0
    for row, weight in zip(rows, weights):
        np.multiply(row, weight, out=term)
        if mod:
            total += int((term.reshape(-1, min(len(term), 256)).sum(axis=1) % mod).sum())
        else:
            total += int(term.view(np.uint64).sum())
    return total


def _fold_plan(supports: list[list[int]], need, m: int):
    """(tables, products, peak): the ranks of each factor's zeta table and
    of each product f_1 * ... * f_j (j >= 2) in a fold of factors with rank
    supports `supports`, wanted at the ranks in `need`, and a bound on the
    rows _fold holds at once.  A rank is kept only if the other factors
    bring it to a needed one."""
    rests = [[0]]  # rests[i]: the ranks of the product of the last i factors
    for s in reversed(supports[1:]):
        rests.append(_sumset(rests[-1], s, range(m + 1)))
    tables, products = [], [[0]]
    for s, rest in zip(supports, reversed(rests)):
        keep = _sumset(need, [-r for r in rest], range(m + 1))  # the ranks that rest brings into need
        tables.append(_sumset(keep, [-r for r in products[-1]], s))
        products.append(_sumset(products[-1], tables[-1], keep))
    # the table array (every table but the first), the product array (the first table, products[1], and every
    # product), and a product's block scratch or 3 rows to tabulate or read (README)
    peak = max(map(len, tables[1:]), default=0) + max(map(len, products[1:])) + max(3, _block_rows(products[2:], m))
    return tables, products[2:], peak


def _block_rows(products: list[list[int]], m: int, casts: int = 0) -> int:
    """The largest block scratch of the `products` (its rows and a term, and
    `casts` rows of int32 factors cast to int64, at batch 1, where it is
    largest), in rows of 2^m masks, rounded up."""
    block = min(1 << (m - 1), _BLOCK)
    return max([((len(p) + 1 + casts) * block - 1 >> m) + 1 for p in products], default=0)


def _fit_fold(peak: int, m: int, batch: int = 1) -> int:
    """fit_budget for a fold plan's `peak` rows over 2^m masks, in three budgets."""
    row, budget = peak * 8 << m, 3 * core.RANK_TABLE_BUDGET
    if row * batch > budget:
        what = f"a fold plan of {peak} rank rows x 2^{m} masks x {batch}"
        raise ValueError(f"{what} needs {row * batch} bytes, over the rank-table budget of {budget} bytes")
    return budget // row


# A thread keeps its batched folds' arrays while they total at most this: a piece of verify's criterion-3
# grid (n <= 5, m <= 8) needs at most 18 MiB on two CPUs (512 trials) and 36 MiB on one (1024 trials).
KEEP_BYTES = 36 << 20
_kept = threading.local()  # each thread's buffer, kept from batched fold to batched fold


def _fold_arrays(arrays, sizes: list[int]) -> list[np.ndarray]:
    """The table and product arrays, flat, of `sizes` values of the
    factors' dtype.  A batched fold (factors with a trials axis) takes
    views of the calling thread's buffer, grown as needed, so it reuses
    pages already mapped; any other fold, or one over KEEP_BYTES, gets
    fresh arrays, kept by no one."""
    dtype = arrays[0].dtype
    nbytes = sum(sizes) * dtype.itemsize
    if arrays[0].ndim == 1 or nbytes > KEEP_BYTES:
        return [np.empty(size, dtype=dtype) for size in sizes]
    kept = vars(_kept).setdefault("buffer", np.empty(0, dtype=np.uint8))
    if kept.size < nbytes:
        kept = _kept.buffer = np.empty(nbytes, dtype=np.uint8)
    flat = kept[:nbytes].view(dtype)
    return [flat[: sizes[0]], flat[sizes[0] :]]


def _fold(tables, products: list[list[int]], m: int, mod, held, weights=None):
    """The rank products of a fold plan (_fold_plan): f_1 * ... * f_j at
    the ranks products[j - 2], from the factors' zeta tables, which
    `tables` yields in turn, (ranks, table) each, the j-th once product
    j - 2 is built.  Each product overwrites the last in the flat array
    `held`.  Returns the last product, (ranks, table, floors), or with
    `weights`, its readout (_batch_rank_mult)."""
    tables = iter(tables)
    prod = next(tables)
    for built, table in zip(products[:-1], tables):
        prod = _batch_rank_mult(prod, table, m, mod, built, held)
    return _batch_rank_mult(prod, next(tables), m, mod, products[-1], held, weights)


def _convolve(arrays, m: int, mod, need) -> np.ndarray:
    """h (2^m, ...): the subset convolution of two or more (..., 2^m) arrays
    at the masks whose rank is in `need`, 0 elsewhere.  Once _fit_fold
    admits its plan, the fold runs in two arrays (_fold_arrays): a zeta
    table per run of one object in the table array, or, for a first factor
    that the next does not repeat, in the product array, where each
    product overwrites the last; then a trimmed Moebius transform of the
    last product, read at the masks of each row's rank.  A repeated first
    factor has the next one's support, so as many table ranks."""
    supports = []
    for j, a in enumerate(arrays):
        supports.append(supports[-1] if j and a is arrays[j - 1] else _rank_support(a, m))
    tables, products, peak = _fold_plan(supports, need, m)
    batch = math.prod(arrays[0].shape[:-1])
    _fit_fold(peak, m, batch)
    sizes = [max(map(len, rows)) * batch << m for rows in (tables[1:], tables[:1] + products)]
    spare, held = _fold_arrays(arrays, sizes)

    def tabulated():
        prev = None
        for j, (a, ranks) in enumerate(zip(arrays, tables)):
            if a is not prev:
                first = j == 0 and arrays[1] is not a
                table, prev = _batch_ranked_zeta(a, m, mod, ranks, held if first else spare), a
            yield table

    ranks, table, floors = _fold(tabulated(), products, m, mod, held)
    del spare  # freed before the readout's 3 rows, which may then reuse its pages
    _batch_zeta_inplace(table, m, inverse=True, ranks=ranks, floors=floors)
    rows, masks = _rank_slots(ranks, m)
    values = table[rows, masks]
    del rows  # so the readout holds 3 rows: the masks, their values and h
    h = np.zeros(table.shape[1:], dtype=table.dtype)
    h[masks] = values
    return np.remainder(h, mod, out=h) if mod else h


def batch_corner_value(fs, m: int, mod=None) -> np.ndarray:
    """Corner convolution of a batch of function tuples.

    fs has shape (n, ..., 2^m), or is a list of n such arrays; returns
    shape (...).  The corner is the sum over masks S of h(S) f_n(S^c),
    where h = f_1 * ... * f_(n-1) is their subset convolution (h = f_1
    for n = 2, and for n = 1 the corner is f_1 at the full mask), which
    _convolve builds at the ranks i where f_n is nonzero on some (m-i)-set.

    h times f_n reversed along the mask axis is summed by halving the
    mask axis m times.  Every step is elementwise (a BLAS dot would not
    be), and a zero corner reads +0.0 whatever the zero signs of its
    terms, so a trial's value is the same bit for bit in any batch or
    chunk.  Under `mod`, h and the terms are reduced, so the sums stay
    below 2^m * mod.
    """
    n = len(fs)
    if n == 1:
        return fs[0][..., -1] + 0
    last = np.moveaxis(fs[-1][..., ::-1], -1, 0)  # f_n(S^c) at mask S, mask-major
    if n == 2:
        h = np.multiply(np.moveaxis(fs[0], -1, 0), last, out=np.empty(last.shape, dtype=last.dtype))
    else:
        h = _convolve(list(fs[:-1]), m, mod, _rank_support(fs[-1][..., ::-1], m))
        h *= last
    if mod:
        h %= mod
    for b in reversed(range(m)):
        np.add(h[: 1 << b], h[1 << b : 2 << b], out=h[: 1 << b])
    return h[0] % mod if mod else h[0] + 0


def _lattice_transform(f: CubeFunction, inverse: bool) -> CubeFunction:
    def kernel(arrays, mod):
        out = arrays[0][None].copy()
        _batch_zeta_inplace(out, f.m, inverse)
        return out[0] % mod if mod else out[0]

    # Every output is a signed sum of distinct inputs: |out| <= sum |f|.
    out, _ = _evaluate_functions([f], kernel, lambda masses: masses[0][0])
    return CubeFunction(f.m, out, f.flavor)


def zeta(f: CubeFunction) -> CubeFunction:
    """g(S) = sum_{T subset of S} f(T)."""
    return _lattice_transform(f, inverse=False)


def moebius(g: CubeFunction) -> CubeFunction:
    """Inverse of zeta; moebius(zeta(f)) == f identically."""
    return _lattice_transform(g, inverse=True)


def subset_convolve(f: CubeFunction, g: CubeFunction) -> CubeFunction:
    """h(S) = sum over disjoint A, B with A | B = S of f(A) g(B).

    O(2^m m^2) via _convolve at every rank; exact in integer flavor.
    """
    # fixing A fixes B = S \ A, so |h(S)| <= sum|f| max|g|, and likewise swapped: _corner_bound
    out, _ = _evaluate_functions([f, g], functools.partial(_convolve, m=f.m, need=range(f.m + 1)), _corner_bound)
    return CubeFunction(f.m, out, f.flavor)


def corner_convolution(fs: list[CubeFunction], *, with_kernel: bool = False):
    """n-fold convolution of fs evaluated at the all-ones corner:
    the sum of prod_j f_j(x_j) over ordered partitions x_1+..+x_n = 1^m.

    with_kernel=True returns (value, kernel), where kernel names the path
    taken: "float64", "int64" or "int64-crt<k>" (k moduli).
    """
    if not fs:
        raise ValueError("need at least one function")
    out, kernel = _evaluate_functions(fs, functools.partial(batch_corner_value, m=fs[0].m), _corner_bound)
    value = out.item()  # a Python float or int, by flavor
    return (value, kernel) if with_kernel else value


def indicator_power_sum(family: SetFamily, k: int) -> tuple[int, str]:
    """(sum over A in X of h(A), kernel) for the k-fold subset convolution
    h = 1_X * ... * 1_X (k >= 1) of the indicator of the family X: the
    number of k-tuples of disjoint members whose union is a member.

    Exact on int64 residues; kernel names the path as corner_convolution
    does, "int64" or "int64-crt<j>" (j moduli).  A k-tuple fixes its
    union, so the sum is at most |X|^k, the _corner_bound of k + 1
    indicators.

    The int32 zeta table of 1_X and the readout weights (_member_readout)
    are built once, from the members; each pass (one a modulus) runs the
    rank products and reads the last one out against the weights, with no
    Moebius transform and no dense h."""
    members, m = family.members, family.m
    if k == 1:  # h is the indicator
        return len(members), "int64"
    table, products, peak = _count_plan(_ranks(members, m), k, m)
    _fit_fold(peak, m)
    zeta, weights = _member_zeta(members, m, table), _member_readout(members, m, products[-1])
    held = np.empty(max(map(len, products[:-1]), default=0) << m, dtype=np.int64)
    out, kernel = _evaluate(lambda mod: _fold([zeta] * k, products, m, mod, held, weights[1]), len(members) ** k)
    return out.item(), kernel


def _count_plan(support: list[int], k: int, m: int):
    """(table, products, peak) of a count of k factors on `support`: the
    ranks of its zeta table and products (_fold_plan), and the rows it
    holds at once: int32 table and readout rows, two to a row, the product
    array but the last product, which is read out as it is built, and the
    larger of a block scratch, with the table's rows cast, and 3 rows of
    member slots (README)."""
    tables, products, _ = _fold_plan([support] * k, support, m)
    held, block = max(map(len, products[:-1]), default=0), _block_rows(products, m, len(tables[0]))
    return tables[0], products, (len(tables[0]) + len(products[-1]) + 1) // 2 + max(3, held + block)


def _corner_bound(masses) -> int:
    # Fixing the blocks of every f_j but f_k fixes A_k as the complement
    # of their union, so |corner| <= prod_{j != k} sum |f_j| * max |f_k|.
    sums = [total for total, _ in masses]
    return min(math.prod(sums[:k] + sums[k + 1 :]) * peak for k, (_, peak) in enumerate(masses))
