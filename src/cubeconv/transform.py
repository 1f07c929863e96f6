"""Zeta/Moebius transforms on the subset lattice and fast disjoint-union
(subset) convolution, scalar and batched.

The fast route is the classic ranked transform: tabulate the zeta
transform per subset cardinality, multiply rank polynomials pointwise,
invert.  Every flavor runs on one numpy kernel: real flavor on float64,
integer flavor exactly on int64 residues, in one pass that wraps mod 2^64
and, when a bound on |result| needs more, passes mod primes below 2^31
joined by the Chinese remainder theorem.

One fold serves every convolution: _fold_plan picks, in Python ints, the
ranks each table and product holds, those that reach a wanted rank of h,
and _fold runs the plan.  subset_convolve wants every rank; the corner,
sum_S h(S) f_n(S^c), wants the ranks that f_n meets and only reads f_n;
indicator_power_sum tabulates a set family from its members and reads h
at them.

Rank tables are mask-major, (ranks, 2^m, trials...).  The kernel works in
cache-sized pieces and skips only adds of exact zeros and outputs nothing
reads (see _batch_zeta_inplace and _batch_rank_mult), so float64 results
are the same bit for bit as a full kernel's, and a trial's value does not
depend on its batch.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import REAL, CubeFunction, SetFamily, fit_rank_table, popcounts

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
    """Run kernel(arrays, mod=...) on the tables of fs; return the result
    array and the name of the path taken.  The kernel allocates with its
    inputs' dtype: float64 in real flavor, int64 residues in integer.

    Real flavor runs once on float64 and refuses non-finite values.
    Integer flavor is exact (_evaluate): bound() maps each function's
    (sum |f|, max |f|) to B >= |result|.  A function repeated in fs
    reaches the kernel as one array, so the kernel can tabulate it once."""

    def ordered(arrays: dict) -> list[np.ndarray]:
        return [arrays[id(f)] for f in fs]

    if fs[0].flavor == REAL:
        if not all(np.isfinite(f.table).all() for f in fs):  # the trimmed kernels skip +-0 x a finite value
            raise ValueError("real-flavor values must be finite")
        return kernel([f.table for f in fs], mod=None), "float64"
    arrays = {id(f): f.table for f in fs}
    masses = {key: _mass(a) for key, a in arrays.items()}

    def residue(mod):
        return kernel(ordered({key: _residues(a, mod) for key, a in arrays.items()}), mod=mod)

    return _evaluate(residue, bound(ordered(masses)))


# ---------------------------------------------------------------------------
# The reshape kernel: inputs (..., 2^m), rank tables (ranks, 2^m, ...); with
# `mod` set, int64 inputs in [0, mod) give outputs in [0, mod).


def _batch_zeta_inplace(a: np.ndarray, m: int, inverse: bool = False, ranks=None, floors=None):
    """Sum over subsets along axis 1 of a C-contiguous (rows, 2^m, ...)
    array, in place; inverse=True is Moebius.

    With `ranks`, row j has rank r = ranks[j] and floor floors[j] (default
    r): it is +0.0 on masks of fewer than floor elements, and a zeta row
    holds inputs on r-element masks only, a Moebius row is read only at
    r-element masks.  Rows run in groups of up to _GROUP positions (or
    alone), so a group stays in cache.  At bit b, with H the k = m-1-b
    bits above b, the source (H, 0, L) sums inputs with high part H and
    fewer than floor elements when |H| < floor - b, so it is +0.0; a zeta
    source is also zero when |H| > r, and a Moebius target (H, 1, L) with
    |H| > r-1 is never read.  So the butterfly runs only on floor - b <=
    |H| <= r (r-1 for Moebius): H in [2^(floor-b) - 1, ((2^r - 1) <<
    (k-r)) + 1) (a group: the union of its rows' slices).  A skipped add
    of +0.0 could only turn a -0.0 target, an input not yet added to, into
    +0.0.  The full butterfly first adds to an input at its lowest bit b,
    where |H| = r-1: inside the slice if b >= 1, and the slice at b = 0
    starts one lower.  So every value read is byte-identical."""
    op = np.subtract if inverse else np.add
    trials = math.prod(a.shape[2:])
    if ranks is None:
        lows, highs, per = [0] * len(a), [m] * len(a), max(1, len(a))
    else:
        lows, highs = floors or ranks, [r - inverse for r in ranks]
        per = max(1, _GROUP // (trials << m))
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
    live = np.any(a != 0, axis=tuple(range(a.ndim - 1)))
    return np.flatnonzero(np.bincount(popcounts(m)[live], minlength=m + 1)).tolist()


def _batch_ranked_zeta(a: np.ndarray, m: int, mod=None, ranks=None):
    """(..., 2^m) -> (ranks, table): `ranks` (default the rank support of
    `a`) and the per-rank zeta tables of those ranks, mask-major with
    shape (len(ranks), 2^m, ...).  A 1-D `a` gives (len(ranks), 2^m)."""
    ranks = _rank_support(a, m) if ranks is None else ranks
    fit_rank_table(len(ranks), m, math.prod(a.shape[:-1]))
    rows, masks = _rank_slots(ranks, m)
    out = np.zeros((len(ranks), 1 << m) + a.shape[:-1], dtype=a.dtype)
    out[rows, masks] = np.moveaxis(a, -1, 0)[masks]  # the gather transposes
    _batch_zeta_inplace(out, m, ranks=ranks)  # at most 2^m * mod < 2^53 before reducing
    if mod:
        out %= mod
    return ranks, out


def _member_zeta(members: np.ndarray, m: int, mod, ranks: list[int]):
    """_batch_ranked_zeta of the indicator of `members` (distinct int64
    masks), scattered from the members with no 2^m indicator.  Its values
    are at most 2^m < mod, so `mod` does not reduce them."""
    fit_rank_table(len(ranks), m)
    rows, masks = _rank_slots(ranks, m, members)
    out = np.zeros((len(ranks), 1 << m), dtype=np.int64)
    out[rows, masks] = 1
    _batch_zeta_inplace(out, m, ranks=ranks)
    return ranks, out


def _sumset(a, b, keep) -> list[int]:
    """The sorted ranks i + j, i in a and j in b, that are in `keep`."""
    return sorted({i + j for i in a for j in b}.intersection(keep))


def _batch_rank_mult(a, b, m: int, mod=None, keep=None):
    """Product of two (ranks, table[, floors]) rank polynomials; returns
    (ranks, table, floors).  Builds the ranks k in the sumset of the
    supports that are in `keep` (default 0 .. m); row k sums a_i *
    b_(k-i) over the live pairs in ascending i, from 0.  A row is zero on
    masks with fewer elements than its floor: r for a zeta row of rank r
    (the default), else the least over its terms of their factors' larger.

    Blocks of 2^c masks (about _BLOCK positions with their trials) are
    built one at a time, so the operands stay in cache.  Block g holds the
    masks with high part g, and a term needs only those from low part
    2^(floor - |g|) - 1 on.  A skipped term is +-0 times a finite value,
    and a sum from +0.0 never turns -0.0, so results are bit-identical."""
    (ranks_a, table_a, *floors_a), (ranks_b, table_b, *floors_b) = a, b
    floors_a, floors_b = (floors_a or [ranks_a])[0], (floors_b or [ranks_b])[0]
    slot_b = {r: j for j, r in enumerate(ranks_b)}
    ranks = _sumset(ranks_a, ranks_b, range(m + 1) if keep is None else keep)
    pairs = [[(ia, slot_b[k - i]) for ia, i in enumerate(ranks_a) if k - i in slot_b] for k in ranks]
    floors = [[max(floors_a[ia], floors_b[ib]) for ia, ib in terms] for terms in pairs]
    trials = math.prod(table_a.shape[2:])
    fit_rank_table(len(ranks), m, trials)
    out = np.zeros((len(ranks),) + table_a.shape[1:], dtype=table_a.dtype)
    c = min(m, (_BLOCK // max(trials, 1) or 1).bit_length() - 1)
    # (rows, positions) views, sized explicitly: a table may have no rows
    flat_a, flat_b, flat_out = (t.reshape(len(t), trials << m) for t in (table_a, table_b, out))
    term = np.empty(trials << c, dtype=out.dtype)
    for g in range(1 << (m - c)):
        start, end, base = (trials << c) * g, (trials << c) * (g + 1), g.bit_count()
        for row, terms, row_floors in zip(flat_out, pairs, floors):
            for (ia, ib), floor in zip(terms, row_floors):
                lo = start + trials * ((1 << (floor - base)) - 1) if floor > base else start
                if lo < end:
                    t, acc = term[lo - start :], row[lo:end]  # names, so += stays in place
                    np.multiply(flat_a[ia, lo:end], flat_b[ib, lo:end], out=t)
                    if mod:
                        t %= mod
                    acc += t
            if mod:
                np.remainder(row[start:end], mod, out=row[start:end])
    return ranks, out, [min(row_floors) for row_floors in floors]


def _fold_plan(supports: list[list[int]], need, m: int) -> tuple[list[list[int]], list[list[int]]]:
    """(tables, products): the ranks of each factor's zeta table and of each
    product f_1 * ... * f_j (j >= 2) in a fold of factors with rank supports
    `supports`, wanted at the ranks in `need`.  A rank is kept only if ranks
    of the other factors bring it to a needed one, so none is negative,
    above m or unused, and equal factors in a run get equal tables."""
    rests = [[0]]  # rests[i]: the ranks of the product of the last i factors
    for s in reversed(supports[1:]):
        rests.append(_sumset(rests[-1], s, range(m + 1)))
    tables, products = [], [[0]]
    for s, rest in zip(supports, reversed(rests)):
        keep = _sumset(need, [-r for r in rest], range(m + 1))  # the ranks that rest brings into need
        tables.append(_sumset(keep, [-r for r in products[-1]], s))
        products.append(_sumset(products[-1], tables[-1], keep))
    return tables, products[2:]


def _fold(factors, supports: list[list[int]], need, m: int, mod, tabulate):
    """(ranks, table): the subset convolution f_1 * ... * f_k (k >= 2) at
    the ranks in `need` that it can reach, one row a rank, each row read
    only at masks of its rank.  Runs _fold_plan on the factors' rank
    supports: tabulate(factor, m, mod, ranks) builds a zeta table (one for
    a run of one repeated factor object), products in the zeta domain,
    and a trimmed Moebius transform of the last."""
    tables, products = _fold_plan(supports, need, m)
    prod = prev = None
    for a, ranks, built in zip(factors, tables, [None] + products):
        if a is not prev:
            table, prev = tabulate(a, m, mod, ranks), a
        prod = table if built is None else _batch_rank_mult(prod, table, m, mod, built)
    del table
    ranks, table, floors = prod
    _batch_zeta_inplace(table, m, inverse=True, ranks=ranks, floors=floors)
    return ranks, table


def _convolve(arrays, m: int, mod, need) -> np.ndarray:
    """h (2^m, ...): the subset convolution of two or more (..., 2^m) arrays
    at the masks whose rank is in `need`, 0 elsewhere."""
    supports = []
    for j, a in enumerate(arrays):
        supports.append(supports[-1] if j and a is arrays[j - 1] else _rank_support(a, m))
    ranks, table = _fold(arrays, supports, need, m, mod, _batch_ranked_zeta)
    rows, masks = _rank_slots(ranks, m)
    h = np.zeros(table.shape[1:], dtype=table.dtype)
    h[masks] = table[rows, masks] % mod if mod else table[rows, masks]
    return h


def _member_sum(members: np.ndarray, m: int, k: int, mod) -> np.ndarray:
    """sum over A in `members` of h(A), h the k-fold subset convolution of
    their indicator, mod `mod` (None: wrapped int64).  Nothing but the
    fold's own tables spans 2^m: the supports and the sum read only the
    members."""
    if k == 1:  # h is the indicator
        return np.int64(len(members))
    support = np.flatnonzero(np.bincount(popcounts(m)[members], minlength=m + 1)).tolist()
    ranks, table = _fold([members] * k, [support] * k, support, m, mod, _member_zeta)
    rows, masks = _rank_slots(ranks, m, members)
    values = table[rows, masks]
    if mod:
        values %= mod  # from below 2^m * mod in magnitude into [0, mod), so the sum stays below 2^m * mod
    return values.sum() % mod if mod else values.sum()


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


def _check_compatible(f: CubeFunction, g: CubeFunction):
    if f.m != g.m:
        raise ValueError(f"ground-set size mismatch: {f.m} != {g.m}")
    if f.flavor != g.flavor:
        raise ValueError(f"flavor mismatch: {f.flavor!r} vs {g.flavor!r}")


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
    _check_compatible(f, g)
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
    for f in fs[1:]:
        _check_compatible(fs[0], f)
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
    indicators."""
    members = family.members
    out, kernel = _evaluate(functools.partial(_member_sum, members, family.m, k), len(members) ** k)
    return out.item(), kernel


def _corner_bound(masses) -> int:
    # Fixing the blocks of every f_j but f_k fixes A_k as the complement
    # of their union, so |corner| <= prod_{j != k} sum |f_j| * max |f_k|.
    sums = [total for total, _ in masses]
    return min(math.prod(sums[:k] + sums[k + 1 :]) * peak for k, (_, peak) in enumerate(masses))
