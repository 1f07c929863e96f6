"""Randomized and structured checks of the corner-convolution norm
inequality, its two-point form, the product lemma, and equality
witnesses.

All randomness is counter-based: trial i draws from a splitmix64 stream
keyed by mix(mix(seed) + i), so serial, chunked, and parallel runs
produce identical values.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .core import (
    REAL,
    CubeFunction,
    HoelderParams,
    check_m,
    exponent,
    fit_budget,
    fit_rank_table,
    lp_norms,
    popcounts,
)
from .transform import batch_corner_value

# Both sides of a check can be ~0, so pass/fail combines a relative and
# an absolute floor.
REL_TOL = 1e-9
ABS_TOL = 1e-12

DISTRIBUTIONS = ("uniform", "exponential", "sparse")

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
# Draws per RNG slab: its uint64 state and scratch (256 KB each) stay in L2.
_SLAB = 1 << 15
# A chunk is split across CPUs only into pieces of at least this many drawn
# values (trials x n x 2^m).  On a 2-core host, halving a smaller chunk (a
# few ms of work) saved at most a quarter of it while the second core was
# free and cost up to a tenth while it was busy; halving the n=5, m=8 chunk
# saves about a third.  At 1024 trials and n <= 5, every m <= 6 is serial.
_MIN_PIECE = 1 << 18


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer of z + golden, in place on uint64 z; returns z."""
    tmp = np.empty_like(z)
    z += _GOLDEN
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= np.right_shift(z, np.uint64(shift), out=tmp)
        z *= np.uint64(mult)
    z ^= np.right_shift(z, np.uint64(31), out=tmp)
    return z


def trial_uniforms(seed: int, trial_indices: np.ndarray, slots: int, start: int = 0) -> np.ndarray:
    """Uniform[0,1) draws in slots start .. start+slots-1, shape
    (len(trial_indices), slots).

    Draw (i, j) is a pure function of (seed, i, j): slot j of the
    splitmix64 stream whose key is mix(mix(seed) + i).  The draws are
    made in place on slabs of whole trials, about _SLAB draws each, and
    written into one float64 output, bit for bit as one pass would.
    """
    per_slab = max(1, _SLAB // max(slots, 1))
    out = np.empty((len(trial_indices), slots))
    keys = _mix64(_mix64(np.full(1, seed, dtype=np.uint64)) + trial_indices.astype(np.uint64))
    steps = np.arange(start + 1, start + slots + 1, dtype=np.uint64) * _GOLDEN
    for t0 in range(0, len(out), per_slab):
        z = _mix64(keys[t0 : t0 + per_slab, None] + steps)
        z >>= np.uint64(11)
        # below 2^53 the int64 view is the same number, and converts faster
        np.multiply(z.view(np.int64), 2.0**-53, out=out[t0 : t0 + per_slab])
    return out


@dataclass(frozen=True)
class TrialConfig:
    n: int
    m: int
    trials: int
    seed: int
    distribution: str = "uniform"
    density: float = 0.25  # sparse only: P(value != 0)
    signed: bool = False

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        check_m(self.m)
        if self.trials < 1:
            raise ValueError(f"need trials >= 1, got {self.trials}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2^64), got {self.seed}")
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if not 0.0 < self.density <= 1.0:
            raise ValueError(f"density must be in (0, 1], got {self.density}")


@dataclass(frozen=True)
class InequalityCheck:
    lhs: float
    rhs: float
    ratio: float | None
    passed: bool


def _passes(lhs, rhs):
    """The pass/fail rule of every check, for floats or arrays alike."""
    return lhs <= rhs * (1.0 + REL_TOL) + ABS_TOL


def _verdict(lhs: float, rhs: float) -> InequalityCheck:
    return InequalityCheck(
        lhs=lhs,
        rhs=rhs,
        ratio=lhs / rhs if rhs > 0 else None,
        passed=_passes(lhs, rhs),
    )


def check_main_inequality(fs: list[CubeFunction], params: HoelderParams) -> InequalityCheck:
    """Corner convolution against the product of p_n norms."""
    if len(fs) != params.n:
        raise ValueError(f"expected {params.n} functions, got {len(fs)}")
    if any(f.flavor != REAL for f in fs):
        raise ValueError("main inequality checks run in real flavor")
    if any(f.m != fs[0].m for f in fs):
        raise ValueError(f"ground-set size mismatch: {[f.m for f in fs]}")
    # A list, not a stacked array: a repeated function (equality_witness)
    # stays one array, so the corner tabulates it once.
    lhs, rhs = _sides([f.table for f in fs], fs[0].m, params.p)
    return _verdict(lhs.item(), rhs.item())


def check_two_point(u, v, params: HoelderParams) -> InequalityCheck:
    """One-dimensional form: sum_j u_j prod_{i != j} v_i versus the
    product of two-point p_n norms.  Signed inputs allowed."""
    u, v, p = list(u), list(v), params.p
    if len(u) != params.n or len(v) != params.n:
        raise ValueError(f"expected {params.n} values per side")
    lhs = sum(u[j] * math.prod(v[i] for i in range(params.n) if i != j) for j in range(params.n))
    rhs = math.prod((abs(a) ** p + abs(b) ** p) ** (1.0 / p) for a, b in zip(u, v))
    return _verdict(lhs, rhs)


def _power_sum(x: list, p: float) -> float:
    """(sum x_i^(1/p))^p of nonnegative x_i."""
    return sum(v ** (1.0 / p) for v in x) ** p


def check_lemma_mine(x, params: HoelderParams) -> InequalityCheck:
    """(sum x_i^(1/p))^p <= prod (1 + x_i) for nonnegative x_i."""
    x = list(x)
    if any(v < 0 for v in x):
        raise ValueError("lemma check needs nonnegative inputs")
    lhs = _power_sum(x, params.p)
    rhs = math.prod(1.0 + v for v in x)
    return _verdict(lhs, rhs)


def check_p_monotonicity(x, p_low: float, p_high: float) -> bool:
    """The map p -> (sum x_i^(1/p))^p is nondecreasing."""
    if not 1.0 <= p_low <= p_high:
        raise ValueError(f"need 1 <= p_low <= p_high, got ({p_low}, {p_high})")
    x = list(x)
    if any(v < 0 for v in x):
        raise ValueError("needs nonnegative inputs")
    return _passes(_power_sum(x, p_low), _power_sum(x, p_high))


def equality_witness(n: int, m: int) -> list[CubeFunction]:
    """Tensor lift of the sharp two-point configuration: each f_j is the
    coordinate-wise product of g with g(0) = 1, g(1) = (1/(n-1))^(1/p_n).
    The main inequality is tight on this input.

    Orientation matters: in each corner term exactly one function per
    coordinate is evaluated at 1, so the small value must sit at g(1)
    for the per-coordinate value ratio to hit the tight configuration.
    """
    check_m(m)  # before the 2^m values are built
    p = exponent(n).p  # which refuses n < 2
    w = (1.0 / (n - 1)) ** (1.0 / p)
    powers = np.array([w**k for k in range(m + 1)])  # w^|S| depends on |S| alone
    return [CubeFunction(m, powers[popcounts(m)], REAL)] * n


def _draw_functions(config: TrialConfig, trial_indices: np.ndarray) -> np.ndarray:
    """Function tables for a chunk of trials, shape (n, chunk, 2^m).

    Three uniform planes per trial feed value, sparsity gate, and sign,
    in that fixed slot order, so adding options never shifts draws.  A
    plane is drawn only when the distribution or `signed` reads it.
    """
    size = 1 << config.m
    plane = config.n * size

    def draw(k: int) -> np.ndarray:  # plane k: 0 value, 1 gate, 2 sign
        u = trial_uniforms(config.seed, trial_indices, plane, start=k * plane)
        return u.reshape(len(trial_indices), config.n, size)

    x = draw(0)
    if config.distribution != "uniform":
        x = np.negative(np.log1p(np.negative(x, out=x), out=x), out=x)  # -log1p(-u)
        if config.distribution == "sparse":
            np.multiply(x, draw(1) < config.density, out=x)  # x >= 0, so x * False is +0.0
    if config.signed:  # x -> -x where the sign draw is >= 0.5: flip the sign bit
        sign = (draw(2) >= 0.5).astype(np.uint64)
        sign <<= np.uint64(63)
        x.view(np.uint64)[...] ^= sign
    return np.moveaxis(x, 1, 0)


def _fit_draws(config: TrialConfig) -> int:
    """The most trials whose draws fit the size rule: n x 2^m float64
    values, plus one transient plane as large for the sparse gate or the
    sign.  Raises ValueError, naming the bytes, when one trial does not."""
    planes = 1 + (config.distribution == "sparse" or config.signed)
    what = f"a trial's draw of {planes} planes x {config.n} functions x 2^{config.m} values"
    return fit_budget(what, planes * config.n * 8 << config.m)


def _sides(tables, m: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """lhs and rhs of every check: the corner of the function tables over
    2^m masks, and the product of their p-norms.  `tables` is n arrays of
    shape (..., 2^m), or one (n, ..., 2^m) array; neither is written.
    Refuses what the JSON report cannot say, in this order: a norm
    product that overflows float64, then a corner that underflows or
    overflows it.  So a run whose norms overflow computes no corner."""
    with np.errstate(over="ignore", invalid="ignore"):
        # one call a function; a lone table gets an outer axis of 1, so it
        # sums to the bits a trial in a batch gets.  The product runs in
        # f_1 .. f_n order.
        rhs = np.prod([lp_norms(np.atleast_2d(t), p) for t in tables], axis=0)
        if not np.all(np.isfinite(rhs)):
            raise ValueError("product of the norms overflows float64")
        try:  # a corner that underflows would read 0, pass on ABS_TOL and measure no ratio
            with np.errstate(under="raise"):  # the corner alone
                lhs = batch_corner_value(tables, m)
        except FloatingPointError:
            raise ValueError("corner convolution underflows float64") from None
    if not np.all(np.isfinite(lhs)):
        raise ValueError("corner convolution overflows float64")
    return lhs, rhs


# The helper pool of each process, by pid.  Its threads live as long as
# the process, so their allocations reuse one malloc arena; a fresh thread
# for each chunk would open another.  A fork child inherits the parent's
# pool, not its threads, so it makes its own.  (An os.register_at_fork
# hook would instead keep every imported copy of this module alive.)
_pools: dict = {}  # pid -> concurrent.futures.ThreadPoolExecutor


def _split_sides(config: TrialConfig, p: float, idx: np.ndarray, cpus: int):
    """_sides of the draws of trials idx in pieces of at least _MIN_PIECE
    drawn values, at most one a CPU, joined in trial order.  The calling
    thread and one pooled helper for each further piece claim pieces in
    turn until none is left, so the caller also computes a piece whose
    helper has not started it (when the host lends that helper's CPU
    elsewhere), and waits for a helper only while a piece is unfinished."""
    pieces = np.array_split(idx, max(1, min(cpus, (len(idx) * config.n << config.m) // _MIN_PIECE)))
    sides: list = [None] * len(pieces)
    claims = itertools.count()  # next() is atomic under the GIL

    def work(i: int) -> None:
        while i < len(pieces):
            sides[i] = _sides(_draw_functions(config, pieces[i]), config.m, p)
            i = next(claims)

    first = next(claims)  # claimed before any helper starts, or a new helper could take every piece
    if len(pieces) > 1 and os.getpid() not in _pools:  # setdefault: first callers at once share one pool
        from concurrent.futures import ThreadPoolExecutor  # here: it loads logging, 0.6 MB that count never uses
        _pools.setdefault(os.getpid(), ThreadPoolExecutor(cpus - 1, thread_name_prefix="cubeconv-helper"))
    helpers = [_pools[os.getpid()].submit(lambda: work(next(claims))) for _ in pieces[1:]]
    work(first)
    for helper in helpers:
        if all(side is not None for side in sides):
            break
        helper.result()  # raises the helper's exception
    return (np.concatenate(side) for side in zip(*sides))


def run_trials(config: TrialConfig, chunk: int = 1024) -> dict:
    """Monte-Carlo sweep of the main inequality; returns a report dict
    with failure count and the largest lhs/rhs ratio observed.  A chunk
    holds no more trials than the size rule allows for rank tables at m+1
    ranks and for draws.  A trial's sides do not depend on its chunk or
    piece, so the report does not depend on the CPU count."""
    p = exponent(config.n).p
    chunk = min(chunk, fit_rank_table(config.m + 1, config.m), _fit_draws(config))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1  # not on macOS
    failures = 0
    max_ratio = float("-inf")
    for start in range(0, config.trials, chunk):
        idx = np.arange(start, min(start + chunk, config.trials))
        lhs, rhs = _split_sides(config, p, idx, cpus)
        failures += int(np.count_nonzero(~_passes(lhs, rhs)))
        pos = rhs > 0
        if np.any(pos):
            max_ratio = max(max_ratio, float(np.max(lhs[pos] / rhs[pos])))
    return {
        "n": config.n,
        "m": config.m,
        "trials": config.trials,
        "seed": config.seed,
        "distribution": config.distribution,
        "density": config.density,
        "signed": config.signed,
        "p": p,
        "rel_tol": REL_TOL,
        "abs_tol": ABS_TOL,
        "failures": failures,
        "max_ratio": max_ratio if max_ratio > float("-inf") else None,
    }
