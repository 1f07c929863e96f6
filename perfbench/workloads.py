"""The benchmark's workloads.

Each workload turns a seed into inputs for cubeconv (the set-up) and a
fixed list of calls that one pass makes.  Every call carries an oracle
that shares no code with the kernel it checks; the oracle is evaluated
once, after set-up and outside every timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from math import comb, factorial
from typing import Callable

import numpy as np


@dataclass
class CliResult:
    rc: int
    stdout: str
    stderr: str


def run_cli(cc, argv: list[str]) -> CliResult:
    """One `cubeconv` invocation through cli.main with stdout captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cc.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad argv this way
            rc = exc.code if isinstance(exc.code, int) else 2
    return CliResult(rc, out.getvalue(), err.getvalue())


@dataclass
class Op:
    """One closed-loop call.  `call(cc)` goes through the cubeconv modules
    in `cc` by attribute lookup, so the traced run's wrappers see it."""

    label: str
    call: Callable
    expect: Callable[[], object]  # oracle value, computed once
    agrees: Callable[[object, object], bool]  # (output, expected) -> ok
    largest: bool = False


def _report(output) -> dict | None:
    """The JSON report of a CLI call that exited 0, else None."""
    if not isinstance(output, CliResult) or output.rc != 0 or output.stderr:
        return None
    lines = output.stdout.splitlines()
    return json.loads(lines[0]) if len(lines) == 1 else None


# ---------------------------------------------------------------------------
# mc-sweep: `verify` over the acceptance criterion-3 grid.

MC_NS = range(2, 6)
MC_MS = range(1, 9)
MC_DISTRIBUTIONS = (("uniform",), ("exponential",), ("sparse",), ("sparse", "--signed"))
MC_TRIALS = 1024  # one verifier chunk per cell
# Sparse draws often give every function a one-point support, an equality
# case of the inequality, where float rounding reads max_ratio as
# 1 + 4e-16.  Allow the verifier's own relative tolerance above 1.
MAX_RATIO = 1.0 + 1e-9


def _trials_agree(output, expected: dict) -> bool:
    report = _report(output)
    if report is None or report.get("mode") != "trials":
        return False
    if any(report.get(key) != value for key, value in expected.items()):
        return False
    ratio = report.get("max_ratio")
    return report.get("failures") == 0 and ratio is not None and ratio <= MAX_RATIO


def mc_sweep(cc, seed: int, workdir: str) -> list[Op]:
    rng = random.Random(f"mc-sweep:{seed}")
    ops = []
    # One sweep of the grid per distribution, so the four largest-size
    # calls sit a quarter pass apart and do not share one slow spell.
    for dist in MC_DISTRIBUTIONS:
        for n in MC_NS:
            for m in MC_MS:
                cell_seed = rng.getrandbits(32)
                argv = ["verify", "--n", str(n), "--m", str(m), "--trials", str(MC_TRIALS)]
                argv += ["--seed", str(cell_seed), "--distribution", *dist]
                expected = {
                    "n": n,
                    "m": m,
                    "trials": MC_TRIALS,
                    "seed": cell_seed,
                    "distribution": dist[0],
                    "signed": "--signed" in dist,
                }
                ops.append(
                    Op(
                        label=" ".join(argv),
                        call=lambda cc, argv=argv: run_cli(cc, argv),
                        expect=lambda expected=expected: expected,
                        agrees=_trials_agree,
                        largest=(n, m) == (max(MC_NS), max(MC_MS)),
                    )
                )
    return ops


# ---------------------------------------------------------------------------
# count-ladder: `count` on the layered extremal families.

LADDER = [(3, t) for t in range(1, 8)] + [(4, t) for t in range(1, 6)]


def _extremal_closed_form(n: int, t: int) -> dict:
    """Members are the t-sets and the (n-1)t-sets of an nt-set.  A counted
    tuple picks the (n-1)t-set (C(nt,(n-1)t) ways) and splits it into an
    ordered list of n-1 blocks of size t (multinomial)."""
    big = (n - 1) * t
    return {
        "count": comb(n * t, big) * factorial(big) // factorial(t) ** (n - 1),
        "family_size": comb(n * t, t) + comb(n * t, big),
        "m": n * t,
        "holds": True,
    }


def _count_agrees(output, expected: dict) -> bool:
    report = _report(output)
    return report is not None and all(report.get(k) == v for k, v in expected.items())


def _relabel(masks, perm: list[int]) -> list[int]:
    """Apply the ground-set permutation element i -> perm[i] to each mask."""
    src = np.fromiter(masks, dtype=np.int64, count=len(masks))
    out = np.zeros_like(src)
    for i, j in enumerate(perm):
        out |= ((src >> i) & 1) << j
    return out.tolist()


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def count_ladder(cc, seed: int, workdir: str) -> list[Op]:
    rng = random.Random(f"count-ladder:{seed}")
    largest = max(LADDER, key=lambda nt: nt[0] * nt[1])
    ops = []
    for n, t in LADDER:
        family = cc.counting.extremal_family(n, t)
        perm = list(range(family.m))
        rng.shuffle(perm)
        family = cc.core.SetFamily.from_masks(family.m, _relabel(family.members, perm))
        path = _write(workdir, f"ladder_n{n}_t{t}.txt", cc.cli.serialize_family(family))
        argv = ["count", "--family", path, "--n", str(n)]
        ops.append(
            Op(
                label=f"count n={n} t={t}",
                call=lambda cc, argv=argv: run_cli(cc, argv),
                expect=lambda n=n, t=t: _extremal_closed_form(n, t),
                agrees=_count_agrees,
                largest=(n, t) == largest,
            )
        )
    return ops


# ---------------------------------------------------------------------------
# exact-fallback: the Python-int kernels.

FALLBACK_N = 6
FALLBACK_M = 14
FALLBACK_SIZE = 3000  # |X|^n far above 2^62, so `count` leaves the int64 path
FALLBACK_FAMILIES = 4
ZETA_M = 16
CONV_M = 12
TRANSFORM_REPS = 3
ZETA_PROBES = 8  # masks at which zeta is checked against a submask sum


def _disjoint_tuple_count(masks: list[int], m: int, n: int) -> int:
    """Sparse subset DP: ways[u] = ordered (n-1)-tuples of pairwise
    disjoint members with union u; the count sums ways over members."""
    ways = np.zeros(1 << m, dtype=np.int64)
    ways[0] = 1
    for _ in range(n - 1):
        reached = np.nonzero(ways)[0]
        nxt = np.zeros_like(ways)
        for a in masks:
            u = reached[(reached & a) == 0]
            nxt[u | a] += ways[u]  # u -> u|a is injective on sets disjoint from a
        ways = nxt
    return int(ways[np.asarray(masks)].sum())


def _submasks(s: int):
    sub = s
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & s


def _roundtrip(cc, f):
    g = cc.transform.zeta(f)
    return g, cc.transform.moebius(g)


def _roundtrip_agrees(output, expected: dict) -> bool:
    if not isinstance(output, tuple):
        return False
    g, back = output
    return back.values == expected["f"] and all(g.values[s] == v for s, v in expected["zeta"].items())


def _convolve_brute(f, g, m: int) -> tuple:
    """h(S) = sum over A subset of S of f(A) g(S \\ A): all 3^m pairs."""
    return tuple(sum(f[a] * g[s ^ a] for a in _submasks(s)) for s in range(1 << m))


def _convolve_agrees(output, expected: tuple) -> bool:
    return getattr(output, "values", None) == expected


def exact_fallback(cc, seed: int, workdir: str) -> list[Op]:
    rng = random.Random(f"exact-fallback:{seed}")
    int_flavor = cc.core.INT
    ops = []
    # Counts and transforms alternate, so the four largest-size calls are
    # spread over the pass.
    for k in range(max(FALLBACK_FAMILIES, TRANSFORM_REPS)):
        if k < FALLBACK_FAMILIES:
            masks = rng.sample(range(1 << FALLBACK_M), FALLBACK_SIZE)
            family = cc.core.SetFamily.from_masks(FALLBACK_M, masks)
            path = _write(workdir, f"random_{k}.txt", cc.cli.serialize_family(family))
            argv = ["count", "--family", path, "--n", str(FALLBACK_N)]
            ops.append(
                Op(
                    label=f"count n={FALLBACK_N} m={FALLBACK_M} family={k}",
                    call=lambda cc, argv=argv: run_cli(cc, argv),
                    expect=lambda masks=masks: {
                        "count": _disjoint_tuple_count(masks, FALLBACK_M, FALLBACK_N),
                        "family_size": FALLBACK_SIZE,
                    },
                    agrees=_count_agrees,
                    largest=True,
                )
            )
        if k < TRANSFORM_REPS:
            values = [rng.randint(-1000, 1000) for _ in range(1 << ZETA_M)]
            f = cc.core.CubeFunction(ZETA_M, values, int_flavor)
            probes = [(1 << ZETA_M) - 1] + [rng.getrandbits(ZETA_M) for _ in range(ZETA_PROBES - 1)]
            ops.append(
                Op(
                    label=f"zeta+moebius m={ZETA_M} fn={k}",
                    call=lambda cc, f=f: _roundtrip(cc, f),
                    expect=lambda f=f, probes=probes: {
                        "f": f.values,
                        "zeta": {s: sum(f.values[a] for a in _submasks(s)) for s in probes},
                    },
                    agrees=_roundtrip_agrees,
                )
            )
            a, b = (
                cc.core.CubeFunction(CONV_M, [rng.randint(-100, 100) for _ in range(1 << CONV_M)], int_flavor)
                for _ in range(2)
            )
            ops.append(
                Op(
                    label=f"subset_convolve m={CONV_M} pair={k}",
                    call=lambda cc, a=a, b=b: cc.transform.subset_convolve(a, b),
                    expect=lambda a=a, b=b: _convolve_brute(a.values, b.values, CONV_M),
                    agrees=_convolve_agrees,
                )
            )
    return ops


WORKLOADS = {
    "mc-sweep": mc_sweep,
    "count-ladder": count_ladder,
    "exact-fallback": exact_fallback,
}
