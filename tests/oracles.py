"""Test oracles that share no code with the kernels they check."""

from __future__ import annotations

import itertools
import math

from cubeconv.core import CubeFunction

# Brute-force corner enumeration walks n^m labeled coordinate assignments.
BRUTE_TERM_CAP = 10**8


def corner_brute(fs: list[CubeFunction]):
    """Enumerate assignments of each coordinate to one of the n labeled
    blocks; n^m terms, guarded."""
    n, m = len(fs), fs[0].m
    if n**m > BRUTE_TERM_CAP:
        raise ValueError(f"brute-force corner needs n^m = {n**m} > {BRUTE_TERM_CAP} terms")
    total = fs[0].values[0] * 0
    for assign in itertools.product(range(n), repeat=m):
        masks = [0] * n
        for coord, j in enumerate(assign):
            masks[j] |= 1 << coord
        total += math.prod(f.values[mask] for f, mask in zip(fs, masks))
    return total
