"""Test oracles that share no code with the kernels they check, and a switch
that sends exact results down the CRT path."""

from __future__ import annotations

import itertools
import math

from cubeconv.core import CubeFunction, SetFamily

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


def product_family(x: SetFamily, y: SetFamily) -> SetFamily:
    """X x Y = {A | (B << m_X)} on m_X + m_Y elements, in Python ints.  A
    tuple of X x Y splits into one of X and one of Y, so count(X x Y, n) =
    count(X, n) * count(Y, n), and |X x Y| = |X| * |Y|."""
    # B major, then A: the masks come out strictly increasing
    return SetFamily(x.m + y.m, [a | b << x.m for b in y.members.tolist() for a in x.members.tolist()])


def force_crt(monkeypatch):
    """Make every exact result take the CRT path with three moduli: a
    bound of 2^100 needs 2^64 and two primes."""
    from cubeconv import transform

    evaluate = transform._evaluate
    monkeypatch.setattr(transform, "_evaluate", lambda residue, bound: evaluate(residue, max(bound, 2**100)))
