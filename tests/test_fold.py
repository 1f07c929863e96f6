"""The fold plan, pinned without arrays, and its two callers: the corner
convolution and subset_convolve run the same plan and executor."""

import itertools
import random

import numpy as np
import pytest

from cubeconv import transform
from cubeconv.core import INT, REAL, CubeFunction
from cubeconv.counting import count_disjoint_tuples, extremal_family
from cubeconv.transform import _fold_plan, corner_convolution, subset_convolve


def spy(monkeypatch):
    """Record the ranks of each zeta table and each rank product built."""
    built = {"zeta": [], "product": []}
    zeta, mult = transform._batch_ranked_zeta, transform._batch_rank_mult

    def ranked_zeta(*args, **kwargs):
        out = zeta(*args, **kwargs)
        built["zeta"].append(out[0])
        return out

    def rank_mult(*args, **kwargs):
        out = mult(*args, **kwargs)
        built["product"].append(out[0])
        return out

    monkeypatch.setattr(transform, "_batch_ranked_zeta", ranked_zeta)
    monkeypatch.setattr(transform, "_batch_rank_mult", rank_mult)
    return built


@pytest.mark.parametrize(
    "n,t,tables,products",
    [
        (12, 2, [[2]] * 11, [[k] for k in range(4, 24, 2)]),  # 10 products per pass
        (6, 4, [[4]] * 5, [[8], [12], [16], [20]]),
        (4, 6, [[6]] * 3, [[12], [18]]),
        (3, 8, [[8]] * 2, [[16]]),
    ],
)
def test_plans_of_the_layered_counts_at_m24(n, t, tables, products):
    """The layered family of n, t: every factor on ranks {t, (n-1)t}, and
    f_n(S^c) needs the same ranks of h."""
    layers = [t, (n - 1) * t]
    assert _fold_plan([layers] * (n - 1), layers, 24) == (tables, products)


@pytest.mark.parametrize("seed", range(40))
def test_a_plan_holds_exactly_the_ranks_of_the_useful_choices(seed):
    """Brute force over one rank per factor: a choice is useful if its
    ranks sum to a needed one.  Factor j's table holds the j-th ranks of
    the useful choices, and product j their prefix sums to j."""
    rng = random.Random(seed)
    m = rng.randint(1, 6)
    supports = [sorted(rng.sample(range(m + 1), rng.randint(1, m + 1))) for _ in range(rng.randint(2, 4))]
    need = sorted(rng.sample(range(m + 1), rng.randint(0, m + 1)))
    useful = [c for c in itertools.product(*supports) if sum(c) in need]
    tables, products = _fold_plan(supports, need, m)
    assert tables == [sorted({c[j] for c in useful}) for j in range(len(supports))]
    assert products == [sorted({sum(c[: j + 1]) for c in useful}) for j in range(1, len(supports))]
    assert products[-1] == sorted({sum(c) for c in useful})


@pytest.mark.parametrize("n,t", [(6, 2), (4, 3), (12, 1), (5, 4)])
def test_a_count_builds_its_plan_once_per_pass(monkeypatch, n, t):
    """f_1 = ... = f_(n-1) is tabulated once, then the planned products."""
    layers = [t, (n - 1) * t]
    tables, products = _fold_plan([layers] * (n - 1), layers, n * t)
    built = spy(monkeypatch)
    count_disjoint_tuples(extremal_family(n, t), n)
    passes = len(built["zeta"])
    assert passes >= 1 and built == {"zeta": tables[:1] * passes, "product": products * passes}


def signed_zero_draws(rng, m):
    """Normal values, about 30% of them -0.0."""
    return np.where(rng.random(1 << m) < 0.3, -0.0, rng.standard_normal(1 << m))


@pytest.mark.parametrize("m", range(1, 7))
def test_the_corner_against_an_indicator_reads_subset_convolve(m):
    """With f_3 the indicator of T^c, the corner of (f, g, f_3) is h(T) for
    h = f * g: the corner builds h at rank |T| only, subset_convolve at
    every rank, and the two agree bit for bit up to the sign of a zero."""
    rng = np.random.default_rng(m)
    full = (1 << m) - 1
    for _ in range(5):
        f, g = (CubeFunction(m, signed_zero_draws(rng, m), REAL) for _ in range(2))
        h = subset_convolve(f, g).table + 0.0
        for mask in range(1 << m):
            indicator = CubeFunction(m, [float(s == full ^ mask) for s in range(1 << m)], REAL)
            corner = corner_convolution([f, g, indicator]) + 0.0
            assert np.float64(corner).tobytes() == h[mask].tobytes()


@pytest.mark.parametrize("flavor", [INT, REAL])
def test_subset_convolve_tabulates_only_the_ranks_that_reach_m(monkeypatch, flavor):
    """f on every rank, g only on ranks >= 3: ranks of f above m - 3 meet
    no rank of g within m, so they are never tabulated."""
    m, rng = 6, random.Random(f"reach:{flavor}")
    draw = (lambda: rng.randint(-9, 9) or 1) if flavor == INT else (lambda: rng.uniform(0.5, 1.0))
    f = CubeFunction(m, [draw() for _ in range(1 << m)], flavor)
    g = CubeFunction(m, [draw() if s.bit_count() >= 3 else 0 * draw() for s in range(1 << m)], flavor)
    built = spy(monkeypatch)
    h = subset_convolve(f, g)
    assert built == {"zeta": [[0, 1, 2, 3], [3, 4, 5, 6]], "product": [[3, 4, 5, 6]]}
    for s in range(1 << m):
        subs = [a for a in range(1 << m) if a & s == a]
        want = sum(f.values[a] * g.values[s ^ a] for a in subs)
        assert h.values[s] == (want if flavor == INT else pytest.approx(want, rel=1e-12, abs=1e-12))
