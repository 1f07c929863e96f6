"""The fold plan, pinned without arrays, its peak against the budget and
against measured memory, and its two callers: the corner convolution and
subset_convolve run the same plan and executor."""

import functools
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from cubeconv import core, transform, verifier
from cubeconv.core import INT, REAL, CubeFunction, SetFamily, popcounts
from cubeconv.counting import count_disjoint_tuples, extremal_family
from cubeconv.transform import _fit_fold, _fold_plan, batch_corner_value, corner_convolution, subset_convolve
from oracles import force_crt


def spy(monkeypatch):
    """Record the ranks of each zeta table (from arrays or from a family's
    members), each count's readout weights, each Moebius butterfly and
    each rank product built."""
    built = {"zeta": [], "readout": [], "moebius": [], "product": []}

    def record(name, kind):
        original = getattr(transform, name)

        def run(*args, **kwargs):
            out = original(*args, **kwargs)
            built[kind].append(out[0] if isinstance(out, tuple) else args[4])  # a readout: the ranks kept
            return out

        monkeypatch.setattr(transform, name, run)

    record("_batch_ranked_zeta", "zeta")
    record("_member_zeta", "zeta")
    record("_member_readout", "readout")
    record("_batch_rank_mult", "product")
    butterfly = transform._batch_zeta_inplace

    def moebius(a, m, inverse=False, ranks=None, floors=None):
        if inverse:
            built["moebius"].append(ranks)
        butterfly(a, m, inverse, ranks, floors)

    monkeypatch.setattr(transform, "_batch_zeta_inplace", moebius)
    return built


@pytest.mark.parametrize(
    "n,t,tables,products",
    [
        (12, 2, [[2]] * 11, [[k] for k in range(4, 24, 2)]),  # 10 products per pass
        (8, 3, [[3]] * 7, [[k] for k in range(6, 24, 3)]),
        (6, 4, [[4]] * 5, [[8], [12], [16], [20]]),
        (4, 6, [[6]] * 3, [[12], [18]]),
        (3, 8, [[8]] * 2, [[16]]),
    ],
)
def test_plans_of_the_layered_counts_at_m24(n, t, tables, products):
    """The layered family of n, t: every factor on ranks {t, (n-1)t}, and
    f_n(S^c) needs the same ranks of h.  Every table and product is one
    row, so the peak is 5: the table array's row, the product array's row
    and 3 scratch rows (a product's block scratch is 1 row); 671 MB at
    m=24, against 335 MB (n=3) and 430 MB measured before a count had
    its own plan.  A count's plan is 4: one row holds its int32 table and
    readout rows, and the product array and block scratch fit in 3."""
    layers = [t, (n - 1) * t]
    assert _fold_plan([layers] * (n - 1), layers, 24) == (tables, products, 5)
    assert transform._count_plan(layers, n - 1, 24) == (tables[0], products, 4)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_the_full_support_corner_peaks_at_two_tables(n):
    """verify's fold: n-1 distinct factors on every rank.  Its table array
    and its product array of m+1 rows each, and 3 scratch rows (a block
    scratch is 1 row at m >= 19), fit one trial at m=23 and not two; at
    m=24 (53 rows) not one."""
    full = {m: range(m + 1) for m in (23, 24)}
    peaks = [_fold_plan([list(full[m]) for _ in range(n - 1)], full[m], m)[2] for m in (23, 24)]
    assert peaks == [51, 53]
    assert _fit_fold(51, 23) == 1
    for peak, m, batch in [(51, 23, 2), (53, 24, 1)]:
        with pytest.raises(ValueError, match=f"^a fold plan of {peak} rank rows x 2\\^{m} masks x {batch} needs"):
            _fit_fold(peak, m, batch)


def today_admits(tables, m: int, batch: int = 1) -> bool:
    """The per-table rule that the plan's budget replaced, in Python ints:
    every zeta table and product alone within one RANK_TABLE_BUDGET."""
    return all((len(ranks) * 8 << m) * batch <= core.RANK_TABLE_BUDGET for ranks in tables)


def plan_admits(peak: int, m: int, batch: int = 1) -> bool:
    return (peak * 8 << m) * batch <= 3 * core.RANK_TABLE_BUDGET


def test_nothing_that_ran_before_the_plan_budget_is_refused():
    """verify at its former chunk (a table of m+1 ranks, and the draws, each
    within one budget), every layered count, and every full-support
    subset_convolve that fit the per-table rule fit the plan's budget.
    For n >= 3 verify's chunk grows by at most half: the plan holds two
    tables where the rule had three in mind.  n=2 sizes its chunk from a
    one-factor plan, so it runs at m=24, and no chunk grows past three
    former ones (at m=23 the draw budget alone would fit 12 trials)."""
    budget = core.RANK_TABLE_BUDGET
    for n, m, planes in itertools.product(range(2, 6), range(1, 24), (1, 2)):
        chunk = min(1024, budget // ((m + 1) * 8 << m), budget // (planes * n * 8 << m))
        assert chunk >= 1
        config = verifier.TrialConfig(n, m, 1, 0, "sparse" if planes == 2 else "uniform")
        fit = min(1024, verifier._fit_trials(config))
        assert chunk <= fit <= (3 * chunk // 2 if n > 2 else 3 * chunk)
        if n > 2:
            full = range(m + 1)
            tables, products, peak = _fold_plan([list(full) for _ in range(n - 1)], full, m)
            assert today_admits(tables + products, m, chunk) and plan_admits(peak, m, chunk)
    for n, t in itertools.product(range(3, 25), range(1, 25)):
        if n * t <= 24:
            layers = [t, (n - 1) * t]
            tables, products, peak = _fold_plan([layers] * (n - 1), layers, n * t)
            assert today_admits(tables + products, n * t) and plan_admits(peak, n * t)
    for m in range(1, 24):
        tables, products, peak = _fold_plan([list(range(m + 1)), list(range(m + 1))], range(m + 1), m)
        assert today_admits(tables + products, m) and plan_admits(peak, m)
    assert verifier._fit_trials(verifier.TrialConfig(2, 24, 1, 0)) == 1


def test_a_count_plans_no_more_rows_than_its_fold_did():
    """A count holds its int32 table and readout rows, two to a row, and no
    last product, where the fold that counted before held int64 tables,
    every product and Moebius-inverted the last.  The count's plan is at
    most the fold's for every layered family, for the family CI counts at
    m=24 (ranks 4, 12, 20), for every two-rank support at m=24 and for
    the largest count plan (36 rows, the budget) that a search found among
    m=24 supports whose fold plan the budget admits.  On other m=24
    supports (the only m where the budget binds) it is over only where its
    last product has 5 or more ranks than its largest table: by one row in
    this sample, by up to 3 in a search (21 rows against 18).  Below m=16
    the cast rows of a block (a quarter to a half of the masks) can put it
    further over, by 7 rows for the full support at m=14 (43 against 36),
    far inside the budget there.  No sampled plan that the fold's budget
    admitted is refused."""
    cases = [([t, (n - 1) * t], n - 1, n * t) for n in range(3, 25) for t in range(1, 24 // n + 1)]
    cases += [([4, 12, 20], 5, 24), ([1, 2, 6, 7, 8, 9, 10, 11, 13, 14, *range(16, 25)], 6, 24)]
    cases += [([a, b], k, 24) for a, b in itertools.combinations(range(25), 2) for k in (2, 5)]
    for support, k, m in cases:
        assert transform._count_plan(support, k, m)[2] <= _fold_plan([support] * k, support, m)[2]
    rng = random.Random("count-plan")
    for _ in range(3000):
        m, k = rng.choice([24, rng.randint(1, 23)]), rng.randint(2, 24)
        support = sorted(rng.sample(range(m + 1), rng.randint(1, m + 1)))
        tables, products, fold_peak = _fold_plan([support] * k, support, m)
        peak = transform._count_plan(support, k, m)[2]
        if peak > fold_peak and m == 24:
            assert peak == fold_peak + 1 and len(products[-1]) >= max(map(len, tables)) + 5
        assert plan_admits(peak, m) or not plan_admits(fold_peak, m)


def memory_cases():
    """(m, call, input bytes) at m <= 18: layered and random counts, batched
    float corners, and subset_convolve of real and of int64 functions."""
    rng = np.random.default_rng(18)
    for n, t in [(3, 6), (4, 4), (6, 3), (9, 2), (3, 5)]:
        family = extremal_family(n, t)
        yield n * t, lambda family=family, n=n: count_disjoint_tuples(family, n), family.members.nbytes
    for m, n, density in [(12, 3, 1.0), (14, 4, 0.1), (16, 3, 0.05), (13, 5, 0.5), (18, 3, 0.001)]:
        family = SetFamily(m, np.flatnonzero(rng.random(1 << m) < density))
        yield m, lambda family=family, n=n: count_disjoint_tuples(family, n), family.members.nbytes
    for m, n, batch in [(12, 3, 4), (10, 5, 16), (14, 4, 2), (16, 3, 1)]:
        fs = rng.random((n, batch, 1 << m)) * (rng.random((n, batch, 1 << m)) < 0.5)
        yield m, lambda fs=fs, m=m: batch_corner_value(fs, m), fs.nbytes
    for m, flavor in itertools.product((12, 14, 16), (REAL, INT)):
        f, g = (CubeFunction(m, rng.integers(-9, 10, 1 << m), flavor) for _ in range(2))
        # an int pass reduces every input to a residue copy
        yield m, lambda f=f, g=g: subset_convolve(f, g), (f.table.nbytes + g.table.nbytes) * (1 + (flavor == INT))


@functools.cache
def memory_corpus() -> list:
    return list(memory_cases())


@pytest.mark.parametrize("case", range(20))
def test_the_measured_peak_is_within_the_plan(monkeypatch, case):
    """tracemalloc's peak of each call is at most the largest planned fold
    (peak rows x 2^m x batch x 8 B, as _fold checks it) plus its inputs and
    their residue copies.  Outside rows, a product step also holds one
    block of at most _BLOCK values, and the interpreter a few objects."""
    assert len(memory_corpus()) == 20
    m, call, inputs = memory_corpus()[case]
    planned = []

    def fit(peak, m, batch=1):
        planned.append((peak * 8 << m) * batch)
        return _fit_fold(peak, m, batch)

    monkeypatch.setattr(transform, "_fit_fold", fit)
    popcounts(m)  # built once per process, so not by call
    tracemalloc.start()
    try:
        call()
        measured = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert planned and measured <= max(planned) + inputs + 8 * transform._BLOCK + (1 << 14)


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
    tables, products, _ = _fold_plan(supports, need, m)
    assert tables == [sorted({c[j] for c in useful}) for j in range(len(supports))]
    assert products == [sorted({sum(c[: j + 1]) for c in useful}) for j in range(1, len(supports))]
    assert products[-1] == sorted({sum(c) for c in useful})


@pytest.mark.parametrize("crt", [False, True], ids=["wrapped", "crt"])
@pytest.mark.parametrize("n,t", [(6, 2), (4, 3), (12, 1), (5, 4)])
def test_a_count_builds_its_tables_once_and_its_products_once_a_pass(monkeypatch, n, t, crt):
    """f_1 = ... = f_(n-1) is tabulated once and the readout weights of the
    last product's rank are built once, whatever the pass count; each pass
    builds the planned products.  No Moebius transform runs but the
    readout's one butterfly, on the complements' rank t."""
    layers = [t, (n - 1) * t]
    tables, products, _ = _fold_plan([layers] * (n - 1), layers, n * t)
    built = spy(monkeypatch)
    if crt:
        force_crt(monkeypatch)
    count, kernel = transform.indicator_power_sum(extremal_family(n, t), n - 1)
    assert count == math.comb(n * t, (n - 1) * t) * math.factorial((n - 1) * t) // math.factorial(t) ** (n - 1)
    assert kernel == ("int64-crt3" if crt else "int64")
    passes = 3 if crt else 1
    assert built == {
        "zeta": tables[:1],
        "readout": [[(n - 1) * t]],
        "moebius": [[t]],
        "product": products * passes,
    }


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
    want = {"zeta": [[0, 1, 2, 3], [3, 4, 5, 6]], "readout": [], "moebius": [[3, 4, 5, 6]], "product": [[3, 4, 5, 6]]}
    assert built == want
    for s in range(1 << m):
        subs = [a for a in range(1 << m) if a & s == a]
        want = sum(f.values[a] * g.values[s ^ a] for a in subs)
        assert h.values[s] == (want if flavor == INT else pytest.approx(want, rel=1e-12, abs=1e-12))
