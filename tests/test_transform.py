import contextlib
import io
import itertools
import math
import random
import re
import tracemalloc

import numpy as np
import pytest

from cubeconv import cli, core, transform, verifier
from cubeconv.core import INT, REAL, CubeFunction, SetFamily
from cubeconv.counting import count_disjoint_tuples
from cubeconv.transform import (
    _BLOCK,
    _mass,
    _batch_rank_mult,
    _batch_ranked_zeta,
    _batch_zeta_inplace,
    batch_corner_value,
    corner_convolution,
    moebius,
    subset_convolve,
    zeta,
)
from cubeconv.verifier import TrialConfig, run_trials
from oracles import corner_brute


def submasks(s):
    """All T with T subset of S (independent of the transform DP)."""
    t = s
    while True:
        yield t
        if t == 0:
            return
        t = (t - 1) & s


def zeta_oracle(vals, m):
    return [sum(vals[t] for t in submasks(s)) for s in range(1 << m)]


def convolve_oracle(f, g):
    """Direct disjoint-pair summation, O(3^m)."""
    m = f.m
    out = [0] * (1 << m)
    for s in range(1 << m):
        out[s] = sum(f.values[t] * g.values[s ^ t] for t in submasks(s))
    return out


def random_int_function(rng, m, lo=-9, hi=9):
    return CubeFunction(m, [rng.randint(lo, hi) for _ in range(1 << m)], INT)


def wide_int_function(rng, m, scale=10**12, huge=3):
    """Signed values around +-scale, with `huge` of them at or beyond
    2^64 in absolute value and one at the int64 minimum."""
    vals = [rng.randint(-scale, scale) for _ in range(1 << m)]
    for _ in range(huge):
        vals[rng.randrange(1 << m)] = rng.choice([-1, 1]) * rng.randint(2**64, 2**66)
    vals[rng.randrange(1 << m)] = -(2**63)
    return CubeFunction(m, vals, INT)


def layered_function(rng, m, layers, flavor=INT):
    """Random values on the masks whose size is in `layers`, zero elsewhere."""
    draw = (lambda: rng.randint(-9, 9)) if flavor == INT else (lambda: rng.uniform(-1, 1))
    zero = 0 if flavor == INT else 0.0
    vals = [draw() if s.bit_count() in layers else zero for s in range(1 << m)]
    return CubeFunction(m, vals, flavor)


def random_layers(rng, m):
    return set(rng.sample(range(m + 1), rng.randint(1, min(3, m + 1))))


class TestZetaMoebius:
    def test_zeta_m1(self):
        assert zeta(CubeFunction(1, [1, 1], INT)).values == (1, 2)

    def test_zeta_indicator_of_empty_set(self):
        f = CubeFunction(2, [1, 0, 0, 0], INT)
        assert zeta(f).values == (1, 1, 1, 1)

    def test_moebius_m1(self):
        assert moebius(CubeFunction(1, [1, 2], INT)).values == (1, 1)

    def test_moebius_all_ones(self):
        assert moebius(CubeFunction(2, [1, 1, 1, 1], INT)).values == (1, 0, 0, 0)

    def test_zeta_against_direct_summation(self):
        rng = random.Random(7)
        f = random_int_function(rng, 10)
        assert list(zeta(f).values) == zeta_oracle(f.values, 10)

    def test_roundtrip_exact(self):
        rng = random.Random(11)
        for m in (1, 3, 6, 9, 12):
            f = random_int_function(rng, m, -100, 100)
            assert moebius(zeta(f)).values == f.values

    def test_values_beyond_int64(self):
        rng = random.Random(13)
        for m in (1, 4, 7):
            f = wide_int_function(rng, m, scale=2**63)
            g = zeta(f)
            assert list(g.values) == zeta_oracle(f.values, m)
            assert moebius(g).values == f.values
            signed = [
                sum((-1) ** (s ^ t).bit_count() * f.values[t] for t in submasks(s)) for s in range(1 << m)
            ]
            assert list(moebius(f).values) == signed

    def test_real_flavor_matches_direct_summation(self):
        rng = random.Random(19)
        f = CubeFunction(6, [rng.uniform(-1, 1) for _ in range(64)], REAL)
        for got, want in zip(zeta(f).values, zeta_oracle(f.values, 6)):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        for got, want in zip(moebius(zeta(f)).values, f.values):
            assert got == pytest.approx(want, abs=1e-12)


class TestNonFiniteRealInput:
    """The trimmed kernels skip terms as +-0 times a finite value, so a
    real input holding inf or nan is refused before any kernel runs."""

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_every_real_transform_refuses_it(self, bad):
        f, g = CubeFunction(2, [1.0, bad, 2.0, 3.0]), CubeFunction(2, [1.0, 1.0, 1.0, 1.0])
        calls = [
            lambda: zeta(f),
            lambda: moebius(f),
            lambda: subset_convolve(f, g),
            lambda: subset_convolve(g, f),
            lambda: corner_convolution([f]),
            lambda: corner_convolution([g, f]),
            lambda: corner_convolution([g, g, f]),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="real-flavor values must be finite"):
                call()

    @pytest.mark.parametrize("n", [2, 3])
    def test_a_zero_factor_against_inf_is_refused_at_every_n(self, n):
        # unchecked, the trimmed fold read nan at n=2 and 0.0 at n=3 on these inputs
        zero, mid = CubeFunction(2, [0.0] * 4), CubeFunction(2, [1.0, 2.0, 3.0, 4.0])
        last = CubeFunction(2, [math.inf, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="real-flavor values must be finite"):
            corner_convolution([zero, mid, last][3 - n :])


class TestRankedZeta:
    def test_rank_rows_are_cardinality_restricted_sums(self):
        rng = random.Random(3)
        p = 2**31 - 1
        dense = random_int_function(rng, 5)
        # zero on ranks 0, 2 and 5
        layered = CubeFunction(
            5, [v if s.bit_count() in (1, 3, 4) else 0 for s, v in enumerate(dense.values)], INT
        )
        for f in (dense, layered):
            occupied = sorted({s.bit_count() for s, v in enumerate(f.values) if v})
            a = np.array(f.values, dtype=np.int64)
            ranks, table = _batch_ranked_zeta(a, 5)
            reduced_ranks, reduced = _batch_ranked_zeta(a % p, 5, mod=p)
            assert list(ranks) == list(reduced_ranks) == occupied
            assert table.dtype == reduced.dtype == np.int64
            assert table.shape == reduced.shape == (len(occupied), 32)
            for k in range(6):
                for s in range(32):
                    expected = sum(f.values[t] for t in submasks(s) if t.bit_count() == k)
                    if k in ranks:
                        assert table[ranks.index(k), s] == expected
                        assert reduced[ranks.index(k), s] == expected % p
                    else:
                        assert expected == 0
        assert _batch_ranked_zeta(np.array(layered.values), 5)[0] == [1, 3, 4]

    @pytest.mark.parametrize("mod", [None, 2**31 - 1])
    def test_batch_tables_are_mask_major(self, mod):
        rng = np.random.default_rng(5)
        rank = np.array([s.bit_count() for s in range(32)])
        a = rng.integers(0, 9, size=(4, 32))
        a[0, rank == 2] = 0  # each entry has its own rank support
        a[1, (rank == 0) | (rank == 5)] = 0
        a[3, rank % 2 == 1] = 0
        ranks, table = _batch_ranked_zeta(a, 5, mod)
        assert ranks == list(range(6))
        assert table.dtype == a.dtype
        assert table.shape == (6, 32, 4)
        for t in range(4):
            own_ranks, own = _batch_ranked_zeta(a[t], 5, mod)
            for r in ranks:
                want = own[own_ranks.index(r)] if r in own_ranks else np.zeros(32, np.int64)
                assert np.array_equal(table[r, :, t], want)


class TestSubsetConvolve:
    def test_m1_closed_form(self):
        f = CubeFunction(1, [2, 3], INT)
        g = CubeFunction(1, [5, 7], INT)
        assert subset_convolve(f, g).values == (10, 2 * 7 + 3 * 5)

    def test_all_ones_counts_disjoint_splits(self):
        f = CubeFunction(2, [1, 1, 1, 1], INT)
        h = subset_convolve(f, f)
        assert h.values == tuple(2 ** s.bit_count() for s in range(4))

    @pytest.mark.parametrize("m", [1, 2, 4, 7, 10])
    def test_matches_brute_force(self, m):
        rng = random.Random(100 + m)
        f, g = random_int_function(rng, m), random_int_function(rng, m)
        assert list(subset_convolve(f, g).values) == convolve_oracle(f, g)

    @pytest.mark.parametrize("m", [1, 3, 6])
    def test_values_beyond_int64_match_brute_force(self, m):
        rng = random.Random(200 + m)
        f, g = wide_int_function(rng, m, scale=2**63), wide_int_function(rng, m, scale=2**63)
        assert list(subset_convolve(f, g).values) == convolve_oracle(f, g)

    def test_real_flavor_matches_brute(self):
        rng = random.Random(5)
        m = 6
        f = CubeFunction(m, [rng.uniform(-1, 1) for _ in range(1 << m)], REAL)
        g = CubeFunction(m, [rng.uniform(-1, 1) for _ in range(1 << m)], REAL)
        expected = convolve_oracle(f, g)
        for got, want in zip(subset_convolve(f, g).values, expected):
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_commutative_and_associative(self):
        rng = random.Random(17)
        m = 5
        f, g, h = (random_int_function(rng, m) for _ in range(3))
        assert subset_convolve(f, g).values == subset_convolve(g, f).values
        assert (
            subset_convolve(subset_convolve(f, g), h).values
            == subset_convolve(f, subset_convolve(g, h)).values
        )

    def test_flavor_mismatch_rejected(self):
        with pytest.raises(ValueError):
            subset_convolve(CubeFunction(1, [1, 1], INT), CubeFunction(1, [1.0, 1.0], REAL))

    def test_m_mismatch_rejected(self):
        with pytest.raises(ValueError):
            subset_convolve(CubeFunction(1, [1, 1], INT), CubeFunction(2, [1, 1, 1, 1], INT))

    def test_a_corner_of_no_functions_is_refused(self):
        with pytest.raises(ValueError, match="^need at least one function$"):
            corner_convolution([])


class TestCornerConvolution:
    def test_two_functions_one_coordinate(self):
        f = CubeFunction(1, [1, 1], INT)
        assert corner_convolution([f, f]) == 2
        assert corner_brute([f, f]) == 2

    def test_three_functions_one_coordinate(self):
        f = CubeFunction(1, [1, 1], INT)
        assert corner_convolution([f, f, f]) == 3

    def test_all_ones_counts_labeled_partitions(self):
        f = CubeFunction(2, [1, 1, 1, 1], INT)
        assert corner_brute([f, f, f]) == 9
        assert corner_convolution([f, f, f]) == 9

    @pytest.mark.parametrize("n,m", [(2, 3), (3, 4), (4, 5), (3, 10)])
    def test_fast_equals_brute_integer(self, n, m):
        rng = random.Random(n * 31 + m)
        fs = [random_int_function(rng, m) for _ in range(n)]
        assert corner_convolution(fs) == corner_brute(fs)

    @pytest.mark.parametrize("n,m", [(3, 4), (3, 6), (4, 5), (5, 4), (5, 6)])
    def test_wide_signed_integers_take_crt_and_equal_brute(self, n, m):
        rng = random.Random(n * 57 + m)
        fs = [wide_int_function(rng, m) for _ in range(n)]
        value, kernel = corner_convolution(fs, with_kernel=True)
        assert kernel.startswith("int64-crt")
        assert value == corner_brute(fs)

    def test_signed_int64_values_past_the_word_bound(self):
        # Every value fits int64, but the corner bound (~32 * 5e11)^3 * 1e12
        # is about 2^171: 2^64 times four primes near 2^31 covers twice it.
        rng = random.Random(41)
        fs = [random_int_function(rng, 5, -(10**12), 10**12) for _ in range(4)]
        value, kernel = corner_convolution(fs, with_kernel=True)
        assert kernel == "int64-crt5"
        assert value == corner_brute(fs)

    def test_kernel_names(self):
        f = CubeFunction(2, [1, 1, 1, 1], INT)
        assert corner_convolution([f, f, f], with_kernel=True) == (9, "int64")
        real = CubeFunction(2, [1.0] * 4, REAL)
        assert corner_convolution([real, real], with_kernel=True) == (4.0, "float64")

    def test_word_boundary(self):
        # one wrapped pass is exact only while twice the bound is below 2^64
        top = CubeFunction(1, [0, 2**63 - 1], INT)
        assert corner_convolution([top], with_kernel=True) == (2**63 - 1, "int64")
        bottom = CubeFunction(1, [0, -(2**63)], INT)
        assert corner_convolution([bottom], with_kernel=True) == (-(2**63), "int64-crt2")

    def test_fast_equals_brute_real(self):
        rng = random.Random(23)
        fs = [
            CubeFunction(4, [rng.uniform(-1, 1) for _ in range(16)], REAL) for _ in range(3)
        ]
        fast = corner_convolution(fs)
        brute = corner_brute(fs)
        assert fast == pytest.approx(brute, rel=1e-9, abs=1e-12)

    def test_permutation_invariant(self):
        rng = random.Random(29)
        fs = [random_int_function(rng, 4) for _ in range(4)]
        base = corner_convolution(fs)
        for perm in itertools.permutations(fs):
            assert corner_convolution(list(perm)) == base

    def test_tensor_multiplicativity(self):
        # coordinate-wise products factor into per-coordinate 1-dim corners
        rng = random.Random(31)
        n, m = 3, 4
        pairs = [[(rng.uniform(0.1, 2), rng.uniform(0.1, 2)) for _ in range(m)] for _ in range(n)]
        fs = []
        for j in range(n):
            vals = []
            for s in range(1 << m):
                prod = 1.0
                for c in range(m):
                    prod *= pairs[j][c][s >> c & 1]
                vals.append(prod)
            fs.append(CubeFunction(m, vals, REAL))
        expected = 1.0
        for c in range(m):
            ones = [CubeFunction(1, [pairs[j][c][0], pairs[j][c][1]], REAL) for j in range(n)]
            expected *= corner_convolution(ones)
        assert corner_convolution(fs) == pytest.approx(expected, rel=1e-9)

    def test_single_function_reads_corner(self):
        f = CubeFunction(2, [5, 6, 7, 8], INT)
        assert corner_convolution([f]) == 8
        assert corner_brute([f]) == 8

    def test_brute_guard(self):
        f = CubeFunction(10, [1] * 1024, INT)
        with pytest.raises(ValueError):
            corner_brute([f] * 7)  # 7^10 > 1e8

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("m", range(1, 9))
    def test_real_corner_is_bit_identical_to_the_batch(self, n, m):
        rng = random.Random(f"real-corner:{n}:{m}")

        def draw():
            return CubeFunction(m, [rng.uniform(-2, 2) for _ in range(1 << m)], REAL)

        repeated = draw()
        tuples = [
            [draw() for _ in range(n)],
            [repeated] * n,
            [repeated] * (n - 1) + [draw()],
            [layered_function(rng, m, random_layers(rng, m), REAL) for _ in range(n)],
        ]
        stack = np.array([[f.values for f in fs] for fs in tuples]).transpose(1, 0, 2)
        batch = batch_corner_value(stack, m)
        for t, fs in enumerate(tuples):
            value = corner_convolution(fs)
            assert type(value) is float
            assert np.float64(value).tobytes() == batch[t].tobytes()


class TestRankSparse:
    """Functions that vanish on whole ranks take the trimmed fold."""

    @pytest.mark.parametrize("n,m", [(2, 1), (2, 8), (3, 5), (3, 7), (4, 6), (5, 5)])
    @pytest.mark.parametrize("flavor", [INT, REAL])
    def test_corner_of_layered_functions_equals_brute(self, n, m, flavor):
        rng = random.Random(f"corner-layers:{n}:{m}:{flavor}")
        for _ in range(6):
            fs = [layered_function(rng, m, random_layers(rng, m), flavor) for _ in range(n)]
            fast, brute = corner_convolution(fs), corner_brute(fs)
            if flavor == INT:
                assert fast == brute
            else:
                assert fast == pytest.approx(brute, rel=1e-9, abs=1e-12)

    def test_corner_is_zero_when_no_fold_reaches_rank_m(self):
        rng = random.Random(4)
        fs = [layered_function(rng, 5, {1}) for _ in range(3)]  # ranks add up to 3 < 5
        assert corner_convolution(fs) == corner_brute(fs) == 0
        zero = CubeFunction(5, [0] * 32, INT)
        assert corner_convolution([zero, zero], with_kernel=True) == (0, "int64")
        assert corner_convolution([CubeFunction(5, [0.0] * 32, REAL)] * 3) == 0.0

    @pytest.mark.parametrize("m", [1, 4, 7, 8])
    @pytest.mark.parametrize("flavor", [INT, REAL])
    def test_subset_convolve_of_layered_pairs(self, m, flavor):
        rng = random.Random(f"convolve-layers:{m}:{flavor}")
        for _ in range(4):
            f = layered_function(rng, m, random_layers(rng, m), flavor)
            g = layered_function(rng, m, random_layers(rng, m), flavor)
            got, want = subset_convolve(f, g).values, convolve_oracle(f, g)
            if flavor == INT:
                assert list(got) == want
            else:
                for a, b in zip(got, want):
                    assert a == pytest.approx(b, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    def test_multi_axis_batch_equals_the_flat_batch(self, dtype):
        rng = np.random.default_rng(6)
        n, m = 3, 6
        fs = rng.integers(-5, 6, size=(n, 3, 4, 1 << m)).astype(dtype)
        if dtype == np.float64:
            fs *= rng.exponential(size=fs.shape)
        batch = batch_corner_value(fs, m)
        flat = batch_corner_value(fs.reshape(n, 12, 1 << m), m)
        assert batch.shape == (3, 4)
        assert batch.dtype == flat.dtype == dtype
        assert np.array_equal(batch, flat.reshape(3, 4))

    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    def test_batch_rank_zero_in_some_trials(self, dtype):
        rng = np.random.default_rng(8)
        n, m, trials = 3, 6, 12
        rank = np.array([s.bit_count() for s in range(1 << m)])
        fs = rng.integers(-5, 6, size=(n, trials, 1 << m)).astype(dtype)
        fs[:, :, (rank == 0) | (rank == 5)] = 0  # dead in every trial
        fs[0, ::2, rank == 2] = 0  # dead in the even trials only
        fs[1, 1::3, rank == 3] = 0
        batch = batch_corner_value(fs, m)
        single = [batch_corner_value(fs[:, t : t + 1], m)[0] for t in range(trials)]
        assert np.array_equal(batch, single)
        assert batch.dtype == dtype
        flavor = INT if dtype == np.int64 else REAL
        for t in range(trials):
            cube = [CubeFunction(m, fs[j, t].tolist(), flavor) for j in range(n)]
            assert batch[t] == corner_brute(cube)


class TestAdjointFinish:
    """The corner as sum_S h(S) f_n(S^c): f_n is read, never rank-tabulated,
    and the fold builds only the ranks that f_n can meet."""

    def spy(self, monkeypatch):
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

    @pytest.mark.parametrize("flavor", [INT, REAL])
    def test_need_prunes_the_ranks_the_fold_reaches(self, monkeypatch, flavor):
        rng = random.Random(f"need:{flavor}")
        m = 7
        dense = [layered_function(rng, m, set(range(m + 1)), flavor) for _ in range(2)]
        last = layered_function(rng, m, {3}, flavor)  # f_n(S^c) needs |S| = 4
        built = self.spy(monkeypatch)
        fast = corner_convolution(dense + [last])
        # two zeta tables (none for f_n), each cut to ranks 0..4; one product row
        assert built == {"zeta": [list(range(5))] * 2, "product": [[4]]}
        brute = corner_brute(dense + [last])
        assert fast == brute if flavor == INT else fast == pytest.approx(brute, rel=1e-9, abs=1e-12)

    def test_repeated_factors_are_cut_to_the_ranks_that_can_meet_f_n(self, monkeypatch):
        # the counting shape: f_1 = f_2 = f_3 on ranks {1, 3}, f_n on {1, 3}
        rng = random.Random(5)
        m = 4
        f = layered_function(rng, m, {1, 3})
        last = layered_function(rng, m, {1, 3})
        built = self.spy(monkeypatch)
        fast = corner_convolution([f, f, f, last])
        # need = {1, 3}: rank 1 of f alone can sum to 3; products keep 2 and then 3
        assert built == {"zeta": [[1]], "product": [[2], [3]]}
        assert fast == corner_brute([f, f, f, last])

    @pytest.mark.parametrize("flavor", [INT, REAL])
    def test_a_fold_that_reaches_no_needed_rank_is_zero(self, monkeypatch, flavor):
        rng = random.Random(f"no-need:{flavor}")
        m = 6
        fs = [layered_function(rng, m, {1}, flavor) for _ in range(2)]
        fs.append(layered_function(rng, m, {3}, flavor))  # needs |S| = 3; the fold has rank 2
        built = self.spy(monkeypatch)
        value = corner_convolution(fs)
        assert built["product"] in ([], [[]])
        assert np.float64(value).tobytes() == np.float64(0.0).tobytes()
        assert corner_brute(fs) == 0
        zero = CubeFunction(m, [0] * (1 << m), flavor)
        assert corner_convolution(fs[:2] + [zero]) == 0  # nothing to read

    def test_one_and_two_functions(self):
        rng = random.Random(12)
        for m in (1, 3, 6):
            f, g = random_int_function(rng, m), random_int_function(rng, m)
            assert corner_convolution([f]) == f.values[-1]
            full = (1 << m) - 1
            dot = sum(f.values[s] * g.values[full ^ s] for s in range(1 << m))
            assert corner_convolution([f, g]) == dot
            wide, wider = wide_int_function(rng, m), wide_int_function(rng, m)
            assert corner_convolution([wide], with_kernel=True)[0] == wide.values[-1]
            value, kernel = corner_convolution([wide, wider], with_kernel=True)
            assert kernel.startswith("int64-crt") and value == corner_brute([wide, wider])
            real = [CubeFunction(m, [rng.uniform(-1, 1) for _ in range(1 << m)], REAL) for _ in range(2)]
            assert corner_convolution(real[:1], with_kernel=True) == (real[0].values[-1], "float64")
            brute = corner_brute(real)
            assert corner_convolution(real) == pytest.approx(brute, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_kernels_agree_with_brute(self, n):
        rng = random.Random(f"kernels:{n}")
        m = 4
        small = [random_int_function(rng, m) for _ in range(n)]
        value, kernel = corner_convolution(small, with_kernel=True)
        assert (value, kernel) == (corner_brute(small), "int64")
        wide = [wide_int_function(rng, m) for _ in range(n)]
        value, kernel = corner_convolution(wide, with_kernel=True)
        assert kernel.startswith("int64-crt") and value == corner_brute(wide)
        real = [layered_function(rng, m, random_layers(rng, m), REAL) for _ in range(n)]
        value, kernel = corner_convolution(real, with_kernel=True)
        assert kernel == "float64"
        assert value == pytest.approx(corner_brute(real), rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("m", [1, 2, 4, 6])
    def test_negative_zero_inputs_give_the_batch_bits(self, n, m):
        """Half the values are -0.0, and some trials hold only -0.0 on whole
        ranks or everywhere, so their rank supports differ from the batch's."""
        rng = np.random.default_rng([n, m])
        rank = np.array([s.bit_count() for s in range(1 << m)])
        trials = 24
        shape = (n, trials, 1 << m)
        fs = np.where(rng.random(shape) < 0.5, -0.0, rng.standard_normal(shape))
        for t in range(trials):
            for j in range(n):
                if rng.random() < 0.4:
                    fs[j, t, np.isin(rank, rng.choice(m + 1, size=rng.integers(1, m + 1)))] = -0.0
        fs[:, :3] = -0.0
        batch = batch_corner_value(fs, m)
        for chunk in (1, 5):
            parts = [batch_corner_value(fs[:, t : t + chunk], m) for t in range(0, trials, chunk)]
            assert np.concatenate(parts).tobytes() == batch.tobytes()
        for t in range(trials):
            value = corner_convolution([CubeFunction(m, fs[j, t], REAL) for j in range(n)])
            assert np.float64(value).tobytes() == batch[t].tobytes()
        assert np.float64(0.0).tobytes() == batch[0].tobytes()  # a zero corner reads +0.0


MERSENNE = 2**31 - 1


def ranked_rows(rng, m, ranks, trials, kind):
    """A table as the ranked zeta gathers it: row j holds random values on
    the masks of ranks[j] elements and zeros elsewhere.  Float rows hold
    -0.0 on about a third of those masks; "mod" rows hold residues."""
    rank = np.array([s.bit_count() for s in range(1 << m)])
    table = np.zeros((len(ranks), 1 << m, trials), dtype=np.float64 if kind == "float" else np.int64)
    for row, r in zip(table, ranks):
        shape = (int(np.sum(rank == r)), trials)
        if kind == "float":
            vals = np.where(rng.random(shape) < 0.3, -0.0, rng.standard_normal(shape))
            vals[0, 0] = -0.0  # at least one per row
        elif kind == "mod":
            vals = rng.integers(0, MERSENNE, shape)
        else:
            vals = rng.integers(-(2**40), 2**40, shape)
        row[rank == r] = vals
    return table


def rank_mult_reference(a, b, m, mod=None, keep=None):
    """Whole-row rank product: row k = sum of a_i * b_(k-i) in ascending i,
    for the ranks k <= m in `keep` (default all)."""
    (ranks_a, table_a, *_), (ranks_b, table_b, *_) = a, b
    ranks = sorted({i + j for i in ranks_a for j in ranks_b if i + j <= m})
    ranks = ranks if keep is None else [k for k in ranks if k in keep]
    out = np.zeros((len(ranks),) + table_a.shape[1:], dtype=table_a.dtype)
    for row, k in zip(out, ranks):
        for ia, i in enumerate(ranks_a):
            if k - i in ranks_b:
                term = table_a[ia] * table_b[ranks_b.index(k - i)]
                row += term % mod if mod else term
        if mod:
            row %= mod
    return ranks, out


# (m, batch shape): 2^m * trials positions below, equal to and past the
# rank-product block, the last ones not a multiple of it
BLOCK_CASES = [(8, (3,)), (13, ()), (14, ()), (12, (4,)), (13, (3,)), (6, (2, 150)), (8, (300,))]
BLOCK_CASE_IDS = ["below", "1-D", "one-block", "one-block-batched", "m13x3", "two-axes", "many-blocks"]


class TestKernelBoundaries:
    """The trimmed, cache-blocked kernel against whole-row references."""

    @pytest.mark.parametrize("m", range(1, 11))
    @pytest.mark.parametrize("kind", ["float", "int", "mod"])
    @pytest.mark.parametrize("group", [1, None], ids=["row-by-row", "grouped"])
    @pytest.mark.parametrize("inverse", [False, True], ids=["zeta", "moebius"])
    def test_trimmed_ranked_zeta_equals_the_full_butterfly(self, monkeypatch, m, kind, group, inverse):
        """Rows of inputs on one rank each, as zeta rows and a count's
        readout rows are: trimmed, both transforms equal the full ones at
        every mask."""
        if group:  # small rows share a pass on the union of their slices; here each runs alone
            monkeypatch.setattr(transform, "_GROUP", group)
        rng = np.random.default_rng([m, len(kind)])
        for _ in range(4):
            ranks = sorted(rng.choice(m + 1, size=rng.integers(1, m + 2), replace=False).tolist())
            table = ranked_rows(rng, m, ranks, int(rng.integers(1, 4)), kind)
            full, trimmed = table.copy(), table.copy()
            _batch_zeta_inplace(full, m, inverse)
            _batch_zeta_inplace(trimmed, m, inverse, ranks=ranks)
            if kind == "mod":
                full %= MERSENNE
                trimmed %= MERSENNE
            assert trimmed.tobytes() == full.tobytes()

    @pytest.mark.parametrize("m", range(1, 11))
    @pytest.mark.parametrize("kind", ["float", "int", "mod"])
    @pytest.mark.parametrize("group", [1, None], ids=["row-by-row", "grouped"])
    def test_trimmed_moebius_equals_the_full_butterfly_where_read(self, monkeypatch, m, kind, group):
        """A rank-r Moebius row is read only at r-element masks, and is +0.0
        below its floor; there the trimmed butterfly gives the full one's bytes."""
        if group:
            monkeypatch.setattr(transform, "_GROUP", group)
        rng = np.random.default_rng([m, len(kind), 7])
        rank = np.array([s.bit_count() for s in range(1 << m)])
        dtype = np.float64 if kind == "float" else np.int64
        for _ in range(4):
            ranks = sorted(rng.choice(m + 1, size=rng.integers(1, m + 2), replace=False).tolist())
            floors = [int(rng.integers(0, r + 1)) for r in ranks]
            table = np.zeros((len(ranks), 1 << m, int(rng.integers(1, 4))), dtype=dtype)
            for row, floor in zip(table, floors):  # values from the floor up; float: a third -0.0
                shape = (int(np.sum(rank >= floor)), row.shape[1])
                if kind == "float":
                    vals = np.where(rng.random(shape) < 0.3, -0.0, rng.standard_normal(shape))
                    row[rank >= floor] = vals
                else:
                    row[rank >= floor] = rng.integers(0, MERSENNE if kind == "mod" else 2**40, shape)
            full, trimmed = table.copy(), table.copy()
            _batch_zeta_inplace(full, m, inverse=True)
            _batch_zeta_inplace(trimmed, m, inverse=True, ranks=ranks, floors=floors)
            for j, r in enumerate(ranks):
                assert trimmed[j, rank == r].tobytes() == full[j, rank == r].tobytes()

    def test_block_cases_straddle_the_block_size(self):
        positions = [(1 << m) * math.prod(batch) for m, batch in BLOCK_CASES]
        assert min(positions) < _BLOCK and _BLOCK in positions
        assert any(p > _BLOCK and p % _BLOCK for p in positions)

    @pytest.mark.parametrize("m,batch", BLOCK_CASES, ids=BLOCK_CASE_IDS)
    @pytest.mark.parametrize("kind", ["float", "int", "mod", "max-residue"])
    def test_blocked_rank_mult_equals_the_row_reference(self, m, batch, kind):
        rng = np.random.default_rng([m, len(batch), len(kind)])
        dtype = np.float64 if kind == "float" else np.int64
        mod = None if kind in ("float", "int") else MERSENNE
        rank = np.array([s.bit_count() for s in range(1 << m)])

        def table():
            if kind == "max-residue":  # p - 1 from each rank up: a row sums up to m + 1 terms of (p - 1)^2
                live = rank >= np.arange(m + 1)[:, None]
                rows = np.where(live, MERSENNE - 1, 0).reshape(live.shape + (1,) * len(batch))
                return list(range(m + 1)), np.ascontiguousarray(np.broadcast_to(rows, live.shape + batch))
            shape = batch + (1 << m,)
            a = rng.standard_normal(shape) if kind == "float" else rng.integers(0, 2**20, shape)
            a[..., ~np.isin(rank, rng.choice(m + 1, size=rng.integers(1, m + 2), replace=False))] = 0
            return _batch_ranked_zeta(a.astype(dtype), m, mod)

        ta, tb, tc = table(), table(), table()
        for keep in (None, [m], range(0, m + 1, 2)):
            got = _batch_rank_mult(ta, tb, m, mod, keep)
            want = rank_mult_reference(ta, tb, m, mod, keep)
            assert got[0] == want[0] and got[1].tobytes() == want[1].tobytes()
            assert ta[1].dtype == got[1].dtype == dtype
            # a product as a factor: its floors must hold for the trim to be exact
            for row, floor in zip(got[1], got[2]):
                assert not np.any(row[rank < floor])
            chained = _batch_rank_mult(got, tc, m, mod, keep)
            want = rank_mult_reference(got, tc, m, mod, keep)
            assert chained[0] == want[0] and chained[1].tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("m,batch", BLOCK_CASES, ids=BLOCK_CASE_IDS)
    @pytest.mark.parametrize("kind", ["float", "int", "mod"])
    def test_a_product_over_its_left_factor_equals_a_fresh_one(self, m, batch, kind):
        """A product built in place over its left factor's table, as _fold
        builds it, equals one built in a fresh array: float bit for bit,
        integers exactly.  keep gives products of more, as many and fewer
        rows than the factor; stale values past the factor's rows must not
        reach it."""
        rng = np.random.default_rng([m, len(batch), len(kind), 5])
        dtype = np.float64 if kind == "float" else np.int64
        mod = MERSENNE if kind == "mod" else None
        rank = np.array([s.bit_count() for s in range(1 << m)])

        def table():
            shape = batch + (1 << m,)
            low, high = (0, mod) if mod else (-(2**20), 2**20)
            a = rng.standard_normal(shape) if kind == "float" else rng.integers(low, high, shape)
            a[..., ~np.isin(rank, rng.choice(m + 1, size=rng.integers(1, m + 2), replace=False))] = 0
            return _batch_ranked_zeta(a.astype(dtype), m, mod)

        for keep in (None, [m], range(m // 2, m + 1), range(0, m + 1, 2)):
            ta, tb, tc = table(), table(), table()
            fresh = _batch_rank_mult(ta, tb, m, mod, keep)
            chained = _batch_rank_mult(fresh, tc, m, mod, keep)
            rows = max(len(ta[0]), len(fresh[0]), len(chained[0]))
            space = np.full(rows * ta[1][0].size, np.nan if kind == "float" else -1, dtype=dtype)  # stale values
            left = space[: ta[1].size].reshape(ta[1].shape)
            left[...] = ta[1]
            got = _batch_rank_mult((ta[0], left), tb, m, mod, keep, space)
            assert got[0] == fresh[0] and got[2] == fresh[2] and got[1].tobytes() == fresh[1].tobytes()
            assert not got[1].size or np.shares_memory(got[1], left)
            got = _batch_rank_mult(got, tc, m, mod, keep, space)
            assert got[0] == chained[0] and got[2] == chained[2] and got[1].tobytes() == chained[1].tobytes()

    @pytest.mark.parametrize("batch", [(), (5,)])
    def test_a_product_that_reaches_no_rank(self, batch):
        m = 5
        a = np.zeros(batch + (1 << m,))
        a[..., 0b11111] = 2.0  # rank 5 alone
        b = np.zeros(batch + (1 << m,))
        b[..., 0b1] = 3.0  # rank 1 alone: 5 + 1 > m
        ta, tb = _batch_ranked_zeta(a, m), _batch_ranked_zeta(b, m)
        for keep in (None, [m]):
            ranks, table, floors = _batch_rank_mult(ta, tb, m, keep=keep)
            assert (ranks, floors, table.shape) == ([], [], (0, 1 << m) + batch)
        empty = _batch_ranked_zeta(np.zeros(batch + (1 << m,)), m)  # a table with no rows
        assert _batch_rank_mult(empty, tb, m)[0] == []
        ranks, table, _ = _batch_rank_mult(tb, tb, m, keep=[m])  # ranks 2 only, 5 wanted
        assert ranks == [] and table.shape == (0, 1 << m) + batch
        assert np.array_equal(batch_corner_value(np.stack([b, b]), m), np.zeros(batch))


@pytest.mark.parametrize("mod", [None, MERSENNE], ids=["wrapped", "mod"])
def test_int32_tables_multiply_in_int64(mod):
    """A count's zeta rows are int32 and its products int64.  numpy
    multiplies two int32 operands in int32 even into an int64 `out`
    (100000^2 reads 1410065408), so the kernel casts int32 rows to int64
    a block at a time (once for a table squared, as a count's first
    product is).  Rows of values near 2^20, zero below their rank as zeta
    rows are, against Python ints, as a table and as a readout."""
    m, rng = 9, np.random.default_rng(20)
    rank = np.array([s.bit_count() for s in range(1 << m)])

    def table(ranks):
        values = rng.integers(2**20 - 2**10, 2**20, (len(ranks), 1 << m))
        return ranks, np.where(rank >= np.array(ranks)[:, None], values, 0).astype(np.int32)

    ta, tb = table([0, 2, 3]), table([1, 2])
    for (ranks_a, a), (ranks_b, b) in [(ta, tb), (ta, ta)]:
        want = {}
        for (ia, i), (ib, j) in itertools.product(enumerate(ranks_a), enumerate(ranks_b)):
            terms = [int(x) * int(y) for x, y in zip(a[ia], b[ib])]
            want[i + j] = [w + t for w, t in zip(want.get(i + j, [0] * (1 << m)), terms)]
        ranks, got, _ = _batch_rank_mult((ranks_a, a), (ranks_b, b), m, mod)
        assert ranks == sorted(want) and got.dtype == np.int64
        assert [row.tolist() for row in got] == [[w % (mod or 2**64) for w in want[k]] for k in ranks]
        weights = rng.integers(-(2**m), 2**m + 1, (len(ranks), 1 << m)).astype(np.int32)
        readout = _batch_rank_mult((ranks_a, a), (ranks_b, b), m, mod, weights=weights)
        total = sum(w * int(g) for k, row in zip(ranks, weights) for w, g in zip(want[k], row))
        assert readout.dtype == np.int64 and int(readout.view(np.uint64)[0]) == total % (mod or 2**64)


class TestReadout:
    """sum_T P(T) g(T) of a count's last product against its int32 weights:
    exact mod p under a prime, mod 2^64 in the wrapped pass."""

    @pytest.mark.parametrize("m", range(1, 8))
    def test_weights_are_signed_superset_counts(self, m):
        """Row j holds g(T) = (-1)^(j-|T|) #{A member of rank j, A contains
        T}: built in place through the reversed view, none lost to a copy."""
        rng = np.random.default_rng([m, 41])
        for _ in range(3):
            members = np.flatnonzero(rng.random(1 << m) < 0.4)
            ranks = sorted({int(a).bit_count() for a in members})
            got_ranks, got = transform._member_readout(members, m, ranks)
            assert got_ranks == ranks and got.dtype == np.int32
            for row, j in zip(got, ranks):
                for t in range(1 << m):
                    above = sum(1 for a in members.tolist() if a.bit_count() == j and a & t == t)
                    assert row[t] == (-1) ** (j - t.bit_count()) * above

    @pytest.mark.parametrize("length", [128, 256, 512, _BLOCK])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_a_prime_pass_at_the_largest_terms(self, length, sign):
        """P = p - 1 and |g| = 2^24 (|g| <= 2^m at MAX_M): a term is near
        2^55, so 2^8 of them sum just below 2^63, and longer runs would
        wrap.  Blocks (a power of two of masks) shorter than a run, one run
        and several."""
        p = MERSENNE
        rows = np.full((2, length), p - 1, dtype=np.int64)
        weights = np.full((2, length), sign * 2**24, dtype=np.int32)
        weights[1, ::3] = -sign * 2**24
        term = np.empty(length, dtype=np.int64)
        want = sum(int(w) * (p - 1) for w in weights.ravel().tolist())
        assert transform._readout(rows, weights, p, term) % p == want % p

    def test_a_prime_pass_through_the_product(self):
        """Factors whose product row is p - 1 on every mask of at least j
        elements, read out against +-2^24 across many product blocks."""
        m, j, p = 15, 3, MERSENNE
        rank = np.array([s.bit_count() for s in range(1 << m)])
        ones = ([0], np.ones((1, 1 << m), dtype=np.int32))
        top = ([j], np.where(rank >= j, p - 1, 0)[None].astype(np.int64))
        weights = np.where(np.arange(1 << m) % 5 == 0, -(2**24), 2**24)[None].astype(np.int32)
        got = _batch_rank_mult(ones, top, m, p, weights=weights)
        want = sum((p - 1) * int(w) for w, r in zip(weights[0].tolist(), rank.tolist()) if r >= j)
        assert got.tolist() == [want % p]

    def test_the_wrapped_pass_near_2_63(self):
        """Products near +-2^63 (residues of the wrapped pass) times int32
        weights: the sum is exact mod 2^64."""
        rng = np.random.default_rng(63)
        length = 3 * _BLOCK + 7
        rows = rng.integers(2**63 - 2**20, 2**63, (3, length), dtype=np.int64) * rng.choice([-1, 1], (3, length))
        weights = rng.integers(-(2**31), 2**31, (3, length)).astype(np.int32)
        term = np.empty(length, dtype=np.int64)
        want = sum(int(x) * int(w) for x, w in zip(rows.ravel().tolist(), weights.ravel().tolist()))
        assert transform._readout(rows, weights, None, term) % 2**64 == want % 2**64


def one_call_butterfly(a, m, inverse=False):
    """The full butterfly in one op a bit, over every run however short:
    the reference for the lanes."""
    op = np.subtract if inverse else np.add
    trials = math.prod(a.shape[2:])
    for b in range(m):
        v = a.reshape(len(a), 1 << (m - 1 - b), 2, trials << b)
        op(v[:, :, 1], v[:, :, 0], out=v[:, :, 1])


def lane_rows(rng, m, batch, kind, live):
    """(rows, 2^m) + batch values: row j holds values on the masks where
    live[j] (a mask-rank test) holds.  Float values are -0.0 about a third
    of the time; "wrap" values are any int64, so sums wrap mod 2^64; "mod"
    values are residues."""
    rank = np.array([s.bit_count() for s in range(1 << m)])
    table = np.zeros((len(live), 1 << m) + batch, dtype=np.float64 if kind == "float" else np.int64)
    for row, test in zip(table, live):
        shape = (int(np.sum(test(rank))),) + batch
        if kind == "float":
            row[test(rank)] = np.where(rng.random(shape) < 0.3, -0.0, rng.standard_normal(shape))
        else:
            row[test(rank)] = rng.integers(*((-(2**63), 2**63) if kind == "wrap" else (0, MERSENNE)), shape)
    return table, rank


LANE_CASES = dict(argnames="batch", argvalues=[(), (1,), (2,), (4,)], ids=["rows", "1", "2", "4"])


class TestLanes:
    """Butterfly runs of up to _LANES = 4 positions are added a lane at a
    time; each value gets the same single add as in one op over all runs."""

    @pytest.mark.parametrize("m", [1, 2, 3, 6, 9])
    @pytest.mark.parametrize(**LANE_CASES)
    @pytest.mark.parametrize("kind", ["float", "wrap", "mod"])
    @pytest.mark.parametrize("inverse", [False, True], ids=["zeta", "moebius"])
    def test_lanes_equal_one_call(self, m, batch, kind, inverse):
        rng = np.random.default_rng([m, len(batch), len(kind), inverse])
        table, _ = lane_rows(rng, m, batch, kind, [lambda rank: rank >= 0] * 3)
        got, want = table.copy(), table.copy()
        _batch_zeta_inplace(got, m, inverse)
        one_call_butterfly(want, m, inverse)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [2, 3, 6, 9])
    @pytest.mark.parametrize(**LANE_CASES)
    @pytest.mark.parametrize("kind", ["float", "wrap", "mod"])
    def test_ranked_lanes_equal_one_call(self, m, batch, kind):
        """A trimmed zeta row equals the full one; a trimmed Moebius row with
        floors equals it at the masks of its rank, the only ones read."""
        rng = np.random.default_rng([m, len(batch), len(kind), 5])
        for _ in range(3):
            ranks = sorted(rng.choice(m + 1, size=rng.integers(1, m + 2), replace=False).tolist())
            table, rank = lane_rows(rng, m, batch, kind, [lambda rank, r=r: rank == r for r in ranks])
            got, want = table.copy(), table.copy()
            _batch_zeta_inplace(got, m, ranks=ranks)
            one_call_butterfly(want, m)
            assert got.tobytes() == want.tobytes()
            floors = [int(rng.integers(0, r + 1)) for r in ranks]
            table, rank = lane_rows(rng, m, batch, kind, [lambda rank, f=f: rank >= f for f in floors])
            got, want = table.copy(), table.copy()
            _batch_zeta_inplace(got, m, inverse=True, ranks=ranks, floors=floors)
            one_call_butterfly(want, m, inverse=True)
            for j, r in enumerate(ranks):
                assert got[j, rank == r].tobytes() == want[j, rank == r].tobytes()


class TestMass:
    """(sum |a|, max |a|) is exact in one uint64 sum while max * size < 2^64
    and in split 32-bit halves past it."""

    @pytest.mark.parametrize(
        "values",
        [
            [2**62 - 1] * 4,  # peak * size just below 2^64: one sum
            [2**62] * 4,  # just above: one sum would wrap to 0
            [2**62 - 1] * 3 + [-(2**62)],
            [-(2**63)],  # |-2^63| is 2^63, one sum
            [-(2**63), 0],  # peak * size = 2^64: halves
            [-(2**63), -(2**63), 2**63 - 1],
            [3, -5, 0, 7],
        ],
    )
    def test_exact_on_both_sides_of_the_one_sum_bound(self, values):
        assert _mass(np.array(values, dtype=np.int64)) == (sum(map(abs, values)), max(map(abs, values)))

    def test_python_ints(self):
        values = [2**70, -(2**80), 5]
        assert _mass(np.array(values, dtype=object)) == (2**70 + 2**80 + 5, 2**80)


class TestRankTableBudget:
    """With core.RANK_TABLE_BUDGET set so that a fold plan's peak is over
    three budgets, or a trial's draws over one, every entry point refuses
    before it allocates what the budget is for."""

    @staticmethod
    def refused_peak(monkeypatch, budget, call, tables=3) -> int:
        """The tracemalloc peak of call(), which must refuse over `tables`
        budgets of `budget` bytes: three for a fold, one for draws."""
        monkeypatch.setattr(core, "RANK_TABLE_BUDGET", budget)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"over the rank-table budget of {tables * budget} bytes"):
                call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("flavor", [REAL, INT])
    def test_subset_convolve(self, monkeypatch, flavor):
        m, rng = 10, random.Random(3)
        f, g = (CubeFunction(m, [rng.randint(1, 9) for _ in range(1 << m)], flavor) for _ in range(2))
        table = (m + 1) * 8 << m  # every rank is live
        peak = 28 * 8 << m  # two tables, and a block scratch of 12 half rows
        assert transform._fold_plan([list(range(m + 1))] * 2, range(m + 1), m)[2] == 28
        assert self.refused_peak(monkeypatch, peak // 3 - 1, lambda: subset_convolve(f, g)) < table

    def test_a_refused_fold_allocates_nothing(self, monkeypatch):
        """Zeta tables of ranks 0..6 and a product of ranks 0..12: the plan's
        peak is 7 + 7 + 13 rows, refused before the first zeta table."""
        m, rng = 12, np.random.default_rng(12)
        low = np.array([s.bit_count() <= 6 for s in range(1 << m)])
        f, g = (CubeFunction(m, rng.uniform(0.5, 1.0, 1 << m) * low, REAL) for _ in range(2))
        row = 8 << m
        assert transform._fold_plan([list(range(7)), list(range(7))], range(m + 1), m)[2] == 27
        assert self.refused_peak(monkeypatch, 9 * row - 1, lambda: subset_convolve(f, g)) < row

    def test_count(self, monkeypatch):
        m = 12
        family = SetFamily.from_masks(m, range(1 << m))
        row = 8 << m
        # n=3: the 13 int32 table rows and 13 readout rows, no product array (the one product is read out as it
        # is built) and its block scratch of 27 half rows: 13 rows and a term, and the squared table's 13 rows
        # cast to int64
        peak = 27 * row
        assert transform._count_plan(list(range(m + 1)), 2, m)[2] == 27
        assert self.refused_peak(monkeypatch, peak // 3 - 1, lambda: count_disjoint_tuples(family, 3)) < row

    def test_run_trials_refuses_before_drawing(self, monkeypatch):
        config = TrialConfig(n=3, m=10, trials=4, seed=5)
        table = (config.m + 1) * 8 << config.m
        peak = 28 * 8 << config.m  # one trial's fold, as in test_subset_convolve
        assert self.refused_peak(monkeypatch, peak // 3 - 1, lambda: run_trials(config)) < table

    def test_run_trials_chunks_to_the_budget(self, monkeypatch):
        # at n=3 a trial's rank table (7 x 2^6 x 8 B) outweighs its draw (2 x 3 x 2^6 x 8 B)
        config = TrialConfig(n=3, m=6, trials=40, seed=8, distribution="sparse", signed=True)
        whole = run_trials(config)
        batches = []

        def spy(fs, m, space=None):
            batches.append(fs.shape[1])
            return batch_corner_value(fs, m, space=space)

        monkeypatch.setattr(verifier, "batch_corner_value", spy)
        monkeypatch.setattr(core, "RANK_TABLE_BUDGET", 3 * (config.m + 1) * 8 << config.m)
        assert run_trials(config) == whole
        assert batches == [3] * 13 + [1]

    def test_run_trials_chunks_to_the_draws(self, monkeypatch):
        config = TrialConfig(n=20, m=4, trials=40, seed=8, distribution="sparse", signed=True)
        whole = run_trials(config)
        batches = []

        def spy(fs, m, space=None):
            batches.append(fs.shape[1])
            return batch_corner_value(fs, m, space=space)

        monkeypatch.setattr(verifier, "batch_corner_value", spy)
        draw = 2 * config.n * 8 << config.m  # the value plane and one transient plane
        assert draw > 5 * 8 << config.m  # a trial's draw outweighs its rank table
        monkeypatch.setattr(core, "RANK_TABLE_BUDGET", 3 * draw)
        assert run_trials(config) == whole
        assert batches == [3] * 13 + [1]

    @pytest.mark.parametrize(
        "distribution,signed,planes", [("uniform", False, 1), ("sparse", False, 2), ("uniform", True, 2)]
    )
    def test_run_trials_refuses_a_trial_over_budget(self, monkeypatch, distribution, signed, planes):
        config = TrialConfig(n=20, m=8, trials=4, seed=5, distribution=distribution, signed=signed)
        draw = planes * config.n * 8 << config.m
        assert self.refused_peak(monkeypatch, draw - 1, lambda: run_trials(config), tables=1) < draw
        message = f"a trial's draw of {planes} planes x 20 functions x 2^8 values needs {draw} bytes"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}, over the rank-table budget of {draw - 1} bytes$"):
            run_trials(config)

    def test_verify_over_the_draw_budget_exits_2(self, monkeypatch):
        monkeypatch.setattr(core, "RANK_TABLE_BUDGET", 2**20)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["verify", "--n", "200", "--m", "12", "--trials", "1024"])
        assert (code, out.getvalue()) == (2, "")
        assert err.getvalue() == (
            f"error: a trial's draw of 1 planes x 200 functions x 2^12 values needs {200 * 8 << 12} bytes, "
            f"over the rank-table budget of {2**20} bytes\n"
        )

    def test_chunks_stay_1024_through_m12_and_n5(self):
        cells = itertools.product(range(2, 6), range(1, 13), ("uniform", "sparse"), (False, True))
        for n, m, distribution, signed in cells:
            config = TrialConfig(n=n, m=m, trials=1, seed=0, distribution=distribution, signed=signed)
            assert verifier._fit_trials(config) >= 1024

    def test_witness_exits_2(self, monkeypatch):
        monkeypatch.setattr(core, "RANK_TABLE_BUDGET", 2**20)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["verify", "--witness", "--n", "5", "--m", "16"])
        assert (code, out.getvalue()) == (2, "")
        need = 39 * 8 << 16  # one shared 17-row table, the 17-row product and a block scratch of 5 rows
        assert err.getvalue() == (
            f"error: a fold plan of 39 rank rows x 2^16 masks x 1 needs {need} bytes, "
            f"over the rank-table budget of {3 * 2**20} bytes\n"
        )
