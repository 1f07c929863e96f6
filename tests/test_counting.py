import math
import random
import re
import tracemalloc
from math import comb

import numpy as np
import pytest

from cubeconv.core import SetFamily, exponent, family_to_functions
from cubeconv.counting import (
    BRUTE_TUPLE_CAP,
    bound_report,
    count_disjoint_tuples,
    extremal_family,
)
from cubeconv.transform import corner_convolution
from oracles import force_crt, product_family


def extremal_count_closed_form(n, t):
    """Choose the (n-1)t-element union inside [nt], then split it into
    n-1 ordered size-t blocks."""
    count = comb(n * t, (n - 1) * t)
    remaining = (n - 1) * t
    for _ in range(n - 1):
        count *= comb(remaining, t)
        remaining -= t
    return count


def random_family(rng, max_m=10):
    m = rng.randint(1, max_m)
    pool = range(1 << m)
    size = rng.randint(1, min(1 << m, 24))
    return SetFamily.from_masks(m, rng.sample(pool, size))


def sparse_subset_dp_count(members, m, n):
    """ways[u] = ordered (n-1)-tuples of pairwise disjoint members with
    union u; the count sums ways over the members."""
    ways = np.zeros(1 << m, dtype=object)
    ways[0] = 1
    for _ in range(n - 1):
        reached = np.nonzero(ways)[0]
        step = np.zeros_like(ways)
        for a in members:
            u = reached[(reached & a) == 0]
            step[u | a] += ways[u]  # u -> u | a is one-to-one on sets disjoint from a
        ways = step
    return int(sum(ways[list(members)]))


class TestCount:
    def test_empty_set_only(self):
        fam = SetFamily(1, (0,))
        assert count_disjoint_tuples(fam, 3, "fast") == 1
        assert count_disjoint_tuples(fam, 3, "brute") == 1

    def test_full_powerset_of_two(self):
        fam = SetFamily(2, (0, 1, 2, 3))
        # hand oracle: enumerate all 4^3 triples directly
        members = fam.members
        expected = sum(
            1
            for a in members
            for b in members
            if a & b == 0 and (a | b) in members
        )
        assert expected == 9
        assert count_disjoint_tuples(fam, 3, "fast") == 9
        assert count_disjoint_tuples(fam, 3, "brute") == 9

    def test_three_sets(self):
        fam = SetFamily.from_masks(2, [0b01, 0b10, 0b11])
        assert count_disjoint_tuples(fam, 3, "fast") == 2  # ({1},{2}) in both orders
        assert count_disjoint_tuples(fam, 3, "brute") == 2

    def test_rejects_n1(self):
        with pytest.raises(ValueError):
            count_disjoint_tuples(SetFamily(1, (0,)), 1)

    @pytest.mark.parametrize(
        "size, method, message",
        [
            (1, "x", "unknown method 'x'"),
            (2**14, "brute", f"brute-force needs |X|^(n-1) = {2**28} > {BRUTE_TUPLE_CAP} tuples"),
        ],
    )
    def test_refuses_a_method_it_cannot_run(self, size, method, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            count_disjoint_tuples(SetFamily(14, range(size)), 3, method)

    def test_fast_equals_brute_random(self):
        rng = random.Random(2024)
        for trial in range(60):
            fam = random_family(rng)
            n = rng.choice([2, 3, 4])
            assert count_disjoint_tuples(fam, n, "fast") == count_disjoint_tuples(
                fam, n, "brute"
            ), (fam.m, fam.members, n)

    def test_n6_past_the_old_mass_bound(self):
        # |X|^6 = 1500^6 > 2^62 sent this family to a big-int fold; the
        # corner bound |X|^5 keeps it on one int64 pass.
        rng = random.Random(606)
        m, size, n = 12, 1500, 6
        fam = SetFamily.from_masks(m, rng.sample(range(1 << m), size))
        assert size**n >= 2**62
        rep = bound_report(fam, n)
        assert rep.kernel == "int64"
        assert rep.count == sparse_subset_dp_count(fam.members, m, n)


class TestLayeredFamilies:
    """Indicators of layered families are zero on most ranks."""

    def test_empty_family_counts_zero(self):
        for n in (2, 3, 5):
            rep = bound_report(SetFamily(4, ()), n)
            assert (rep.count, rep.family_size, rep.ratio) == (0, 0, None)
            assert count_disjoint_tuples(SetFamily(4, ()), n, "brute") == 0

    def test_only_the_empty_set(self):
        for n in (2, 3, 5):
            assert count_disjoint_tuples(SetFamily(6, (0,)), n, "fast") == 1

    def test_n2_counts_every_member(self):
        rng = random.Random(21)
        for _ in range(20):
            fam = random_family(rng)
            assert count_disjoint_tuples(fam, 2, "fast") == len(fam)

    def test_k_uniform_families_match_sparse_dp(self):
        rng = random.Random(33)
        for m, k, n in [(8, 3, 2), (9, 3, 3), (10, 0, 4), (12, 4, 2), (12, 4, 3)]:
            layer = [s for s in range(1 << m) if s.bit_count() == k]
            fam = SetFamily.from_masks(m, rng.sample(layer, max(1, len(layer) // 2)))
            assert count_disjoint_tuples(fam, n) == sparse_subset_dp_count(fam.members, m, n)

    def test_two_layer_families_match_sparse_dp(self):
        rng = random.Random(34)
        for m, k, n in [(9, 3, 3), (12, 4, 3), (12, 3, 4), (12, 2, 5)]:
            members = []
            for size in (k, (n - 1) * k):
                layer = [s for s in range(1 << m) if s.bit_count() == size]
                members += rng.sample(layer, (len(layer) + 1) // 2)
            fam = SetFamily.from_masks(m, members)
            count = count_disjoint_tuples(fam, n)
            assert count > 0
            assert count == sparse_subset_dp_count(fam.members, m, n)


    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_random_layered_families(self, n):
        """Members on a few random layers, so f_n's ranks and the fold's
        ranks overlap only in part: the fast count against the brute corner
        where n^m is small, and against the sparse subset DP."""
        rng = random.Random(f"layered:{n}")
        for m in (4, 6, 9, 12):
            for _ in range(3):
                k = rng.randint(0, m // (n - 1))  # layers k and (n-1)k give nonzero counts
                layers = {k, (n - 1) * k, *rng.sample(range(m + 1), rng.randint(0, 2))}
                pool = [s for s in range(1 << m) if s.bit_count() in layers]
                fam = SetFamily.from_masks(m, rng.sample(pool, rng.randint(1, min(len(pool), 200))))
                count = count_disjoint_tuples(fam, n)
                assert count == sparse_subset_dp_count(fam.members, m, n), (m, layers, fam.members)
                if n**m <= 5000:
                    assert count == count_disjoint_tuples(fam, n, "brute")


class TestMemberCount:
    """The count read at the members agrees with the corner of n indicators
    (f_n the indicator of the complements), in count and in kernel."""

    @staticmethod
    def corner(fam, n):
        return corner_convolution(family_to_functions(fam, n), with_kernel=True)

    @staticmethod
    def counted(fam, n):
        rep = bound_report(fam, n)
        return rep.count, rep.kernel

    @pytest.mark.parametrize("n", range(2, 10))
    def test_random_families(self, n):
        rng = random.Random(f"members:{n}")
        for _ in range(12):
            m = rng.randint(1, 10)
            masks = rng.sample(range(1 << m), rng.randint(1, min(1 << m, 40)))
            if rng.random() < 0.5:
                masks.append(0)
            fam = SetFamily.from_masks(m, masks)
            assert self.counted(fam, n) == self.corner(fam, n), (m, fam.members.tolist())

    @pytest.mark.parametrize("m", [1, 5, 10])
    def test_one_member_families(self, m):
        for mask in {0, 1, (1 << m) - 1}:
            fam = SetFamily(m, (mask,))
            for n in (2, 3, 9):
                # (A, A) always; for n >= 3, A = A u A u ... is disjoint only for A = {}
                assert self.counted(fam, n) == self.corner(fam, n) == (int(n == 2 or mask == 0), "int64")

    def test_the_empty_family(self):
        for m, n in [(1, 2), (6, 3), (10, 9)]:
            assert self.counted(SetFamily(m), n) == self.corner(SetFamily(m), n) == (0, "int64")

    def test_a_count_past_int64_takes_the_crt(self):
        rng = np.random.default_rng(12)
        fam = SetFamily.from_masks(12, rng.integers(0, 1 << 12, 4000))
        counted = self.counted(fam, 7)
        assert counted[1] == "int64-crt2"
        assert counted == self.corner(fam, 7)
        assert counted[0] == sparse_subset_dp_count(fam.members.tolist(), 12, 7)

    @pytest.mark.parametrize("n,t", [(3, 6), (6, 3), (9, 2)])
    def test_a_count_at_m18_holds_few_tables(self, n, t):
        """Peak traced memory of a layered count stays under 3.5 tables of
        2^m int64 values: the fold's three live rank rows, and no dense
        indicator or h table."""
        fam = extremal_family(n, t)
        tracemalloc.start()
        try:
            rep = bound_report(fam, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.count == extremal_count_closed_form(n, t)
        assert peak < 3.5 * 8 * 2**18, peak / (8 * 2**18)


class TestSharedTables:
    """A count builds its int32 zeta table and readout weights once and
    reads each pass's last product out against them: the CRT passes and
    the edge ranks 0 and m, where the readout rows are g_0 and g_m."""

    @pytest.mark.parametrize("seed", range(6))
    def test_forced_crt_counts_of_random_families(self, monkeypatch, seed):
        rng = random.Random(f"forced-crt:{seed}")
        force_crt(monkeypatch)
        for _ in range(6):
            fam, n = random_family(rng, max_m=12), rng.randint(2, 5)
            rep = bound_report(fam, n)
            assert rep.kernel == ("int64" if n == 2 else "int64-crt3")  # n=2 counts |X| with no fold
            assert rep.count == count_disjoint_tuples(fam, n, "brute")
            assert rep.count == sparse_subset_dp_count(fam.members.tolist(), fam.m, n)

    @pytest.mark.parametrize("crt", [False, True], ids=["wrapped", "crt"])
    @pytest.mark.parametrize("n", range(2, 7))
    def test_families_holding_the_empty_and_the_full_set(self, monkeypatch, n, crt):
        rng = random.Random(f"edge-ranks:{n}")
        if crt:
            force_crt(monkeypatch)
        for m in (1, 2, 3, 5, 6):
            others = rng.sample(range(1, (1 << m) - 1), min((1 << m) - 2, rng.randint(0, 6)))
            fam = SetFamily.from_masks(m, [0, (1 << m) - 1, *others])
            rep = bound_report(fam, n)
            assert rep.kernel == ("int64-crt3" if crt and n > 2 else "int64")
            assert rep.count == count_disjoint_tuples(fam, n, "brute") > 0


class TestProductFamilies:
    """count(X x Y, n) = count(X, n) count(Y, n), an exact oracle for
    families with no closed form of their own."""

    @staticmethod
    def factor(rng, max_m, empty):
        m = rng.randint(1, max_m)
        masks = rng.sample(range(1, 1 << m), rng.randint(1, min((1 << m) - 1, 12)))
        return SetFamily.from_masks(m, masks + [0] * empty)

    def test_random_products(self):
        rng, kernels = random.Random(2017), []
        for i in range(200):
            if i % 4:  # the int64 kernel at small n
                x, y = (self.factor(rng, 8, rng.random() < 0.3) for _ in range(2))
                n = rng.randint(2, 5)
            else:  # ∅ in both factors keeps the count nonzero at an n whose bound |X x Y|^(n-1) passes 2^63
                x, y = self.factor(rng, 4, True), self.factor(rng, 4, True)
                n = 2 + math.ceil(63 / math.log2(len(x) * len(y))) + rng.randint(0, 2)
            product = product_family(x, y)
            report = bound_report(product, n)
            assert len(product) == len(x) * len(y)
            assert report.count == count_disjoint_tuples(x, n) * count_disjoint_tuples(y, n)
            kernels.append(report.kernel)
        assert sum(kernel.startswith("int64-crt") for kernel in kernels) >= 20
        assert "int64" in kernels

    def test_the_ci_product_at_m24(self):
        """The family the m=24 CI count reads: X x X for X = extremal_family(6, 2)."""
        x = extremal_family(6, 2)
        product = product_family(x, x)
        assert (product.m, len(product)) == (24, 17_424)
        assert sorted({s.bit_count() for s in product.members.tolist()}) == [4, 12, 20]
        assert count_disjoint_tuples(x, 6) ** 2 == 7_484_400**2 == 56_016_243_360_000


class TestBoundReport:
    def test_singleton_family_equality(self):
        rep = bound_report(SetFamily(1, (0,)), 3)
        assert rep.count == 1
        assert rep.bound_log == 0.0
        assert rep.holds
        assert rep.ratio is None  # |X| = 1: undefined

    def test_powerset_of_two(self):
        rep = bound_report(SetFamily(2, (0, 1, 2, 3)), 3)
        assert rep.count == 9
        assert rep.bound_log == pytest.approx(3 / exponent(3) * math.log(4))
        assert math.exp(rep.bound_log) == pytest.approx(10.95, abs=0.01)
        assert rep.holds

    def test_no_decomposable_sets(self):
        # singletons only: no set is a disjoint union of two members
        fam = SetFamily.from_masks(3, [1, 2, 4])
        rep = bound_report(fam, 3)
        assert rep.count == 0
        assert rep.holds
        assert rep.ratio is None

    def test_bound_holds_on_random_families(self):
        rng = random.Random(99)
        for _ in range(80):
            rep = bound_report(random_family(rng), rng.choice([2, 3, 4]))
            assert rep.log_count <= rep.bound_log + 1e-9


class TestExtremalFamily:
    def test_n3_t1(self):
        fam = extremal_family(3, 1)
        assert len(fam) == 6
        rep = bound_report(fam, 3)
        assert rep.count == 6
        assert rep.ratio == pytest.approx(1.0)

    def test_n3_t2(self):
        rep = bound_report(extremal_family(3, 2), 3)
        assert rep.family_size == 30
        assert rep.count == 90
        assert rep.ratio == pytest.approx(1.323, abs=1e-3)

    def test_count_matches_closed_form(self):
        for n, t in [(2, 1), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)]:
            fam = extremal_family(n, t)
            assert count_disjoint_tuples(fam, n, "fast") == extremal_count_closed_form(n, t)

    def test_ratio_increasing_in_t_and_below_c(self):
        c3 = 3 / exponent(3)
        prev = 0.0
        for t in range(1, 8):
            fam = extremal_family(3, t)
            size = 2 * comb(3 * t, t)
            count = extremal_count_closed_form(3, t)
            ratio = math.log(count) / math.log(size)
            assert ratio > prev
            assert ratio < c3
            prev = ratio
        assert prev == pytest.approx(1.60, abs=0.01)

    def test_m_cap(self):
        with pytest.raises(ValueError):
            extremal_family(3, 9)  # m = 27

    def test_bad_args(self):
        with pytest.raises(ValueError):
            extremal_family(1, 2)
        with pytest.raises(ValueError):
            extremal_family(3, 0)
