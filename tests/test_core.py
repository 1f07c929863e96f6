import math

import numpy as np
import pytest

import cubeconv
from cubeconv import core, lemma_lab
from cubeconv.core import (
    INT,
    REAL,
    CubeFunction,
    SetFamily,
    exponent,
    family_to_functions,
    lp_norms,
)
from cubeconv.transform import _fit_fold
from cubeconv.verifier import _sides
from oracles import p_ns


class TestExponent:
    def test_n2_is_exactly_two(self):
        assert exponent(2) == 2.0

    def test_n3_counting_exponent(self):
        # c(3) ~ 1.725
        assert abs(3 / exponent(3) - 1.725) <= 2e-3

    def test_n4_pinned(self):
        # ln(256/27)/ln 4, evaluated independently at high precision
        assert exponent(4) == pytest.approx(1.622556248918, abs=5e-13)

    def test_takes_a_numpy_integer(self):
        exponent.cache_clear()  # else an int 7 cached earlier would answer for it
        assert exponent(np.int64(7)) == exponent(7)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            exponent(1)
        with pytest.raises(ValueError):
            exponent(0)

    def test_strictly_decreasing_and_in_range(self):
        ps = [exponent(n) for n in range(2, 65)]
        assert all(1.0 < p <= 2.0 for p in ps)
        assert all(a > b for a, b in zip(ps, ps[1:]))

    def test_log_identity(self):
        for n in range(2, 65):
            lhs = exponent(n) * math.log(n)
            rhs = n * math.log(n) - (n - 1) * math.log(n - 1)
            assert abs(lhs - rhs) <= 1e-13 * rhs

    def test_p_is_the_correctly_rounded_p_n(self):
        off = [n for n, p in enumerate(p_ns(core.MAX_N), 2) if exponent(n) != p]
        assert off == []

    @pytest.mark.parametrize("n", [10**7, 10**15, 10**16, 10**400])
    def test_cancelling_n_is_refused_before_c(self, n):
        # past the cap, so refused before p is evaluated (a float64 expanded
        # form would give p = 0 exactly at 10^16, and c = n/p would divide by it)
        with pytest.raises(ValueError, match=f"got {n}$"):
            exponent(n)

    def test_admitted_n_are_one_interval(self):
        # the cap alone decides: every n past MAX_N is refused, 4009 and 30002 too
        assert core.MAX_N <= 4008
        for n in (core.MAX_N + 1, 4009, 30002, 10**400):
            with pytest.raises(ValueError, match=rf"^exponent requires 2 <= n <= {core.MAX_N} "):
                exponent(n)

    def test_derived_fields(self):
        # r = p - 1.0 and c = n / p, as their readers compute them
        p = exponent(7)
        assert type(p) is float
        assert lemma_lab.solve_critical_system(7, 1).r == p - 1.0
        report = cubeconv.bound_report(SetFamily.from_masks(3, [1, 2, 4]), 7)
        assert report.bound_log == 7 / p * math.log(3)


class TestLpNorm:
    def test_two_point_l2(self):
        assert lp_norms(np.array([[1.0, 1.0], [3.0, 4.0]]), 2) == pytest.approx([math.sqrt(2), 5.0])

    def test_l1(self):
        assert lp_norms(np.array([1.0, 2.0, 3.0, 4.0]), 1) == pytest.approx(10.0)

    def test_zero_function(self):
        assert lp_norms(np.zeros((1, 4)), 1.5).tolist() == [0.0]

    def test_the_input_is_left_as_it_is(self):
        x = np.array([[-2.0, 0.0, -0.0, 3.5], [1e-300, -1e300, 5e-324, 0.0]])
        before = x.tobytes()
        with np.errstate(over="ignore"):
            norms = lp_norms(x, 1.5)
        assert x.tobytes() == before
        assert norms[1] == math.inf
        table = CubeFunction(2, [-2.0, 0.0, 1.0, 3.0]).table  # read-only
        assert lp_norms(table, 2) == pytest.approx(math.sqrt(14))

    def test_a_function_gets_the_bits_of_the_stacked_call(self):
        """Norms taken a function at a time equal those of one call on the
        stacked (n, trials, 2^m) tables, bit for bit."""
        rng = np.random.default_rng(5)
        x = rng.exponential(size=(4, 9, 64)) * (rng.random((4, 9, 64)) < 0.5)
        stacked = lp_norms(x, 1.3)
        assert np.array_equal(np.stack([lp_norms(t, 1.3) for t in x]), stacked)
        assert np.array_equal(np.stack([lp_norms(x[0, i], 1.3) for i in range(9)]), stacked[0])

    @pytest.mark.parametrize("f", [[1e308, 1.0], [1e300, -1e300]])
    def test_overflow_is_a_value_error(self, f):
        with pytest.raises(ValueError, match="^product of the norms overflows float64$"):
            _sides([np.array(f), np.ones(2)], 1, 1.5)


class TestCubeFunction:
    def test_length_checked(self):
        with pytest.raises(ValueError):
            CubeFunction(2, [1.0, 2.0, 3.0])

    def test_flavor_checked(self):
        with pytest.raises(ValueError):
            CubeFunction(1, [1, 0], "complex")

    @pytest.mark.parametrize("flavor", [REAL, INT])
    def test_one_cap_for_both_flavors(self, flavor):
        with pytest.raises(ValueError, match=r"^m=25 out of range \[1, 24\]$"):
            CubeFunction(25, [0], flavor)
        with pytest.raises(ValueError, match="need exactly 16777216 values"):  # m=24 passes the cap
            CubeFunction(24, [0], flavor)


class TestSetFamily:
    def test_dedupe_and_sort(self):
        fam = SetFamily.from_masks(3, [5, 1, 5, 0])
        assert fam.members.tolist() == [0, 1, 5]
        assert len(fam) == 3

    def test_duplicates_rejected_in_constructor(self):
        with pytest.raises(ValueError):
            SetFamily(2, (1, 1, 2))

    def test_member_out_of_range(self):
        with pytest.raises(ValueError):
            SetFamily(2, (4,))

    @pytest.mark.parametrize("member", [4, 2**62, 2**63, 2**70, -1, -(2**63), -(2**64)])
    def test_member_outside_the_cube_is_named(self, member):
        # members past int64 in either direction get the same message
        with pytest.raises(ValueError, match=r"^family member outside 2\^\[m\]$"):
            SetFamily(2, (0, member) if member > 0 else (member, 1))

    @pytest.mark.parametrize("members", [("3",), (1.5,), (0, 2.0), (None,)])
    def test_members_must_be_integers(self, members):
        with pytest.raises(TypeError):
            SetFamily(2, members)

    @pytest.mark.parametrize("members", [(1, 1, 2), (2, 1), (0, 3, 3)])
    def test_unsorted_or_repeated_members_are_named(self, members):
        message = r"^members must be strictly increasing \(duplicates forbidden\)$"
        with pytest.raises(ValueError, match=message):
            SetFamily(2, members)

    def test_members_are_a_read_only_int64_array_of_its_own(self):
        given = np.array([0, 1, 5], dtype=np.uint8)
        fam = SetFamily(3, given)
        assert fam.members.dtype == np.int64 and not fam.members.flags.writeable
        with pytest.raises(ValueError):
            fam.members[0] = 2
        given[0] = 7  # the family holds a copy
        assert fam.members.tolist() == [0, 1, 5]
        assert SetFamily(3).members.dtype == np.int64 and len(SetFamily(3)) == 0

    def test_equal_and_hashed_by_value_whatever_the_input(self):
        families = [
            SetFamily(3, (0, 1, 2)),
            SetFamily(3, [0, 1, 2]),
            SetFamily(3, range(3)),
            SetFamily(3, np.arange(3)),
            SetFamily(3, np.arange(3, dtype=np.uint8)),
            SetFamily.from_masks(3, {2, 0, 1}),
            SetFamily.from_masks(3, np.array([2, 0, 1, 2])),
        ]
        assert all(fam == families[0] and hash(fam) == hash(families[0]) for fam in families)
        assert SetFamily(4, (0, 1, 2)) != families[0]
        assert SetFamily(3, (0, 1)) != families[0]
        assert families[0] != (0, 1, 2)
        assert len({*families, SetFamily(4, (0, 1, 2))}) == 2

    @pytest.mark.parametrize(
        "members,error",
        [
            (np.array([1.5]), TypeError),
            (np.array(["3"]), TypeError),
            (np.array([None]), TypeError),
            (np.array([4]), ValueError),
            (np.array([-1, 1]), ValueError),
            (np.array([2**63], dtype=np.uint64), ValueError),
            (np.array([2**70], dtype=object), ValueError),
        ],
    )
    def test_array_members_get_the_same_errors(self, members, error):
        message = "family members must be integer masks" if error is TypeError else r"family member outside 2\^\[m\]"
        with pytest.raises(error, match=f"^{message}$"):
            SetFamily(2, members)
        with pytest.raises(error, match=f"^{message}$"):
            SetFamily(2, members.tolist())

    @pytest.mark.parametrize(
        "masks,error",
        [
            (["3"], TypeError),
            ([1.5], TypeError),
            ((0, 2.0), TypeError),
            ([4, 0, 4], ValueError),
            ((0, 2**63), ValueError),
            ([2**70, 1], ValueError),
            ([-(2**64), 1], ValueError),
        ],
    )
    def test_from_masks_gets_the_same_errors(self, masks, error):
        with pytest.raises(error, match="^family member"):
            SetFamily.from_masks(2, masks)


class TestFamilyEncoding:
    def test_empty_set_family_m1(self):
        fam = SetFamily(1, (0,))
        f1, f2 = family_to_functions(fam, 2)
        assert f1.values == (1, 0)
        assert f2.values == (0, 1)  # complement of {1} is the empty set

    def test_full_powerset(self):
        fam = SetFamily(2, (0, 1, 2, 3))
        fs = family_to_functions(fam, 3)
        assert all(f.values == (1, 1, 1, 1) for f in fs)

    def test_single_set_complement_rule(self):
        fam = SetFamily(2, (0b01,))  # X = {{1}}
        f1, f2 = family_to_functions(fam, 2)
        assert f1.values == (0, 1, 0, 0)
        assert f2.values == (0, 0, 1, 0)  # nonzero only at mask 0b10

    def test_equal_masses(self):
        fam = SetFamily.from_masks(4, [0, 3, 5, 9, 14])
        for n in (2, 3, 5):
            fs = family_to_functions(fam, n)
            assert len(fs) == n
            assert all(sum(f.values) == len(fam) for f in fs)

    def test_rejects_n1(self):
        with pytest.raises(ValueError):
            family_to_functions(SetFamily(1, (0,)), 1)


class TestPackage:
    def test_all_names_resolve_once(self):
        assert len(set(cubeconv.__all__)) == len(cubeconv.__all__)
        for name in cubeconv.__all__:
            assert getattr(cubeconv, name) is not None

    @pytest.mark.parametrize(
        "name", ["SubsetMask", "is_disjoint", "union", "complement", "popcount", "HoelderParams"]
    )
    def test_removed_names_are_gone(self, name):
        assert name not in cubeconv.__all__
        assert not hasattr(cubeconv, name)
        assert not hasattr(cubeconv.core, name)

    def test_family_to_functions_is_no_package_name(self):
        # it stays in core and counting, where the benchmark's tracer wraps it
        assert "family_to_functions" not in cubeconv.__all__
        assert not hasattr(cubeconv, "family_to_functions")
        assert cubeconv.counting.family_to_functions is cubeconv.core.family_to_functions

    def test_removed_members_are_gone(self):
        for attr in ("__getitem__", "constant", "indicator"):
            assert not hasattr(CubeFunction, attr)
        for attr in ("__contains__", "indicator"):
            assert not hasattr(SetFamily, attr)


class TestFoldBudget:
    """A fold plan's peak gets three rank-table budgets: the three
    full-support tables of a product step."""

    def test_budget_is_a_full_support_float64_table_at_m23(self):
        assert core.RANK_TABLE_BUDGET == 24 * 2**23 * 8 == 1.5 * 2**30
        assert _fit_fold(3 * 24, 23) == 1
        assert _fit_fold(3 * 13, 12) == 3780  # verify keeps chunk 1024 at m <= 12

    def test_over_budget_names_the_bytes(self):
        message = f"needs {75 * 2**24 * 8} bytes, over the rank-table budget of {4.5 * 2**30:.0f} bytes"
        with pytest.raises(ValueError, match=message):
            _fit_fold(75, 24)  # the full-support fold at m=24
        with pytest.raises(ValueError, match=r"^a fold plan of 72 rank rows x 2\^23 masks x 2 needs"):
            _fit_fold(72, 23, batch=2)

    def test_rank_table_checks_are_gone(self):
        assert not hasattr(core, "fit_rank_table")
