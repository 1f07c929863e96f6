"""The table contract of CubeFunction: a read-only ndarray whose dtype
follows flavor and magnitude, with `values` as its tuple view."""

import itertools
import math

import numpy as np
import pytest

from cubeconv import counting
from cubeconv.core import INT, REAL, CubeFunction, SetFamily, family_to_functions
from cubeconv.transform import moebius, subset_convolve, zeta


def assert_read_only(f):
    assert not f.table.flags.writeable
    with pytest.raises(ValueError):
        f.table[0] = 1
    with pytest.raises(ValueError):
        f.table += 1


class TestTable:
    def test_read_only(self):
        assert_read_only(CubeFunction(2, [1.0, 2.0, 3.0, 4.0], REAL))
        assert_read_only(CubeFunction(2, [1, 2, 3, 4], INT))
        assert_read_only(CubeFunction(1, [2**70, 1], INT))

    def test_input_array_is_copied(self):
        source = np.arange(4, dtype=np.int64)
        f = CubeFunction(2, source, INT)
        source[0] = 7
        assert f.values == (0, 1, 2, 3)
        assert source.flags.writeable

    @pytest.mark.parametrize(
        "values, flavor, dtype",
        [
            ([1.0, -2.5], REAL, np.float64),
            ([1, 2], REAL, np.float64),
            ([1, -2], INT, np.int64),
            ([2**63 - 1, -(2**63)], INT, np.int64),
            ([2**63, 0], INT, object),
            ([0, -(2**63) - 1], INT, object),
            ([3**50, -(2**70)], INT, object),
        ],
    )
    def test_dtype_follows_flavor_and_magnitude(self, values, flavor, dtype):
        assert CubeFunction(1, values, flavor).table.dtype == dtype

    @pytest.mark.parametrize(
        "values, bad",
        [
            ([0.5, 1.5], "0.5"),
            ([2.9, -1.9], "2.9"),
            ([math.inf, 1.0], "inf"),
            ([2**70, 0.5], "0.5"),
            ([1, 2.0], "2.0"),
            (np.array([1.0, 2.0]), "1.0"),
        ],
    )
    def test_int_flavor_refuses_a_value_that_is_no_integer(self, values, bad):
        with pytest.raises(ValueError, match=rf"^integer flavor refuses {bad}$"):
            CubeFunction(1, values, INT)

    @pytest.mark.parametrize(
        "values, bad",
        [
            (["1.5", "2"], "'1.5'"),
            (np.array(["1.5", "2"]), "'1.5'"),
            ([None, 1.0], "None"),
            ([2**1100, 0], str(2**1100)),
            ([1.0, -(2**1100)], str(-(2**1100))),
            ([1 + 0j, 2], r"\(1\+0j\)"),
            (np.array([1.0, 2.0], dtype=complex), r"\(1\+0j\)"),
        ],
        ids=["text", "text-array", "none", "past-float64", "past-float64-negative", "complex", "complex-array"],
    )
    def test_real_flavor_refuses_a_value_that_is_no_real_number(self, values, bad):
        with pytest.raises(ValueError, match=rf"^real flavor refuses {bad}$"):
            CubeFunction(1, values, REAL)

    @pytest.mark.parametrize(
        "values",
        [[True, False], [3, -1], [0.5, -0.0], [2**70, 1.5], np.array([1, 0], dtype=np.uint64), np.float32([0.5, 2])],
    )
    def test_real_flavor_takes_bools_ints_and_floats(self, values):
        assert CubeFunction(1, values, REAL).values == tuple(float(v) for v in values)

    def test_uint64_past_int64_is_kept_exact(self):
        f = CubeFunction(1, np.array([2**63, 1], dtype=np.uint64), INT)
        assert f.table.dtype == object and f.values == (2**63, 1)

    @pytest.mark.parametrize(
        "values", [[np.int64(3), 2**70], [True, 2**70], np.array([np.uint64(3), 2**70], dtype=object)]
    )
    def test_an_object_table_holds_python_ints(self, values):
        f = CubeFunction(1, values, INT)
        assert f.table.dtype == object and all(type(v) is int for v in f.values)
        assert zeta(f) == zeta(CubeFunction(1, [int(v) for v in values], INT))

    @pytest.mark.parametrize(
        "values, flavor",
        [
            ([0.5, -0.0, 1e300, -3.25], REAL),
            ([0, 1, -(2**62), 2**62], INT),
            ([3**50, -(2**70), 0, 1], INT),
        ],
    )
    def test_values_is_the_tuple_of_python_numbers(self, values, flavor):
        f = CubeFunction(2, values, flavor)
        assert f.values == tuple(values)
        assert f.values is f.values
        kind = float if flavor == REAL else int
        assert all(type(v) is kind for v in f.values)
        assert [math.copysign(1, v) for v in f.values] == [math.copysign(1, v) for v in values]

    def test_value_equality_and_hash(self):
        f, g = CubeFunction(1, [1, 2], INT), CubeFunction(1, np.array([1, 2]), INT)
        assert f == g and hash(f) == hash(g)
        assert f != CubeFunction(1, [1, 3], INT)
        assert f != CubeFunction(1, [1, 2], REAL)
        assert (f == 1) is False and (f == (1, 2)) is False  # not a CubeFunction

    def test_negative_zero_equals_zero(self):
        f, g = CubeFunction(1, [-0.0, 1.0]), CubeFunction(1, [0.0, 1.0])
        assert f == g and hash(f) == hash(g)

    def test_equality_and_hash_read_the_table(self):
        f, g = CubeFunction(2, [0.5, -0.0, 1e300, -3.25]), CubeFunction(2, [0.5, 0.0, 1e300, -3.25])
        assert f == g and hash(f) == hash(g)
        assert "values" not in vars(f) and "values" not in vars(g)
        big = [3**50, -(2**70), 0, 1]  # an object table hashes its Python ints
        assert CubeFunction(2, big, INT) == CubeFunction(2, np.array(big, dtype=object), INT)
        assert hash(CubeFunction(2, big, INT)) == hash(CubeFunction(2, list(big), INT))
        assert CubeFunction(2, big, INT) != CubeFunction(2, big[:3] + [2], INT)
        assert CubeFunction(1, [2**70, 1], INT) != CubeFunction(2, big, INT)

    def test_a_table_holding_nan_equals_itself(self):
        f = CubeFunction(1, [math.nan, 1.0])
        assert f == f and hash(f) == hash(f)

    def test_nested_input_rejected(self):
        with pytest.raises(ValueError, match=r"^need exactly 2 values, got shape \(2, 2\)$"):
            CubeFunction(1, [[1, 2], [3, 4]], INT)

    @pytest.mark.parametrize("flavor", [REAL, INT])
    def test_a_nested_table_of_the_right_size_names_its_shape(self, flavor):
        with pytest.raises(ValueError, match=r"^need exactly 2 values, got shape \(1, 2\)$"):
            CubeFunction(1, [[1, 2]], flavor)


class TestFamilyTables:
    def test_indicators_are_int64_at_members_and_complements(self):
        fam = SetFamily.from_masks(5, [0, 3, 5, 9, 14, 31])
        fs = family_to_functions(fam, 3)
        assert fs[0] is fs[1]
        full = (1 << 5) - 1
        for f, support in ((fs[0], fam.members), (fs[2], [s ^ full for s in fam.members])):
            assert f.table.dtype == np.int64
            assert_read_only(f)
            assert np.flatnonzero(f.table).tolist() == sorted(support)
            assert set(f.values) == {0, 1}

    @pytest.mark.parametrize("n, t", [(2, 1), (2, 3), (3, 1), (3, 2), (4, 2), (5, 1)])
    def test_extremal_family_matches_combinations(self, n, t):
        m = n * t
        masks = {
            sum(1 << i for i in combo)
            for size in (t, (n - 1) * t)
            for combo in itertools.combinations(range(m), size)
        }
        assert counting.extremal_family(n, t) == SetFamily.from_masks(m, masks)


class TestTransformTables:
    @pytest.mark.parametrize("flavor", [REAL, INT])
    def test_outputs_are_read_only(self, flavor):
        f = CubeFunction(3, [1, -2, 3, 0, 5, 1, -1, 2], flavor)
        g = CubeFunction(3, [2, 0, 1, 1, -3, 4, 0, 1], flavor)
        for h in (zeta(f), moebius(f), subset_convolve(f, g)):
            assert_read_only(h)
            assert h.table.dtype == (np.float64 if flavor == REAL else np.int64)

    def test_big_outputs_keep_python_ints(self):
        f = CubeFunction(2, [2**62, 2**62, 2**62, 2**62], INT)
        g = zeta(f)
        assert g.table.dtype == object
        assert_read_only(g)
        assert g.values == (2**62, 2**63, 2**63, 2**64)
        assert moebius(g).table.dtype == np.int64
        assert moebius(g) == f
