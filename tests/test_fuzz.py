"""Malformed input through cli.main: family files for `count`, function
files for `verify --functions`, and the integer options of `exponent`,
`count`, `verify`, `extremal` and `lemma`.  Any input exits 0, 1 or 2,
never with a traceback, and a report on stdout is strict JSON."""

import contextlib
import io
import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeconv import cli
from cubeconv.core import MAX_N, RANK_TABLE_BUDGET

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.txt"


def reject_constant(name):
    raise ValueError(f"not JSON: {name}")


def run(path, text, argv):
    path.write_text(text, encoding="utf-8")
    run_argv(argv + [str(path)])


def run_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would reach stderr
        code = cli.main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
    else:
        json.loads(out.getvalue(), parse_constant=reject_constant)


family_text = st.text(alphabet="0123456789,-\nm=# \r+x", max_size=60)

number = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(
        ["1e308", "-1e308", "1e300", "1e190", "1e100", "-1e100", "5e-324", "0", "-0.0", "1e400", "nan", "x", "1,2"]
    ),
    st.integers(-(10**30), 10**30).map(str),
)


@st.composite
def function_text(draw):
    header = draw(
        st.one_of(
            st.builds("m={} count={}".format, st.integers(-1, 3), st.integers(0, 6)),
            st.text(alphabet="mcount=0123456789 ", max_size=16),
        )
    )
    values = draw(st.lists(number, max_size=40))
    return header + "\n" + " ".join(values) + draw(st.sampled_from(["", "\n", " # c\n"]))


@SETTINGS
@given(family_text)
def test_count_fuzz(path, text):
    run(path, text, ["count", "--n", "2", "--method", "brute", "--family"])


@SETTINGS
@given(function_text())
def test_verify_functions_fuzz(path, text):
    run(path, text, ["verify", "--functions"])


# Integer options, drawn so that no run is large: ground sets of at most 8
# elements (or past the cap of 24), products n*t of at most 12 (or past 24),
# scan grids of at most 10^4 points (or past the budget's five float64
# arrays a point), and n small, around the bound MAX_N, or far past it,
# where a float64 p_n would cancel.  An n-fold corner runs n - 1 rank
# products and a scan one pass a k, so n near the bound is drawn with at
# most 4 elements or 64 grid points, and mostly just past the bound.
# `count` at n = MAX_N takes about 46 s even on two sets, so its n is small
# or past the bound, where it is refused before the count.
HUGE = 2**70
near_bound_n = st.integers(MAX_N - 1, MAX_N + 8)
exponent_n = st.one_of(
    st.integers(-3, 2000),
    near_bound_n,
    st.integers(10**12, HUGE),
    st.sampled_from([10**15, 10**16, 2**64, 4009, 30002, 10**400]),
)
verify_m = st.one_of(st.integers(-2, 8), st.integers(25, HUGE))
verify_nm = st.one_of(
    st.tuples(st.integers(-2, 5), verify_m),
    st.tuples(near_bound_n, st.integers(-2, 4)),
    st.tuples(st.integers(10**16, HUGE), verify_m),
)
seed = st.one_of(
    st.integers(0, 2**64 - 1), st.integers(-HUGE, HUGE), st.sampled_from([-1, 2**64 - 1, 2**64])
)
past_grid = st.integers(RANK_TABLE_BUDGET // 40 + 1, HUGE)
lemma_scan = st.one_of(
    st.tuples(st.integers(-3, 12), st.one_of(st.integers(-2, 10**4), past_grid)),
    st.tuples(near_bound_n, st.one_of(st.integers(-2, 64), past_grid)),
    st.tuples(st.integers(10**16, HUGE), st.integers(-HUGE, HUGE)),
)
lemma_solve = st.one_of(
    st.tuples(st.integers(-3, 12), st.integers(-3, 13)),
    st.tuples(near_bound_n, st.one_of(st.integers(-2, 8), st.integers(MAX_N - 8, MAX_N + 10))),
    st.tuples(st.integers(10**16, HUGE), st.integers(-HUGE, HUGE)),
)
extremal_nt = st.one_of(
    st.tuples(st.integers(-2, 13), st.integers(-2, 13)),
    st.tuples(st.integers(-HUGE, HUGE), st.integers(-HUGE, HUGE)),
).filter(lambda nt: nt[0] * nt[1] <= 12 or nt[0] * nt[1] > 24)


@SETTINGS
@given(exponent_n)
def test_exponent_argv_fuzz(n):
    run_argv(["exponent", "--n", str(n)])


@settings(SETTINGS, max_examples=60, deadline=2000)  # ms
@given(st.one_of(st.integers(-3, 8), st.integers(MAX_N + 1, HUGE)))
def test_count_argv_fuzz(path, n):
    run(path, "m=2\n-\n1\n", ["count", "--n", str(n), "--family"])


@SETTINGS
@given(seed, verify_nm)
def test_verify_argv_fuzz(seed, nm):
    n, m = nm
    run_argv(["verify", "--seed", str(seed), "--n", str(n), "--m", str(m), "--trials", "1"])


@SETTINGS
@given(extremal_nt)
def test_extremal_argv_fuzz(nt):
    run_argv(["extremal", "--n", str(nt[0]), "--t", str(nt[1])])


@SETTINGS
@given(lemma_scan)
def test_lemma_scan_argv_fuzz(ng):
    run_argv(["lemma", "scan", "--n", str(ng[0]), "--grid", str(ng[1])])


@SETTINGS
@given(lemma_solve)
def test_lemma_solve_argv_fuzz(nk):
    run_argv(["lemma", "solve", "--n", str(nk[0]), "--k", str(nk[1])])
