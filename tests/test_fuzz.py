"""Malformed input through cli.main: family files for `count` and
function files for `verify --functions`.  Any input exits 0, 1 or 2,
never with a traceback, and a report on stdout is strict JSON."""

import contextlib
import io
import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeconv import cli

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.txt"


def reject_constant(name):
    raise ValueError(f"not JSON: {name}")


def run(path, text, argv):
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would reach stderr
        code = cli.main(argv + [str(path)])
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
