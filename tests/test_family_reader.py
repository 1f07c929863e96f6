"""The numpy reader and writer of canonical family files against loop
references.

cli.parse_family reads files in the form serialize_family writes with
numpy, in pieces of whole lines, and hands every other file to
cli._parse_lines.  Each reader test here asks that parse_family and the
line parser alone give the same family or the same ValueError message,
also in pieces of a few bytes.  The writer tests ask that
serialize_family write the same text as a loop over each member's bits.
"""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeconv import cli, counting
from cubeconv.core import MAX_M, SetFamily

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def outcome(parse, text):
    try:
        return "family", parse(text)
    except ValueError as exc:
        return "error", str(exc)


def assert_same(text):
    """parse_family, in its own pieces and in pieces of a few bytes, cut at
    almost every line, against the line parser."""
    expected = outcome(cli._parse_lines, text)
    assert outcome(cli.parse_family, text) == expected
    for piece in (1, 3, 8):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_PIECE", piece)
            assert outcome(cli.parse_family, text) == expected


@st.composite
def canonical_files(draw):
    """A file as serialize_family writes it, elements in any order, with or
    without the header and the final newline."""
    m = draw(st.integers(1, MAX_M))
    sets = draw(
        st.lists(
            st.lists(st.integers(1, m), unique=True, max_size=m).map(lambda s: ",".join(map(str, s)) or "-"),
            min_size=1,
            max_size=12,
        )
    )
    lines = ([f"m={m}"] if draw(st.booleans()) else []) + sets
    return "\n".join(lines) + ("\n" if draw(st.booleans()) else "")


MUTATIONS = [
    lambda lines, i: lines[:i] + [lines[i] + " # comment"] + lines[i + 1 :],
    lambda lines, i: lines[:i] + [" " + lines[i].replace(",", " , ")] + lines[i + 1 :],
    lambda lines, i: [line + "\r" for line in lines],
    lambda lines, i: lines[:i] + [""] + lines[i:],
    lambda lines, i: lines[:i] + ["03"] + lines[i:],
    lambda lines, i: lines[:i] + ["0"] + lines[i:],
    lambda lines, i: lines[:i] + ["25"] + lines[i:],
    lambda lines, i: lines[:i] + ["1,24"] + lines[i:],
    lambda lines, i: lines[:i] + [lines[i] + "," + lines[i].split(",")[0]] + lines[i + 1 :],
    lambda lines, i: lines + [lines[i]],
    lambda lines, i: lines[:i] + ["m=3"] + lines[i:],
    lambda lines, i: [line if line.startswith("m=") else "-" for line in lines],
    lambda lines, i: lines[:i] + ["1,,2"] + lines[i:],
    lambda lines, i: lines[:i] + ["-,1"] + lines[i:],
    lambda lines, i: lines[:i] + ["1,2,"] + lines[i:],
    lambda lines, i: lines[:i] + ["124"] + lines[i:],
    lambda lines, i: [line.replace("m=", "m=0") for line in lines],
]


@st.composite
def mutated_files(draw):
    text = draw(canonical_files())
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        lines = draw(st.sampled_from(MUTATIONS))(lines, i) or ["-"]
    return "\n".join(lines) + ("\n" if text.endswith("\n") else "")


class TestDifferential:
    @SETTINGS
    @given(canonical_files())
    def test_canonical_files(self, text):
        assert_same(text)

    @SETTINGS
    @given(mutated_files())
    def test_mutated_files(self, text):
        assert_same(text)

    @SETTINGS
    @given(st.text(alphabet="0123456789,-\nm=# \r", max_size=40))
    def test_any_text_over_the_format_bytes(self, text):
        assert_same(text)

    @pytest.mark.parametrize(
        "text",
        [
            "m=3\n1,3\n-\n2\n",
            "1,3,7\n2",
            "m=3\n-\n",
            "-\n-\n",
            "m=24\n24,1\n",
            "m=2\n3\n",
            "m=3\n1,1\n",
            "24,24\n",
            "m=3\n1,2\n2,1\n",
            "m=3\n03\n",
            "m=3\n0\n",
            "25\n",
            "m=25\n1\n",
            "m=03\n1\n",
            "m=3\n",
            "",
            "\n",
            "-1\n",
            "1,-\n",
            "1\n\n",
            "m=3\r\n1\r\n",
            "1\nm=3\n",
            pytest.param(",".join(["1"] * 256 + ["9"]) + "\n", id="256-ones-and-a-9"),  # sums to {10}
            # integers int() reads but the format does not: only ASCII digits
            "1_0\n",
            "+3\n",
            "\uff13\n",  # fullwidth 3
            "0x1\n",
            "1,\u0662\n",  # Arabic-Indic 2
            "m=0_3\n1\n",
            "m=+3\n1\n",
            "m=\uff13\n1\n",
            "m=-1\n1\n",
            "m= 3\n1\n",
            "1 # \u00e9\n",
            "m=3\n1,3 # \u00e9\n2\n",
        ],
    )
    def test_edge_cases(self, text):
        assert_same(text)

    def test_a_non_ascii_comment_leaves_the_family_as_it_is(self):
        """A non-ASCII file goes to the line parser, which drops comments."""
        assert cli.parse_family("m=3\n1,3 # \u00e9\n2\n") == cli.parse_family("m=3\n1,3\n2\n")


def test_canonical_m21_file_never_enters_the_line_parser(monkeypatch):
    family = counting.extremal_family(3, 7)
    text = cli.serialize_family(family)

    def refuse(text):
        raise AssertionError("the line parser was called")

    monkeypatch.setattr(cli, "_parse_lines", refuse)
    for piece in (cli._PIECE, 1 << 10):  # 256 KB pieces, or 1 KB ones of about 40 lines
        monkeypatch.setattr(cli, "_PIECE", piece)
        assert cli.parse_family(text) == family
        assert cli.parse_family(text.removesuffix("\n")) == family


def test_m21_file_is_read_in_under_four_times_its_length():
    """The reader's arrays, above the text it reads, stay below 4 bytes a
    character: the byte-wide arrays live one piece at a time."""
    text = cli.serialize_family(counting.extremal_family(3, 7))
    tracemalloc.start()
    try:
        cli.parse_family(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(text)


def serialize_by_loop(family):
    """The family file written one member and one bit at a time."""
    lines = [f"m={family.m}"]
    for mask in family.members:
        elems = [str(i + 1) for i in range(family.m) if mask >> i & 1]
        lines.append(",".join(elems) if elems else "-")
    return "\n".join(lines) + "\n"


@st.composite
def families(draw):
    m = draw(st.integers(1, MAX_M))
    masks = draw(st.lists(st.integers(0, (1 << m) - 1), max_size=40))
    return SetFamily.from_masks(m, masks + draw(st.sampled_from([[], [0], [(1 << m) - 1]])))


class TestWriter:
    @SETTINGS
    @given(families())
    def test_writes_the_loop_text(self, family):
        text = cli.serialize_family(family)
        assert text == serialize_by_loop(family)
        if len(family):  # a file without sets is an error
            assert cli.parse_family(text) == family

    @pytest.mark.parametrize("m", [1, 9, 10, MAX_M])
    def test_edge_families(self, m):
        for masks in ([], [0], [(1 << m) - 1], [0, 1 << (m - 1)]):
            family = SetFamily.from_masks(m, masks)
            assert cli.serialize_family(family) == serialize_by_loop(family)

    def test_m21_extremal_family(self):
        family = counting.extremal_family(3, 7)
        assert cli.serialize_family(family) == serialize_by_loop(family)
