import json
import math
import random
import re
import tracemalloc
import warnings

import pytest

from cubeconv import cli, counting
from cubeconv.core import MAX_N, REAL, CubeFunction, SetFamily


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out else None
    return code, payload, captured.err


class TestFamilyFiles:
    def test_parse_basic(self):
        fam = cli.parse_family("m=3\n# comment\n1,3\n-\n2\n")
        assert fam.m == 3
        assert fam.members.tolist() == [0, 0b010, 0b101]

    def test_header_optional_m_inferred(self):
        fam = cli.parse_family("1,3,7\n2\n")
        assert fam.m == 7

    def test_inline_comments_and_blank_lines(self):
        fam = cli.parse_family("m=2\n\n1 # just element one\n1,2\n")
        assert fam.members.tolist() == [0b01, 0b11]

    def test_empty_only_without_header_rejected(self):
        with pytest.raises(ValueError):
            cli.parse_family("-\n")

    def test_duplicate_element_rejected(self):
        with pytest.raises(ValueError):
            cli.parse_family("m=3\n1,1\n")

    def test_duplicate_set_rejected(self):
        with pytest.raises(ValueError):
            cli.parse_family("m=3\n1,2\n2,1\n")

    def test_element_out_of_range(self):
        with pytest.raises(ValueError):
            cli.parse_family("m=2\n0,2\n")
        with pytest.raises(ValueError):
            cli.parse_family("m=2\n3\n")

    def test_late_header_rejected(self):
        with pytest.raises(ValueError):
            cli.parse_family("1\nm=3\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("m=3\n1,,2\n", "line 2: empty element"),
            ("m=3\n1, ,2\n", "line 2: empty element"),
            ("m=3\n2,0\n", "line 2: element 0 out of range (1-based)"),
            ("m=3\n-4\n", "line 2: element -4 out of range (1-based)"),
            ("m=3\n1,1\n", "line 2: duplicate element within set"),
            ("m=3\n 2, 02\n", "line 2: duplicate element within set"),
            ("m=3\n7,7\n", "line 2: duplicate element within set"),
            ("m=3\n30,30\n", "line 2: duplicate element within set"),
            ("m=2\n3\n", "element 3 exceeds m=2"),
            ("m=2\n1\n4,1\n3\n", "element 4 exceeds m=2"),
            ("m=2\n99999999999\n", "element 99999999999 exceeds m=2"),
            ("m=2\n3\n1\n1\n", "element 3 exceeds m=2"),
            ("m=2\n3\n1,,2\n", "line 3: empty element"),
            ("1\nm=3\n", "line 2: header must precede all sets"),
            ("m=3\nm=3\n1\n", "line 2: duplicate header"),
            ("m=0\n1\n", "line 1: m must be >= 1"),
            ("m=3\n# no sets\n\n", "family file contains no sets"),
            ("", "family file contains no sets"),
            ("-\n-\n", "cannot infer m from a family of only empty sets; add an m= header"),
            ("m=3\n1,2\n2,1\n", "duplicate sets in family file"),
            ("m=3\n-\n1\n-\n", "duplicate sets in family file"),
        ],
    )
    def test_error_messages(self, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cli.parse_family(text)

    def test_non_canonical_element_spellings(self):
        fam = cli.parse_family("m= 4\n 2 , 3\n04\n1,2 # c\n-\n")
        assert fam == cli.parse_family("m=4\n2,3\n4\n1,2\n-\n")
        assert fam.members.tolist() == [0, 0b0011, 0b0110, 0b1000]
        with pytest.raises(ValueError, match=r"^line 2: element '\+3' is not a decimal integer$"):
            cli.parse_family("m=4\n 2 ,+3\n")

    def test_round_trip(self):
        rng = random.Random(6)
        for _ in range(20):
            m = rng.randint(1, 8)
            masks = rng.sample(range(1 << m), rng.randint(1, min(1 << m, 12)))
            fam = SetFamily.from_masks(m, masks)
            assert cli.parse_family(cli.serialize_family(fam)) == fam


class TestFunctionFiles:
    def test_round_trip(self):
        rng = random.Random(12)
        fs = [
            CubeFunction(3, [rng.uniform(-2, 2) for _ in range(8)], REAL) for _ in range(2)
        ]
        parsed = cli.parse_functions(cli.serialize_functions(fs))
        assert len(parsed) == 2
        assert all(p.values == f.values for p, f in zip(parsed, fs))

    def test_values_are_written_by_repr(self):
        fs = [CubeFunction(1, [-0.0, 5e-324], REAL), CubeFunction(1, [1e308, -2.5], REAL)]
        text = cli.serialize_functions(fs)
        assert text == "m=1 count=2\n-0.0 5e-324\n1e+308 -2.5\n"
        assert [p.table.tobytes() for p in cli.parse_functions(text)] == [f.table.tobytes() for f in fs]

    def test_bad_header(self):
        with pytest.raises(ValueError):
            cli.parse_functions("count=2 m=1\n1 1\n1 1\n")

    def test_wrong_value_count(self):
        with pytest.raises(ValueError):
            cli.parse_functions("m=2 count=1\n1 2 3\n")


class TestExponentCommand:
    def test_n3(self, capsys):
        code, out, _ = run_cli(capsys, "exponent", "--n", "3")
        assert code == 0
        assert 1.725 <= out["c"] <= 1.727
        assert out["r"] == out["p"] - 1

    def test_n2(self, capsys):
        code, out, _ = run_cli(capsys, "exponent", "--n", "2")
        assert code == 0
        assert out["p"] == 2.0

    @pytest.mark.parametrize("n", [2, 3, 4, 64, MAX_N])
    def test_prints_p_and_its_derived_fields(self, capsys, n):
        ln_n = math.log(n)
        p = (n * ln_n - (n - 1) * math.log(n - 1)) / ln_n  # the expanded form
        assert cli.main(["exponent", "--n", str(n)]) == 0
        assert capsys.readouterr().out == json.dumps({"c": n / p, "n": n, "p": p, "r": p - 1.0}) + "\n"

    @pytest.mark.parametrize("n", [10**15, 10**16, 10**400])
    def test_n_whose_p_cancels_exits_2(self, capsys, n):
        # n ln n - (n-1) ln(n-1) cancels: to p = 1.04231 (not 1.02895) at
        # 10^15 and to p = 0 at 10^16; 10^400 is beyond float64.  All are
        # refused by the n bound before p is computed.
        code, out, err = run_cli(capsys, "exponent", "--n", str(n))
        assert (code, out) == (2, None)
        assert err.startswith(f"error: exponent requires 2 <= n <= {MAX_N} ")

    @pytest.mark.parametrize("n,code", [(MAX_N, 0), (MAX_N + 1, 2), (4009, 2), (30002, 2)])
    def test_admitted_n_are_one_interval(self, capsys, n, code):
        # 4009 is the first n whose p is off the cancellation-free form, and
        # 30002 is one of the larger n that used to pass that check again
        assert run_cli(capsys, "exponent", "--n", str(n))[0] == code

    def test_n1_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "exponent", "--n", "1")
        assert code == 2
        assert out is None
        assert "error" in err


class TestCountCommand:
    def test_empty_set_family(self, tmp_path, capsys):
        path = tmp_path / "fam.txt"
        path.write_text("m=1\n-\n")
        code, out, _ = run_cli(capsys, "count", "--family", str(path), "--n", "3")
        assert code == 0
        assert out["count"] == 1
        assert out["holds"] is True

    def test_powerset_of_two(self, tmp_path, capsys):
        path = tmp_path / "fam.txt"
        path.write_text("m=2\n-\n1\n2\n1,2\n")
        for method in ("fast", "brute"):
            code, out, _ = run_cli(
                capsys, "count", "--family", str(path), "--n", "3", "--method", method
            )
            assert code == 0
            assert out["count"] == 9
            assert out["ratio"] == pytest.approx(math.log(9) / math.log(4))

    def test_kernel_int64(self, tmp_path, capsys):
        path = tmp_path / "fam.txt"
        path.write_text("m=2\n-\n1\n2\n1,2\n")
        code, out, _ = run_cli(capsys, "count", "--family", str(path), "--n", "3")
        assert code == 0
        assert out["kernel"] == "int64"

    def test_kernel_crt(self, tmp_path, capsys):
        # Full powerset of [12] with n=7: the corner bound 4096^6 = 2^72
        # needs 2^64 and one prime.  Each element joins one of the six
        # blocks or none, so the count is 7^12.
        fam = SetFamily.from_masks(12, range(1 << 12))
        path = tmp_path / "fam.txt"
        path.write_text(cli.serialize_family(fam))
        code, out, _ = run_cli(capsys, "count", "--family", str(path), "--n", "7")
        assert code == 0
        assert out["kernel"] == "int64-crt2"
        assert out["count"] == 7**12

    def test_kernel_brute(self, tmp_path, capsys):
        path = tmp_path / "fam.txt"
        path.write_text("m=2\n-\n1\n2\n1,2\n")
        code, out, _ = run_cli(capsys, "count", "--family", str(path), "--n", "3", "--method", "brute")
        assert code == 0
        assert out["kernel"] == "brute"
        assert out["count"] == 9

    @pytest.mark.parametrize(
        "text, message",
        [
            ("m=2\n0,2\n", "line 2: element 0 out of range (1-based)"),
            ("m=3\n", "family file contains no sets"),
            ("m=2\n-1\n", "line 2: element -1 out of range (1-based)"),
            # integers that int() reads, but not in ASCII digits
            ("1_0\n", "line 1: element '1_0' is not a decimal integer"),
            ("m=4\n1,+3\n", "line 2: element '+3' is not a decimal integer"),
            ("\uff13\n", "line 1: element '\uff13' is not a decimal integer"),
            ("1\n0x1\n", "line 2: element '0x1' is not a decimal integer"),
            ("m=0_3\n1\n", "line 1: m '0_3' is not a decimal integer"),
            ("# h\nm=+3\n1\n", "line 2: m '+3' is not a decimal integer"),
        ],
    )
    def test_malformed_family_exits_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "count", "--family", str(path), "--n", "3")
        assert (code, out, err) == (2, None, f"error: {message}\n")

    def test_a_zero_count_has_no_log_and_no_ratio(self, tmp_path, capsys):
        path = tmp_path / "fam.txt"
        path.write_text("1\n2\n")  # no member is a disjoint union of two
        assert cli.main(["count", "--family", str(path), "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert '"count": 0, "family_size": 2, "holds": true, "kernel": "int64", "log_count": null' in out
        assert out.endswith('"ratio": null}\n')

    @pytest.mark.parametrize("text", ["1000000000\n", "3\n1,1000000000\n", "m=1000000000\n1000000000\n"])
    def test_oversized_m_exits_2_before_building_masks(self, tmp_path, capsys, text):
        path = tmp_path / "huge.txt"
        path.write_text(text)
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "count", "--family", str(path), "--n", "3")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, None)
        assert "m=1000000000 out of range [1, 24]" in err
        assert "Traceback" not in err
        assert peak < 2**24  # a 10^9-bit mask alone is 125 MB

    def test_an_n_past_max_n_is_refused_before_counting(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "fam.txt"
        path.write_text("m=2\n-\n1\n")
        counts = []
        monkeypatch.setattr(counting, "indicator_power_sum", lambda fam, k: counts.append(k) or (0, "int64"))
        code, out, err = run_cli(capsys, "count", "--family", str(path), "--n", str(MAX_N + 1))
        assert (code, out) == (2, None)
        assert err.startswith(f"error: exponent requires 2 <= n <= {MAX_N} ")
        assert counts == []

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "count", "--family", "/nonexistent", "--n", "3")
        assert code == 2


class TestVerifyCommand:
    @pytest.mark.parametrize("m", [25, 2**70])
    def test_oversized_m_in_function_file_exits_2(self, tmp_path, capsys, m):
        path = tmp_path / "huge.txt"
        path.write_text(f"m={m} count=1\n1.0\n")
        code, out, err = run_cli(capsys, "verify", "--functions", str(path))
        assert (code, out) == (2, None)
        assert f"m={m} out of range [1, 24]" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "header, message",
        [
            ("m=1_0 count=1", "line 1: m '1_0' is not a decimal integer"),
            ("m=+1 count=1", "line 1: m '+1' is not a decimal integer"),
            ("m=1 count=\u0662", "line 1: count '\u0662' is not a decimal integer"),
            ("m=0x1 count=1", "line 1: m '0x1' is not a decimal integer"),
            ("# a\nm=1\n\ncount=\uff12", "line 4: count '\uff12' is not a decimal integer"),
            ("m=-1 count=1", "m=-1 out of range [1, 24]"),
        ],
    )
    def test_a_header_integer_not_in_ascii_digits_exits_2(self, tmp_path, capsys, header, message):
        path = tmp_path / "bad.txt"
        path.write_text(f"{header}\n1.0 1.0\n1.0 1.0\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "verify", "--functions", str(path))
        assert (code, out, err) == (2, None, f"error: {message}\n")

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_value_in_function_file_exits_2(self, tmp_path, capsys, token):
        path = tmp_path / "bad.txt"
        path.write_text(f"m=1 count=2\n1.0 {token}\n1.0 1.0\n")
        code, out, err = run_cli(capsys, "verify", "--functions", str(path))
        assert (code, out) == (2, None)
        assert f"non-finite value '{token}'" in err
        assert "Traceback" not in err

    def test_oversized_witness_exits_2_before_building_values(self, capsys):
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "verify", "--witness", "--n", "3", "--m", "25")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, None)
        assert "m=25 out of range [1, 24]" in err
        assert peak < 2**24  # 2^25 boxed floats alone take over 1 GB

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_seed_exits_2(self, capsys, seed):
        code, out, err = run_cli(capsys, "verify", "--seed", str(seed), "--trials", "2")
        assert (code, out) == (2, None)
        assert f"seed must be in [0, 2^64), got {seed}" in err

    def test_largest_seed_runs(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--seed", str(2**64 - 1), "--trials", "2")
        assert code == 0
        assert out["seed"] == 2**64 - 1

    def test_m13_runs_and_repeats(self, capsys):
        argv = ["verify", "--m", "13", "--trials", "8"]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == first

    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--n", "3", "--m", "4", "--trials", "200", "--seed", "42"
        )
        assert code == 0
        assert out["failures"] == 0
        assert out["max_ratio"] < 1.0
        # config echoed for reproducibility
        for key in ("n", "m", "trials", "seed", "distribution", "rel_tol", "abs_tol"):
            assert key in out

    def test_byte_identical_reports(self, capsys):
        argv = ["verify", "--n", "3", "--m", "3", "--trials", "150", "--seed", "7",
                "--distribution", "sparse", "--signed"]
        cli.main(argv)
        first = capsys.readouterr().out
        cli.main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_witness_mode(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--witness", "--n", "3", "--m", "5")
        assert code == 0
        assert out["max_ratio"] == pytest.approx(1.0, abs=1e-9 * 5)

    def test_trials_zero_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--trials", "0")
        assert code == 2

    def test_functions_file_mode(self, tmp_path, capsys):
        path = tmp_path / "fns.txt"
        path.write_text("m=1 count=2\n1.0 1.0\n1.0 1.0\n")
        code, out, _ = run_cli(capsys, "verify", "--functions", str(path))
        assert code == 0
        assert out["lhs"] == pytest.approx(2.0)
        assert out["max_ratio"] == pytest.approx(1.0)

    @pytest.mark.parametrize("order", [0, 1])
    def test_functions_and_witness_together_exit_2(self, tmp_path, capsys, order):
        path = tmp_path / "fns.txt"
        path.write_text("m=1 count=2\n1.0 1.0\n1.0 1.0\n")
        modes = [["--functions", str(path)], ["--witness"]]
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", *modes[order], *modes[1 - order]])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert "not allowed with argument" in captured.err

    @pytest.mark.parametrize(
        "rows",
        [
            ["1e308 1.0", "1.0 1e300", "-1e308 1.0", "0.0 1.0"],
            ["-1e100 1e100", "-1e100 -1e100", "1e100 0.0", "-1e100 0.0", "0.0 1.0"],
            ["0.0 1e308", "0.0 1.0"],  # the corner is 0; |v|^p overflows in the norm
            ["0.0 1e190"] * 5,  # the corner is 0; each norm is finite, their product is not
        ],
    )
    def test_finite_values_that_overflow_exit_2(self, tmp_path, capsys, rows):
        path = tmp_path / "huge.txt"
        path.write_text(f"m=1 count={len(rows)}\n" + "\n".join(rows) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning either
            code, out, err = run_cli(capsys, "verify", "--functions", str(path))
        assert (code, out) == (2, None)
        assert re.fullmatch(r"error: .* overflows float64\n", err)

    def test_a_norm_past_float64_is_named_as_in_the_trials(self, tmp_path, capsys):
        path = tmp_path / "wide.txt"
        path.write_text("m=1 count=2\n1e200 1e200\n1e-100 1e-100\n")  # the corner is 2e100
        code, out, err = run_cli(capsys, "verify", "--functions", str(path))
        assert (code, out, err) == (2, None, "error: product of the norms overflows float64\n")

    def test_a_corner_that_overflows_exits_2(self, tmp_path, capsys):
        """The norm product is finite, and so is the corner's exact value,
        3^5 terms of 1e106; the ranked fold's products of zeta sums of
        1e153-sized values are not."""
        path = tmp_path / "wide.txt"
        rows = [" ".join([v] * 32) for v in ("1e153", "1e153", "1e-200")]
        path.write_text("m=5 count=3\n" + "\n".join(rows) + "\n")
        code, out, err = run_cli(capsys, "verify", "--functions", str(path))
        assert (code, out, err) == (2, None, "error: corner convolution overflows float64\n")

    def test_a_corner_that_underflows_exits_2(self, tmp_path, capsys):
        path = tmp_path / "tiny.txt"
        path.write_text("m=1 count=3\n1e-200 1e-200\n1e-200 1e-200\n1e-200 1e-200\n")  # terms of 1e-600
        code, out, err = run_cli(capsys, "verify", "--functions", str(path))
        assert (code, out, err) == (2, None, "error: corner convolution underflows float64\n")


class TestParserReuse:
    """main builds the argparse tree once; no option outlives its call."""

    def test_options_do_not_leak_between_calls(self, tmp_path, capsys):
        assert cli.build_parser() is cli.build_parser()
        argv = ["verify", "--n", "3", "--m", "3", "--trials", "20"]
        assert run_cli(capsys, *argv, "--signed")[1]["signed"] is True
        assert run_cli(capsys, *argv)[1]["signed"] is False
        path = tmp_path / "fam.txt"
        path.write_text("m=2\n-\n1\n2\n1,2\n")
        count = ["count", "--family", str(path), "--n", "3"]
        assert run_cli(capsys, *count, "--method", "brute")[1]["method"] == "brute"
        assert run_cli(capsys, *count)[1]["method"] == "fast"


class TestExtremalCommand:
    def test_t2(self, capsys):
        code, out, _ = run_cli(capsys, "extremal", "--n", "3", "--t", "2")
        assert code == 0
        assert out["ratio"] == pytest.approx(1.323, abs=1e-3)
        assert out["family_size"] == 30

    def test_t1(self, capsys):
        code, out, _ = run_cli(capsys, "extremal", "--n", "3", "--t", "1")
        assert code == 0
        assert out["ratio"] == pytest.approx(1.0)

    def test_cap_exceeded_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "extremal", "--n", "3", "--t", "9")
        assert code == 2

    def test_cap_is_max_m(self, capsys):
        # one cap for every flavor: m = 25 is the first ground size refused
        code, out, err = run_cli(capsys, "extremal", "--n", "5", "--t", "5")
        assert code == 2
        assert out is None
        assert "ground size n*t = 25 exceeds cap 24" in err


class TestLemmaCommand:
    def test_solve_n3_k1(self, capsys):
        code, out, _ = run_cli(capsys, "lemma", "solve", "--n", "3", "--k", "1")
        assert code == 0
        assert out["status"] == "ok"
        assert out["residual_eq1"] < 1e-9
        assert out["last_value"] >= -1e-9

    def test_solve_inadmissible_k_is_information(self, capsys):
        code, out, _ = run_cli(capsys, "lemma", "solve", "--n", "3", "--k", "2")
        assert code == 0
        assert out["status"] in ("no-root", "domain-violation")

    def test_scan(self, capsys):
        code, out, _ = run_cli(capsys, "lemma", "scan", "--n", "3", "--grid", "1000")
        assert code == 0
        assert out["min_last_value"] >= -1e-9

    def test_k_out_of_range_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "lemma", "solve", "--n", "3", "--k", "3")
        assert code == 2

    def test_solve_requires_k(self, capsys):
        code, _, _ = run_cli(capsys, "lemma", "solve", "--n", "3")
        assert code == 2

    def test_scan_grid_over_the_budget_exits_2_before_allocating(self, capsys):
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "lemma", "scan", "--n", "3", "--grid", "10000000000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, None)
        assert err.startswith("error: a scan grid of 10000000000 points needs 400000000000 bytes")
        assert peak < 2**24  # one grid-sized float64 array alone is 80 GB
