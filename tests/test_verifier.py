import contextlib
import io
import math
import multiprocessing
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubeconv
from cubeconv import cli, core, transform, verifier
from cubeconv.core import INT, REAL, CubeFunction, exponent
from cubeconv.verifier import (
    DISTRIBUTIONS,
    TrialConfig,
    _draw_functions,
    check_lemma_mine,
    check_main_inequality,
    check_p_monotonicity,
    check_two_point,
    equality_witness,
    run_trials,
    trial_uniforms,
)
from oracles import corner_brute


def random_real_functions(rng, n, m, signed=False):
    lo = -1.0 if signed else 0.0
    return [
        CubeFunction(m, [rng.uniform(lo, 1.0) for _ in range(1 << m)], REAL) for _ in range(n)
    ]


class TestMainInequality:
    def test_n2_constant_equality(self):
        f = CubeFunction(1, [1.0, 1.0])
        check = check_main_inequality([f, f])
        assert check.lhs == pytest.approx(2.0)
        assert check.rhs == pytest.approx(2.0)
        assert check.ratio == pytest.approx(1.0, abs=1e-12)
        assert check.passed

    def test_remark_two_point_witness(self):
        check = check_main_inequality(equality_witness(3, 1))
        assert check.ratio == pytest.approx(1.0, abs=1e-12)

    def test_random_uniform_passes_with_brute_oracle(self):
        rng = random.Random(314)
        for _ in range(20):
            fs = random_real_functions(rng, 3, 4)
            check = check_main_inequality(fs)
            assert check.passed
            assert check.ratio < 1.0
            assert check.lhs == pytest.approx(
                corner_brute(fs), rel=1e-9, abs=1e-12
            )

    def test_homogeneity(self):
        rng = random.Random(55)
        fs = random_real_functions(rng, 4, 3, signed=True)
        base = check_main_inequality(fs)
        for lam in (0.25, 3.0, 17.5):
            scaled = [CubeFunction(3, [lam * v for v in fs[0].values], REAL)] + fs[1:]
            check = check_main_inequality(scaled)
            assert check.lhs == pytest.approx(lam * base.lhs, rel=1e-12, abs=1e-12)
            assert check.rhs == pytest.approx(lam * base.rhs, rel=1e-12)
            assert check.ratio == pytest.approx(base.ratio, rel=1e-12)
            assert check.passed == base.passed

    def test_signed_lhs_dominated_by_absolute_lhs(self):
        rng = random.Random(77)
        for _ in range(25):
            fs = random_real_functions(rng, 3, 3, signed=True)
            abs_fs = [CubeFunction(3, [abs(v) for v in f.values], REAL) for f in fs]
            assert (
                check_main_inequality(abs_fs).lhs
                >= check_main_inequality(fs).lhs - 1e-12
            )

    def test_the_witness_is_tabulated_once(self, monkeypatch):
        """equality_witness repeats one function; the corner's fold reaches
        it as one array and rank-tabulates it once (a stacked copy of the
        n tables would be tabulated n - 1 times)."""
        calls, ranked_zeta = [], transform._batch_ranked_zeta

        def spy(*args, **kwargs):
            calls.append(args[0])
            return ranked_zeta(*args, **kwargs)

        monkeypatch.setattr(transform, "_batch_ranked_zeta", spy)
        check = check_main_inequality(equality_witness(4, 6))
        assert len(calls) == 1
        assert check.ratio == pytest.approx(1.0, abs=1e-9 * 6)

    def test_a_functions_file_whose_norms_overflow_computes_no_corner(self, monkeypatch, tmp_path):
        path = tmp_path / "wide.txt"
        path.write_text("m=1 count=5\n" + "0.0 1e190\n" * 5)  # each norm is finite, their product is not
        corners = []
        monkeypatch.setattr(verifier, "batch_corner_value", lambda fs, m, space=None: corners.append(m))
        refused = (2, "", "error: product of the norms overflows float64\n")
        assert cli_run(["verify", "--functions", str(path)]) == refused
        assert corners == []

    def test_ground_set_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"^ground-set size mismatch: \[1, 2\]$"):
            check_main_inequality([CubeFunction(1, [1.0] * 2), CubeFunction(2, [1.0] * 4)])

    def test_wrong_arity_rejected(self):
        f = CubeFunction(1, [1.0, 1.0])
        with pytest.raises(ValueError, match="^exponent requires 2 <= n"):
            check_main_inequality([f])

    def test_int_flavor_rejected(self):
        f = CubeFunction(1, [1, 1], INT)
        with pytest.raises(ValueError, match="^main inequality checks run in real flavor$"):
            check_main_inequality([f, f])


class TestTwoPoint:
    @pytest.mark.parametrize("u, v", [((1, 0), (0, 1, 1)), ((1, 0, 0), (0, 1, 1, 1))])
    def test_wrong_length_rejected(self, u, v):
        with pytest.raises(ValueError, match=rf"^expected {len(u)} values per side$"):
            check_two_point(u, v)

    def test_indicator_equality(self):
        check = check_two_point((1, 0, 0), (0, 1, 1))
        assert check.lhs == pytest.approx(1.0)
        assert check.rhs == pytest.approx(1.0)
        assert check.passed

    def test_remark_equality(self):
        w = 0.5 ** (1.0 / exponent(3))
        check = check_two_point((w, w, w), (1.0, 1.0, 1.0))
        assert check.ratio == pytest.approx(1.0, abs=1e-12)

    @given(
        st.integers(min_value=2, max_value=6),
        st.data(),
    )
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_random_signed_tuples(self, n, data):
        vals = st.floats(min_value=-10, max_value=10, allow_nan=False)
        u = data.draw(st.lists(vals, min_size=n, max_size=n))
        v = data.draw(st.lists(vals, min_size=n, max_size=n))
        assert check_two_point(u, v).passed


class TestLemmaMine:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_equality_configuration(self, n):
        x = [1.0 / (n - 1)] * n
        check = check_lemma_mine(x)
        assert check.ratio == pytest.approx(1.0, abs=1e-12)

    def test_all_zero(self):
        check = check_lemma_mine([0.0] * 4)
        assert check.lhs == 0.0
        assert check.rhs == 1.0

    @given(
        st.integers(min_value=2, max_value=8),
        st.data(),
    )
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_log_uniform_samples(self, n, data):
        logs = st.floats(min_value=math.log(1e-6), max_value=math.log(1e6))
        x = [math.exp(t) for t in data.draw(st.lists(logs, min_size=n, max_size=n))]
        assert check_lemma_mine(x).passed

    def test_zero_padding_consistency(self):
        rng = random.Random(13)
        for _ in range(50):
            n = rng.randint(2, 7)
            x = [rng.uniform(0, 5) for _ in range(n)]
            if check_lemma_mine(x).passed:
                assert check_lemma_mine(x + [0.0]).passed

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            check_lemma_mine([1.0, -0.5])


class TestPMonotonicity:
    def test_all_ones(self):
        assert check_p_monotonicity([1.0] * 5, 1.2, 1.9)

    def test_single_support(self):
        assert check_p_monotonicity([1.0, 0.0, 0.0], 1.1, 2.0)

    def test_consecutive_sharp_exponents(self):
        rng = random.Random(4)
        for n in range(3, 9):
            x = [rng.uniform(0, 3) for _ in range(n)]
            assert check_p_monotonicity(x, exponent(n), exponent(n - 1))

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            check_p_monotonicity([1.0], 2.0, 1.5)

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError, match="^needs nonnegative inputs$"):
            check_p_monotonicity([1.0, -0.5], 1.5, 2.0)


class TestEqualityWitness:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    @pytest.mark.parametrize("m", [1, 3, 6])
    def test_ratio_is_one(self, n, m):
        check = check_main_inequality(equality_witness(n, m))
        assert abs(check.ratio - 1.0) <= 1e-9 * max(1, m)

    def test_n2_is_all_ones(self):
        (f, _) = equality_witness(2, 3)
        assert all(v == 1.0 for v in f.values)

    def test_values_are_w_to_the_set_size(self):
        for n, m in [(3, 7), (5, 4)]:
            f = equality_witness(n, m)[0]
            w = (1.0 / (n - 1)) ** (1.0 / exponent(n))
            assert f.values == tuple(w ** s.bit_count() for s in range(1 << m))

    @pytest.mark.parametrize("n, m", [(1, 3), (0, 3), (3, 0), (3, 25)])
    def test_bad_sizes_are_value_errors(self, n, m):
        with pytest.raises(ValueError):
            equality_witness(n, m)


U64 = 2**64 - 1
GOLDEN = 0x9E3779B97F4A7C15


def splitmix64_mix(x: int) -> int:
    """The splitmix64 finalizer of x + golden, on Python ints."""
    z = (x + GOLDEN) & U64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & U64
    return z ^ (z >> 31)


def uniform_by_definition(seed: int, i: int, j: int) -> float:
    """Draw (seed, i, j): slot j (counter j + 1) of the stream keyed by
    mix(mix(seed) + i), as the top 53 bits over 2^53."""
    key = splitmix64_mix((splitmix64_mix(seed) + i) & U64)
    return (splitmix64_mix((key + (j + 1) * GOLDEN) & U64) >> 11) * 2.0**-53


class TestTrials:
    def test_determinism(self):
        config = TrialConfig(n=3, m=4, trials=400, seed=12345, distribution="sparse", signed=True)
        assert run_trials(config) == run_trials(config)

    def test_chunking_invariance(self):
        config = TrialConfig(n=3, m=3, trials=300, seed=9, distribution="exponential")
        assert run_trials(config, chunk=7) == run_trials(config, chunk=300)

    def test_chunking_invariance_at_the_largest_sweep_cell(self):
        config = TrialConfig(n=5, m=8, trials=64, seed=10, distribution="sparse", signed=True)
        reports = [run_trials(config, chunk=chunk) for chunk in (1, 7, 64)]
        assert reports[0] == reports[1] == reports[2]

    def test_trial_streams_depend_only_on_index(self):
        a = trial_uniforms(42, np.arange(10), 16)
        b = trial_uniforms(42, np.arange(5, 10), 16)
        assert np.array_equal(a[5:], b)
        assert np.all((a >= 0) & (a < 1))

    def test_start_slot_selects_a_slice_of_the_stream(self):
        idx = np.arange(3, 9)
        full = trial_uniforms(7, idx, 48)
        for start, slots in ((0, 48), (0, 5), (16, 16), (32, 16), (47, 1)):
            part = trial_uniforms(7, idx, slots, start=start)
            assert np.array_equal(part, full[:, start : start + slots])

    @pytest.mark.parametrize(
        "seed,indices,slots,start",
        [
            (0, [0, 1, 2], 5, 0),
            (2**64 - 1, [7, 2**40, 2**63 + 3], 4, 2**40),
            (12345, list(range(70)), 1000, 3),  # 32 trials a slab: 32, 32 and 6
            (99, [4, 0, 9], 40_000, 17),  # more slots than a slab: one trial each
        ],
    )
    def test_draws_match_the_splitmix64_definition(self, seed, indices, slots, start):
        got = trial_uniforms(seed, np.array(indices, dtype=np.uint64), slots, start=start)
        cols = range(slots) if len(indices) * slots <= 70_000 else [0, 1, 2**15 - 1, 2**15, slots - 1]
        want = [[uniform_by_definition(seed, i, start + j) for j in cols] for i in indices]
        assert got.shape == (len(indices), slots)
        assert got[:, list(cols)].tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    @pytest.mark.parametrize("signed", [False, True])
    def test_trimmed_draws_equal_the_full_three_plane_draw(self, distribution, signed):
        config = TrialConfig(
            n=3, m=4, trials=20, seed=31, distribution=distribution, density=0.4, signed=signed
        )
        idx = np.arange(20)
        # value, gate and sign planes from one draw of all 3 * n * 2^m slots
        u = trial_uniforms(config.seed, idx, 3 * 3 * 16).reshape(20, 3, 3, 16)
        value, gate, sign = u[:, 0], u[:, 1], u[:, 2]
        x = value if distribution == "uniform" else -np.log1p(-value)
        if distribution == "sparse":
            x = np.where(gate < config.density, x, 0.0)
        if signed:
            x = np.where(sign < 0.5, x, -x)
        assert np.array_equal(_draw_functions(config, idx), np.moveaxis(x, 1, 0))

    def test_no_failures_across_distributions(self):
        for dist in ("uniform", "exponential", "sparse"):
            report = run_trials(TrialConfig(n=3, m=4, trials=500, seed=1, distribution=dist))
            assert report["failures"] == 0
            assert report["max_ratio"] is not None and report["max_ratio"] <= 1.0 + 1e-9

    def test_signed_trials_pass(self):
        report = run_trials(TrialConfig(n=4, m=3, trials=500, seed=2, signed=True))
        assert report["failures"] == 0

    def test_vectorized_lhs_matches_scalar_check(self):
        config = TrialConfig(n=3, m=3, trials=5, seed=777, distribution="exponential")
        from cubeconv.verifier import _draw_functions

        fs = _draw_functions(config, np.arange(5))
        report = run_trials(config)
        ratios = []
        for t in range(5):
            cube = [CubeFunction(3, fs[j, t].tolist(), REAL) for j in range(3)]
            ratios.append(check_main_inequality(cube).ratio)
        assert report["max_ratio"] == pytest.approx(max(ratios), rel=1e-12)

    @pytest.mark.parametrize(
        "distribution,signed",
        [("uniform", False), ("exponential", True), ("sparse", False), ("sparse", True)],
    )
    @pytest.mark.parametrize("n,m", [(2, 5), (3, 4), (5, 3)])
    def test_drawn_trial_checks_to_the_batched_bits(self, monkeypatch, n, m, distribution, signed):
        """A drawn trial checked alone gives the lhs and rhs that the batch
        gave it, bit for bit."""
        from cubeconv import verifier

        config = TrialConfig(n=n, m=m, trials=40, seed=901, distribution=distribution, signed=signed)
        sides = []

        def capture(lhs, rhs):
            sides.append((lhs.copy(), rhs.copy()))
            return verifier_passes(lhs, rhs)

        verifier_passes = verifier._passes
        monkeypatch.setattr(verifier, "_passes", capture)
        run_trials(config, chunk=16)
        lhs, rhs = (np.concatenate(side) for side in zip(*sides))
        monkeypatch.undo()
        fs = _draw_functions(config, np.arange(config.trials))
        for t in range(config.trials):
            check = check_main_inequality([CubeFunction(m, f, REAL) for f in fs[:, t]])
            assert np.float64(check.lhs).tobytes() == lhs[t].tobytes()
            assert np.float64(check.rhs).tobytes() == rhs[t].tobytes()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrialConfig(n=3, m=4, trials=0, seed=1)
        with pytest.raises(ValueError, match=r"^m=25 out of range \[1, 24\]$"):
            TrialConfig(n=3, m=25, trials=1, seed=1)
        assert TrialConfig(n=3, m=24, trials=1, seed=1).m == 24  # the budget decides, in run_trials
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match=r"seed must be in \[0, 2\^64\)"):
                TrialConfig(n=3, m=4, trials=1, seed=seed)
        assert run_trials(TrialConfig(n=3, m=4, trials=2, seed=2**64 - 1))["failures"] == 0
        with pytest.raises(ValueError):
            TrialConfig(n=3, m=4, trials=1, seed=1, distribution="cauchy")
        for density in (0.0, 1.5):
            with pytest.raises(ValueError, match=r"^density must be in \(0, 1\], got "):
                TrialConfig(n=3, m=4, trials=1, seed=1, density=density)


def force_pieces(monkeypatch, cpus):
    """Make run_trials see `cpus` CPUs and split every chunk of at least
    `cpus` trials into that many pieces."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(verifier, "_MIN_PIECE", 1)


def cli_run(argv):
    """(exit code, stdout, stderr) of cli.main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class TestPieces:
    """Large chunks are split across CPUs: the calling thread computes the
    first piece and a long-lived helper thread each of the others."""

    @pytest.mark.parametrize(
        "distribution,signed", [("uniform", False), ("exponential", False), ("sparse", False), ("sparse", True)]
    )
    def test_pieces_give_the_serial_report(self, monkeypatch, distribution, signed):
        config = TrialConfig(n=4, m=5, trials=300, seed=21, distribution=distribution, signed=signed)
        draw, corner, passes, threads = verifier._draw_functions, verifier.batch_corner_value, verifier._passes, set()
        helper_in, piece, sides = threading.Event(), threading.local(), {}

        def draw_spy(config, idx):
            piece.idx = idx
            return draw(config, idx)

        def corner_spy(fs, m, space=None):
            threads.add(threading.current_thread())
            if threading.current_thread() is not caller:
                helper_in.set()
            elif not serial_run:
                helper_in.wait(30)  # so that a helper claims a piece
            return corner(fs, m, space=space)

        def passes_spy(lhs, rhs):  # each trial's lhs and rhs, by the index its piece drew
            for t, one_lhs, one_rhs in zip(piece.idx.tolist(), lhs, rhs, strict=True):
                assert t not in sides
                sides[t] = (one_lhs.tobytes(), one_rhs.tobytes())
            return passes(lhs, rhs)

        monkeypatch.setattr(verifier, "_draw_functions", draw_spy)
        monkeypatch.setattr(verifier, "batch_corner_value", corner_spy)
        monkeypatch.setattr(verifier, "_passes", passes_spy)
        caller, serial_run = threading.current_thread(), True
        force_pieces(monkeypatch, 1)
        serial = run_trials(config, chunk=128)
        assert threads == {caller}
        force_pieces(monkeypatch, 3)
        serial_sides, sides, serial_run = sides, {}, False
        assert run_trials(config, chunk=128) == serial
        assert sorted(serial_sides) == list(range(config.trials)) and sides == serial_sides
        assert caller in threads and len(threads) >= 2

    def test_the_caller_takes_every_piece_no_helper_has_claimed(self, monkeypatch):
        """A helper that never starts (its CPU lent elsewhere) leaves its
        pieces to the caller, which does not wait for it."""

        class IdleHelper:
            def result(self):
                raise AssertionError("the caller waited for a helper that claimed nothing")

        class IdlePool:
            def submit(self, fn):
                return IdleHelper()

        config = TrialConfig(n=5, m=4, trials=300, seed=8, distribution="sparse", signed=True)
        force_pieces(monkeypatch, 1)
        serial = run_trials(config, chunk=128)
        monkeypatch.setitem(verifier._pools, os.getpid(), IdlePool())
        force_pieces(monkeypatch, 3)
        assert run_trials(config, chunk=128) == serial

    def test_one_trial_chunks_give_the_serial_report(self, monkeypatch):
        """A chunk of one trial is one piece, however many CPUs there are."""
        config = TrialConfig(n=3, m=10, trials=3, seed=6)
        force_pieces(monkeypatch, 1)
        serial = run_trials(config)
        monkeypatch.setattr(core, "RANK_TABLE_BUDGET", (config.m + 1) * 8 << config.m)
        assert verifier._fit_trials(config) == 1
        force_pieces(monkeypatch, 2)
        assert run_trials(config) == serial

    def test_a_failing_piece_stops_the_claims(self, monkeypatch):
        """The caller's piece raises while a helper would take the other
        19; the helper finishes the piece it holds and claims no other."""
        sides, entries, release = verifier._sides, [], threading.Event()
        caller = threading.current_thread()

        def fail_on_the_caller(tables, m, p, space=None):
            entries.append(threading.current_thread())
            if threading.current_thread() is caller:
                raise ValueError("the caller's piece failed")
            assert release.wait(30)  # until the caller has raised
            return sides(tables, m, p, space)

        pool = ThreadPoolExecutor(1)
        monkeypatch.setitem(verifier._pools, os.getpid(), pool)
        monkeypatch.setattr(verifier, "_sides", fail_on_the_caller)
        force_pieces(monkeypatch, 2)
        with pytest.raises(ValueError, match="^the caller's piece failed$"):
            run_trials(TrialConfig(n=3, m=4, trials=40, seed=3), chunk=4)
        release.set()
        pool.shutdown(wait=True)
        assert caller in entries and len(entries) <= 2

    def test_a_failing_helper_piece_reaches_the_caller(self, monkeypatch):
        caller, corner = threading.current_thread(), verifier.batch_corner_value
        helper_in = threading.Event()

        def fail_off_the_caller(fs, m, space=None):
            if threading.current_thread() is not caller:
                helper_in.set()
                raise ValueError("a helper piece failed")
            helper_in.wait(30)  # so that the helper claims the other piece
            helper_in.clear()
            return corner(fs, m, space=space)

        config = TrialConfig(n=3, m=4, trials=40, seed=3)
        force_pieces(monkeypatch, 2)
        serial = run_trials(config)
        monkeypatch.setattr(verifier, "batch_corner_value", fail_off_the_caller)
        with pytest.raises(ValueError, match="^a helper piece failed$"):
            run_trials(config)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["verify", "--n", "3", "--m", "4", "--trials", "40"])
        assert (code, out.getvalue(), err.getvalue()) == (2, "", "error: a helper piece failed\n")
        monkeypatch.setattr(verifier, "batch_corner_value", corner)
        assert run_trials(config) == serial  # the helper is free again

    def test_an_underflowed_corner_exits_2(self, monkeypatch):
        """Each corner of 1000 uniform draws at m=1 underflows to 0, which
        would pass on ABS_TOL; serial or in a helper's piece, verify exits 2."""
        argv = ["verify", "--n", "1000", "--m", "1", "--trials", "4"]

        def verify():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue(), err.getvalue()

        refused = (2, "", "error: corner convolution underflows float64\n")
        force_pieces(monkeypatch, 1)
        assert verify() == refused
        caller, corner, helper_out = threading.current_thread(), verifier.batch_corner_value, threading.Event()

        def underflow_off_the_caller(fs, m, space=None):
            if threading.current_thread() is not caller:
                try:
                    return corner(fs, m, space=space)
                finally:
                    helper_out.set()
            assert helper_out.wait(30)  # the helper claimed the other piece and raised
            return np.ones(fs.shape[1])  # the caller's piece passes

        monkeypatch.setattr(verifier, "batch_corner_value", underflow_off_the_caller)
        force_pieces(monkeypatch, 2)
        assert verify() == refused

    def test_an_overflowing_norm_product_computes_no_corner(self, monkeypatch):
        """Every trial's norm product at n=200, m=8 overflows, and trial 0's
        check refuses it.  At n=1850, m=1 (exponential, seed 0) trial 0's
        product is finite and those of trials 1 and 3 are not, so each piece
        refuses itself: serial or in a helper's piece, verify exits 2
        before it takes any corner."""
        refused = (2, "", "error: product of the norms overflows float64\n")
        corners, helper_errors, sides, helper_out = [], [], verifier._sides, threading.Event()
        monkeypatch.setattr(verifier, "batch_corner_value", lambda fs, m, space=None: corners.append(fs.shape))
        force_pieces(monkeypatch, 1)
        assert cli_run(["verify", "--n", "200", "--m", "8", "--trials", "4"]) == refused
        argv = ["verify", "--n", "1850", "--m", "1", "--trials", "4", "--distribution", "exponential"]
        assert cli_run(argv) == refused
        caller = threading.current_thread()

        def sides_after_the_helper(tables, m, p, space=None):
            if threading.current_thread() is caller:
                assert helper_out.wait(30)  # the helper claimed the other piece and raised
                return sides(tables, m, p, space)
            try:
                return sides(tables, m, p, space)
            except ValueError as exc:
                helper_errors.append(str(exc))
                raise
            finally:
                helper_out.set()

        monkeypatch.setattr(verifier, "_sides", sides_after_the_helper)
        force_pieces(monkeypatch, 2)
        assert cli_run(argv) == refused
        assert helper_errors == ["product of the norms overflows float64"]
        assert corners == []

    def test_an_overflowing_norm_product_is_refused_after_one_draw(self):
        """verify --n 200 --m 12 --trials 1024 used to draw a whole chunk of
        245 trials (1.6 GB) before its norm product was refused; trial 0's
        check refuses it after a draw of 200 x 2^12 values."""
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^product of the norms overflows float64$"):
                run_trials(TrialConfig(n=200, m=12, trials=1024, seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200 * 2**20

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_fork_child_starts_its_own_helper(self, monkeypatch):
        force_pieces(monkeypatch, 2)
        config = TrialConfig(n=3, m=4, trials=40, seed=4, distribution="sparse")
        report = run_trials(config)  # the parent's helper is running
        context = multiprocessing.get_context("fork")
        recv, send = context.Pipe(duplex=False)

        def in_the_child():
            caller, corner = threading.current_thread(), verifier.batch_corner_value
            threads, helper_in = set(), threading.Event()

            def corner_spy(fs, m, space=None):
                threads.add(threading.current_thread())
                if threading.current_thread() is caller:
                    helper_in.wait(10)  # so that a helper, if there is one, claims a piece
                else:
                    helper_in.set()
                return corner(fs, m, space=space)

            verifier.batch_corner_value = corner_spy
            send.send((run_trials(config), len(threads)))

        child = context.Process(target=in_the_child)
        child.start()
        try:
            assert recv.poll(60), "the fork child did not finish run_trials within 60 s"
            assert recv.recv() == (report, 2)  # the caller's piece and one on the child's own helper
        finally:
            child.join(10)
            if child.is_alive():
                child.kill()
        assert child.exitcode == 0

    def test_concurrent_callers_get_their_own_reports(self, monkeypatch):
        force_pieces(monkeypatch, 3)
        configs = [
            TrialConfig(n=3, m=4, trials=200, seed=seed, distribution=distribution)
            for seed, distribution in enumerate(DISTRIBUTIONS + ("uniform",))
        ]
        expected = [run_trials(config, chunk=30) for config in configs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads switch often, so the pieces' claims interleave
        try:
            with ThreadPoolExecutor(4) as pool:
                reports = list(pool.map(lambda config: run_trials(config, chunk=30), configs * 3, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert reports == expected * 3

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
        reason="needs sched_setaffinity and two CPUs",
    )
    def test_verify_stdout_does_not_depend_on_the_cpu_count(self):
        src = os.path.dirname(os.path.dirname(cubeconv.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = [sys.executable, "-m", "cubeconv.cli", "verify", "--n", "5", "--m", "8", "--trials", "1024"]
        argv += ["--distribution", "sparse", "--signed"]
        cpu = min(os.sched_getaffinity(0))
        one = subprocess.run(
            argv, env=env, capture_output=True, check=True, preexec_fn=lambda: os.sched_setaffinity(0, {cpu})
        )
        every = subprocess.run(argv, env=env, capture_output=True, check=True)
        assert one.stdout.startswith(b"{") and one.stdout == every.stdout


class TestKeptArrays:
    """Each thread keeps its fold arrays between pieces and runs while they
    total at most transform.KEEP_BYTES; nothing else keeps any."""

    CELLS = [  # A, a larger and a smaller cell, then A again
        TrialConfig(n=4, m=6, trials=700, seed=11),
        TrialConfig(n=5, m=8, trials=300, seed=12, distribution="sparse", signed=True),
        TrialConfig(n=3, m=3, trials=900, seed=13, distribution="exponential"),
    ]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_kept_arrays_carry_no_values_between_runs(self, monkeypatch, cpus):
        """Stale products of a larger cell and short tables of a smaller one
        leave cell A's report as it is in a thread that kept nothing."""
        force_pieces(monkeypatch, cpus)
        monkeypatch.setattr(verifier, "_spaces", threading.local())
        alone = run_trials(self.CELLS[0])
        monkeypatch.setattr(verifier, "_spaces", threading.local())
        reports = [run_trials(config) for config in self.CELLS + self.CELLS[:1]]
        assert reports[-1] == reports[0] == alone
        assert reports[1:3] == [run_trials(config) for config in self.CELLS[1:]]
        assert verifier._spaces.space.kept.size > 0  # the caller kept its arrays

    @staticmethod
    def held_after(call) -> int:
        """Bytes that tracemalloc still traces after call() returns (its
        result dropped), against before it ran."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    def test_a_run_over_the_cap_keeps_nothing(self, monkeypatch):
        """An m=6 run keeps its 14 rows; an m=12 run of 64 trials, whose two
        arrays exceed the cap, leaves traced memory where it found it."""
        force_pieces(monkeypatch, 1)
        monkeypatch.setattr(verifier, "_spaces", threading.local())
        small, large = TrialConfig(n=3, m=6, trials=64, seed=3), TrialConfig(n=3, m=12, trials=64, seed=3)
        run_trials(large)  # builds popcounts(12), which every later run shares
        assert 26 * 64 * 8 << 12 > transform.KEEP_BYTES  # the large run's table and product arrays
        held = self.held_after(lambda: run_trials(small))
        assert 14 * 64 * 8 << 6 <= held < (14 * 64 * 8 << 6) + (1 << 14)
        kept = verifier._spaces.space.kept
        assert abs(self.held_after(lambda: run_trials(large))) < 1 << 14
        assert verifier._spaces.space.kept is kept  # the same buffer, neither grown nor dropped

    def test_a_one_cpu_grid_piece_keeps_its_arrays(self, monkeypatch):
        """On one CPU an n=5, m=8 run of 1024 trials is one piece, the
        largest of verify's criterion-3 grid: its table and product arrays
        (9 + 9 rows of 2^8 masks x 1024 trials) total KEEP_BYTES, so they
        are kept, and the next run folds in the same buffer."""
        force_pieces(monkeypatch, 1)
        monkeypatch.setattr(verifier, "_spaces", threading.local())
        config = TrialConfig(n=5, m=8, trials=1024, seed=14, distribution="sparse", signed=True)
        first = run_trials(config)
        kept = verifier._spaces.space.kept
        assert kept.size == 18 * 1024 * 8 << 8 == transform.KEEP_BYTES
        assert run_trials(config) == first
        assert verifier._spaces.space.kept is kept

    def test_counts_convolutions_and_checks_keep_nothing(self):
        rng = np.random.default_rng(9)
        family = cubeconv.SetFamily(10, np.flatnonzero(rng.random(1 << 10) < 0.3))
        f, g = (CubeFunction(10, rng.standard_normal(1 << 10), REAL) for _ in range(2))
        calls = [
            lambda: cubeconv.count_disjoint_tuples(family, 4),
            lambda: transform.subset_convolve(f, g),
            lambda: check_main_inequality([f, g, f]),
            lambda: check_main_inequality(equality_witness(4, 9)),
        ]
        core.popcounts(10)  # built once per process
        for call in calls:
            assert abs(self.held_after(call)) < 1 << 14
