"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  Run with `pytest tests/test_acceptance.py -v -s`."""

import itertools
import json
import math
import random
from math import comb

import pytest

from cubeconv import cli
from cubeconv.core import INT, MAX_M, CubeFunction, SetFamily, exponent
from cubeconv.counting import bound_report, count_disjoint_tuples, extremal_family
from cubeconv.lemma_lab import (
    k_monotonicity_check,
    log_dual_gap,
    scan_last_value,
    solve_critical_system,
    z_ratio_monotonicity_check,
)
from cubeconv.transform import moebius, subset_convolve, zeta
from cubeconv.verifier import TrialConfig, check_main_inequality, equality_witness, run_trials


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}")
    assert ok, detail


def test_criterion_1_exponent_goldens():
    c3 = 3 / exponent(3)
    p2 = exponent(2)
    ps = [exponent(n) for n in range(2, 65)]
    ok = abs(c3 - 1.725) <= 2e-3 and p2 == 2.0 and all(a > b for a, b in zip(ps, ps[1:]))
    report(1, ok, f"c(3)={c3:.6f}, p_2={p2}, p_n strictly decreasing on 2..64")


def test_criterion_2_counting_oracle_equivalence():
    rng = random.Random(20240501)
    checked = 0
    for _ in range(500):
        m = rng.randint(1, 10)
        n = rng.choice([2, 3, 4])
        size = rng.randint(1, min(1 << m, 40))
        fam = SetFamily.from_masks(m, rng.sample(range(1 << m), size))
        fast = count_disjoint_tuples(fam, n, "fast")
        brute = count_disjoint_tuples(fam, n, "brute")
        assert fast == brute, (fam.m, fam.members, n, fast, brute)
        checked += 1
    report(2, checked == 500, f"fast == brute exactly on {checked} random families")


def test_criterion_3_theorem_holds_empirically():
    total_failures = 0
    cells = 0
    worst = 0.0
    for n, m in itertools.product((2, 3, 4, 5), range(1, 9)):
        for dist in ("uniform", "exponential", "sparse"):
            config = TrialConfig(
                n=n, m=m, trials=10_000, seed=1000 * n + 10 * m, distribution=dist
            )
            rep = run_trials(config)
            total_failures += rep["failures"]
            worst = max(worst, rep["max_ratio"])
            cells += 1
    report(
        3,
        total_failures == 0,
        f"{cells} cells x 10^4 trials: {total_failures} violations, max ratio {worst:.6f}",
    )


def test_criterion_4_equality_witnesses():
    worst = 0.0
    for n in range(2, 9):
        for m in range(1, 7):
            check = check_main_inequality(equality_witness(n, m))
            gap = abs(check.ratio - 1.0)
            assert gap <= 1e-9 * max(1, m), (n, m, check.ratio)
            worst = max(worst, gap / max(1, m))
    report(4, True, f"witness ratio within tolerance for n=2..8, m=1..6 (worst scaled gap {worst:.2e})")


def test_criterion_5_corollary_bound_and_extremal_trend():
    rng = random.Random(8675309)
    for _ in range(200):
        m = rng.randint(1, 9)
        fam = SetFamily.from_masks(
            m, rng.sample(range(1 << m), rng.randint(1, min(1 << m, 30)))
        )
        rep = bound_report(fam, rng.choice([2, 3, 4]))
        assert rep.log_count <= rep.bound_log + 1e-9

    ratios = {3: [], 4: []}
    for n in (3, 4):
        t = 1
        while n * t <= MAX_M:
            fam = extremal_family(n, t)
            rep = bound_report(fam, n)
            assert rep.log_count <= rep.bound_log + 1e-9, (n, t)
            # closed-form oracle, independent of the counting pipeline: the
            # (n-1)t-element union, split into n-1 ordered t-blocks
            k = (n - 1) * t
            assert rep.count == comb(n * t, k) * math.factorial(k) // math.factorial(t) ** (n - 1), (n, t)
            assert rep.family_size == comb(n * t, t) + comb(n * t, k), (n, t)
            ratios[n].append(rep.ratio)
            t += 1
    increasing = all(a < b for r in ratios.values() for a, b in zip(r, r[1:]))
    ok = increasing and len(ratios[3]) == 8 and len(ratios[4]) == 6 and ratios[3][-1] >= 1.60
    report(
        5,
        ok,
        f"bound holds everywhere; ratios strictly increasing to {ratios[3][-1]:.4f} (n=3, t=8) "
        f"and {ratios[4][-1]:.4f} (n=4, t=6)",
    )


def test_criterion_6_transform_correctness():
    rng = random.Random(606)
    for i in range(100):
        m = 16 if i < 2 else rng.randint(1, 12)
        f = CubeFunction(m, [rng.randint(-50, 50) for _ in range(1 << m)], INT)
        assert moebius(zeta(f)).values == f.values

    def submasks(s):
        t = s
        while True:
            yield t
            if t == 0:
                return
            t = (t - 1) & s

    for m in (1, 4, 7, 10):
        f = CubeFunction(m, [rng.randint(-9, 9) for _ in range(1 << m)], INT)
        g = CubeFunction(m, [rng.randint(-9, 9) for _ in range(1 << m)], INT)
        h = subset_convolve(f, g)
        for s in range(1 << m):
            assert h.values[s] == sum(f.values[t] * g.values[s ^ t] for t in submasks(s))
    report(6, True, "moebius(zeta(f)) == f on 100 functions; subset_convolve == 3^m brute force")


def test_criterion_7_lemma_lab():
    rng = random.Random(707)
    for _ in range(100_000):
        x = math.exp(rng.uniform(-8, 8))
        b = rng.uniform(-12, 12)
        assert log_dual_gap(x, b) >= 0.0

    solved = []
    for n in range(3, 11):
        for k in range(1, n):
            rep = solve_critical_system(n, k)
            if rep.status != "ok":
                continue
            assert rep.residual_eq1 < 1e-9, (n, k)
            assert rep.identity_gap < 1e-7, (n, k)
            assert rep.last_value >= -1e-9, (n, k)
            solved.append((n, k))
        scan = scan_last_value(n, grid=10_000)
        assert scan["min_last_value"] >= -1e-9, n

        z_lo = n / (n - 1) + 1e-6
        zs = [z_lo * (200.0 / z_lo) ** (i / 999) for i in range(1000)]
        for z in zs:
            assert k_monotonicity_check(n, z)
        for a, b2 in zip(zs, zs[1:]):
            assert z_ratio_monotonicity_check(n, a, b2)
    ok = all((n, 1) in solved for n in range(3, 11))
    report(
        7,
        ok,
        f"10^5 dual-gap samples >= 0; {len(solved)} admissible critical points verified; "
        "grid scans and monotonicity checks clean",
    )


def test_criterion_8_cli_determinism(capsys):
    argv = [
        "verify", "--n", "4", "--m", "5", "--trials", "500", "--seed", "99",
        "--distribution", "sparse", "--signed",
    ]
    assert cli.main(list(argv)) == 0
    first = capsys.readouterr().out
    assert cli.main(list(argv)) == 0
    second = capsys.readouterr().out
    ok = first == second and json.loads(first)["failures"] == 0
    report(8, ok, "two identical cli verify runs produced byte-identical JSON")
