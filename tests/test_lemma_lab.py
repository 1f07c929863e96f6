import math
import random
import re

import numpy as np
import pytest

from cubeconv.core import MAX_N, exponent
from cubeconv.lemma_lab import (
    B_dual,
    crit_residual,
    critical_x,
    f_reduced,
    k_monotonicity_check,
    last_value,
    log_dual_gap,
    scan_last_value,
    solve_critical_system,
    z_ratio_monotonicity_check,
)


def convex_min_by_slope_bisection(f, lo, hi, h=1e-5, iters=100):
    """Minimizer of a convex scalar function: bisect on the sign of the
    central-difference slope.  Resolves past the value-comparison
    plateau that defeats golden-section near a quadratic minimum."""
    slope = lambda b: f(b + h) - f(b - h)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if slope(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestLogDualGap:
    def test_minimizer_values(self):
        assert log_dual_gap(1.0, 0.0) == 0.0
        assert log_dual_gap(math.e, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_pinned_point(self):
        assert log_dual_gap(2.0, 0.0) == pytest.approx(1.0 - math.log(2), abs=1e-15)

    def test_nonnegative_on_samples(self):
        rng = random.Random(8)
        for _ in range(2000):
            x = math.exp(rng.uniform(-6, 6))
            b = rng.uniform(-10, 10)
            assert log_dual_gap(x, b) >= 0.0

    def test_minimum_located_at_log_x(self):
        rng = random.Random(9)
        for _ in range(20):
            x = math.exp(rng.uniform(-3, 3))
            b_star = convex_min_by_slope_bisection(lambda b: log_dual_gap(x, b), -10, 10)
            assert b_star == pytest.approx(math.log(x), abs=1e-8)

    def test_rejects_nonpositive_x(self):
        with pytest.raises(ValueError):
            log_dual_gap(0.0, 1.0)


class TestBDual:
    def test_tight_b_recovers_lemma_gap(self):
        p = exponent(3)
        x = [0.5, 1.5, 0.7]
        b = [math.log(1.0 + xi**p) for xi in x]
        expected = sum(b) - p * math.log(sum(x))
        assert B_dual(x, b) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_equality_configuration_is_zero(self, n):
        p = exponent(n)
        x = [(1.0 / (n - 1)) ** (1.0 / p)] * n
        b = [math.log(1.0 + xi**p) for xi in x]
        assert B_dual(x, b) == pytest.approx(0.0, abs=1e-10)

    def test_nonnegative_on_random_samples(self):
        rng = random.Random(21)
        for _ in range(500):
            n = rng.randint(2, 6)
            x = [math.exp(rng.uniform(-2, 2)) for _ in range(n)]
            b = [rng.uniform(-4, 4) for _ in range(n)]
            assert B_dual(x, b) >= -1e-10


class TestCriticalX:
    def test_symmetric_case(self):
        xs, total = critical_x([0.0, 0.0, 0.0])
        assert xs == pytest.approx([3.0 ** (-1.0 / exponent(3))] * 3)
        assert total == pytest.approx(sum(xs))

    def test_direct_formula_n2(self):
        p = exponent(2)
        r = p - 1.0
        xs, _ = critical_x([1.0, 0.0])
        denom = (math.exp(1.0 / r) + 1.0) ** (1.0 / p)
        assert xs[0] == pytest.approx(math.exp(1.0 / r) / denom, abs=1e-12)
        assert xs[1] == pytest.approx(1.0 / denom, abs=1e-12)

    def test_finite_difference_gradient_vanishes(self):
        rng = random.Random(33)
        h = 1e-6
        for _ in range(10):
            n = rng.randint(2, 5)
            b = [rng.uniform(-2, 2) for _ in range(n)]
            xs, _ = critical_x(b)
            for i in range(n):
                up = list(xs)
                dn = list(xs)
                up[i] += h
                dn[i] -= h
                grad = (B_dual(up, b) - B_dual(dn, b)) / (2 * h)
                assert abs(grad) < 1e-6

    def test_overflow_guard(self):
        with pytest.raises(ValueError):
            critical_x([600.0, 0.0])


class TestFReduced:
    def test_diagonal_n3(self):
        r = exponent(3) - 1.0
        assert f_reduced([1.0, 1.0, 1.0]) == pytest.approx(0.18906978378367, abs=1e-12)
        assert f_reduced([1.0, 1.0, 1.0]) == pytest.approx(1.0 - r * math.log(3))

    def test_diagonal_n2(self):
        assert f_reduced([1.0, 1.0]) == pytest.approx(1.0 - math.log(2))

    def test_nonnegative_on_box(self):
        rng = random.Random(41)
        for _ in range(2000):
            n = rng.randint(2, 6)
            y = [math.exp(rng.uniform(math.log(0.1), math.log(10))) for _ in range(n)]
            assert f_reduced(y) >= -1e-9


class TestCritResidual:
    def test_solver_output_satisfies_system(self):
        report = solve_critical_system(3, 1)
        y = [report.u] * 1 + [report.v] * 2
        residual, identity_gap = crit_residual(y)
        assert residual < 1e-9
        assert identity_gap < 1e-7

    def test_small_residual_forces_identity(self):
        # scan near-critical diagonal points: residual < 1e-9 ==> identity holds
        for n in range(2, 8):
            report = solve_critical_system(n, 1)
            if report.status == "ok":
                assert report.identity_gap < 1e-7

    def test_diagonal_restatement(self):
        # on the diagonal, zero residual means (1/y)(1 - y^{-r}) = 1/(n y)
        r = exponent(4) - 1.0
        y0 = (1.0 - 1.0 / 4) ** (-1.0 / r)  # solves y^{-r} = 1 - 1/n
        residual, _ = crit_residual([y0] * 4)
        assert residual < 1e-12


class TestSolveCriticalSystem:
    def test_n2_degenerate_point(self):
        report = solve_critical_system(2, 1)
        assert report.status == "ok"
        assert report.z == pytest.approx(2.0)
        assert report.u == pytest.approx(2.0)
        assert report.v == pytest.approx(2.0)
        assert report.last_value == pytest.approx(0.0, abs=1e-12)

    def test_n3_k1_regression(self):
        # root located independently at high precision before implementation
        report = solve_critical_system(3, 1)
        assert report.status == "ok"
        assert report.z == pytest.approx(5.851485053274, abs=1e-9)
        assert report.u == pytest.approx(10.951108472777, abs=1e-8)
        assert report.v == pytest.approx(1.1286346708815, abs=1e-10)
        assert report.last_value == pytest.approx(0.040307389154, abs=1e-10)
        assert report.residual_eq1 < 1e-9
        assert report.extra_sign_changes == 0

    def test_n3_k2_not_admissible(self):
        report = solve_critical_system(3, 2)
        assert report.status in ("no-root", "domain-violation")
        assert report.residual_eq1 is None

    @pytest.mark.parametrize("n", range(3, 11))
    def test_valid_reports_satisfy_all_invariants(self, n):
        r = exponent(n) - 1.0
        saw_valid = False
        for k in range(1, n):
            report = solve_critical_system(n, k)
            if report.status != "ok":
                continue
            saw_valid = True
            assert report.residual_eq1 < 1e-9
            assert report.identity_gap < 1e-7
            assert report.last_value >= -1e-9
            floor = (1.0 + r) ** (1.0 / r)
            assert report.u >= floor - 1e-12
            assert floor >= report.v > 0
            y = [report.u] * k + [report.v] * (n - k)
            assert f_reduced(y) >= -1e-9
            # final inequality value is r times the log-sum gap at criticality
            assert report.last_value == pytest.approx(
                r * report.sum_log_gap, rel=1e-9, abs=1e-12
            )
        assert saw_valid  # k=1 always admits a root

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            solve_critical_system(3, 3)


class TestLastValue:
    def test_large_z_positive(self):
        assert last_value(3, 1, 1e6) > 0

    def test_left_endpoint_nonnegative(self):
        r = exponent(3) - 1.0
        assert last_value(3, 1, 1.0 + r) >= 0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            last_value(3, 2, 1.0)  # z <= 1
        with pytest.raises(ValueError):
            last_value(5, 4, 0.5)

    def test_k_range_checked(self):
        with pytest.raises(ValueError):
            last_value(3, 0, 2.0)

    def test_scan_minimum_nonnegative_small(self):
        for n in (3, 5):
            report = scan_last_value(n, grid=2000)
            assert report["min_last_value"] >= -1e-9


class TestBaseCaseReduction:
    """The two facts that reduce the base case to k = 1 at z = 1 + r."""

    def test_k_derivative_is_the_log_dual_gap(self):
        # d/dk of (n-k) ln((n-k)/((n-1)z-k)) is x - 1 - ln x, x = (n-k)/((n-1)z-k),
        # so last_value is nondecreasing in k.  The central difference of values
        # about n in size loses some n ulp / 2h to rounding, which is most of the
        # derivative where x is near 1 (n = 4000 at the low z); the floor is that.
        h, eps = 1e-5, 2.0**-52
        for n in list(range(3, 60)) + [200, 1000, 4000]:
            for z in np.geomspace(1.001 * n / (n - 1), 1e3, 40).tolist():
                for k in {1.5, n / 2 + 0.25, n - 1.5}:  # none an integer, all inside (1, n - 1)
                    slope = (last_value(n, k + h, z) - last_value(n, k - h, z)) / (2 * h)
                    gap = log_dual_gap((n - k) / ((n - 1) * z - k), 0.0)
                    assert abs(slope - gap) <= 1e-6 * gap + 8 * n * eps / h, (n, k, z)

    def test_r_exceeds_one_over_n_minus_one(self):
        # so every series coefficient of g(w) past the first, ((n-1)^(1-j) - r)/j, is negative
        for n in range(3, MAX_N + 1):
            assert exponent(n) - 1.0 > 1 / (n - 1), n


class TestMonotonicity:
    def test_k_monotonicity_examples(self):
        assert k_monotonicity_check(3, 2.0)
        assert k_monotonicity_check(10, 1.2)
        assert k_monotonicity_check(2, 3.0)  # single k: vacuous

    def test_k_monotonicity_domain(self):
        with pytest.raises(ValueError):
            k_monotonicity_check(3, 1.4)  # z <= n/(n-1)

    def test_z_ratio_examples(self):
        assert z_ratio_monotonicity_check(3, 1.5, 2.0)
        assert z_ratio_monotonicity_check(3, 1.5, 1.5000001)
        assert z_ratio_monotonicity_check(2, 2.0, 2.5)  # identically 1 at n=2

    def test_z_ratio_grids(self):
        import numpy as np

        for n in (3, 6, 10):
            zs = np.geomspace(n / (n - 1) + 1e-9, 100.0, 1000)
            for a, b in zip(zs, zs[1:]):
                assert z_ratio_monotonicity_check(n, a, b)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: B_dual([1.0, 2.0], [0.0]), "x and b must have equal length"),
        (lambda: B_dual([1.0, 0.0], [0.0, 0.0]), "need all x_i > 0"),
        (lambda: f_reduced([1.0, -1.0, 1.0]), "need all y_i > 0"),
        (lambda: crit_residual([1.0, 0.0, 1.0]), "need all y_i > 0"),
        (lambda: z_ratio_monotonicity_check(3, 2.0, 2.0), "need n/(n-1) <= z1 < z2, got (2.0, 2.0)"),
        (lambda: z_ratio_monotonicity_check(3, 1.2, 2.0), "need n/(n-1) <= z1 < z2, got (1.2, 2.0)"),
    ],
    ids=["B_dual-length", "B_dual-x", "f_reduced-y", "crit_residual-y", "z-order", "z-below-pole"],
)
def test_inputs_outside_the_domain_are_refused(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
