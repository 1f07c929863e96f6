import math
import random
import re

import pytest

from cubeconv.core import exponent
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
        params = exponent(3)
        x = [0.5, 1.5, 0.7]
        b = [math.log(1.0 + xi**params.p) for xi in x]
        expected = sum(b) - params.p * math.log(sum(x))
        assert B_dual(x, b, params) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_equality_configuration_is_zero(self, n):
        params = exponent(n)
        x = [(1.0 / (n - 1)) ** (1.0 / params.p)] * n
        b = [math.log(1.0 + xi**params.p) for xi in x]
        assert B_dual(x, b, params) == pytest.approx(0.0, abs=1e-10)

    def test_nonnegative_on_random_samples(self):
        rng = random.Random(21)
        for _ in range(500):
            n = rng.randint(2, 6)
            params = exponent(n)
            x = [math.exp(rng.uniform(-2, 2)) for _ in range(n)]
            b = [rng.uniform(-4, 4) for _ in range(n)]
            assert B_dual(x, b, params) >= -1e-10


class TestCriticalX:
    def test_symmetric_case(self):
        params = exponent(3)
        xs, total = critical_x([0.0, 0.0, 0.0], params)
        assert xs == pytest.approx([3.0 ** (-1.0 / params.p)] * 3)
        assert total == pytest.approx(sum(xs))

    def test_direct_formula_n2(self):
        params = exponent(2)
        xs, _ = critical_x([1.0, 0.0], params)
        denom = (math.exp(1.0 / params.r) + 1.0) ** (1.0 / params.p)
        assert xs[0] == pytest.approx(math.exp(1.0 / params.r) / denom, abs=1e-12)
        assert xs[1] == pytest.approx(1.0 / denom, abs=1e-12)

    def test_finite_difference_gradient_vanishes(self):
        rng = random.Random(33)
        h = 1e-6
        for _ in range(10):
            n = rng.randint(2, 5)
            params = exponent(n)
            b = [rng.uniform(-2, 2) for _ in range(n)]
            xs, _ = critical_x(b, params)
            for i in range(n):
                up = list(xs)
                dn = list(xs)
                up[i] += h
                dn[i] -= h
                grad = (B_dual(up, b, params) - B_dual(dn, b, params)) / (2 * h)
                assert abs(grad) < 1e-6

    def test_overflow_guard(self):
        with pytest.raises(ValueError):
            critical_x([600.0, 0.0], exponent(2))


class TestFReduced:
    def test_diagonal_n3(self):
        params = exponent(3)
        assert f_reduced([1.0, 1.0, 1.0], params) == pytest.approx(0.18906978378367, abs=1e-12)
        assert f_reduced([1.0, 1.0, 1.0], params) == pytest.approx(1.0 - params.r * math.log(3))

    def test_diagonal_n2(self):
        assert f_reduced([1.0, 1.0], exponent(2)) == pytest.approx(1.0 - math.log(2))

    def test_nonnegative_on_box(self):
        rng = random.Random(41)
        for _ in range(2000):
            n = rng.randint(2, 6)
            y = [math.exp(rng.uniform(math.log(0.1), math.log(10))) for _ in range(n)]
            assert f_reduced(y, exponent(n)) >= -1e-9


class TestCritResidual:
    def test_solver_output_satisfies_system(self):
        params = exponent(3)
        report = solve_critical_system(3, 1, params)
        y = [report.u] * 1 + [report.v] * 2
        residual, identity_gap = crit_residual(y, params)
        assert residual < 1e-9
        assert identity_gap < 1e-7

    def test_small_residual_forces_identity(self):
        # scan near-critical diagonal points: residual < 1e-9 ==> identity holds
        for n in range(2, 8):
            params = exponent(n)
            report = solve_critical_system(n, 1, params)
            if report.status == "ok":
                assert report.identity_gap < 1e-7

    def test_diagonal_restatement(self):
        # on the diagonal, zero residual means (1/y)(1 - y^{-r}) = 1/(n y)
        params = exponent(4)
        y0 = (1.0 - 1.0 / 4) ** (-1.0 / params.r)  # solves y^{-r} = 1 - 1/n
        residual, _ = crit_residual([y0] * 4, params)
        assert residual < 1e-12


class TestSolveCriticalSystem:
    def test_n2_degenerate_point(self):
        report = solve_critical_system(2, 1, exponent(2))
        assert report.status == "ok"
        assert report.z == pytest.approx(2.0)
        assert report.u == pytest.approx(2.0)
        assert report.v == pytest.approx(2.0)
        assert report.last_value == pytest.approx(0.0, abs=1e-12)

    def test_n3_k1_regression(self):
        # root located independently at high precision before implementation
        report = solve_critical_system(3, 1, exponent(3))
        assert report.status == "ok"
        assert report.z == pytest.approx(5.851485053274, abs=1e-9)
        assert report.u == pytest.approx(10.951108472777, abs=1e-8)
        assert report.v == pytest.approx(1.1286346708815, abs=1e-10)
        assert report.last_value == pytest.approx(0.040307389154, abs=1e-10)
        assert report.residual_eq1 < 1e-9
        assert report.extra_sign_changes == 0

    def test_n3_k2_not_admissible(self):
        report = solve_critical_system(3, 2, exponent(3))
        assert report.status in ("no-root", "domain-violation")
        assert report.residual_eq1 is None

    @pytest.mark.parametrize("n", range(3, 11))
    def test_valid_reports_satisfy_all_invariants(self, n):
        params = exponent(n)
        saw_valid = False
        for k in range(1, n):
            report = solve_critical_system(n, k, params)
            if report.status != "ok":
                continue
            saw_valid = True
            assert report.residual_eq1 < 1e-9
            assert report.identity_gap < 1e-7
            assert report.last_value >= -1e-9
            floor = (1.0 + params.r) ** (1.0 / params.r)
            assert report.u >= floor - 1e-12
            assert floor >= report.v > 0
            y = [report.u] * k + [report.v] * (n - k)
            assert f_reduced(y, params) >= -1e-9
            # final inequality value is r times the log-sum gap at criticality
            assert report.last_value == pytest.approx(
                params.r * report.sum_log_gap, rel=1e-9, abs=1e-12
            )
        assert saw_valid  # k=1 always admits a root

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            solve_critical_system(3, 3, exponent(3))


class TestLastValue:
    def test_large_z_positive(self):
        params = exponent(3)
        assert last_value(3, 1, 1e6, params) > 0

    def test_left_endpoint_nonnegative(self):
        params = exponent(3)
        assert last_value(3, 1, 1.0 + params.r, params) >= 0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            last_value(3, 2, 1.0, exponent(3))  # z <= 1
        with pytest.raises(ValueError):
            last_value(5, 4, 0.5, exponent(5))

    def test_k_range_checked(self):
        with pytest.raises(ValueError):
            last_value(3, 0, 2.0, exponent(3))

    def test_scan_minimum_nonnegative_small(self):
        for n in (3, 5):
            report = scan_last_value(n, exponent(n), grid=2000)
            assert report["min_last_value"] >= -1e-9


class TestMonotonicity:
    def test_k_monotonicity_examples(self):
        assert k_monotonicity_check(3, 2.0, exponent(3))
        assert k_monotonicity_check(10, 1.2, exponent(10))
        assert k_monotonicity_check(2, 3.0, exponent(2))  # single k: vacuous

    def test_k_monotonicity_domain(self):
        with pytest.raises(ValueError):
            k_monotonicity_check(3, 1.4, exponent(3))  # z <= n/(n-1)

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
        (lambda p: B_dual([1.0, 2.0], [0.0], p), "x and b must have equal length"),
        (lambda p: B_dual([1.0, 0.0], [0.0, 0.0], p), "need all x_i > 0"),
        (lambda p: f_reduced([1.0, -1.0, 1.0], p), "need all y_i > 0"),
        (lambda p: crit_residual([1.0, 0.0, 1.0], p), "need all y_i > 0"),
        (lambda p: z_ratio_monotonicity_check(3, 2.0, 2.0), "need n/(n-1) <= z1 < z2, got (2.0, 2.0)"),
        (lambda p: z_ratio_monotonicity_check(3, 1.2, 2.0), "need n/(n-1) <= z1 < z2, got (1.2, 2.0)"),
    ],
    ids=["B_dual-length", "B_dual-x", "f_reduced-y", "crit_residual-y", "z-order", "z-below-pole"],
)
def test_inputs_outside_the_domain_are_refused(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(exponent(3))
