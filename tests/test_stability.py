import numpy as np
import pytest

import helpers
from stochpid import (
    DegreeTooLow,
    GainVector,
    IndeterminateStability,
    NonPositiveCoefficient,
    char_coeffs,
    check_inequality,
    determining_coeffs,
    is_hurwitz,
    nie_stable,
    routh_hurwitz,
)

BENCH_QUARTIC = np.array([8.6, 21.5, 21.5, 8.6, 1.0])


class TestCharCoeffs:
    def test_bench(self):
        g = GainVector("pid", np.array([8.6, 21.5, 21.5, 8.6]))
        assert np.array_equal(char_coeffs(g), BENCH_QUARTIC)

    def test_n1(self):
        assert np.array_equal(char_coeffs(GainVector("pid", np.array([2.0, 3.0]))), [2.0, 3.0, 1.0])

    def test_pd_degree(self):
        g = GainVector("pd", np.array([3.0, 4.0]))
        assert np.array_equal(char_coeffs(g), [3.0, 4.0, 1.0])


class TestDeterminingCoeffs:
    def test_all_ones(self):
        for deg in (3, 5, 8):
            alphas = determining_coeffs(np.ones(deg + 1))
            assert np.array_equal(alphas, np.ones(deg - 2))

    def test_geometric_exponent_telescope(self):
        a = np.array([0.6 ** (i * i) for i in range(6)])
        alphas = determining_coeffs(a)
        # (i-1)^2 + (i+2)^2 - i^2 - (i+1)^2 = 4 for every i
        assert np.allclose(alphas, 0.6 ** 4)
        assert alphas[0] == pytest.approx(0.1296)

    def test_bench_quartic(self):
        alphas = determining_coeffs(BENCH_QUARTIC)
        assert alphas == pytest.approx([8.6 * 8.6 / (21.5 * 21.5), 21.5 / (21.5 * 8.6)])
        assert alphas[0] == pytest.approx(0.16)
        assert alphas[1] == pytest.approx(0.1163, abs=1e-4)

    def test_errors(self):
        with pytest.raises(DegreeTooLow):
            determining_coeffs([1.0, 2.0, 1.0])
        with pytest.raises(NonPositiveCoefficient):
            determining_coeffs([1.0, -2.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="overflow float64"):
            determining_coeffs([1e200, 1e200, 1e200, 1.0])


class TestNieStable:
    def test_degree5_true(self):
        a = np.array([0.6 ** (i * i) for i in range(6)])
        assert nie_stable(a)
        # oracle agreement: sufficient verdict implies stable roots
        assert helpers.max_real_root(a) < 0.0
        # the single triple-product index for degree 5
        alpha = 0.6 ** 4
        assert alpha + alpha ** 3 <= 0.5

    def test_all_ones_false(self):
        assert not nie_stable(np.ones(6))

    def test_degree_guard(self):
        with pytest.raises(DegreeTooLow):
            nie_stable(BENCH_QUARTIC)

    def test_admissible_high_degree_gains_pass(self):
        # admissible gains with n >= 4 keep every alpha < 1/4 and the last < 1/2
        rng = np.random.default_rng(21)
        for _ in range(60):
            n = int(rng.integers(4, 8))
            g, _, _ = helpers.sample_admissible(rng, n)
            coeffs = char_coeffs(g)
            alphas = determining_coeffs(coeffs)
            assert np.all(alphas[:-1] < 0.25)
            assert alphas[-1] < 0.5
            assert nie_stable(coeffs)


class TestRouthHurwitz:
    def test_bench_quartic_true(self):
        assert routh_hurwitz(BENCH_QUARTIC)
        quartic_expr = 21.5 * 21.5 * 8.6 - 21.5 ** 2 - 8.6 * 8.6 ** 2
        assert quartic_expr == pytest.approx(3975.35 - 462.25 - 636.056, abs=1e-10)
        assert quartic_expr > 0.0

    def test_positive_quadratic_true(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            k0, k1 = 10.0 ** rng.uniform(-2, 2, 2)
            assert routh_hurwitz([k0, k1, 1.0])

    def test_cubic_counterexample(self):
        coeffs = [2.0, 1.0, 1.0, 1.0]  # s^3 + s^2 + s + 2
        assert not routh_hurwitz(coeffs)
        assert helpers.max_real_root(coeffs) > 0.0

    def test_quartic_closed_form_agrees_with_array(self):
        rng = np.random.default_rng(23)
        agree = 0
        for _ in range(1000):
            a = 10.0 ** rng.uniform(-1.5, 1.5, 4)
            coeffs = np.append(a, 1.0)
            closed = a[1] * a[2] * a[3] - a[1] ** 2 - a[0] * a[3] ** 2 > 0.0
            assert routh_hurwitz(coeffs) == closed
            agree += 1
        assert agree == 1000

    def test_zero_pivot_indeterminate(self):
        # s^4 + s^3 + 2s^2 + 2s + 1: second Routh row eliminates the third
        with pytest.raises(IndeterminateStability):
            routh_hurwitz([1.0, 2.0, 2.0, 1.0, 1.0])

    def test_oracle_agreement_random(self):
        rng = np.random.default_rng(24)
        checked = 0
        for _ in range(400):
            deg = int(rng.integers(3, 9))
            coeffs = 10.0 ** rng.uniform(-1.0, 1.3, deg + 1)
            top = helpers.max_real_root(coeffs)
            if abs(top) <= helpers.INDETERMINATE_BAND:
                continue
            try:
                verdict = routh_hurwitz(coeffs)
            except IndeterminateStability:
                continue
            assert verdict == (top < 0.0), (coeffs, top)
            checked += 1
        assert checked > 300


class TestIsHurwitz:
    def test_bench_gains(self):
        assert is_hurwitz(GainVector("pid", np.array([8.6, 21.5, 21.5, 8.6])))

    def test_n1_always(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            g = GainVector("pid", 10.0 ** rng.uniform(-2, 2, 2))
            assert is_hurwitz(g)

    def test_oracle_agreement_gain_vectors(self):
        rng = np.random.default_rng(26)
        for _ in range(300):
            n = int(rng.integers(1, 8))
            g = GainVector("pid", 10.0 ** rng.uniform(-1.0, 1.5, n + 1))
            coeffs = char_coeffs(g)
            top = helpers.max_real_root(coeffs)
            if abs(top) <= helpers.INDETERMINATE_BAND:
                continue
            try:
                verdict = is_hurwitz(g)
            except IndeterminateStability:
                continue
            assert verdict == (top < 0.0)

    def test_overflow_raises(self):
        # every degree route: closed-form cubic and quartic, Nie and the Routh array
        for gains in ([1e200] * 3, [1e200] * 4, [1e200] * 5):
            with pytest.raises(ValueError, match="overflow float64"):
                is_hurwitz(GainVector("pid", np.array(gains)))
        with pytest.raises(ValueError, match="Routh array entries overflow float64"):
            routh_hurwitz([1.0, 1.0, 1e300, 1.0, 1e-300, 1.0])

    def test_admissible_implies_hurwitz(self):
        rng = np.random.default_rng(27)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            g, L, M = helpers.sample_admissible(rng, n)
            assert check_inequality(g, L, M).admissible
            assert is_hurwitz(g)
