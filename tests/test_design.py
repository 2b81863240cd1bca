import math
from fractions import Fraction

import numpy as np
import pytest

from stochpid import (
    GainVector,
    InvalidBeta,
    NonPositiveGain,
    bound_constants,
    check_inequality,
    check_inequality_pd,
    geometric_gains,
    is_hurwitz,
    lambda_gains,
)

L_BENCH = math.sqrt(3.0) / 2.0


def bench_pattern(k):
    return GainVector("pid", np.array([k, 2.5 * k, 2.5 * k, k]))


class TestCheckInequality:
    def test_bench_pattern_admissible_at_8_6(self):
        report = check_inequality(bench_pattern(8.6), L_BENCH, 0.0)
        assert report.admissible
        # min term is k3^2 - k2 = 8.6^2 - 21.5; kbar = L * 60.2
        assert report.binding_value == pytest.approx(8.6 ** 2 - 21.5, abs=1e-12)
        assert report.kbar == pytest.approx(L_BENCH * 60.2, abs=1e-12)
        assert report.margin == pytest.approx(52.46 - L_BENCH * 60.2, abs=1e-9)

    def test_bench_pattern_rejected_at_8_5(self):
        report = check_inequality(bench_pattern(8.5), L_BENCH, 0.0)
        assert not report.admissible
        assert report.binding_value == pytest.approx(8.5 ** 2 - 21.25)
        assert report.margin < 0

    def test_bench_pattern_threshold(self):
        # pattern admissible iff k > (5 + 7*sqrt(3))/2
        k_star = (5.0 + 7.0 * math.sqrt(3.0)) / 2.0
        assert check_inequality(bench_pattern(k_star * 1.001), L_BENCH, 0.0).admissible
        assert not check_inequality(bench_pattern(k_star * 0.999), L_BENCH, 0.0).admissible

    def test_simple_n2(self):
        report = check_inequality(GainVector("pid", np.array([1.0, 3.0, 4.0])), 0.0, 0.0)
        assert report.admissible
        assert report.margin == pytest.approx(min(1.0, 9.0 - 8.0, 16.0 - 3.0))

    def test_n1_reading(self):
        # middle family empty: min{k0^2, k1^2 - k0}
        report = check_inequality(GainVector("pid", np.array([2.0, 3.0])), 0.0, 0.0)
        assert report.margin == pytest.approx(min(4.0, 9.0 - 2.0))
        assert report.binding_term == "k0^2"

    def test_zero_margin_is_failure(self):
        # min term equals kbar exactly: k0^2 = 4, kbar = k1*M^2 = 4
        g = GainVector("pid", np.array([2.0, 4.0]))
        report = check_inequality(g, 0.0, 1.0)
        assert report.margin == 0.0
        assert not report.admissible

    def test_b_lower_scaling(self):
        g = GainVector("pid", np.array([2.0, 3.0]))
        report = check_inequality(g, 0.0, 0.0, b_lower=0.5)
        # min{k0^2*b, k1^2*b - k0} = min{2, 2.5}
        assert report.margin == pytest.approx(2.0)

    def test_kind_mismatch(self):
        with pytest.raises(ValueError):
            check_inequality(GainVector("pd", np.array([3.0, 4.0])), 0.0, 0.0)
        with pytest.raises(ValueError):
            check_inequality_pd(GainVector("pid", np.array([1.0, 3.0, 4.0])), 0.0, 0.0)

    def test_nonpositive_gain_rejected(self):
        with pytest.raises(NonPositiveGain):
            GainVector("pid", np.array([1.0, -3.0, 4.0]))
        with pytest.raises(NonPositiveGain):
            GainVector("pd", np.array([0.0, 4.0]))

    def test_overflow_is_not_admissible(self):
        # k1^2 - 2*k0*k2 < 0 in exact arithmetic, but the float64 terms are inf and nan
        with pytest.raises(ValueError, match="overflows"):
            check_inequality(GainVector("pid", np.full(3, 1e200)), 0.5, 0.0)
        with pytest.raises(ValueError, match="overflows"):
            check_inequality_pd(GainVector("pd", np.full(3, 1e200)), 0.5, 0.0)
        with pytest.raises(ValueError, match="kbar"):
            check_inequality(GainVector("pid", np.array([1.0, 1e308, 1e308])), 1.0, 0.0)

    def test_terms_use_correctly_rounded_squares(self):
        # libm pow behind numpy scalar ** 2 misrounds about 7 in 10^4 of these
        from stochpid.design import _terms

        def square(v):
            return float(Fraction(float(v)) ** 2)

        rng = np.random.default_rng(62)
        for k0, k1, k2 in rng.uniform(1e9, 1e10, (5000, 3)):
            values = [v for _, v in _terms(np.array([k0, k1, k2]), 1.0, str)]
            assert values == [square(k0), square(k1) - 2.0 * k0 * k2, square(k2) - k1]


class TestCheckInequalityPd:
    def test_admissible_pair(self):
        report = check_inequality_pd(GainVector("pd", np.array([3.0, 4.0])), 0.0, 0.0)
        assert report.admissible
        assert report.margin == pytest.approx(min(9.0, 13.0))

    def test_rejected_pair(self):
        report = check_inequality_pd(GainVector("pd", np.array([3.0, 1.0])), 0.0, 0.0)
        assert not report.admissible
        assert report.binding_value == pytest.approx(1.0 - 3.0)

    def test_n1_degenerate(self):
        report = check_inequality_pd(GainVector("pd", np.array([2.0])), 1.0, 0.0)
        assert report.admissible
        assert report.binding_value == pytest.approx(4.0)
        assert report.kbar == pytest.approx(2.0)

    def test_middle_family_n3(self):
        g = GainVector("pd", np.array([10.0, 5.0, 4.0]))
        report = check_inequality_pd(g, 0.0, 0.0)
        # terms: k1^2=100, k2^2-2k1k3=25-80=-55, k3^2-k2=11
        assert report.binding_value == pytest.approx(-55.0)


class TestGeometricGains:
    def test_powers_of_three(self):
        assert np.allclose(geometric_gains(27.0, 2).gains, [27.0, 9.0, 1.0])

    def test_admissible_at_1300(self):
        report = check_inequality(geometric_gains(1300.0, 2), 1.0, 0.0)
        assert report.admissible
        assert report.binding_value == pytest.approx((1300.0 / 27.0) ** 2 - 1300.0 / 3.0)
        assert report.kbar == pytest.approx(37.0 * 1300.0 / 27.0)

    def test_rejected_at_1200(self):
        report = check_inequality(geometric_gains(1200.0, 2), 1.0, 0.0)
        assert not report.admissible
        assert report.binding_value == pytest.approx((1200.0 / 27.0) ** 2 - 400.0)
        assert report.kbar == pytest.approx(37.0 * 1200.0 / 27.0)

    def test_admissibility_monotone_in_k(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(1, 6))
            L = float(rng.uniform(0.0, 1.5))
            M = float(rng.uniform(0.0, 1.5))
            ks = np.sort(10.0 ** rng.uniform(-0.5, 5.0, 8))
            flags = [check_inequality(geometric_gains(k, n), L, M).admissible for k in ks]
            # once admissible, stays admissible for every larger k
            first = flags.index(True) if True in flags else len(flags)
            assert all(flags[first:])


class TestLambdaGains:
    def test_override_example(self):
        g, betas = lambda_gains(1.0, 1.0, 0.0, 2, betas=[0.4, 0.1], k=4000.0)
        assert np.allclose(g.gains, [4000.0, 1600.0, 160.0])
        assert np.allclose(betas, [0.4, 0.1])
        report = check_inequality(g, 1.0, 0.0)
        assert report.admissible
        assert report.kbar == pytest.approx(5760.0)
        assert report.binding_value == pytest.approx(24000.0)

    def test_boundary_k_rejected(self):
        with pytest.raises(InvalidBeta):
            lambda_gains(1.0, 1.0, 0.0, 2, betas=[0.4, 0.1], k=3750.0)

    def test_bad_betas_rejected(self):
        with pytest.raises(InvalidBeta):
            lambda_gains(1.0, 0.0, 0.0, 2, betas=[0.6, 0.1])  # beta1 >= 1/2
        with pytest.raises(InvalidBeta):
            lambda_gains(1.0, 0.0, 0.0, 2, betas=[0.4, 0.25])  # beta2 >= beta1/2
        with pytest.raises(InvalidBeta):
            lambda_gains(1.0, 0.0, 0.0, 2, betas=[0.4])  # wrong length

    def test_defaults_always_admissible(self):
        for n in range(1, 9):
            for L in (0.0, 0.5, 1.0, 2.0):
                for M in (0.0, 0.5, 1.0, 2.0):
                    for lam in (0.05, 1.0, 10.0):
                        g, betas = lambda_gains(lam, L, M, n)
                        assert betas.shape == (n,)
                        assert check_inequality(g, L, M).admissible, (n, L, M, lam)

    def test_defaults_satisfy_design_region(self):
        for n in (1, 3, 6):
            lam, L, M = 0.7, 0.3, 0.4
            g, betas = lambda_gains(lam, L, M, n)
            bound = min(1.0, 1.0 / (n * (lam + 8.0 * M ** 2)))
            assert 0.0 < betas[0] < bound
            for i in range(1, n):
                assert 0.0 < betas[i] < betas[i - 1] / n
            # gains follow the ratio pattern
            assert np.allclose(g.gains, g.gains[0] * np.concatenate([[1.0], np.cumprod(betas)]))

    def test_b_lower_scales_threshold(self):
        # halving b doubles the minimal k for fixed ratios
        with pytest.raises(InvalidBeta):
            lambda_gains(1.0, 1.0, 0.0, 2, b_lower=0.5, betas=[0.4, 0.1], k=7500.0)
        g, _ = lambda_gains(1.0, 1.0, 0.0, 2, b_lower=0.5, betas=[0.4, 0.1], k=7501.0)
        assert g.gains[0] == 7501.0


class TestBoundConstants:
    def test_frozen_example(self):
        g = GainVector("pid", np.array([4000.0, 1600.0, 160.0]))
        bc = bound_constants(g, 1.0, 1.0, 0.0, 1.0)
        assert bc.decay_coeff == pytest.approx(4.0 * 8.0 * 4000.0 ** 2 / 160.0 ** 2)
        assert bc.decay_coeff == pytest.approx(20000.0)
        assert bc.floor_coeff == pytest.approx(8.0)
        assert bc.floor_lower_coeff == pytest.approx(
            1.0 / (16.0 + 192.0 * (4000.0 ** 2 + 1600.0 ** 2 + 160.0 ** 2))
        )

    def test_zero_noise_zero_gain_limit(self):
        g = GainVector("pid", np.array([4000.0, 1600.0, 160.0]))
        bc = bound_constants(g, 1.0, 0.0, 0.0, 0.0)
        assert bc.floor_lower_coeff == pytest.approx(1.0 / 8.0)

    def test_certificate_constants_attached(self):
        from stochpid import verify_certificate

        g = GainVector("pid", np.array([1.0, 3.0, 4.0]))
        cert = verify_certificate(g, 0.0, 0.0)
        bc = bound_constants(g, 1.0, 0.0, 0.0, 1.0, certificate=cert)
        assert bc.cert_rate == pytest.approx(cert.min_eig_negdef / cert.max_eig_P)
        assert bc.cert_decay_coeff >= cert.max_eig_P / cert.min_eig_P
        assert bc.cert_floor_coeff > 0


class TestMarginContinuity:
    def test_finite_difference_lipschitz(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            gains = 10.0 ** rng.uniform(-0.3, 1.5, n + 1)
            L, M = rng.uniform(0.0, 1.0, 2)
            g = GainVector("pid", gains)
            base = check_inequality(g, L, M).margin
            # every term's gradient is bounded by 4*max(k) + 1, kbar's by L + M^2
            C = 4.0 * gains.max() + 1.0 + L + M ** 2
            for i in range(n + 1):
                eps = 1e-6 * gains[i]
                bumped = gains.copy()
                bumped[i] += eps
                delta = check_inequality(GainVector("pid", bumped), L, M).margin - base
                assert abs(delta) <= C * eps * (1.0 + 1e-9)


def test_admissible_implies_hurwitz_sampled():
    import helpers

    rng = np.random.default_rng(11)
    for _ in range(150):
        n = int(rng.integers(1, 7))
        g, _, _ = helpers.sample_admissible(rng, n)
        assert is_hurwitz(g)
