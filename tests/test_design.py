import copy
import math
import pickle
import re
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
from stochpid.design import _k_admissible_threshold, _terms

L_BENCH = math.sqrt(3.0) / 2.0


def bench_pattern(k):
    return GainVector("pid", np.array([k, 2.5 * k, 2.5 * k, k]))


class TestGainVector:
    def test_gains_are_a_read_only_copy(self):
        a = np.array([1.0, 2.0])
        g = GainVector("pd", a)
        a[0] = -1.0
        assert g.gains.tolist() == [1.0, 2.0]
        assert not np.shares_memory(g.gains, a)
        with pytest.raises(ValueError, match="read-only"):
            g.gains[0] = -1.0

    def test_copies_and_pickles_are_read_only_copies(self):
        g = GainVector("pid", np.array([8.6, 21.5, 21.5, 8.6]))
        assert is_hurwitz(g) and check_inequality(g, L_BENCH, 0.0).admissible  # fill the cache
        for h in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
            assert (h.kind, h.gains.tolist()) == (g.kind, g.gains.tolist())
            assert not h.gains.flags.writeable


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
        # one inequality for both kinds: the PD wrapper only guards the kind
        pd = GainVector("pd", np.array([3.0, 4.0]))
        assert check_inequality(pd, 0.5, 0.25) == check_inequality_pd(pd, 0.5, 0.25)
        with pytest.raises(ValueError, match="no b term"):
            check_inequality(pd, 0.0, 0.0, b_lower=2.0)
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

    @pytest.mark.parametrize("kind, gains, b_lower, term", [
        ("pid", [1.0, 4.0, 4.0], 1.0, "k0^2"),
        ("pid", [2.0, 3.0, 4.0], 1.0, "k1^2-2*k0*k2"),
        ("pid", [10.0, 10.0, 3.0, 10.0], 1.0, "k2^2-2*k1*k3"),
        ("pid", [3.0, 4.0, 2.0], 1.0, "k2^2-k1"),
        ("pid", [2.0, 1.0], 1.0, "k1^2-k0"),
        ("pid", [1.0, 4.0, 4.0], 0.5, "k0^2*b"),
        ("pid", [2.0, 3.0, 4.0], 0.5, "(k1^2-2*k0*k2)*b"),
        ("pid", [10.0, 10.0, 3.0, 10.0], 0.5, "(k2^2-2*k1*k3)*b"),
        ("pid", [3.0, 4.0, 2.0], 0.5, "k2^2*b-k1"),
        ("pid", [2.0, 1.0], 0.5, "k1^2*b-k0"),
        ("pd", [1.0, 4.0, 4.0], 1.0, "k1^2"),
        ("pd", [2.0, 3.0, 4.0], 1.0, "k2^2-2*k1*k3"),
        ("pd", [10.0, 10.0, 3.0, 10.0], 1.0, "k3^2-2*k2*k4"),
        ("pd", [3.0, 4.0, 2.0], 1.0, "k3^2-k2"),
        ("pd", [2.0], 1.0, "k1^2"),
        ("pid", [1.0, 3.0, 4.0], 1.0, "k0^2"),  # k0^2 = k1^2 - 2*k0*k2: a tie binds the first
    ])
    def test_binding_term_names(self, kind, gains, b_lower, term):
        report = check_inequality(GainVector(kind, np.array(gains)), 0.0, 0.0, b_lower)
        assert report.binding_term == term
        g, b = gains, b_lower
        values = [g[0] * g[0] * b] + [(g[i] * g[i] - 2.0 * g[i - 1] * g[i + 1]) * b
                                      for i in range(1, len(g) - 1)]
        if len(g) >= 2:
            values.append(g[-1] * g[-1] * b - g[-2])
        assert report.binding_value == min(values)

    @pytest.mark.parametrize("kind, gains, b_lower, term, value", [
        ("pid", [1e200, 1.0, 1.0], 1.0, "k0^2", "inf"),
        ("pid", [1.0, 1e200, 1.0], 0.5, "(k1^2-2*k0*k2)*b", "inf"),
        ("pid", [1e150, 1e200, 1e300], 1.0, "k1^2-2*k0*k2", "nan"),
        ("pid", [1.0, 1e200], 0.5, "k1^2*b-k0", "inf"),
        ("pd", [1.0, 1.0, 1e200], 1.0, "k3^2-k2", "inf"),
    ])
    def test_overflowing_term_is_named(self, kind, gains, b_lower, term, value):
        with pytest.raises(ValueError, match=f"^term {re.escape(term)} = {value} overflows float64$"):
            check_inequality(GainVector(kind, np.array(gains)), 0.0, 0.0, b_lower)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_margin_is_named(self):
        # every term and kbar are finite, but the binding term minus kbar is not
        g = GainVector("pid", np.array([9e153, 1.0, 9e153]))
        with pytest.raises(ValueError, match=r"^margin k1\^2-2\*k0\*k2 - kbar = -1\.62e\+308 - "
                                             r"9e\+307 overflows float64$"):
            check_inequality(g, 5e153, 0.0)

    def test_terms_use_correctly_rounded_squares(self):
        # libm pow behind numpy scalar ** 2 misrounds about 7 in 10^4 of these
        def square(v):
            return float(Fraction(float(v)) ** 2)

        rng = np.random.default_rng(62)
        for k0, k1, k2 in rng.uniform(1e9, 1e10, (5000, 3)):
            values = [q - l for _, q, l in _terms([k0, k1, k2], 1.0)]
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

    @pytest.mark.parametrize("k", [float("nan"), float("inf"), 0.0, -1.0])
    def test_bad_k_is_named(self, k):
        with pytest.raises(ValueError, match="^k must be positive and finite"):
            geometric_gains(k, 2)


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

    def test_admissible_threshold_is_tight(self):
        # the default ratio vectors w: check_inequality flips within 1e-9 of the scale t
        rng = np.random.default_rng(77)
        for _ in range(2000):
            n = int(rng.integers(1, 9))
            lam = 10.0 ** rng.uniform(-2.0, 1.5)
            L, M = (float(v) for v in rng.uniform(0.0, 2.0, 2))
            b_lower = 10.0 ** rng.uniform(-1.0, 1.0) if rng.random() < 0.5 else 1.0
            _, betas = lambda_gains(lam, L, M, n, b_lower)
            w = np.concatenate([[1.0], np.cumprod(betas)])
            t = _k_admissible_threshold(w, L, M, b_lower)
            for scale, admissible in ((1.0 + 1e-9, True), (1.0 - 1e-9, False)):
                report = check_inequality(GainVector("pid", scale * t * w), L, M, b_lower)
                assert report.admissible == admissible, (n, lam, L, M, b_lower, scale)

    @pytest.mark.parametrize("args, kwargs, name", [
        ((1e308, 0.0, 0.0, 2), {}, "lam"),  # the default ratios underflow to 0
        ((1.0, 1e200, 0.0, 2), {}, "lam"),  # 2*L**2 overflows
        ((1.0, 0.0, 1e200, 2), {}, "lam"),  # 8*M**2 overflows
        ((1.0, 0.0, 0.0, 2), {"betas": [1e-200, 1e-201]}, "betas"),
    ])
    def test_infinite_threshold_is_named(self, args, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be such that the gain threshold"):
            lambda_gains(*args, **kwargs)

    @pytest.mark.parametrize("beta2", [np.nextafter(0.2, 0.0), 0.2 * (1.0 - 1e-15)])
    def test_cancelled_middle_term_raises(self, beta2):
        # k1^2 - 2*k0*k2 cancels to rounding noise as beta_2 nears beta_1/2
        with pytest.raises(ValueError, match="^betas must be such that the gain threshold"):
            lambda_gains(1.0, 1.0, 0.0, 2, betas=[0.4, beta2])

    def test_near_boundary_overrides_are_admissible_or_raise(self):
        # every ratio just inside its bound: a default k either passes the check
        # it was derived from or is refused
        rng = np.random.default_rng(19)
        raised = 0
        for _ in range(2000):
            n = int(rng.integers(2, 5))
            lam = 10.0 ** rng.uniform(-1.0, 1.0)
            L, M = float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.0, 0.5))
            b_lower = 10.0 ** rng.uniform(-1.0, 1.0) if rng.random() < 0.5 else 1.0
            betas, bound = [], min(1.0, 1.0 / (n * (lam + 8.0 * M * M)))
            for _ in range(n):
                eps = 10.0 ** rng.uniform(-16.0, -6.0)
                betas.append(min(bound * (1.0 - eps), np.nextafter(bound, 0.0)))
                bound = betas[-1] / n
            try:
                g, _ = lambda_gains(lam, L, M, n, b_lower, betas)
            except ValueError as exc:
                assert str(exc).startswith("betas must be such that the gain threshold")
                raised += 1
                continue
            assert check_inequality(g, L, M, b_lower).admissible, (n, lam, L, M, b_lower, betas)
        assert 0 < raised < 500

    def test_explicit_k_against_infinite_threshold(self):
        with pytest.raises(InvalidBeta, match="must strictly exceed inf"):
            lambda_gains(1.0, 0.0, 0.0, 2, betas=[1e-200, 1e-201], k=5.0)
        for k in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValueError, match="^k must be positive and finite"):
                lambda_gains(1.0, 1.0, 0.0, 2, betas=[0.4, 0.1], k=k)


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


    @pytest.mark.parametrize("name", ["lam", "R"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_lam_and_r_are_rejected(self, name, value):
        g = GainVector("pid", np.array([8.6, 21.5, 21.5, 8.6]))
        args = {"lam": 1.0, "R": 1.0, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be"):
            bound_constants(g, args["lam"], 0.5, 0.0, args["R"])

    def test_huge_diffusion_constant_gives_a_zero_floor(self):
        # M ** 2 on a Python float raises OverflowError above about 1.3e154
        g = GainVector("pid", np.array([8.6, 21.5, 21.5, 8.6]))
        assert bound_constants(g, 1.0, 0.5, 1e200, 1.0).floor_lower_coeff == 0.0

    def test_overflowing_gains_are_named(self):
        # k0**2 / kn**2 is inf/inf here; the suite turns a RuntimeWarning into an error
        g = GainVector("pid", np.array([1e200] * 4))
        with pytest.raises(ValueError, match="^decay_coeff = nan overflows float64"):
            bound_constants(g, 1.0, 0.5, 0.0, 1.0)
        # gains in range keep the formula's exact value
        g = GainVector("pid", np.array([3.0, 1.0, 7.0]))
        assert bound_constants(g, 1.0, 0.5, 0.0, 1.0).decay_coeff == 4.0 * 8 * 3.0 ** 2 / 7.0 ** 2


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
