from fractions import Fraction

import numpy as np
import pytest

import helpers
from stochpid import (
    CertificateError,
    GainVector,
    build_P,
    char_coeffs,
    check_inequality,
    determining_coeffs,
    is_hurwitz,
    lambda_gains,
    nie_stable,
    q_diagonal,
    routh_hurwitz,
    verify_certificate,
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
        with pytest.raises(ValueError, match="^determining coefficients need degree >= 3"):
            determining_coeffs([1.0, 2.0, 1.0])
        with pytest.raises(ValueError, match="^all coefficients must be positive"):
            determining_coeffs([1.0, -2.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="overflow float64"):
            determining_coeffs([1e200, 1e200, 1e200, 1.0])
        with pytest.raises(ValueError, match="finite coefficients"):  # not an "overflow"
            determining_coeffs([1.0, float("nan"), 1.0, 1.0])


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
        with pytest.raises(ValueError, match="^nie_stable applies to degree >= 5"):
            nie_stable(BENCH_QUARTIC)

    def test_triple_product_condition_alone_can_fail(self):
        # every alpha is below 1/2, but alpha_2 + alpha_1*alpha_2*alpha_3 is not: the
        # sufficient test decides nothing on a polynomial that is stable
        a = [1.0, 1.3, 6.6, 3.9, 9.7, 1.6, 1.0]
        alpha = determining_coeffs(a)
        assert np.all(alpha < 0.5) and alpha[1] + alpha[0] * alpha[1] * alpha[2] > 0.5
        assert not nie_stable(a)
        assert routh_hurwitz(a)

    def test_verdicts_match_the_paper_index_loop(self):
        def loop(p):  # the test as the paper states it, alphas 1-based
            alpha, N = determining_coeffs(p), len(p) - 1
            if not np.all(alpha < 0.5):
                return False
            return all(alpha[i - 1] + alpha[i - 2] * alpha[i - 1] * alpha[i] <= 0.5
                       for i in range(2, N - 2))

        # the polynomials of acceptance criterion 3, and the one above
        rng = np.random.default_rng(99)
        polys = [10.0 ** rng.uniform(-1.0, 1.3, int(rng.integers(3, 9)) + 1) for _ in range(1000)]
        polys = [p for p in polys if p.size >= 6] + [[1.0, 1.3, 6.6, 3.9, 9.7, 1.6, 1.0]]
        verdicts = [nie_stable(p) for p in polys]
        assert verdicts == [loop(p) for p in polys] and any(verdicts)

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


def exact_first_column(coeffs):
    """First column of the Routh array on exact rationals (floats are dyadic)."""
    desc = [Fraction(float(c)) for c in coeffs[::-1]]
    prev, row = desc[0::2], desc[1::2] + [Fraction(0)] * (len(desc) % 2)
    first = [prev[0]]
    for _ in range(len(desc) - 1):
        first.append(row[0])
        if row[0] == 0:
            break
        prev, row = row, [(row[0] * prev[j + 1] - prev[0] * row[j + 1]) / row[0]
                          for j in range(len(prev) - 1)] + [Fraction(0)]
    return first


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
        # s^4 + s^3 + 2s^2 + 2s + 1: second Routh row eliminates the third; an exact zero
        # in the first column means a root on or right of the imaginary axis
        assert not routh_hurwitz([1.0, 2.0, 2.0, 1.0, 1.0])
        assert helpers.max_real_root([1.0, 2.0, 2.0, 1.0, 1.0]) > -1e-6

    @pytest.mark.parametrize("coeffs", [[float("nan"), 1.0], [1.0, float("inf"), 1.0],
                                        [1.0, 2.0, float("-inf"), 1.0]])
    def test_non_finite_coefficient_raises(self, coeffs):
        with pytest.raises(ValueError, match="finite coefficients"):
            routh_hurwitz(coeffs)

    @pytest.mark.parametrize("coeffs, match", [
        ([1.0], "degree >= 1 polynomial"),
        ([1.0, 0.0], "leading coefficient must be positive"),
        ([1.0, -1.0], "leading coefficient must be positive"),
    ])
    def test_malformed_polynomial_raises(self, coeffs, match):
        with pytest.raises(ValueError, match=match):
            routh_hurwitz(coeffs)

    def test_oracle_agreement_random(self):
        rng = np.random.default_rng(24)
        checked = 0
        for _ in range(400):
            deg = int(rng.integers(3, 9))
            coeffs = 10.0 ** rng.uniform(-1.0, 1.3, deg + 1)
            top = helpers.max_real_root(coeffs)
            if abs(top) <= helpers.INDETERMINATE_BAND:
                continue
            assert routh_hurwitz(coeffs) == (top < 0.0), (coeffs, top)
            checked += 1
        assert checked > 300

    def test_overflowing_verdicts_match_exact_routh(self):
        rng = np.random.default_rng(28)
        for _ in range(400):
            coeffs = 10.0 ** rng.uniform(-150.0, 250.0, int(rng.integers(3, 11)))
            assert routh_hurwitz(coeffs) == all(f > 0 for f in exact_first_column(coeffs))

    def test_cubics_at_the_boundary_match_exact_sign(self):
        # s^3 + k2 s^2 + k1 s + k0 is Hurwitz iff k1*k2 > k0; k0 = fl(k1*k2) and its two
        # float neighbours put the exact sign of k1*k2 - k0 a rounding error from zero;
        # every other draw has 24-bit gains, whose product is exact
        rng = np.random.default_rng(29)
        signs = set()
        for trial in range(700):
            k1, k2 = 10.0 ** rng.uniform(-3.0, 3.0, 2)
            if trial % 2:
                k1, k2 = float(np.float32(k1)), float(np.float32(k2))
            fl = k1 * k2
            for k0 in (np.nextafter(fl, 0.0), fl, np.nextafter(fl, np.inf)):
                diff = Fraction(k1) * Fraction(k2) - Fraction(float(k0))
                assert routh_hurwitz([k0, k1, k2, 1.0]) == (diff > 0), (k0, k1, k2)
                signs.add((diff > 0) - (diff < 0))
        assert signs == {-1, 0, 1}


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
            n = int(rng.integers(1, 9))
            kind = "pid" if rng.random() < 0.5 else "pd"
            g = GainVector(kind, 10.0 ** rng.uniform(-1.0, 1.5, n + 1 if kind == "pid" else n))
            coeffs = char_coeffs(g)
            top = helpers.max_real_root(coeffs)
            if abs(top) <= helpers.INDETERMINATE_BAND:
                continue
            assert is_hurwitz(g) == (top < 0.0)

    def test_cached_verdict_matches_routh_hurwitz(self):
        # is_hurwitz reads the verdict cached on the vector, which verify_certificate
        # may have filled first; both orders must give routh_hurwitz's verdict
        rng = np.random.default_rng(28)
        vectors = [("pid", np.array([0.1 * 3, 0.1, 3.0]))]  # fl(0.1*3) > 0.1*3: not Hurwitz
        for n in range(1, 9):
            vectors.append(("pid", lambda_gains(1.0, 0.5, 0.2, n)[0].gains))
            for _ in range(30):
                kind = "pid" if rng.random() < 0.5 else "pd"
                vectors.append((kind, 10.0 ** rng.uniform(-1.0, 1.5, n + 1 if kind == "pid" else n)))
        verdicts, certified = [], 0
        for kind, gains in vectors:
            expected = routh_hurwitz(char_coeffs(GainVector(kind, gains)))
            first, later = GainVector(kind, gains), GainVector(kind, gains)
            assert is_hurwitz(first) == expected
            for g in (first, later):
                try:
                    cert = verify_certificate(g, 0.5, 0.2)
                except CertificateError:
                    continue
                certified += 1
                assert cert.P.tobytes() == build_P(g).tobytes()
                assert cert.Q.tobytes() == q_diagonal(g).tobytes()
            assert is_hurwitz(first) == is_hurwitz(later) == expected
            verdicts.append(expected)
        assert not verdicts[0]
        assert 0 < sum(verdicts) < len(verdicts)
        assert certified >= 16

    def test_overflow_raises(self):
        # a float Routh recursion overflows on these; the int recursion decides them
        for gains in ([1e200] * 2, [1e200] * 3):
            assert is_hurwitz(GainVector("pid", np.array(gains)))
        assert not is_hurwitz(GainVector("pid", np.array([1e200] * 4)))
        assert not routh_hurwitz([1.0, 1.0, 1e300, 1.0, 1e-300, 1.0])
        # an exact zero in the first column: not Hurwitz
        assert exact_first_column([1e200] * 5 + [1.0])[-1] == 0
        assert not is_hurwitz(GainVector("pid", np.array([1e200] * 5)))

    def test_admissible_implies_hurwitz(self):
        rng = np.random.default_rng(27)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            g, L, M = helpers.sample_admissible(rng, n)
            assert check_inequality(g, L, M).admissible
            assert is_hurwitz(g)
