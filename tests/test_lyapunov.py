from fractions import Fraction

import numpy as np
import pytest

import helpers
import stochpid.lyapunov
from stochpid import (
    CertificateError,
    GainVector,
    NotNegativeDefinite,
    NotPositiveDefinite,
    build_P,
    check_inequality,
    companion,
    geometric_gains,
    is_hurwitz,
    lambda_gains,
    q_diagonal,
    verify_certificate,
)
from stochpid.design import _k_admissible_threshold
from stochpid.lyapunov import _entry, _rounded, _scaled_q

BENCH_GAINS = GainVector("pid", np.array([8.6, 21.5, 21.5, 8.6]))
EIGVALSH = np.linalg.eigvalsh


def random_positive_gains(rng, n, kind="pid"):
    size = n + 1 if kind == "pid" else n
    return GainVector(kind, 10.0 ** rng.uniform(-1.0, 2.0, size))


def row_recursion(c, D):
    """Reference D**2*P on ints, row by row: p[i][N-1] = c[i]*D and
    p[i][j] = 2*c[i]*c[j+1] - p[i-1][j+1] (i <= j < N-1), mirrored."""
    N = len(c)
    p = [[0] * N for _ in range(N)]
    for i in range(N):
        p[i][N - 1] = p[N - 1][i] = c[i] * D
        for j in range(i, N - 1):
            p[i][j] = p[j][i] = 2 * c[i] * c[j + 1] - (p[i - 1][j + 1] if i else 0)
    return p


def scaled_P(g):
    """The gains' power-of-two denominator D, and D**2*P from ``_entry``, mirrored."""
    c, D = g._ints
    N = len(c)
    return D, [[_entry(c, D, min(i, j), max(i, j)) for j in range(N)] for i in range(N)]


class TestEntry:
    @pytest.mark.parametrize("kind", ["pid", "pd"])
    @pytest.mark.parametrize("low, high", [(-1.0, 2.0), (-300.0, 153.0)])
    def test_entries_and_q_are_those_of_the_row_recursion(self, kind, low, high):
        # exact ints: every entry and every q_i = 2*(c_i**2 - p[i-1][i]) equal
        rng = np.random.default_rng(65)
        for n in range(1, 9):
            for _ in range(12):
                g = GainVector(kind, 10.0 ** rng.uniform(low, high, n + (kind == "pid")))
                c, D = g._ints
                p = row_recursion(c, D)
                assert scaled_P(g) == (D, p), g
                assert _scaled_q(c, D) == [2 * (v * v - (p[i - 1][i] if i else 0))
                                           for i, v in enumerate(c)], g


class TestCompanion:
    def test_n1(self):
        A = companion(GainVector("pid", np.array([2.0, 3.0])))
        assert np.array_equal(A, [[0.0, 1.0], [-2.0, -3.0]])

    def test_bench_last_row(self):
        A = companion(BENCH_GAINS)
        assert np.array_equal(A[-1], [-8.6, -21.5, -21.5, -8.6])
        assert np.array_equal(A[:-1, 1:], np.eye(3))
        assert np.all(A[:-1, 0] == 0.0)

    def test_char_poly_matches_determinant(self):
        from stochpid import char_coeffs

        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            g = random_positive_gains(rng, n)
            A = companion(g)
            coeffs = char_coeffs(g)
            for s in (-2.0, -0.5, 0.3, 1.0, 2.7):
                direct = np.linalg.det(s * np.eye(n + 1) - A)
                via_coeffs = np.polyval(coeffs[::-1], s)
                assert direct == pytest.approx(via_coeffs, rel=1e-9, abs=1e-9)


class TestBuildP:
    def test_n1_closed_form(self):
        P = build_P(GainVector("pid", np.array([2.0, 3.0])))
        assert np.array_equal(P, [[12.0, 2.0], [2.0, 3.0]])

    def test_n2_closed_form(self):
        k0, k1, k2 = 1.0, 3.0, 4.0
        P = build_P(GainVector("pid", np.array([k0, k1, k2])))
        expected = [
            [2 * k0 * k1, 2 * k0 * k2, k0],
            [2 * k0 * k2, 2 * k1 * k2 - k0, k1],
            [k0, k1, k2],
        ]
        assert np.array_equal(P, expected)
        det_formula = k0 * (4 * k1 ** 2 * k2 ** 2 + k0 ** 2 - 2 * k1 ** 3 - 4 * k0 * k2 ** 3)
        assert np.linalg.det(P) == pytest.approx(det_formula)
        assert det_formula == pytest.approx(267.0)

    def test_n3_closed_form(self):
        k0, k1, k2, k3 = BENCH_GAINS.gains
        P = build_P(BENCH_GAINS)
        expected = np.array(
            [
                [2 * k0 * k1, 2 * k0 * k2, 2 * k0 * k3, k0],
                [2 * k0 * k2, 2 * k1 * k2 - 2 * k0 * k3, 2 * k1 * k3 - k0, k1],
                [2 * k0 * k3, 2 * k1 * k3 - k0, 2 * k2 * k3 - k1, k2],
                [k0, k1, k2, k3],
            ]
        )
        assert np.allclose(P, expected, rtol=0.0, atol=0.0)

    def test_last_column_is_gain_vector(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(1, 8))
            g = random_positive_gains(rng, n)
            assert np.array_equal(build_P(g)[:, -1], g.gains)

    def test_diagonalizes_companion(self):
        # -(PA + A'P) is diagonal for any positive gains, not just admissible
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            g = random_positive_gains(rng, n)
            P, A = build_P(g), companion(g)
            S = P @ A + A.T @ P
            off = S - np.diag(np.diag(S))
            assert np.abs(off).max() < 1e-12 * np.linalg.norm(P)


class TestBuildP0:
    """build_P on PD gains gives the n x n matrix P0 by the same recursion."""

    def test_n2_example(self):
        P0 = build_P(GainVector("pd", np.array([3.0, 4.0])))
        assert np.array_equal(P0, [[24.0, 3.0], [3.0, 4.0]])

    def test_last_column(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            g = random_positive_gains(rng, n, kind="pd")
            assert np.array_equal(build_P(g)[:, -1], g.gains)

    def test_diagonalizes_pd_companion(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            g = random_positive_gains(rng, n, kind="pd")
            P0, A0 = build_P(g), companion(g)
            S = P0 @ A0 + A0.T @ P0
            off = S - np.diag(np.diag(S))
            assert np.abs(off).max() < 1e-12 * (1.0 + np.linalg.norm(P0))


class TestQDiagonal:
    def test_n2_formula(self):
        k0, k1, k2 = 2.0, 5.0, 7.0
        q = q_diagonal(GainVector("pid", np.array([k0, k1, k2])))
        assert np.allclose(q, [2 * k0 ** 2, 2 * (k1 ** 2 - 2 * k0 * k2), 2 * (k2 ** 2 - k1)])

    def test_bench_values(self):
        q = q_diagonal(BENCH_GAINS)
        assert np.allclose(q / 2.0, [73.96, 92.45, 101.05, 52.46])

    def test_n1_uses_recursion(self):
        # third entry of the pair is k1^2 - k0, not the bare k1^2
        q = q_diagonal(GainVector("pid", np.array([2.0, 3.0])))
        assert np.array_equal(q, [8.0, 14.0])

    def test_matches_product_diagonal(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            n = int(rng.integers(1, 8))
            g = random_positive_gains(rng, n)
            P, A = build_P(g), companion(g)
            assert np.allclose(q_diagonal(g), -np.diag(P @ A + A.T @ P), rtol=1e-12, atol=1e-12)

    def test_closed_form_convolution(self):
        # independent of the P recursion: q_i = 2*(-1)^i*[kt(s)*kt(-s)]_{2i} with
        # kt = (k_first, ..., k_last, 1/2); a float sum of at most N+1 products is within
        # (N+1)*u of the sum of their magnitudes, and q itself within u of its value
        rng = np.random.default_rng(12)
        for trial in range(2000):
            n = int(rng.integers(1, 9))
            g = random_positive_gains(rng, n, "pid" if trial % 2 else "pd")
            q = q_diagonal(g)
            kt = np.append(g.gains, 0.5)
            sign = (-1.0) ** np.arange(kt.size)
            closed = 2.0 * sign[: q.size] * np.convolve(kt, kt * sign)[0::2][: q.size]
            scale = 2.0 * np.convolve(kt, kt)[0::2][: q.size]
            assert np.all(np.abs(closed - q) <= (q.size + 2) * 2.0 ** -53 * scale), g


def exact_lyapunov(k):
    """P and q of the recursion in rational arithmetic (float gains are exact dyadics)."""
    N = len(k)
    P = [[Fraction(0)] * N for _ in range(N)]
    for j in range(N - 1):
        P[0][j] = 2 * k[0] * k[j + 1]
    for i in range(N):
        P[i][N - 1] = k[i]
    for i in range(1, N):
        for j in range(i, N - 1):
            P[i][j] = 2 * k[i] * k[j + 1] - P[i - 1][j + 1]
    for i in range(N):
        for j in range(i):
            P[i][j] = P[j][i]
    q = [2 * k[0] ** 2] + [2 * (k[i] ** 2 - P[i - 1][i]) for i in range(1, N)]
    return P, q


class TestClosedFormCondition:
    """Condition (ii) of the certificate is exactly min(q) > 2*kbar."""

    @pytest.mark.parametrize("kind", ["pid", "pd"])
    def test_exact_diagonal_identity_and_admissible_margin(self, kind):
        rng = np.random.default_rng(41 if kind == "pid" else 42)
        for n in range(1, 9):
            admissible = 0
            for trial in range(6):
                L, M = (float(v) for v in rng.uniform(0.0, 1.0, 2))
                pid, _ = lambda_gains(10.0 ** rng.uniform(-1.0, 0.7), L, M, n)
                gains = pid.gains
                if trial > 0:  # jitter off the rate design, inside and out of the admissible set
                    gains = gains * 10.0 ** rng.uniform(-0.3, 0.3, n + 1)
                g = GainVector(kind, gains if kind == "pid" else gains[1:])
                k = [Fraction(float(v)) for v in g.gains]
                N = len(k)
                P, q = exact_lyapunov(k)
                A = [[Fraction(float(v)) for v in row] for row in companion(g)]
                PA = [[sum(P[i][m] * A[m][j] for m in range(N)) for j in range(N)]
                      for i in range(N)]
                for i in range(N):
                    for j in range(N):
                        assert PA[i][j] + PA[j][i] == (-q[i] if i == j else 0)
                # correctly rounded from the exact values (float(Fraction) rounds correctly)
                assert np.array_equal(q_diagonal(g), [float(v) for v in q])
                assert np.array_equal(build_P(g), [[float(v) for v in row] for row in P])
                if check_inequality(g, L, M).admissible:
                    admissible += 1
                    kbar = sum(k) * Fraction(L) + k[-1] * Fraction(M) ** 2
                    assert min(q) > 2 * kbar
            assert admissible > 0


class TestVerifyCertificate:
    def test_bench_certificate_valid(self):
        cert = verify_certificate(BENCH_GAINS, np.sqrt(3.0) / 2.0, 0.0)
        assert cert.min_eig_P > 0.0
        assert cert.min_eig_negdef > 0.0
        assert cert.kbar == pytest.approx(np.sqrt(3.0) / 2.0 * 60.2)
        assert np.array_equal(cert.P[:, -1], BENCH_GAINS.gains)

    def test_indefinite_case_rejected(self):
        with pytest.raises(CertificateError):
            verify_certificate(GainVector("pid", np.array([1.0, 1.0, 4.0])), 0.0, 0.0)

    def test_negdef_failure_names_condition(self):
        # P stays positive definite but kbar is too large for condition (ii)
        g = GainVector("pid", np.array([1.0, 3.0, 4.0]))
        with pytest.raises(NotNegativeDefinite):
            verify_certificate(g, 10.0, 0.0)

    def test_condition_ii_is_decided_first(self):
        # both conditions fail: q_1 = -2 and k1*k2 < k0, so A is not Hurwitz and P is
        # indefinite; condition (ii) is decided first, exactly, and names itself
        g = GainVector("pid", np.array([100.0, 1.0, 0.01]))
        assert not is_hurwitz(g) and np.linalg.eigvalsh(build_P(g))[0] < 0.0
        with pytest.raises(NotNegativeDefinite) as info:
            verify_certificate(g, 0.0, 0.0)
        assert info.value.eigenvalue == 2.0

    def test_margin_relation(self):
        g = GainVector("pid", np.array([1.0, 3.0, 4.0]))
        cert = verify_certificate(g, 0.0, 0.0)
        margin = check_inequality(g, 0.0, 0.0).margin
        assert cert.min_eig_negdef >= 2.0 * margin - 1e-9
        assert cert.min_eig_negdef == pytest.approx(2.0)

    def test_admissible_sweep_small(self):
        rng = np.random.default_rng(14)
        for _ in range(80):
            n = int(rng.integers(1, 7))
            g, L, M = helpers.sample_admissible(rng, n)
            cert = verify_certificate(g, L, M)
            assert cert.min_eig_P > 0.0
            assert cert.min_eig_negdef > 0.0
            # recursion bound 0 <= p_ij <= 2*k_i*k_{j+1} on the strict interior
            P = cert.P
            k = g.gains
            for i in range(n):
                for j in range(i, n):
                    assert -1e-9 * np.linalg.norm(P) <= P[i, j] <= 2.0 * k[i] * k[j + 1] + 1e-9
            # q_ii/2 at least the min-inequality binding value for i <= n-1
            binding = check_inequality(g, L, M).binding_value
            q = cert.Q
            assert q[0] / 2.0 == pytest.approx(k[0] ** 2)
            for i in range(1, n):
                assert q[i] / 2.0 >= binding - 1e-9 * max(1.0, abs(binding))

    def test_min_eig_P_brackets_the_exact_eigenvalue(self):
        # graded P (min/max eigenvalue down to 6e-104): an exact LDL' inertia count of
        # P - sigma*I finds no eigenvalue below min_eig_P*(1 - 1e-6) and one below
        # min_eig_P*(1 + 1e-6)
        def eigenvalues_below(p, D2, sigma):
            N = len(p)
            a = [[Fraction(p[i][j], D2) - (sigma if i == j else 0) for j in range(N)]
                 for i in range(N)]
            count = 0
            for k in range(N):
                assert a[k][k] != 0
                count += a[k][k] < 0
                for i in range(k + 1, N):
                    f = a[i][k] / a[k][k]
                    for j in range(k + 1, N):
                        a[i][j] -= f * a[k][j]
            return count

        rng = np.random.default_rng(43)
        for family in ("lambda", "geometric"):
            for n in (6, 7, 8):
                L, M = (float(v) for v in rng.uniform(0.0, 1.0, 2))
                if family == "lambda":
                    g, _ = lambda_gains(10.0 ** rng.uniform(-1.0, 0.7), L, M, n)
                else:
                    w = 3.0 ** (-np.arange(n + 1) * (np.arange(n + 1) + 1) / 2.0)
                    g = geometric_gains(rng.uniform(1.001, 8.0)
                                        * _k_admissible_threshold(w, L, M, 1.0), n)
                cert = verify_certificate(g, L, M)
                assert cert.min_eig_P / cert.max_eig_P < 1e-30
                D, p = scaled_P(g)
                lo = Fraction(cert.min_eig_P)
                assert eigenvalues_below(p, D * D, lo * (1 - Fraction(1, 10 ** 6))) == 0
                assert eigenvalues_below(p, D * D, lo * (1 + Fraction(1, 10 ** 6))) == 1

    def test_overflow_is_not_certified(self):
        with pytest.raises(ValueError, match="overflows"):
            verify_certificate(GainVector("pid", np.full(3, 1e200)), 0.5, 0.0)
        with pytest.raises(ValueError, match="overflows"):
            verify_certificate(GainVector("pd", np.array([1e200])), 0.0, 0.0)  # q = 2*k1^2
        with pytest.raises(ValueError, match="overflows"):
            verify_certificate(GainVector("pd", np.array([1e308, 1e308])), 1.0, 0.0)  # kbar


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """Count the calls of ``np.linalg.eigvalsh`` made inside a test."""
    calls = []

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return EIGVALSH(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


def seeded_certificates(seed, count_per_n=6):
    """Accepted certificates of seeded PID and PD vectors, n = 1..8: (g, cert)."""
    rng = np.random.default_rng(seed)
    for n in range(1, 9):
        for kind in ("pid", "pd"):
            for _ in range(count_per_n):
                L, M = (float(v) for v in rng.uniform(0.0, 1.0, 2))
                pid, _ = lambda_gains(10.0 ** rng.uniform(-1.0, 0.7), L, M, n)
                g = GainVector(kind, pid.gains if kind == "pid" else pid.gains[1:])
                yield g, verify_certificate(g, L, M)


class TestEigenvaluesOnFirstRead:
    """No verdict reads an eigenvalue of P; the diagnostics are computed when read."""

    def test_accepted_certificate_computes_none(self, eigvalsh_calls):
        for _ in seeded_certificates(50, 1):
            pass
        assert eigvalsh_calls == []

    @pytest.mark.parametrize("first", ["min_eig_P", "max_eig_P"])
    def test_first_read_computes_both_once(self, eigvalsh_calls, first):
        cert = verify_certificate(BENCH_GAINS, 0.5, 0.1)
        assert eigvalsh_calls == []
        getattr(cert, first)
        assert eigvalsh_calls == [(4, 4)]
        for _ in range(3):
            cert.min_eig_P, cert.max_eig_P
        assert eigvalsh_calls == [(4, 4)]

    def test_values_are_those_of_eigvalsh(self):
        for g, cert in seeded_certificates(51):
            eigs = EIGVALSH(cert.P)
            assert type(cert.min_eig_P) is float and type(cert.max_eig_P) is float
            assert np.float64(cert.min_eig_P).tobytes() == eigs[0].tobytes(), g
            assert np.float64(cert.max_eig_P).tobytes() == eigs[-1].tobytes(), g

    def test_certificate_matrices_are_read_only(self):
        cert = verify_certificate(BENCH_GAINS, 0.5, 0.1)
        for a in (cert.P, cert.Q):
            with pytest.raises(ValueError):
                a[0] = 1.0

    def test_not_positive_definite_keeps_its_eigenvalue(self, eigvalsh_calls):
        # min(q) > 2*kbar = 0 but A is not Hurwitz, so P is indefinite: the error
        # carries the smallest eigenvalue of P, from one eigvalsh call
        rng = np.random.default_rng(52)
        seen = 0
        for _ in range(20000):
            n = int(rng.integers(3, 9))
            g = random_positive_gains(rng, n, "pid" if rng.random() < 0.5 else "pd")
            if min(_scaled_q(*g._ints)) <= 0 or is_hurwitz(g):
                continue
            del eigvalsh_calls[:]
            with pytest.raises(NotPositiveDefinite) as info:
                verify_certificate(g, 0.0, 0.0)
            assert len(eigvalsh_calls) == 1
            assert info.value.eigenvalue == float(EIGVALSH(build_P(g))[0]) < 0.0
            seen += 1
            if seen == 20:
                break
        assert seen == 20


def seeded_vectors(seed, count_per_n=6):
    """Seeded PID and PD vectors, n = 1..8: λ-designed, jittered off the design, and
    random positive."""
    rng = np.random.default_rng(seed)
    for n in range(1, 9):
        for kind in ("pid", "pd"):
            for trial in range(count_per_n):
                if trial % 3 == 2:
                    yield random_positive_gains(rng, n, kind)
                    continue
                L, M = (float(v) for v in rng.uniform(0.0, 1.0, 2))
                gains = lambda_gains(10.0 ** rng.uniform(-1.0, 0.7), L, M, n)[0].gains
                if trial % 3 == 1:
                    gains = gains * 10.0 ** rng.uniform(-0.3, 0.3, n + 1)
                yield GainVector(kind, gains if kind == "pid" else gains[1:])


@pytest.fixture
def build_P_calls(monkeypatch):
    """Count the calls of ``build_P`` made by the lyapunov module inside a test."""
    calls = []

    def counting(g):
        calls.append(g)
        return build_P(g)

    monkeypatch.setattr(stochpid.lyapunov, "build_P", counting)
    return calls


class TestPOnFirstRead:
    """The verdict reads q and the Routh verdict only; a certificate builds P when read."""

    def test_verdicts_build_no_P(self, build_P_calls):
        # only NotPositiveDefinite builds P, for the eigenvalue it carries
        seen = {"accepted": 0, "NotNegativeDefinite": 0, "NotPositiveDefinite": 0}
        for g in seeded_vectors(60):
            for L in (0.0, 0.5, 1e3):
                del build_P_calls[:]
                try:
                    verify_certificate(g, L, 0.1)
                    verdict = "accepted"
                except CertificateError as exc:
                    verdict = type(exc).__name__
                seen[verdict] += 1
                assert len(build_P_calls) == (verdict == "NotPositiveDefinite"), (g, L)
        assert all(seen.values()), seen

    def test_first_read_builds_P_once(self, build_P_calls):
        for g, cert in seeded_certificates(61, 1):
            del build_P_calls[:]
            P = cert.P
            assert len(build_P_calls) == 1 and build_P_calls[0] is g
            for _ in range(3):
                assert cert.P is P
            cert.min_eig_P, cert.max_eig_P
            assert len(build_P_calls) == 1

    def test_P_is_read_only_and_that_of_build_P(self):
        for g, cert in seeded_certificates(62):
            assert cert.gains is g
            assert cert.P.tobytes() == build_P(g).tobytes() and cert.P.shape == build_P(g).shape
            with pytest.raises(ValueError):
                cert.P[0, 0] = 1.0

    def test_q_is_minus_the_diagonal_of_PA_plus_AtP(self):
        # exact on ints: D*A has D on its superdiagonal and -c in its last row, so
        # D**2*P @ D*A + its transpose is D**3*(PA + A'P), which must be -D**3*diag(q)
        for g in seeded_vectors(63):
            c, D = g._ints
            N = len(c)
            _, p = scaled_P(g)
            DA = [[D if j == i + 1 else 0 for j in range(N)] for i in range(N - 1)]
            DA.append([-v for v in c])
            S = [[sum(p[i][m] * DA[m][j] for m in range(N)) for j in range(N)] for i in range(N)]
            q = _scaled_q(c, D)
            for i in range(N):
                for j in range(N):
                    assert S[i][j] + S[j][i] == (-D * q[i] if i == j else 0), g
            assert np.array_equal(q_diagonal(g), [float(Fraction(v, D * D)) for v in q])

    def test_overflowing_P_is_reported_ahead_of_condition_ii(self):
        # q and the margin are finite, min(q) > 0 = 2*kbar and A is Hurwitz, but P
        # overflows: the named ValueError, not a certificate
        g = GainVector("pid", np.array([2.92223139890357e+151, 9.06214050516075e+153,
                                        1.365010545868131e+154, 7.253913393709432e+153]))
        q = q_diagonal(g)
        assert np.all(np.isfinite(q)) and q.min() > 0.0 and is_hurwitz(g)
        with pytest.raises(ValueError, match=r"Lyapunov matrix of gains .* overflows float64"):
            build_P(g)
        with pytest.raises(ValueError, match=r"Lyapunov matrix of gains .* overflows float64"):
            verify_certificate(g, 0.0, 0.0)

    def test_finite_P_past_the_bound_is_certified(self):
        # k1 = 7e153 fails the O(N) bound 2*N*k1**2 < 2**1023, so P is built eagerly;
        # it is finite, and so are q = 2*k1**2 and the margin
        g = GainVector("pd", np.array([7e153]))
        cert = verify_certificate(g, 0.0, 0.0)
        assert np.array_equal(cert.P, [[7e153]]) and cert.Q[0] == 2.0 * 7e153 * 7e153


class TestRounded:
    """``_rounded`` divides Python ints, which round correctly and name an overflow."""

    def test_matches_fraction_and_the_object_array_division(self):
        rng = np.random.default_rng(53)
        for _ in range(2000):
            scale = (2 ** int(rng.integers(0, 1200))) * (1 if rng.random() < 0.5
                                                          else int(rng.integers(1, 2 ** 62)))
            ints = [int(rng.integers(-2 ** 62, 2 ** 62)) << int(rng.integers(0, 1200))
                    for _ in range(int(rng.integers(1, 10)))]
            fits = [abs(Fraction(x, scale)) < 2 ** 1023 for x in ints]
            if not all(fits):
                continue
            expected = [float(Fraction(x, scale)) for x in ints]
            got = _rounded(BENCH_GAINS, ints, scale)
            assert got == expected and all(type(v) is float for v in got)
            assert np.array(got).tobytes() == np.asarray(
                np.array(ints, dtype=object) / scale, dtype=float).tobytes()
            assert _rounded(BENCH_GAINS, ints[0], scale) == expected[0]

    def test_overflow_is_a_named_value_error(self):
        for ints in (2 ** 1024, [1, 2 ** 1030]):
            with pytest.raises(ValueError, match=r"Lyapunov matrix of gains .* overflows float64"):
                _rounded(BENCH_GAINS, ints, 1)

    @pytest.mark.parametrize("kind, gains, L", [
        ("pid", [1e200, 1e200, 1e200], 0.0),  # P: p[0][0] = 2*k0*k1
        ("pd", [1e200], 0.0),  # q = 2*k1^2, while P = (k1)
        ("pd", [1.0, 1.0], 6e307),  # the margin min(q) - 2*kbar, kbar = 1.2e308
    ])
    def test_certificate_overflow_names_the_gains(self, kind, gains, L):
        g = GainVector(kind, np.array(gains))
        with pytest.raises(ValueError, match=r"Lyapunov matrix of gains .* overflows float64"):
            verify_certificate(g, L, 0.0)
