import itertools
import math
import re

import numpy as np
import pytest

from khessian.symfunc import (
    ConeParams,
    bordered_minor_identity_residual,
    in_gamma_k,
    in_sigma_delta,
    sigma,
    sigma_all,
    sigma_gradient,
    sigma_of_matrix,
    sigma_rows,
    sym_eigenvalues,
)


def sigma_bruteforce(lam, j):
    """Subset-enumeration oracle for the elementary symmetric polynomials."""
    if j == 0:
        return 1.0
    return sum(math.prod(c) for c in itertools.combinations(lam, j))


def sigma_condition_scale(lam, j):
    """Natural error scale: the same sum over absolute values."""
    return max(1.0, sigma_bruteforce(np.abs(np.asarray(lam)), j))


def random_cone_sample(rng, n, k, max_tries=500):
    for _ in range(max_tries):
        lam = rng.normal(size=n) + rng.uniform(0.0, 1.5)
        if in_gamma_k(lam, k):
            return lam
    raise AssertionError("could not sample a cone point")


class TestSigma:
    def test_binomial_example(self):
        assert sigma([1.0, 1.0, 1.0, 1.0], 3) == pytest.approx(4.0, abs=0)

    def test_enumeration_example(self):
        assert sigma([1.0, 2.0, 3.0], 2) == pytest.approx(11.0, abs=0)

    def test_sigma_zero_is_one(self):
        rng = np.random.default_rng(0)
        assert sigma(rng.normal(size=5), 0) == 1.0

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            n = int(rng.integers(2, 9))
            lam = rng.normal(size=n) * rng.uniform(0.5, 3.0)
            j = int(rng.integers(0, n + 1))
            brute = sigma_bruteforce(lam, j)
            assert abs(sigma(lam, j) - brute) <= 1e-12 * sigma_condition_scale(lam, j)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            sigma([1.0, 2.0], 3)
        with pytest.raises(ValueError):
            sigma([1.0, 2.0], -1)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            sigma([1.0, np.inf], 1)


class TestSigmaGradient:
    def test_symmetric_example(self):
        assert np.allclose(sigma_gradient([1.0, 1.0, 1.0], 2), [2.0, 2.0, 2.0])

    def test_deletion_example(self):
        assert np.allclose(sigma_gradient([1.0, 2.0, 3.0], 2), [5.0, 4.0, 3.0])

    def test_k1_gives_ones(self):
        assert np.allclose(sigma_gradient([0.3, -1.7], 1), [1.0, 1.0])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        h = 1e-6
        for _ in range(50):
            n = int(rng.integers(2, 8))
            lam = rng.normal(size=n)
            k = int(rng.integers(1, n + 1))
            grad = sigma_gradient(lam, k)
            for i in range(n):
                lp, lm = lam.copy(), lam.copy()
                lp[i] += h
                lm[i] -= h
                fd = (sigma(lp, k) - sigma(lm, k)) / (2 * h)
                assert abs(grad[i] - fd) <= 1e-5 * max(1.0, abs(grad[i]))


class TestCones:
    def test_positive_orthant(self):
        assert in_gamma_k([1.0, 1.0, 1.0, 1.0], 4)

    def test_negative_sigma2(self):
        assert not in_gamma_k([-1.0, 1.0, 1.0], 2)

    def test_boundary_outside_open_cone(self):
        assert not in_gamma_k(np.zeros(4), 1)

    def test_cone_scaling(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(3, 7))
            k = int(rng.integers(1, n + 1))
            lam = random_cone_sample(rng, n, k)
            c = rng.uniform(0.01, 100.0)
            assert in_gamma_k(c * lam, k)

    def test_sigma_delta_trivial(self):
        assert in_sigma_delta(np.ones(5), 0.7)

    def test_sigma_delta_hand_oracle(self):
        # delta = 1/3 for (n, k) = (3, 2); direct evaluation of both sides
        delta = ConeParams(3, 2).delta_gv
        assert delta == pytest.approx(1.0 / 3.0)
        assert in_sigma_delta([-0.3, 1.0, 1.0], delta)      # -0.3 > -1.7/3
        assert not in_sigma_delta([-0.6, 1.0, 1.0], delta)  # -0.6 < -1.4/3

    def test_gamma_k_embeds_in_sigma_delta(self):
        rng = np.random.default_rng(4)
        count = 0
        while count < 10000:
            n = int(rng.integers(3, 7))
            k = int(rng.integers(2, n + 1))
            lam = rng.normal(size=n) + rng.uniform(0.0, 1.5)
            if not in_gamma_k(lam, k):
                continue
            count += 1
            assert in_sigma_delta(lam, ConeParams(n, k).delta_gv)


class TestConeParams:
    def test_derived_quantities(self):
        cone = ConeParams(3, 2)
        assert cone.theta == pytest.approx(0.5)
        assert cone.alpha == pytest.approx(0.5)
        assert cone.delta_gv == pytest.approx(1.0 / 3.0)
        assert ConeParams(4, 3).delta_gv == pytest.approx(1.0 / 8.0)

    def test_supercritical_validation(self):
        assert ConeParams(3, 2).supercritical
        with pytest.raises(ValueError):
            ConeParams(4, 2).require_supercritical()

    def test_invalid_orders(self):
        with pytest.raises(ValueError):
            ConeParams(3, 4)
        with pytest.raises(ValueError):
            ConeParams(2, 1)


class TestMatrixSigma:
    def test_identity_matrix(self):
        assert sigma_of_matrix(np.eye(4), 2) == pytest.approx(6.0)

    def test_radial_spectrum_formula(self):
        # diag(b, b, b, a): sigma_2 = C(3,2) b^2 + C(3,1) a b
        b, a = 0.7, -0.2
        S = np.diag([b, b, b, a])
        expected = 3 * b**2 + 3 * a * b
        assert sigma_of_matrix(S, 2) == pytest.approx(expected, rel=1e-14)

    def test_matches_minor_summation(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            S = rng.normal(size=(n, n))
            S = 0.5 * (S + S.T)
            k = int(rng.integers(1, n + 1))
            minors = sum(np.linalg.det(S[np.ix_(c, c)])
                         for c in itertools.combinations(range(n), k))
            assert sigma_of_matrix(S, k) == pytest.approx(minors, rel=1e-10, abs=1e-10)

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            S = rng.normal(size=(n, n))
            S = 0.5 * (S + S.T)
            Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            k = int(rng.integers(1, n + 1))
            s1 = sigma_of_matrix(S, k)
            s2 = sigma_of_matrix(Q @ S @ Q.T, k)
            assert abs(s1 - s2) <= 1e-10 * max(1.0, abs(s1))

    def test_rejects_asymmetric(self):
        S = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            sigma_of_matrix(S, 1)

    def test_jacobi_matches_reference_eigensolver(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(2, 10))
            S = rng.normal(size=(n, n))
            S = 0.5 * (S + S.T)
            assert np.allclose(sym_eigenvalues(S), np.linalg.eigvalsh(S),
                               atol=1e-12 * max(1.0, np.abs(S).max()))


class TestBorderedMinorIdentity:
    def test_diagonal_matrix_residual_zero(self):
        S = np.diag([1.0, -2.0, 0.5, 3.0])
        assert bordered_minor_identity_residual(S, 2) == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("n,k,tol", [(4, 2, 1e-12), (6, 4, 1e-10)])
    def test_random_arrow(self, n, k, tol):
        rng = np.random.default_rng(100 * n + k)
        for _ in range(50):
            S = np.diag(rng.normal(size=n))
            S[:-1, -1] = rng.normal(size=n - 1)
            S[-1, :-1] = S[:-1, -1]
            assert bordered_minor_identity_residual(S, k) <= tol

    def test_enumeration_oracle_both_sides(self):
        # verify the identity itself by evaluating both sides through minors
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(3, 7))
            d = rng.normal(size=n)
            c = rng.normal(size=n - 1)
            S = np.diag(d)
            S[:-1, -1] = c
            S[-1, :-1] = c
            k = int(rng.integers(2, n + 1))
            lhs = sum(np.linalg.det(S[np.ix_(cc, cc)])
                      for cc in itertools.combinations(range(n), k))
            rhs = sigma_bruteforce(d, k) - sum(
                sigma_bruteforce(np.delete(d, [i, n - 1]), k - 2) * c[i] ** 2
                for i in range(n - 1))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_rejects_non_arrow(self):
        S = np.ones((4, 4))
        with pytest.raises(ValueError):
            bordered_minor_identity_residual(S, 2)

    def test_deleted_minor_is_mixed_second_derivative(self):
        # sigma_{k-2} of the doubly-deleted diagonal equals the mixed second
        # derivative of sigma_k(matrix) in the (i,i) and (n,n) diagonal entries
        rng = np.random.default_rng(10)
        h = 1e-4
        for _ in range(10):
            n = int(rng.integers(3, 6))
            k = int(rng.integers(2, n + 1))
            S = np.diag(rng.normal(size=n))
            S[:-1, -1] = rng.normal(size=n - 1)
            S[-1, :-1] = S[:-1, -1]
            i = int(rng.integers(0, n - 1))
            minor = sigma_bruteforce(np.delete(np.diag(S), [i, n - 1]), k - 2)

            def sig(di, dn):
                T = S.copy()
                T[i, i] += di
                T[n - 1, n - 1] += dn
                return sigma_of_matrix(T, k)

            fd = (sig(h, h) - sig(h, -h) - sig(-h, h) + sig(-h, -h)) / (4 * h * h)
            assert fd == pytest.approx(minor, rel=1e-5, abs=1e-5)


def test_sigma_all_one_pass_consistency():
    rng = np.random.default_rng(9)
    lam = rng.normal(size=7)
    e = sigma_all(lam, 7)
    for j in range(8):
        assert e[j] == pytest.approx(sigma(lam, j), rel=1e-14, abs=1e-14)


def array_sigma_all(lam, kmax):
    """Reference recurrence (the package's former sigma_all): the same top-down
    update on a numpy array indexed element by element.  Overflow is silenced
    here; the package gives the same inf and nan without a warning."""
    lam = np.asarray(lam, dtype=float)
    e = np.zeros(kmax + 1)
    e[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for x in lam:
            top = min(kmax, len(lam))
            for j in range(top, 0, -1):
                e[j] += x * e[j - 1]
    return e


def jacobi_eigenvalues(S, sweeps=30):
    """Reference eigensolver (the package's former sym_eigenvalues): cyclic
    Jacobi rotations on the symmetrized matrix, ascending."""
    A = 0.5 * (np.asarray(S, dtype=float) + np.asarray(S, dtype=float).T)
    n = A.shape[0]
    if n == 1:
        return A.diagonal().copy()
    fro = max(np.sqrt((A * A).sum()), 1e-300)
    for _ in range(sweeps):
        off = np.sqrt(2.0 * (np.triu(A, 1) ** 2).sum())
        if off <= 1e-15 * fro:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= 1e-18 * fro:
                    continue
                tau = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                rp, rq = A[p, :].copy(), A[q, :].copy()
                A[p, :] = c * rp - s * rq
                A[q, :] = s * rp + c * rq
                cp, cq = A[:, p].copy(), A[:, q].copy()
                A[:, p] = c * cp - s * cq
                A[:, q] = s * cp + c * cq
                A[p, q] = A[q, p] = 0.0
    return np.sort(A.diagonal())


def random_vectors(seed, count=60):
    """Random eigenvalue vectors for n = 1..9: unit scale, whole vectors scaled
    by 1e200 or 1e-200, and entries spread over 1e-200..1e200."""
    rng = np.random.default_rng(seed)
    for n in range(1, 10):
        for i in range(count):
            lam = rng.normal(size=n)
            mode = i % 4
            if mode == 1:
                lam *= 1e200
            elif mode == 2:
                lam *= 1e-200
            elif mode == 3:
                lam *= 10.0 ** rng.uniform(-200.0, 200.0, size=n)
            yield lam


def boundary_vectors():
    """Vectors with some sigma_j exactly 0: the cone boundary."""
    yield np.zeros(4)
    yield np.array([1.0, 1.0, -0.5])          # sigma_2 = 0
    yield np.array([2.0, 0.0, 3.0, 1.0])      # sigma_4 = 0
    yield np.array([1.0, -1.0])               # sigma_1 = 0
    rng = np.random.default_rng(12)
    for _ in range(300):
        n = int(rng.integers(2, 7))
        yield rng.integers(-2, 3, size=n).astype(float)


@pytest.mark.filterwarnings("error")
class TestAgainstFormerKernels:
    """sigma_all, sigma and the cone tests equal the former numpy-array
    recurrence bit for bit; sym_eigenvalues agrees with the former Jacobi."""

    def test_sigma_all_bit_identical(self):
        for lam in random_vectors(20):
            n = len(lam)
            for kmax in (0, n, n + 3):
                assert np.array_equal(sigma_all(lam, kmax), array_sigma_all(lam, kmax),
                                      equal_nan=True)

    def test_sigma_bit_identical(self):
        for lam in random_vectors(21, count=20):
            for j in range(len(lam) + 1):
                got, want = sigma(lam, j), array_sigma_all(lam, j)[j]
                assert type(got) is float
                assert got == want or (math.isnan(got) and math.isnan(want))

    def test_sigma_gradient_bit_identical(self):
        for lam in random_vectors(22, count=20):
            n = len(lam)
            for k in range(1, n + 1):
                want = [array_sigma_all(np.delete(lam, i), k - 1)[k - 1] for i in range(n)]
                assert np.array_equal(sigma_gradient(lam, k), want, equal_nan=True)

    def test_cone_membership_unchanged(self):
        vectors = itertools.chain(boundary_vectors(),
                                  (v for v in random_vectors(23, count=12) if len(v) >= 2))
        seen_boundary = 0
        for lam in vectors:
            for k in range(1, len(lam) + 1):
                e = array_sigma_all(lam, k)[1:]
                seen_boundary += bool(np.any(e == 0.0))
                assert in_gamma_k(lam, k) is bool(np.all(e > 0.0))
        assert seen_boundary > 100

    def test_eigenvalues_match_jacobi(self):
        rng = np.random.default_rng(24)
        for n in range(1, 17):
            for scale in (1e-3, 1.0, 1e3):
                S = scale * rng.normal(size=(n, n))
                S = 0.5 * (S + S.T)
                got = sym_eigenvalues(S)
                assert got.shape == (n,)
                assert np.all(np.diff(got) >= 0.0)
                tol = 1e-12 * max(1.0, float(np.abs(S).max()))
                assert np.abs(got - jacobi_eigenvalues(S)).max() <= tol

    def test_diagonal_gives_sorted_diagonal(self):
        rng = np.random.default_rng(25)
        for n in range(1, 17):
            for _ in range(20):
                d = rng.normal(size=n) * 10.0 ** rng.uniform(-5.0, 5.0, size=n)
                d[rng.random(n) < 0.2] = 0.0
                want = np.sort(d)
                assert np.array_equal(jacobi_eigenvalues(np.diag(d)), want)
                assert np.array_equal(sym_eigenvalues(np.diag(d)), want)

    def test_arrow_matrices(self):
        # A diagonal entry whose border entry is 0 is an exact eigenvalue.  The
        # former Jacobi kept every such entry exactly; LAPACK keeps those ahead
        # of the coupled tail, and stays within the tolerance elsewhere.
        rng = np.random.default_rng(26)
        for n in range(2, 17):
            for _ in range(8):
                d = rng.normal(size=n)
                c = rng.normal(size=n - 1)
                S = np.diag(d)
                S[:-1, -1] = S[-1, :-1] = c
                tol = 1e-12 * max(1.0, float(np.abs(S).max()))
                assert np.abs(sym_eigenvalues(S) - jacobi_eigenvalues(S)).max() <= tol
                head = int(rng.integers(0, n))
                c[:head] = 0.0
                S[:-1, -1] = S[-1, :-1] = c
                got, want = sym_eigenvalues(S), jacobi_eigenvalues(S)
                assert np.abs(got - want).max() <= tol
                for x in d[:head]:
                    assert x in want and x in got

    @pytest.mark.parametrize("call, bad, message", [
        (lambda v: sigma_all(v, 1), np.ones((2, 2)), "eigenvalue input must be one-dimensional"),
        (lambda v: sigma(v, 1), [1.0, np.nan], "eigenvalue entries must be finite"),
        (lambda v: sigma_gradient(v, 1), [[1.0]], "eigenvalue input must be one-dimensional"),
        (lambda v: in_gamma_k(v, 1), [1.0, np.inf], "eigenvalue entries must be finite"),
        (lambda v: in_gamma_k(v, 1), 1.0, "eigenvalue input must be one-dimensional"),
        (lambda v: in_sigma_delta(v, 0.1), [-np.inf, 1.0], "eigenvalue entries must be finite"),
        (lambda v: sigma_all(v, -1), [1.0], "kmax must be nonnegative"),
        (lambda v: sigma(v, 3), [1.0, 2.0], "sigma order j=3 out of range for 2 eigenvalues"),
        (lambda v: in_gamma_k(v, 1), [1.0], "cone membership needs at least two eigenvalues"),
        (lambda v: in_gamma_k(v, 3), [1.0, 2.0], "cone order k=3 out of range for n=2"),
        (sym_eigenvalues, np.ones((2, 3)), "expected a square matrix"),
        (sym_eigenvalues, np.ones(3), "expected a square matrix"),
        (sym_eigenvalues, np.eye(17), "matrices larger than 16x16 are unsupported"),
        (sym_eigenvalues, np.diag([1.0, np.nan]), "matrix entries must be finite"),
        (sym_eigenvalues, np.array([[1.0, 2.0], [0.0, 1.0]]), "matrix is not symmetric"),
        (lambda S: sigma_of_matrix(S, 1), np.array([[1.0, 1e-9], [0.0, 1.0]]),
         "matrix is not symmetric"),
    ])
    def test_validation_errors_unchanged(self, call, bad, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            call(bad)


def random_blocks(seed, rows=40):
    """(rows, n) blocks for n = 1..9 in the four modes of `random_vectors`:
    unit scale, scaled by 1e200 or 1e-200, and entries spread over
    1e-200..1e200."""
    rng = np.random.default_rng(seed)
    for n in range(1, 10):
        for mode in range(4):
            lams = rng.normal(size=(rows, n))
            if mode == 1:
                lams *= 1e200
            elif mode == 2:
                lams *= 1e-200
            elif mode == 3:
                lams *= 10.0 ** rng.uniform(-200.0, 200.0, size=(rows, n))
            yield lams


@pytest.mark.filterwarnings("error")
class TestSigmaRows:
    """sigma_rows runs the sigma_all recurrence on columns: every row equals
    sigma_all of that row bit for bit, inf and nan included."""

    def test_rows_bit_identical_to_sigma_all(self):
        seen_nonfinite = 0
        for lams in random_blocks(30):
            n = lams.shape[1]
            for kmax in (0, n, n + 3):
                got = sigma_rows(lams, kmax)
                assert got.shape == (len(lams), kmax + 1)
                for row, want in zip(got, (sigma_all(lam, kmax) for lam in lams)):
                    assert np.array_equal(row, want, equal_nan=True)
                seen_nonfinite += int((~np.isfinite(got)).any())
        assert seen_nonfinite > 0

    def test_zero_rows_and_zero_columns(self):
        assert sigma_rows(np.zeros((0, 4)), 2).shape == (0, 3)
        assert np.array_equal(sigma_rows(np.zeros((2, 0)), 2), [[1.0, 0.0, 0.0]] * 2)

    def test_list_input(self):
        assert np.array_equal(sigma_rows([[1.0, 2.0, 3.0], [1.0, 1.0, 1.0]], 3),
                              [[1.0, 6.0, 11.0, 6.0], [1.0, 3.0, 3.0, 1.0]])

    @pytest.mark.parametrize("bad, kmax, message", [
        (np.ones(3), 1, "eigenvalue rows must be a two-dimensional array"),
        (np.ones((2, 2, 2)), 1, "eigenvalue rows must be a two-dimensional array"),
        (np.array([[1.0, np.nan]]), 1, "eigenvalue entries must be finite"),
        (np.array([[1.0, 2.0], [np.inf, 0.0]]), 1, "eigenvalue entries must be finite"),
        (np.ones((2, 3)), -1, "kmax must be nonnegative"),
    ])
    def test_validation_errors(self, bad, kmax, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            sigma_rows(bad, kmax)

    def test_sigma_all_still_rejects_rows(self):
        with pytest.raises(ValueError, match="eigenvalue input must be one-dimensional"):
            sigma_all(np.ones((2, 2)), 1)
