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

    @pytest.mark.filterwarnings("error")
    def test_sigma_delta_sum_does_not_overflow(self):
        # The sum is 1e308 in exact arithmetic; numpy's order of additions
        # once overflowed in the first order only, and answered True there.
        for lam in ([-1e308, 0, 1e308, 1e308, 0, 0, 0, 0],
                    [-1e308, 1e308, 1e308, 0, 0, 0, 0, 0]):
            assert not in_sigma_delta(lam, 0.09375)
            assert in_sigma_delta(lam, 1.5)
        assert in_sigma_delta([1e308] * 8, 0.0)
        assert in_sigma_delta([], 0.5)
        # An overflowing sum leaves the entries themselves alone: tiny
        # positive entries still pass delta = 0, tiny negative ones fail it.
        assert in_sigma_delta([1e308, 1e308, 1e-300, 5e-324], 0.0)
        assert not in_sigma_delta([1e308, 1e308, -5e-324], 0.0)
        assert in_sigma_delta([1e308, 1e308, -5e-324], 1e-300)

    @pytest.mark.filterwarnings("error")
    def test_sigma_delta_keeps_finite_answers_over_wide_ranges(self):
        # Where numpy's sum is finite, the answer is the plain test's, also
        # for entries hundreds of decades apart, which scaling all of lam
        # by max|lam| would flush to zero.
        assert in_sigma_delta([1e300, 1e-250, 1e-250], 0.0)
        assert in_sigma_delta([1e300, 1e-250, 1e-250], 0.5)
        assert not in_sigma_delta([1e300, -1e-250, 1e-250], 0.0)
        rng = np.random.default_rng(5)
        for _ in range(4000):
            n = int(rng.integers(1, 9))
            if rng.random() < 0.5:      # integer rows: entries on the boundary
                lam = rng.integers(-2, 3, size=n) * [1.0, 2.0**-1000, 3e-300, 1e300][int(rng.integers(0, 4))]
            else:
                lam = rng.choice([-1.0, 0.0, 1.0, 1.0], size=n) * 10.0 ** rng.uniform(-320, 300, size=n)
            delta = [0.0, 0.125, 0.5, 1.0 / 6.0][int(rng.integers(0, 4))]
            total = lam.sum()
            assert np.isfinite(total)
            assert in_sigma_delta(lam, delta) == bool((lam > -delta * total).all())

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
        (lambda v: sigma_all(v, 1), 1.0, "eigenvalue input must be one-dimensional"),
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
class TestStackedSigma:
    """sigma_all and sigma of a stack (..., n) run the one-vector recurrence
    on columns: every vector's values equal the one-vector call bit for bit,
    inf and nan included."""

    def test_rows_bit_identical_to_one_vector(self):
        seen_nonfinite = 0
        for lams in random_blocks(30):
            n = lams.shape[1]
            for kmax in (0, n, n + 3):
                got = sigma_all(lams, kmax)
                assert got.shape == (len(lams), kmax + 1)
                for row, want in zip(got, (sigma_all(lam, kmax) for lam in lams)):
                    assert np.array_equal(row, want, equal_nan=True)
                seen_nonfinite += int((~np.isfinite(got)).any())
            for j in range(n + 1):
                got = sigma(lams, j)
                assert got.shape == (len(lams),)
                assert np.array_equal(got, [sigma(lam, j) for lam in lams], equal_nan=True)
        assert seen_nonfinite > 0

    def test_leading_axes(self):
        lams = np.random.default_rng(31).normal(size=(2, 3, 4, 5))
        flat = lams.reshape(-1, 5)
        assert same_bits(sigma_all(lams, 4), sigma_all(flat, 4).reshape(2, 3, 4, 5))
        assert same_bits(sigma(lams, 3), sigma(flat, 3).reshape(2, 3, 4))

    def test_zero_rows_and_zero_columns(self):
        assert sigma_all(np.zeros((0, 4)), 2).shape == (0, 3)
        assert sigma(np.zeros((0, 4)), 2).shape == (0,)
        assert np.array_equal(sigma_all(np.zeros((2, 0)), 2), [[1.0, 0.0, 0.0]] * 2)
        assert np.array_equal(sigma(np.zeros((2, 0)), 0), [1.0, 1.0])

    def test_list_input(self):
        assert np.array_equal(sigma_all([[1.0, 2.0, 3.0], [1.0, 1.0, 1.0]], 3),
                              [[1.0, 6.0, 11.0, 6.0], [1.0, 3.0, 3.0, 1.0]])

    @pytest.mark.parametrize("call, bad, message", [
        (lambda v: sigma_all(v, 1), np.array([[1.0, np.nan]]), "eigenvalue entries must be finite"),
        (lambda v: sigma_all(v, 1), np.array([[1.0, 2.0], [np.inf, 0.0]]),
         "eigenvalue entries must be finite"),
        (lambda v: sigma_all(v, -1), np.ones((2, 3)), "kmax must be nonnegative"),
        (lambda v: sigma(v, 1), np.array([[[np.nan]]]), "eigenvalue entries must be finite"),
        (lambda v: sigma(v, 4), np.ones((2, 3)), "sigma order j=4 out of range for 3 eigenvalues"),
        (lambda v: sigma(v, -1), np.ones((2, 3)), "sigma order j=-1 out of range"),
        (lambda v: sigma_all(v, 1), np.float64(2.0),
         "eigenvalue input must be one-dimensional or a stack of vectors"),
    ])
    def test_validation_errors(self, call, bad, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            call(bad)

    def test_finiteness_is_checked_before_the_order(self):
        with pytest.raises(ValueError, match="eigenvalue entries must be finite"):
            sigma(np.array([[np.nan, 1.0]]), 5)


class TestStackedConeTests:
    """in_gamma_k and in_sigma_delta of a stack (..., n): one bool per vector,
    each the one-vector answer, with k and delta broadcast against the
    leading axes."""

    def test_each_vector_is_its_own_test(self):
        rng = np.random.default_rng(32)
        for n in range(2, 8):
            lams = rng.integers(-2, 3, size=(3, 50, n)).astype(float)
            lams[0] = rng.normal(size=(50, n)) + rng.uniform(0, 1.5, size=(50, 1))
            for k in (1, n, rng.integers(1, n + 1, size=(3, 50)), rng.integers(1, n + 1, size=50)):
                got = in_gamma_k(lams, k)
                assert got.dtype == bool and got.shape == (3, 50)
                ks = np.broadcast_to(k, (3, 50))
                assert got.tolist() == [[in_gamma_k(lam, int(j)) for lam, j in zip(row, krow)]
                                        for row, krow in zip(lams, ks)]
            for delta in (0.25, np.array([0.0, 0.125, 1.0 / 6.0])[:, None]):
                got = in_sigma_delta(lams, delta)
                assert got.dtype == bool and got.shape == (3, 50)
                ds = np.broadcast_to(delta, (3, 50))
                assert got.tolist() == [[in_sigma_delta(lam, float(d)) for lam, d in zip(row, drow)]
                                        for row, drow in zip(lams, ds)]

    def test_one_vector_answers_a_bool(self):
        assert in_gamma_k(np.array([1.0, 2.0, 3.0]), 3) is True
        assert in_sigma_delta(np.array([1.0, -0.1, 3.0]), 0.1) is True

    @pytest.mark.parametrize("call, bad, message", [
        (lambda v: in_gamma_k(v, np.array([1, 4])), np.ones((2, 3)), "cone order k="),
        (lambda v: in_gamma_k(v, 0), np.ones((2, 3)), "cone order k=0 out of range for n=3"),
        (lambda v: in_gamma_k(v, 1), np.ones((2, 1)), "cone membership needs at least two"),
        (lambda v: in_gamma_k(v, 1), np.array([[1.0, np.inf]]), "eigenvalue entries must be finite"),
        (lambda v: in_sigma_delta(v, np.array([0.1, -0.1])), np.ones((2, 3)),
         "delta must be nonnegative"),
        (lambda v: in_sigma_delta(v, 0.1), np.array([[np.nan, 1.0]]),
         "eigenvalue entries must be finite"),
    ])
    def test_validation_errors(self, call, bad, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            call(bad)


def symmetric_stacks(seed):
    """(kind, stack) with stacks of shape (5, n, n) for n = 2..6: symmetric,
    diagonal and arrow matrices, at unit scale and scaled by 1e150 and
    1e-150, one of each also with two leading axes."""
    rng = np.random.default_rng(seed)
    for n in range(2, 7):
        for scale in (1.0, 1e150, 1e-150):
            A = rng.normal(size=(5, n, n))
            S = scale * 0.5 * (A + A.swapaxes(-1, -2))
            D = np.zeros((5, n, n))
            D[:, range(n), range(n)] = scale * rng.normal(size=(5, n))
            R = D.copy()
            R[:, :-1, -1] = R[:, -1, :-1] = scale * rng.normal(size=(5, n - 1))
            for kind, stack in (("symmetric", S), ("diagonal", D), ("arrow", R)):
                yield kind, stack
                yield kind, stack[:4].reshape(2, 2, n, n)


def same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


class TestStackedMatrices:
    """sym_eigenvalues, sigma_of_matrix and bordered_minor_identity_residual
    take a stack (..., n, n): each entry equals the call on its matrix bit for
    bit, and each matrix is validated against its own scale."""

    def test_each_entry_is_its_own_call(self):
        with np.errstate(over="ignore", invalid="ignore"):     # the 1e150 minors overflow
            for kind, stack in symmetric_stacks(50):
                n = stack.shape[-1]
                single = stack.reshape(-1, n, n)
                got = sym_eigenvalues(stack)
                assert got.shape == stack.shape[:-1]
                for S, lam in zip(single, got.reshape(-1, n)):
                    assert same_bits(lam, sym_eigenvalues(S))
                for k in range(n + 1):
                    got = sigma_of_matrix(stack, k)
                    assert got.shape == stack.shape[:-2]
                    want = [sigma_of_matrix(S, k) for S in single]
                    assert all(type(x) is float for x in want)
                    assert same_bits(got.ravel(), want)
                if kind == "symmetric":
                    continue
                for k in range(1, n + 1):
                    got = bordered_minor_identity_residual(stack, k)
                    assert got.shape == stack.shape[:-2]
                    want = [bordered_minor_identity_residual(S, k) for S in single]
                    assert same_bits(got.ravel(), np.array(want, dtype=float))

    def test_empty_stack(self):
        empty = np.zeros((0, 3, 3))
        assert sym_eigenvalues(empty).shape == (0, 3)
        assert sigma_of_matrix(empty, 2).shape == (0,)
        assert bordered_minor_identity_residual(empty, 2).shape == (0,)

    def test_one_matrix_keeps_its_types(self):
        S = np.diag([1.0, 2.0, 3.0])
        S[:-1, -1] = S[-1, :-1] = [0.5, 0.25]
        assert type(sigma_of_matrix(S, 2)) is float
        assert type(bordered_minor_identity_residual(S, 1)) is float
        assert type(bordered_minor_identity_residual(S, 2)) is np.float64

    def test_one_matrix_keeps_the_former_formula(self):
        # Before stacks, sigma_of_matrix(S, k) was sigma(sym_eigenvalues(S), k).
        with np.errstate(over="ignore", invalid="ignore"):
            for _, stack in symmetric_stacks(53):
                n = stack.shape[-1]
                for S in stack.reshape(-1, n, n):
                    lam = sym_eigenvalues(S)
                    for k in range(n + 1):
                        assert same_bits(sigma_of_matrix(S, k), sigma(lam, k))

    def test_border_squares_by_pow(self):
        # The former single-matrix formula squared each border entry as a
        # numpy float64, by pow; for these entries x * x differs in the last bit.
        rng = np.random.default_rng(52)
        x = rng.normal(size=100000)
        odd = [v for v in x.tolist() if v ** 2 != v * v][:30]
        assert len(odd) == 30
        for n, k in ((3, 2), (4, 3), (6, 2)):
            stack = np.zeros((10, n, n))
            stack[:, range(n), range(n)] = rng.normal(size=(10, n))
            stack[:, :-1, -1] = stack[:, -1, :-1] = np.resize(odd, (10, n - 1))
            for S, got in zip(stack, bordered_minor_identity_residual(stack, k)):
                d = np.diag(S).copy()
                rhs = sigma(d, k)
                for i in range(n - 1):
                    rhs -= sigma(np.delete(d, [i, n - 1]), k - 2) * S[i, n - 1] ** 2
                assert got == abs(sigma(np.linalg.eigvalsh(S), k) - rhs)

    @pytest.mark.parametrize("call, fault, message", [
        (sym_eigenvalues, "asymmetric", "matrix is not symmetric to tolerance"),
        (sym_eigenvalues, "nan", "matrix entries must be finite"),
        (lambda S: sigma_of_matrix(S, 2), "asymmetric", "matrix is not symmetric to tolerance"),
        (lambda S: bordered_minor_identity_residual(S, 2), "inf", "matrix entries must be finite"),
        (lambda S: bordered_minor_identity_residual(S, 2), "off-arrow",
         "matrix does not have arrow (diagonal plus last row/column) structure"),
        (lambda S: bordered_minor_identity_residual(S, 5), None, "order k=5 out of range for n=4"),
    ])
    def test_one_bad_matrix_raises_the_single_message(self, call, fault, message):
        # Matrix 0 is scaled by 1e6; matrix 2 has the fault at unit scale, where
        # a tolerance taken from the whole stack would accept the first two.
        rng = np.random.default_rng(51)
        stack = np.zeros((4, 4, 4))
        stack[:, range(4), range(4)] = rng.normal(size=(4, 4))
        stack[:, :-1, -1] = stack[:, -1, :-1] = rng.normal(size=(4, 3))
        stack[0] *= 1e6
        if fault is not None:
            call(stack)
            i, j, value = {"asymmetric": (0, 1, 1e-8), "off-arrow": (0, 1, 1e-11),
                           "nan": (1, 1, np.nan), "inf": (3, 0, np.inf)}[fault]
            stack[2, i, j] += value
            if fault == "off-arrow":
                stack[2, j, i] += value
            with pytest.raises(ValueError, match=re.escape(message)):
                call(stack[2])
        with pytest.raises(ValueError, match=re.escape(message)):
            call(stack)

    @pytest.mark.parametrize("bad, message", [
        (np.ones((3, 2, 3)), "expected a square matrix"),
        (np.zeros((2, 17, 17)), "matrices larger than 16x16 are unsupported"),
    ])
    def test_stack_shape_errors(self, bad, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            sym_eigenvalues(bad)
