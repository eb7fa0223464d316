"""Elementary symmetric polynomials, Garding cones, and principal-minor identities.

Conventions: sigma_j denotes the j-th elementary symmetric polynomial of an
eigenvalue vector, with sigma_0 = 1 (empty product).  The open cone Gamma_k
is the set where sigma_1, ..., sigma_k are all strictly positive.  Cone
tests compare against zero exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConeParams",
    "sigma",
    "sigma_all",
    "sigma_gradient",
    "in_gamma_k",
    "in_sigma_delta",
    "sym_eigenvalues",
    "sigma_of_matrix",
    "bordered_minor_identity_residual",
]

# The artifact never needs eigendecompositions beyond this size.
MAX_MATRIX_DIM = 16


@dataclass(frozen=True)
class ConeParams:
    """Dimension/order pair (n, k) together with the derived cone exponents."""

    n: int
    k: int

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"dimension n must be >= 3, got {self.n}")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"order k must satisfy 1 <= k <= n, got k={self.k}, n={self.n}")

    @property
    def theta(self) -> float:
        return (self.n - self.k) / self.k

    @property
    def alpha(self) -> float:
        """Sharp Holder exponent 2 - n/k of admissible factors (supercritical range)."""
        return 2.0 - self.n / self.k

    @property
    def delta_gv(self) -> float:
        """Cone-embedding constant (n-k)/(n(k-1)); requires k >= 2."""
        if self.k < 2:
            raise ValueError("delta_gv is defined only for k >= 2")
        return (self.n - self.k) / (self.n * (self.k - 1))

    @property
    def supercritical(self) -> bool:
        return 2 * self.k > self.n

    def require_supercritical(self):
        if not self.supercritical:
            raise ValueError(
                f"(n, k) = ({self.n}, {self.k}) is not supercritical; need k > n/2"
            )
        return self


def _as_vector(lam, stack: bool = False) -> np.ndarray:
    """lam as floats, once it is one vector (n,) or, with stack, also a stack
    (..., n), and every entry is finite."""
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != 1 and not (stack and lam.ndim > 1):
        raise ValueError("eigenvalue input must be one-dimensional"
                         + (" or a stack of vectors" if stack else ""))
    if not np.isfinite(lam).all():
        raise ValueError("eigenvalue entries must be finite")
    return lam


def _sigmas(xs: list, kmax: int) -> list:
    """[sigma_0, ..., sigma_kmax] of the Python floats xs, or entry by entry
    of the arrays xs (kmax >= 0).

    Uses e_j(x_1..x_m) = e_j(x_1..x_{m-1}) + x_m e_{j-1}(x_1..x_{m-1}),
    updating in place from the top index down.
    """
    e = [1.0] + [0.0] * kmax
    top = min(kmax, len(xs))
    for x in xs:
        for j in range(top, 0, -1):
            e[j] += x * e[j - 1]
    return e


def _sigma_stack(lams: np.ndarray, kmax: int) -> np.ndarray:
    """[sigma_0, ..., sigma_kmax] of each vector of the checked stack lams
    (..., n), shape (..., kmax+1).

    The columns go through the same recurrence as one vector does, so each
    vector's entries are bit-identical to `sigma_all` of it alone; overflow
    gives the same inf and nan without a warning.
    """
    # One 2-D block: its columns are 1-D, which numpy's loops take fastest.
    rows = lams.reshape(math.prod(lams.shape[:-1]), lams.shape[-1])
    out = np.empty((len(rows), kmax + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for j, e in enumerate(_sigmas(list(rows.T), kmax)):
            out[:, j] = e
    return out.reshape(lams.shape[:-1] + (kmax + 1,))


def sigma_all(lam, kmax: int) -> np.ndarray:
    """Return [sigma_0, ..., sigma_kmax] by the stable one-pass recurrence; of
    a stack (..., n), those of each vector, shape (..., kmax+1)."""
    lam = _as_vector(lam, stack=True)
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    if lam.ndim > 1:
        return _sigma_stack(lam, kmax)
    return np.array(_sigmas(lam.tolist(), kmax))


def sigma(lam, j: int):
    """j-th elementary symmetric polynomial of the entries of lam (sigma_0 = 1):
    a float; of a stack (..., n), an array of shape (...), each entry bit for
    bit the float of its vector."""
    lam = _as_vector(lam, stack=True)
    n = lam.shape[-1]
    if not 0 <= j <= n:
        raise ValueError(f"sigma order j={j} out of range for {n} eigenvalues")
    if lam.ndim > 1:
        return _sigma_stack(lam, j)[..., j]
    return _sigmas(lam.tolist(), j)[j]


def sigma_gradient(lam, k: int) -> np.ndarray:
    """Gradient of sigma_k: component i equals sigma_{k-1} of lam with entry i removed."""
    lam = _as_vector(lam)
    n = len(lam)
    if not 1 <= k <= n:
        raise ValueError(f"gradient order k={k} out of range for n={n}")
    xs = lam.tolist()
    return np.array([_sigmas(xs[:i] + xs[i + 1:], k - 1)[k - 1] for i in range(n)])


def in_gamma_k(lam, k):
    """Open-cone test: sigma_j(lam) > 0 for all 1 <= j <= k.

    Of a stack (..., n), one bool per vector, with k an order or an array of
    orders broadcasting against the leading axes (...).
    """
    lam = _as_vector(lam, stack=True)
    n = lam.shape[-1]
    if n < 2:
        raise ValueError("cone membership needs at least two eigenvalues")
    if lam.ndim == 1:
        if not 1 <= k <= n:
            raise ValueError(f"cone order k={k} out of range for n={n}")
        return all(s > 0.0 for s in _sigmas(lam.tolist(), k)[1:])
    k = np.asarray(k)
    if not ((1 <= k) & (k <= n)).all():
        raise ValueError(f"cone order k={k} out of range for n={n}")
    e = _sigma_stack(lam, n)[..., 1:]
    return ((e > 0.0) | (np.arange(1, n + 1) > k[..., None])).all(axis=-1)


def _delta_floor(lam: np.ndarray, delta) -> np.ndarray:
    """-delta * (sum of lam over the last axis, kept): the bound that every
    entry of a point of Sigma_delta exceeds.  Where numpy's sum overflows,
    the sum is taken of lam * 2^-c instead, with 2^c > 2n so that it cannot,
    and the bound is scaled back by 2^c; elsewhere it is the plain
    -delta * lam.sum(), so the answer of the test is unchanged there."""
    with np.errstate(over="ignore"):
        total = lam.sum(axis=-1, keepdims=True)
        over = ~np.isfinite(total)
        if not over.any():
            return -delta * total
        c = (2 * lam.shape[-1]).bit_length()
        rescaled = np.ldexp(-delta * np.ldexp(lam, -c).sum(axis=-1, keepdims=True), c)
        return np.where(over, rescaled, -delta * np.where(over, 0.0, total))


def in_sigma_delta(lam, delta):
    """Membership in the cone {lambda_i > -delta * sum_j lambda_j}.

    The bound comes from _delta_floor: numpy's sum where it is finite, and
    otherwise a sum of the scaled eigenvalues that cannot overflow.  Of a
    stack (..., n), one bool per vector, with delta a number or an array
    broadcasting against the leading axes (...).
    """
    lam = _as_vector(lam, stack=True)
    if lam.ndim == 1:
        if delta < 0:
            raise ValueError("delta must be nonnegative")
        return bool((lam > _delta_floor(lam, delta)).all())
    delta = np.asarray(delta, dtype=float)[..., None]
    if (delta < 0).any():
        raise ValueError("delta must be nonnegative")
    return (lam > _delta_floor(lam, delta)).all(axis=-1)


def _scale(S: np.ndarray) -> np.ndarray:
    """max(1, max |S_ij|) of each matrix of a stack (..., n, n)."""
    return np.maximum(1.0, np.abs(S).max(axis=(-2, -1)))


def _require_symmetric(S) -> np.ndarray:
    """S symmetrised, after the size, finiteness and symmetry checks; S is one
    matrix or a stack (..., n, n), and each matrix is checked against its
    own scale."""
    S = np.asarray(S, dtype=float)
    if S.ndim < 2 or S.shape[-1] != S.shape[-2]:
        raise ValueError("expected a square matrix")
    if S.shape[-1] > MAX_MATRIX_DIM:
        raise ValueError(f"matrices larger than {MAX_MATRIX_DIM}x{MAX_MATRIX_DIM} are unsupported")
    if not np.isfinite(S).all():
        raise ValueError("matrix entries must be finite")
    ST = S.swapaxes(-1, -2)
    if (np.abs(S - ST).max(axis=(-2, -1)) > 1e-10 * _scale(S)).any():
        raise ValueError("matrix is not symmetric to tolerance")
    return 0.5 * (S + ST)


def sym_eigenvalues(S) -> np.ndarray:
    """Eigenvalues of a small symmetric matrix, in ascending order; of a stack
    (..., n, n), those of each matrix, shape (..., n).

    Computed by LAPACK `syevd` through `np.linalg.eigvalsh` after the
    symmetry, size and finiteness checks; diagonal input gives its sorted
    diagonal exactly.
    """
    return np.linalg.eigvalsh(_require_symmetric(S))


def sigma_of_matrix(S, k: int):
    """sigma_k of the eigenvalues of a symmetric matrix (sum of principal
    k-minors); of a stack (..., n, n), an array of shape (...)."""
    return sigma(sym_eigenvalues(S), k)


def _is_arrow(S: np.ndarray, tol) -> np.ndarray:
    """Whether each matrix of the stack S is diagonal but for its last row
    and column, to its tolerance in tol."""
    n = S.shape[-1]
    if n < 2:
        return np.ones(S.shape[:-2], dtype=bool)
    off = np.where(np.eye(n - 1, dtype=bool), 0.0, S[..., : n - 1, : n - 1])
    return np.abs(off).max(axis=(-2, -1)) <= tol


def _square(x) -> np.ndarray:
    """x ** 2 of each entry as a float or a numpy float64 squares it, by the C
    library's pow; numpy's array square, x * x, differs from that in the
    last bit for about one value in a thousand."""
    x = np.asarray(x, dtype=float)
    return np.array([v ** 2 for v in x.ravel().tolist()]).reshape(x.shape)


def bordered_minor_identity_residual(S, k: int):
    """Residual of the arrow-matrix minor identity.

    For S diagonal except along the last row/column,

        sigma_k(eig(S)) = sigma_k(diag S)
                          - sum_{i<n} sigma_{k-2}(diag S without rows i, n) * S[i, n]^2.

    The left side is evaluated through the eigensolver, the right side through
    the diagonal data; their absolute difference is returned.  For a stack
    (..., n, n) of arrow matrices the residuals have shape (...).
    """
    S = _require_symmetric(S)
    n = S.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"order k={k} out of range for n={n}")
    if not _is_arrow(S, 1e-13 * _scale(S)).all():
        raise ValueError("matrix does not have arrow (diagonal plus last row/column) structure")
    lhs = sigma(np.linalg.eigvalsh(S), k)      # S is already validated
    d = np.diagonal(S, axis1=-2, axis2=-1)
    rhs = sigma(d, k)
    if k >= 2:
        # Row i of others: 0, ..., n-2 without i; so column i of terms
        # holds sigma_{k-2} of the diagonal without entries i and n.
        others = np.arange(n - 2) + (np.arange(n - 2) >= np.arange(n - 1)[:, None])
        terms = sigma(d[..., others], k - 2) * _square(S[..., : n - 1, n - 1])
        for i in range(n - 1):
            rhs -= terms[..., i]
    return abs(lhs - rhs)
