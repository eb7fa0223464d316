"""Elementary symmetric polynomials, Garding cones, and principal-minor identities.

Conventions: sigma_j denotes the j-th elementary symmetric polynomial of an
eigenvalue vector, with sigma_0 = 1 (empty product).  The open cone Gamma_k
is the set where sigma_1, ..., sigma_k are all strictly positive.  Cone
tests compare against zero exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConeParams",
    "sigma",
    "sigma_all",
    "sigma_rows",
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


def _as_vector(lam) -> np.ndarray:
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != 1:
        raise ValueError("eigenvalue input must be one-dimensional")
    if not np.isfinite(lam).all():
        raise ValueError("eigenvalue entries must be finite")
    return lam


def _sigmas(xs: list, kmax: int) -> list:
    """[sigma_0, ..., sigma_kmax] of the Python floats xs (kmax >= 0).

    Uses e_j(x_1..x_m) = e_j(x_1..x_{m-1}) + x_m e_{j-1}(x_1..x_{m-1}),
    updating in place from the top index down.
    """
    e = [1.0] + [0.0] * kmax
    top = min(kmax, len(xs))
    for x in xs:
        for j in range(top, 0, -1):
            e[j] += x * e[j - 1]
    return e


def sigma_all(lam, kmax: int) -> np.ndarray:
    """Return [sigma_0, ..., sigma_kmax] by the stable one-pass recurrence."""
    lam = _as_vector(lam)
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    return np.array(_sigmas(lam.tolist(), kmax))


def sigma_rows(lams, kmax: int) -> np.ndarray:
    """Row-wise [sigma_0, ..., sigma_kmax] of an (m, n) array, shape (m, kmax+1).

    The columns go through the same recurrence as `sigma_all`, so each row is
    bit-identical to `sigma_all(row, kmax)`; overflow gives the same inf and
    nan without a warning.
    """
    lams = np.asarray(lams, dtype=float)
    if lams.ndim != 2:
        raise ValueError("eigenvalue rows must be a two-dimensional array")
    if not np.isfinite(lams).all():
        raise ValueError("eigenvalue entries must be finite")
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    out = np.empty((lams.shape[0], kmax + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for j, e in enumerate(_sigmas(list(lams.T), kmax)):
            out[:, j] = e
    return out


def sigma(lam, j: int) -> float:
    """j-th elementary symmetric polynomial of the entries of lam (sigma_0 = 1)."""
    lam = _as_vector(lam)
    if not 0 <= j <= len(lam):
        raise ValueError(f"sigma order j={j} out of range for {len(lam)} eigenvalues")
    return _sigmas(lam.tolist(), j)[j]


def sigma_gradient(lam, k: int) -> np.ndarray:
    """Gradient of sigma_k: component i equals sigma_{k-1} of lam with entry i removed."""
    lam = _as_vector(lam)
    n = len(lam)
    if not 1 <= k <= n:
        raise ValueError(f"gradient order k={k} out of range for n={n}")
    xs = lam.tolist()
    return np.array([_sigmas(xs[:i] + xs[i + 1:], k - 1)[k - 1] for i in range(n)])


def in_gamma_k(lam, k: int) -> bool:
    """Open-cone test: sigma_j(lam) > 0 for all 1 <= j <= k."""
    lam = _as_vector(lam)
    if len(lam) < 2:
        raise ValueError("cone membership needs at least two eigenvalues")
    if not 1 <= k <= len(lam):
        raise ValueError(f"cone order k={k} out of range for n={len(lam)}")
    return all(s > 0.0 for s in _sigmas(lam.tolist(), k)[1:])


def in_sigma_delta(lam, delta: float) -> bool:
    """Membership in the cone {lambda_i > -delta * sum_j lambda_j}."""
    lam = _as_vector(lam)
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    return bool((lam > -delta * lam.sum()).all())


def _require_symmetric(S) -> np.ndarray:
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError("expected a square matrix")
    if S.shape[0] > MAX_MATRIX_DIM:
        raise ValueError(f"matrices larger than {MAX_MATRIX_DIM}x{MAX_MATRIX_DIM} are unsupported")
    if not np.isfinite(S).all():
        raise ValueError("matrix entries must be finite")
    scale = max(1.0, float(np.abs(S).max()))
    if np.abs(S - S.T).max() > 1e-10 * scale:
        raise ValueError("matrix is not symmetric to tolerance")
    return 0.5 * (S + S.T)


def sym_eigenvalues(S) -> np.ndarray:
    """Eigenvalues of a small symmetric matrix, in ascending order.

    Computed by LAPACK `syevd` through `np.linalg.eigvalsh` after the
    symmetry, size and finiteness checks; diagonal input gives its sorted
    diagonal exactly.
    """
    return np.linalg.eigvalsh(_require_symmetric(S))


def sigma_of_matrix(S, k: int) -> float:
    """sigma_k of the eigenvalues of a symmetric matrix (sum of principal k-minors)."""
    return sigma(sym_eigenvalues(S), k)


def _is_arrow(S, tol: float) -> bool:
    n = S.shape[0]
    if n < 2:
        return True
    body = S[: n - 1, : n - 1]
    off = body - np.diag(np.diag(body))
    return np.abs(off).max() <= tol


def bordered_minor_identity_residual(S, k: int) -> float:
    """Residual of the arrow-matrix minor identity.

    For S diagonal except along the last row/column,

        sigma_k(eig(S)) = sigma_k(diag S)
                          - sum_{i<n} sigma_{k-2}(diag S without rows i, n) * S[i, n]^2.

    The left side is evaluated through the eigensolver, the right side through
    the diagonal data; their absolute difference is returned.
    """
    S = _require_symmetric(S)
    n = S.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"order k={k} out of range for n={n}")
    scale = max(1.0, float(np.abs(S).max()))
    if not _is_arrow(S, 1e-13 * scale):
        raise ValueError("matrix does not have arrow (diagonal plus last row/column) structure")
    lhs = sigma(np.linalg.eigvalsh(S), k)      # S is already validated
    d = np.diag(S).copy()
    rhs = sigma(d, k)
    if k >= 2:
        for i in range(n - 1):
            rest = np.delete(d, [i, n - 1])
            rhs -= sigma(rest, k - 2) * S[i, n - 1] ** 2
    return abs(lhs - rhs)
