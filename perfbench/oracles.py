"""Reference computations the benchmark checks khessian's outputs against.

Each one is written from the mathematics, not from the package code: the
radial reduction sigma_k = C(n-1,k) b^k + C(n-1,k-1) a b^(k-1) on central
differences, closed forms on the round sphere, a scalar root-find for the
sphere fold, an all-pairs Harnack maximum built on scipy.spatial.distance,
the mollifier's lattice weights, and the exact envelope of a radially
increasing field.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import brentq
from scipy.spatial.distance import cdist


def radial_sigma_k(a, b, n: int, k: int):
    """sigma_k of the spectrum (b, ..., b, a) with b of multiplicity n-1."""
    return math.comb(n - 1, k) * b**k + math.comb(n - 1, k - 1) * a * b ** (k - 1)


def _ab(d1, d2, r):
    return d2 + 0.5 * d1**2, d1 / r - 0.5 * d1**2


def wgauge_power(n: int, k: int) -> float:
    """(2/(n-2))^k: sigma_k(V) = f v^p becomes sigma_k(W) = (2/(n-2))^k f v^(p-k)."""
    return (2.0 / (n - 2)) ** k


def annulus_fold_residual(w, t, r0, r1, w0, w1, n, k, p, f=1.0, delta=1.0):
    """Residual of sigma_k(V) = t (delta + f v^p), v = e^(-(n-2) w / 2), on the
    uniform annulus grid with Dirichlet rows at both ends."""
    w = np.asarray(w, dtype=float)
    r = np.linspace(r0, r1, len(w))
    h = r[1] - r[0]
    d1 = (w[2:] - w[:-2]) / (2.0 * h)
    d2 = (w[2:] - 2.0 * w[1:-1] + w[:-2]) / h**2
    a, b = _ab(d1, d2, r[1:-1])
    v = np.exp(-0.5 * (n - 2) * w[1:-1])
    rhs = wgauge_power(n, k) * v ** (-k) * t * (delta + f * v**p)
    return np.r_[w[0] - w0, radial_sigma_k(a, b, n, k) - rhs, w[-1] - w1]


def ball_grid(r1: float, N: int):
    """Staggered ball grid: r_i = (i + 1/2) h with h = r1 / (N - 1/2)."""
    h = r1 / (N - 0.5)
    return (np.arange(N) + 0.5) * h


def ball_residual(w, r1, w1, n, k, p, f_table):
    """Residual of sigma_k(V) = f v^p on the staggered ball grid.

    The ghost value at r = -h/2 mirrors the first node (w'(0) = 0); f is the
    piecewise-linear interpolant of the tabulated [r, f] pairs.
    """
    w = np.asarray(w, dtype=float)
    r = ball_grid(r1, len(w))
    h = r[1] - r[0]
    left = np.r_[w[0], w[:-2]]
    d1 = (w[1:] - left) / (2.0 * h)
    d2 = (w[1:] - 2.0 * w[:-1] + left) / h**2
    a, b = _ab(d1, d2, r[:-1])
    table = np.asarray(f_table, dtype=float)
    f = np.interp(r[:-1], table[:, 0], table[:, 1])
    v = np.exp(-0.5 * (n - 2) * w[:-1])
    rhs = wgauge_power(n, k) * f * v ** (p - k)
    return np.r_[radial_sigma_k(a, b, n, k) - rhs, w[-1] - w1]


def fd_jacobian(fun, x, eps=1e-7):
    """Central finite-difference Jacobian of fun at x."""
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(len(x)):
        e = np.zeros_like(x)
        e[j] = eps
        cols.append((fun(x + e) - fun(x - e)) / (2.0 * eps))
    return np.stack(cols, axis=1)


def sphere_sigma(n: int, k: int) -> float:
    """sigma_k(V) / v^k for a constant factor on the round sphere: C(n,k) ((n-2)/4)^k."""
    return math.comb(n, k) * ((n - 2) / 4.0) ** k


def sphere_eigenvalue(n: int, k: int, f: float) -> float:
    """theta with sigma_k(V) = theta f v^k for every constant v."""
    return sphere_sigma(n, k) / f


def sphere_fold(n: int, k: int, p: float, f: float, delta: float = 1.0) -> float:
    """Largest t = A v^k / (delta + f v^p) over v > 0, found by a root-find on
    the derivative of its logarithm."""
    A = sphere_sigma(n, k)
    dlog = lambda v: k / v - p * f * v ** (p - 1) / (delta + f * v**p)
    lo, hi = 1e-6, 1.0
    while dlog(hi) > 0.0:
        hi *= 2.0
    v = brentq(dlog, lo, hi, xtol=1e-15, rtol=8.9e-16)
    return A * v**k / (delta + f * v**p)


def harnack_max(points, log_chi, alphas, spacing=1.0, min_sep=0.0, rows=256):
    """All-pairs max of |log chi(x) - log chi(y)| / (spacing |x - y|)^alpha over
    pairs with |x - y| > min_sep, one value per alpha.

    points are in units of spacing (lattice indices for grid fields), so the
    separation test is exact on integer lattices.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    log_chi = np.asarray(log_chi, dtype=float)
    best = [-np.inf] * len(alphas)
    for start in range(0, len(pts), rows):
        d = cdist(pts[start:start + rows], pts)
        num = np.abs(log_chi[start:start + rows, None] - log_chi[None, :])
        keep = d > min_sep
        dist = spacing * d[keep]
        num = num[keep]
        for i, alpha in enumerate(alphas):
            best[i] = max(best[i], float((num / dist**alpha).max()))
    return best


def mollifier_second_moment(dims: int, spacing: float, eps: float) -> float:
    """Per-axis second moment sum w(x) x_1^2 of the lattice bump (1 - |x/eps|^2)^4,
    normalized to unit mass."""
    m = int(eps / spacing + 1e-9)
    total = moment = 0.0
    for off in itertools.product(range(-m, m + 1), repeat=dims):
        s2 = sum(o * o for o in off) * (spacing / eps) ** 2
        if s2 <= 1.0:
            wgt = (1.0 - s2) ** 4
            total += wgt
            moment += wgt * (off[0] * spacing) ** 2
    return moment / total


def elementary_symmetric(lam):
    """sigma_0..sigma_n from the coefficients of prod (x - lambda_i)."""
    c = np.poly(np.asarray(lam, dtype=float))
    return np.array([(-1) ** j * c[j] for j in range(len(c))])


def sphere_volume_ratio(s, n: int = 3) -> np.ndarray:
    """Vol(B_s) / s^3 for geodesic balls of the unit 3-sphere."""
    if n != 3:
        raise ValueError("closed form written for n = 3")
    s = np.asarray(s, dtype=float)
    return 2.0 * math.pi * (s - np.sin(s) * np.cos(s)) / s**3


def fundamental_end_ratio(s, n: int = 3) -> np.ndarray:
    """Vol / s^n inward from the unit sphere for the metric |x|^-4 g_e.

    Geodesic distance s = 1/rho - 1 and volume omega_n (rho^-n - 1) / n.
    """
    s = np.asarray(s, dtype=float)
    omega = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    return omega * ((s + 1.0) ** n - 1.0) / (n * s**n)
