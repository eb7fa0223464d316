"""Conformal gauge algebra: pointwise jets of a conformal factor and the
curvature matrices they generate.

A conformal metric is written in four equivalent gauges,

    g = chi * g0 = v^{4/(n-2)} * g0 = u^{-2} * g0 = e^{-2w} * g0,

so that u = v^{-2/(n-2)} = e^w and chi = e^{-2w}.  All matrices are expressed
in a g0-orthonormal frame at the evaluation point, which turns every
eigenvalue problem below into an ordinary symmetric one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .symfunc import _scale, _square, sym_eigenvalues

__all__ = [
    "Gauge",
    "Background",
    "ConformalJet",
    "convert_gauge",
    "matrix_W",
    "matrix_U",
    "matrix_V",
    "schouten_eigenvalues",
    "kelvin_transform",
    "wgauge_rhs_exponent",
    "wgauge_rhs_amplitude",
    "jet_from_radial",
]


class Gauge(enum.Enum):
    CHI = "chi"
    V = "v"
    U = "u"
    W = "w"


# Gauges whose scalar value must be strictly positive.
_POSITIVE_GAUGES = (Gauge.CHI, Gauge.V, Gauge.U)


@dataclass(frozen=True)
class Background:
    """Pointwise background data: the Schouten tensor of g0."""

    n: int
    schouten: np.ndarray

    @classmethod
    def flat(cls, n: int) -> "Background":
        return cls(n, np.zeros((n, n)))

    @classmethod
    def round_sphere(cls, n: int) -> "Background":
        """Unit round sphere: Schouten = (1/2) g0."""
        return cls(n, 0.5 * np.eye(n))


@dataclass(frozen=True)
class ConformalJet:
    """Value, gradient and Hessian of a conformal factor in a declared gauge.

    A stack of jets on one background has value (...), grad (..., n) and
    hess (..., n, n); a single jet is the case with no leading axes.
    """

    gauge: Gauge
    value: float
    grad: np.ndarray
    hess: np.ndarray
    background: Background

    def __post_init__(self):
        g = np.asarray(self.grad, dtype=float)
        H = np.asarray(self.hess, dtype=float)
        n = g.shape[-1]
        if H.shape != g.shape + (n,):
            raise ValueError("hessian shape does not match gradient length")
        if np.shape(self.value) != g.shape[:-1]:
            raise ValueError("jet values do not match the leading axes of the gradient")
        if self.background.n != n:
            raise ValueError("background dimension does not match jet dimension")
        HT = H.swapaxes(-1, -2)
        if (np.abs(H - HT).max(axis=(-2, -1)) > 1e-10 * _scale(H)).any():
            raise ValueError("jet hessian must be symmetric")
        if self.gauge in _POSITIVE_GAUGES and not np.all(np.greater(self.value, 0.0)):
            raise ValueError(f"{self.gauge.value}-gauge value must be positive")
        if g.ndim > 1:
            object.__setattr__(self, "value", np.asarray(self.value, dtype=float))
        object.__setattr__(self, "grad", g)
        object.__setattr__(self, "hess", 0.5 * (H + HT))

    @property
    def n(self) -> int:
        return self.grad.shape[-1]


def _outer(g: np.ndarray) -> np.ndarray:
    """g x g of each gradient of a stack (..., n), as np.outer gives it."""
    return g[..., :, None] * g[..., None, :]


def _dot(g: np.ndarray) -> np.ndarray:
    """|g|^2 of each gradient of a stack (..., n), by the dot product that
    g @ g takes for one vector."""
    return np.matmul(g[..., None, :], g[..., :, None])[..., 0, 0]


def _scalars(x, axes: int) -> np.ndarray:
    """Values of shape (...) as an array of shape (..., 1, ...) with `axes`
    trailing axes of length 1, to scale vectors (1) or matrices (2)."""
    return np.asarray(x)[(...,) + (None,) * axes]


def _log_jet(value, grad, hess, factor: float):
    """Jet of factor*log(value) given the jet of value (value > 0)."""
    w = factor * np.log(value)
    gw = _scalars(factor / np.asarray(value), 1) * grad
    Hw = factor * (hess / _scalars(value, 2) - _outer(grad) / _scalars(_square(value), 2))
    return w, gw, Hw


def _exp_jet(w, gw, Hw, factor: float):
    """Jet of exp(factor*w) given the jet of w."""
    val = np.exp(factor * w)
    g = _scalars(factor * val, 1) * gw
    H = _scalars(val, 2) * (factor * Hw + factor**2 * _outer(gw))
    return val, g, H


def _to_w(jet: ConformalJet):
    if jet.gauge is Gauge.W:
        return jet.value, jet.grad, jet.hess
    if jet.gauge is Gauge.U:
        return _log_jet(jet.value, jet.grad, jet.hess, 1.0)
    if jet.gauge is Gauge.V:
        return _log_jet(jet.value, jet.grad, jet.hess, -2.0 / (jet.n - 2))
    if jet.gauge is Gauge.CHI:
        return _log_jet(jet.value, jet.grad, jet.hess, -0.5)
    raise ValueError(f"unknown gauge {jet.gauge}")


def _from_w(w, gw, Hw, target: Gauge, n: int):
    if target is Gauge.W:
        return w, np.array(gw, dtype=float), np.array(Hw, dtype=float)
    if target is Gauge.U:
        return _exp_jet(w, gw, Hw, 1.0)
    if target is Gauge.V:
        return _exp_jet(w, gw, Hw, -(n - 2) / 2.0)
    if target is Gauge.CHI:
        return _exp_jet(w, gw, Hw, -2.0)
    raise ValueError(f"unknown gauge {target}")


def convert_gauge(jet: ConformalJet, target: Gauge) -> ConformalJet:
    """Convert a jet, or a stack of jets, between gauges by the exact chain rule."""
    if target is jet.gauge:
        return jet
    w, gw, Hw = _to_w(jet)
    val, g, H = _from_w(w, gw, Hw, target, jet.n)
    val = float(val) if np.ndim(val) == 0 else np.asarray(val, dtype=float)
    return ConformalJet(target, val, g, H, jet.background)


def matrix_W(jet: ConformalJet) -> np.ndarray:
    """W = hess(w) + grad(w) x grad(w) - (1/2)|grad w|^2 I + A_{g0} (w-gauge jet)."""
    if jet.gauge is not Gauge.W:
        raise ValueError("matrix_W expects a w-gauge jet")
    g, H = jet.grad, jet.hess
    return (H + _outer(g) - _scalars(0.5 * _dot(g), 2) * np.eye(jet.n)
            + jet.background.schouten)


def matrix_U(jet: ConformalJet) -> np.ndarray:
    """U = hess(u) - |grad u|^2/(2u) I + u A_{g0} (u-gauge jet, u > 0)."""
    if jet.gauge is not Gauge.U:
        raise ValueError("matrix_U expects a u-gauge jet")
    u, g, H = _scalars(jet.value, 2), jet.grad, jet.hess
    if not np.all(u > 0.0):
        raise ValueError("u must be positive")
    return H - _scalars(_dot(g), 2) / (2.0 * u) * np.eye(jet.n) + u * jet.background.schouten


def matrix_V(jet: ConformalJet) -> np.ndarray:
    """V-matrix of a v-gauge jet (v > 0).

    V = -hess(v) + n/(n-2) grad v x grad v / v - |grad v|^2/((n-2) v) I
        + (n-2)/2 v A_{g0};  satisfies V = ((n-2)/2) v W for the same metric.
    """
    if jet.gauge is not Gauge.V:
        raise ValueError("matrix_V expects a v-gauge jet")
    v, g, H = _scalars(jet.value, 2), jet.grad, jet.hess
    n = jet.n
    if not np.all(v > 0.0):
        raise ValueError("v must be positive")
    return (
        -H
        + (n / (n - 2)) * _outer(g) / v
        - _scalars(_dot(g), 2) / ((n - 2) * v) * np.eye(n)
        + 0.5 * (n - 2) * v * jet.background.schouten
    )


def schouten_eigenvalues(jet: ConformalJet) -> np.ndarray:
    """Eigenvalues of the Schouten tensor of g = e^{-2w} g0 measured against g.

    Equals e^{2w} times the eigenvalues of W in a g0-orthonormal frame.
    """
    jw = convert_gauge(jet, Gauge.W)
    lam = sym_eigenvalues(matrix_W(jw))
    return _scalars(np.exp(2.0 * np.asarray(jw.value)), 1) * lam


def kelvin_transform(r, v, n: int):
    """Kelvin transform of a radial v-gauge sample: v(r) -> s^{2-n} v(1/s).

    Returns the transformed grid (increasing) and values.  Applying the
    transform twice reproduces the input field.
    """
    r = np.asarray(r, dtype=float)
    v = np.asarray(v, dtype=float)
    if r.ndim != 1 or r.shape != v.shape:
        raise ValueError("radial grid and values must be matching 1-d arrays")
    if r[0] <= 0.0 or np.any(np.diff(r) <= 0.0):
        raise ValueError("radial grid must be positive and strictly increasing")
    s = 1.0 / r[::-1]
    vs = s ** (2.0 - n) * v[::-1]
    return s, vs


def wgauge_rhs_exponent(n: int, k: int, p: float) -> float:
    """Exponent a = (1/2)(n-2)(k-p) carrying f v^p into f~ e^{a w}."""
    return 0.5 * (n - 2) * (k - p)


def wgauge_rhs_amplitude(f, n: int, k: int):
    """Amplitude conversion f -> f (2/(n-2))^k between the v- and w-gauge equations."""
    return f * (2.0 / (n - 2)) ** k


def jet_from_radial(gauge: Gauge, r: float, value: float, d1: float, d2: float,
                    background: Background) -> ConformalJet:
    """Jet of a radial function at radius r > 0, radial direction last.

    The gradient is (0, ..., 0, d1) and the Hessian diag(d1/r, ..., d1/r, d2)
    in an orthonormal frame adapted to the sphere through the point.
    """
    if r <= 0.0:
        raise ValueError("radial jets require r > 0")
    n = background.n
    grad = np.zeros(n)
    grad[-1] = d1
    hess = np.diag(np.r_[np.full(n - 1, d1 / r), d2])
    return ConformalJet(gauge, value, grad, hess, background)
