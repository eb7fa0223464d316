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

from .symfunc import sym_eigenvalues

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
    """Value, gradient and Hessian of a conformal factor in a declared gauge."""

    gauge: Gauge
    value: float
    grad: np.ndarray
    hess: np.ndarray
    background: Background

    def __post_init__(self):
        g = np.asarray(self.grad, dtype=float)
        H = np.asarray(self.hess, dtype=float)
        n = g.shape[0]
        if H.shape != (n, n):
            raise ValueError("hessian shape does not match gradient length")
        if self.background.n != n:
            raise ValueError("background dimension does not match jet dimension")
        scale = max(1.0, float(np.abs(H).max()))
        if np.abs(H - H.T).max() > 1e-10 * scale:
            raise ValueError("jet hessian must be symmetric")
        if self.gauge in _POSITIVE_GAUGES and not self.value > 0.0:
            raise ValueError(f"{self.gauge.value}-gauge value must be positive")
        object.__setattr__(self, "grad", g)
        object.__setattr__(self, "hess", 0.5 * (H + H.T))

    @property
    def n(self) -> int:
        return self.grad.shape[0]


def _log_jet(value: float, grad, hess, factor: float):
    """Jet of factor*log(value) given the jet of value (value > 0)."""
    w = factor * np.log(value)
    gw = (factor / value) * grad
    Hw = factor * (hess / value - np.outer(grad, grad) / value**2)
    return w, gw, Hw


def _exp_jet(w: float, gw, Hw, factor: float):
    """Jet of exp(factor*w) given the jet of w."""
    val = np.exp(factor * w)
    g = factor * val * gw
    H = val * (factor * Hw + factor**2 * np.outer(gw, gw))
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
        return float(w), np.array(gw, dtype=float), np.array(Hw, dtype=float)
    if target is Gauge.U:
        return _exp_jet(w, gw, Hw, 1.0)
    if target is Gauge.V:
        return _exp_jet(w, gw, Hw, -(n - 2) / 2.0)
    if target is Gauge.CHI:
        return _exp_jet(w, gw, Hw, -2.0)
    raise ValueError(f"unknown gauge {target}")


def convert_gauge(jet: ConformalJet, target: Gauge) -> ConformalJet:
    """Convert a jet between gauges by the exact chain rule."""
    if target is jet.gauge:
        return jet
    w, gw, Hw = _to_w(jet)
    val, g, H = _from_w(w, gw, Hw, target, jet.n)
    return ConformalJet(target, float(val), g, H, jet.background)


def matrix_W(jet: ConformalJet) -> np.ndarray:
    """W = hess(w) + grad(w) x grad(w) - (1/2)|grad w|^2 I + A_{g0} (w-gauge jet)."""
    if jet.gauge is not Gauge.W:
        raise ValueError("matrix_W expects a w-gauge jet")
    g, H = jet.grad, jet.hess
    return H + np.outer(g, g) - 0.5 * float(g @ g) * np.eye(jet.n) + jet.background.schouten


def matrix_U(jet: ConformalJet) -> np.ndarray:
    """U = hess(u) - |grad u|^2/(2u) I + u A_{g0} (u-gauge jet, u > 0)."""
    if jet.gauge is not Gauge.U:
        raise ValueError("matrix_U expects a u-gauge jet")
    u, g, H = jet.value, jet.grad, jet.hess
    if not u > 0.0:
        raise ValueError("u must be positive")
    return H - float(g @ g) / (2.0 * u) * np.eye(jet.n) + u * jet.background.schouten


def matrix_V(jet: ConformalJet) -> np.ndarray:
    """V-matrix of a v-gauge jet (v > 0).

    V = -hess(v) + n/(n-2) grad v x grad v / v - |grad v|^2/((n-2) v) I
        + (n-2)/2 v A_{g0};  satisfies V = ((n-2)/2) v W for the same metric.
    """
    if jet.gauge is not Gauge.V:
        raise ValueError("matrix_V expects a v-gauge jet")
    v, g, H = jet.value, jet.grad, jet.hess
    n = jet.n
    if not v > 0.0:
        raise ValueError("v must be positive")
    return (
        -H
        + (n / (n - 2)) * np.outer(g, g) / v
        - float(g @ g) / ((n - 2) * v) * np.eye(n)
        + 0.5 * (n - 2) * v * jet.background.schouten
    )


def schouten_eigenvalues(jet: ConformalJet) -> np.ndarray:
    """Eigenvalues of the Schouten tensor of g = e^{-2w} g0 measured against g.

    Equals e^{2w} times the eigenvalues of W in a g0-orthonormal frame.
    """
    jw = convert_gauge(jet, Gauge.W)
    lam = sym_eigenvalues(matrix_W(jw))
    return np.exp(2.0 * jw.value) * lam


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
