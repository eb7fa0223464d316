"""Damped-Newton and continuation solvers for radial sigma_k curvature equations.

The unknown is the w-gauge factor on a radial grid; the operator is the
radial reduction sigma_k = C(n-1,k) b^k + C(n-1,k-1) a b^{k-1} with
second-order central stencils, so Jacobians are tridiagonal.  Right-hand
sides stated in the v-gauge, sigma_k(lambda(V)) = f v^p, are carried into
sigma_k(lambda(W)) = f (2/(n-2))^k e^{a w} with a = (n-2)(k-p)/2.

Three regimes:
  * p < k  (a > 0): cone-guarded damped Newton.  Below a fold in the
    amplitude of f a Dirichlet problem has two admissible solutions, and
    Newton returns the one its seed leads to.
  * p = k: an eigenvalue problem, defined on the sphere reduction only, where
    W = (1/2) I for every constant factor gives theta in closed form.
  * p > k: pseudo-arclength continuation of sigma_k(lambda(V)) = t(delta_t
    + f v^p); the branch folds at t*, with two solutions below, one at, and
    none above the fold.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .conformal import wgauge_rhs_amplitude, wgauge_rhs_exponent
from .radial import RadialAB, radial_admissible, sigma_k_radial, sigma_k_radial_gradients
from .symfunc import ConeParams

__all__ = [
    "SolverError",
    "AdmissibilityError",
    "Annulus",
    "Ball",
    "SphereConstant",
    "RadialProblem",
    "SolverConfig",
    "ExpRHS",
    "vpower_rhs",
    "ContinuationRHS",
    "GeneralVRHS",
    "validate_growth",
    "RadialSystem",
    "assemble",
    "NewtonResult",
    "newton_solve",
    "solve_subcritical",
    "EigenResult",
    "solve_eigenvalue",
    "Branch",
    "BranchSample",
    "FoldMarker",
    "continuation_supercritical",
    "general_rhs_continuation",
]

_EXP_CLIP = 700.0
_EPS = float(np.finfo(float).eps)
# Backward error, in units of eps, above which a bordered solve is refined once.
_REFINE_ULPS = 8.0
# A Newton correction within this many ulps of the iterate changes nothing.
_STEP_ULPS = 8.0
# Damped Newton gives up once the step length falls below this.
_MIN_DAMPING = 1e-12
# Continuation: the longest arclength step and the most steps of one branch.
_DS_MAX = 0.3
_MAX_STEPS = 2000
# validate_growth samples phi_v on 64 geometric points of this v range.
_GROWTH_V_RANGE = (1e-3, 1e3)


class SolverError(RuntimeError):
    def __init__(self, message, history=None, diagnostics=None):
        super().__init__(message)
        self.history = history or []
        self.diagnostics = diagnostics or {}


class AdmissibilityError(SolverError):
    def __init__(self, message):
        super().__init__(message)


# ---------------------------------------------------------------------------
# Problem description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Annulus:
    r0: float
    r1: float
    w0: float
    w1: float

    def __post_init__(self):
        if not 0.0 < self.r0 < self.r1:
            raise ValueError("annulus needs 0 < r0 < r1")


@dataclass(frozen=True)
class Ball:
    """Ball of radius r1 with symmetry at the origin and Dirichlet data at r1."""

    r1: float
    w1: float

    def __post_init__(self):
        if self.r1 <= 0.0:
            raise ValueError("ball radius must be positive")


@dataclass(frozen=True)
class SphereConstant:
    """Constant-factor reduction on the round sphere (scalar problem)."""


@dataclass
class RadialProblem:
    cone: ConeParams
    domain: object
    p: float
    f: object = 1.0            # scalar or callable of r

    def __post_init__(self):
        self.cone.require_supercritical()

    def f_values(self, r):
        if self.f is None:
            raise ValueError("problem carries no f; supply the RHS directly")
        if callable(self.f):
            return np.asarray(self.f(r), dtype=float)
        return np.full_like(np.asarray(r, dtype=float), float(self.f))


@dataclass
class SolverConfig:
    N: int = 129
    tol: float = 1e-10
    max_iter: int = 50
    # continuation controls
    delta0: float = 1.0
    ds0: float = 0.05
    ds_min: float = 1e-12
    t_start: float | None = None
    t_max: float = 10.0
    after_fold_frac: float = 0.7

    def __post_init__(self):
        if self.N < 1 or self.tol <= 0.0 or self.max_iter < 1:
            raise ValueError("invalid solver controls")


# ---------------------------------------------------------------------------
# Right-hand sides (all in the w-gauge)
# ---------------------------------------------------------------------------

def _exp(x):
    # minimum/maximum give np.clip's bits, finite or NaN, at less dispatch cost.
    return np.exp(np.minimum(np.maximum(x, -_EXP_CLIP), _EXP_CLIP))


def _fv(f, r):
    """Values of a scalar or callable amplitude f at the nodes r."""
    if callable(f):
        return np.asarray(f(r), dtype=float)
    return float(f)


class ExpRHS:
    """phi(r, w) = f(r) * exp(a * w).

    Every RHS has evaluate(r, w[, t]) (t for a continuation RHS), which returns
    phi, dphi/dw and dphi/dt from one evaluation of its exponentials.
    """

    def __init__(self, f, a: float):
        self.f = f
        self.a = a

    def evaluate(self, r, w):
        phi = _fv(self.f, r) * _exp(self.a * w)
        return phi, self.a * phi, 0.0


def vpower_rhs(f, n: int, k: int, p: float) -> ExpRHS:
    """w-gauge form of sigma_k(lambda(V)) = f v^p."""
    a = wgauge_rhs_exponent(n, k, p)
    if callable(f):
        conv = wgauge_rhs_amplitude(1.0, n, k)
        return ExpRHS(lambda r, _f=f, _c=conv: _c * np.asarray(_f(r), dtype=float), a)
    return ExpRHS(wgauge_rhs_amplitude(float(f), n, k), a)


def _smoothstep5(x):
    # Scalar clip to [0, 1]; np.clip's bits, -0.0 and NaN included, without its dispatch.
    x = 0.0 if x < 0.0 else min(x, 1.0)
    return x**3 * (10.0 - 15.0 * x + 6.0 * x**2)


def _smoothstep5_d(x):
    return 30.0 * x**2 * (1.0 - x) ** 2 if 0.0 < x < 1.0 else 0.0


class ContinuationRHS:
    """w-gauge form of sigma_k(lambda(V)) = t (delta_t + f v^p).

    delta_t equals delta0 for t <= 1, equals 1 for t >= 2, and bridges
    monotonically through a quintic smoothstep on [1, 2].
    """

    def __init__(self, cone: ConeParams, p: float, f=1.0, delta0: float = 1.0):
        if not 0.0 < delta0 <= 1.0:
            raise ValueError("delta0 must lie in (0, 1]")
        self.cone = cone
        self.p = p
        self.f = f
        self.delta0 = delta0
        self.conv = wgauge_rhs_amplitude(1.0, cone.n, cone.k)
        self.beta = 0.5 * (cone.n - 2)

    def delta(self, t: float) -> float:
        return self.delta0 + (1.0 - self.delta0) * float(_smoothstep5(t - 1.0))

    def ddelta_dt(self, t: float) -> float:
        return (1.0 - self.delta0) * float(_smoothstep5_d(t - 1.0))

    def evaluate(self, r, w, t):
        k, p, b = self.cone.k, self.p, self.beta
        e_delta = _exp(k * b * w)
        e_power = _fv(self.f, r) * _exp((k - p) * b * w)
        delta = self.delta(t)
        both = delta * e_delta + e_power
        scale = t * self.conv
        # Off the bridge (1, 2), t delta'(t) e_delta is +-0.0, and `both` is
        # never -0.0 (delta > 0, e_delta > 0): adding it changes no bit.
        t_ddelta = t * self.ddelta_dt(t)
        return (scale * both,
                scale * (k * b * delta * e_delta + (k - p) * b * e_power),
                self.conv * (both + t_ddelta * e_delta if t_ddelta != 0.0 else both))

    def second_derivatives(self, r, w, t):
        """(d2phi/dw2, d2phi/dwdt), which only fold refinement needs."""
        k, p, b = self.cone.k, self.p, self.beta
        e_delta = k * b * _exp(k * b * w)
        e_power = (k - p) * b * _fv(self.f, r) * _exp((k - p) * b * w)
        return (t * self.conv * (k * b * self.delta(t) * e_delta + (k - p) * b * e_power),
                self.conv * ((self.delta(t) + t * self.ddelta_dt(t)) * e_delta + e_power))


class GeneralVRHS:
    """w-gauge form of sigma_k(lambda(V)) = t * phi_v(r, v) for a user phi_v."""

    def __init__(self, cone: ConeParams, phi_v, dphi_v_dv, d2phi_v_dv2):
        self.cone = cone
        self.phi_v = phi_v
        self.dphi_v_dv = dphi_v_dv
        self.d2phi_v_dv2 = d2phi_v_dv2
        self.conv = wgauge_rhs_amplitude(1.0, cone.n, cone.k)
        self.beta = 0.5 * (cone.n - 2)

    def evaluate(self, r, w, t):
        k, b = self.cone.k, self.beta
        v = _exp(-b * w)
        base = _exp(k * b * w)
        pv = self.phi_v(r, v)
        scale = t * self.conv * base
        return (scale * pv, scale * (k * b * pv - b * v * self.dphi_v_dv(r, v)),
                self.conv * base * pv)

    def second_derivatives(self, r, w, t):
        """(d2phi/dw2, d2phi/dwdt), which only fold refinement needs."""
        k, b = self.cone.k, self.beta
        v = _exp(-b * w)
        base = self.conv * _exp(k * b * w)
        pv, dpv, d2pv = self.phi_v(r, v), v * self.dphi_v_dv(r, v), v * v * self.d2phi_v_dv2(r, v)
        return (t * base * b * b * (k * k * pv - (2 * k - 1) * dpv + d2pv),
                base * b * (k * pv - dpv))


def validate_growth(phi_v, k: int, growth_class: str, c0: float = 0.0):
    """Numerically check a declared growth class at the sampled range endpoints.

    "floor_super": phi_v >= c0 > 0 on the range and v^{-k} phi_v increasing
    at the top (superlinear relative to v^k).
    "crossing": v^{-k} phi_v smaller at the bottom of the range than at its
    top (the ratio crosses the eigenvalue level from below).
    """
    v = np.geomspace(*_GROWTH_V_RANGE, 64)
    vals = np.asarray(phi_v(None, v), dtype=float)
    ratio = vals / v**k
    if growth_class == "floor_super":
        floor = c0 if c0 > 0.0 else 1e-12
        if vals.min() < floor:
            raise SolverError(
                f"growth validation failed: phi_v dips to {vals.min():.3e} below the floor")
        if ratio[-1] <= ratio[-8]:
            raise SolverError("growth validation failed: v^-k phi_v not increasing at the top")
    elif growth_class == "crossing":
        if not ratio[0] < ratio[-1]:
            raise SolverError("growth validation failed: v^-k phi_v does not increase across the range")
    else:
        raise SolverError(f"unknown growth class {growth_class!r}")


# ---------------------------------------------------------------------------
# Discrete system
# ---------------------------------------------------------------------------

def _check_grid_size(N: int, least: int, domain: str) -> int:
    """N, once it is at least the least grid size of the domain: the annulus
    needs one equation row between its Dirichlet rows, the ball one besides
    its Dirichlet row at r1, and the sphere its one node."""
    if N < least:
        raise ValueError(f"{domain} grid needs N >= {least}, got N = {N}")
    return N


class RadialSystem:
    """Finite-difference system for one radial problem on a fixed grid."""

    def __init__(self, problem: RadialProblem, N: int):
        self.problem = problem
        self.cone = problem.cone
        dom = problem.domain
        if isinstance(dom, SphereConstant):
            self.kind = "sphere"
            _check_grid_size(N, 1, "the sphere")
            self.N = 1
            self.r = np.array([1.0])      # placeholder; the RHS ignores r
            self.h = 0.0
            # sigma_k of the round-sphere matrix W = (1/2) I, independent of w.
            self.sigma_const = math.comb(self.cone.n, self.cone.k) * 0.5**self.cone.k
            self.dirichlet = ()
            # The stencil's (w', w'', (a, b)), read-only: it is the same for every w.
            zero, half = np.broadcast_to(0.0, 1), np.broadcast_to(0.5, 1)
            self._sphere_stencil = (zero, zero, RadialAB(half, half))
        elif isinstance(dom, Annulus):
            self.kind = "annulus"
            self.N = _check_grid_size(N, 3, "an annulus")
            self.r = np.linspace(dom.r0, dom.r1, N)
            self.h = self.r[1] - self.r[0]
            self.dirichlet = ((0, dom.w0), (N - 1, dom.w1))
        elif isinstance(dom, Ball):
            self.kind = "ball"
            self.N = _check_grid_size(N, 2, "a ball")
            # Staggered half-cell grid keeps every node off the origin while the
            # mirrored ghost value encodes the symmetry condition w'(0) = 0.
            self.h = dom.r1 / (N - 0.5)
            self.r = (np.arange(N) + 0.5) * self.h
            self.dirichlet = ((N - 1, dom.w1),)
        else:
            raise ValueError(f"unknown domain {dom!r}")
        # Equation rows: every row that is not one of the (index, value)
        # Dirichlet rows; the sphere's one row is its equation.
        self.rows = {"sphere": slice(0, 1), "annulus": slice(1, self.N - 1),
                     "ball": slice(0, self.N - 1)}[self.kind]
        self.r_eq = self.r[self.rows]
        # The cone's binomials C(n-1, k) and C(n-1, k-1) of sigma_k and its
        # gradients, and the grid's constants, computed once.
        n, k = self.cone.n, self.cone.k
        self._c1, self._c2 = math.comb(n - 1, k), math.comb(n - 1, k - 1)
        self._h2 = float(self.h**2)
        if self.kind == "sphere":
            self._sphere_sigma = sigma_k_radial(self._sphere_stencil[2], self.cone)
        else:
            if self._h2 == 0.0:
                raise ValueError(f"{dom!r} with N = {N}: grid spacing h = {self.h:.3g} is "
                                 "too fine for floats, h**2 underflows to 0")
            self._2h = float(2 * self.h)
            self._inv_h2 = 1.0 / self._h2
            self._inv_r = 1.0 / self.r_eq

    # -- finite differences ------------------------------------------------

    def _stencil(self, w):
        """(w', w'', (a, b)) at the equation rows self.rows.

        Central differences; the ball's ghost node at -h/2 mirrors node 0,
        which encodes w'(0) = 0.  a = w'' + w'^2/2 and b = w'/r - w'^2/2.
        The sphere has W = A_{g0} = (1/2) I for every constant factor.
        """
        if self.kind == "sphere":
            return self._sphere_stencil
        if self.kind == "annulus":
            wm, wc, wp = w[:-2], w[1:-1], w[2:]
        else:
            wm, wc, wp = np.concatenate((w[:1], w[:-2])), w[:-1], w[1:]
        d1 = (wp - wm) / self._2h
        d2 = (wp - 2 * wc + wm) / self._h2
        half_sq = 0.5 * d1**2
        return d1, d2, RadialAB(d2 + half_sq, d1 / self.r_eq - half_sq)

    def admissible(self, w) -> bool:
        """Strict cone membership of w at every equation row."""
        return bool(radial_admissible(self._stencil(w)[2], self.cone, strict=True).all())

    def _cone_guard(self, w):
        """Raise AdmissibilityError if w violates closure admissibility beyond
        a finite-difference-aware margin."""
        d1, _, ab = self._stencil(w)
        r = self.r_eq
        margin = 10.0 * self._h2 * np.maximum(1.0, d1**2) * (1.0 + 1.0 / r**2)
        combo = ab.a + self.cone.theta * ab.b
        bad = np.minimum(ab.b + margin, combo + margin)
        worst = int(np.argmin(bad))
        if bad[worst] < 0.0:
            raise AdmissibilityError(
                f"iterate leaves the admissible cone at r={r[worst]:.6g} "
                f"(b={ab.b[worst]:.3e}, a+theta*b={combo[worst]:.3e})")

    # -- residual and Jacobian ----------------------------------------------

    def _assemble(self, w, rhs, root=False, jac=False, t=None):
        """One evaluation of the stencil and of the RHS at the iterate w, with
        rhs.evaluate(r, w, t) when t is given and rhs.evaluate(r, w) otherwise.

        Returns the plain residual F = sigma_k - phi; the root form
        G = sigma^{1/k} - phi^{1/k} when root is set (None otherwise); the
        tridiagonal Jacobian of that form in solve_banded layout (upper,
        diagonal, lower) when jac is set (None otherwise); dphi/dt at the
        equation rows; and the stencil (w', w'', (a, b)).  Boundary rows are
        w - data in both forms.
        """
        k, rows = self.cone.k, self.rows
        phi, phi_w, phi_t = (rhs.evaluate(self.r_eq, w[rows]) if t is None
                             else rhs.evaluate(self.r_eq, w[rows], t))
        d1, _, ab = stencil = self._stencil(w)
        F = np.empty(self.N)
        for i, value in self.dirichlet:
            F[i] = w[i] - value
        G = J = None
        if self.kind == "sphere":
            F[rows] = self._sphere_sigma - phi
            # Python scalar powers: numpy's vector pow may differ by an ulp.
            phi0, phi_w0 = float(phi[0]), float(phi_w[0])
            if root:
                G = np.array([self.sigma_const ** (1.0 / k) - max(phi0, 0.0) ** (1.0 / k)])
                phi_w0 = (1.0 / k) * max(phi0, 1e-300) ** (1.0 / k - 1.0) * phi_w0
            if jac:
                J = np.zeros((3, 1))
                J[1, 0] = -phi_w0
            return F, G, J, phi_t, stencil
        # sigma_k = C(n-1,k) b^(k-1) b + C(n-1,k-1) a b^(k-1), as radial.sigma_k_radial
        # and its gradients compute it, from one power b^(k-1).
        a, b = ab.a, ab.b
        bk = b ** (k - 1)
        c2a = self._c2 * a
        sig = self._c1 * bk * b + c2a * bk
        F[rows] = sig - phi
        if root:
            G = F.copy()
            G[rows] = np.maximum(sig, 0.0) ** (1.0 / k) - np.maximum(phi, 0.0) ** (1.0 / k)
        if jac:
            # b^0 is exactly 1, so at k = 2 the a-term of d sigma/d b is C(n-1,k-1) a.
            sa = self._c2 * bk
            sb = k * self._c1 * bk + (c2a if k == 2 else
                                      (k - 1) * self._c2 * a * b ** (k - 2))
            if root:
                # Chain rule on the 1/k powers.
                scale = (1.0 / k) * np.maximum(sig, 1e-300) ** (1.0 / k - 1.0)
                sa, sb = scale * sa, scale * sb
                phi_w = (1.0 / k) * np.maximum(phi, 1e-300) ** (1.0 / k - 1.0) * phi_w
            J = self._jacobian(d1, sa, sb * (self._inv_r - d1), phi_w)
            for i, _ in self.dirichlet:
                J[1, i] = 1.0
        return F, G, J, phi_t, stencil

    def _jacobian(self, d1, sa, c1, phi_w):
        """Band of psi -> sa (psi'' + d1 psi') + c1 psi' - phi_w psi, zero on Dirichlet rows."""
        rows, N = self.rows, self.N
        J = np.zeros((3, N))
        J[1, rows] = -2.0 * sa / self._h2 - phi_w
        d1_2h, c1_2h = d1 / self._2h, c1 / self._2h
        J[0, rows.start + 1:rows.stop + 1] = sa * (self._inv_h2 + d1_2h) + c1_2h
        sub = sa * (self._inv_h2 - d1_2h) - c1_2h
        if self.kind == "ball":
            # Fold the ghost coefficient of row 0 into its diagonal.
            J[1, 0] += sub[0]
            sub = sub[1:]
        J[2, :N - 2] = sub
        return J

    def _fold_blocks(self, w, rhs, t, ph, stencil):
        """Exact d(J ph)/dw, in J's layout, and d(J ph)/dt of the plain Jacobian.

        sigma_k is linear in a, so with da = psi'' + w' psi' and db = (1/r - w') psi'
        d(J ph)/dw psi = sigma_ab (da[ph] db + db[ph] da) + sigma_bb db[ph] db
        + (sigma_a - sigma_b) ph' psi' - phi_ww ph psi, an operator of _jacobian's form.
        The a-term of sigma_bb, (k-1)(k-2) C(n-1,k-1) a b^(k-3), vanishes at k = 2.
        """
        rows, n, k = self.rows, self.cone.n, self.cone.k
        phi_ww, phi_wt = rhs.second_derivatives(self.r_eq, w[rows], t)
        Jph_t = np.zeros(self.N)
        Jph_t[rows] = -phi_wt * ph[rows]
        if self.kind == "sphere":
            return np.array([[0.0], [-phi_ww[0] * ph[0]], [0.0]]), Jph_t
        (d1, _, ab), (p1, p2, _) = stencil, self._stencil(ph)
        sa, sb = sigma_k_radial_gradients(ab, self.cone)
        s_ab = (k - 1) * math.comb(n - 1, k - 1) * ab.b ** (k - 2)
        s_bb = (k * (k - 1) * math.comb(n - 1, k) * ab.b ** (k - 2) + (k - 1) * (k - 2)
                * math.comb(n - 1, k - 1) * ab.a * ab.b ** max(k - 3, 0))
        db_dw1 = self._inv_r - d1
        db = db_dw1 * p1
        return self._jacobian(d1, s_ab * db, (s_ab * (p2 + d1 * p1) + s_bb * db) * db_dw1
                              + (sa - sb) * p1, phi_ww * ph[rows]), Jph_t

    def residual(self, w, rhs, t=None):
        return self._assemble(w, rhs, t=t)[0]

    def root_residual(self, w, rhs, t=None):
        """Residual in the concave root form sigma^{1/k} - phi^{1/k}.

        Same zero set as the plain residual on the admissible cone, but the
        k-th root stays well scaled as iterates approach the cone boundary,
        which keeps damped Newton from stalling on degenerate problems.
        """
        return self._assemble(w, rhs, root=True, t=t)[1]

    def root_residual_jacobian(self, w, rhs, t=None):
        """Root-form residual, its Jacobian and the plain residual, from one evaluation."""
        F, G, J, _, _ = self._assemble(w, rhs, root=True, jac=True, t=t)
        return G, J, F

    def residual_jacobian(self, w, rhs, check_cone: bool = False, t=None,
                          with_ab: bool = False, ph=None):
        """Residual and Jacobian.  With t, rhs is a t-dependent RHS taken at t,
        and dF/dt, from the same evaluation, is returned third; with ph, the
        exact d(J ph)/dw and d(J ph)/dt follow (see _fold_blocks).  With
        with_ab, the stencil's (a, b) at w, from that evaluation too, is
        returned last: `radial_admissible(ab, cone, strict=True)` tests `admissible(w)`."""
        if check_cone:
            self._cone_guard(w)
        F, _, J, phi_t, stencil = self._assemble(w, rhs, jac=True, t=t)
        out = (F, J)
        if t is not None:
            Ft = np.zeros(self.N)
            Ft[self.rows] = -phi_t
            out += (Ft,)
        if ph is not None:
            out += self._fold_blocks(w, rhs, t, ph, stencil)
        return out + (stencil[2],) if with_ab else out

    def residual_floor(self, w, rhs):
        """Residual at w and its rounding floor (see _rounding_floor), from one
        evaluation: residuals within a small multiple of the floor are
        rounding noise."""
        F, J = self.residual_jacobian(w, rhs)
        return F, _rounding_floor(w, J)

    def solve_linear(self, J, rhs_vec):
        """J^-1 rhs_vec; SolverError when J is singular or not finite.

        N >= 2 calls LAPACK's tridiagonal solve dgtsv (partial pivoting) with
        the arguments scipy.linalg.solve_banded passes it for a (1, 1) band,
        without that wrapper's validation; the f2py dgtsv rejects N = 1, whose
        pivot divides out."""
        if not (np.isfinite(J).all() and np.isfinite(rhs_vec).all()):
            raise SolverError("Newton system: array must not contain infs or NaNs")
        if self.N == 1:
            pivot = float(J[1, 0])
            if pivot == 0.0:
                raise SolverError(f"Newton system: 1x1 pivot {pivot} is zero")
            return rhs_vec / pivot
        from scipy.linalg.lapack import dgtsv
        *_, x, info = dgtsv(J[2, :-1], J[1], J[0, 1:], rhs_vec)
        if info > 0:
            raise SolverError("Newton system: singular matrix")
        return x

    # -- initial iterates ----------------------------------------------------

    # A candidate whose stencil overflows fails the cone test, without a warning.
    @np.errstate(over="ignore", invalid="ignore")
    def initial_guess(self):
        if self.kind == "sphere":
            return np.zeros(1)
        dom = self.problem.domain
        r = self.r

        def candidates():
            """The starting shapes in the order they are tried, each built
            only when its predecessors all failed."""
            if self.kind == "annulus":
                lin = dom.w0 + (dom.w1 - dom.w0) * (np.log(r / dom.r0) / math.log(dom.r1 / dom.r0))
                yield lin
                scale = math.exp(min(max(np.mean(lin), -50.0), 50.0))
                for j in range(-2, 12):
                    c = scale * 2.0**j / dom.r1**2
                    yield np.log(_exp(lin) + c * r**2)
                theta = self.cone.theta
                c0 = 1.6 * dom.r1 ** (theta - 1.0)
                ref = (c0 / (1.0 - theta)) * r ** (1.0 - theta)
                ref += 0.5 * (dom.w0 + dom.w1) - ref.mean()
                yield ref
            else:
                yield np.full(self.N, dom.w1)
                for j in range(-2, 12):
                    c = math.exp(min(max(dom.w1, -50.0), 50.0)) * 2.0**j / dom.r1**2
                    yield np.log(math.exp(min(dom.w1, _EXP_CLIP)) + c * r**2)
        # Near-extremal boundary data can leave every candidate a hair outside
        # the open cone; a small inward nudge (decreasing perturbation raises b
        # and a) recovers strict admissibility without moving off the basin.
        if self.kind == "annulus":
            nudges = [0.0] + [10.0**j for j in range(-8, -1)]
            nudge_shape = (dom.r1 / r) ** 2
        else:
            nudges = [0.0]
            nudge_shape = np.zeros_like(r)
        for w in candidates():
            for eps in nudges:
                trial = w + eps * nudge_shape
                if self.admissible(trial):
                    return trial
        raise SolverError("no strictly admissible initial iterate found")


def assemble(problem: RadialProblem, w, rhs, N: int | None = None,
             check_cone: bool = True):
    """Residual and tridiagonal Jacobian of a problem at the iterate w.

    Raises AdmissibilityError, naming r, b and a + theta b at the worst node,
    when w leaves the closed cone beyond a finite-difference margin.
    """
    w = np.asarray(w, dtype=float)
    system = RadialSystem(problem, N if N is not None else len(w))
    if system.N != len(w):
        raise ValueError("iterate length does not match the grid")
    return system.residual_jacobian(w, rhs, check_cone=check_cone)


# ---------------------------------------------------------------------------
# Damped Newton
# ---------------------------------------------------------------------------

@dataclass
class NewtonResult:
    w: np.ndarray
    residual_history: list
    iterations: int
    # True when the solve stopped on the Newton step or the rounding floor
    # instead of the residual tolerance.
    floor_limited: bool = False

    @property
    def residual(self) -> float:
        return self.residual_history[-1]


def _rounding_floor(w, J) -> float:
    """Rounding floor of a residual with tridiagonal Jacobian J at the iterate w.

    The stencil loses about eps |w| to cancellation in each difference, which
    the residual carries with the weight of its diagonal: eps |w| max|J_ii|.
    """
    return 4.0 * _EPS * float(np.abs(w).max()) * float(np.abs(J[1]).max())


def _stop(w, norm=math.inf, tol=0.0, J=None, step=math.inf, t=0.0, dt=0.0):
    """Stopping rule of every Newton-type loop (after C. T. Kelley, Solving
    Nonlinear Equations with Newton's Method, SIAM 2003).

    Returns "tol" when the residual sup norm is within tol, "floor" when it is
    within the rounding floor of the stencil (J given), "step" when |dt| in
    the corrector, and the Newton correction sup norm, are within a few ulps
    of |t| and |w|, and None when the loop must go on.  A "floor" or "step"
    stop is floor-limited: this grid cannot resolve a residual below tol.
    The scalar |dt| test comes first: most corrector iterations fail it and
    skip max|w|.
    """
    if norm <= tol:
        return "tol"
    if J is not None and norm <= _rounding_floor(w, J):
        return "floor"
    if (abs(dt) <= _STEP_ULPS * _EPS * max(1.0, abs(t))
            and step <= _STEP_ULPS * _EPS * max(1.0, float(np.abs(w).max()))):
        return "step"
    return None


def _newton_failure(system, rhs, w, history, step, what, t=None):
    """SolverError for a Newton solve that no stopping rule accepts."""
    J = system.residual_jacobian(w, rhs, t=t)[1]
    floor = _rounding_floor(w, J)
    return SolverError(
        f"Newton {what}: residual {history[-1]:.3e}, rounding floor {floor:.3e}, "
        f"last Newton step {step:.3e}",
        history=history,
        diagnostics={"w_best": w.copy(), "floor": floor, "step": step})


# As in _corrector, an overflow ends in SolverError, without a warning.
@np.errstate(over="ignore", invalid="ignore")
def _damped_newton(system: RadialSystem, rhs, w0, config: SolverConfig,
                   t=None) -> NewtonResult:
    """Cone-guarded damped Newton, with a t-dependent rhs taken at t when t is given.

    Directions and the line-search metric come from the concave root form
    sigma^{1/k} - phi^{1/k}; convergence is declared on the plain residual
    sigma - phi in the sup norm.  Trial iterates must be strictly admissible
    and decrease the root-form norm, with step halving otherwise.

    The solve stops (see _stop) on the residual, on a Newton step within a
    few ulps of |w|, or when the full step does not decrease a root-form norm
    that is already within its rounding floor.  The last two take the full
    step when it is admissible and are flagged floor_limited.
    """
    w = np.asarray(w0, dtype=float).copy()
    if not system.admissible(w):
        raise AdmissibilityError("initial iterate is not strictly admissible")
    G, J, F = system.root_residual_jacobian(w, rhs, t=t)
    gnorm = float(np.abs(G).max())
    norm = float(np.abs(F).max())
    history = [norm]
    for _ in range(config.max_iter):
        if norm <= config.tol:
            return NewtonResult(w, history, len(history) - 1)
        step = system.solve_linear(J, -G)
        snorm = float(np.abs(step).max())
        at_floor = _stop(w, step=snorm) is not None
        s = 1.0
        while not at_floor:
            trial = w + s * step
            if system.admissible(trial):
                # An accepted trial's evaluation serves the next iteration.
                accepted = system.root_residual_jacobian(trial, rhs, t=t)
                if float(np.abs(accepted[0]).max()) < gnorm:
                    break
            # A full step that does not decrease a root-form norm already at
            # its rounding floor is taken: no damped step would do better.
            if s == 1.0 and _stop(w, gnorm, J=J):
                at_floor = True
                break
            s *= 0.5
            if s < _MIN_DAMPING:
                raise _newton_failure(system, rhs, w, history, snorm,
                                      "stalled: no admissible decreasing step", t)
        if at_floor:
            if system.admissible(w + step):
                w = w + step
                history.append(float(np.abs(system.residual(w, rhs, t=t)).max()))
            return NewtonResult(w, history, len(history) - 1, floor_limited=True)
        w = trial
        G, J, F = accepted
        gnorm = float(np.abs(G).max())
        norm = float(np.abs(F).max())
        history.append(norm)
    if norm <= config.tol:
        return NewtonResult(w, history, config.max_iter)
    raise _newton_failure(system, rhs, w, history, snorm,
                          f"did not converge in {config.max_iter} iterations", t)


def newton_solve(problem: RadialProblem, rhs, config: SolverConfig,
                 w0=None) -> NewtonResult:
    """Cone-guarded damped Newton for sigma_k(lambda(W)) = phi(r, w)."""
    system = RadialSystem(problem, config.N)
    if w0 is None:
        w0 = system.initial_guess()
    return _damped_newton(system, rhs, np.asarray(w0, dtype=float), config)


# ---------------------------------------------------------------------------
# Case 1: p < k
# ---------------------------------------------------------------------------

def solve_subcritical(problem: RadialProblem, config: SolverConfig,
                      w0=None) -> NewtonResult:
    """A solution of sigma_k(lambda(V)) = f v^p for p < k, by damped Newton
    from w0 (default: the system's initial guess).

    Not necessarily the only one: below a fold in the amplitude of f the
    problem has two admissible solutions, and Newton returns the one its
    seed leads to.
    """
    n, k = problem.cone.n, problem.cone.k
    if wgauge_rhs_exponent(n, k, problem.p) <= 0.0:
        raise ValueError("subcritical solve requires p < k")
    rhs = vpower_rhs(problem.f, n, k, problem.p)
    system = RadialSystem(problem, config.N)
    if np.any(problem.f_values(system.r) <= 0.0):
        raise ValueError("f must be positive on the domain")
    seed = np.asarray(w0, dtype=float) if w0 is not None else system.initial_guess()
    return _damped_newton(system, rhs, seed, config)


# ---------------------------------------------------------------------------
# Case 2: p = k (eigenvalue)
# ---------------------------------------------------------------------------

@dataclass
class EigenResult:
    theta: float
    w: np.ndarray              # w = 0; every constant factor is a solution
    residual_check: float      # sup norm of the residual at w with theta f


def solve_eigenvalue(problem: RadialProblem) -> EigenResult:
    """Eigenvalue theta of sigma_k(lambda(V)) = theta f v^k on the sphere reduction.

    W = (1/2) I for every constant factor on the round sphere, so theta =
    C(n,k) 2^-k / ((2/(n-2))^k f), with f at the sphere's one node, and every
    constant w solves: w = 0 is returned.  Any other domain, and an f that
    is not positive and finite, raise ValueError.
    """
    if not isinstance(problem.domain, SphereConstant):
        raise ValueError("the p = k eigenvalue problem is defined only on the sphere "
                         f"reduction (sphere_constant), not on {type(problem.domain).__name__}")
    n, k = problem.cone.n, problem.cone.k
    system = RadialSystem(problem, 1)
    f = float(problem.f_values(system.r)[0])
    if not (math.isfinite(f) and f > 0.0):
        raise ValueError(f"f must be positive and finite on the sphere, not {f!r}")
    theta = system.sigma_const / wgauge_rhs_amplitude(f, n, k)
    w = np.zeros(1)
    residual_check = float(np.abs(system.residual(w, vpower_rhs(theta * f, n, k, k))).max())
    return EigenResult(theta, w, residual_check)


# ---------------------------------------------------------------------------
# Case 3: p > k (continuation)
# ---------------------------------------------------------------------------

@dataclass
class BranchSample:
    t: float
    w: np.ndarray
    v_probe: float
    newton_iters: int
    tangent_t: float
    delta_t: float


@dataclass
class FoldMarker:
    t_star: float
    w_star: np.ndarray
    refined: bool


@dataclass
class Branch:
    samples: list
    folds: list
    termination: str
    _system: RadialSystem = field(repr=False, default=None)
    _rhs: object = field(repr=False, default=None)
    _config: SolverConfig = field(repr=False, default=None)

    @property
    def t_star(self) -> float | None:
        return self.folds[0].t_star if self.folds else None

    def solutions_at(self, t: float):
        """All branch solutions at parameter t, Newton-polished at fixed t."""
        nodes = [(s.t, s.w) for s in self.samples]
        found = []
        for (ta, wa), (tb, wb) in zip(nodes[:-1], nodes[1:]):
            if (ta - t) * (tb - t) <= 0.0 and ta != tb:
                lam = (t - ta) / (tb - ta)
                seed = (1.0 - lam) * wa + lam * wb
                try:
                    res = _damped_newton(self._system, self._rhs, seed, self._config, t)
                except SolverError:
                    continue
                if not any(np.abs(res.w - w).max() <= 1e-6 * max(1.0, np.abs(w).max())
                           for w in found):
                    found.append(res.w)
        return found


def _v_probe(w, beta: float) -> float:
    mid = len(w) // 2
    return float(np.exp(-beta * w[mid]))


def _band_matvec(band, kl, ku, x):
    """A @ x for A stored in solve_banded layout, A[i, j] = band[ku + i - j, j]."""
    n = len(x)
    y = band[ku] * x
    for d in range(1, min(ku, n - 1) + 1):
        y[:-d] += band[ku - d, d:] * x[d:]
    for d in range(1, min(kl, n - 1) + 1):
        y[d:] += band[ku + d, :-d] * x[:-d]
    return y


def _bordered_solve(band, kl, ku, col, row, corner, f, g):
    """Solve [[A, col], [row, corner]] [x; y] = [f; g] for a banded A in O(n).

    A is given in solve_banded layout with kl sub- and ku super-diagonals and
    factored once with partial pivoting.  The border is removed by mixed
    block elimination (Govaerts & Pryce, IMA J. Numer. Anal. 13, 1993;
    Govaerts, Numerical Methods for Bifurcations of Dynamical Equilibria,
    ch. 3), which stays accurate where A is nearly singular, as the
    continuation Jacobian is at a fold, provided the bordered matrix is
    regular.  One step of iterative refinement follows unless the normwise
    backward error of the first solution is already at rounding level.

    A is factored by LAPACK's tridiagonal LU (dgttrf/dgttrs) when kl = ku = 1
    and n >= 3, the tangent and corrector systems of the annulus and the
    ball, at a third to a half of the cost of its band LU (dgbtrf/dgbtrs),
    which takes the other shapes with n >= 2: the ball's Newton matrix at
    N = 2 (the f2py dgttrf rejects n = 2) and the fold system's (3, 2) band.
    A 1x1 A with a nonzero pivot, the sphere's tangent and corrector system,
    is solved with the operations that the band LU makes on it.  Each route
    supplies only its solve and band product to the one elimination below;
    the scalars are Python floats, taken from the same dot products, in the
    same order.

    An exactly zero pivot of the LU, which no radial solve meets, sends
    the whole bordered matrix to a dense LU instead: O(n^3), but it raises
    only when the bordered matrix itself is singular.
    """
    n = band.shape[1]
    if n == 1 and band[ku, 0] != 0.0:
        a = float(band[ku, 0])
        solve = lambda b, trans=0: b / a
        matvec, dot = (lambda x: a * x), operator.mul
        band_sq = sum(b * b for b in band[:, 0].tolist())
        col, row, f = float(col[0]), float(row[0]), float(f[0])
    else:
        if kl == ku == 1 and n >= 3:
            from scipy.linalg.lapack import dgttrf, dgttrs
            sub, diag, sup = band[2, :-1], band[1], band[0, 1:]
            dl, d, du, du2, piv, info = dgttrf(sub, diag, sup)

            def solve(b, trans=0):
                return dgttrs(dl, d, du, du2, piv, b, "T" if trans else "N")[0]

            def matvec(x):
                # _band_matvec's products and sums, in its order
                y = diag * x
                y[:-1] += sup * x[1:]
                y[1:] += sub * x[:-1]
                return y
        else:
            from scipy.linalg.lapack import dgbtrf, dgbtrs
            ab = np.zeros((2 * kl + ku + 1, n), order="F")
            ab[kl:] = band
            lu, piv, info = dgbtrf(ab, kl, ku, overwrite_ab=True)

            def solve(b, trans=0):
                return dgbtrs(lu, kl, ku, b, piv, trans=trans)[0]

            def matvec(x):
                return _band_matvec(band, kl, ku, x)
        if info != 0:
            M = np.empty((n + 1, n + 1))
            M[:n, :n] = np.transpose([_band_matvec(band, kl, ku, e) for e in np.eye(n)])
            M[:n, n], M[n, :n], M[n, n] = col, row, corner
            try:
                z = np.linalg.solve(M, np.append(f, g))
            except np.linalg.LinAlgError:
                raise SolverError("singular bordered system") from None
            return z[:n], float(z[n])
        dot = lambda a, b: float(a.dot(b))
        band_sq = float(np.vdot(band, band))
    corner, g = float(corner), float(g)
    v = solve(row, trans=1)
    w = solve(col)
    schur_v = corner - dot(v, col)
    schur_w = corner - dot(row, w)
    if schur_v == 0.0 or schur_w == 0.0:
        raise SolverError("singular bordered system")

    def eliminate(f, g):
        y1 = (g - dot(v, f)) / schur_v
        x = solve(f - y1 * col)
        y2 = (g - dot(row, x) - corner * y1) / schur_w
        return x - y2 * w, y1 + y2

    x, y = eliminate(f, g)
    r_top = f - matvec(x) - y * col
    r_bot = g - dot(row, x) - corner * y
    resid = math.sqrt(dot(r_top, r_top) + r_bot * r_bot)
    if not math.isfinite(resid):
        raise SolverError("bordered solve is not finite")
    # Backward error |r| / (|M| |z| + |rhs|), |M| in the Frobenius norm (Rigal & Gaches).
    norm_m = math.sqrt(band_sq + dot(col, col) + dot(row, row) + corner * corner)
    size = norm_m * math.sqrt(dot(x, x) + y * y) + math.sqrt(dot(f, f) + g * g)
    if resid > _REFINE_ULPS * _EPS * size:
        dx, dy = eliminate(r_top, r_bot)
        x, y = x + dx, y + dy
    return np.atleast_1d(x), y


def _tangent(system, rhs, w, t, prev=None, jac_t=None):
    """Unit tangent of the branch at (w, t), oriented along prev (or with
    increasing t when prev is None).  jac_t is the (J, dF/dt) pair already
    assembled at (w, t), if the caller has it."""
    J, Ft = jac_t if jac_t is not None else system.residual_jacobian(w, rhs, t=t)[1:]
    if prev is None:
        row, corner = np.zeros(system.N), 1.0
    else:
        row, corner = prev[:-1], float(prev[-1])
    x, y = _bordered_solve(J, 1, 1, Ft, row, corner, np.zeros(system.N), 1.0)
    scale = 1.0 / math.sqrt(x.dot(x) + y * y)
    tau = np.empty(system.N + 1)
    tau[:-1] = x * scale
    tau[-1] = y * scale
    if prev is not None and float(tau @ prev) < 0.0:
        tau = -tau
    elif prev is None and tau[-1] < 0.0:
        tau = -tau
    return tau


def _corrector(system, rhs, w_pred, t_pred, tau, config, max_iter=12):
    """Pseudo-arclength corrector: solve F(w, t) = 0 under tau . (z - z_pred) = 0.

    Stops by _stop with the arclength equation within tol.  The prediction is
    rejected as soon as the residual stops decreasing (P. Deuflhard, Newton
    Methods for Nonlinear Problems, Springer 2004): a corrector that does not
    contract from its first steps does not converge within max_iter.

    Returns (w, t, iterations, jac_t).  jac_t is the (J, dF/dt) pair of the
    last assembly when the loop stopped on the residual, which is then at
    the returned (w, t), and None after a stop on the step.  The strict cone
    test of the returned w comes from that assembly's stencil after a
    residual stop; a step stop evaluates it at the stepped w.
    """
    w = w_pred.copy()
    t = float(t_pred)
    tau_w, tau_t = tau[:-1], float(tau[-1])
    prev = math.inf
    # A rejected prediction can overflow the stencil; the non-finite residual
    # or step it leaves raises SolverError below instead of a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(max_iter):
            F, J, Ft, ab = system.residual_jacobian(w, rhs, t=t, with_ab=True)
            norm = float(np.abs(F).max())
            if not math.isfinite(norm):
                raise SolverError("corrector residual is not finite")
            g = float(tau_w @ (w - w_pred) + tau_t * (t - t_pred))
            # The floor is consulted only once the residual stops decreasing.
            if abs(g) <= config.tol and _stop(w, norm, config.tol, J if norm >= prev else None):
                jac_t = (J, Ft)
                inside = bool(radial_admissible(ab, system.cone, strict=True).all())
                break
            if norm >= prev:
                raise SolverError(f"corrector stopped contracting at iteration {it}: "
                                  f"residual {norm:.3e} >= {prev:.3e}")
            prev = norm
            dw, dt = _bordered_solve(J, 1, 1, Ft, tau_w, tau_t, -F, -g)
            step_stop = _stop(w, step=float(np.abs(dw).max()), t=t, dt=dt)
            w = w + dw
            t = t + dt
            if step_stop:
                it += 1
                jac_t = None
                inside = system.admissible(w)
                break
        else:
            raise SolverError(f"corrector did not converge in {max_iter} iterations")
    if not inside:
        raise SolverError("corrector left the admissible cone")
    return w, t, it, jac_t


def _refine_fold(system, rhs, w, t, phi0):
    """Newton on the Moore-Spence extended fold system [F; J phi; c.phi - 1] = 0
    (Moore and Spence, SIAM J. Numer. Anal. 17, 1980) from the last branch
    sample (w, t) before the fold, with phi0 the w-part of its tangent.
    Returns (w, t, ok).

    Interleaving the unknowns as (w_0, phi_0, w_1, phi_1, ...) makes the
    (2N+1) Newton matrix a band (kl = 3, ku = 2) bordered by the t column and
    the c row.  Its exact blocks d(J phi)/dw and d(J phi)/dt come with F and J
    from one assembly, so an iteration costs one assembly and one O(N) solve.
    It stops by _stop, as the other Newton loops do: |G| within the rounding
    floor of the stencil, or a Newton step within a few ulps of w and t.
    """
    N = system.N
    c = phi0 / np.linalg.norm(phi0)
    ph = phi0 / max(float(c @ phi0), 1e-300)
    G = np.empty(2 * N + 1)
    band = np.zeros((6, 2 * N))
    col = np.empty(2 * N)
    row = np.zeros(2 * N)
    row[1::2] = c
    for _ in range(30):
        F, J, Ft, Jph_w, Jph_t = system.residual_jacobian(w, rhs, t=t, ph=ph)
        G[:-1:2] = F
        G[1:-1:2] = _band_matvec(J, 1, 1, ph)
        G[-1] = c @ ph - 1.0
        if _stop(w, float(np.abs(G).max()), J=J):
            return w, t, True
        # Row 2i holds F_i and row 2i+1 (J phi)_i: J sits in band rows 0, 2, 4
        # under both the w and the phi columns, d(J phi)/dw in rows 1, 3, 5.
        band[0::2, 0::2] = J
        band[0::2, 1::2] = J
        band[1::2, 0::2] = Jph_w
        col[0::2] = Ft
        col[1::2] = Jph_t
        dz, dt = _bordered_solve(band, 3, 2, col, row, 0.0, -G[:-1], -G[-1])
        step_stop = _stop(w, step=float(np.abs(dz[0::2]).max()), t=t, dt=dt)
        w, t, ph = w + dz[0::2], t + dt, ph + dz[1::2]
        if not system.admissible(w):
            return w, t, False
        if step_stop:
            return w, t, True
    return w, t, False


def _continue_branch(problem: RadialProblem, rhs, config: SolverConfig) -> Branch:
    """Pseudo-arclength continuation in t from the small-t solution.

    A fold lies where the tangent's t-component turns negative between two
    accepted samples.  _refine_fold starts from the sample before it; a fold
    it finds in that bracket is recorded as refined and added as a sample.
    Otherwise the fold is the bracket sample with the larger t, unrefined.
    The branch then runs on until t <= after_fold_frac * t*.
    """
    system = RadialSystem(problem, config.N)
    cone = problem.cone
    beta = 0.5 * (cone.n - 2)

    # Starting point: small-t solution.
    t = 0.01 if config.t_start is None else config.t_start
    delta_of = rhs.delta if hasattr(rhs, "delta") else (lambda _t: 1.0)
    if system.kind == "sphere":
        # Seed from the small-parameter asymptotics sigma_const ~ t conv delta e^{k beta w}.
        conv = wgauge_rhs_amplitude(1.0, cone.n, cone.k)
        w0 = np.array([math.log(system.sigma_const / (t * conv * max(delta_of(t), 1e-12)))
                       / (cone.k * beta)])
    else:
        w0 = system.initial_guess()
    res = _damped_newton(system, rhs, w0, config, t)
    w = res.w

    samples = []
    folds = []
    termination = "max steps"
    tau = _tangent(system, rhs, w, t, prev=None)
    samples.append(BranchSample(t, w.copy(), _v_probe(w, beta),
                                res.iterations, float(tau[-1]), float(delta_of(t))))
    ds = config.ds0

    for _ in range(_MAX_STEPS):
        pred_w = w + ds * tau[:-1]
        pred_t = t + ds * tau[-1]
        try:
            w_new, t_new, iters, jac_t = _corrector(system, rhs, pred_w, pred_t, tau, config)
        except SolverError:
            ds *= 0.5
            if ds < config.ds_min:
                termination = "step underflow"
                break
            continue
        tau_new = _tangent(system, rhs, w_new, t_new, prev=tau, jac_t=jac_t)

        if not folds and tau[-1] > 0.0 and tau_new[-1] < 0.0:
            # The fold lies between the samples (w, t) and (w_new, t_new).
            fold = FoldMarker(t, w, False) if t >= t_new else FoldMarker(t_new, w_new, False)
            try:
                wf, tf, ok = _refine_fold(system, rhs, w, t, tau[:-1])
            except SolverError:
                ok = False
            # In the bracket: t* not below it, up to rounding, and the fold
            # state within twice the bracket's chord from (w, t).
            chord = math.hypot(float(np.linalg.norm(w_new - w)), t_new - t)
            if ok and tf >= max(t, t_new) - _STEP_ULPS * _EPS * abs(tf) and (
                    math.hypot(float(np.linalg.norm(wf - w)), tf - t) <= 2.0 * chord):
                fold = FoldMarker(tf, wf, True)
                samples.append(BranchSample(tf, wf.copy(), _v_probe(wf, beta), 0, 0.0,
                                            float(delta_of(tf))))
            folds.append(fold)

        w, t, tau = w_new, t_new, tau_new
        samples.append(BranchSample(t, w.copy(), _v_probe(w, beta),
                                    iters, float(tau[-1]), float(delta_of(t))))
        if iters <= 3:
            ds = min(ds * 1.4, _DS_MAX)
        if not folds and t >= config.t_max:
            termination = "t_max reached"
            break
        if folds and t <= config.after_fold_frac * folds[0].t_star:
            termination = "fold crossed"
            break
        if float(np.abs(w).max()) > 1e3:
            termination = "solution norm blow-up"
            break

    return Branch(samples, folds, termination, system, rhs, config)


def continuation_supercritical(problem: RadialProblem, config: SolverConfig) -> Branch:
    """Branch of sigma_k(lambda(V)) = t (delta_t + f v^p) for p > k with fold detection."""
    if problem.p <= problem.cone.k:
        raise ValueError("supercritical continuation requires p > k")
    rhs = ContinuationRHS(problem.cone, problem.p, problem.f, config.delta0)
    return _continue_branch(problem, rhs, config)


def general_rhs_continuation(problem: RadialProblem, phi_v, dphi_v_dv, d2phi_v_dv2,
                             growth_class: str, config: SolverConfig,
                             c0: float = 0.0) -> Branch:
    """Continuation for sigma_k(lambda(V)) = t phi_v(x, v) with a declared growth
    class; fold refinement needs phi_v's second v-derivative besides the first."""
    validate_growth(phi_v, problem.cone.k, growth_class, c0=c0)
    rhs = GeneralVRHS(problem.cone, phi_v, dphi_v_dv, d2phi_v_dv2)
    return _continue_branch(problem, rhs, config)
