"""Damped-Newton and continuation solvers for radial sigma_k curvature equations.

The unknown is the w-gauge factor on a radial grid; the operator is the
radial reduction sigma_k = C(n-1,k) b^k + C(n-1,k-1) a b^{k-1} with
second-order central stencils, so Jacobians are tridiagonal.  Right-hand
sides stated in the v-gauge, sigma_k(lambda(V)) = f v^p, are carried into
sigma_k(lambda(W)) = f (2/(n-2))^k e^{a w} with a = (n-2)(k-p)/2.

Three regimes:
  * p < k  (a > 0): cone-guarded damped Newton; the solution is unique.
  * p = k: an eigenvalue problem, defined on the sphere reduction only, where
    W = (1/2) I for every constant factor gives theta in closed form.
  * p > k: pseudo-arclength continuation of sigma_k(lambda(V)) = t(delta_t
    + f v^p); the branch folds at t*, with two solutions below, one at, and
    none above the fold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgbtrf, dgbtrs, dtbtrs

from .conformal import wgauge_rhs_amplitude, wgauge_rhs_exponent
from .radial import RadialAB, sigma_k_radial, sigma_k_radial_gradients
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
    "Solution",
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


class SolverError(RuntimeError):
    def __init__(self, message, history=None, diagnostics=None):
        super().__init__(message)
        self.history = history or []
        self.diagnostics = diagnostics or {}


class AdmissibilityError(SolverError):
    def __init__(self, message, node=None, values=None):
        super().__init__(message)
        self.node = node
        self.values = values


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
    min_damping: float = 1e-12
    # continuation controls
    delta0: float = 1.0
    ds0: float = 0.05
    ds_min: float = 1e-12
    ds_max: float = 0.3
    max_steps: int = 2000
    t_start: float | None = None
    t_max: float = 10.0
    after_fold_frac: float = 0.7
    refine_fold: bool = True

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

    Every RHS has evaluate(), which returns phi, dphi/dw and dphi/dt from one
    evaluation of its exponentials; phi() and dphi_dw() are views of it.
    """

    def __init__(self, f, a: float):
        self.f = f
        self.a = a

    def evaluate(self, r, w):
        phi = _fv(self.f, r) * _exp(self.a * w)
        return phi, self.a * phi, 0.0

    def phi(self, r, w):
        return self.evaluate(r, w)[0]

    def dphi_dw(self, r, w):
        return self.evaluate(r, w)[1]


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
        scale = t * self.conv
        return (scale * (delta * e_delta + e_power),
                scale * (k * b * delta * e_delta + (k - p) * b * e_power),
                self.conv * (delta * e_delta + e_power + t * self.ddelta_dt(t) * e_delta))

    def phi(self, r, w, t):
        return self.evaluate(r, w, t)[0]

    def dphi_dw(self, r, w, t):
        return self.evaluate(r, w, t)[1]

    def dphi_dt(self, r, w, t):
        return self.evaluate(r, w, t)[2]


class GeneralVRHS:
    """w-gauge form of sigma_k(lambda(V)) = t * phi_v(r, v) for a user phi_v."""

    def __init__(self, cone: ConeParams, phi_v, dphi_v_dv, growth_class: str = "floor_super"):
        self.cone = cone
        self.phi_v = phi_v
        self.dphi_v_dv = dphi_v_dv
        self.growth_class = growth_class
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

    def phi(self, r, w, t):
        return self.evaluate(r, w, t)[0]

    def dphi_dw(self, r, w, t):
        return self.evaluate(r, w, t)[1]

    def dphi_dt(self, r, w, t):
        return self.evaluate(r, w, t)[2]


def validate_growth(phi_v, k: int, growth_class: str, v_lo: float = 1e-3,
                    v_hi: float = 1e3, c0: float = 0.0):
    """Numerically check a declared growth class at the sampled range endpoints.

    "floor_super": phi_v >= c0 > 0 on the range and v^{-k} phi_v increasing
    at the top (superlinear relative to v^k).
    "crossing": v^{-k} phi_v smaller at v_lo than at v_hi (the ratio crosses
    the eigenvalue level from below).
    """
    v = np.geomspace(v_lo, v_hi, 64)
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


class _FrozenT:
    """Adapter freezing the continuation parameter of a t-dependent RHS."""

    def __init__(self, rhs, t: float):
        self.rhs = rhs
        self.t = t

    def evaluate(self, r, w):
        return self.rhs.evaluate(r, w, self.t)


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
        elif isinstance(dom, Annulus):
            self.kind = "annulus"
            self.N = _check_grid_size(N, 3, "an annulus")
            self.r = np.linspace(dom.r0, dom.r1, N)
            self.h = self.r[1] - self.r[0]
        elif isinstance(dom, Ball):
            self.kind = "ball"
            self.N = _check_grid_size(N, 2, "a ball")
            # Staggered half-cell grid keeps every node off the origin while the
            # mirrored ghost value encodes the symmetry condition w'(0) = 0.
            self.h = dom.r1 / (N - 0.5)
            self.r = (np.arange(N) + 0.5) * self.h
        else:
            raise ValueError(f"unknown domain {dom!r}")
        # Equation rows: the annulus has Dirichlet rows at both ends, the ball
        # at r1 only, and the sphere's one row is its equation.
        self.rows = {"sphere": slice(0, 1), "annulus": slice(1, self.N - 1),
                     "ball": slice(0, self.N - 1)}[self.kind]
        self.r_eq = self.r[self.rows]

    # -- finite differences ------------------------------------------------

    def _stencil(self, w):
        """(w', w'', (a, b)) at the equation rows self.rows of a grid domain.

        Central differences; the ball's ghost node at -h/2 mirrors node 0,
        which encodes w'(0) = 0.  a = w'' + w'^2/2 and b = w'/r - w'^2/2.
        """
        if self.kind == "annulus":
            wm, wc, wp = w[:-2], w[1:-1], w[2:]
        else:
            wm, wc, wp = np.concatenate((w[:1], w[:-2])), w[:-1], w[1:]
        d1 = (wp - wm) / (2 * self.h)
        d2 = (wp - 2 * wc + wm) / self.h**2
        half_sq = 0.5 * d1**2
        return d1, d2, RadialAB(d2 + half_sq, d1 / self.r_eq - half_sq)

    def ab(self, w) -> RadialAB:
        if self.kind == "sphere":
            # W = A_{g0} = (1/2) I for every constant factor on the round sphere.
            return RadialAB(np.array([0.5]), np.array([0.5]))
        return self._stencil(w)[2]

    def admissible(self, w, strict: bool = True, tol: float = 0.0) -> bool:
        if self.kind == "sphere":
            return True
        return self._in_cone(self._stencil(w)[2], strict, tol)

    def _in_cone(self, ab, strict: bool = True, tol: float = 0.0) -> bool:
        """Cone membership of the (a, b) of one stencil evaluation."""
        combo = ab.a + self.cone.theta * ab.b
        if strict:
            return bool(np.all(ab.b > tol) and np.all(combo > tol))
        return bool(np.all(ab.b >= -tol) and np.all(combo >= -tol))

    def _cone_guard(self, w):
        """Raise AdmissibilityError if w violates closure admissibility beyond
        a finite-difference-aware margin."""
        if self.kind == "sphere":
            return
        d1, _, ab = self._stencil(w)
        r = self.r_eq
        margin = 10.0 * self.h**2 * np.maximum(1.0, d1**2) * (1.0 + 1.0 / r**2)
        combo = ab.a + self.cone.theta * ab.b
        bad = np.minimum(ab.b + margin, combo + margin)
        worst = int(np.argmin(bad))
        if bad[worst] < 0.0:
            raise AdmissibilityError(
                f"iterate leaves the admissible cone at r={r[worst]:.6g} "
                f"(b={ab.b[worst]:.3e}, a+theta*b={combo[worst]:.3e})",
                node=self.rows.start + worst,
                values=(float(ab.b[worst]), float(combo[worst])),
            )

    # -- residual and Jacobian ----------------------------------------------

    def _assemble(self, w, rhs, root=False, jac=False):
        """One evaluation of the stencil and of the RHS at the iterate w.

        Returns the plain residual F = sigma_k - phi; the root form
        G = sigma^{1/k} - phi^{1/k} when root is set (None otherwise); the
        tridiagonal Jacobian of that form in solve_banded layout (upper,
        diagonal, lower) when jac is set (None otherwise); dphi/dt at the
        equation rows; and the stencil's (a, b).  Boundary rows are w - data
        in both forms.
        """
        k, rows, N = self.cone.k, self.rows, self.N
        phi, phi_w, phi_t = rhs.evaluate(self.r_eq, w[rows])
        F = np.empty(N)
        G = J = None
        if self.kind == "sphere":
            # Python scalar powers: numpy's vector pow may differ by an ulp.
            phi0, phi_w0 = float(phi[0]), float(phi_w[0])
            F[0] = self.sigma_const - phi0
            if root:
                G = np.array([self.sigma_const ** (1.0 / k) - max(phi0, 0.0) ** (1.0 / k)])
                phi_w0 = (1.0 / k) * max(phi0, 1e-300) ** (1.0 / k - 1.0) * phi_w0
            if jac:
                J = np.zeros((3, 1))
                J[1, 0] = -phi_w0
            return F, G, J, phi_t, self.ab(w)
        d1, _, ab = self._stencil(w)
        sig = sigma_k_radial(ab, self.cone)
        F[rows] = sig - phi
        dom = self.problem.domain
        F[-1] = w[-1] - dom.w1
        if self.kind == "annulus":
            F[0] = w[0] - dom.w0
        if root:
            G = F.copy()
            G[rows] = np.maximum(sig, 0.0) ** (1.0 / k) - np.maximum(phi, 0.0) ** (1.0 / k)
        if jac:
            sa, sb = sigma_k_radial_gradients(ab, self.cone)
            if root:
                # Chain rule on the 1/k powers.
                scale = (1.0 / k) * np.maximum(sig, 1e-300) ** (1.0 / k - 1.0)
                sa, sb = scale * sa, scale * sb
                phi_w = (1.0 / k) * np.maximum(phi, 1e-300) ** (1.0 / k - 1.0) * phi_w
            J = self._jacobian(d1, sa, sb, phi_w)
        return F, G, J, phi_t, ab

    def _jacobian(self, d1, sa, sb, phi_w):
        """Tridiagonal Jacobian from dsigma/da, dsigma/db and dphi/dw at the rows."""
        h, rows, N = self.h, self.rows, self.N
        bcoef = sb * (1.0 / self.r_eq - d1)
        J = np.zeros((3, N))
        J[1, rows] = -2.0 * sa / h**2 - phi_w
        J[0, rows.start + 1:rows.stop + 1] = sa * (1.0 / h**2 + d1 / (2 * h)) + bcoef / (2 * h)
        sub = sa * (1.0 / h**2 - d1 / (2 * h)) - bcoef / (2 * h)
        if self.kind == "ball":
            # Fold the ghost coefficient of row 0 into its diagonal.
            J[1, 0] += sub[0]
            sub = sub[1:]
        else:
            J[1, 0] = 1.0
        J[2, :N - 2] = sub
        J[1, -1] = 1.0
        return J

    def residual(self, w, rhs):
        return self._assemble(w, rhs)[0]

    def root_residual(self, w, rhs):
        """Residual in the concave root form sigma^{1/k} - phi^{1/k}.

        Same zero set as the plain residual on the admissible cone, but the
        k-th root stays well scaled as iterates approach the cone boundary,
        which keeps damped Newton from stalling on degenerate problems.
        """
        return self._assemble(w, rhs, root=True)[1]

    def root_residual_jacobian(self, w, rhs):
        """Root-form residual, its Jacobian and the plain residual, from one evaluation."""
        F, G, J, _, _ = self._assemble(w, rhs, root=True, jac=True)
        return G, J, F

    def residual_jacobian(self, w, rhs, check_cone: bool = False, t=None,
                          with_ab: bool = False):
        """Residual and Jacobian.  With t, rhs is a t-dependent RHS taken at t,
        and dF/dt, from the same evaluation, is returned third.  With with_ab,
        the stencil's (a, b) at w, also from that evaluation, is returned last:
        `_in_cone(ab)` is then the strict test of `admissible(w)`."""
        if check_cone:
            self._cone_guard(w)
        if t is None:
            F, _, J, _, ab = self._assemble(w, rhs, jac=True)
            out = (F, J)
        else:
            F, _, J, phi_t, ab = self._assemble(w, _FrozenT(rhs, t), jac=True)
            Ft = np.zeros(self.N)
            Ft[self.rows] = -phi_t
            out = (F, J, Ft)
        return out + (ab,) if with_ab else out

    def residual_floor(self, w, rhs):
        """Residual at w and its rounding floor (see _rounding_floor), from one
        evaluation: residuals within a small multiple of the floor are
        rounding noise."""
        F, J = self.residual_jacobian(w, rhs)
        return F, _rounding_floor(w, J)

    def solve_linear(self, J, rhs_vec):
        if self.N == 1:
            return rhs_vec / J[1, 0]
        return solve_banded((1, 1), J, rhs_vec)

    # -- initial iterates ----------------------------------------------------

    def initial_guess(self):
        if self.kind == "sphere":
            return np.zeros(1)
        dom = self.problem.domain
        theta = self.cone.theta
        r = self.r
        candidates = []
        if self.kind == "annulus":
            lin = dom.w0 + (dom.w1 - dom.w0) * (np.log(r / dom.r0) / math.log(dom.r1 / dom.r0))
            candidates.append(lin)
            scale = math.exp(min(max(np.mean(lin), -50.0), 50.0))
            for j in range(-2, 12):
                c = scale * 2.0**j / dom.r1**2
                candidates.append(np.log(_exp(lin) + c * r**2))
            c0 = 1.6 * dom.r1 ** (theta - 1.0)
            ref = (c0 / (1.0 - theta)) * r ** (1.0 - theta)
            ref += 0.5 * (dom.w0 + dom.w1) - ref.mean()
            candidates.append(ref)
        else:
            base = np.full(self.N, dom.w1)
            candidates.append(base)
            for j in range(-2, 12):
                c = math.exp(min(max(dom.w1, -50.0), 50.0)) * 2.0**j / dom.r1**2
                candidates.append(np.log(math.exp(dom.w1) + c * r**2))
        # Near-extremal boundary data can leave every candidate a hair outside
        # the open cone; a small inward nudge (decreasing perturbation raises b
        # and a) recovers strict admissibility without moving off the basin.
        if self.kind == "annulus":
            nudges = [0.0] + [10.0**j for j in range(-8, -1)]
            nudge_shape = (dom.r1 / r) ** 2
        else:
            nudges = [0.0]
            nudge_shape = np.zeros_like(r)
        for w in candidates:
            for eps in nudges:
                trial = w + eps * nudge_shape
                if self.admissible(trial, strict=True):
                    return trial
        raise SolverError("no strictly admissible initial iterate found")


def assemble(problem: RadialProblem, w, rhs, N: int | None = None,
             check_cone: bool = True):
    """Residual and tridiagonal Jacobian of a problem at the iterate w.

    Raises AdmissibilityError (carrying the worst node) when w leaves the
    closed cone beyond a finite-difference margin.
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
    converged: bool
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
    within the rounding floor of the stencil (J given), "step" when the Newton
    correction sup norm, and |dt| in the corrector, are within a few ulps of
    |w| and |t|, and None when the loop must go on.  A "floor" or "step" stop
    is floor-limited: this grid cannot resolve a residual below tol.
    """
    if norm <= tol:
        return "tol"
    if J is not None and norm <= _rounding_floor(w, J):
        return "floor"
    if (step <= _STEP_ULPS * _EPS * max(1.0, float(np.abs(w).max()))
            and abs(dt) <= _STEP_ULPS * _EPS * max(1.0, abs(t))):
        return "step"
    return None


def _newton_failure(system, rhs, w, history, step, what):
    """SolverError for a Newton solve that no stopping rule accepts."""
    _, J = system.residual_jacobian(w, rhs)
    floor = _rounding_floor(w, J)
    return SolverError(
        f"Newton {what}: residual {history[-1]:.3e}, rounding floor {floor:.3e}, "
        f"last Newton step {step:.3e}",
        history=history,
        diagnostics={"w_best": w.copy(), "floor": floor, "step": step})


def _damped_newton(system: RadialSystem, rhs, w0, config: SolverConfig) -> NewtonResult:
    """Cone-guarded damped Newton.

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
    if not system.admissible(w, strict=True):
        raise AdmissibilityError("initial iterate is not strictly admissible")
    G, J, F = system.root_residual_jacobian(w, rhs)
    gnorm = float(np.abs(G).max())
    norm = float(np.abs(F).max())
    history = [norm]
    for _ in range(config.max_iter):
        if norm <= config.tol:
            return NewtonResult(w, history, len(history) - 1, True)
        step = system.solve_linear(J, -G)
        snorm = float(np.abs(step).max())
        at_floor = _stop(w, step=snorm) is not None
        s = 1.0
        while not at_floor:
            trial = w + s * step
            if system.admissible(trial, strict=True):
                # An accepted trial's evaluation serves the next iteration.
                accepted = system.root_residual_jacobian(trial, rhs)
                if float(np.abs(accepted[0]).max()) < gnorm:
                    break
            # A full step that does not decrease a root-form norm already at
            # its rounding floor is taken: no damped step would do better.
            if s == 1.0 and _stop(w, gnorm, J=J):
                at_floor = True
                break
            s *= 0.5
            if s < config.min_damping:
                raise _newton_failure(system, rhs, w, history, snorm,
                                      "stalled: no admissible decreasing step")
        if at_floor:
            if system.admissible(w + step, strict=True):
                w = w + step
                history.append(float(np.abs(system.residual(w, rhs)).max()))
            return NewtonResult(w, history, len(history) - 1, True, floor_limited=True)
        w = trial
        G, J, F = accepted
        gnorm = float(np.abs(G).max())
        norm = float(np.abs(F).max())
        history.append(norm)
    if norm <= config.tol:
        return NewtonResult(w, history, config.max_iter, True)
    raise _newton_failure(system, rhs, w, history, snorm,
                          f"did not converge in {config.max_iter} iterations")


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

@dataclass
class Solution:
    w: np.ndarray
    r: np.ndarray
    newton: NewtonResult
    diagnostics: dict = field(default_factory=dict)


def solve_subcritical(problem: RadialProblem, config: SolverConfig,
                      w0=None) -> Solution:
    """Unique solution of sigma_k(lambda(V)) = f v^p for p < k.

    Also records a sub/super constant bracket built from the seed: for a
    large enough shift c, seed - c and seed + c are sub and super solutions,
    and the returned iterate is verified to lie between them.
    """
    n, k = problem.cone.n, problem.cone.k
    a = wgauge_rhs_exponent(n, k, problem.p)
    if a <= 0.0:
        raise ValueError("subcritical solve requires p < k")
    rhs = vpower_rhs(problem.f, n, k, problem.p)
    system = RadialSystem(problem, config.N)
    if np.any(problem.f_values(system.r) <= 0.0):
        raise ValueError("f must be positive on the domain")
    seed = np.asarray(w0, dtype=float) if w0 is not None else system.initial_guess()
    result = _damped_newton(system, rhs, seed, config)
    sig = sigma_k_radial(system.ab(seed), problem.cone)
    phi_seed = rhs.phi(system.r_eq, seed[system.rows])
    with np.errstate(divide="ignore"):
        ratios = np.log(np.maximum(sig, 1e-300) / np.maximum(phi_seed, 1e-300))
    c = float(np.abs(ratios).max()) / a + 1.0
    lower, upper = seed - c, seed + c
    bracket_ok = bool(np.all(result.w >= lower - 1e-8) and np.all(result.w <= upper + 1e-8))
    return Solution(result.w, system.r, result,
                    {"n": n, "bracket_halfwidth": c, "bracket_ok": bracket_ok})


# ---------------------------------------------------------------------------
# Case 2: p = k (eigenvalue)
# ---------------------------------------------------------------------------

@dataclass
class EigenResult:
    theta: float
    w: np.ndarray              # w = 0; every constant factor is a solution
    r: np.ndarray
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
    return EigenResult(theta, w, system.r, residual_check)


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
    cone: ConeParams
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
                frozen = _FrozenT(self._rhs, t)
                try:
                    res = _damped_newton(self._system, frozen, seed, self._config)
                except SolverError:
                    continue
                if not any(np.abs(res.w - w).max() <= 1e-6 * max(1.0, np.abs(w).max())
                           for w in found):
                    found.append(res.w)
        return found


def _v_probe(system: RadialSystem, w, beta: float) -> float:
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
    factored once by LAPACK banded LU.  The border is removed by mixed block
    elimination (Govaerts & Pryce, IMA J. Numer. Anal. 13, 1993; Govaerts,
    Numerical Methods for Bifurcations of Dynamical Equilibria, ch. 3), which
    stays accurate where A is nearly singular, as the continuation Jacobian is
    at a fold, provided the bordered matrix is regular.  An exactly zero pivot
    is deflated instead (_deflated_elimination).  One step of iterative
    refinement follows unless the normwise backward error of the first
    solution is already at rounding level.
    """
    n = band.shape[1]
    ab = np.zeros((2 * kl + ku + 1, n), order="F")
    ab[kl:] = band
    lu, piv, info = dgbtrf(ab, kl, ku, overwrite_ab=True)
    if info != 0:
        eliminate = _deflated_elimination(lu, piv, kl, ku, info - 1, col, row, corner)
    else:
        v = dgbtrs(lu, kl, ku, row, piv, trans=1)[0]
        w = dgbtrs(lu, kl, ku, col, piv)[0]
        schur_v = corner - v.dot(col)
        schur_w = corner - row.dot(w)
        if schur_v == 0.0 or schur_w == 0.0:
            raise SolverError("singular bordered system")

        def eliminate(f, g):
            y1 = (g - v.dot(f)) / schur_v
            x = dgbtrs(lu, kl, ku, f - y1 * col, piv)[0]
            y2 = (g - row.dot(x) - corner * y1) / schur_w
            return x - y2 * w, y1 + y2

    x, y = eliminate(f, g)
    r_top = f - _band_matvec(band, kl, ku, x) - y * col
    r_bot = g - row.dot(x) - corner * y
    resid = math.sqrt(r_top.dot(r_top) + r_bot * r_bot)
    if not math.isfinite(resid):
        raise SolverError("bordered solve is not finite")
    # Backward error |r| / (|M| |z| + |rhs|), |M| in the Frobenius norm (Rigal & Gaches).
    norm_m = math.sqrt(np.vdot(band, band) + col.dot(col) + row.dot(row) + corner * corner)
    size = norm_m * math.sqrt(x.dot(x) + y * y) + math.sqrt(f.dot(f) + g * g)
    if resid > _REFINE_ULPS * _EPS * size:
        dx, dy = eliminate(r_top, r_bot)
        x, y = x + dx, y + dy
    return x, float(y)


def _deflated_elimination(lu, piv, kl, ku, j, col, row, corner):
    """Block elimination for a band LU, A = P L U, with an exactly zero pivot U_jj.

    Deflation: the pivot is replaced by tau = max|U| (1 if U vanishes), which
    factors the regular Ah = P L Uh = A + tau P L e_j e_j^T.  With z = x_j as
    an extra unknown, A x = Ah x - tau P L e_j z, and Ah^-1 P L e_j = Uh^-1 e_j
    needs only a triangular band solve.  So x = Ah^-1 (f - col y) + z xe with
    xe = tau Uh^-1 e_j, and a 2x2 system in (z, y) closes the bordered one.
    It is regular when the bordered matrix is.  More than one zero pivot is
    not deflated and raises SolverError.
    """
    diag = lu[kl + ku]                   # U's diagonal in the dgbtrf layout
    if np.count_nonzero(diag == 0.0) > 1:
        raise SolverError("singular bordered system")
    tau = float(np.abs(lu[:kl + ku + 1]).max()) or 1.0
    lu[kl + ku, j] = tau
    e = np.zeros(lu.shape[1])
    e[j] = tau
    xe = dtbtrs(lu[:kl + ku + 1], e)[0]
    xb = dgbtrs(lu, kl, ku, col, piv)[0]
    schur = np.array([[1.0 - xe[j], xb[j]], [row.dot(xe), corner - row.dot(xb)]])
    if np.linalg.det(schur) == 0.0:
        raise SolverError("singular bordered system")

    def eliminate(f, g):
        xf = dgbtrs(lu, kl, ku, f, piv)[0]
        z, y = np.linalg.solve(schur, [xf[j], g - row.dot(xf)])
        return xf - y * xb + z * xe, y

    return eliminate


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
                inside = system._in_cone(ab)
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
                inside = system.admissible(w, strict=True)
                break
        else:
            raise SolverError(f"corrector did not converge in {max_iter} iterations")
    if not inside:
        raise SolverError("corrector left the admissible cone")
    return w, t, it, jac_t


def _dJphi_dw(system, frozen, w, J, phi, eps):
    """Tridiagonal d(J phi)/dw by a 3-colour Curtis-Powell-Reid difference.

    Row i of J depends on w[i-1 : i+2] only, so nodes i, i+3, i+6, ... can be
    perturbed together: three assemblies recover every column.  J is the
    Jacobian at w; the result is in the same solve_banded layout.
    """
    N = system.N
    base = _band_matvec(J, 1, 1, phi)
    H = np.zeros((3, N))
    rows = np.arange(N)
    for colour in range(min(3, N)):
        wp = w.copy()
        wp[colour::3] += eps
        _, Jp = system.residual_jacobian(wp, frozen)
        diff = (_band_matvec(Jp, 1, 1, phi) - base) / eps
        # The perturbed column of row i is the j in {i-1, i, i+1} with j = colour mod 3.
        off = (colour - rows + 1) % 3 - 1
        cols = rows + off
        ok = (cols >= 0) & (cols < N)
        H[1 - off[ok], cols[ok]] = diff[ok]
    return H


def _refine_fold(system, rhs, w, t, phi0, config):
    """Newton on the Moore-Spence extended fold system [F; J phi; c.phi - 1] = 0.

    Interleaving the unknowns as (w_0, phi_0, w_1, phi_1, ...) makes the
    (2N+1) Newton matrix a band (kl = 3, ku = 2) bordered by the t column and
    the c row, so an iteration costs five assemblies and one O(N) solve.

    |G| cannot fall below the rounding floor of the stencil, about
    eps |w| max|dsigma/da| / h^2 = eps |w| max|J_ii| / 2.  Refinement succeeds
    by _stop, with a fixed bound as the tolerance: |G| within that bound or a
    small multiple of the floor, or a Newton step within a few ulps of w and
    t.  It also succeeds once a Newton step stops halving |G| close to the
    larger of the bound and the floor.
    """
    N = system.N
    c = phi0 / np.linalg.norm(phi0)
    w, t = np.asarray(w, dtype=float), float(t)
    ph = phi0 / max(float(c @ phi0), 1e-300)
    G = np.empty(2 * N + 1)
    band = np.zeros((6, 2 * N))
    col = np.empty(2 * N)
    row = np.zeros(2 * N)
    row[1::2] = c
    prev = math.inf
    for _ in range(30):
        F, J, Ft = system.residual_jacobian(w, rhs, t=t)
        Jph = _band_matvec(J, 1, 1, ph)
        G[:-1:2] = F
        G[1:-1:2] = Jph
        G[-1] = c @ ph - 1.0
        gnorm = float(np.abs(G).max())
        bound = 1e-12 * max(1.0, float(np.abs(F).max())) + 1e-13
        if _stop(w, gnorm, bound, J) or (
                gnorm > 0.5 * prev and gnorm <= 100.0 * max(bound, _rounding_floor(w, J))):
            return w, t, ph, True
        prev = gnorm
        eps = 1e-7 * max(1.0, float(np.abs(w).max()))
        te = 1e-7 * max(1.0, abs(t))
        _, Jt, _ = system.residual_jacobian(w, rhs, t=t + te)
        # Row 2i holds F_i and row 2i+1 (J phi)_i: J sits in band rows 0, 2, 4
        # under both the w and the phi columns, d(J phi)/dw in rows 1, 3, 5.
        band[0::2, 0::2] = J
        band[0::2, 1::2] = J
        band[1::2, 0::2] = _dJphi_dw(system, _FrozenT(rhs, t), w, J, ph, eps)
        col[0::2] = Ft
        col[1::2] = (_band_matvec(Jt, 1, 1, ph) - Jph) / te
        dz, dt = _bordered_solve(band, 3, 2, col, row, 0.0, -G[:-1], -G[-1])
        dw = dz[0::2]
        w_new = w + dw
        if not system.admissible(w_new, strict=True):
            return w, t, ph, False
        step_stop = _stop(w, step=float(np.abs(dw).max()), t=t, dt=dt)
        w, t, ph = w_new, t + dt, ph + dz[1::2]
        if step_stop:
            return w, t, ph, True
    return w, t, ph, False


def _continue_branch(problem: RadialProblem, rhs, config: SolverConfig) -> Branch:
    system = RadialSystem(problem, config.N)
    cone = problem.cone
    beta = 0.5 * (cone.n - 2)

    # Starting point: small-t solution.
    t = config.t_start
    if t is None:
        t = 0.01
    if system.kind == "sphere":
        # Seed from the small-parameter asymptotics sigma_const ~ t conv delta e^{k beta w}.
        conv = wgauge_rhs_amplitude(1.0, cone.n, cone.k)
        d0 = rhs.delta(t) if hasattr(rhs, "delta") else 1.0
        w0 = np.array([math.log(system.sigma_const / (t * conv * max(d0, 1e-12)))
                       / (cone.k * beta)])
    else:
        w0 = system.initial_guess()
    res = _damped_newton(system, _FrozenT(rhs, t), w0, config)
    w = res.w

    samples = []
    folds = []
    termination = "max steps"
    tau = _tangent(system, rhs, w, t, prev=None)
    if tau[-1] < 0.0:
        tau = -tau
    delta_of = rhs.delta if hasattr(rhs, "delta") else (lambda _t: 1.0)
    samples.append(BranchSample(t, w.copy(), _v_probe(system, w, beta),
                                res.iterations, float(tau[-1]), float(delta_of(t))))
    ds = config.ds0
    crossed_fold = False
    t_star = None

    for _ in range(config.max_steps):
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

        if tau[-1] > 0.0 and tau_new[-1] < 0.0 and not crossed_fold:
            # Fold crossed between (w, t) and (w_new, t_new); bisect in arclength.
            a_state = (w.copy(), t, tau.copy())
            b_state = (w_new.copy(), t_new, tau_new.copy())
            gap = ds
            for _ in range(70):
                gap *= 0.5
                wa, ta, taua = a_state
                try:
                    wm, tm, _, jac_t = _corrector(system, rhs, wa + gap * taua[:-1],
                                                  ta + gap * taua[-1], taua, config)
                except SolverError:
                    break
                taum = _tangent(system, rhs, wm, tm, prev=taua, jac_t=jac_t)
                if taum[-1] > 0.0:
                    a_state = (wm, tm, taum)
                else:
                    b_state = (wm, tm, taum)
                if abs(a_state[1] - b_state[1]) <= 1e-12 * max(1.0, abs(tm)):
                    break
            wa, ta, taua = a_state
            t_star, w_star, refined = ta, wa, False
            if config.refine_fold:
                try:
                    wf, tf, _, ok = _refine_fold(system, rhs, wa, ta, taua[:-1], config)
                    if ok and abs(tf - ta) <= 0.05 * max(1.0, abs(ta)):
                        t_star, w_star, refined = tf, wf, True
                except SolverError:
                    pass
            folds.append(FoldMarker(float(t_star), np.asarray(w_star).copy(), refined))
            samples.append(BranchSample(float(t_star), np.asarray(w_star).copy(),
                                        _v_probe(system, np.asarray(w_star), beta),
                                        0, 0.0, float(delta_of(t_star))))
            crossed_fold = True

        w, t, tau = w_new, t_new, tau_new
        samples.append(BranchSample(t, w.copy(), _v_probe(system, w, beta),
                                    iters, float(tau[-1]), float(delta_of(t))))
        if iters <= 3:
            ds = min(ds * 1.4, config.ds_max)
        if not crossed_fold and t >= config.t_max:
            termination = "t_max reached"
            break
        if crossed_fold and t_star is not None and t <= config.after_fold_frac * t_star:
            termination = "fold crossed"
            break
        if float(np.abs(w).max()) > 1e3:
            termination = "solution norm blow-up"
            break

    return Branch(samples, folds, termination, cone, system, rhs, config)


def continuation_supercritical(problem: RadialProblem, config: SolverConfig) -> Branch:
    """Branch of sigma_k(lambda(V)) = t (delta_t + f v^p) for p > k with fold detection."""
    if problem.p <= problem.cone.k:
        raise ValueError("supercritical continuation requires p > k")
    rhs = ContinuationRHS(problem.cone, problem.p, problem.f, config.delta0)
    return _continue_branch(problem, rhs, config)


def general_rhs_continuation(problem: RadialProblem, phi_v, dphi_v_dv,
                             growth_class: str, config: SolverConfig,
                             c0: float = 0.0) -> Branch:
    """Continuation for sigma_k(lambda(V)) = t phi_v(x, v) with a declared growth class."""
    validate_growth(phi_v, problem.cone.k, growth_class, c0=c0)
    rhs = GeneralVRHS(problem.cone, phi_v, dphi_v_dv, growth_class)
    return _continue_branch(problem, rhs, config)
