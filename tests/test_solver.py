import math
from collections import Counter

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

from khessian.conformal import (
    Background,
    Gauge,
    jet_from_radial,
    wgauge_rhs_amplitude,
    wgauge_rhs_exponent,
)
from khessian.solver import (
    AdmissibilityError,
    Annulus,
    Ball,
    ContinuationRHS,
    ExpRHS,
    GeneralVRHS,
    RadialProblem,
    RadialSystem,
    SolverConfig,
    SolverError,
    SphereConstant,
    assemble,
    continuation_supercritical,
    general_rhs_continuation,
    newton_solve,
    solve_eigenvalue,
    solve_subcritical,
    validate_growth,
    vpower_rhs,
)
from khessian.radial import RadialAB, sigma_k_radial, sigma_k_radial_gradients
from khessian.symfunc import ConeParams, sigma_of_matrix

CONE32 = ConeParams(3, 2)
A32 = 3.0 / 16.0      # C(n,k) ((n-2)/4)^k for n=3, k=2


def dense_jacobian(system, J):
    """The N x N matrix of the banded (1, 1) Jacobian J of `system`."""
    A = np.zeros((system.N, system.N))
    A[np.arange(system.N), np.arange(system.N)] = J[1]
    A[np.arange(system.N - 1), np.arange(1, system.N)] = J[0, 1:]
    A[np.arange(1, system.N), np.arange(system.N - 1)] = J[2, :-1]
    return A


# Manufactured solution on the annulus [0.5, 2]: w* = 1.6 sqrt(r), which is
# strictly admissible for (n, k) = (3, 2).
W_STAR = lambda r: 1.6 * np.sqrt(r)
DW_STAR = lambda r: 0.8 * r**-0.5
D2W_STAR = lambda r: -0.4 * r**-1.5


def manufactured_rhs(a_exp):
    def f(r):
        r = np.asarray(r, dtype=float)
        a = D2W_STAR(r) + 0.5 * DW_STAR(r) ** 2
        b = DW_STAR(r) / r - 0.5 * DW_STAR(r) ** 2
        return (b**2 + 2 * a * b) * np.exp(-a_exp * W_STAR(r))
    return ExpRHS(f, a_exp)


def manufactured_problem():
    return RadialProblem(CONE32, Annulus(0.5, 2.0, W_STAR(0.5), W_STAR(2.0)),
                         p=0.0, f=None)


class TestAssemble:
    def test_manufactured_residual_vanishes(self):
        # phi built from the same FD reduction must reproduce w* exactly
        N = 96
        problem = manufactured_problem()
        system = RadialSystem(problem, N)
        w = W_STAR(system.r)

        class FDManufactured:
            def phi(self_, r, wv):
                from khessian.radial import sigma_k_radial
                ab = system._stencil(w)[2]
                return sigma_k_radial(ab, CONE32)

            def dphi_dw(self_, r, wv):
                return np.zeros_like(np.asarray(r, dtype=float))

            def evaluate(self_, r, wv):
                return self_.phi(r, wv), self_.dphi_dw(r, wv), 0.0

        F, _ = system.residual_jacobian(w, FDManufactured())
        assert np.abs(F).max() <= 1e-13

    def test_jacobian_matches_finite_differences(self):
        problem = manufactured_problem()
        system = RadialSystem(problem, 48)
        rng = np.random.default_rng(0)
        w = W_STAR(system.r) + 0.01 * rng.normal(size=48)
        rhs = manufactured_rhs(1.0)
        F, J = system.residual_jacobian(w, rhs)
        dense = dense_jacobian(system, J)
        eps = 1e-7
        for j in range(0, 48, 5):
            wp, wm = w.copy(), w.copy()
            wp[j] += eps
            wm[j] -= eps
            col = (system.residual(wp, rhs) - system.residual(wm, rhs)) / (2 * eps)
            assert np.abs(col - dense[:, j]).max() <= 1e-5

    def test_log_solution_zero_rhs_residual_small(self):
        # sigma_k of the discrete reduction of 2 log r is O(h^4/r^8)
        dom = Annulus(0.5, 2.0, 2 * math.log(0.5), 2 * math.log(2.0))
        problem = RadialProblem(CONE32, dom, p=0.0, f=None)
        N = 128
        system = RadialSystem(problem, N)
        w = 2 * np.log(system.r)
        F, _ = system.residual_jacobian(w, ExpRHS(0.0, 0.0), check_cone=True)
        assert np.abs(F).max() <= 1e-4

    def test_cone_violation_raises_with_node(self):
        dom = Annulus(0.5, 2.0, 0.0, -2.0)   # decreasing data: b < 0
        problem = RadialProblem(CONE32, dom, p=0.0, f=None)
        w = np.linspace(0.0, -2.0, 64)
        with pytest.raises(AdmissibilityError,
                           match=r"leaves the admissible cone at r=\S+ \(b=\S+, a\+theta\*b=\S+\)"):
            assemble(problem, w, ExpRHS(1.0, 0.0))

    def test_assemble_public_wrapper(self):
        problem = manufactured_problem()
        system = RadialSystem(problem, 32)
        w = W_STAR(system.r)
        F, J = assemble(problem, w, manufactured_rhs(1.0))
        assert F.shape == (32,) and J.shape == (3, 32)


class TestNewton:
    def test_manufactured_convergence_order(self):
        errs = {}
        hist = None
        for N in (64, 128, 256):
            res = newton_solve(manufactured_problem(), manufactured_rhs(1.0),
                               SolverConfig(N=N))
            r = np.linspace(0.5, 2.0, N)
            errs[N] = np.abs(res.w - W_STAR(r)).max()
            hist = res.residual_history
        order1 = math.log2(errs[64] / errs[128])
        order2 = math.log2(errs[128] / errs[256])
        assert 1.7 <= order1 <= 2.3
        assert 1.7 <= order2 <= 2.3
        # terminal quadratic contraction
        rates = [h for h in hist if 1e-12 < h < 1e-2]
        assert any(hist[i + 1] <= 10.0 * hist[i] ** 1.6
                   for i in range(len(hist) - 1) if 1e-12 < hist[i] < 1e-2), hist

    def test_sphere_constant_quick_convergence(self):
        # constant-curvature RHS: the constant solution is found in few steps
        problem = RadialProblem(CONE32, SphereConstant(), p=0.0, f=1.0)
        rhs = vpower_rhs(1.0, 3, 2, 0.0)
        res = newton_solve(problem, rhs, SolverConfig(N=1))
        assert res.iterations <= 5
        w_exact = math.log((3 / 4) / 4)   # sigma_const = f~ e^w
        assert res.w[0] == pytest.approx(w_exact, abs=1e-10)

    def test_log_data_zero_rhs_recovers_fundamental(self):
        # extremal data: the discrete solution sits on the cone boundary, so
        # interior iterates cannot certify a 1e-10 residual; the recovered
        # state still matches 2 log r to discretization accuracy.
        dom = Annulus(0.5, 2.0, 2 * math.log(0.5), 2 * math.log(2.0))
        problem = RadialProblem(CONE32, dom, p=0.0, f=None)
        N = 128
        try:
            res = newton_solve(problem, ExpRHS(0.0, 0.0), SolverConfig(N=N, max_iter=60))
            w = res.w
        except SolverError as err:
            w = err.diagnostics["w_best"]
        r = np.linspace(0.5, 2.0, N)
        assert np.abs(w - 2 * np.log(r)).max() <= 5e-3

    def test_extremal_annulus_fails_with_its_reason(self):
        # The discrete solution of the extremal-oscillation annulus sits on the
        # cone boundary: the residual stays far above the rounding floor and
        # the Newton step far above an ulp, so no stopping rule accepts it.
        dom = Annulus(0.5, 2.0, 2 * math.log(0.5), 2 * math.log(2.0))
        problem = RadialProblem(CONE32, dom, p=0.0, f=None)
        with pytest.raises(SolverError) as err:
            newton_solve(problem, ExpRHS(0.0, 0.0), SolverConfig(N=128, max_iter=60))
        message = str(err.value)
        assert message.startswith("Newton did not converge in 60 iterations: residual ")
        assert "rounding floor" in message and "last Newton step" in message
        diag = err.value.diagnostics
        assert err.value.history[-1] > 1e6 * diag["floor"]
        assert diag["step"] > 1e-8
        assert "consider a better initialization" not in message

    def test_inadmissible_start_raises(self):
        problem = manufactured_problem()
        with pytest.raises(AdmissibilityError):
            newton_solve(problem, manufactured_rhs(1.0),
                         SolverConfig(N=32), w0=np.linspace(0.0, -1.0, 32))

    @pytest.mark.parametrize("pivot", [0.0, -math.inf, math.nan])
    def test_sphere_newton_system_refuses_a_bad_pivot(self, pivot):
        # The 1x1 system is divided out, so a zero or non-finite pivot raises
        # as dgtsv's route does for N >= 2, instead of giving inf or NaN.
        system = RadialSystem(RadialProblem(CONE32, SphereConstant(), p=0.0, f=1.0), 1)
        J = np.array([[0.0], [pivot], [0.0]])
        with pytest.raises(SolverError, match="^Newton system: "):
            system.solve_linear(J, np.array([1.0]))
        assert system.solve_linear(np.array([[0.0], [-4.0], [0.0]]), np.array([1.0]))[0] == -0.25


class TestSubcritical:
    def test_manufactured_vform(self):
        # v-form manufactured solve with p = 0.5 (a > 0)
        a_exp = wgauge_rhs_exponent(3, 2, 0.5)
        conv = wgauge_rhs_amplitude(1.0, 3, 2)

        def fv(r):
            r = np.asarray(r, dtype=float)
            a = D2W_STAR(r) + 0.5 * DW_STAR(r) ** 2
            b = DW_STAR(r) / r - 0.5 * DW_STAR(r) ** 2
            return (b**2 + 2 * a * b) * np.exp(-a_exp * W_STAR(r)) / conv

        problem = RadialProblem(CONE32, Annulus(0.5, 2.0, W_STAR(0.5), W_STAR(2.0)),
                                p=0.5, f=fv)
        sol = solve_subcritical(problem, SolverConfig(N=128))
        r = np.linspace(0.5, 2.0, 128)
        assert np.abs(sol.w - W_STAR(r)).max() <= 1e-4

    def test_uniqueness_probe(self):
        a_exp = wgauge_rhs_exponent(3, 2, 0.5)
        conv = wgauge_rhs_amplitude(1.0, 3, 2)

        def fv(r):
            r = np.asarray(r, dtype=float)
            a = D2W_STAR(r) + 0.5 * DW_STAR(r) ** 2
            b = DW_STAR(r) / r - 0.5 * DW_STAR(r) ** 2
            return (b**2 + 2 * a * b) * np.exp(-a_exp * W_STAR(r)) / conv

        problem = RadialProblem(CONE32, Annulus(0.5, 2.0, W_STAR(0.5), W_STAR(2.0)),
                                p=0.5, f=fv)
        config = SolverConfig(N=96)
        base = solve_subcritical(problem, config)
        system = RadialSystem(problem, 96)
        for shift in (0.8, -0.8):
            other = solve_subcritical(problem, config,
                                      w0=system.initial_guess() + shift)
            assert np.abs(base.w - other.w).max() <= 1e-8

    def test_sphere_constant_vs_bisection_oracle(self):
        problem = RadialProblem(CONE32, SphereConstant(), p=0.0, f=1.0)
        sol = solve_subcritical(problem, SolverConfig(N=1))
        # scalar oracle: sigma_const = f (2/(n-2))^k e^{a w} with a = 1
        oracle = brentq(lambda w: 0.75 - 4.0 * math.exp(w), -10, 10, xtol=1e-14)
        assert sol.w[0] == pytest.approx(oracle, abs=1e-10)

    def test_requires_p_below_k(self):
        problem = RadialProblem(CONE32, SphereConstant(), p=3.0, f=1.0)
        with pytest.raises(ValueError):
            solve_subcritical(problem, SolverConfig(N=1))


def former_solve_eigenvalue(problem, config, a_sequence=None, w0=None):
    """The former vanishing-exponent scheme of `solve_eigenvalue`, kept as an
    oracle: damped-Newton solves of sigma_k(lambda(W)) = f~ e^{a w} for a
    decreasing sequence of exponents, theta_a = exp(a inf w_a) extrapolated
    to a -> 0 by a polynomial fit.  Returns (theta, w normalized by inf w = 0,
    theta sequence, residual check)."""
    from khessian.solver import _damped_newton

    n, k = problem.cone.n, problem.cone.k
    if a_sequence is None:
        a_sequence = [2.0**-j for j in range(1, 9)]
    system = RadialSystem(problem, config.N)
    w = np.asarray(w0, dtype=float).copy() if w0 is not None else system.initial_guess()
    thetas = []
    for a in a_sequence:
        result = _damped_newton(system, vpower_rhs(problem.f, n, k, k - 2.0 * a / (n - 2)),
                                w, config)
        w = result.w
        thetas.append(math.exp(a * float(w.min())))
    logt = np.log(thetas)
    aa = np.asarray(a_sequence, dtype=float)
    use = min(4, len(aa))
    coeffs = np.polyfit(aa[-use:], logt[-use:], min(2, use - 1))
    theta = float(np.exp(coeffs[-1]))
    if not np.isfinite(theta) or abs(math.log(max(thetas[-1], 1e-300)) - math.log(theta)) > 0.5:
        raise SolverError("theta sequence did not converge",
                          diagnostics={"theta_sequence": thetas, "a_sequence": list(aa)})
    w0 = w - w.min()
    if callable(problem.f):
        rhs_check = ExpRHS(lambda r, _f=problem.f, _c=theta * wgauge_rhs_amplitude(1.0, n, k):
                           _c * np.asarray(_f(r), dtype=float), 0.0)
    else:
        rhs_check = ExpRHS(theta * wgauge_rhs_amplitude(float(problem.f), n, k), 0.0)
    residual_check = float(np.abs(system.residual(w0, rhs_check)).max())
    return theta, w0, thetas, residual_check


# Every supercritical (n, k), k > n/2, with n <= 8.
SUPERCRITICAL = [(n, k) for n in range(3, 9) for k in range(n // 2 + 1, n + 1)]


def closed_form_theta(n, k, f):
    return math.comb(n, k) * 2.0**-k / ((2 / (n - 2)) ** k * f)


class TestEigenvalue:
    def test_theta_n3k2(self):
        problem = RadialProblem(CONE32, SphereConstant(), p=2.0, f=1.0)
        eig = solve_eigenvalue(problem)
        assert eig.theta == 3.0 / 16.0
        assert eig.residual_check == 0.0
        assert eig.w.tolist() == [0.0]

    def test_theta_n4k3(self):
        problem = RadialProblem(ConeParams(4, 3), SphereConstant(), p=3.0, f=1.0)
        assert abs(solve_eigenvalue(problem).theta - 0.5) <= math.ulp(0.5)

    @pytest.mark.parametrize("n, k", SUPERCRITICAL)
    def test_closed_form_within_one_ulp(self, n, k):
        for f in (0.5, 1.0, 1.9, 0.37, 2.6):
            eig = solve_eigenvalue(RadialProblem(ConeParams(n, k), SphereConstant(), p=k, f=f))
            want = closed_form_theta(n, k, f)
            assert abs(eig.theta - want) <= math.ulp(want)
            # sigma_k((1/2) I) - theta f (2/(n-2))^k, a few roundings of sigma
            sigma = math.comb(n, k) * 0.5**k
            assert eig.residual_check <= 4 * np.finfo(float).eps * sigma

    @pytest.mark.parametrize("n, k", SUPERCRITICAL)
    def test_agrees_with_the_former_scheme(self, n, k):
        # The former scheme stops its Newton solves at a residual of tol in
        # sigma - theta f~, which moves theta by up to theta tol / sigma.  50
        # of these 54 cases agree within 3e-11 relative; (7, 7) at f = 1,
        # where sigma = 2^-7, differs most, by 1.5e-9.
        tol = SolverConfig().tol
        sigma = math.comb(n, k) * 0.5**k
        for f in (0.5, 1.0, 1.9):
            problem = RadialProblem(ConeParams(n, k), SphereConstant(), p=k, f=f)
            theta = solve_eigenvalue(problem).theta
            former, _, _, _ = former_solve_eigenvalue(problem, SolverConfig(N=1))
            assert abs(theta - former) <= theta * tol / sigma

    def test_scaling_law(self):
        # doubling f halves theta, exactly: both steps are by a power of two
        p1 = RadialProblem(CONE32, SphereConstant(), p=2.0, f=1.3)
        p2 = RadialProblem(CONE32, SphereConstant(), p=2.0, f=2.6)
        assert solve_eigenvalue(p2).theta == 0.5 * solve_eigenvalue(p1).theta

    def test_f_is_read_at_the_sphere_node(self):
        # A callable f (an f_table in the CLI) is taken at the one node r = 1.
        table = lambda r: np.interp(r, [0.0, 1.0, 2.0], [5.0, 1.3, 0.1])
        const = solve_eigenvalue(RadialProblem(CONE32, SphereConstant(), p=2.0, f=1.3))
        tabled = solve_eigenvalue(RadialProblem(CONE32, SphereConstant(), p=2.0, f=table))
        assert tabled.theta == const.theta
        assert tabled.residual_check == const.residual_check

    @pytest.mark.parametrize("f", [0.0, -1.0, math.nan, math.inf,
                                   lambda r: np.interp(r, [0.0, 2.0], [1.0, -1.0])],
                             ids=["zero", "negative", "nan", "inf", "table_negative_at_1"])
    def test_rejects_f_not_positive_and_finite(self, f):
        problem = RadialProblem(CONE32, SphereConstant(), p=2.0, f=f)
        with pytest.raises(ValueError, match="f must be positive"):
            solve_eigenvalue(problem)

    def test_shift_invariance_of_normalized_solution(self):
        # solutions are closed under additive constants: shifted seeds give
        # the same normalized output of the former scheme
        problem = RadialProblem(CONE32, SphereConstant(), p=2.0, f=1.0)
        config = SolverConfig(N=1)
        base_theta, base_w, _, _ = former_solve_eigenvalue(problem, config)
        for shift in (2.0, -2.0):
            theta, w, _, _ = former_solve_eigenvalue(problem, config, w0=np.array([shift]))
            assert np.abs(base_w - w).max() <= 1e-8
            assert base_theta == pytest.approx(theta, rel=1e-8)

    @pytest.mark.parametrize("domain", [Ball(1.0, 0.0), Annulus(0.5, 1.0, 0.0, 0.0)],
                             ids=["ball", "annulus"])
    def test_rejects_domains_off_the_sphere(self, domain):
        problem = RadialProblem(CONE32, domain, p=2.0, f=1.0)
        with pytest.raises(ValueError, match="defined only on the sphere reduction"):
            solve_eigenvalue(problem)


class TestContinuation:
    def fold_branch(self, delta0=1.0, **kw):
        problem = RadialProblem(CONE32, SphereConstant(), p=4.0, f=1.0)
        config = SolverConfig(N=1, delta0=delta0, ds0=0.02, t_start=0.005,
                              after_fold_frac=0.6, **kw)
        return continuation_supercritical(problem, config)

    def test_fold_location(self):
        branch = self.fold_branch()
        assert branch.t_star == pytest.approx(3.0 / 32.0, rel=1e-8)
        v_fold = math.exp(-0.5 * branch.folds[0].w_star[0])
        assert v_fold == pytest.approx(1.0, rel=1e-5)   # v* = (k delta/(p-k))^{1/p}

    def test_two_solutions_below_fold(self):
        branch = self.fold_branch()
        t_star = 3.0 / 32.0
        t_query = 0.9 * t_star
        sols = branch.solutions_at(t_query)
        vs = sorted(math.exp(-0.5 * w[0]) for w in sols)
        assert len(vs) == 2
        g = lambda v: A32 * v**2 - t_query * (1 + v**4)
        oracle = sorted([brentq(g, 1e-6, 1.0, xtol=1e-15),
                         brentq(g, 1.0, 50.0, xtol=1e-15)])
        assert vs[0] == pytest.approx(oracle[0], abs=1e-8)
        assert vs[1] == pytest.approx(oracle[1], abs=1e-8)

    def test_tangent_sign_change_at_fold(self):
        branch = self.fold_branch()
        pre = [s.tangent_t for s in branch.samples if s.tangent_t > 1e-6]
        post = [s.tangent_t for s in branch.samples if s.tangent_t < -1e-6]
        assert pre and post

    def test_jacobian_eigenvalue_flips_across_fold(self):
        branch = self.fold_branch()
        problem = RadialProblem(CONE32, SphereConstant(), p=4.0, f=1.0)
        system = RadialSystem(problem, 1)
        rhs = ContinuationRHS(CONE32, 4.0, 1.0, 1.0)
        pre = [s for s in branch.samples if s.tangent_t > 1e-3][-1]
        post = [s for s in branch.samples if s.tangent_t < -1e-3][0]
        signs = []
        for s in (pre, post):
            J = system.residual_jacobian(s.w, rhs, t=s.t)[1]
            signs.append(math.copysign(1.0, J[1, 0]))
        assert signs[0] * signs[1] < 0.0

    def test_delta0_to_zero_limit(self):
        # upper-branch solution at t = 1 approaches the solution of the
        # unregularized equation, v = sqrt(A)
        upper = {}
        for d0 in (0.008, 0.002, 0.0005):
            problem = RadialProblem(CONE32, SphereConstant(), p=4.0, f=1.0)
            config = SolverConfig(N=1, delta0=d0, ds0=0.05, t_start=0.005,
                                  t_max=5.0, after_fold_frac=0.2)
            branch = continuation_supercritical(problem, config)
            sols = branch.solutions_at(1.0)
            vs = sorted(math.exp(-0.5 * w[0]) for w in sols)
            assert len(vs) == 2
            g = lambda v: A32 * v**2 - (d0 + v**4)
            vsplit = math.sqrt(A32 / 2)
            oracle = sorted([brentq(g, 1e-9, vsplit, xtol=1e-15),
                             brentq(g, vsplit, 50.0, xtol=1e-15)])
            assert vs[0] == pytest.approx(oracle[0], abs=1e-8)
            assert vs[1] == pytest.approx(oracle[1], abs=1e-8)
            upper[d0] = vs[1]
        target = math.sqrt(A32)
        gaps = [abs(upper[d] - target) for d in (0.008, 0.002, 0.0005)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 5e-3

    def test_branch_csv_fields_consistent(self):
        branch = self.fold_branch()
        for s in branch.samples:
            assert s.delta_t == pytest.approx(1.0)   # delta0 = 1 and t <= 1
            assert np.isfinite(s.v_probe)

    def test_requires_supercritical_exponent(self):
        problem = RadialProblem(CONE32, SphereConstant(), p=1.0, f=1.0)
        with pytest.raises(ValueError):
            continuation_supercritical(problem, SolverConfig(N=1))

    @pytest.mark.parametrize("n,k,p", [(4, 3, 5.0), (5, 4, 6.0)])
    def test_fold_other_cone_parameters(self, n, k, p):
        # closed-form tangency of A v^k = t (1 + v^p):
        # v* = (k/(p-k))^{1/p}, t* = A v*^k (p-k) / p
        A = math.comb(n, k) * ((n - 2) / 4.0) ** k
        v_star = (k / (p - k)) ** (1.0 / p)
        t_star = A * v_star**k * (p - k) / p
        problem = RadialProblem(ConeParams(n, k), SphereConstant(), p=p, f=1.0)
        config = SolverConfig(N=1, delta0=1.0, ds0=0.02,
                              t_start=0.02 * t_star, after_fold_frac=0.6)
        branch = continuation_supercritical(problem, config)
        assert branch.t_star == pytest.approx(t_star, rel=1e-8)
        beta = 0.5 * (n - 2)
        v_fold = math.exp(-beta * branch.folds[0].w_star[0])
        assert v_fold == pytest.approx(v_star, rel=1e-4)


class TestAnnulusContinuation:
    def test_pde_branch_folds_with_two_solutions(self):
        # non-scalar continuation: fixed Dirichlet data caps the attainable
        # curvature, so the branch folds at small t with two solutions below
        wstar = lambda r: 1.6 * np.sqrt(r)
        problem = RadialProblem(CONE32,
                                Annulus(0.5, 2.0, wstar(0.5), wstar(2.0)),
                                p=4.0, f=1.0)
        config = SolverConfig(N=48, delta0=1.0, ds0=0.02, t_start=1e-3,
                              t_max=50.0, after_fold_frac=0.7)
        branch = continuation_supercritical(problem, config)
        assert len(branch.folds) == 1
        t_star = branch.t_star
        sols = branch.solutions_at(0.9 * t_star)
        assert len(sols) == 2
        assert np.abs(sols[0] - sols[1]).max() > 1e-4

        # smallest-magnitude Jacobian eigenvalue changes sign across the fold
        system = RadialSystem(problem, 48)
        rhs = ContinuationRHS(CONE32, 4.0, 1.0, 1.0)
        pre = [s for s in branch.samples if s.tangent_t > 1e-3][-1]
        post = [s for s in branch.samples if s.tangent_t < -1e-3][0]
        eigs = []
        for s in (pre, post):
            J = system.residual_jacobian(s.w, rhs, t=s.t)[1]
            lam = np.linalg.eigvals(dense_jacobian(system, J))
            eigs.append(float(lam[np.argmin(np.abs(lam))].real))
        assert eigs[0] * eigs[1] < 0.0

        # and no solution survives above the fold
        with pytest.raises(SolverError):
            from khessian.solver import _damped_newton
            _damped_newton(system, rhs, branch.folds[0].w_star.copy(), config,
                           1.05 * t_star)



def within_ulps(x, y, n):
    return abs(x - y) <= n * math.ulp(y)


def annulus_fold_branch(N):
    """(3,2,4) annulus branch through its fold, and its problem."""
    problem = RadialProblem(CONE32, Annulus(0.5, 2.0, W_STAR(0.5), W_STAR(2.0)),
                            p=4.0, f=1.0)
    config = SolverConfig(N=N, delta0=1.0, ds0=0.02, t_start=1e-3, t_max=50.0,
                          after_fold_frac=0.7)
    return continuation_supercritical(problem, config), problem


def dense_band(band, kl, ku, n):
    """Dense matrix of a band stored in solve_banded layout."""
    A = np.zeros((n, n))
    for i in range(n):
        for j in range(max(0, i - kl), min(n, i + ku + 1)):
            A[i, j] = band[ku + i - j, j]
    return A


def dense_bordered_solve(band, kl, ku, col, row, corner, f, g):
    n = band.shape[1]
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = dense_band(band, kl, ku, n)
    M[:n, n] = col
    M[n, :n] = row
    M[n, n] = corner
    z = np.linalg.solve(M, np.append(f, g))
    return z[:n], float(z[n])


class TestBorderedBanded:
    def check(self, band, kl, ku, col, row, corner, f, g):
        from khessian.solver import _bordered_solve
        x, y = _bordered_solve(band, kl, ku, col, row, corner, f, g)
        xr, yr = dense_bordered_solve(band, kl, ku, col, row, corner, f, g)
        got, want = np.append(x, y), np.append(xr, yr)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 40])
    @pytest.mark.parametrize("kl,ku", [(1, 1), (3, 2)])
    def test_random_systems(self, n, kl, ku):
        rng = np.random.default_rng([n, kl, ku])
        for _ in range(5):
            band = rng.normal(size=(kl + ku + 1, n))
            self.check(band, kl, ku, rng.normal(size=n), rng.normal(size=n),
                       float(rng.normal()), rng.normal(size=n), float(rng.normal()))

    def test_random_tridiagonal_at_continuation_size(self):
        # Random (3, 2) bands of this size draw condition numbers up to 6e7,
        # beyond what a 1e-10 agreement of two backward-stable solves allows;
        # random tridiagonal ones stay below 3e5.
        self.test_random_systems(384, 1, 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 40, 384])
    @pytest.mark.parametrize("kl,ku", [(1, 1), (3, 2)])
    @pytest.mark.parametrize("corner", [0.0, 0.7])
    def test_zero_pivot_is_deflated(self, n, kl, ku, corner):
        # A = diag(0, 1, ..., 1) is singular, the border e_0 makes it regular.
        band = np.zeros((kl + ku + 1, n))
        band[ku] = 1.0
        band[ku, 0] = 0.0
        e0 = np.zeros(n)
        e0[0] = 1.0
        rng = np.random.default_rng([n, kl, ku])
        self.check(band, kl, ku, e0, e0, corner, rng.normal(size=n), float(rng.normal()))

    @pytest.mark.parametrize("n", [2, 3, 5, 40, 384])
    @pytest.mark.parametrize("kl,ku", [(1, 1), (3, 2)])
    def test_regular_shift_border(self, n, kl, ku):
        # A has ones on its super-diagonal, so its first pivot is zero; with
        # col = e_{n-1}, row = e_0 and corner 0 the bordered matrix is a permutation.
        band = np.zeros((kl + ku + 1, n))
        band[ku - 1, 1:] = 1.0
        e0, last = np.zeros(n), np.zeros(n)
        e0[0] = last[-1] = 1.0
        rng = np.random.default_rng([n, kl, ku])
        self.check(band, kl, ku, last, e0, 0.0, rng.normal(size=n), float(rng.normal()))

    def test_zero_column_inside_the_band(self):
        rng = np.random.default_rng(9)
        band = rng.normal(size=(3, 40))
        band[:, 17] = 0.0
        self.check(band, 1, 1, rng.normal(size=40), rng.normal(size=40), 0.3,
                   rng.normal(size=40), 1.0)

    def test_two_zero_pivots_are_singular(self):
        from khessian.solver import _bordered_solve
        band = np.zeros((3, 6))
        band[1, 2:] = 1.0
        with pytest.raises(SolverError, match="singular bordered system"):
            _bordered_solve(band, 1, 1, np.ones(6), np.ones(6), 0.0, np.ones(6), 1.0)

    def test_tridiagonal_blocks_skip_the_band_lu(self, monkeypatch):
        # kl = ku = 1 with n >= 3 goes through dgttrf/dgttrs, in one bordered
        # solve and in a whole annulus continuation; only the fold system's
        # (3, 2) band reaches the band LU.
        from scipy.linalg import lapack
        band_lu, shapes = lapack.dgbtrf, []

        def tridiagonal_refused(ab, kl, ku, **kwargs):
            if kl == ku == 1:
                raise AssertionError("band LU called on a tridiagonal block")
            shapes.append((kl, ku))
            return band_lu(ab, kl, ku, **kwargs)

        monkeypatch.setattr(lapack, "dgbtrf", tridiagonal_refused)
        rng = np.random.default_rng(11)
        self.check(rng.normal(size=(3, 3)), 1, 1, rng.normal(size=3), rng.normal(size=3),
                   0.4, rng.normal(size=3), 1.0)
        branch, _ = annulus_fold_branch(48)
        assert [f.refined for f in branch.folds] == [True]
        assert set(shapes) == {(3, 2)}

    def test_fold_state_of_annulus_branch(self):
        branch, problem = annulus_fold_branch(48)
        fold = branch.folds[0]
        system = RadialSystem(problem, 48)
        rhs = ContinuationRHS(CONE32, 4.0, 1.0, 1.0)
        _, J, Ft = system.residual_jacobian(fold.w_star, rhs, t=fold.t_star)
        _, s, vt = np.linalg.svd(dense_jacobian(system, J))
        assert s[-1] <= 1e-6 * s[0]          # J is near-singular at the fold
        rng = np.random.default_rng(3)
        for row, corner in ((vt[-1], 0.0), (vt[-1] + 0.1 * rng.normal(size=48), 0.3)):
            self.check(J, 1, 1, Ft, row, corner, rng.normal(size=48), 1.0)


class TestFoldRefinement:
    @pytest.mark.parametrize("rhs_kind", ["continuation", "general"])
    @pytest.mark.parametrize("nk", [(3, 2), (5, 3), (5, 4)])
    @pytest.mark.parametrize("kind", ["annulus", "ball", "sphere"])
    def test_exact_dJphi_matches_central_differences(self, kind, nk, rhs_kind):
        # k >= 3 exercises the a-term of sigma_bb; the ball's row 0 its ghost.
        cone = ConeParams(*nk)
        N = 1 if kind == "sphere" else 20
        domain = {"annulus": Annulus(0.5, 2.0, 0.0, 0.0), "ball": Ball(1.0, 0.5),
                  "sphere": SphereConstant()}[kind]
        system = RadialSystem(RadialProblem(cone, domain, p=cone.k + 2.0, f=1.0), N)
        rng = np.random.default_rng([len(kind), *nk, len(rhs_kind)])
        r = system.r
        w = {"annulus": 0.2 * r**2, "ball": 0.4 * r**2 + 0.1 * r**4,
             "sphere": np.array([0.3])}[kind] + 1e-4 * rng.normal(size=N)
        assert system.admissible(w)
        if rhs_kind == "continuation":
            f = lambda x: 1.0 + np.asarray(x, dtype=float) ** 2
            rhs, t = ContinuationRHS(cone, cone.k + 2.0, f, delta0=0.3), 1.4
        else:
            rhs, t = GeneralVRHS(cone, lambda x, v: 1.0 + v**4 + v**0.5,
                                 lambda x, v: 4.0 * v**3 + 0.5 * v**-0.5,
                                 lambda x, v: 12.0 * v**2 - 0.25 * v**-1.5), 0.7
        ph = rng.normal(size=N)
        F, J, Ft, Jph_w, Jph_t = system.residual_jacobian(w, rhs, t=t, ph=ph)
        assert_same_bits(J, system.residual_jacobian(w, rhs, t=t)[1])
        eps = 1e-6
        want_w, dFt_dw = np.empty((N, N)), np.empty((N, N))
        for j in range(N):
            wp, wm = w.copy(), w.copy()
            wp[j] += eps
            wm[j] -= eps
            (_, Jp, Ftp), (_, Jm, Ftm) = (system.residual_jacobian(x, rhs, t=t)
                                          for x in (wp, wm))
            want_w[:, j] = (dense_jacobian(system, Jp) - dense_jacobian(system, Jm)) @ ph / (2 * eps)
            dFt_dw[:, j] = (Ftp - Ftm) / (2 * eps)
        # d(J ph)/dt = (d/dw dF/dt) ph: differencing dF/dt in w avoids the
        # cancellation of J's O(1/h^2) entries in a difference in t.
        want_t = dFt_dw @ ph
        got_w = dense_jacobian(system, Jph_w)
        # Agreement is 4e-13 to 2e-10, and 8e-8 on the stiffer (5, 4) ball,
        # where the difference's truncation error falls as eps^2.
        assert np.abs(got_w - want_w).max() <= 1e-6 * np.abs(want_w).max()
        assert np.abs(Jph_t - want_t).max() <= 1e-8 * np.abs(want_t).max()

    def test_moore_spence_residual_falls_quadratically(self, monkeypatch):
        from khessian import solver
        norms = []
        assemble_once = RadialSystem.residual_jacobian

        def recorded(self, w, rhs, *args, ph=None, **kwargs):
            out = assemble_once(self, w, rhs, *args, ph=ph, **kwargs)
            if ph is not None:
                # c.ph - 1 is linear in ph: every Newton step zeroes it.
                F, J = out[:2]
                norms.append((max(np.abs(F).max(), np.abs(solver._band_matvec(J, 1, 1, ph)).max()),
                              solver._rounding_floor(w, J)))
            return out

        monkeypatch.setattr(RadialSystem, "residual_jacobian", recorded)
        branch, _ = annulus_fold_branch(96)
        assert [f.refined for f in branch.folds] == [True]
        g = [norm for norm, _ in norms]
        # The first step starts from the tangent before the fold; from the
        # second iterate on the residual squares until the last one, which
        # stops by _stop within the rounding floor of the stencil.
        assert len(g) <= 6
        assert g[-1] <= norms[-1][1] < g[-2]
        assert all(b <= a * a for a, b in zip(g[1:-2], g[2:-1]))
        assert math.log(g[3] / g[2]) / math.log(g[2] / g[1]) >= 1.5

    def test_each_iteration_assembles_once(self, monkeypatch):
        from khessian import solver
        calls = count_assemblies(monkeypatch)
        refine, bordered_solve = solver._refine_fold, solver._bordered_solve
        inside, solves = Counter(), []

        def counted_refine(*args):
            before = calls.copy()
            out = refine(*args)
            inside.update(calls - before)
            return out

        def counted_solve(band, kl, ku, *args):
            solves.append(kl)
            return bordered_solve(band, kl, ku, *args)

        monkeypatch.setattr(solver, "_refine_fold", counted_refine)
        monkeypatch.setattr(solver, "_bordered_solve", counted_solve)
        branch, _ = annulus_fold_branch(96)
        assert [f.refined for f in branch.folds] == [True]
        # One assembly per Newton step (kl = 3 is the fold system's band), and
        # one more whose residual stops on the floor.
        iterations = solves.count(3)
        assert 2 <= iterations <= 5
        assert inside == {"residual_jacobian": iterations + 1}

    @pytest.mark.parametrize("N", [96, 192])
    def test_refined_at_rounding_floor(self, N):
        from khessian.radial import sigma_k_radial_gradients
        branch, problem = annulus_fold_branch(N)
        assert [f.refined for f in branch.folds] == [True]
        fold = branch.folds[0]
        system = RadialSystem(problem, N)
        rhs = ContinuationRHS(CONE32, 4.0, 1.0, 1.0)
        F = system.residual(fold.w_star, rhs, t=fold.t_star)
        sa, _ = sigma_k_radial_gradients(system._stencil(fold.w_star)[2], CONE32)
        floor = (np.finfo(float).eps * np.abs(fold.w_star).max()
                 * np.abs(sa).max() / system.h**2)
        assert np.abs(F).max() <= 8.0 * floor
        assert all(s.t <= fold.t_star for s in branch.samples)

    def test_branch_matches_dense_bordered_reference(self, monkeypatch):
        from khessian import solver
        branch, _ = annulus_fold_branch(96)
        monkeypatch.setattr(solver, "_bordered_solve", dense_bordered_solve)
        reference, _ = annulus_fold_branch(96)
        t = np.array([s.t for s in branch.samples])
        t_ref = np.array([s.t for s in reference.samples])
        assert t.shape == t_ref.shape
        assert np.abs(t - t_ref).max() <= 1e-12 * np.abs(t_ref).max()
        assert branch.t_star == pytest.approx(reference.t_star, rel=1e-12)


SPHERE_CONTINUE = ((3, 2, 4.0), (4, 3, 5.0), (5, 3, 4.0), (5, 4, 6.0))


def sphere_t_of_w(n, k, p, f, w, delta0=1.0):
    """t of the sphere branch of ContinuationRHS at w where delta = delta0:
    C(n,k) 2^-k = t conv (delta0 e^{k beta w} + f e^{(k-p) beta w}), beta = (n-2)/2."""
    beta, conv = 0.5 * (n - 2), wgauge_rhs_amplitude(1.0, n, k)
    return math.comb(n, k) * 2.0**-k / (
        conv * (delta0 * math.exp(k * beta * w) + f * math.exp((k - p) * beta * w)))


def sphere_fold_closed_form(n, k, p, f, delta0=1.0):
    """t* of that branch: the fold lies where e^{p beta w*} = (p-k) f / (k delta0)."""
    w_star = math.log((p - k) * f / (k * delta0)) / (p * 0.5 * (n - 2))
    return sphere_t_of_w(n, k, p, f, w_star, delta0)


def sphere_continuation_cases():
    """(seed, (n, k, p), f) of the sphere continuation files that the
    banded_newton benchmark workload writes for seeds 0-30: its generator
    draws six numbers for the ball and p = k files, then one f per (n, k, p)."""
    for seed in range(31):
        rng = np.random.default_rng([seed, sum(map(ord, "banded_newton"))])
        rng.uniform(size=6)
        for nkp, f in zip(SPHERE_CONTINUE, rng.uniform(0.5, 2.0, size=4)):
            yield seed, nkp, float(f)


def fold_bracket(branch):
    """The two consecutive samples between which the tangent's t-component
    turns from positive to negative."""
    pairs = [(a, b) for a, b in zip(branch.samples, branch.samples[1:])
             if a.tangent_t > 0.0 and b.tangent_t < 0.0]
    assert len(pairs) == 1
    return pairs[0]


class TestFoldLocation:
    """Refinement starts from the last sample before the fold; a failed
    refinement reports the bracket sample with the larger t."""

    def test_sphere_folds_match_closed_form(self):
        cases = list(sphere_continuation_cases())
        assert len(cases) == 124
        bad = []
        for seed, (n, k, p), f in cases:
            problem = RadialProblem(ConeParams(n, k), SphereConstant(), p=p, f=f)
            config = SolverConfig(N=1, ds0=0.02, t_start=0.005, after_fold_frac=0.6)
            branch = continuation_supercritical(problem, config)
            want = sphere_fold_closed_form(n, k, p, f)
            if ([fold.refined for fold in branch.folds] != [True]
                    or not within_ulps(branch.t_star, want, 4)
                    or max(s.t for s in branch.samples) != branch.t_star):
                bad.append((seed, (n, k, p), f, branch.t_star, want))
            if seed == 0:
                # Every sample of the branch lies on t(w) within the corrector's tol.
                off = [abs(s.t - sphere_t_of_w(n, k, p, f, float(s.w[0])))
                       for s in branch.samples]
                assert max(off) <= config.tol, ((n, k, p), max(off))
        assert not bad, bad

    @pytest.mark.parametrize("domain", ["sphere", "annulus"])
    @pytest.mark.parametrize("failure", ["not ok", "raises"])
    def test_failed_refinement_reports_the_bracket(self, monkeypatch, domain, failure):
        from khessian import solver

        def refine(system, rhs, w, t, phi0):
            if failure == "raises":
                raise SolverError("refinement failed")
            return w + 1e-3, t * 1.5, False

        monkeypatch.setattr(solver, "_refine_fold", refine)
        if domain == "sphere":
            problem = RadialProblem(CONE32, SphereConstant(), p=4.0, f=1.0)
            branch = continuation_supercritical(problem, SolverConfig(
                N=1, ds0=0.02, t_start=0.005, after_fold_frac=0.6))
        else:
            branch, _ = annulus_fold_branch(48)
        assert [fold.refined for fold in branch.folds] == [False]
        assert branch.termination == "fold crossed"
        a, b = fold_bracket(branch)
        top = a if a.t >= b.t else b
        assert branch.t_star == top.t == max(a.t, b.t)
        assert_same_bits(branch.folds[0].w_star, top.w)
        # No fold sample was added: every t of the branch occurs once.
        ts = [s.t for s in branch.samples]
        assert len(set(ts)) == len(ts)

    @pytest.mark.parametrize("move", ["state beyond the chord", "t below the bracket"])
    def test_converged_fold_outside_the_bracket_is_rejected(self, monkeypatch, move):
        from khessian import solver
        refine = solver._refine_fold

        def moved(system, rhs, w, t, phi0):
            if move == "t below the bracket":
                return w, t * (1.0 - 1e-6), True
            wf, tf, ok = refine(system, rhs, w, t, phi0)
            assert ok
            # The sphere's chords are at most ds_max = 0.3 long.
            return wf + 1.0, tf, ok

        monkeypatch.setattr(solver, "_refine_fold", moved)
        problem = RadialProblem(CONE32, SphereConstant(), p=4.0, f=1.0)
        branch = continuation_supercritical(problem, SolverConfig(
            N=1, ds0=0.02, t_start=0.005, after_fold_frac=0.6))
        assert [fold.refined for fold in branch.folds] == [False]
        a, b = fold_bracket(branch)
        assert branch.t_star == max(a.t, b.t)


# ---------------------------------------------------------------------------
# Oracles: the assembly and RHS code that the fused evaluation replaced, kept
# verbatim apart from `self` becoming `system`.  The fused code must give the
# same bits.
# ---------------------------------------------------------------------------

def former_exp(x):
    return np.exp(np.clip(x, -700.0, 700.0))


def former_smoothstep5(x):
    x = np.clip(x, 0.0, 1.0)
    return x**3 * (10.0 - 15.0 * x + 6.0 * x**2)


def former_smoothstep5_d(x):
    inside = (x > 0.0) & (x < 1.0)
    return np.where(inside, 30.0 * x**2 * (1.0 - x) ** 2, 0.0)


def former_fv(f, r):
    if callable(f):
        return np.asarray(f(r), dtype=float)
    return float(f)


class FormerExpRHS:
    def __init__(self, f, a):
        self.f, self.a = f, a

    def phi(self, r, w):
        return former_fv(self.f, r) * former_exp(self.a * w)

    def dphi_dw(self, r, w):
        return self.a * self.phi(r, w)


class FormerContinuationRHS:
    def __init__(self, rhs):
        self.cone, self.p, self.f, self.delta0 = rhs.cone, rhs.p, rhs.f, rhs.delta0
        self.conv, self.beta = rhs.conv, rhs.beta

    def delta(self, t):
        return self.delta0 + (1.0 - self.delta0) * float(former_smoothstep5(t - 1.0))

    def ddelta_dt(self, t):
        return (1.0 - self.delta0) * float(former_smoothstep5_d(t - 1.0))

    def _terms(self, r, w):
        k, p, b = self.cone.k, self.p, self.beta
        e_delta = former_exp(k * b * w)
        e_power = former_exp((k - p) * b * w)
        return e_delta, former_fv(self.f, r) * e_power

    def phi(self, r, w, t):
        e_delta, e_power = self._terms(r, w)
        return t * self.conv * (self.delta(t) * e_delta + e_power)

    def dphi_dw(self, r, w, t):
        k, p, b = self.cone.k, self.p, self.beta
        e_delta, e_power = self._terms(r, w)
        return t * self.conv * (k * b * self.delta(t) * e_delta + (k - p) * b * e_power)

    def dphi_dt(self, r, w, t):
        e_delta, e_power = self._terms(r, w)
        return self.conv * (self.delta(t) * e_delta + e_power
                            + t * self.ddelta_dt(t) * e_delta)


class FormerGeneralVRHS:
    def __init__(self, rhs):
        self.cone, self.phi_v, self.dphi_v_dv = rhs.cone, rhs.phi_v, rhs.dphi_v_dv
        self.conv, self.beta = rhs.conv, rhs.beta

    def phi(self, r, w, t):
        k, b = self.cone.k, self.beta
        v = former_exp(-b * w)
        return t * self.conv * former_exp(k * b * w) * self.phi_v(r, v)

    def dphi_dw(self, r, w, t):
        k, b = self.cone.k, self.beta
        v = former_exp(-b * w)
        base = former_exp(k * b * w)
        return t * self.conv * base * (k * b * self.phi_v(r, v)
                                       - b * v * self.dphi_v_dv(r, v))

    def dphi_dt(self, r, w, t):
        k, b = self.cone.k, self.beta
        v = former_exp(-b * w)
        return self.conv * former_exp(k * b * w) * self.phi_v(r, v)


class FormerFrozenT:
    def __init__(self, rhs, t):
        self.rhs, self.t = rhs, t

    def phi(self, r, w):
        return self.rhs.phi(r, w, self.t)

    def dphi_dw(self, r, w):
        return self.rhs.dphi_dw(r, w, self.t)


def former_derivatives(system, w):
    if system.kind == "sphere":
        return np.zeros(1), np.zeros(1), np.array([0])
    h = system.h
    if system.kind == "annulus":
        idx = np.arange(1, system.N - 1)
        d1 = (w[idx + 1] - w[idx - 1]) / (2 * h)
        d2 = (w[idx + 1] - 2 * w[idx] + w[idx - 1]) / h**2
        return d1, d2, idx
    idx = np.arange(0, system.N - 1)
    wm = np.r_[w[0], w[:-2]]
    d1 = (w[idx + 1] - wm) / (2 * h)
    d2 = (w[idx + 1] - 2 * w[idx] + wm) / h**2
    return d1, d2, idx


def former_ab(system, w):
    d1, d2, idx = former_derivatives(system, w)
    r = system.r[idx]
    return RadialAB(d2 + 0.5 * d1**2, d1 / r - 0.5 * d1**2)


def former_residual(system, w, rhs):
    if system.kind == "sphere":
        return np.array([system.sigma_const - float(rhs.phi(system.r, w)[0])])
    F = np.empty(system.N)
    d1, d2, idx = former_derivatives(system, w)
    r = system.r[idx]
    ab = RadialAB(d2 + 0.5 * d1**2, d1 / r - 0.5 * d1**2)
    F[idx] = sigma_k_radial(ab, system.cone) - rhs.phi(r, w[idx])
    dom = system.problem.domain
    if system.kind == "annulus":
        F[0] = w[0] - dom.w0
        F[-1] = w[-1] - dom.w1
    else:
        F[-1] = w[-1] - dom.w1
    return F


def former_root_residual(system, w, rhs):
    if system.kind == "sphere":
        k = system.cone.k
        phi = max(float(rhs.phi(system.r, w)[0]), 0.0)
        return np.array([system.sigma_const ** (1.0 / k) - phi ** (1.0 / k)])
    k = system.cone.k
    G = np.empty(system.N)
    d1, d2, idx = former_derivatives(system, w)
    r = system.r[idx]
    ab = RadialAB(d2 + 0.5 * d1**2, d1 / r - 0.5 * d1**2)
    sig = np.maximum(sigma_k_radial(ab, system.cone), 0.0)
    phi = np.maximum(np.asarray(rhs.phi(r, w[idx]), dtype=float), 0.0)
    G[idx] = sig ** (1.0 / k) - phi ** (1.0 / k)
    dom = system.problem.domain
    if system.kind == "annulus":
        G[0] = w[0] - dom.w0
        G[-1] = w[-1] - dom.w1
    else:
        G[-1] = w[-1] - dom.w1
    return G


def former_root_residual_jacobian(system, w, rhs):
    k = system.cone.k
    if system.kind == "sphere":
        G = former_root_residual(system, w, rhs)
        phi = max(float(rhs.phi(system.r, w)[0]), 1e-300)
        dphi = float(rhs.dphi_dw(system.r, w)[0])
        J = np.zeros((3, 1))
        J[1, 0] = -(1.0 / k) * phi ** (1.0 / k - 1.0) * dphi
        return G, J
    h = system.h
    G = former_root_residual(system, w, rhs)
    J = np.zeros((3, system.N))
    d1, d2, idx = former_derivatives(system, w)
    r = system.r[idx]
    ab = RadialAB(d2 + 0.5 * d1**2, d1 / r - 0.5 * d1**2)
    sig = np.maximum(sigma_k_radial(ab, system.cone), 1e-300)
    sa, sb = sigma_k_radial_gradients(ab, system.cone)
    scale = (1.0 / k) * sig ** (1.0 / k - 1.0)
    sa = scale * sa
    sb = scale * sb
    phi = np.maximum(np.asarray(rhs.phi(r, w[idx]), dtype=float), 1e-300)
    phi_w = (1.0 / k) * phi ** (1.0 / k - 1.0) * np.asarray(
        rhs.dphi_dw(r, w[idx]), dtype=float)
    bcoef = sb * (1.0 / r - d1)
    if system.kind == "annulus":
        J[1, idx] = -2.0 * sa / h**2 - phi_w
        J[0, idx + 1] = sa * (1.0 / h**2 + d1 / (2 * h)) + bcoef / (2 * h)
        J[2, idx - 1] = sa * (1.0 / h**2 - d1 / (2 * h)) - bcoef / (2 * h)
        J[1, 0] = 1.0
        J[1, -1] = 1.0
        J[0, 1] = 0.0
        J[2, -2] = 0.0
    else:
        J[1, idx] = -2.0 * sa / h**2 - phi_w
        J[0, idx + 1] = sa * (1.0 / h**2 + d1 / (2 * h)) + bcoef / (2 * h)
        sub = sa * (1.0 / h**2 - d1 / (2 * h)) - bcoef / (2 * h)
        J[1, 0] += sub[0]
        J[2, idx[1:] - 1] = sub[1:]
        J[1, -1] = 1.0
        J[2, -2] = 0.0
    return G, J


def former_residual_jacobian(system, w, rhs):
    if system.kind == "sphere":
        F = former_residual(system, w, rhs)
        J = np.zeros((3, 1))
        J[1, 0] = -float(rhs.dphi_dw(system.r, w)[0])
        return F, J
    h = system.h
    F = former_residual(system, w, rhs)
    J = np.zeros((3, system.N))
    d1, d2, idx = former_derivatives(system, w)
    r = system.r[idx]
    ab = RadialAB(d2 + 0.5 * d1**2, d1 / r - 0.5 * d1**2)
    sa, sb = sigma_k_radial_gradients(ab, system.cone)
    phi_w = rhs.dphi_dw(r, w[idx])
    bcoef = sb * (1.0 / r - d1)
    if system.kind == "annulus":
        J[1, idx] = -2.0 * sa / h**2 - phi_w
        J[0, idx + 1] = sa * (1.0 / h**2 + d1 / (2 * h)) + bcoef / (2 * h)
        J[2, idx - 1] = sa * (1.0 / h**2 - d1 / (2 * h)) - bcoef / (2 * h)
        J[1, 0] = 1.0
        J[1, -1] = 1.0
        J[0, 1] = 0.0
        J[2, -2] = 0.0
    else:
        J[1, idx] = -2.0 * sa / h**2 - phi_w
        J[0, idx + 1] = sa * (1.0 / h**2 + d1 / (2 * h)) + bcoef / (2 * h)
        sub = sa * (1.0 / h**2 - d1 / (2 * h)) - bcoef / (2 * h)
        J[1, 0] += sub[0]
        J[2, idx[1:] - 1] = sub[1:]
        J[1, -1] = 1.0
        J[2, -2] = 0.0
    return F, J


def former_dF_dt(system, rhs, w, t):
    Ft = np.zeros(system.N)
    if system.kind == "sphere":
        Ft[0] = -float(np.atleast_1d(rhs.dphi_dt(system.r, w, t))[0])
    else:
        idx = (np.arange(1, system.N - 1) if system.kind == "annulus"
               else np.arange(0, system.N - 1))
        Ft[idx] = -np.asarray(rhs.dphi_dt(system.r[idx], w[idx], t), dtype=float)
    return Ft


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes(), np.flatnonzero(
        got.view(np.int64) != want.view(np.int64))


def oracle_case(domain, rhs_kind, state):
    """(system, w, fused RHS, former RHS, t) for one oracle comparison; t is
    None for an RHS without a continuation parameter.

    States: "interior" is strictly admissible; "cone_edge" has b > 0 on some
    nodes and b < 0 on others (a perturbed annulus w = 2 log r, on which b
    vanishes, and the ball past r = 1/sqrt(c) for w = c r^2); "clip" puts
    every exponent past +-700.  The sphere has no stencil: its states are
    w = 0.3, -3 and 800.
    """
    if domain == "annulus":
        dom, N = Annulus(0.5, 2.0, W_STAR(0.5), W_STAR(2.0)), 24
    elif domain == "ball":
        dom, N = Ball(1.0, 0.5), 24
    else:
        dom, N = SphereConstant(), 1
    system = RadialSystem(RadialProblem(CONE32, dom, p=4.0, f=1.0), N)
    r = system.r
    noise = 0.01 * np.random.default_rng([len(domain), len(rhs_kind), len(state)]).normal(size=N)
    if domain == "sphere":
        w = np.array({"interior": 0.3, "cone_edge": -3.0, "clip": 800.0}[state])[None]
    elif state == "interior":
        w = (W_STAR(r) if domain == "annulus" else 0.4 * r**2 + 0.1 * r**4) + noise
    elif state == "cone_edge":
        w = 2.0 * np.log(r) + 0.05 * (r - 1.25) ** 2 if domain == "annulus" else 1.25 * r**2
    else:
        w = W_STAR(r) + 800.0 * np.where(np.arange(N) % 2, 1.0, -1.0)
    t = 1.4                    # inside the smoothstep bridge of delta_t
    f = lambda x: 1.0 + np.asarray(x, dtype=float) ** 2
    if rhs_kind == "exp":
        return system, w, ExpRHS(1.3, 1.0), FormerExpRHS(1.3, 1.0), None
    if rhs_kind == "exp_callable":
        return system, w, ExpRHS(f, 0.5), FormerExpRHS(f, 0.5), None
    if rhs_kind == "continuation":
        rhs = ContinuationRHS(CONE32, 4.0, f, delta0=0.3)
        return system, w, rhs, FormerContinuationRHS(rhs), t
    rhs = GeneralVRHS(CONE32, lambda x, v: 1.0 + v**4, lambda x, v: 4.0 * v**3,
                      lambda x, v: 12.0 * v**2)
    return system, w, rhs, FormerGeneralVRHS(rhs), t


class TestFusedAssemblyOracle:
    """One evaluation of the stencil and the RHS gives the former bits."""

    @pytest.mark.parametrize("state", ["interior", "cone_edge", "clip"])
    @pytest.mark.parametrize("rhs_kind", ["exp", "exp_callable", "continuation", "general"])
    @pytest.mark.parametrize("domain", ["annulus", "ball", "sphere"])
    def test_bit_identical_to_former_assembly(self, domain, rhs_kind, state):
        system, w, rhs, former, t = oracle_case(domain, rhs_kind, state)
        former_plain = former if t is None else FormerFrozenT(former, t)
        with np.errstate(all="ignore"):
            want_F, want_J = former_residual_jacobian(system, w, former_plain)
            want_G, want_JG = former_root_residual_jacobian(system, w, former_plain)
            assert_same_bits(former_residual(system, w, former_plain), want_F)
            assert_same_bits(former_root_residual(system, w, former_plain), want_G)
            F, J = system.residual_jacobian(w, rhs, t=t)[:2]
            G, JG, FG = system.root_residual_jacobian(w, rhs, t=t)
            assert_same_bits(system.residual(w, rhs, t=t), want_F)
            assert_same_bits(system.root_residual(w, rhs, t=t), want_G)
            for got, want in ((F, want_F), (J, want_J), (G, want_G), (JG, want_JG),
                              (FG, want_F)):
                assert_same_bits(got, want)
            if t is not None:
                Ft_want = former_dF_dt(system, former, w, t)
                F, J, Ft = system.residual_jacobian(w, rhs, t=t)
                for got, want in ((F, want_F), (J, want_J), (Ft, Ft_want)):
                    assert_same_bits(got, want)
                got = rhs.evaluate(system.r_eq, w[system.rows], t)
                for i, view in enumerate(("phi", "dphi_dw", "dphi_dt")):
                    assert_same_bits(got[i], getattr(former, view)(system.r_eq, w[system.rows], t))
            if domain == "sphere":
                return
            ab, want_ab = system._stencil(w)[2], former_ab(system, w)
            assert_same_bits(ab.a, want_ab.a)
            assert_same_bits(ab.b, want_ab.b)
        if state == "cone_edge":
            assert np.min(ab.b) < 0.0 < np.max(ab.b)

    def test_exp_bits_match_clip(self):
        from khessian.solver import _exp
        rng = np.random.default_rng(11)
        x = np.concatenate([[-np.inf, -1e308, -800.0, -700.0, -0.0, 0.0, 700.0, 800.0,
                             1e308, np.inf, np.nan], rng.normal(scale=600.0, size=4000)])
        with np.errstate(over="ignore"):
            assert_same_bits(_exp(x), former_exp(x))
            for v in (-800.0, 3.5, np.nan):
                assert_same_bits(_exp(v), former_exp(v))

    def test_smoothstep_bits_match_former(self):
        from khessian.solver import _smoothstep5, _smoothstep5_d
        xs = np.random.default_rng(12).uniform(-0.5, 1.5, 2000)
        for x in [-1.0, -0.0, 0.0, 0.3, 0.999, 1.0, 2.0, np.nan, *xs]:
            assert_same_bits(_smoothstep5(x), former_smoothstep5(x))
            assert_same_bits(_smoothstep5_d(x), former_smoothstep5_d(x))


def count_assemblies(monkeypatch):
    """Counter of calls of the four assembly methods of RadialSystem."""
    calls = Counter()
    for name in ("residual", "root_residual", "residual_jacobian", "root_residual_jacobian"):
        method = getattr(RadialSystem, name)

        def counted(self, *args, _method=method, _name=name, **kwargs):
            calls[_name] += 1
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(RadialSystem, name, counted)
    return calls


class TestAssemblyCounts:
    def test_accepted_newton_step_does_not_call_residual(self, monkeypatch):
        calls = count_assemblies(monkeypatch)
        res = newton_solve(manufactured_problem(), manufactured_rhs(1.0), SolverConfig(N=64))
        assert not res.floor_limited and res.iterations >= 3
        # Every step is accepted undamped: one evaluation per iterate.
        assert calls == {"root_residual_jacobian": res.iterations + 1}

    def test_tangent_reuses_the_corrector_assembly(self, monkeypatch):
        from khessian import solver
        branch, problem = annulus_fold_branch(96)
        system = RadialSystem(problem, 96)
        rhs = ContinuationRHS(CONE32, 4.0, 1.0, 1.0)
        s = branch.samples[5]
        tau = solver._tangent(system, rhs, s.w, s.t)
        ds = 0.02
        w, t, iters, jac_t = solver._corrector(system, rhs, s.w + ds * tau[:-1],
                                               s.t + ds * tau[-1], tau, SolverConfig(N=96))
        assert iters >= 1 and jac_t is not None
        fresh = solver._tangent(system, rhs, w, t, prev=tau)
        calls = count_assemblies(monkeypatch)
        reused = solver._tangent(system, rhs, w, t, prev=tau, jac_t=jac_t)
        assert not calls
        assert_same_bits(reused, fresh)

    def test_corrector_residual_stop_evaluates_the_stencil_once_per_assembly(self, monkeypatch):
        from khessian import solver
        branch, problem = annulus_fold_branch(96)
        system = RadialSystem(problem, 96)
        rhs = ContinuationRHS(CONE32, 4.0, 1.0, 1.0)
        s = branch.samples[5]
        tau = solver._tangent(system, rhs, s.w, s.t)
        calls = count_assemblies(monkeypatch)
        stencils = Counter()
        stencil = RadialSystem._stencil

        def counted(self, w):
            stencils["_stencil"] += 1
            return stencil(self, w)

        monkeypatch.setattr(RadialSystem, "_stencil", counted)
        ds = 0.02
        w, t, iters, jac_t = solver._corrector(system, rhs, s.w + ds * tau[:-1],
                                               s.t + ds * tau[-1], tau, SolverConfig(N=96))
        # jac_t is set on a residual stop only; its cone test reuses the assembly.
        assert iters >= 1 and jac_t is not None
        assert calls == {"residual_jacobian": iters + 1}
        assert stencils["_stencil"] == iters + 1
        assert system.admissible(w)

    def test_annulus_continuation_assembles_less(self, monkeypatch):
        # The former code made 262 outermost assembly calls for this branch
        # (507 with the residual each Jacobian assembled inside itself).
        calls = count_assemblies(monkeypatch)
        branch, _ = annulus_fold_branch(96)
        # Exact Moore-Spence blocks and the shared stop: t* within 1e-13 of
        # 0.007103164721554382, refined with finite-difference blocks.
        assert repr(branch.t_star) == "0.0071031647215543834"
        assert branch.t_star == pytest.approx(0.007103164721554382, rel=1e-13, abs=0.0)
        assert sum(calls.values()) < 262
        assert calls["residual"] == calls["root_residual"] == 0


class TestRoundingFloorStop:
    """Newton, the corrector and fold refinement stop at the rounding floor."""

    @staticmethod
    def manufactured(domain):
        if domain == "annulus":
            return manufactured_problem(), manufactured_rhs(1.0), W_STAR
        wb = lambda r: 0.4 * r**2 + 0.1 * r**4
        dwb = lambda r: 0.8 * r + 0.4 * r**3
        d2wb = lambda r: 0.8 + 1.2 * r**2

        def fb(r):
            r = np.asarray(r, dtype=float)
            a = d2wb(r) + 0.5 * dwb(r) ** 2
            b = dwb(r) / r - 0.5 * dwb(r) ** 2
            return (b**2 + 2 * a * b) * np.exp(-wb(r))

        return RadialProblem(CONE32, Ball(1.0, wb(1.0)), p=0.0, f=None), ExpRHS(fb, 1.0), wb

    @pytest.mark.parametrize("domain", ["annulus", "ball"])
    def test_manufactured_second_order_up_to_8192(self, domain):
        problem, rhs, exact = self.manufactured(domain)
        errs = []
        for N in (512, 1024, 2048, 4096, 8192):
            res = newton_solve(problem, rhs, SolverConfig(N=N))
            if res.residual > 1e-10:
                assert res.floor_limited
            errs.append(np.abs(res.w - exact(RadialSystem(problem, N).r)).max())
        orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert all(1.9 <= q <= 2.1 for q in orders), orders

    def test_coarse_solve_is_not_floor_limited(self):
        res = newton_solve(manufactured_problem(), manufactured_rhs(1.0), SolverConfig(N=64))
        assert not res.floor_limited and res.residual <= 1e-10

    def test_continuation_starts_and_refines_on_fine_grids(self):
        t_star = []
        for N in (768, 1536, 3072):
            branch, _ = annulus_fold_branch(N)
            assert [f.refined for f in branch.folds] == [True]
            assert branch.termination == "fold crossed"
            t_star.append(branch.t_star)
        gaps = [a - b for a, b in zip(t_star, t_star[1:])]
        assert all(g > 0.0 for g in gaps)
        assert gaps[1] < gaps[0]

    def test_coarse_branches_unchanged(self, monkeypatch):
        # t* and corrector iterations of the annulus fold problem at the
        # sizes where every corrector reaches the residual tolerance.
        from khessian import solver
        iters = []
        corrector = solver._corrector

        def counted(*args, **kwargs):
            out = corrector(*args, **kwargs)
            iters.append(out[2])
            return out

        monkeypatch.setattr(solver, "_corrector", counted)
        # Fold refinement starts from the last sample before the fold, with no
        # arclength bisection (former corrector sums 112/120/150).  Its exact
        # Moore-Spence Newton puts t* within 1e-13 of the values refined with
        # finite-difference blocks and a fixed bound; the correctors are unchanged.
        want = {96: ("0.0071031647215543834", 98, 0.007103164721554382),
                192: ("0.006990020746274123", 107, 0.0069900207462747915),
                384: ("0.00693640262942685", 135, 0.0069364026294268495)}
        for N, (t_star, n_iters, former) in want.items():
            iters.clear()
            branch, _ = annulus_fold_branch(N)
            assert repr(branch.t_star) == t_star
            assert branch.t_star == pytest.approx(former, rel=1e-13, abs=0.0)
            assert sum(iters) == n_iters

    def test_diverging_prediction_rejected_early(self, monkeypatch):
        from khessian import solver
        branch, problem = annulus_fold_branch(96)
        system = RadialSystem(problem, 96)
        rhs = ContinuationRHS(CONE32, 4.0, 1.0, 1.0)
        s = branch.samples[5]
        tau = solver._tangent(system, rhs, s.w, s.t)
        assemblies = []
        assemble_once = RadialSystem.residual_jacobian

        def counted(self, *args, **kwargs):
            assemblies.append(1)
            return assemble_once(self, *args, **kwargs)

        monkeypatch.setattr(RadialSystem, "residual_jacobian", counted)
        ds = 1.0
        with pytest.raises(SolverError, match="stopped contracting"):
            solver._corrector(system, rhs, s.w + ds * tau[:-1], s.t + ds * tau[-1], tau,
                              SolverConfig(N=96))
        assert len(assemblies) <= 3

    def test_stall_above_the_fold_reports_floor_and_step(self):
        from khessian.solver import _damped_newton
        branch, problem = annulus_fold_branch(48)
        system = RadialSystem(problem, 48)
        rhs = ContinuationRHS(CONE32, 4.0, 1.0, 1.0)
        with pytest.raises(SolverError) as err:
            _damped_newton(system, rhs, branch.folds[0].w_star.copy(), SolverConfig(N=48),
                           1.05 * branch.t_star)
        assert str(err.value).startswith("Newton stalled: no admissible decreasing step: ")
        diag = err.value.diagnostics
        assert err.value.history[-1] > 1e6 * diag["floor"] > 0.0
        assert diag["step"] > 1.0
        assert diag["w_best"].shape == (48,)


class TestGeneralRHS:
    def test_reproduces_power_continuation(self):
        problem = RadialProblem(CONE32, SphereConstant(), p=4.0, f=1.0)
        config = SolverConfig(N=1, ds0=0.02, t_start=0.005, after_fold_frac=0.6)
        b1 = continuation_supercritical(problem, config)
        b2 = general_rhs_continuation(problem, lambda r, v: 1.0 + v**4,
                                      lambda r, v: 4.0 * v**3, lambda r, v: 12.0 * v**2,
                                      "floor_super", config, c0=0.5)
        assert b1.t_star == pytest.approx(b2.t_star, rel=1e-10)

    def test_power_mixture_fold(self):
        # phi = v^{p1} + v^{p2} folds when p1 < k < p2 (the fold condition
        # (k - p1) v^{p1} = (p2 - k) v^{p2} needs p1 below k)
        p1, p2 = 1.0, 4.0
        problem = RadialProblem(CONE32, SphereConstant(), p=4.0, f=1.0)
        config = SolverConfig(N=1, ds0=0.02, t_start=0.005, after_fold_frac=0.6,
                              t_max=5.0)
        branch = general_rhs_continuation(
            problem, lambda r, v: v**p1 + v**p2,
            lambda r, v: p1 * v ** (p1 - 1) + p2 * v ** (p2 - 1),
            lambda r, v: p1 * (p1 - 1) * v ** (p1 - 2) + p2 * (p2 - 1) * v ** (p2 - 2),
            "crossing", config)
        t_of_v = lambda v: A32 * v**2 / (v**p1 + v**p2)
        res = minimize_scalar(lambda v: -t_of_v(v), bracket=(0.1, 1.0),
                              method="brent", options={"xtol": 1e-13})
        assert branch.t_star == pytest.approx(-res.fun, abs=1e-8)

    def test_sublinear_at_zero_reaches_t1_without_fold(self):
        # phi / v^k -> 0 at v -> 0 and -> infinity at v -> infinity:
        # a solution exists at t = 1 and the branch never folds
        p1, p2 = 3.0, 5.0
        problem = RadialProblem(CONE32, SphereConstant(), p=5.0, f=1.0)
        config = SolverConfig(N=1, ds0=0.02, t_start=0.02, t_max=1.3)
        branch = general_rhs_continuation(
            problem, lambda r, v: v**p1 + v**p2,
            lambda r, v: p1 * v ** (p1 - 1) + p2 * v ** (p2 - 1),
            lambda r, v: p1 * (p1 - 1) * v ** (p1 - 2) + p2 * (p2 - 1) * v ** (p2 - 2),
            "crossing", config)
        assert not branch.folds
        assert branch.termination == "t_max reached"
        sols = branch.solutions_at(1.0)
        assert len(sols) == 1
        v1 = math.exp(-0.5 * sols[0][0])
        oracle = brentq(lambda v: A32 * v**2 - (v**p1 + v**p2), 1e-6, 10.0,
                        xtol=1e-15)
        assert v1 == pytest.approx(oracle, abs=1e-8)

    def test_growth_validation(self):
        validate_growth(lambda r, v: 1.0 + v**4, 2, "floor_super", c0=0.5)
        with pytest.raises(SolverError):
            validate_growth(lambda r, v: v**4, 2, "floor_super", c0=0.5)
        with pytest.raises(SolverError):
            validate_growth(lambda r, v: v**0.5, 2, "crossing")
        with pytest.raises(SolverError):
            validate_growth(lambda r, v: v, 2, "bogus")


class TestGaugeConsistency:
    def test_wgauge_solution_satisfies_vform(self):
        # solve in the w-gauge, then evaluate the v-gauge statement
        # sigma_k(lambda(V)) = f v^p through the conformal machinery
        p_exp = 0.5
        a_exp = wgauge_rhs_exponent(3, 2, p_exp)
        conv = wgauge_rhs_amplitude(1.0, 3, 2)

        def fv(r):
            r = np.asarray(r, dtype=float)
            a = D2W_STAR(r) + 0.5 * DW_STAR(r) ** 2
            b = DW_STAR(r) / r - 0.5 * DW_STAR(r) ** 2
            return (b**2 + 2 * a * b) * np.exp(-a_exp * W_STAR(r)) / conv

        problem = RadialProblem(CONE32, Annulus(0.5, 2.0, W_STAR(0.5), W_STAR(2.0)),
                                p=p_exp, f=fv)
        sol = solve_subcritical(problem, SolverConfig(N=128))
        system = RadialSystem(problem, 128)
        d1, d2, _ = system._stencil(sol.w)
        idx = np.arange(system.N)[system.rows]
        bg = Background.flat(3)
        worst = 0.0
        for i in range(0, len(idx), 9):
            r = system.r[idx[i]]
            w, dw, d2w = sol.w[idx[i]], d1[i], d2[i]
            beta = 0.5
            v = math.exp(-beta * w)
            dv = -beta * v * dw
            d2v = v * (beta**2 * dw**2 - beta * d2w)
            jet = jet_from_radial(Gauge.V, r, v, dv, d2v, bg)
            from khessian.conformal import matrix_V
            lhs = sigma_of_matrix(matrix_V(jet), 2)
            rhs = float(fv(np.array([r]))[0]) * v**p_exp
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
        assert worst <= 1e-8


class TestBallDomain:
    def test_manufactured_quartic(self):
        wb = lambda r: 0.4 * r**2 + 0.1 * r**4
        dwb = lambda r: 0.8 * r + 0.4 * r**3
        d2wb = lambda r: 0.8 + 1.2 * r**2

        def fb(r):
            r = np.asarray(r, dtype=float)
            a = d2wb(r) + 0.5 * dwb(r) ** 2
            b = dwb(r) / r - 0.5 * dwb(r) ** 2
            return (b**2 + 2 * a * b) * np.exp(-wb(r))

        errs = {}
        for N in (64, 128, 256):
            problem = RadialProblem(CONE32, Ball(1.0, wb(1.0)), p=0.0, f=None)
            res = newton_solve(problem, ExpRHS(fb, 1.0), SolverConfig(N=N))
            system = RadialSystem(problem, N)
            errs[N] = np.abs(res.w - wb(system.r)).max()
        assert 1.7 <= math.log2(errs[64] / errs[128]) <= 2.3
        assert 1.7 <= math.log2(errs[128] / errs[256]) <= 2.3

    def test_grid_stays_off_origin(self):
        problem = RadialProblem(CONE32, Ball(1.0, 0.0), p=0.0, f=None)
        system = RadialSystem(problem, 33)
        assert system.r[0] > 0.0
        assert system.r[-1] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# The former routes of the Newton system, of the bordered solve and of the
# initial iterate, kept as oracles: the direct dgtsv call, the scalar 1x1
# bordered solve and the lazy candidates must give the same bits, and the
# same errors, as the routes they replaced.
# ---------------------------------------------------------------------------

def former_solve_linear(J, rhs_vec):
    """The former RadialSystem.solve_linear at N >= 2: scipy's solve_banded."""
    from scipy.linalg import solve_banded
    try:
        return solve_banded((1, 1), J, rhs_vec)
    except ValueError as exc:          # numpy's LinAlgError included
        raise SolverError(f"Newton system: {exc}") from exc


def former_bordered_solve(band, kl, ku, col, row, corner, f, g, seen=None):
    """The former _bordered_solve: a 1x1 band through dgbtrf/dgbtrs and numpy.
    seen, a Counter, counts the dense fallbacks and the refinement steps."""
    from scipy.linalg.lapack import dgbtrf, dgbtrs, dgttrf, dgttrs
    from khessian.solver import _REFINE_ULPS, _EPS, _band_matvec
    seen = Counter() if seen is None else seen
    n = band.shape[1]
    if kl == ku == 1 and n >= 3:
        *lu, piv, info = dgttrf(band[2, :-1], band[1], band[0, 1:])

        def trs(lu, kl, ku, b, piv, trans=0):
            return dgttrs(*lu, piv, b, "T" if trans else "N")
    else:
        trs = dgbtrs
        ab = np.zeros((2 * kl + ku + 1, n), order="F")
        ab[kl:] = band
        lu, piv, info = dgbtrf(ab, kl, ku, overwrite_ab=True)
    if info != 0:
        seen["dense"] += 1
        M = np.empty((n + 1, n + 1))
        M[:n, :n] = np.transpose([_band_matvec(band, kl, ku, e) for e in np.eye(n)])
        M[:n, n], M[n, :n], M[n, n] = col, row, corner
        try:
            z = np.linalg.solve(M, np.append(f, g))
        except np.linalg.LinAlgError:
            raise SolverError("singular bordered system") from None
        return z[:n], float(z[n])
    v = trs(lu, kl, ku, row, piv, trans=1)[0]
    w = trs(lu, kl, ku, col, piv)[0]
    schur_v = corner - v.dot(col)
    schur_w = corner - row.dot(w)
    if schur_v == 0.0 or schur_w == 0.0:
        raise SolverError("singular bordered system")

    def eliminate(f, g):
        y1 = (g - v.dot(f)) / schur_v
        x = trs(lu, kl, ku, f - y1 * col, piv)[0]
        y2 = (g - row.dot(x) - corner * y1) / schur_w
        return x - y2 * w, y1 + y2

    x, y = eliminate(f, g)
    r_top = f - _band_matvec(band, kl, ku, x) - y * col
    r_bot = g - row.dot(x) - corner * y
    resid = math.sqrt(r_top.dot(r_top) + r_bot * r_bot)
    if not math.isfinite(resid):
        raise SolverError("bordered solve is not finite")
    norm_m = math.sqrt(np.vdot(band, band) + col.dot(col) + row.dot(row) + corner * corner)
    size = norm_m * math.sqrt(x.dot(x) + y * y) + math.sqrt(f.dot(f) + g * g)
    if resid > _REFINE_ULPS * _EPS * size:
        seen["refined"] += 1
        dx, dy = eliminate(r_top, r_bot)
        x, y = x + dx, y + dy
    return x, float(y)


def former_initial_guess(system):
    """The former RadialSystem.initial_guess: every candidate built before the
    first one is tested."""
    from khessian.solver import _EXP_CLIP, _exp
    dom, theta, r = system.problem.domain, system.cone.theta, system.r
    candidates = []
    with np.errstate(over="ignore", invalid="ignore"):
        if system.kind == "annulus":
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
            nudges = [0.0] + [10.0**j for j in range(-8, -1)]
            nudge_shape = (dom.r1 / r) ** 2
        else:
            candidates.append(np.full(system.N, dom.w1))
            for j in range(-2, 12):
                c = math.exp(min(max(dom.w1, -50.0), 50.0)) * 2.0**j / dom.r1**2
                candidates.append(np.log(math.exp(min(dom.w1, _EXP_CLIP)) + c * r**2))
            nudges = [0.0]
            nudge_shape = np.zeros_like(r)
        for w in candidates:
            for eps in nudges:
                trial = w + eps * nudge_shape
                if system.admissible(trial):
                    return trial
    raise SolverError("no strictly admissible initial iterate found")


def outcome(solve, *args):
    """solve(*args) as a tuple of arrays and floats, or its error's type and message."""
    try:
        with np.errstate(all="ignore"):
            got = solve(*args)
    except SolverError as exc:
        return ("error", str(exc))
    return tuple(np.asarray(x, dtype=float) for x in (got if isinstance(got, tuple) else (got,)))


def assert_same_outcome(got, want):
    if isinstance(want[0], str) or isinstance(got[0], str):
        assert got == want
        return
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert_same_bits(a, b)


def ball_system(N):
    return RadialSystem(RadialProblem(CONE32, Ball(1.0, 0.0), p=0.5, f=1.0), N)


class TestNewtonSystemRoute:
    """solve_linear calls dgtsv itself: the bits and errors of solve_banded."""

    @pytest.mark.parametrize("N", [2, 3, 4, 5, 17, 64, 129, 1024, 4096])
    def test_random_tridiagonal_systems(self, N):
        rng = np.random.default_rng([N, 24])
        system = ball_system(N)
        for draw in range(6):
            J = rng.normal(size=(3, N))
            if draw == 1:
                J[1] += 4.0 * np.sign(J[1])             # diagonally dominant
            elif draw == 2:
                J[2] *= 1e3                             # every column pivots
            elif draw == 3:
                J *= 10.0 ** rng.uniform(-150, 150, size=(3, N))
            elif draw == 4:
                J[1, ::2] = 0.0                         # zero diagonal entries
            rhs = rng.normal(size=N) * 10.0 ** rng.uniform(-5, 5)
            assert_same_outcome(outcome(system.solve_linear, J, rhs),
                                outcome(former_solve_linear, J, rhs))

    @pytest.mark.parametrize("N", [2, 3, 64])
    @pytest.mark.parametrize("zero", ["all", "first column", "last row"])
    def test_singular_band(self, N, zero):
        rng = np.random.default_rng(N)
        J = rng.normal(size=(3, N))
        if zero == "all":
            J[:] = 0.0
        elif zero == "first column":
            J[1, 0] = J[2, 0] = 0.0
        else:
            J[1, -1] = J[2, -2] = 0.0
        rhs = rng.normal(size=N)
        got = outcome(ball_system(N).solve_linear, J, rhs)
        assert got == outcome(former_solve_linear, J, rhs)
        assert got == ("error", "Newton system: singular matrix")

    @pytest.mark.parametrize("N", [2, 3, 64])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("where", [(0, 0), (1, 1), (2, -1), (0, -1), "rhs"])
    def test_non_finite_band_or_rhs(self, N, bad, where):
        rng = np.random.default_rng(N)
        J, rhs = rng.normal(size=(3, N)), rng.normal(size=N)
        if where == "rhs":
            rhs[-1] = bad
        else:
            J[where] = bad
        got = outcome(ball_system(N).solve_linear, J, rhs)
        assert got == outcome(former_solve_linear, J, rhs)
        assert got == ("error", "Newton system: array must not contain infs or NaNs")

    @pytest.mark.parametrize("N", [1, 2])
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_one_finiteness_contract_at_every_size(self, N, bad):
        # N = 1 divided a non-finite right-hand side without raising.
        system = (RadialSystem(RadialProblem(CONE32, SphereConstant(), p=0.0, f=1.0), 1)
                  if N == 1 else ball_system(N))
        J = np.zeros((3, N))
        J[1] = -4.0
        rhs = np.ones(N)
        rhs[0] = bad
        with pytest.raises(SolverError) as info:
            system.solve_linear(J, rhs)
        assert str(info.value) == "Newton system: array must not contain infs or NaNs"

    def test_rhs_is_left_untouched(self):
        rng = np.random.default_rng(5)
        J, rhs = rng.normal(size=(3, 64)), rng.normal(size=64)
        J0, rhs0 = J.copy(), rhs.copy()
        ball_system(64).solve_linear(J, rhs)
        assert_same_bits(J, J0)
        assert_same_bits(rhs, rhs0)


class TestScalarBorderedSolve:
    """The 1x1 bordered solve in Python floats against the former band-LU route."""

    def test_random_systems(self):
        from khessian.solver import _bordered_solve
        rng = np.random.default_rng(2024)
        draws = 10_000
        # Entries 120 decades apart: 78 of these systems take the refinement step.
        z = rng.normal(size=(draws, 8)) * 10.0 ** rng.uniform(-60, 60, size=(draws, 8))
        kind = rng.integers(0, 8, size=draws)
        seen, errors = Counter(), Counter()
        for i in range(draws):
            band = np.array([[z[i, 0]], [z[i, 1]], [z[i, 2]]])
            col, row, f = z[i, 3:4].copy(), z[i, 4:5].copy(), z[i, 5:6].copy()
            corner, g = float(z[i, 6]), float(z[i, 7])
            if kind[i] == 0:        # the sphere's band: no off-diagonal entries
                band[0, 0] = band[2, 0] = 0.0
            elif kind[i] == 1:      # a zero pivot: the dense fallback
                band[1, 0] = 0.0
            elif kind[i] == 2:      # a zero Schur complement
                corner = float(row[0]) / float(band[1, 0]) * float(col[0])
            elif kind[i] == 3:      # a nearly zero one
                corner = float(row[0]) / float(band[1, 0]) * float(col[0]) * (1.0 + 1e-9 * rng.normal())
            elif kind[i] == 4:      # a result that overflows
                band[1, 0], f[0] = 1e-300 * np.sign(band[1, 0]), 1e300
            elif kind[i] == 5:      # a zero border
                col[0] = row[0] = 0.0
            want = outcome(former_bordered_solve, band, 1, 1, col, row, corner, f, g, seen)
            got = outcome(_bordered_solve, band, 1, 1, col, row, corner, f, g)
            assert_same_outcome(got, want)
            if want[0] == "error":
                errors[want[1]] += 1
            else:
                assert got[0].shape == (1,) and got[1].shape == ()
        assert seen["dense"] >= 500 and seen["refined"] >= 50, seen
        assert errors["singular bordered system"] >= 500
        assert errors["bordered solve is not finite"] >= 500

    @pytest.mark.parametrize("pivot", [math.nan, math.inf, -0.0, 5e-324])
    def test_special_pivots(self, pivot):
        from khessian.solver import _bordered_solve
        band = np.array([[0.0], [pivot], [0.0]])
        args = (band, 1, 1, np.array([0.5]), np.array([2.0]), 3.0, np.array([1.0]), -1.0)
        assert_same_outcome(outcome(_bordered_solve, *args),
                            outcome(former_bordered_solve, *args))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 40, 384])
    @pytest.mark.parametrize("kl,ku", [(1, 1), (3, 2)])
    def test_other_shapes_are_unchanged(self, n, kl, ku):
        from khessian.solver import _bordered_solve
        rng = np.random.default_rng([n, kl, ku, 36])
        for _ in range(5):
            args = (rng.normal(size=(kl + ku + 1, n)), kl, ku, rng.normal(size=n),
                    rng.normal(size=n), float(rng.normal()), rng.normal(size=n),
                    float(rng.normal()))
            assert_same_outcome(outcome(_bordered_solve, *args),
                                outcome(former_bordered_solve, *args))

    def test_sphere_continuations_are_unchanged(self, monkeypatch):
        from khessian import solver
        for (n, k, p), f in {(3, 2, 4.0): 1.0, (4, 3, 5.0): 0.8, (5, 3, 4.0): 1.4,
                             (5, 4, 6.0): 0.6}.items():
            problem = RadialProblem(ConeParams(n, k), SphereConstant(), p=p, f=f)
            config = SolverConfig(N=1, ds0=0.02, t_start=0.005, after_fold_frac=0.6)
            got = continuation_supercritical(problem, config)
            with monkeypatch.context() as m:
                m.setattr(solver, "_bordered_solve", former_bordered_solve)
                want = continuation_supercritical(problem, config)
            assert len(got.samples) == len(want.samples)
            for a, b in zip(got.samples, want.samples):
                assert_same_bits([a.t, a.v_probe, a.tangent_t, *a.w],
                                 [b.t, b.v_probe, b.tangent_t, *b.w])
            assert_same_bits(got.t_star, want.t_star)


# (domain, N) of initial iterates: the manufactured annulus and ball data,
# annulus data that take a later candidate with an inward nudge, and data
# that no candidate fits.
INITIAL_GUESS_CASES = [
    *[(Annulus(0.5, 2.0, W_STAR(0.5), W_STAR(2.0)), N) for N in (3, 4, 17, 64, 1024)],
    *[(Ball(1.0, 0.5), N) for N in (2, 3, 17, 64, 1024)],
    (Annulus(0.8319432152802452, 7.68070698391985, 1.066357757671799, 2.294965609839984), 33),
    (Annulus(0.2034393699528147, 1.549258553659298, 4.274239286245599, 4.679261899246464), 33),
    (Annulus(0.5372518229486102, 4.850037039890916, 4.340435159562496, -1.4220480329092977), 33),
    (Annulus(0.5, 2.0, 0.0, 50.0), 64),
    (Annulus(0.5, 2.0, 0.0, 3.2e209), 17),
    (Ball(1e-150, 60.0), 9),
]


class TestLazyInitialGuess:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("domain, N", INITIAL_GUESS_CASES)
    def test_same_trials_and_iterate_as_the_eager_guess(self, domain, N):
        system = RadialSystem(RadialProblem(CONE32, domain, p=0.5, f=1.0), N)
        admissible, trials = system.admissible, {"got": [], "want": []}

        def run(guess, key):
            system.admissible = lambda w: trials[key].append(w.tobytes()) or admissible(w)
            return outcome(guess)

        got = run(system.initial_guess, "got")
        want = run(lambda: former_initial_guess(system), "want")
        assert_same_outcome(got, want)
        assert trials["got"] == trials["want"]

    def test_cases_cover_nudges_and_failures(self):
        nudged = failed = 0
        for domain, N in INITIAL_GUESS_CASES:
            system = RadialSystem(RadialProblem(CONE32, domain, p=0.5, f=1.0), N)
            try:
                w = system.initial_guess()
            except SolverError as exc:
                assert str(exc) == "no strictly admissible initial iterate found"
                failed += 1
                continue
            if system.kind == "annulus":
                nudged += (w[0] - domain.w0) != 0.0
        assert nudged >= 3 and failed == 2


class TestGridTooFine:
    @pytest.mark.parametrize("domain, N", [(Ball(1e-170, 0.0), 9),
                                           (Annulus(1e-170, 2e-170, 0.0, 0.0), 9)])
    def test_underflowing_spacing_is_refused(self, domain, N):
        with pytest.raises(ValueError, match=r"grid spacing h = .* underflows to 0") as info:
            RadialSystem(RadialProblem(CONE32, domain, p=0.5, f=1.0), N)
        assert repr(domain) in str(info.value)


# ---------------------------------------------------------------------------
# The per-call assembly, continuation RHS and tridiagonal bordered route
# against the code they replaced, kept verbatim apart from `self` becoming
# `system`: the same bits, and the same errors.
# ---------------------------------------------------------------------------

def former_stencil(system, w):
    if system.kind == "sphere":
        return system._stencil(w)
    if system.kind == "annulus":
        wm, wc, wp = w[:-2], w[1:-1], w[2:]
    else:
        wm, wc, wp = np.concatenate((w[:1], w[:-2])), w[:-1], w[1:]
    d1 = (wp - wm) / (2 * system.h)
    d2 = (wp - 2 * wc + wm) / system.h**2
    half_sq = 0.5 * d1**2
    return d1, d2, RadialAB(d2 + half_sq, d1 / system.r_eq - half_sq)


def former_jacobian(system, d1, sa, c1, phi_w):
    h, rows, N = system.h, system.rows, system.N
    J = np.zeros((3, N))
    J[1, rows] = -2.0 * sa / h**2 - phi_w
    J[0, rows.start + 1:rows.stop + 1] = sa * (1.0 / h**2 + d1 / (2 * h)) + c1 / (2 * h)
    sub = sa * (1.0 / h**2 - d1 / (2 * h)) - c1 / (2 * h)
    if system.kind == "ball":
        J[1, 0] += sub[0]
        sub = sub[1:]
    J[2, :N - 2] = sub
    return J


def former_assemble(system, w, rhs, root=False, jac=False, t=None):
    k, rows = system.cone.k, system.rows
    phi, phi_w, phi_t = (rhs.evaluate(system.r_eq, w[rows]) if t is None
                         else rhs.evaluate(system.r_eq, w[rows], t))
    d1, _, ab = stencil = former_stencil(system, w)
    sig = sigma_k_radial(ab, system.cone)
    F = np.empty(system.N)
    F[rows] = sig - phi
    for i, value in system.dirichlet:
        F[i] = w[i] - value
    G = J = None
    if system.kind == "sphere":
        phi0, phi_w0 = float(phi[0]), float(phi_w[0])
        if root:
            G = np.array([system.sigma_const ** (1.0 / k) - max(phi0, 0.0) ** (1.0 / k)])
            phi_w0 = (1.0 / k) * max(phi0, 1e-300) ** (1.0 / k - 1.0) * phi_w0
        if jac:
            J = np.zeros((3, 1))
            J[1, 0] = -phi_w0
        return F, G, J, phi_t, stencil
    if root:
        G = F.copy()
        G[rows] = np.maximum(sig, 0.0) ** (1.0 / k) - np.maximum(phi, 0.0) ** (1.0 / k)
    if jac:
        sa, sb = sigma_k_radial_gradients(ab, system.cone)
        if root:
            scale = (1.0 / k) * np.maximum(sig, 1e-300) ** (1.0 / k - 1.0)
            sa, sb = scale * sa, scale * sb
            phi_w = (1.0 / k) * np.maximum(phi, 1e-300) ** (1.0 / k - 1.0) * phi_w
        J = former_jacobian(system, d1, sa, sb * (1.0 / system.r_eq - d1), phi_w)
        for i, _ in system.dirichlet:
            J[1, i] = 1.0
    return F, G, J, phi_t, stencil


def former_cone_guard(system, w):
    d1, _, ab = former_stencil(system, w)
    r = system.r_eq
    margin = 10.0 * system.h**2 * np.maximum(1.0, d1**2) * (1.0 + 1.0 / r**2)
    combo = ab.a + system.cone.theta * ab.b
    bad = np.minimum(ab.b + margin, combo + margin)
    worst = int(np.argmin(bad))
    if bad[worst] < 0.0:
        raise AdmissibilityError(
            f"iterate leaves the admissible cone at r={r[worst]:.6g} "
            f"(b={ab.b[worst]:.3e}, a+theta*b={combo[worst]:.3e})")


def former_continuation_evaluate(rhs, r, w, t):
    from khessian.solver import _exp, _fv
    k, p, b = rhs.cone.k, rhs.p, rhs.beta
    e_delta = _exp(k * b * w)
    e_power = _fv(rhs.f, r) * _exp((k - p) * b * w)
    delta = rhs.delta(t)
    scale = t * rhs.conv
    return (scale * (delta * e_delta + e_power),
            scale * (k * b * delta * e_delta + (k - p) * b * e_power),
            rhs.conv * (delta * e_delta + e_power + t * rhs.ddelta_dt(t) * e_delta))


def assembly_outcome(assemble, *args, **kwargs):
    F, G, J, phi_t, (d1, d2, ab) = assemble(*args, **kwargs)
    return [x for x in (F, G, J, phi_t, d1, d2, ab.a, ab.b) if x is not None]


# (n, k) cones with k = 2, 3 and 4.
ORACLE_CONES = [(3, 2), (4, 3), (5, 3), (5, 4), (7, 4)]


def random_admissible_iterate(system, rng):
    """w = c r^2 + const plus noise below the stencil's resolution: b = 2c(1 - c r^2)
    and a = 2c(1 + c r^2) stay positive for 0 < c r1^2 < 1."""
    r, h = system.r, system.h
    c = rng.uniform(0.05, 0.9) / r[-1] ** 2
    return c * r**2 + rng.normal() + 1e-3 * c * h**2 * rng.normal(size=system.N)


class TestPerCallAssemblyOracle:
    @pytest.mark.parametrize("N", [3, 4, 17, 96, 384, 4096])
    @pytest.mark.parametrize("domain", ["annulus", "ball"])
    @pytest.mark.parametrize("nk", ORACLE_CONES)
    def test_assemble_bits(self, N, domain, nk):
        rng = np.random.default_rng([N, len(domain), *nk])
        cone = ConeParams(*nk)
        for _ in range(3):
            r0 = rng.uniform(0.1, 1.0)
            dom = (Annulus(r0, r0 + rng.uniform(0.5, 3.0), rng.normal(), rng.normal())
                   if domain == "annulus" else Ball(rng.uniform(0.5, 3.0), rng.normal()))
            system = RadialSystem(RadialProblem(cone, dom, p=cone.k + 2.0, f=1.0), N)
            w = random_admissible_iterate(system, rng)
            assert system.admissible(w)
            f = lambda x: 1.0 + np.asarray(x) ** 2
            for rhs, t in ((ContinuationRHS(cone, cone.k + 2.0, f, delta0=0.3), 1.4),
                           (ExpRHS(1.3, 0.7), None)):
                for root in (False, True):
                    for jac in (False, True):
                        got = assembly_outcome(system._assemble, w, rhs, root=root, jac=jac, t=t)
                        want = assembly_outcome(former_assemble, system, w, rhs,
                                                root=root, jac=jac, t=t)
                        assert len(got) == len(want)
                        for a, b in zip(got, want):
                            assert_same_bits(a, b)

    @pytest.mark.parametrize("nk", ORACLE_CONES)
    def test_sphere_assemble_bits(self, nk):
        cone = ConeParams(*nk)
        system = RadialSystem(RadialProblem(cone, SphereConstant(), p=cone.k + 2.0, f=1.0), 1)
        rhs = ContinuationRHS(cone, cone.k + 2.0, 0.8, delta0=0.3)
        for w0 in (-3.0, 0.3, 800.0):
            for root in (False, True):
                for jac in (False, True):
                    got = assembly_outcome(system._assemble, np.array([w0]), rhs,
                                           root=root, jac=jac, t=1.4)
                    want = assembly_outcome(former_assemble, system, np.array([w0]), rhs,
                                            root=root, jac=jac, t=1.4)
                    for a, b in zip(got, want):
                        assert_same_bits(a, b)

    @pytest.mark.parametrize("domain", [SphereConstant(), Annulus(0.5, 2.0, 0.1, -0.4),
                                        Ball(1.5, 0.2)])
    def test_public_assemble_guards_the_cone(self, domain):
        """assemble(problem, w, rhs) with its default check_cone=True, the
        sphere included: the former margin, message, F and J."""
        rng = np.random.default_rng(38)
        problem = RadialProblem(CONE32, domain, p=4.0, f=1.0)
        system = RadialSystem(problem, 1 if isinstance(domain, SphereConstant) else 33)
        rhs = ExpRHS(1.3, 0.7)
        refused = 0
        for sign in (1.0, -1.0, 1.0, -1.0):
            w = sign * random_admissible_iterate(system, rng)
            try:
                former_cone_guard(system, w)
            except AdmissibilityError as exc:
                refused += 1
                with pytest.raises(AdmissibilityError) as info:
                    assemble(problem, w, rhs)
                assert str(info.value) == str(exc)
                continue
            F, _, J, _, _ = former_assemble(system, w, rhs, jac=True)
            got = assemble(problem, w, rhs)
            assert len(got) == 2
            assert_same_bits(got[0], F)
            assert_same_bits(got[1], J)
        # The sphere's stencil is the same for every w; a mirrored parabola
        # leaves the cone on the annulus and the ball.
        assert refused == (0 if system.kind == "sphere" else 2)

    def test_continuation_rhs_bits(self):
        rng = np.random.default_rng(37)
        ts = [-0.5, 0.0, 0.3, 1.0, 1.4, 1.999, 2.0, 2.5, 40.0, math.inf, -math.inf,
              math.nan, *rng.uniform(-1.0, 3.0, 200)]
        r = np.linspace(0.5, 2.0, 64)
        for delta0 in (0.3, 1e-3, 1.0):
            for f in (1.0, lambda x: 1.0 + x**2):
                rhs = ContinuationRHS(CONE32, 4.0, f, delta0=delta0)
                w = rng.normal(scale=3.0, size=64)
                w[:3] = (-800.0, 800.0, np.nan)
                with np.errstate(all="ignore"):
                    for t in ts:
                        got = rhs.evaluate(r, w, t)
                        want = former_continuation_evaluate(rhs, r, w, t)
                        for a, b in zip(got, want):
                            assert_same_bits(a, b)


class TestTridiagonalBorderedRoute:
    """kl = ku = 1, n >= 3 with Python-float scalars and its own tridiagonal
    product, against the former route (former_bordered_solve)."""

    def test_random_systems(self):
        from khessian.solver import _bordered_solve
        rng = np.random.default_rng(3803)
        seen, errors = Counter(), Counter()
        for i in range(10_000):
            n, kind = int(rng.integers(3, 12)), i % 8
            # Entries 120 decades apart make some systems take the refinement step.
            z = rng.normal(size=(6, n))
            if kind >= 5:
                z *= 10.0 ** rng.uniform(-60, 60, size=(6, n))
            band, col, row, f = z[:3], z[3], z[4], z[5]
            corner, g = float(rng.normal()), float(rng.normal())
            if kind == 1:           # a zero pivot: the dense fallback
                band[1, 0] = band[2, 0] = 0.0
            elif kind == 2:         # a zero Schur complement
                col[:] = 0.0
                corner = 0.0
            elif kind == 3:         # a result that overflows
                band[1] *= 1e-300
                f *= 1e300
            elif kind == 4:         # a zero border
                col[:] = row[:] = 0.0
            want = outcome(former_bordered_solve, band, 1, 1, col, row, corner, f, g, seen)
            got = outcome(_bordered_solve, band, 1, 1, col, row, corner, f, g)
            assert_same_outcome(got, want)
            if isinstance(want[0], str):
                errors[want[1]] += 1
        assert seen["dense"] >= 500 and seen["refined"] >= 50, seen
        assert errors["singular bordered system"] >= 500, errors
        assert errors["bordered solve is not finite"] >= 100, errors
