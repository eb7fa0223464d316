"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from khessian import analysis, conformal, radial, solver, symfunc
from khessian.symfunc import ConeParams


def report(num, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} ({name}): {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# ---------------------------------------------------------------------------
# 1. sigma_k correctness: recurrence vs subset enumeration, 1e-12 relative
# ---------------------------------------------------------------------------

def test_criterion_01_sigma_recurrence():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(10000):
        n = int(rng.integers(2, 9))
        lam = rng.normal(size=n) * rng.uniform(0.5, 2.0)
        j = int(rng.integers(0, n + 1))
        if j == 0:
            brute, scale = 1.0, 1.0
        else:
            brute = sum(math.prod(c) for c in itertools.combinations(lam, j))
            scale = max(1.0, sum(math.prod(c)
                                 for c in itertools.combinations(np.abs(lam), j)))
        worst = max(worst, abs(symfunc.sigma(lam, j) - brute) / scale)
    report(1, "sigma recurrence", worst <= 1e-12, f"max relative diff {worst:.3e}")


# ---------------------------------------------------------------------------
# 2. radial factorization vs principal-minor matrix route, 1e-12
# ---------------------------------------------------------------------------

def test_criterion_02_radial_factorization():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 7))
        k = int(rng.integers(1, n + 1))
        a, b = rng.normal(size=2) * rng.uniform(0.5, 2.0)
        direct = float(radial.sigma_k_radial(
            radial.RadialAB(np.array([a]), np.array([b])), ConeParams(n, k))[0])
        mat = symfunc.sigma_of_matrix(np.diag(np.r_[np.full(n - 1, b), a]), k)
        worst = max(worst, abs(direct - mat) / max(1.0, abs(mat)))
    report(2, "radial factorization", worst <= 1e-12, f"max relative diff {worst:.3e}")


# ---------------------------------------------------------------------------
# 3. bordered minor identity residual <= 1e-10 on random arrow matrices
# ---------------------------------------------------------------------------

def test_criterion_03_minor_identity():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        S = np.diag(rng.normal(size=n))
        S[:-1, -1] = rng.normal(size=n - 1)
        S[-1, :-1] = S[:-1, -1]
        k = int(rng.integers(1, n + 1))
        worst = max(worst, symfunc.bordered_minor_identity_residual(S, k))
    report(3, "minor identity", worst <= 1e-10, f"max residual {worst:.3e}")


# ---------------------------------------------------------------------------
# 4. gauge bridge identities on random jets
# ---------------------------------------------------------------------------

def test_criterion_04_gauge_bridge():
    rng = np.random.default_rng(104)
    worst_v = worst_u = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 6))
        bg = [conformal.Background.flat(n),
              conformal.Background.round_sphere(n)][int(rng.integers(2))]
        H = rng.normal(size=(n, n))
        jet = conformal.ConformalJet(conformal.Gauge.W, float(rng.normal()),
                                     rng.normal(size=n), 0.5 * (H + H.T), bg)
        W = conformal.matrix_W(jet)
        jv = conformal.convert_gauge(jet, conformal.Gauge.V)
        V = conformal.matrix_V(jv)
        worst_v = max(worst_v, np.abs(V - 0.5 * (n - 2) * jv.value * W).max()
                      / max(1.0, np.abs(V).max()))
        if bg.kind == "flat":
            ju = conformal.convert_gauge(jet, conformal.Gauge.U)
            U = conformal.matrix_U(ju)
            worst_u = max(worst_u, np.abs(U - math.exp(jet.value) * W).max()
                          / max(1.0, np.abs(U).max()))
    ok = worst_v <= 1e-12 and worst_u <= 1e-12
    report(4, "gauge bridge", ok, f"V-bridge {worst_v:.3e}, U-bridge {worst_u:.3e}")


# ---------------------------------------------------------------------------
# 5. exact singular solution: a = b = 0, sigma_k = 0; classifier recovers C
# ---------------------------------------------------------------------------

def test_criterion_05_exact_singular_solution():
    r = np.geomspace(0.1, 10.0, 200)
    p = radial.RadialProfile.from_callables(r, 3, 2, lambda t: 2 * np.log(t),
                                            lambda t: 2.0 / t, lambda t: -2.0 / t**2)
    ab = radial.ab_reduce(p)
    sig = radial.sigma_k_radial(ab, p.cone)
    flat = max(np.abs(ab.a).max(), np.abs(ab.b).max(), np.abs(sig).max())
    rep = radial.classify_singularity(radial.RadialProfile.from_callables(
        radial.geometric_grid(1.0, 1e-6), 3, 2, lambda t: 2 * np.log(t) + 5.0,
        lambda t: 2.0 / t, lambda t: -2.0 / t**2))
    c_err = abs(rep.C - 5.0) if rep.klass == "fundamental" else np.inf
    ok = flat <= 1e-12 and rep.klass == "fundamental" and c_err <= 1e-10
    report(5, "singular solution", ok,
           f"max|a,b,sigma| {flat:.3e}, class {rep.klass}, C err {c_err:.3e}")


# ---------------------------------------------------------------------------
# 6. barrier identities for (n, k) in {(3,2), (4,3), (5,3), (5,4)}
# ---------------------------------------------------------------------------

def test_criterion_06_barriers():
    worst_lap = worst_rad = worst_pucci = 0.0
    for (n, k) in [(3, 2), (4, 3), (5, 3), (5, 4)]:
        r = np.geomspace(1e-3, 1.0, 80)
        _, rad, tangential = analysis.holder_barrier(r, n, k)
        lap_coeff = n * (k - 1) * (2 * k - n) / k**2
        rad_coeff = -(2 * k - n) * (n - k) / k**2
        worst_lap = max(worst_lap, np.abs(
            (rad + (n - 1) * tangential) * r ** (n / k) - lap_coeff).max())
        worst_rad = max(worst_rad, np.abs(rad * r ** (n / k) - rad_coeff).max())
        delta = analysis.pucci_delta(n, k)
        alpha = 2.0 - n / k
        for i in range(len(r)):
            P = analysis.pucci_min(np.r_[rad[i], np.full(n - 1, tangential[i])], delta)
            # eigenvalues all carry r^{alpha-2}; normalize before comparing to 0
            worst_pucci = max(worst_pucci, abs(P) / r[i] ** (alpha - 2.0))
    ok = worst_lap <= 1e-10 and worst_rad <= 1e-10 and worst_pucci <= 1e-12
    report(6, "barriers", ok,
           f"lap {worst_lap:.3e}, radial {worst_rad:.3e}, Pucci {worst_pucci:.3e}")


# ---------------------------------------------------------------------------
# 7. manufactured radial Dirichlet solve: quadratic contraction, order 2 +- 0.3
# ---------------------------------------------------------------------------

def test_criterion_07_manufactured_solve():
    wstar = lambda r: 1.6 * np.sqrt(r)

    def f_manu(r):
        r = np.asarray(r, dtype=float)
        dw = 0.8 * r**-0.5
        d2w = -0.4 * r**-1.5
        a = d2w + 0.5 * dw**2
        b = dw / r - 0.5 * dw**2
        return (b**2 + 2 * a * b) * np.exp(-wstar(r))

    errs = {}
    hist = None
    for N in (64, 128, 256):
        problem = solver.RadialProblem(ConeParams(3, 2),
                                       solver.Annulus(0.5, 2.0, wstar(0.5), wstar(2.0)),
                                       p=0.0, f=None)
        res = solver.newton_solve(problem, solver.ExpRHS(f_manu, 1.0),
                                  solver.SolverConfig(N=N))
        errs[N] = np.abs(res.w - wstar(np.linspace(0.5, 2.0, N))).max()
        hist = res.residual_history
    o1 = math.log2(errs[64] / errs[128])
    o2 = math.log2(errs[128] / errs[256])
    quad = any(hist[i + 1] <= 10.0 * hist[i] ** 1.6
               for i in range(len(hist) - 1) if 1e-12 < hist[i] < 1e-2)
    ok = 1.7 <= o1 <= 2.3 and 1.7 <= o2 <= 2.3 and quad
    report(7, "manufactured solve", ok,
           f"orders {o1:.2f}, {o2:.2f}; terminal contraction "
           f"{'quadratic' if quad else 'not quadratic'}")


# ---------------------------------------------------------------------------
# 8. eigenvalue theta on the sphere reduction, within one ulp
# ---------------------------------------------------------------------------

def test_criterion_08_eigenvalue_theta():
    p32 = solver.RadialProblem(ConeParams(3, 2), solver.SphereConstant(), p=2.0, f=1.0)
    p43 = solver.RadialProblem(ConeParams(4, 3), solver.SphereConstant(), p=3.0, f=1.0)
    t32 = solver.solve_eigenvalue(p32).theta
    t43 = solver.solve_eigenvalue(p43).theta
    e32 = abs(t32 - 3 / 16) / math.ulp(3 / 16)
    e43 = abs(t43 - 0.5) / math.ulp(0.5)
    ok = e32 <= 1 and e43 <= 1
    report(8, "eigenvalue theta", ok,
           f"theta(3,2) = {t32!r} ({e32:g} ulp), theta(4,3) = {t43!r} ({e43:g} ulp)")


# ---------------------------------------------------------------------------
# 9. fold: t* = 3/32 to 1e-8 and two solutions at 0.9 t* matching the oracle
# ---------------------------------------------------------------------------

def test_criterion_09_fold():
    A = 3.0 / 16.0
    problem = solver.RadialProblem(ConeParams(3, 2), solver.SphereConstant(),
                                   p=4.0, f=1.0)
    config = solver.SolverConfig(N=1, delta0=1.0, ds0=0.02, t_start=0.005,
                                 after_fold_frac=0.6)
    branch = solver.continuation_supercritical(problem, config)
    t_err = abs(branch.t_star - 3 / 32)
    t_query = 0.9 * 3 / 32
    sols = sorted(math.exp(-0.5 * w[0]) for w in branch.solutions_at(t_query))
    g = lambda v: A * v**2 - t_query * (1 + v**4)
    oracle = sorted([brentq(g, 1e-6, 1.0, xtol=1e-15),
                     brentq(g, 1.0, 50.0, xtol=1e-15)])
    sol_err = max(abs(a - b) for a, b in zip(sols, oracle)) if len(sols) == 2 else np.inf
    ok = t_err <= 1e-8 * (3 / 32) and len(sols) == 2 and sol_err <= 1e-8
    report(9, "fold", ok,
           f"t* err {t_err:.2e}, {len(sols)} solutions at 0.9 t*, match {sol_err:.2e}")


# ---------------------------------------------------------------------------
# 10. Holder exponent recovery within 2% for (3,2) and (5,3)
# ---------------------------------------------------------------------------

def test_criterion_10_holder_exponent():
    details = []
    ok = True
    for (n, k) in [(3, 2), (5, 3)]:
        theta = (n - k) / k
        c = 0.5
        p = radial.RadialProfile.from_callables(
            radial.geometric_grid(1.0, 1e-6), n, k,
            lambda t: c / (1 - theta) * t ** (1 - theta),
            lambda t: c * t ** (-theta),
            lambda t: -c * theta * t ** (-theta - 1))
        rep = radial.classify_singularity(p)
        alpha = 2.0 - n / k
        err = abs(rep.alpha_est - alpha) / alpha if rep.klass == "holder" else np.inf
        ok &= rep.klass == "holder" and err <= 0.02
        details.append(f"({n},{k}): alpha {rep.alpha_est:.4f} vs {alpha:.4f}")
    report(10, "Holder exponent", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 11. volume diagnostics
# ---------------------------------------------------------------------------

def test_criterion_11_volume():
    s = np.linspace(0.05, 0.5, 20)
    curve = analysis.volume_ratio(lambda t: math.log((1 + t * t) / 2), 3, s)
    monotone = bool(np.all(np.diff(curve.Q) <= 1e-6))
    _, c2 = analysis.fit_volume_expansion(curve)
    c2_ok = abs(c2 + 0.2) <= 0.05 * 0.2

    w_log = lambda t: 2 * math.log(t)
    omega3 = analysis.sphere_area(3)
    vol_ok = True
    worst_vol = 0.0
    for (r1, r2) in [(0.1, 0.5), (0.2, 2.0), (0.05, 0.3)]:
        exact = (omega3 / 3) * (r1**-3 - r2**-3)
        rel = abs(analysis.annulus_volume(w_log, r1, r2, 3) / exact - 1.0)
        worst_vol = max(worst_vol, rel)
        vol_ok &= rel <= 1e-8

    end_curve = analysis.volume_ratio(w_log, 3, np.linspace(5.0, 900.0, 25),
                                      mode="end", rho_ref=0.5)
    ends = analysis.end_count(end_curve)
    ok = monotone and c2_ok and vol_ok and ends.m == 1 and ends.status == "converged"
    report(11, "volume diagnostics", ok,
           f"monotone {monotone}, c2 {c2:.4f}, annulus err {worst_vol:.2e}, m = {ends.m}")


# ---------------------------------------------------------------------------
# 12. admissibility preservation under mollification and pointwise max
# ---------------------------------------------------------------------------

def test_criterion_12_admissibility_preservation():
    rng = np.random.default_rng(112)
    cone = ConeParams(3, 2)
    shape, h = (17, 17, 17), 0.1
    base = radial.GridField(h, np.zeros(shape))
    coords = base.node_coordinates()

    moll_ok = True
    for _ in range(100):
        vals = None
        for _ in range(int(rng.integers(1, 4))):
            x0 = rng.uniform(-0.3, 0.3, size=3)
            u = rng.uniform(0.5, 2.0) * ((coords - x0) ** 2).sum(axis=1) \
                + rng.uniform(0.5, 2.0)
            vals = u if vals is None else np.maximum(vals, u)
        field = radial.GridField(h, vals.reshape(shape))
        mol = analysis.mollify(field, 0.25)
        ok_mask, _ = analysis.u_field_admissible_mask(mol, cone, margin=1e-9)
        moll_ok &= bool(ok_mask.all())

    # pointwise max of admissible pairs, checked away from the kink margin
    max_ok = True
    for _ in range(20):
        pair = []
        for _ in range(2):
            x0 = rng.uniform(-0.3, 0.3, size=3)
            u = rng.uniform(0.5, 2.0) * ((coords - x0) ** 2).sum(axis=1) \
                + rng.uniform(0.5, 2.0)
            pair.append(radial.GridField(h, u.reshape(shape)))
        merged, kink = analysis.pointwise_max_fields(pair[0], pair[1], kink_cells=3)
        ok_mask, inner = analysis.u_field_admissible_mask(merged, cone, margin=1e-9)
        away = ~kink[inner]
        max_ok &= bool(ok_mask[away].all())

    # negative controls: concave field fails, and stays failed after mollify
    neg = radial.GridField(h, (10.0 - (coords**2).sum(axis=1)).reshape(shape))
    neg_raw, _ = analysis.u_field_admissible_mask(neg, cone)
    neg_mol, _ = analysis.u_field_admissible_mask(analysis.mollify(neg, 0.25), cone)
    neg_ok = not neg_raw.any() and not neg_mol.any()

    ok = moll_ok and max_ok and neg_ok
    report(12, "admissibility preservation", ok,
           f"mollify {moll_ok}, max {max_ok}, negative controls {neg_ok}")


# ---------------------------------------------------------------------------
# 13. envelope inequalities within tau = 10 h; radial identity to O(h)
# ---------------------------------------------------------------------------

def test_criterion_13_envelope():
    rng = np.random.default_rng(113)
    cone = ConeParams(3, 2)
    h = 0.02
    grid = radial.GridField(h, np.zeros((161, 161)))
    coords = grid.node_coordinates()
    theta = 0.5
    step = 4 * h
    radii = step * np.arange(1, 18)

    all_ok = True
    for _ in range(20):
        vals = None
        for _ in range(int(rng.integers(1, 4))):
            x0 = rng.uniform(-0.6, 0.6, size=2)
            while np.linalg.norm(x0) < 0.15:
                x0 = rng.uniform(-0.6, 0.6, size=2)
            c = rng.uniform(0.1, 0.5)
            d = np.maximum(np.sqrt(((coords - x0) ** 2).sum(axis=1)), 1e-12)
            u = c / (1 - theta) * d ** (1 - theta) + rng.uniform(-0.2, 0.2)
            vals = u if vals is None else np.maximum(vals, u)
        field = radial.GridField(h, vals.reshape(161, 161))
        env = radial.radial_envelope(field, (0.0, 0.0), radii=radii)
        check = radial.envelope_viscosity_check(env, cone, c_fd=10.0)
        all_ok &= check.passed

    # radial input: the envelope reproduces the profile to O(step)
    rr = np.maximum(np.sqrt((coords**2).sum(axis=1)), 1e-12)
    prof = lambda t: 0.8 * t ** (1 - theta)
    field = radial.GridField(h, prof(rr).reshape(161, 161))
    env = radial.radial_envelope(field, (0.0, 0.0), radii=radii)
    slope = 0.8 * (1 - theta) * radii ** (-theta)
    lag = np.abs(env.wtilde - prof(env.r))
    identity_ok = bool(np.all(lag <= 3.0 * h * slope + 1e-12))

    ok = all_ok and identity_ok
    report(13, "envelope", ok,
           f"20 random fields within tau=10h: {all_ok}; radial identity O(h): {identity_ok}")


# ---------------------------------------------------------------------------
# 14. Harnack ratio: constant across scales for the Holder family,
#     divergent for the singular family
# ---------------------------------------------------------------------------

def test_criterion_14_harnack():
    cone = ConeParams(3, 2)
    c, theta = 0.6, 0.5
    expected = 2 * c / (1 - theta)
    estimates = []
    for R in (0.01, 0.1, 1.0):
        r = np.geomspace(1e-8, R, 80)
        chi = np.exp(-2 * (c / (1 - theta)) * r ** (1 - theta))
        estimates.append(analysis.harnack_ratio(r, chi, cone).c_est)
    spread = max(abs(e - expected) / expected for e in estimates)

    singular = []
    for rmin in (1e-2, 1e-3, 1e-4):
        r = np.geomspace(rmin, 1.0, 60)
        singular.append(analysis.harnack_ratio(r, r**-4.0, cone).c_est)
    diverges = singular[1] > 2.0 * singular[0] and singular[2] > 2.0 * singular[1]

    ok = spread <= 0.03 and diverges
    report(14, "Harnack", ok,
           f"family spread {spread:.3%}; singular estimates "
           + " -> ".join(f"{x:.0f}" for x in singular))
