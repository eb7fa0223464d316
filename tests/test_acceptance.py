"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-6, 8, 9 and 11 are checks of `khessian verify`: test_verify_checks
runs that list at seeds 0-24, which draws 10 000 sigma recurrence, 10 000
radial factorization, 7 500 minor identity and 5 000 gauge samples.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines
alongside the pytest verdicts.
"""

import math

import numpy as np

from khessian import analysis, cli, radial, solver
from khessian.symfunc import ConeParams


def report(num, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} ({name}): {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_verify_checks():
    failed = []
    for seed in range(25):
        for name, ok, detail in cli._verify_checks(seed):
            print(f"[{'PASS' if ok else 'FAIL'}] verify --seed {seed} ({name}): {detail}")
            if not ok:
                failed.append(f"seed {seed}, {name}: {detail}")
    assert not failed, "\n".join(failed)


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
