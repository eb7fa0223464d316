"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-6, 8-11 and 14 are checks of `khessian verify`: test_verify_checks
runs that list at seeds 0-24, which draws 10 000 sigma recurrence, 10 000
radial factorization, 7 500 minor identity and 5 000 gauge samples.
Criterion 7 (manufactured solve) is test_solver.py's
TestNewton::test_manufactured_convergence_order.

Criteria 12 and 13 stay here: they take about 0.10 s and 0.05 s, against the
0.053 s of a whole `khessian verify` run, which the benchmark times.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines
alongside the pytest verdicts.
"""

import numpy as np

from khessian import analysis, cli, radial
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
        all_ok &= not radial.envelope_viscosity_check(env, cone)

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
