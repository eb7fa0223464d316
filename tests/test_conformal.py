import math

import numpy as np
import pytest

from khessian.conformal import (
    Background,
    ConformalJet,
    Gauge,
    convert_gauge,
    jet_from_radial,
    kelvin_transform,
    matrix_U,
    matrix_V,
    matrix_W,
    schouten_eigenvalues,
    wgauge_rhs_amplitude,
    wgauge_rhs_exponent,
)
from khessian.symfunc import in_gamma_k, sym_eigenvalues


def random_w_jet(rng, n, background=None):
    bg = background if background is not None else Background.flat(n)
    H = rng.normal(size=(n, n))
    return ConformalJet(Gauge.W, float(rng.normal()), rng.normal(size=n),
                        0.5 * (H + H.T), bg)


class TestConversions:
    def test_identity_point(self):
        jet = ConformalJet(Gauge.W, 0.0, np.zeros(3), np.zeros((3, 3)),
                           Background.flat(3))
        ju = convert_gauge(jet, Gauge.U)
        assert ju.value == pytest.approx(1.0, abs=0)
        assert np.allclose(ju.grad, 0.0) and np.allclose(ju.hess, 0.0)

    def test_fundamental_solution_across_gauges(self):
        # v = r^{2-n} corresponds to w = 2 log r + const
        n, r = 4, 1.7
        val = r ** (2 - n)
        d1 = (2 - n) * r ** (1 - n)
        d2 = (2 - n) * (1 - n) * r ** (-n)
        jet = jet_from_radial(Gauge.V, r, val, d1, d2, Background.flat(n))
        jw = convert_gauge(jet, Gauge.W)
        # w = -2/(n-2) log v = 2 log r; so grad w = (0,..,0, 2/r)
        assert jw.value == pytest.approx(2 * math.log(r), rel=1e-14)
        assert jw.grad[-1] == pytest.approx(2.0 / r, rel=1e-13)

    def test_round_trips(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(3, 6))
            jet = random_w_jet(rng, n)
            for target in (Gauge.U, Gauge.V, Gauge.CHI):
                back = convert_gauge(convert_gauge(jet, target), Gauge.W)
                scale = max(1.0, np.abs(jet.hess).max())
                assert abs(back.value - jet.value) <= 1e-12
                assert np.abs(back.grad - jet.grad).max() <= 1e-12 * scale
                assert np.abs(back.hess - jet.hess).max() <= 1e-12 * scale

    def test_conversions_compose(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(3, 6))
            jet = random_w_jet(rng, n)
            via = convert_gauge(convert_gauge(jet, Gauge.U), Gauge.V)
            direct = convert_gauge(jet, Gauge.V)
            scale = max(1.0, np.abs(direct.hess).max())
            assert abs(via.value - direct.value) <= 1e-12 * max(1.0, direct.value)
            assert np.abs(via.hess - direct.hess).max() <= 1e-12 * scale

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            ConformalJet(Gauge.U, -1.0, np.zeros(3), np.zeros((3, 3)),
                         Background.flat(3))


class TestCurvatureMatrices:
    def test_flat_constant_gives_zero(self):
        jet = ConformalJet(Gauge.W, 0.7, np.zeros(3), np.zeros((3, 3)),
                           Background.flat(3))
        assert np.allclose(matrix_W(jet), 0.0)

    def test_radial_log_gives_zero_matrix(self):
        n, r = 5, 0.9
        jet = jet_from_radial(Gauge.W, r, 2 * math.log(r), 2 / r, -2 / r**2,
                              Background.flat(n))
        W = matrix_W(jet)
        assert np.abs(sym_eigenvalues(W)).max() <= 1e-13

    def test_round_sphere_constant(self):
        jet = ConformalJet(Gauge.W, 0.25, np.zeros(4), np.zeros((4, 4)),
                           Background.round_sphere(4))
        assert np.allclose(matrix_W(jet), 0.5 * np.eye(4))

    def test_u_constant_on_sphere(self):
        jet = ConformalJet(Gauge.U, 1.0, np.zeros(3), np.zeros((3, 3)),
                           Background.round_sphere(3))
        assert np.allclose(matrix_U(jet), 0.5 * np.eye(3))

    def test_v_constant_flat_zero(self):
        jet = ConformalJet(Gauge.V, 1.0, np.zeros(3), np.zeros((3, 3)),
                           Background.flat(3))
        assert np.allclose(matrix_V(jet), 0.0)

    def test_v_constant_round_sphere_n3(self):
        jet = ConformalJet(Gauge.V, 1.0, np.zeros(3), np.zeros((3, 3)),
                           Background.round_sphere(3))
        assert np.allclose(sym_eigenvalues(matrix_V(jet)), 0.25)

    def test_v_bridge_identity(self):
        # V = ((n-2)/2) v W for the same metric point
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(3, 6))
            bg = [Background.flat(n), Background.round_sphere(n)][int(rng.integers(2))]
            jet = random_w_jet(rng, n, bg)
            jv = convert_gauge(jet, Gauge.V)
            V = matrix_V(jv)
            W = matrix_W(jet)
            scale = max(1.0, np.abs(V).max())
            assert np.abs(V - 0.5 * (n - 2) * jv.value * W).max() <= 1e-12 * scale

    def test_u_bridge_identity_flat(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(3, 6))
            jet = random_w_jet(rng, n)
            ju = convert_gauge(jet, Gauge.U)
            U = matrix_U(ju)
            W = matrix_W(jet)
            scale = max(1.0, np.abs(U).max())
            assert np.abs(U - math.exp(jet.value) * W).max() <= 1e-12 * scale

    def test_cone_membership_gauge_invariant(self):
        rng = np.random.default_rng(4)
        hits = 0
        for _ in range(300):
            n = int(rng.integers(3, 6))
            k = int(rng.integers(2, n + 1))
            jet = random_w_jet(rng, n)
            lam_w = sym_eigenvalues(matrix_W(jet))
            lam_u = sym_eigenvalues(matrix_U(convert_gauge(jet, Gauge.U)))
            lam_v = sym_eigenvalues(matrix_V(convert_gauge(jet, Gauge.V)))
            members = {in_gamma_k(lam_w, k), in_gamma_k(lam_u, k), in_gamma_k(lam_v, k)}
            assert len(members) == 1
            hits += in_gamma_k(lam_w, k)
        assert hits > 0  # the sample actually exercises both branches

    def test_gauge_mismatch_raises(self):
        jet = ConformalJet(Gauge.U, 1.0, np.zeros(3), np.zeros((3, 3)),
                           Background.flat(3))
        with pytest.raises(ValueError):
            matrix_W(jet)


class TestSchoutenEigenvalues:
    def test_constant_on_round_sphere(self):
        c = -0.37
        jet = ConformalJet(Gauge.W, c, np.zeros(3), np.zeros((3, 3)),
                           Background.round_sphere(3))
        assert np.allclose(schouten_eigenvalues(jet), math.exp(2 * c) * 0.5,
                           rtol=1e-13)

    def test_fundamental_solution_is_scalar_flat(self):
        jet = jet_from_radial(Gauge.W, 1.3, 2 * math.log(1.3), 2 / 1.3,
                              -2 / 1.3**2, Background.flat(3))
        assert np.abs(schouten_eigenvalues(jet)).max() <= 1e-12

    def test_flat_trivial(self):
        jet = ConformalJet(Gauge.W, 0.0, np.zeros(4), np.zeros((4, 4)),
                           Background.flat(4))
        assert np.allclose(schouten_eigenvalues(jet), 0.0)


class TestKelvin:
    def test_constant_becomes_fundamental(self):
        r = np.geomspace(0.5, 2.0, 17)
        s, vs = kelvin_transform(r, np.ones_like(r), 3)
        assert np.allclose(vs, s ** (2 - 3), rtol=1e-14)

    def test_fundamental_becomes_constant(self):
        n = 4
        r = np.geomspace(0.25, 4.0, 21)
        s, vs = kelvin_transform(r, r ** (2 - n), n)
        assert np.allclose(vs, 1.0, rtol=1e-13)

    def test_involution(self):
        rng = np.random.default_rng(5)
        r = np.geomspace(0.3, 3.0, 33)
        v = np.exp(0.2 * rng.normal(size=33)) + 0.4
        s, vs = kelvin_transform(r, v, 5)
        r2, v2 = kelvin_transform(s, vs, 5)
        assert np.abs(r2 - r).max() <= 1e-12 * r.max()
        assert np.abs(v2 - v).max() <= 1e-12 * np.abs(v).max()

    def test_requires_positive_grid(self):
        with pytest.raises(ValueError):
            kelvin_transform([-1.0, 1.0], [1.0, 1.0], 3)


def test_rhs_exponent_and_amplitude():
    assert wgauge_rhs_exponent(3, 2, 0.0) == pytest.approx(1.0)
    assert wgauge_rhs_exponent(3, 2, 4.0) == pytest.approx(-1.0)
    assert wgauge_rhs_exponent(4, 3, 3.0) == 0.0
    assert wgauge_rhs_amplitude(1.0, 3, 2) == pytest.approx(4.0)
    assert wgauge_rhs_amplitude(2.0, 4, 3) == pytest.approx(2.0)
