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


def same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def w_jet_stack(rng, shape, n, background):
    H = rng.normal(size=shape + (n, n))
    return ConformalJet(Gauge.W, rng.normal(size=shape), rng.normal(size=shape + (n,)),
                        0.5 * (H + H.swapaxes(-1, -2)), background)


def single_jets(stack):
    """The jets of a stack, one at a time, with float values."""
    n = stack.n
    return [ConformalJet(stack.gauge, float(v), g, H, stack.background)
            for v, g, H in zip(stack.value.ravel(), stack.grad.reshape(-1, n),
                               stack.hess.reshape(-1, n, n))]


class TestStackedJets:
    """A ConformalJet may hold a stack of jets on one background: value (...),
    grad (..., n), hess (..., n, n).  convert_gauge, the curvature matrices and
    the Schouten eigenvalues give each jet of the stack the bits it gets alone."""

    @pytest.mark.parametrize("shape", [(7,), (2, 3), (1,), (0,)])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_each_jet_is_its_own_call(self, shape, n):
        rng = np.random.default_rng(60 + n)
        for background in (Background.flat(n), Background.round_sphere(n)):
            jet = w_jet_stack(rng, shape, n, background)
            # (source, converted): W -> U -> CHI -> V -> W, and W -> V, W -> CHI
            steps = [(jet, convert_gauge(jet, Gauge.U))]
            for target in (Gauge.CHI, Gauge.V, Gauge.W):
                steps.append((steps[-1][1], convert_gauge(steps[-1][1], target)))
            steps += [(jet, convert_gauge(jet, g)) for g in (Gauge.V, Gauge.CHI)]
            chain = [jet] + [converted for _, converted in steps]
            for source, stacked in steps:
                assert stacked.value.shape == shape and stacked.hess.shape == shape + (n, n)
                for one, before in zip(single_jets(stacked), single_jets(source)):
                    alone = convert_gauge(before, stacked.gauge)
                    assert type(alone.value) is float
                    assert same_bits(one.value, alone.value)
                    assert same_bits(one.grad, alone.grad) and same_bits(one.hess, alone.hess)
            matrices = {Gauge.W: matrix_W, Gauge.U: matrix_U, Gauge.V: matrix_V}
            for stacked in chain:
                ones = single_jets(stacked)
                got = schouten_eigenvalues(stacked).reshape(-1, n)
                assert all(same_bits(x, schouten_eigenvalues(j)) for x, j in zip(got, ones))
                if stacked.gauge in matrices:
                    M = matrices[stacked.gauge]
                    got = M(stacked)
                    assert got.shape == shape + (n, n)
                    got = got.reshape(-1, n, n)
                    assert all(same_bits(x, M(j)) for x, j in zip(got, ones))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_one_jet_keeps_the_former_formulas(self, n):
        # The single-jet formulas before stacks: np.outer, float(g @ g) and
        # value**2 of a float.  Stacks must not change a single jet's bits.
        def exp_jet(w, gw, Hw, f):
            val = np.exp(f * w)
            return val, f * val * gw, val * (f * Hw + f**2 * np.outer(gw, gw))

        def log_jet(value, grad, hess, f):
            return (f * np.log(value), (f / value) * grad,
                    f * (hess / value - np.outer(grad, grad) / value**2))

        rng = np.random.default_rng(80 + n)
        for background in (Background.flat(n), Background.round_sphere(n)):
            A = background.schouten
            for _ in range(50):
                jet = random_w_jet(rng, n, background)
                w, g, H = jet.value, jet.grad, jet.hess
                for gauge, f in ((Gauge.U, 1.0), (Gauge.V, -(n - 2) / 2.0), (Gauge.CHI, -2.0)):
                    val, gg, HH = exp_jet(w, g, H, f)
                    want = ConformalJet(gauge, float(val), gg, HH, background)
                    got = convert_gauge(jet, gauge)
                    assert same_bits(got.value, want.value)
                    assert same_bits(got.grad, want.grad) and same_bits(got.hess, want.hess)
                    back = log_jet(got.value, got.grad, got.hess, 1.0 / f)
                    got = convert_gauge(got, Gauge.W)
                    assert same_bits(got.value, float(back[0]))
                    assert same_bits(got.grad, back[1]) and same_bits(got.hess, 0.5 * (back[2] + back[2].T))
                assert same_bits(matrix_W(jet), H + np.outer(g, g) - 0.5 * float(g @ g) * np.eye(n) + A)
                ju = convert_gauge(jet, Gauge.U)
                u, g, H = ju.value, ju.grad, ju.hess
                assert same_bits(matrix_U(ju), H - float(g @ g) / (2.0 * u) * np.eye(n) + u * A)
                jv = convert_gauge(jet, Gauge.V)
                v, g, H = jv.value, jv.grad, jv.hess
                assert same_bits(matrix_V(jv), -H + (n / (n - 2)) * np.outer(g, g) / v
                                 - float(g @ g) / ((n - 2) * v) * np.eye(n) + 0.5 * (n - 2) * v * A)

    def test_value_squares_by_pow(self):
        # The former single-jet log jet divided by value**2 of a float, by pow;
        # for these values x * x differs in the last bit.
        rng = np.random.default_rng(71)
        x = np.abs(rng.normal(size=100000)) + 0.1
        odd = np.array([v for v in x.tolist() if v ** 2 != v * v][:20])
        assert len(odd) == 20
        g = rng.normal(size=(20, 3))
        H = rng.normal(size=(20, 3, 3))
        H = 0.5 * (H + H.swapaxes(-1, -2))
        jw = convert_gauge(ConformalJet(Gauge.U, odd, g, H, Background.flat(3)), Gauge.W)
        for u, gu, Hu, got in zip(odd.tolist(), g, H, jw.hess):
            assert same_bits(got, Hu / u - np.outer(gu, gu) / u**2)

    def test_hessian_symmetry_is_checked_per_jet(self):
        # Jet 0 is scaled by 1e6; jet 2's asymmetry of 1e-8 fails at its own scale.
        rng = np.random.default_rng(70)
        H = rng.normal(size=(3, 4, 4))
        H = 0.5 * (H + H.swapaxes(-1, -2))
        H[0] *= 1e6
        H[2, 0, 1] += 1e-8
        with pytest.raises(ValueError, match="jet hessian must be symmetric"):
            ConformalJet(Gauge.W, 0.0, np.zeros(4), H[2], Background.flat(4))
        with pytest.raises(ValueError, match="jet hessian must be symmetric"):
            ConformalJet(Gauge.W, np.zeros(3), np.zeros((3, 4)), H, Background.flat(4))

    @pytest.mark.parametrize("gauge", [Gauge.U, Gauge.V, Gauge.CHI])
    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
    def test_one_nonpositive_value_raises(self, gauge, bad):
        value = np.array([1.0, 2.0, bad, 0.5])
        with pytest.raises(ValueError, match=f"{gauge.value}-gauge value must be positive"):
            ConformalJet(gauge, value, np.zeros((4, 3)), np.zeros((4, 3, 3)), Background.flat(3))

    @pytest.mark.parametrize("value, grad, hess, message", [
        (np.zeros(2), np.zeros((3, 4)), np.zeros((3, 4, 4)),
         "jet values do not match the leading axes of the gradient"),
        (0.0, np.zeros((3, 4)), np.zeros((3, 4, 4)),
         "jet values do not match the leading axes of the gradient"),
        (np.zeros(3), np.zeros((3, 4)), np.zeros((4, 4)),
         "hessian shape does not match gradient length"),
        (np.zeros(3), np.zeros((3, 4)), np.zeros((3, 3, 3)),
         "hessian shape does not match gradient length"),
    ])
    def test_stack_shape_errors(self, value, grad, hess, message):
        with pytest.raises(ValueError, match=message):
            ConformalJet(Gauge.W, value, grad, hess, Background.flat(4))
