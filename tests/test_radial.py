import io
import math
import sys
import threading
import time
import tracemalloc
import zipfile

import numpy as np
import pytest

from khessian import radial
from khessian.radial import (
    GridField,
    RadialProfile,
    ab_reduce,
    check_rw_monotone,
    classify_singularity,
    envelope_viscosity_check,
    geometric_grid,
    load_profile_csv,
    radial_admissible,
    radial_envelope,
    read_table,
    save_profile_csv,
    sigma_k_radial,
)
from khessian.symfunc import ConeParams, sigma_of_matrix


def log_profile(r, n=3, k=2, offset=0.0):
    return RadialProfile.from_callables(
        np.asarray(r, dtype=float), n, k,
        lambda t: 2.0 * np.log(t) + offset, lambda t: 2.0 / t, lambda t: -2.0 / t**2)


def holder_profile(r, c, n=3, k=2):
    theta = (n - k) / k
    return RadialProfile.from_callables(
        np.asarray(r, dtype=float), n, k,
        lambda t: c / (1 - theta) * t ** (1 - theta),
        lambda t: c * t ** (-theta),
        lambda t: -c * theta * t ** (-theta - 1))


class TestABReduction:
    def test_log_solution_is_flat(self):
        p = log_profile(np.geomspace(0.1, 10.0, 80))
        ab = ab_reduce(p)
        assert np.abs(ab.a).max() <= 1e-12
        assert np.abs(ab.b).max() <= 1e-12

    def test_constant_profile(self):
        r = np.linspace(0.5, 2.0, 20)
        p = RadialProfile.from_callables(r, 3, 2, lambda t: 0 * t + 1.2,
                                         lambda t: 0 * t, lambda t: 0 * t)
        ab = ab_reduce(p)
        assert np.allclose(ab.a, 0.0) and np.allclose(ab.b, 0.0)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 1.7])
    def test_power_log_profile(self, beta):
        # w = beta log r: b = beta(2-beta)/(2 r^2), a = -b (hand differentiation)
        r = np.geomspace(0.2, 5.0, 50)
        p = RadialProfile.from_callables(r, 3, 2, lambda t: beta * np.log(t),
                                         lambda t: beta / t, lambda t: -beta / t**2)
        ab = ab_reduce(p)
        expected_b = beta * (2 - beta) / (2 * r**2)
        assert np.allclose(ab.b, expected_b, rtol=1e-12)
        assert np.allclose(ab.a, -expected_b, rtol=1e-12)

    def test_fd_mode_matches_analytic(self):
        r = np.linspace(0.5, 2.0, 400)
        pa = holder_profile(r, 0.8)
        pf = RadialProfile.from_samples(r, pa.w, 3, 2)
        assert np.abs(pf.dw - pa.dw).max() <= 5e-5
        # interior second derivatives are O(h^2); the one-sided closure is O(h)
        assert np.abs(pf.d2w - pa.d2w)[1:-1].max() <= 5e-3
        assert np.abs(pf.d2w - pa.d2w).max() <= 5e-2


class TestSigmaKRadial:
    def test_zero_at_origin_of_ab(self):
        cone = ConeParams(4, 3)
        from khessian.radial import RadialAB
        ab = RadialAB(np.zeros(3), np.zeros(3))
        assert np.allclose(sigma_k_radial(ab, cone), 0.0)

    def test_hand_value(self):
        from khessian.radial import RadialAB
        cone = ConeParams(3, 2)
        ab = RadialAB(np.array([1.0]), np.array([1.0]))
        # sigma_2(1, 1, 1) = 3
        assert sigma_k_radial(ab, cone)[0] == pytest.approx(3.0)

    def test_matches_matrix_route(self):
        from khessian.radial import RadialAB
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(3, 7))
            k = int(rng.integers(1, n + 1))
            a, b = rng.normal(size=2) * rng.uniform(0.5, 2.0)
            direct = float(sigma_k_radial(RadialAB(np.array([a]), np.array([b])),
                                          ConeParams(n, k))[0])
            mat = sigma_of_matrix(np.diag(np.r_[np.full(n - 1, b), a]), k)
            assert abs(direct - mat) <= 1e-12 * max(1.0, abs(mat))


class TestAdmissibility:
    def test_log_solution_is_boundary(self):
        p = log_profile(np.geomspace(0.1, 10.0, 50))
        ab = ab_reduce(p)
        assert radial_admissible(ab, p.cone, strict=False, tol=1e-10).all()
        # a = b = 0 up to rounding, so no node clears a strict margin
        assert not radial_admissible(ab, p.cone, strict=True, tol=1e-12).any()

    def test_power_log_inadmissible(self):
        # 0 < beta < 2: a + theta b = (theta - 1) b < 0
        r = np.geomspace(0.2, 5.0, 50)
        beta = 1.0
        p = RadialProfile.from_callables(r, 3, 2, lambda t: beta * np.log(t),
                                         lambda t: beta / t, lambda t: -beta / t**2)
        assert not radial_admissible(ab_reduce(p), p.cone).any()

    def test_holder_profile_strictly_admissible(self):
        r = np.geomspace(1e-3, 1.0, 60)
        p = holder_profile(r, 0.5)
        assert radial_admissible(ab_reduce(p), p.cone, strict=True).all()

    def test_requires_supercritical(self):
        r = np.geomspace(0.1, 1.0, 10)
        p = RadialProfile.from_callables(r, 4, 2, lambda t: 0 * t,
                                         lambda t: 0 * t, lambda t: 0 * t)
        with pytest.raises(ValueError):
            radial_admissible(ab_reduce(p), p.cone)


class TestRwMonotone:
    def test_log_solution_extremal(self):
        r = np.geomspace(0.1, 10.0, 60)
        assert check_rw_monotone(log_profile(r))
        # r w' = 2 + 1e-9 lies above the bound by more than the analytic slack
        steeper = RadialProfile.from_callables(r, 3, 2, lambda t: (2 + 1e-9) * np.log(t),
                                               lambda t: (2 + 1e-9) / t,
                                               lambda t: -(2 + 1e-9) / t**2)
        assert not check_rw_monotone(steeper)

    def test_constant_profile(self):
        r = np.linspace(0.5, 2.0, 30)
        p = RadialProfile.from_callables(r, 3, 2, lambda t: 0 * t,
                                         lambda t: 0 * t, lambda t: 0 * t)
        assert check_rw_monotone(p)

    def test_holder_profile_increasing(self):
        assert check_rw_monotone(holder_profile(np.geomspace(1e-4, 1.0, 70), 0.5))
        # r w' = 2 - r stays in [0, 2] but decreases
        p = RadialProfile.from_callables(np.linspace(0.1, 1.0, 40), 3, 2,
                                         lambda t: 2 * np.log(t) - t, lambda t: 2 / t - 1,
                                         lambda t: -2 / t**2)
        assert not check_rw_monotone(p)


class TestClassification:
    def test_fundamental_with_offset(self):
        p = log_profile(geometric_grid(1.0, 1e-6), offset=5.0)
        rep = classify_singularity(p)
        assert rep.klass == "fundamental"
        assert rep.C == pytest.approx(5.0, abs=1e-10)

    @pytest.mark.parametrize("n,k", [(3, 2), (5, 3)])
    def test_holder_exponent_recovery(self, n, k):
        p = holder_profile(geometric_grid(1.0, 1e-6), 0.5, n=n, k=k)
        rep = classify_singularity(p)
        alpha = 2.0 - n / k
        assert rep.klass == "holder"
        assert rep.alpha_est == pytest.approx(alpha, rel=0.02)

    def test_zero_profile_saturates(self):
        r = geometric_grid(1.0, 1e-4)
        p = RadialProfile.from_callables(r, 3, 2, lambda t: 0 * t,
                                         lambda t: 0 * t, lambda t: 0 * t)
        rep = classify_singularity(p)
        assert rep.klass == "holder"
        assert rep.saturated and rep.alpha_est >= 2.0 - 3.0 / 2.0

    def test_scale_equivariance(self):
        c = 3.7
        base = log_profile(geometric_grid(1.0, 1e-6), offset=1.0)
        rep0 = classify_singularity(base)
        scaled = RadialProfile.from_callables(
            geometric_grid(1.0, 1e-6), 3, 2,
            lambda t: 2.0 * np.log(c * t) + 1.0,
            lambda t: 2.0 / t, lambda t: -2.0 / t**2)
        rep1 = classify_singularity(scaled)
        assert rep0.klass == rep1.klass == "fundamental"
        assert rep1.C - rep0.C == pytest.approx(2.0 * math.log(c), abs=1e-9)

    def test_holder_class_scale_invariant(self):
        r = geometric_grid(1.0, 1e-5)
        c = 2.0
        p0 = holder_profile(r, 0.4)
        p1 = RadialProfile.from_callables(
            r, 3, 2,
            lambda t: 0.4 / 0.5 * (c * t) ** 0.5,
            lambda t: 0.4 * c**0.5 * t ** (-0.5),
            lambda t: -0.2 * c**0.5 * t ** (-1.5))
        assert classify_singularity(p0).klass == classify_singularity(p1).klass == "holder"

    def test_rejects_inadmissible(self):
        r = np.geomspace(1e-3, 1.0, 40)
        p = RadialProfile.from_callables(r, 3, 2, lambda t: np.log(t),
                                         lambda t: 1.0 / t, lambda t: -1.0 / t**2)
        with pytest.raises(ValueError):
            classify_singularity(p)

    def test_fd_mode_fundamental(self):
        # value-only samples: derivatives and cone slack come from the grid
        r = geometric_grid(1.0, 1e-6)
        p = RadialProfile.from_samples(r, 2 * np.log(r) + 5.0, 3, 2)
        rep = classify_singularity(p)
        assert rep.klass == "fundamental"
        assert rep.C == pytest.approx(5.0, abs=1e-8)

    def test_fd_mode_holder(self):
        r = geometric_grid(1.0, 1e-6)
        p = RadialProfile.from_samples(r, np.sqrt(r), 3, 2)
        rep = classify_singularity(p)
        assert rep.klass == "holder"
        assert rep.alpha_est == pytest.approx(0.5, rel=0.02)

    def test_fd_mode_rejects_inadmissible_on_resolvable_grid(self):
        r = np.linspace(0.01, 1.0, 2000)
        p = RadialProfile.from_samples(r, np.log(r), 3, 2)
        with pytest.raises(ValueError):
            classify_singularity(p)


# ---------------------------------------------------------------------------
# envelope
# ---------------------------------------------------------------------------

def bump_field(coords, centers, amps, offsets, theta=0.5):
    vals = None
    for x0, c, off in zip(centers, amps, offsets):
        d = np.sqrt(((coords - np.asarray(x0)) ** 2).sum(axis=1))
        u = c / (1 - theta) * np.maximum(d, 1e-12) ** (1 - theta) + off
        vals = u if vals is None else np.maximum(vals, u)
    return vals


class TestEnvelope:
    def setup_method(self):
        self.h = 0.02
        self.field = GridField(self.h, np.zeros((161, 161)))
        self.coords = self.field.node_coordinates()

    def test_constant_field(self):
        self.field.values = np.full((161, 161), 0.7)
        env = radial_envelope(self.field, (0.1, -0.05))
        assert np.allclose(env.wtilde, 0.7)

    def test_radial_input_reproduces_profile(self):
        rr = np.sqrt((self.coords**2).sum(axis=1))
        prof = lambda t: np.maximum(t, 1e-12) ** 0.5
        self.field.values = prof(rr).reshape(161, 161)
        env = radial_envelope(self.field, (0.0, 0.0))
        ra, wa = env.attained_samples()
        # samples at attained radii are exact; requested radii carry an O(h) lag
        assert np.abs(wa - prof(ra)).max() <= 1e-12
        lag = np.abs(env.wtilde - prof(env.r))
        slope = 0.5 * env.r ** (-0.5)
        assert np.all(lag <= 3.0 * self.h * slope + 1e-12)

    def test_running_max_matches_distance_transform_oracle(self):
        vals = bump_field(self.coords, [(0.3, -0.2), (-0.4, 0.1)], [0.5, 0.5],
                          [0.0, 0.1])
        self.field.values = vals.reshape(161, 161)
        center = np.array([0.05, 0.0])
        env = radial_envelope(self.field, center)
        flat = self.field.values.ravel()
        dists = np.sqrt(((self.coords - center) ** 2).sum(axis=1))
        uniq = np.unique(flat)
        # oracle: smallest level v with dist(center, {f > v}) > r
        for i in range(0, len(env.r), 9):
            r = env.r[i]
            oracle = None
            for v in uniq:
                mask = flat > v
                dmin = dists[mask].min() if mask.any() else np.inf
                if dmin > r:
                    oracle = v
                    break
            if oracle is None:
                oracle = uniq[-1]
            assert env.wtilde[i] == pytest.approx(oracle, abs=0)

    def test_monotone_in_radius_and_input(self):
        vals = bump_field(self.coords, [(0.2, 0.2)], [0.4], [0.0])
        self.field.values = vals.reshape(161, 161)
        env = radial_envelope(self.field, (0.0, 0.0))
        assert np.all(np.diff(env.wtilde) >= 0.0)
        bigger = GridField(self.h, self.field.values + 0.25)
        env2 = radial_envelope(bigger, (0.0, 0.0))
        assert np.all(env2.wtilde >= env.wtilde)

    def test_center_and_radius_validation(self):
        self.field.values = np.zeros((161, 161))
        with pytest.raises(ValueError):
            radial_envelope(self.field, (5.0, 0.0))
        with pytest.raises(ValueError):
            radial_envelope(self.field, (0.0, 0.0), radii=np.array([10.0]))
        for center in [(np.nan, 0.0), (0.0, np.inf)]:
            with pytest.raises(ValueError, match="center must be finite"):
                radial_envelope(self.field, center, radii=np.array([0.1, 0.2]))

    def test_viscosity_check_on_admissible_fields(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            centers, amps, offs = [], [], []
            for _ in range(int(rng.integers(1, 4))):
                x = rng.uniform(-0.6, 0.6, size=2)
                while np.linalg.norm(x) < 0.15:
                    x = rng.uniform(-0.6, 0.6, size=2)
                centers.append(x)
                amps.append(rng.uniform(0.1, 0.5))
                offs.append(rng.uniform(-0.2, 0.2))
            self.field.values = bump_field(self.coords, centers, amps,
                                           offs).reshape(161, 161)
            radii = (4 * self.h) * np.arange(1, 18)
            env = radial_envelope(self.field, (0.0, 0.0), radii=radii)
            violations = envelope_viscosity_check(env, ConeParams(3, 2))
            assert not violations, violations

    def test_viscosity_check_on_singular_field(self):
        rr = np.sqrt((self.coords**2).sum(axis=1))
        self.field.values = (2 * np.log(np.maximum(rr, 1e-300))).reshape(161, 161)
        env = radial_envelope(self.field, (0.0, 0.0),
                              radii=geometric_grid(1.5, 0.1, 0.85))
        ra, wa = env.attained_samples()
        assert np.abs(wa - 2 * np.log(ra)).max() <= 1e-12
        assert not envelope_viscosity_check(env, ConeParams(3, 2))

    def test_negative_control_reports_violations(self):
        self.field.values = (-50.0 * (self.coords**2).sum(axis=1)).reshape(161, 161)
        env = radial_envelope(self.field, (0.35, 0.35),
                              radii=(2 * self.h) * np.arange(1, 25))
        kinds = {v[2] for v in envelope_viscosity_check(env, ConeParams(3, 2))}
        assert "b" in kinds


def sorted_envelope(f, center, radii):
    """Reference envelope (the package's former implementation): a stable
    argsort of all node distances and a running maximum along it."""
    dist = np.sqrt(((f.node_coordinates() - center) ** 2).sum(axis=1))
    order = np.argsort(dist, kind="stable")
    dist_sorted = dist[order]
    vals_sorted = f.values.ravel()[order]
    running_max = np.maximum.accumulate(vals_sorted)
    improved = np.r_[True, vals_sorted[1:] > running_max[:-1]]
    last_improve = np.maximum.accumulate(np.where(improved, np.arange(len(vals_sorted)), -1))
    idx = np.maximum(np.searchsorted(dist_sorted, radii, side="right") - 1, 0)
    return running_max[idx], dist_sorted[last_improve][idx]


ENVELOPE_FIELDS = ["constant", "random", "rounded", "bumps"]


def envelope_field(kind, shape, seed):
    rng = np.random.default_rng(seed)
    f = GridField(0.05, np.zeros(shape))
    if kind == "constant":
        f.values = np.full(shape, 0.7)
    elif kind == "random":
        f.values = rng.normal(size=shape)
    elif kind == "rounded":
        # Few distinct values: many ties inside and across balls.
        f.values = np.round(rng.normal(size=shape), 1)
    else:
        coords = f.node_coordinates()
        centers = rng.uniform(-0.3, 0.3, size=(2, len(shape)))
        f.values = bump_field(coords, centers, [0.5, 0.4], [0.0, 0.1]).reshape(shape)
    return f


@pytest.mark.filterwarnings("error")
class TestEnvelopeExactness:
    """The binned envelope equals the former sorted running maximum bit for bit."""

    @pytest.mark.parametrize("kind", ENVELOPE_FIELDS)
    @pytest.mark.parametrize("shape, center", [
        ((40, 37), (0.0, 0.0)),            # off-node along axis 0
        ((41, 41), (0.0, 0.0)),            # node center
        ((41, 41), (0.0123, -0.0311)),
        ((16, 19, 20), (0.0, 0.0, 0.0)),   # off-node along two axes
        ((17, 17, 17), (0.0, 0.0, 0.0)),   # node center
        ((17, 17, 17), (0.021, -0.013, 0.04)),
    ])
    def test_matches_sorted_running_max(self, kind, shape, center):
        f = envelope_field(kind, shape, seed=len(shape) + shape[0])
        center = np.asarray(center)
        dist = np.sqrt(((f.node_coordinates() - center) ** 2).sum(axis=1))
        lattice = np.unique(dist)
        env = radial_envelope(f, center)
        r_max = env.r[-1]
        lattice = lattice[lattice <= r_max]
        radii_cases = [
            env.r,
            lattice[1:],                                  # radii equal to node distances
            lattice[::3][1:],
            np.r_[0.25 * lattice[lattice > 0][0], np.linspace(0.05, r_max, 7)],
            np.linspace(0.3 * r_max, r_max, 5),           # first radius holds many nodes
            np.array([0.5 * lattice[lattice > 0][0]]),    # shorter than any positive distance
        ]
        for radii in radii_cases:
            env = radial_envelope(f, center, radii=radii)
            wtilde, r_attained = sorted_envelope(f, center, radii)
            assert np.array_equal(env.wtilde, wtilde)
            assert np.array_equal(env.r_attained, r_attained)

    @pytest.mark.parametrize("kind", ENVELOPE_FIELDS)
    def test_first_radius_shorter_than_nearest_node(self, kind):
        # The center sits between nodes, so no node lies within radii[0].
        f = envelope_field(kind, (24, 24), seed=5)
        center = np.array([0.011, 0.007])
        radii = np.r_[0.001, 0.002, np.linspace(0.05, 0.5, 10)]
        env = radial_envelope(f, center, radii=radii)
        wtilde, r_attained = sorted_envelope(f, center, radii)
        assert np.array_equal(env.wtilde, wtilde)
        assert np.array_equal(env.r_attained, r_attained)
        assert env.r_attained[0] > radii[0]


def binned_envelope(f, center, radii):
    """Reference envelope (the package's former implementation): node
    distances, searchsorted bins, per-bin maxima and least attaining
    distances over the whole array at once, with no slabs or threads.
    Returns (wtilde, r_attained)."""
    dist = np.sqrt(sum(np.ix_(*[(x - c) ** 2 for x, c in zip(f.axes(), center)]))).ravel()
    vals = f.values.ravel()
    bins = np.searchsorted(radii, dist, side="left")
    bin_max = np.full(len(radii), -np.inf)
    bin_dist = np.full(len(radii), np.inf)
    nearest = int(np.argmin(dist))
    if bins[nearest] > 0:
        bin_max[0], bin_dist[0] = vals[nearest], dist[nearest]
    inside = bins < len(radii)
    bins, dist, vals = bins[inside], dist[inside], vals[inside]
    np.maximum.at(bin_max, bins, vals)
    top = vals == bin_max[bins]
    np.minimum.at(bin_dist, bins[top], dist[top])
    running_max = np.maximum.accumulate(bin_max)
    improved = np.r_[True, bin_max[1:] > running_max[:-1]]
    first = np.maximum.accumulate(np.where(improved, np.arange(len(radii)), 0))
    return running_max, bin_dist[first]


def dyadic_field(shape):
    """Zero field of spacing 0.5 with node coordinates -5, -4.5, ...: node
    distances from dyadic centres are exact, so ties are exact."""
    return GridField(0.5, np.zeros(shape), origin=np.full(len(shape), -5.0))


@pytest.mark.filterwarnings("error")
class TestEnvelopeSlabs:
    """radial_envelope bins each axis-0 slab on its own and combines the
    slabs in order; it gives the bits of the whole-array binning on one to
    three workers, with the default slabs and with one-plane slabs."""

    @pytest.fixture(autouse=True, params=[False, True], ids=["default_slabs", "thin_slabs"])
    def slabs(self, request, workers, monkeypatch):
        if request.param:
            monkeypatch.setattr(radial, "_SLAB_BYTES", 1)

    @staticmethod
    def check(f, center, radii=None):
        env = radial_envelope(f, center, radii)
        wtilde, r_attained = binned_envelope(f, np.asarray(center, dtype=float), env.r)
        if radii is not None:
            assert np.array_equal(env.r, np.asarray(radii, dtype=float))
        assert np.array_equal(env.wtilde, wtilde)
        assert np.array_equal(env.r_attained, r_attained)
        return env

    @pytest.mark.parametrize("kind", ENVELOPE_FIELDS)
    @pytest.mark.parametrize("shape, center", [
        ((40, 37), (0.0, 0.0)),
        ((41, 41), (0.0123, -0.0311)),
        ((16, 19, 20), (0.0, 0.0, 0.0)),
        ((17, 17, 17), (0.021, -0.013, 0.04)),
    ])
    def test_matches_whole_array_binning(self, kind, shape, center):
        f = envelope_field(kind, shape, seed=len(shape) + shape[0])
        env = self.check(f, center)
        self.check(f, center, np.linspace(0.3 * env.r[-1], env.r[-1], 5))

    @pytest.mark.parametrize("shape", [(21, 21), (21, 21, 21)])
    def test_bin_maximum_tied_across_slabs(self, shape):
        # The field's maximum, 9, at two nodes of the ball (3, 3.8] about
        # the centre, on planes 3 and 17; the bin reports the nearer node,
        # on the later plane.
        f = dyadic_field(shape)
        f.values = np.random.default_rng(7).uniform(-1.0, 1.0, shape)
        rest = (10,) * (len(shape) - 2)
        f.values[(3, 10) + rest] = 9.0       # at distance 3.75
        f.values[(17, 9) + rest] = 9.0       # at distance hypot(3.25, 0.5) = 3.29
        center = (0.25,) + (0.0,) * (len(shape) - 1)
        env = self.check(f, center, [1.0, 3.0, 3.8, 4.5])
        assert env.wtilde.tolist()[2:] == [9.0, 9.0]
        assert env.r_attained[2] == math.sqrt(3.25**2 + 0.5**2)

    @pytest.mark.parametrize("shape", [(21, 21), (21, 21, 21)])
    def test_nearest_node_tied_across_slabs(self, shape):
        # Nodes (10, 10, ...) and (11, 10, ...) are both nearest to the
        # centre, at 0.25, and no node lies within radii[0]: the first ball
        # reports the first of the two, as argmin over the whole field would.
        f = dyadic_field(shape)
        f.values = np.random.default_rng(8).uniform(-1.0, 1.0, shape)
        rest = (10,) * (len(shape) - 2)
        f.values[(10, 10) + rest] = 1.5
        f.values[(11, 10) + rest] = 2.5
        center = (0.25,) + (0.0,) * (len(shape) - 1)
        env = self.check(f, center, [0.1, 0.2, 1.0, 2.0])
        assert env.wtilde[0] == 1.5 and env.r_attained[0] == 0.25

    @pytest.mark.parametrize("shape", [(24, 24), (12, 13, 14)])
    @pytest.mark.parametrize("kind", ENVELOPE_FIELDS)
    def test_no_node_within_the_first_radius(self, shape, kind):
        f = envelope_field(kind, shape, seed=5)
        center = (0.011, 0.007, -0.003)[:len(shape)]
        env = self.check(f, center, np.r_[0.001, 0.002, np.linspace(0.05, 0.25, 10)])
        assert env.r_attained[0] > 0.001

    @pytest.mark.parametrize("shape", [(33, 30), (15, 16, 17)])
    @pytest.mark.parametrize("kind", ENVELOPE_FIELDS)
    def test_non_uniform_radii(self, shape, kind):
        f = envelope_field(kind, shape, seed=9)
        center = (0.013, -0.021, 0.002)[:len(shape)]
        self.check(f, center, np.r_[np.geomspace(0.004, 0.1, 9), 0.13, 0.2, 0.3])


class TestGridFieldIO:
    def test_raw_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        f = GridField(0.125, rng.normal(size=(9, 7)), origin=np.array([-0.5, -0.375]))
        path = tmp_path / "field.grid"
        f.save_raw(path)
        g = GridField.load_raw(path)
        assert g.spacing == f.spacing
        assert np.array_equal(g.values, f.values)
        assert np.array_equal(g.origin, f.origin)

    def test_3d_roundtrip(self, tmp_path):
        f = GridField(0.1, np.arange(27.0).reshape(3, 3, 3))
        path = tmp_path / "field3.grid"
        f.save_raw(path)
        g = GridField.load_raw(path)
        assert g.values.shape == (3, 3, 3)
        assert np.array_equal(g.values, f.values)

    def test_large_field_roundtrip(self, tmp_path):
        # Stored, not compressed: the file is the values' bytes and a few headers.
        f = GridField(0.01, np.random.default_rng(11).normal(size=(40, 60, 50)))
        f.save_raw(tmp_path / "big.grid")
        assert f.values.nbytes < (tmp_path / "big.grid").stat().st_size < f.values.nbytes + 4096
        assert GridField.load_raw(tmp_path / "big.grid").values.tobytes() == f.values.tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("shape", [(9, 7), (1, 1), (5, 4, 3), (2, 1, 6)])
    def test_archive_roundtrip_is_bit_identical(self, tmp_path, monkeypatch, shape):
        rng = np.random.default_rng(sum(shape))
        values = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
        special = [1e300, -1e300, 5e-324, -0.0, 0.0, -2.2250738585072014e-308,
                   1.7976931348623157e308, -1.7976931348623157e308]
        values.ravel()[:len(special)] = special[:values.size]
        f = GridField(0.1234567, values, origin=np.r_[-0.0, rng.uniform(-1.0, 1.0, len(shape) - 1)])
        monkeypatch.setattr(threading.Thread, "start", lambda self: pytest.fail("a thread started"))
        f.save_raw(tmp_path / "f.grid")
        g = GridField.load_raw(tmp_path / "f.grid")
        assert [p.name for p in tmp_path.iterdir()] == ["f.grid"]
        with zipfile.ZipFile(tmp_path / "f.grid") as zf:
            assert sorted(zf.namelist()) == ["origin.npy", "spacing.npy", "values.npy"]
            assert {i.compress_type for i in zf.infolist()} == {zipfile.ZIP_STORED}
        for got, want in ((g.values, f.values), (g.origin, f.origin), (g.spacing, f.spacing)):
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_one_finiteness_scan_per_read(self, tmp_path, monkeypatch):
        f = GridField(0.1, np.arange(60.0).reshape(3, 4, 5))
        f.save_raw(tmp_path / "f.grid")
        isfinite, scans = np.isfinite, []

        def counted(x, *args, **kwargs):
            if np.size(x) == f.values.size:
                scans.append(np.shape(x))
            return isfinite(x, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counted)
        g = GridField.load_raw(tmp_path / "f.grid")
        assert np.array_equal(g.values, f.values)
        assert scans == [(3, 4, 5)]

    def test_minimal_header_without_origin(self, tmp_path):
        # origin line is optional; the box then centers on the origin
        path = tmp_path / "min.grid"
        path.write_text("dims 2\nshape 3 3\nspacing 0.5\n"
                        + "\n".join("1 2 3" for _ in range(3)) + "\n")
        g = GridField.load_raw(path)
        assert g.values.shape == (3, 3)
        assert np.allclose(g.origin, [-0.5, -0.5])


def npy(array, version=(1, 0), **header):
    """The .npy bytes of a C-ordered array, in .npy format version, with
    entries of its header (such as shape) replaced."""
    out = io.BytesIO()
    write = {(1, 0): np.lib.format.write_array_header_1_0,
             (2, 0): np.lib.format.write_array_header_2_0}[version]
    write(out, {**np.lib.format.header_data_from_array_1_0(array), **header})
    return out.getvalue() + array.tobytes()


# Archives with one fault: (members that replace those of a good archive,
# None dropping one, and the message).
ARCHIVE_FAULTS = {
    "no-origin": ({"origin": None}, "archive members spacing.npy, values.npy, "
                  "expected origin.npy, spacing.npy, values.npy"),
    "no-values": ({"values": None}, "archive members origin.npy, spacing.npy, "
                  "expected origin.npy, spacing.npy, values.npy"),
    "extra-member": ({"note": np.zeros(1)}, "archive members note.npy, origin.npy, spacing.npy, "
                     "values.npy, expected origin.npy, spacing.npy, values.npy"),
    "object-values": ({"values": np.array([[1.0, None]], dtype=object)},
                      "member values.npy: dtype object is not a real number type"),
    "complex-values": ({"values": np.ones((3, 4), complex)},
                       "member values.npy: dtype complex128 is not a real number type"),
    "string-values": ({"values": np.full((3, 4), "1.5")},
                      "member values.npy: dtype <U3 is not a real number type"),
    "complex-spacing": ({"spacing": np.complex128(0.5)},
                        "member spacing.npy: dtype complex128 is not a real number type"),
    "string-origin": ({"origin": np.array(["0", "0"])},
                      "member origin.npy: dtype <U1 is not a real number type"),
    "vector-spacing": ({"spacing": np.array([0.5])},
                       "member spacing.npy: shape (1,) has 1 dimensions, expected 0"),
    "matrix-origin": ({"origin": np.zeros((1, 2))},
                      "member origin.npy: shape (1, 2) has 2 dimensions, expected 1"),
    "empty-origin": ({"origin": np.zeros(0)},
                     "member origin.npy: shape (0,) entries must be positive"),
    "1d-values": ({"values": np.arange(5.0)},
                  "member values.npy: shape (5,) has 1 dimensions, expected 2 or 3"),
    "4d-values": ({"values": np.ones((2, 2, 2, 2))},
                  "member values.npy: shape (2, 2, 2, 2) has 4 dimensions, expected 2 or 3"),
    "empty-values": ({"values": np.ones((0, 3))},
                     "member values.npy: shape (0, 3) entries must be positive"),
    "lying-shape": ({"values": npy(np.ones(1), shape=(2**26, 2**10))}, "member values.npy: "
                    "shape (67108864, 1024) of float64 does not fit its 8 stored bytes"),
    "lying-shape-8MB": ({"values": npy(np.ones(1), shape=(1024, 1024))}, "member values.npy: "
                        "shape (1024, 1024) of float64 does not fit its 8 stored bytes"),
    "short-member": ({"values": npy(np.ones(12), shape=(3, 5))}, "member values.npy: "
                     "shape (3, 5) of float64 does not fit its 96 stored bytes"),
    "long-member": ({"values": npy(np.ones(12), shape=(3, 3))}, "member values.npy: "
                    "shape (3, 3) of float64 does not fit its 96 stored bytes"),
    "npy-version-2": ({"values": npy(np.ones((3, 4)), version=(2, 0))},
                      "member values.npy: .npy version (2, 0), expected (1, 0)"),
    "origin-length": ({"origin": np.zeros(3)}, "origin length must match field dimension"),
    "zero-spacing": ({"spacing": np.float64(0.0)}, "spacing must lie in [1e-50, 1e50], got 0.0"),
    "inf-spacing": ({"spacing": np.float64(np.inf)}, "spacing must lie in [1e-50, 1e50], got inf"),
    "nan-origin": ({"origin": np.array([0.0, np.nan])}, "origin must lie in [-1e50, 1e50]"),
    "non-finite": ({"values": np.array([[1.0, 2.0], [np.nan, 4.0]])},
                   "grid field value nan at node (1, 0) is not finite"),
}


class TestArchiveFaults:
    @pytest.mark.parametrize("name", ["good", *ARCHIVE_FAULTS])
    def test_fault_names_the_file_and_member(self, tmp_path, name):
        changed, message = ARCHIVE_FAULTS.get(name, ({}, None))
        members = {"values": np.arange(12.0).reshape(3, 4), "spacing": np.float64(0.5),
                   "origin": np.array([-0.5, -0.75]), **changed}
        path = tmp_path / "f.grid"
        with zipfile.ZipFile(path, "w") as zf:
            for key, member in members.items():
                if member is not None:
                    zf.writestr(key + ".npy", member if isinstance(member, bytes) else npy(member))
        if message is None:
            assert GridField.load_raw(path).values.tobytes() == members["values"].tobytes()
            return
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as err:
                GridField.load_raw(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == f"grid file {path}: {message}"
        assert peak < 1 << 20

    @pytest.mark.parametrize("values", [
        np.arange(30).reshape(5, 6) % 7,
        np.linspace(-1.0, 1.0, 30, dtype=np.float32).reshape(5, 6),
        np.asfortranarray(np.linspace(-1.0, 1.0, 30).reshape(5, 6) ** 3),
    ], ids=["int64", "float32", "fortran-order"])
    def test_other_real_arrays_from_np_savez(self, tmp_path, values):
        # Archives that np.savez writes of arrays other than save_raw's
        # C-ordered float64: read as float64, with the same envelope.
        path = tmp_path / "f.grid"
        with open(path, "wb") as fh:
            np.savez(fh, values=values, spacing=0.5, origin=[-1.0, -1.25])
        g = GridField.load_raw(path)
        want = GridField(0.5, np.array(values, dtype=float, order="C"), origin=[-1.0, -1.25])
        assert g.values.dtype == np.float64 and np.array_equal(g.values, want.values)
        got, ref = radial_envelope(g, [0.25, 0.0]), radial_envelope(want, [0.25, 0.0])
        assert np.array_equal(got.wtilde, ref.wtilde)
        assert np.array_equal(got.r_attained, ref.r_attained)

    @pytest.mark.filterwarnings("error")
    def test_damaged_archives_name_the_file(self, tmp_path):
        # Every truncation and many byte flips: zipfile's own faults (a bad
        # CRC or magic number, an unknown compression method or flag, a
        # truncated or encrypted member) become ValueError, and so does text
        # that no longer begins with the zip magic.
        GridField(0.5, np.arange(12.0).reshape(3, 4)).save_raw(tmp_path / "ok.grid")
        data = (tmp_path / "ok.grid").read_bytes()
        damaged = [data[:n] for n in range(len(data))]
        damaged += [data[:i] + bytes([data[i] ^ m]) + data[i + 1:]
                    for i in range(len(data)) for m in (0x01, 0xFF)]
        path = tmp_path / "bad.grid"
        for text in damaged:
            path.write_bytes(text)
            try:
                GridField.load_raw(path)
            except ValueError as exc:
                assert str(exc).startswith(f"grid file {path}: "), text


# ---------------------------------------------------------------------------
# Hand-written text grids, read by np.loadtxt
# ---------------------------------------------------------------------------

def savetxt_bytes(rows):
    """np.savetxt's text of rows, each value as "%.16e"."""
    out = io.BytesIO()
    np.savetxt(out, rows, fmt="%.16e", delimiter=" ")
    return out.getvalue()


def layout_text(values):
    """The header of a text grid file of values, and its data text as np.savetxt writes it."""
    head = f"dims 2\nshape {values.shape[0]} {values.shape[1]}\nspacing 0.5\norigin 0 0\n"
    return head.encode(), savetxt_bytes(values)


# A 4 x 6 field with every token form: signs, 2- and 3-digit exponents, zeros.
LAYOUT_VALUES = np.array([[1.25, -3.5e-7, 0.0, 6.02214076e23, -1e-300, 2.5],
                          [7.0, 8.0e100, -9.0, 1e-5, 11.0, -0.0],
                          [1.5e-200, 14.0, 15.5, -16.0, 17.0, 1.7e308],
                          [19.0, 20.0, -2.1e-320, 22.0, 23.0, 24.0]])


def first_token(text, fmt):
    """text with its first token rewritten by fmt (a callable on the value)."""
    tok, rest = text.split(b" ", 1)
    return fmt(float(tok)).encode() + b" " + rest


# Data text in other layouts than np.savetxt's, which np.loadtxt reads.
NON_CANONICAL = {
    "comment": lambda t: t.replace(b"\n", b"\n# a comment line\n", 1),
    "blank-line": lambda t: t.replace(b"\n", b"\n\n", 1),
    "crlf": lambda t: t.replace(b"\n", b"\r\n"),
    "tab": lambda t: t.replace(b" ", b"\t", 1),
    "double-space": lambda t: t.replace(b" ", b"  ", 1),
    "leading-space": lambda t: b" " + t,
    "trailing-space": lambda t: t.replace(b"\n", b" \n", 1),
    "no-final-newline": lambda t: t[:-1],
    "plus-sign": lambda t: b"+" + t,
    "capital-E": lambda t: t.replace(b"e", b"E", 1),
    "short-mantissa": lambda t: first_token(t, lambda x: f"{x:.6e}"),
    "long-mantissa": lambda t: first_token(t, lambda x: f"{x:.17e}"),
    "fixed-point": lambda t: first_token(t, repr),
}


def newline_one_token_later(text):
    """text with its first row end moved past the next token: rows of one
    value more and one value less, and as many values."""
    i = text.index(b"\n")
    j = text.index(b" ", i)
    return text[:i] + b" " + text[i + 1:j] + b"\n" + text[j + 1:]


# Faults in np.savetxt's data text: (data text transform, message).
FAULTS = {
    "nan": (lambda t: t.replace(b"1.0000000000000001e-05", b"nan"),
            "non-finite value nan in data row 2, column 4"),
    "inf": (lambda t: t.replace(b"2.4000000000000000e+01", b"-inf"),
            "non-finite value -inf in data row 4, column 6"),
    "unparsable": (lambda t: t.replace(b"7.0000000000000000e+00", b"7.0000000000000000x+00"),
                   "unparsable value '7.0000000000000000x+00' in data row 2, column 1"),
    "exponent-sign": (lambda t: t.replace(b"7.0000000000000000e+00", b"7.0000000000000000e,00"),
                      "unparsable value '7.0000000000000000e,00' in data row 2, column 1"),
    "exponent-digit": (lambda t: t.replace(b"7.0000000000000000e+00", b"7.0000000000000000e+0x"),
                       "unparsable value '7.0000000000000000e+0x' in data row 2, column 1"),
    "third-exponent-digit": (lambda t: t.replace(b"e-300", b"e-30x"),
                             "unparsable value '-1.0000000000000000e-30x' in data row 1, column 5"),
    "fraction-digit": (lambda t: t.replace(b"1.1000000000000000e+01", b"1.10000000x0000000e+01"),
                       "unparsable value '1.10000000x0000000e+01' in data row 2, column 5"),
    "ragged": (lambda t: t.replace(b" 1.5500000000000000e+01", b""),
               "data row 3 has 5 values, expected 6"),
    "moved-newline": (newline_one_token_later, "data row 2 has 5 values, expected 7"),
    "unended-token": (lambda t: t + b"5", "data row 5 has 1 values, expected 6"),
    "short": (lambda t: t.rsplit(b"\n", 2)[0] + b"\n", "18 values, shape 4 6 needs 24"),
    "long": (lambda t: t + t.split(b"\n", 1)[0] + b"\n", "30 values, shape 4 6 needs 24"),
}


def former_save_raw(f, path):
    """The text grid file that save_raw wrote before it wrote archives."""
    with open(path, "w") as fh:
        fh.write(f"dims {f.dims}\n")
        fh.write("shape " + " ".join(str(s) for s in f.values.shape) + "\n")
        fh.write(f"spacing {f.spacing:.16e}\n")
        fh.write("origin " + " ".join(f"{x:.16e}" for x in f.origin) + "\n")
        for row in f.values.reshape(f.values.shape[0], -1):
            fh.write(" ".join(f"{x:.16e}" for x in row) + "\n")


def random_doubles(seed, size):
    """Finite doubles from random bit patterns: every exponent, subnormals, both signs."""
    bits = np.random.default_rng(seed).integers(0, 2**64, size=2 * size, dtype=np.uint64)
    x = bits.view(float)
    return x[np.isfinite(x)][:size]


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, -2.2250738585072014e-308,
           1e-300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308, 1e-100,
           9.999999999999999e99, 1e100, 9.999999999999999e-100, 1e22, 1e23, 1.0, -0.1,
           np.pi, 2.0**53 + 2.0, 1e16, 9.999999999999998e16,
           # Doubles just below a power of ten that "%.16e" rounds up to it.
           1e-305, -1e-79]


# Fields whose "%.16e" text holds every token form: (values, spacing).
FORMER_FIELDS = {
    **{f"random-{seed}": (random_doubles(seed, 6000).reshape(-1, 30, 20), 0.1234567)
       for seed in range(4)},
    **{f"special-{a}x{b}": (np.array(SPECIAL).reshape(a, b), 0.1) for a, b in
       [(2, 12), (24, 1), (1, 24)]},
}


class TestGridText:
    """Text grids in other layouts than np.savetxt's, and faults with their messages."""

    @pytest.mark.parametrize("name", sorted(FORMER_FIELDS))
    def test_files_of_the_former_writer_are_read_bit_for_bit(self, tmp_path, name):
        values, spacing = FORMER_FIELDS[name]
        f = GridField(spacing, values, origin=-np.linspace(0.1, 0.9, values.ndim))
        former_save_raw(f, tmp_path / "f.grid")
        g = GridField.load_raw(tmp_path / "f.grid")
        for got, want in ((g.values, f.values), (g.origin, f.origin), (g.spacing, f.spacing)):
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("name", sorted(NON_CANONICAL))
    def test_other_layouts_are_read_by_loadtxt(self, tmp_path, name):
        head, text = layout_text(LAYOUT_VALUES)
        path = tmp_path / "f.grid"
        path.write_bytes(head + text)
        assert GridField.load_raw(path).values.tobytes() == LAYOUT_VALUES.tobytes()
        text = NON_CANONICAL[name](text)
        path.write_bytes(head + text)
        want = np.loadtxt(io.BytesIO(text), ndmin=2)
        assert GridField.load_raw(path).values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", sorted(FAULTS))
    def test_faults_keep_their_messages(self, tmp_path, name):
        change, message = FAULTS[name]
        head, text = layout_text(LAYOUT_VALUES)
        path = tmp_path / "bad.grid"
        path.write_bytes(head + change(text))
        with pytest.raises(ValueError) as err:
            GridField.load_raw(path)
        assert str(err.value) == f"grid file {path}: {message}"

    def test_rows_beyond_the_shape(self, tmp_path):
        values = np.arange(1.0, 63.0).reshape(31, 2)
        path = tmp_path / "long.grid"
        path.write_bytes(b"dims 2\nshape 30 2\nspacing 0.5\n" + savetxt_bytes(values))
        with pytest.raises(ValueError, match="62 values, shape 30 2 needs 60"):
            GridField.load_raw(path)


class TestReadTable:
    """The one reader of numbers in text: np.loadtxt's values, and each
    fault by its data row and column."""

    @pytest.mark.parametrize("text, delimiter", [
        ("1 2\n3 4\n", None),
        ("# head\n1\t2 # tail\n\n  \n3  4", None),
        ("1,2\r\n3, 4\r\n", ","),
        ("1,2\n\n# c\n3,4 # c\n", ","),
        ("5\n6\n7\n", ","),
        ("1.5 -2e-300 +3E2 .5\n", None),
    ])
    def test_values_are_loadtxts(self, text, delimiter):
        want = np.loadtxt(io.StringIO(text), delimiter=delimiter, ndmin=2)
        for lines in (io.StringIO(text), text.splitlines(keepends=True)):
            got = read_table(lines, delimiter)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_reads_from_where_the_file_stands(self):
        fh = io.StringIO("a,b\n1,2\n3,4\n")
        fh.readline()
        assert read_table(fh, ",", ["a", "b"]).tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_whitespace_lines_are_blank_with_a_delimiter(self):
        # np.loadtxt reads "  " as a value when the delimiter is ","; the
        # scan skips it and np.loadtxt reads the data lines again.
        text = "1,2\n  \n   # c\n\t\n3,4\n"
        assert read_table(io.StringIO(text), ",").tolist() == [[1.0, 2.0], [3.0, 4.0]]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", ["", "\n# only a comment\n", "  \n"])
    @pytest.mark.parametrize("names", [None, ["r", "w"]])
    def test_no_data_lines(self, text, names):
        assert len(read_table(io.StringIO(text), ",", names)) == 0

    @pytest.mark.parametrize("text, delimiter, names, message", [
        ("1 2\n3 x\n", None, None, "unparsable value 'x' in data row 2, column 2"),
        ("1,2\n\n3,\n", ",", None, "unparsable value '' in data row 2, column 2"),
        ("1,2\n3,1_0\n", ",", None, "unparsable value '1_0' in data row 2, column 2"),
        ("1,\uff12\n", ",", None, "unparsable value '\uff12' in data row 1, column 2"),
        ("\u0661 2\n", None, None, "unparsable value '\u0661' in data row 1, column 1"),
        ("1,2\n3,x\n", ",", ["r", "w"], "unparsable value 'x' in data row 2, column w"),
        ("1 2\n3 4 5\n", None, None, "data row 2 has 3 values, expected 2"),
        ("1,2,3\n4,5,6\n", ",", ["r", "w"], "data row 1 has 3 values, expected 2"),
        ("1,2\n3\n", ",", ["r", "w"], "data row 2 has 1 values, expected 2"),
        ("1 2\n3 nan\n", None, None, "non-finite value nan in data row 2, column 2"),
        ("# c\n1,-inf\n", ",", ["r", "w"], "non-finite value -inf in data row 1, column w"),
        ("1,2\n  \n3,inf\n", ",", ["r", "w"], "non-finite value inf in data row 2, column w"),
    ])
    def test_faults(self, text, delimiter, names, message):
        for lines in (io.StringIO(text), text.splitlines(keepends=True)):
            with pytest.raises(ValueError) as err:
                read_table(lines, delimiter, names)
            assert str(err.value) == message

    def test_profile_header_after_comments_and_blank_lines(self, tmp_path):
        p = holder_profile(np.geomspace(0.01, 1.0, 25), 0.5)
        path = tmp_path / "prof.csv"
        save_profile_csv(p, path)
        plain = load_profile_csv(path, 3, 2)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("# written by hand\n\n  \n" + lines[0].replace(",", " , ")
                        + "  # a comment\n" + "".join(lines[1:]))
        q = load_profile_csv(path, 3, 2)
        for name in ("r", "w", "dw", "d2w"):
            assert getattr(q, name).tobytes() == getattr(plain, name).tobytes()


@pytest.fixture(params=[1, 2, 3], ids=["one_worker", "two_workers", "three_workers"])
def workers(request, monkeypatch):
    """radial._workers reports request.param CPUs; threads switch often, so
    that a slab run twice or lost would show."""
    monkeypatch.setattr(radial, "_workers", lambda: request.param)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield request.param
    finally:
        sys.setswitchinterval(interval)


class TestOverSlabs:
    """radial._over_slabs, the driver of mollify and the u-gauge kernels."""

    @pytest.mark.parametrize("count, planes", [(40, 3), (12, 4)])
    def test_every_slab_once(self, workers, count, planes):
        seen, threads = [], set()

        def work(i0, i1):
            time.sleep(0.001 * (i0 % 3))        # later slabs may finish first
            seen.append((i0, i1))
            threads.add(threading.get_ident())

        radial._over_slabs(count, planes, work)
        assert sorted(seen) == [(i, min(i + planes, count)) for i in range(0, count, planes)]
        assert len(threads) <= workers

    @pytest.mark.parametrize("count", [0, 1, 5])
    def test_inline_with_one_worker_or_slab(self, monkeypatch, count):
        monkeypatch.setattr(radial, "_workers", lambda: 1 if count == 5 else 3)
        caller, seen = threading.get_ident(), []
        radial._over_slabs(count, 1 if count == 5 else 4,
                           lambda i0, i1: seen.append((i0, i1, threading.get_ident())))
        want = [(i, i + 1, caller) for i in range(5)] if count == 5 else [(0, 1, caller)] * count
        assert seen == want

    def test_calls_run_in_the_callers_context(self, workers):
        seen = []
        with np.errstate(divide="raise", over="ignore"):
            radial._over_slabs(7, 1, lambda i0, i1: seen.append(np.geterr()))
        assert [(e["divide"], e["over"]) for e in seen] == [("raise", "ignore")] * 7

    def test_exception_reaches_the_caller(self, workers):
        before = threading.active_count()

        def work(i0, i1):
            if i0 == 7:
                raise ZeroDivisionError(f"slab {i0}")

        with pytest.raises(ZeroDivisionError, match="^slab 7$"):
            radial._over_slabs(20, 1, work)
        assert threading.active_count() == before

    def test_first_exception_in_slab_order(self, workers):
        # With two or more workers slab 12 fails while slab 3 sleeps; slab 3
        # comes first in slab order, so its exception reaches the caller.
        before = threading.active_count()

        def work(i0, i1):
            if i0 == 3:
                time.sleep(0.02)
                raise KeyError(i0)
            if i0 == 12:
                raise ZeroDivisionError(i0)

        with pytest.raises(KeyError, match="^3$"):
            radial._over_slabs(16, 1, work)
        assert threading.active_count() == before


class TestProfileSamples:
    @pytest.mark.parametrize("name", ["r", "w", "dw", "d2w"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, name, bad):
        r = np.geomspace(0.01, 1.0, 25)
        samples = {"r": r, "w": np.sqrt(r), "dw": 0.5 / np.sqrt(r), "d2w": -0.25 * r**-1.5}
        samples[name][4] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            RadialProfile.from_samples(samples["r"], samples["w"], 3, 2,
                                       dw=samples["dw"], d2w=samples["d2w"])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            RadialProfile.from_samples(np.array([]), np.array([]), 3, 2)


class TestProfileIO:
    def test_roundtrip_analytic(self, tmp_path):
        p = holder_profile(np.geomspace(0.01, 1.0, 25), 0.5)
        path = tmp_path / "prof.csv"
        save_profile_csv(p, path)
        q = load_profile_csv(path, 3, 2)
        assert np.allclose(q.r, p.r) and np.allclose(q.w, p.w)
        assert np.allclose(q.dw, p.dw) and q.analytic

    def test_missing_derivatives_fall_back_to_fd(self, tmp_path):
        r = np.linspace(0.5, 2.0, 40)
        path = tmp_path / "prof.csv"
        with open(path, "w") as fh:
            fh.write("r,w\n")
            for ri in r:
                fh.write(f"{ri:.16e},{math.sqrt(ri):.16e}\n")
        q = load_profile_csv(path, 3, 2)
        assert not q.analytic
        assert np.abs(q.dw - 0.5 * r**-0.5).max() <= 1e-3
