import decimal
import io
import math
import sys
import threading
import time
from fractions import Fraction

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


def line_by_line_save(f, path):
    """Reference grid writer (the package's former implementation)."""
    with open(path, "w") as fh:
        fh.write(f"dims {f.dims}\n")
        fh.write("shape " + " ".join(str(s) for s in f.values.shape) + "\n")
        fh.write(f"spacing {f.spacing:.16e}\n")
        fh.write("origin " + " ".join(f"{x:.16e}" for x in f.origin) + "\n")
        for row in f.values.reshape(f.values.shape[0], -1):
            fh.write(" ".join(f"{x:.16e}" for x in row) + "\n")


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("shape", [(9, 7), (1, 1), (5, 4, 3), (2, 1, 6)])
    def test_writer_bytes_unchanged(self, tmp_path, shape):
        rng = np.random.default_rng(sum(shape))
        values = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
        special = [1e300, -1e-300, 5e-324, -0.0, 0.0, 2.2250738585072014e-308,
                   -1.7976931348623157e308, np.pi]
        values.ravel()[:len(special)] = special[:values.size]
        f = GridField(0.1234567, values, origin=-rng.uniform(0.0, 1.0, len(shape)))
        f.save_raw(tmp_path / "new.grid")
        line_by_line_save(f, tmp_path / "old.grid")
        assert (tmp_path / "new.grid").read_bytes() == (tmp_path / "old.grid").read_bytes()
        g = GridField.load_raw(tmp_path / "new.grid")
        assert np.array_equal(g.values, f.values) and np.array_equal(g.origin, f.origin)

    def test_minimal_header_without_origin(self, tmp_path):
        # origin line is optional; the box then centers on the origin
        path = tmp_path / "min.grid"
        path.write_text("dims 2\nshape 3 3\nspacing 0.5\n"
                        + "\n".join("1 2 3" for _ in range(3)) + "\n")
        g = GridField.load_raw(path)
        assert g.values.shape == (3, 3)
        assert np.allclose(g.origin, [-0.5, -0.5])


# ---------------------------------------------------------------------------
# Grid text kernels against np.loadtxt and np.savetxt
# ---------------------------------------------------------------------------

def savetxt_bytes(rows):
    """np.savetxt's text of rows in save_raw's format."""
    out = io.BytesIO()
    np.savetxt(out, rows, fmt="%.16e", delimiter=" ")
    return out.getvalue()


def written(tmp_path, values):
    """The data text that save_raw writes for values (after its 4 header lines)."""
    GridField(0.5, values).save_raw(tmp_path / "w.grid")
    return (tmp_path / "w.grid").read_bytes().split(b"\n", 4)[4]


def decoded(tmp_path, text, shape):
    """Data text as the kernel decodes it (None when it declines the text),
    and as np.loadtxt reads it."""
    path = tmp_path / "data.txt"
    path.write_bytes(text)
    return radial._load_rows(path, 0, [str(s) for s in shape]), np.loadtxt(path, ndmin=2)


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


def token(d):
    """A Decimal of at most 17 significant digits as a "%.16e" token."""
    sign, digits, _ = d.as_tuple()
    digits = "".join(map(str, digits)).ljust(17, "0")
    return f"{'-' if sign else ''}{digits[0]}.{digits[1:]}e{d.adjusted():+03d}"


def midpoint_tokens(seed, size):
    """The 17-digit decimals just below and above the midpoint between random
    doubles and the next ones up: of random bit patterns, of subnormals and
    of doubles above 10^16, where the midpoint is an integer of 17 digits
    and the two tokens are that exact tie."""
    rng = np.random.default_rng(seed)
    x = np.concatenate([random_doubles(seed, size), rng.integers(2**40, 2**52, size) * 5e-324,
                        rng.uniform(1e16, 1e17, size)])
    tokens = []
    for v in x[np.abs(x) < 1e308]:
        mid = (Fraction(v) + Fraction(np.nextafter(v, np.inf))) / 2
        with decimal.localcontext(prec=800):
            exact = decimal.Decimal(mid.numerator) / decimal.Decimal(mid.denominator)
        for rounding in (decimal.ROUND_FLOOR, decimal.ROUND_CEILING):
            with decimal.localcontext(prec=17, rounding=rounding):
                tokens.append(token(+exact))
    return tokens


# 17-digit decimals within 2^-10 ulp of a rounding midpoint between doubles of
# [2^-1022, 2^-1021), whose ulp is 5e-324: there |v - x| as a double is a whole
# number of ulps, and cannot tell such a decimal from one beside its double.
LOWEST_BINADE_MIDPOINTS = [
    "3.9087601499078454e-308", "3.7268064407723409e-308", "4.3905779172389733e-308",
    "3.3970955495685076e-308", "3.7744429646268851e-308", "3.4993300468604970e-308",
    "2.8373633034635231e-308", "2.5890927437097000e-308", "2.9953838362341648e-308",
    "4.0703030905748272e-308"]


def layout_text(values):
    """The header of a grid file of values, and its data text in save_raw's layout."""
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


# Data text that np.loadtxt reads but save_raw does not write.
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


# Faults in otherwise canonical data: (data text transform, message).
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


class TestGridTextKernels:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_bits_match_loadtxt_and_savetxt(self, tmp_path, seed):
        values = random_doubles(seed, 40000).reshape(-1, 40)
        text = savetxt_bytes(values)
        assert written(tmp_path, values) == text
        got, want = decoded(tmp_path, text, values.shape)
        assert got is not None and got.tobytes() == want.tobytes() == values.tobytes()

    @pytest.mark.parametrize("shape", [(2, 12), (24, 1), (1, 24)])
    def test_subnormals_zeros_and_3_digit_exponents(self, tmp_path, shape):
        values = np.array(SPECIAL).reshape(shape)
        text = savetxt_bytes(values)
        assert written(tmp_path, values) == text
        got, want = decoded(tmp_path, text, shape)
        assert got is not None and got.tobytes() == want.tobytes() == values.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2, "lowest-binade"])
    def test_17_digit_decimals_at_and_beside_midpoints(self, tmp_path, seed):
        tokens = (LOWEST_BINADE_MIDPOINTS if seed == "lowest-binade"
                  else midpoint_tokens(seed, 1500))
        tokens = tokens[:len(tokens) // 10 * 10]
        text = "".join(t + ("\n" if i % 10 == 9 else " ") for i, t in enumerate(tokens))
        got, want = decoded(tmp_path, text.encode(), (len(tokens) // 10, 10))
        assert got is not None and got.tobytes() == want.tobytes()

    def test_writer_ties(self, tmp_path):
        # m/4 and m/8 for odd m of 16 digits have 18 significant digits, the
        # last a 5: "%.16e" rounds the exact tie at the 17th to even.
        rng = np.random.default_rng(17)
        quarters = (rng.integers(4 * 10**15, 9 * 10**15, 400) | 1) / 4.0
        eighths = (rng.integers(8 * 10**14, 8 * 10**15, 400) | 1) / 8.0
        values = np.concatenate([quarters, -eighths]).reshape(-1, 20)
        assert all(len(f"{x:.30e}".split("e")[0].rstrip("0").replace(".", "").lstrip("-")) == 18
                   for x in values.ravel())
        assert written(tmp_path, values) == savetxt_bytes(values)

    @pytest.mark.parametrize("shape", [(5, 7), (3, 4, 5), (9, 1)])
    def test_pieces_split_anywhere(self, tmp_path, monkeypatch, shape):
        # Pieces of a few values each: rows and tokens cross piece boundaries.
        monkeypatch.setattr(radial, "_CHUNK_BYTES", 64)
        values = np.r_[SPECIAL, random_doubles(1, 100)][:math.prod(shape)].reshape(shape)
        f = GridField(0.5, values)
        f.save_raw(tmp_path / "f.grid")
        line_by_line_save(f, tmp_path / "old.grid")
        assert (tmp_path / "f.grid").read_bytes() == (tmp_path / "old.grid").read_bytes()
        assert GridField.load_raw(tmp_path / "f.grid").values.tobytes() == values.tobytes()

    def test_records_skip_the_scan(self, tmp_path, monkeypatch):
        # Nonnegative values with 2-digit exponents take 23 bytes each, and
        # pieces of them are read as records, with no token gathered.
        rng = np.random.default_rng(23)
        values = rng.uniform(1.0, 10.0, (30, 40)) * 10.0 ** rng.integers(-99, 100, (30, 40))
        values[0, :3] = 0.0, 1.0, 9.999999999999999e99
        text = written(tmp_path, values)
        assert len(text) == 23 * values.size

        def gather(*args):
            raise AssertionError("a piece of records was cut at its separators")

        monkeypatch.setattr(np.lib.stride_tricks, "sliding_window_view", gather)
        for chunk in (64, 23 * 40 + 22, 1 << 20):
            monkeypatch.setattr(radial, "_CHUNK_BYTES", chunk)
            got, want = decoded(tmp_path, text, values.shape)
            assert got is not None and got.tobytes() == want.tobytes() == values.tobytes()

    def test_records_between_other_tokens(self, tmp_path, monkeypatch):
        # 23 negative values, 24 x 23 bytes of text that are not records, then
        # runs of 23 values read as records between values with signs or
        # 3-digit exponents, read in pieces of several sizes.
        # One worker: the spies tell pieces apart by the order of their calls.
        monkeypatch.setattr(radial, "_workers", lambda: 1)
        rng = np.random.default_rng(29)
        fixed = rng.uniform(1.0, 10.0, (9, 23)) * 10.0 ** rng.integers(-99, 100, (9, 23))
        other = np.array(SPECIAL)[rng.integers(0, len(SPECIAL), (8, 5))]
        values = np.concatenate([-fixed[0]] + [np.r_[f, o] for f, o in zip(fixed[1:], other)])
        values = values.reshape(13, 19)
        text = written(tmp_path, values)
        pieces, decode, gather = [], radial._decode, np.lib.stride_tricks.sliding_window_view

        def spy_decode(piece, *args):
            pieces.append([len(piece), 0])
            return decode(piece, *args)

        def spy_gather(*args):
            pieces[-1][1] = 1                               # the piece was cut at its separators
            return gather(*args)

        monkeypatch.setattr(radial, "_decode", spy_decode)
        monkeypatch.setattr(np.lib.stride_tricks, "sliding_window_view", spy_gather)
        for chunk in (64, 23 * 10 + 3, 24 * 23, 1 << 20):
            monkeypatch.setattr(radial, "_CHUNK_BYTES", chunk)
            got, want = decoded(tmp_path, text, values.shape)
            assert got is not None and got.tobytes() == want.tobytes() == values.tobytes()
        assert [24 * 23, 1] in pieces
        assert {scanned for _, scanned in pieces} == {0, 1}

    def test_large_field_roundtrip(self, tmp_path, monkeypatch):
        pieces, decode = [], radial._decode
        monkeypatch.setattr(radial, "_decode", lambda *a: pieces.append(1) or decode(*a))
        f = GridField(0.01, np.random.default_rng(11).normal(size=(40, 60, 50)))
        f.save_raw(tmp_path / "big.grid")
        assert (tmp_path / "big.grid").stat().st_size > radial._CHUNK_BYTES
        line_by_line_save(f, tmp_path / "old.grid")
        assert (tmp_path / "big.grid").read_bytes() == (tmp_path / "old.grid").read_bytes()
        assert GridField.load_raw(tmp_path / "big.grid").values.tobytes() == f.values.tobytes()
        assert len(pieces) > 1

    @pytest.mark.parametrize("name", sorted(NON_CANONICAL))
    def test_other_layouts_are_read_by_loadtxt(self, tmp_path, name):
        head, text = layout_text(LAYOUT_VALUES)
        assert decoded(tmp_path, text, LAYOUT_VALUES.shape)[0] is not None
        text = NON_CANONICAL[name](text)
        got, want = decoded(tmp_path, text, LAYOUT_VALUES.shape)
        assert got is None
        path = tmp_path / "f.grid"
        path.write_bytes(head + text)
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

    @pytest.mark.parametrize("seed", range(2))
    def test_random_edits_read_as_without_the_kernels(self, tmp_path, monkeypatch, seed):
        # Bytes replaced, inserted or deleted in the data: the kernels give the
        # values, or the message, that np.loadtxt alone gives.
        head, text = layout_text(LAYOUT_VALUES)
        rng = np.random.default_rng(seed)
        path = tmp_path / "edited.grid"

        def outcome(kernels):
            monkeypatch.setattr(radial, "_KERNELS", kernels)
            try:
                return GridField.load_raw(path).values.tobytes()
            except ValueError as exc:
                return str(exc)

        alphabet = b" \n\t\r+-.eE0123456789x#,"
        for _ in range(150):
            data = bytearray(text)
            for _ in range(rng.integers(1, 4)):
                i, byte = int(rng.integers(len(data))), alphabet[rng.integers(len(alphabet))]
                edit = rng.integers(3)
                if edit == 0:
                    data[i] = byte
                elif edit == 1:
                    data.insert(i, byte)
                else:
                    del data[i]
            path.write_bytes(head + bytes(data))
            assert outcome(True) == outcome(False), bytes(data)

    def test_rows_beyond_the_shape(self, tmp_path):
        # Two more values of a 30 x 2 field keep within 25 bytes a value.
        values = np.arange(1.0, 63.0).reshape(31, 2)
        path = tmp_path / "long.grid"
        path.write_bytes(b"dims 2\nshape 30 2\nspacing 0.5\n" + savetxt_bytes(values))
        with pytest.raises(ValueError, match="62 values, shape 30 2 needs 60"):
            GridField.load_raw(path)

    def test_without_the_kernels(self, tmp_path, monkeypatch):
        # A platform whose long double has no 64-bit significand.
        values = random_doubles(3, 600).reshape(20, 30)
        text = written(tmp_path, values)
        monkeypatch.setattr(radial, "_KERNELS", False)
        assert written(tmp_path, values) == text == savetxt_bytes(values)
        assert decoded(tmp_path, text, values.shape)[0] is None
        assert GridField.load_raw(tmp_path / "w.grid").values.tobytes() == values.tobytes()

    def test_non_finite_values_are_written_by_savetxt(self, tmp_path):
        f = GridField(0.5, np.arange(12.0).reshape(3, 4) - 5.5)
        f.values[1, 2], f.values[2, 0] = np.nan, -np.inf
        f.save_raw(tmp_path / "f.grid")
        data = (tmp_path / "f.grid").read_bytes().split(b"\n", 4)[4]
        assert data == savetxt_bytes(f.values)
        with pytest.raises(ValueError, match="non-finite value nan in data row 2, column 3"):
            GridField.load_raw(tmp_path / "f.grid")


@pytest.fixture(params=[1, 2, 3], ids=["one_worker", "two_workers", "three_workers"])
def workers(request, monkeypatch):
    """radial._workers reports request.param CPUs; threads switch often, so
    that pieces placed out of order or a lost write would show."""
    monkeypatch.setattr(radial, "_workers", lambda: request.param)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield request.param
    finally:
        sys.setswitchinterval(interval)


def every_token_form(size):
    """size values with signs, subnormals, 3-digit exponents and writer ties."""
    rng = np.random.default_rng(size)
    ties = (rng.integers(4 * 10**15, 9 * 10**15, 200) | 1) / 4.0 * rng.choice([-1.0, 1.0], 200)
    return np.r_[SPECIAL, ties, random_doubles(size, size)][:size]


# (_CHUNK_BYTES, shape): pieces of two or three values, and pieces of 1 MiB.
PIECES = [(64, (6, 10, 12)), (None, (80, 50, 40))]


class TestGridTextOnWorkers:
    """save_raw formats and load_raw decodes their pieces on radial._in_order:
    the bytes of np.savetxt and the bits of np.loadtxt on any number of
    workers, and faults with their messages."""

    @pytest.mark.parametrize("chunk, shape", PIECES, ids=["64_bytes", "1_MiB"])
    def test_bytes_and_bits(self, tmp_path, monkeypatch, workers, chunk, shape):
        if chunk is not None:
            monkeypatch.setattr(radial, "_CHUNK_BYTES", chunk)
        values = every_token_form(math.prod(shape)).reshape(shape)
        f = GridField(0.5, values)
        f.save_raw(tmp_path / "f.grid")
        data = (tmp_path / "f.grid").read_bytes().split(b"\n", 4)[4]
        assert data == savetxt_bytes(values.reshape(shape[0], -1))
        assert len(data) > 3 * radial._CHUNK_BYTES
        assert GridField.load_raw(tmp_path / "f.grid").values.tobytes() == values.tobytes()

    @pytest.mark.parametrize("chunk, repeat", [(64, 1), (None, 80)], ids=["64_bytes", "1_MiB"])
    def test_midpoint_tokens(self, tmp_path, monkeypatch, workers, chunk, repeat):
        if chunk is not None:
            monkeypatch.setattr(radial, "_CHUNK_BYTES", chunk)
        tokens = (midpoint_tokens(5, 300) + LOWEST_BINADE_MIDPOINTS) * repeat
        tokens = tokens[:len(tokens) // 20 * 20]
        text = "".join(t + ("\n" if i % 20 == 19 else " ") for i, t in enumerate(tokens)).encode()
        assert len(text) > 3 * radial._CHUNK_BYTES
        path = tmp_path / "m.grid"
        path.write_bytes(f"dims 2\nshape {len(tokens) // 20} 20\nspacing 0.5\n".encode() + text)
        want = np.loadtxt(io.BytesIO(text), ndmin=2)
        assert GridField.load_raw(path).values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("fault, message", [
        (lambda t: t[:-23] + b"7.0000000000000000x+00\n",
         "unparsable value '7.0000000000000000x+00' in data row 6, column 120"),
        (lambda t: t[:-23] + b"nan\n", "non-finite value nan in data row 6, column 120"),
        (lambda t: t[:-24] + b"\n", "data row 6 has 119 values, expected 120"),
        (lambda t: t[:-24] + b"\n" + t[-23:-1] + b" ", "data row 6 has 119 values, expected 120"),
        (lambda t: t + t[:23 * 120], "840 values, shape 6 10 12 needs 720"),
    ], ids=["unparsable", "nan", "ragged", "moved-newline", "long"])
    def test_fault_in_the_last_piece(self, tmp_path, monkeypatch, workers, fault, message):
        monkeypatch.setattr(radial, "_CHUNK_BYTES", 23 * 7)
        values = np.random.default_rng(7).uniform(1.0, 9.0, (6, 10, 12))
        path = tmp_path / "bad.grid"
        GridField(0.5, values).save_raw(path)
        head, text = path.read_bytes().split(b"spacing", 1)
        lines = (b"spacing" + text).split(b"\n", 2)
        path.write_bytes(head + b"\n".join(lines[:2]) + b"\n" + fault(lines[2]))
        with pytest.raises(ValueError) as err:
            GridField.load_raw(path)
        assert str(err.value) == f"grid file {path}: {message}"


class TestInOrder:
    """radial._in_order, the driver of the grid kernels."""

    def test_results_in_order_and_few_in_flight(self, workers):
        taken, given = [], []

        def items():
            for i in range(40):
                taken.append(i)
                yield i

        def work(i):
            time.sleep(0.001 * (i % 3))         # later items may finish first
            return i * i, threading.get_ident()

        for result, _ in radial._in_order(work, items()):
            given.append(result)
            assert len(taken) - len(given) <= 2 * workers
        assert given == [i * i for i in range(40)]

    @pytest.mark.parametrize("count", [0, 1, 5])
    def test_inline_with_one_worker_or_item(self, monkeypatch, count):
        monkeypatch.setattr(radial, "_workers", lambda: 1 if count == 5 else 3)
        caller = threading.get_ident()
        got = list(radial._in_order(lambda i: (i, threading.get_ident()), range(count)))
        assert got == [(i, caller) for i in range(count)]

    def test_calls_run_in_the_callers_context(self, workers):
        with np.errstate(divide="raise", over="ignore"):
            seen = list(radial._in_order(lambda i: np.geterr(), range(7)))
        assert [(e["divide"], e["over"]) for e in seen] == [("raise", "ignore")] * 7

    def test_exception_reaches_the_caller(self, workers):
        before = threading.active_count()

        def work(i):
            if i == 7:
                raise ZeroDivisionError(f"item {i}")
            return i

        with pytest.raises(ZeroDivisionError, match="^item 7$"):
            list(radial._in_order(work, range(20)))
        assert threading.active_count() == before

    def test_no_thread_outlives_a_grid_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(radial, "_workers", lambda: 3)
        monkeypatch.setattr(radial, "_CHUNK_BYTES", 64)
        before = threading.active_count()
        f = GridField(0.5, np.random.default_rng(9).normal(size=(5, 6, 7)))
        f.save_raw(tmp_path / "f.grid")
        assert GridField.load_raw(tmp_path / "f.grid").values.tobytes() == f.values.tobytes()
        assert threading.active_count() == before
        # A fault in a worker, and a piece that ends the read early.
        real = radial._format
        pieces = []

        def failing(x, ncols, start):
            pieces.append(start)
            if len(pieces) == 4:
                raise MemoryError("fourth piece")
            return real(x, ncols, start)

        monkeypatch.setattr(radial, "_format", failing)
        with pytest.raises(MemoryError, match="^fourth piece$"):
            f.save_raw(tmp_path / "g.grid")
        text = (tmp_path / "f.grid").read_bytes()
        (tmp_path / "f.grid").write_bytes(text[:len(text) // 2] + b"x" + text[len(text) // 2:])
        with pytest.raises(ValueError, match="unparsable value"):
            GridField.load_raw(tmp_path / "f.grid")
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
