import math
import os
import threading
import types

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
        rep = check_rw_monotone(log_profile(np.geomspace(0.1, 10.0, 60)))
        assert rep.passed
        assert rep.max_value == pytest.approx(2.0, abs=1e-12)
        assert rep.min_value == pytest.approx(2.0, abs=1e-12)

    def test_constant_profile(self):
        r = np.linspace(0.5, 2.0, 30)
        p = RadialProfile.from_callables(r, 3, 2, lambda t: 0 * t,
                                         lambda t: 0 * t, lambda t: 0 * t)
        rep = check_rw_monotone(p)
        assert rep.passed and rep.max_value == 0.0

    def test_holder_profile_increasing(self):
        rep = check_rw_monotone(holder_profile(np.geomspace(1e-4, 1.0, 70), 0.5))
        assert rep.passed
        assert rep.worst_decrease <= rep.tol


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
            check = envelope_viscosity_check(env, ConeParams(3, 2))
            assert check.passed, check.violations

    def test_viscosity_check_on_singular_field(self):
        rr = np.sqrt((self.coords**2).sum(axis=1))
        self.field.values = (2 * np.log(np.maximum(rr, 1e-300))).reshape(161, 161)
        env = radial_envelope(self.field, (0.0, 0.0),
                              radii=geometric_grid(1.5, 0.1, 0.85))
        ra, wa = env.attained_samples()
        assert np.abs(wa - 2 * np.log(ra)).max() <= 1e-12
        check = envelope_viscosity_check(env, ConeParams(3, 2))
        assert check.passed

    def test_negative_control_reports_violations(self):
        self.field.values = (-50.0 * (self.coords**2).sum(axis=1)).reshape(161, 161)
        env = radial_envelope(self.field, (0.35, 0.35),
                              radii=(2 * self.h) * np.arange(1, 25))
        check = envelope_viscosity_check(env, ConeParams(3, 2))
        kinds = {v[2] for v in check.violations}
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
# Grid files read and written in two processes
# ---------------------------------------------------------------------------

GRID_HEADER = "dims 2\nshape {rows} {cols}\nspacing 0.5\n"


def grid_text(rows):
    """A grid file with the given data lines (strings), shape from their count."""
    data = [line for line in rows if line.strip() and not line.lstrip().startswith("#")]
    cols = len(data[0].split("#")[0].split())
    return GRID_HEADER.format(rows=len(data), cols=cols) + "\n".join(rows) + "\n"


@pytest.fixture
def split(monkeypatch):
    """Grid files of any size take the two-process path.  Returns the pids
    this process forked (forks), its np.loadtxt calls (parses: 1 when a
    split read succeeds, 2 when the serial reader ran too), its np.savetxt
    calls (formats: 1 when a split write succeeds) and the package's own
    size constant (split_bytes)."""
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    seen = types.SimpleNamespace(forks=[], parses=0, formats=0,
                                 split_bytes=radial._SPLIT_BYTES)
    monkeypatch.setattr(radial, "_SPLIT_BYTES", 0)
    real_fork, real_loadtxt, real_savetxt = os.fork, np.loadtxt, np.savetxt

    def fork():
        pid = real_fork()
        if pid:
            seen.forks.append(pid)
        return pid

    def loadtxt(*args, **kwargs):
        seen.parses += 1
        return real_loadtxt(*args, **kwargs)

    def savetxt(*args, **kwargs):
        seen.formats += 1
        return real_savetxt(*args, **kwargs)

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(np, "loadtxt", loadtxt)
    monkeypatch.setattr(np, "savetxt", savetxt)
    return seen


def serial_load(path):
    """GridField.load_raw on the serial path, or the message of its ValueError."""
    usable = radial._split_usable
    radial._split_usable = lambda: False
    try:
        return GridField.load_raw(path)
    except ValueError as exc:
        return str(exc)
    finally:
        radial._split_usable = usable


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def rows_with_layout(seed):
    """Data lines of a 12 x 9 field with comment and blank lines, an inline
    comment, uneven spacing and one row much longer than the rest."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(12, 9)) * 10.0 ** rng.integers(-30, 30, size=(12, 9))
    lines = ["# leading comment"]
    long_row = int(rng.integers(3, 9))
    for i, row in enumerate(values):
        sep = " " * (40 if i == long_row else int(rng.integers(1, 4)))
        lines.append(sep.join(f"{x:.17e}" for x in row) + ("  # inline" if i == 2 else ""))
        if rng.uniform() < 0.3:
            lines.append("")
        if rng.uniform() < 0.3:
            lines.append("   # indented comment")
    return lines, values


HEADER_8x4 = GRID_HEADER.format(rows=8, cols=4)
ROWS_8x4 = [" ".join(str(4 * i + j + 1) for j in range(4)) for i in range(8)]


def replaced(row, text):
    """ROWS_8x4 with its data row `row` (0-based) replaced by text."""
    rows = list(ROWS_8x4)
    rows[row] = text
    return rows


# The faults of tests/test_cli.py test_malformed_grid_exits_3 (but an empty
# data section, which has no halves), in the second half of an 8 x 4 grid:
# (header, data lines, message).
FAULTS = {
    "short": (HEADER_8x4, ROWS_8x4[:6], "24 values, shape 8 4 needs 32"),
    "long": (HEADER_8x4, ROWS_8x4 + ["33 34 35 36"], "36 values, shape 8 4 needs 32"),
    "nan": (HEADER_8x4, replaced(6, "5 nan 7 8"), "non-finite value nan in data row 7, column 2"),
    "inf": (HEADER_8x4, replaced(7, "9 10 11 -inf"),
            "non-finite value -inf in data row 8, column 4"),
    "unparsable": (HEADER_8x4, replaced(5, "5 abc 7 8"),
                   "unparsable value 'abc' in data row 6, column 2"),
    "ragged": (HEADER_8x4, replaced(6, "5 6 7"), "data row 7 has 3 values, expected 4"),
    # Rows of 4 values up to the middle and of 8 after it: each half parses,
    # into as many values as the shape needs.
    "ragged-halves": (HEADER_8x4, ["11 12 13 14", "15 16 17 18", "19 20 21 22", "23 24 25 26",
                                   "1 2 3 4 5 6 7 8", "1 2 3 4 5 6 7 8"],
                      "data row 5 has 8 values, expected 4"),
    "no-spacing": ("dims 2\nshape 8 4\n", ROWS_8x4, "missing header line 'spacing'"),
    "no-dims": ("shape 8 4\nspacing 0.5\n", ROWS_8x4, "missing header line 'dims'"),
    "dims-vs-shape": ("dims 3\nshape 8 4\nspacing 0.5\n", ROWS_8x4,
                      "dims 3 but shape has 2 entries"),
    "bad-shape": ("dims 2\nshape 8 four\nspacing 0.5\n", ROWS_8x4, "malformed header"),
    "zero-shape": ("dims 2\nshape 0 4\nspacing 0.5\n", ROWS_8x4,
                   "shape entries must be positive"),
    "inf-spacing": ("dims 2\nshape 8 4\nspacing inf\n", ROWS_8x4,
                    "spacing must be positive and finite"),
}


class TestSplitGridIO:
    @pytest.mark.parametrize("seed", range(6))
    def test_values_identical_to_serial(self, tmp_path, split, seed):
        lines, values = rows_with_layout(seed)
        path = tmp_path / "field.grid"
        path.write_text(grid_text(lines))
        g = GridField.load_raw(path)
        assert len(split.forks) == 1 and split.parses == 1
        want = serial_load(path)
        assert g.values.shape == want.values.shape == values.shape
        assert g.values.tobytes() == want.values.tobytes() == values.tobytes()
        assert_no_child()

    def test_split_inside_the_long_row(self, tmp_path, split):
        # One row holds most of the data text, so the middle falls inside it.
        rows = [" ".join(f"{i + 0.25 * j:.17e}" for j in range(6)) for i in range(4)]
        rows[1] = (" " * 3000).join(rows[1].split())
        path = tmp_path / "field.grid"
        path.write_text(grid_text(rows))
        g = GridField.load_raw(path)
        assert len(split.forks) == 1 and split.parses == 1
        assert g.values.tobytes() == serial_load(path).values.tobytes()

    def test_values_are_private(self, tmp_path, split):
        # A later fork that writes to the values leaves this process's alone.
        lines, values = rows_with_layout(7)
        path = tmp_path / "field.grid"
        path.write_text(grid_text(lines))
        g = GridField.load_raw(path)
        assert split.forks and g.values.flags.writeable
        pid = os.fork()
        if pid == 0:
            try:
                g.values[...] = 0.0
            finally:
                os._exit(0)
        assert os.waitpid(pid, 0)[1] == 0
        assert g.values.tobytes() == values.tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("shape", [(9, 7), (5, 4, 3), (2, 1, 6), (31, 2)])
    def test_writer_bytes_unchanged(self, tmp_path, split, shape):
        rng = np.random.default_rng(sum(shape))
        values = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
        special = [1e300, -1e-300, 5e-324, -0.0, 0.0, 2.2250738585072014e-308,
                   -1.7976931348623157e308, np.pi, 1e-100, -1e100]
        # The special values go to the rows of both halves.
        flat = values.ravel()
        flat[:len(special)] = special[:flat.size]
        flat[-len(special):] = special[:flat.size]
        f = GridField(0.1234567, values, origin=-rng.uniform(0.0, 1.0, len(shape)))
        f.save_raw(tmp_path / "new.grid")
        assert len(split.forks) == 1 and split.formats == 1
        line_by_line_save(f, tmp_path / "old.grid")
        assert (tmp_path / "new.grid").read_bytes() == (tmp_path / "old.grid").read_bytes()
        assert GridField.load_raw(tmp_path / "new.grid").values.tobytes() == f.values.tobytes()
        assert len(split.forks) == 2 and split.parses == 1
        assert_no_child()

    def test_large_field_roundtrip(self, tmp_path, split, monkeypatch):
        # Above the size constant of the package.
        monkeypatch.setattr(radial, "_SPLIT_BYTES", split.split_bytes)
        rng = np.random.default_rng(11)
        f = GridField(0.01, rng.normal(size=(40, 60, 50)))
        f.save_raw(tmp_path / "big.grid")
        assert len(split.forks) == 1 and split.formats == 1
        assert (tmp_path / "big.grid").stat().st_size > radial._SPLIT_BYTES
        line_by_line_save(f, tmp_path / "old.grid")
        assert (tmp_path / "big.grid").read_bytes() == (tmp_path / "old.grid").read_bytes()
        assert GridField.load_raw(tmp_path / "big.grid").values.tobytes() == f.values.tobytes()
        assert len(split.forks) == 2 and split.parses == 1
        assert_no_child()

    @pytest.mark.parametrize("name", sorted(FAULTS))
    def test_fault_in_second_half_gives_serial_message(self, tmp_path, split, name):
        head, rows, named = FAULTS[name]
        path = tmp_path / "bad.grid"
        path.write_text(head + "\n".join(rows) + "\n")
        with pytest.raises(ValueError) as err:
            GridField.load_raw(path)
        assert named in str(err.value)
        assert str(err.value) == serial_load(path)
        # Only a shape without values keeps the reader from splitting.
        assert len(split.forks) == (name not in ("bad-shape", "zero-shape"))
        assert_no_child()

    def test_fault_in_first_half(self, tmp_path, split):
        path = tmp_path / "bad.grid"
        path.write_text(HEADER_8x4 + "\n".join(replaced(1, "5 x 7 8")) + "\n")
        with pytest.raises(ValueError, match="unparsable value 'x' in data row 2, column 2"):
            GridField.load_raw(path)
        assert len(split.forks) == 1
        assert_no_child()

    def test_one_cpu_is_serial(self, tmp_path, split, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        lines, values = rows_with_layout(1)
        path = tmp_path / "field.grid"
        path.write_text(grid_text(lines))
        assert GridField.load_raw(path).values.tobytes() == values.tobytes()
        GridField(0.5, values).save_raw(tmp_path / "out.grid")
        assert split.forks == []

    def test_other_thread_is_serial(self, tmp_path, split):
        lines, values = rows_with_layout(2)
        path = tmp_path / "field.grid"
        path.write_text(grid_text(lines))
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            assert GridField.load_raw(path).values.tobytes() == values.tobytes()
            GridField(0.5, values).save_raw(tmp_path / "out.grid")
        finally:
            stop.set()
            other.join()
        assert split.forks == []

    def test_small_data_is_serial(self, tmp_path, split, monkeypatch):
        monkeypatch.setattr(radial, "_SPLIT_BYTES", 1 << 20)
        lines, values = rows_with_layout(3)
        path = tmp_path / "field.grid"
        path.write_text(grid_text(lines))
        assert GridField.load_raw(path).values.tobytes() == values.tobytes()
        GridField(0.5, values).save_raw(tmp_path / "out.grid")
        assert split.forks == []

    def test_interrupted_reader_leaves_no_child(self, tmp_path, split, monkeypatch):
        lines, _ = rows_with_layout(4)
        path = tmp_path / "field.grid"
        path.write_text(grid_text(lines))
        parent, real = os.getpid(), radial._loadtxt_range

        def interrupted(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return real(*args)

        monkeypatch.setattr(radial, "_loadtxt_range", interrupted)
        with pytest.raises(KeyboardInterrupt):
            GridField.load_raw(path)
        assert len(split.forks) == 1
        assert_no_child()

    def test_interrupted_writer_leaves_no_child(self, tmp_path, split, monkeypatch):
        parent, real = os.getpid(), np.savetxt

        def interrupted(fh, rows, **kwargs):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return real(fh, rows, **kwargs)

        monkeypatch.setattr(np, "savetxt", interrupted)
        with pytest.raises(KeyboardInterrupt):
            GridField(0.5, np.ones((6, 5))).save_raw(tmp_path / "out.grid")
        assert len(split.forks) == 1
        assert_no_child()

    def test_failed_writer_child_is_replaced(self, tmp_path, split, monkeypatch):
        # A child that cannot format its rows leaves them to this process.
        parent, real = os.getpid(), np.savetxt

        def child_fails(fh, rows, **kwargs):
            if os.getpid() != parent:
                raise OSError("no room")
            return real(fh, rows, **kwargs)

        monkeypatch.setattr(np, "savetxt", child_fails)
        f = GridField(0.5, np.arange(42.0).reshape(7, 6) / 7.0)
        f.save_raw(tmp_path / "new.grid")
        assert len(split.forks) == 1
        line_by_line_save(f, tmp_path / "old.grid")
        assert (tmp_path / "new.grid").read_bytes() == (tmp_path / "old.grid").read_bytes()
        assert_no_child()


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
