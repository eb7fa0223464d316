import functools
import inspect
import itertools
import math
import os
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage, optimize
from test_radial import binned_envelope

from khessian import analysis, radial
from khessian.analysis import (
    _bump_offsets,
    _gradient,
    _hessian,
    _quad,
    _w_callable,
    annulus_volume,
    end_count,
    fit_volume_expansion,
    harnack_from_w_profile,
    harnack_ratio,
    holder_barrier,
    mollify,
    p_laplacian_check,
    pointwise_max_fields,
    pucci_delta,
    pucci_min,
    sphere_area,
    u_field_admissible_mask,
    u_field_sigma,
    volume_ratio,
)
from khessian.radial import GridField, RadialProfile, radial_envelope
from khessian.symfunc import ConeParams

CONE32 = ConeParams(3, 2)


def paraboloid_u_field(rng, shape=(17, 17, 17), h=0.1, n_pieces=None):
    """Strictly admissible u-gauge field: max of paraboloids a|x-x0|^2 + c."""
    f = GridField(h, np.zeros(shape))
    coords = f.node_coordinates()
    vals = None
    pieces = n_pieces if n_pieces is not None else int(rng.integers(1, 4))
    for _ in range(pieces):
        x0 = rng.uniform(-0.3, 0.3, size=len(shape))
        u = rng.uniform(0.5, 2.0) * ((coords - x0) ** 2).sum(axis=1) + rng.uniform(0.5, 2.0)
        vals = u if vals is None else np.maximum(vals, u)
    f.values = vals.reshape(shape)
    return f


class TestPucci:
    def test_constant_eigenvalues(self):
        delta = pucci_delta(3, 2)
        assert pucci_min(np.ones(3), delta) == pytest.approx(1.0 + 3 * delta)

    def test_delta_values(self):
        assert pucci_delta(3, 2) == pytest.approx(1.0 / 3.0)
        assert pucci_delta(5, 4) == pytest.approx(1.0 / 15.0)
        assert pucci_delta(4, 4) == 0.0

    @pytest.mark.parametrize("n,k", [(3, 2), (4, 3), (5, 3), (5, 4)])
    def test_barrier_annihilated(self, n, k):
        r = np.geomspace(1e-3, 1.0, 60)
        _, rad, tangential = holder_barrier(r, n, k)
        delta = pucci_delta(n, k)
        alpha = 2.0 - n / k
        for i in range(len(r)):
            P = pucci_min(np.r_[rad[i], np.full(n - 1, tangential[i])], delta)
            # normalize by the r-power carried by every eigenvalue
            assert abs(P) / r[i] ** (alpha - 2.0) <= 1e-12

    def test_laplacian_coefficient_n3k2(self):
        n, k = 3, 2
        r = np.geomspace(1e-3, 1.0, 50)
        _, rad, tangential = holder_barrier(r, n, k)
        lap = rad + (n - 1) * tangential
        assert np.allclose(lap, 0.75 * r**-1.5, rtol=1e-13)
        assert np.allclose(rad, -0.25 * r**-1.5, rtol=1e-13)

    @pytest.mark.parametrize("n,k", [(3, 2), (4, 3), (5, 3), (5, 4)])
    def test_barrier_derivative_coefficients(self, n, k):
        r = np.geomspace(1e-3, 1.0, 50)
        _, rad, tangential = holder_barrier(r, n, k)
        lap_coeff = n * (k - 1) * (2 * k - n) / k**2
        rad_coeff = -(2 * k - n) * (n - k) / k**2
        assert np.abs((rad + (n - 1) * tangential) * r ** (n / k) - lap_coeff).max() <= 1e-10
        assert np.abs(rad * r ** (n / k) - rad_coeff).max() <= 1e-10


class TestPLaplacian:
    def test_fundamental_solution_nonnegative(self):
        r = np.geomspace(0.05, 2.0, 60)
        p = RadialProfile.from_callables(r, 3, 2, lambda t: 2 * np.log(t),
                                         lambda t: 2.0 / t, lambda t: -2.0 / t**2)
        assert p_laplacian_check(p).min() >= 0.0

    def test_constant_u(self):
        r = np.geomspace(0.05, 2.0, 30)
        p = RadialProfile.from_callables(r, 3, 2, lambda t: 0 * t,
                                         lambda t: 0 * t, lambda t: 0 * t)
        assert np.abs(p_laplacian_check(p)).max() == 0.0

    def test_negative_control(self):
        r = np.geomspace(0.05, 2.0, 40)
        p = RadialProfile.from_callables(r, 3, 2, lambda t: -5 * t**2,
                                         lambda t: -10 * t, lambda t: -10 + 0 * t)
        assert p_laplacian_check(p).min() < 0.0

    def test_k_equals_n_unsupported(self):
        r = np.geomspace(0.1, 1.0, 10)
        p = RadialProfile.from_callables(r, 3, 3, lambda t: 0 * t,
                                         lambda t: 0 * t, lambda t: 0 * t)
        with pytest.raises(ValueError):
            p_laplacian_check(p)


class TestMollify:
    def test_constant_unchanged(self):
        f = GridField(0.05, np.full((41, 41), 2.7))
        g = mollify(f, 0.12)
        assert np.abs(g.values - 2.7).max() == 0.0

    def test_linear_unchanged(self):
        f = GridField(0.05, np.zeros((41, 41)))
        x = f.node_coordinates()
        f.values = (1.3 * x[:, 0] - 0.7 * x[:, 1]).reshape(41, 41)
        g = mollify(f, 0.12)
        coords = g.node_coordinates()
        exact = (1.3 * coords[:, 0] - 0.7 * coords[:, 1]).reshape(g.values.shape)
        assert np.abs(g.values - exact).max() <= 1e-12

    def test_preserves_admissibility(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            f = paraboloid_u_field(rng)
            g = mollify(f, 0.25)
            ok, _ = u_field_admissible_mask(g, CONE32, margin=1e-9)
            assert ok.all()

    def test_negative_control_stays_inadmissible(self):
        f = GridField(0.1, np.zeros((17, 17, 17)))
        coords = f.node_coordinates()
        f.values = (10.0 - (coords**2).sum(axis=1)).reshape(17, 17, 17)
        g = mollify(f, 0.25)
        ok, _ = u_field_admissible_mask(g, CONE32)
        assert not ok.any()

    def test_margin_validation(self):
        f = GridField(0.1, np.zeros((9, 9)))
        with pytest.raises(ValueError):
            mollify(f, 0.1)   # below two grid cells
        with pytest.raises(ValueError):
            mollify(f, 0.45)  # consumes the whole box


def shifted_mollify(f, eps):
    """Reference mollifier (the package's former implementation): one
    full-array shifted add per lattice offset of the bump kernel."""
    m = int(math.floor(eps / f.spacing + 1e-12))
    offsets, weights = [], []
    for off in itertools.product(range(-m, m + 1), repeat=f.dims):
        s = math.sqrt(sum(o * o for o in off)) * f.spacing / eps
        if s <= 1.0:
            offsets.append(off)
            weights.append((1.0 - s * s) ** 4)
    weights = np.array(weights) / np.sum(weights)
    out = np.zeros(tuple(s - 2 * m for s in f.values.shape))
    for off, wgt in zip(offsets, weights):
        sl = tuple(slice(m + o, s - m + o) for o, s in zip(off, f.values.shape))
        out += wgt * f.values[sl]
    return out


def u_gauge_matrices(f):
    """Stacked (..., d, d) u-gauge matrices D^2 u - |Du|^2/(2u) I at interior nodes."""
    grads = _gradient(f.values, f.spacing)
    H = _hessian(f.values, f.spacing)
    u = f.values[(slice(1, -1),) * f.dims]
    g2 = sum(g * g for g in grads)
    d = f.dims
    M = np.empty(u.shape + (d, d))
    for i in range(d):
        for j in range(i, d):
            entry = H[(i, j)] - (g2 / (2.0 * u) if i == j else 0.0)
            M[..., i, j] = M[..., j, i] = entry
    return M


def stacked_sigma(M, j):
    """Reference sigma_j (the package's former implementation): trace,
    (tr^2 - |M|_F^2)/2 and np.linalg.det of the stacked matrices."""
    tr = np.trace(M, axis1=-2, axis2=-1)
    if j == 1:
        return tr
    if j == 2:
        return 0.5 * (tr**2 - (M * M).sum(axis=(-2, -1)))
    return np.linalg.det(M)


def eig_sigma(M, j):
    """sigma_j as the elementary symmetric polynomial of np.linalg.eigvalsh."""
    lam = np.linalg.eigvalsh(M)
    return sum(np.prod(lam[..., list(c)], axis=-1)
               for c in itertools.combinations(range(M.shape[-1]), j))


def random_u_field(seed, shape=(11, 12, 13), h=0.1):
    """Positive field with a paraboloid trend and random node noise, so that
    every sigma_j takes both signs."""
    rng = np.random.default_rng(seed)
    f = GridField(h, np.zeros(shape))
    r2 = (f.node_coordinates() ** 2).sum(axis=1).reshape(shape)
    f.values = 1.0 + rng.uniform(0.2, 1.0) * r2 + rng.uniform(0.0, 0.02, shape)
    return f


@pytest.mark.filterwarnings("error")
class TestGridFieldExactness:
    """The streamed mollifier and the entrywise sigma_j agree with the former
    shifted-add and stacked-matrix implementations."""

    @pytest.mark.parametrize("shape", [(23, 19), (15, 14, 16)])
    @pytest.mark.parametrize("cells", [2.0, 2.5, 4.0])
    def test_mollify_matches_shifted_adds(self, shape, cells):
        rng = np.random.default_rng(len(shape) * 10 + int(2 * cells))
        h = 0.05
        f = GridField(h, rng.normal(size=shape) + 3.0)
        got = mollify(f, cells * h)
        want = shifted_mollify(f, cells * h)
        m = int(math.floor(cells + 1e-12))
        assert got.values.shape == want.shape
        assert np.array_equal(got.origin, f.origin + m * h)
        assert np.abs(got.values - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("shape", [(20, 20, 20), (30, 27)])
    @pytest.mark.parametrize("c", [7.123456789, -0.3, 1e200, 6.02e-23])
    def test_mollify_moves_constants_by_a_few_ulp(self, shape, c):
        h = 2.0 / 127
        f = GridField(h, np.full(shape, c))
        for eps in (2.0 * h, 2.5 * h, 4.0 * h):
            moved = np.abs(mollify(f, eps).values - c).max()
            assert moved <= 4.0 * np.finfo(float).eps * abs(c)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_sigma_matches_stacked_matrix(self, seed, k):
        f = random_u_field(seed)
        cone = ConeParams(3, k)
        sigmas, inner = u_field_sigma(f, cone)
        assert inner == (slice(1, -1),) * 3
        M = u_gauge_matrices(f)
        assert len(sigmas) == k
        for j, got in enumerate(sigmas, start=1):
            for want in (stacked_sigma(M, j), eig_sigma(M, j)):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        for strict in (False, True):
            want_ok = np.ones(M.shape[:-2], dtype=bool)
            for j in range(1, k + 1):
                s = stacked_sigma(M, j)
                want_ok &= s > 0.0 if strict else s >= 0.0
            ok, _ = u_field_admissible_mask(f, cone, strict=strict)
            assert np.array_equal(ok, want_ok)
            if k > 1:
                assert 0 < ok.sum() < ok.size


def grouped_mollify(f, eps):
    """Reference mollifier (the package's former implementation): the same
    groups of lattice offsets, one whole-array correlate1d per group."""
    m, offsets, weights = _bump_offsets(f.dims, f.spacing, eps)
    shape = f.values.shape
    kernels, leads = {}, {}
    for off, wgt in zip(offsets, weights):
        q = sum(o * o for o in off[:-1])
        kernels.setdefault(q, np.zeros(2 * m + 1))[off[-1] + m] = wgt
        leads.setdefault(q, {})[off[:-1]] = None
    out = np.zeros(tuple(s - 2 * m for s in shape))
    line = np.empty(shape)
    last = slice(m, shape[-1] - m)
    for q, kernel in kernels.items():
        ndimage.correlate1d(f.values, kernel, axis=-1, output=line)
        for lead in leads[q]:
            sl = tuple(slice(m + o, s - m + o) for o, s in zip(lead, shape))
            out += line[sl + (last,)]
    return out


def pair_sum_mollify(f, eps):
    """Reference mollifier in the package's order, on whole arrays with no
    slabs, chunks or threads.  The offsets are grouped by the squared length
    q of their leading part, in ascending q.  Pair sums S_k = v[j + k] +
    v[j - k] along the last axis; each group's line w_0 v + w_1 S_1 + ...
    over its nonzero taps; disc sums P_a, the lines shifted by the leads
    (a, ...) with a >= 0, in group order and then lexicographic lead order;
    and the output as the sum of P_|o_0| of plane i + m + o_0 over
    ascending o_0."""
    m, offsets, weights = _bump_offsets(f.dims, f.spacing, eps)
    v, shape = f.values, f.values.shape
    width = shape[-1]
    pairs = [v[..., m + k:width - m + k] + v[..., m - k:width - m - k] for k in range(1, m + 1)]
    groups = {}
    for off, wgt in zip(offsets, weights):
        groups.setdefault(sum(o * o for o in off[:-1]), {})[off] = wgt
    discs = {}
    for q in sorted(groups):
        group = groups[q]
        leads = sorted(off[:-1] for off in group if off[-1] == 0 and off[0] >= 0)
        taps = [group[leads[0] + (k,)] for k in range(m + 1) if leads[0] + (k,) in group]
        line = taps[0] * v[..., m:width - m]
        for wgt, pair in zip(taps[1:], pairs):
            line = line + wgt * pair
        for lead in leads:
            part = line[(slice(None),) + tuple(
                slice(m + o, s - m + o) for o, s in zip(lead[1:], shape[1:-1]))]
            discs[lead[0]] = discs[lead[0]] + part if lead[0] in discs else part
    out = np.zeros(tuple(s - 2 * m for s in shape))
    a_max = max(discs)
    for o0 in range(-a_max, a_max + 1):
        out += discs[abs(o0)][m + o0:shape[0] - m + o0]
    return out


def whole_array_u_sigma(f, k):
    """Reference sigma_1..sigma_k (the package's former implementation):
    central differences and the entries of M over the whole interior."""
    v, h, d = f.values, f.spacing, f.dims

    def at(*off):
        return v[tuple(slice(1 + o, s - 1 + o) for o, s in zip(off, v.shape))]

    def unit(i, step=1):
        return tuple(step if a == i else 0 for a in range(d))

    u = at(*(0,) * d)
    grads = [(at(*unit(i)) - at(*unit(i, -1))) / (2 * h) for i in range(d)]
    H = {(i, i): (at(*unit(i)) - 2 * u + at(*unit(i, -1))) / h**2 for i in range(d)}
    for i, j in itertools.combinations(range(d), 2):
        pp, pm, mp, mm = (tuple(a + b for a, b in zip(unit(i, si), unit(j, sj)))
                          for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)))
        H[(i, j)] = (at(*pp) - at(*pm) - at(*mp) + at(*mm)) / (4 * h**2)
    shift = sum(g * g for g in grads) / (2.0 * u)
    diag = [H[(i, i)] - shift for i in range(d)]
    sigmas = [sum(diag)]
    if k >= 2:
        sigmas.append(sum(diag[i] * diag[j] - H[(i, j)] ** 2
                          for i, j in itertools.combinations(range(d), 2)))
    if k == 3:
        (a, b, c), (x, y, z) = diag, (H[(0, 1)], H[(0, 2)], H[(1, 2)])
        sigmas.append(a * (b * c - z * z) - x * (x * c - z * y) + y * (x * z - b * y))
    return sigmas


# Axis-0 slab layouts the shapes below produce with the default slab size:
# (21, 64, 64) and (37, 41, 29) end in a partial slab, (15, 14, 16) and the
# 2-D (130, 70) are thinner than one slab.  mollify cuts one slab per worker
# and walks it in chunks of planes.  "thin" slabs are one plane thick for the
# u-gauge kernels, and mollify's chunks at most two planes.
SLAB_SHAPES_3D = [(21, 64, 64), (37, 41, 29), (15, 14, 16)]


@pytest.mark.filterwarnings("error")
class TestSlabKernels:
    """mollify and the u-gauge kernels, run in axis-0 slabs on one or more
    threads, give the bits of the whole-array passes."""

    @pytest.fixture(params=[(1, None), (3, None), (3, 1)],
                    ids=["one_worker", "three_workers", "three_workers_thin_slabs"])
    def slabs(self, request, monkeypatch):
        workers, slab_bytes = request.param
        monkeypatch.setattr(radial, "_workers", lambda: workers)
        if slab_bytes is not None:
            monkeypatch.setattr(radial, "_SLAB_BYTES", slab_bytes)
        # Frequent thread switches, so that a slab written by two workers
        # or a lost write would show in the bits.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)

    def test_layouts_include_partial_and_single_slabs(self, monkeypatch):
        layouts = []
        real = radial._over_slabs

        def spy(count, planes, work):
            layouts.append((count, planes))
            real(count, planes, work)

        monkeypatch.setattr(radial, "_over_slabs", spy)
        for shape in SLAB_SHAPES_3D:
            f = random_u_field(0, shape)
            mollify(f, 0.2)
            u_field_sigma(f, CONE32)
        assert any(count > planes and count % planes for count, planes in layouts)
        assert any(count < planes for count, planes in layouts)

    @pytest.mark.parametrize("shape", SLAB_SHAPES_3D + [(23, 19), (130, 70)])
    def test_mollify_is_bit_identical(self, slabs, shape):
        rng = np.random.default_rng(sum(shape))
        h = 0.05
        f = GridField(h, rng.normal(size=shape) + 3.0)
        for cells in (2.0, 2.5, 4.0):
            got = mollify(f, cells * h)
            assert np.array_equal(got.values, pair_sum_mollify(f, cells * h))

    @pytest.mark.parametrize("shape", SLAB_SHAPES_3D)
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_u_gauge_is_bit_identical(self, slabs, shape, k):
        f = random_u_field(k, shape)
        cone = ConeParams(3, k)
        want = whole_array_u_sigma(f, k)
        got, inner = u_field_sigma(f, cone)
        assert inner == (slice(1, -1),) * 3
        assert len(got) == k
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        for strict in (False, True):
            for margin in (0.0, 0.5):
                want_ok = np.ones(want[0].shape, dtype=bool)
                for s in want:
                    want_ok &= s > margin if strict else s >= -margin
                ok, _ = u_field_admissible_mask(f, cone, margin=margin, strict=strict)
                assert ok.dtype == bool and np.array_equal(ok, want_ok)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_mask_on_the_cone_boundary(self, slabs, k):
        # A constant field has every sigma_j exactly 0.
        f = GridField(0.1, np.full((21, 64, 64), 2.5))
        cone = ConeParams(3, k)
        assert u_field_admissible_mask(f, cone)[0].all()
        assert not u_field_admissible_mask(f, cone, strict=True)[0].any()

    def test_errors_come_before_any_slab(self, slabs, monkeypatch):
        monkeypatch.setattr(radial, "_over_slabs", lambda *args: pytest.fail("slabs ran"))
        with pytest.raises(ValueError,
                           match="^field is too small for the requested mollification margin$"):
            mollify(GridField(0.1, np.ones((9, 30, 30))), 0.4)
        f = random_u_field(0, (21, 64, 64))
        f.values[19, 5, 5] = 0.0      # one interior node in the last slab
        for check in (u_field_sigma, u_field_admissible_mask):
            with pytest.raises(ValueError, match="^u-gauge field must be positive$"):
                check(f, CONE32)

    def test_no_thread_outlives_a_call(self, monkeypatch):
        monkeypatch.setattr(radial, "_workers", lambda: 3)
        f = random_u_field(2, (21, 64, 64))
        before = threading.active_count()
        mollify(f, 0.4)
        u_field_admissible_mask(f, CONE32)
        assert threading.active_count() == before

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity")
    def test_workers_get_cpus_of_their_own(self, monkeypatch):
        monkeypatch.setattr(radial, "_workers", lambda: 2)
        allowed = os.sched_getaffinity(0)
        seen = {}

        def work(i0, i1):
            seen.setdefault(threading.get_ident(), set()).add(frozenset(os.sched_getaffinity(0)))
            time.sleep(0.01)    # keeps both workers busy

        radial._over_slabs(8, 1, work)
        assert os.sched_getaffinity(0) == allowed     # the caller is not pinned
        assert len(seen) == 2
        masks = [mask for masks in seen.values() for mask in masks]
        assert all(len(mask) == 1 and mask <= allowed for mask in masks)
        assert len(set(masks)) == min(2, len(allowed))

    def test_workers_call_no_public_function(self, tmp_path, monkeypatch):
        monkeypatch.setattr(radial, "_workers", lambda: 3)
        callers = set()

        def spy(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                callers.add(threading.get_ident())
                return fn(*args, **kwargs)
            return wrapper

        for module in (analysis, radial):
            for name, val in list(vars(module).items()):
                if name.startswith("_") or not getattr(val, "__module__", "").startswith("khessian"):
                    continue
                if isinstance(val, type):
                    for attr, raw in list(vars(val).items()):
                        if attr.startswith("_"):
                            continue
                        if inspect.isfunction(raw):
                            monkeypatch.setattr(val, attr, spy(raw))
                        elif isinstance(raw, classmethod):
                            monkeypatch.setattr(val, attr, classmethod(spy(raw.__func__)))
                elif callable(val):
                    monkeypatch.setattr(module, name, spy(val))
        f = random_u_field(3, (21, 64, 64))
        analysis.u_field_admissible_mask(analysis.mollify(f, 0.2), CONE32)
        analysis.u_field_sigma(f, ConeParams(3, 3))
        radial.radial_envelope(f, np.zeros(3))
        f.save_raw(tmp_path / "f.grid")
        assert GridField.load_raw(tmp_path / "f.grid").values.tobytes() == f.values.tobytes()
        assert callers == {threading.get_ident()}

    def test_peak_memory(self, monkeypatch):
        monkeypatch.setattr(radial, "_workers", lambda: 2)
        m = 64
        f = GridField(2.0 / (m - 1), np.zeros((m, m, m)))
        f.values = 7.0 + 0.7 * (f.node_coordinates() ** 2).sum(axis=1).reshape(m, m, m)

        def peak(call):
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1] / f.values.nbytes
            finally:
                tracemalloc.stop()

        # The whole-array passes peaked at 15.3 (mask) and 1.7 (mollify).
        assert peak(lambda: u_field_admissible_mask(f, CONE32)) <= 4.0
        assert peak(lambda: mollify(f, 4 * f.spacing)) <= min(
            1.7, peak(lambda: grouped_mollify(f, 4 * f.spacing)))


@st.composite
def slab_draws(draw):
    """(field, eps, centre, workers, slab bytes): a random 2-D or 3-D field
    of 5 to 40 nodes per axis, eps of 2 to 4.5 cells, an envelope centre
    more than a cell inside the box, 1 to 3 workers, and the default slabs
    or one-plane slabs."""
    shape = tuple(draw(st.lists(st.integers(5, 40), min_size=2, max_size=3)))
    h = 0.05
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = GridField(h, rng.normal(size=shape) + 3.0)
    eps = draw(st.floats(2.0, 4.5)) * h
    centre = f.origin + h * np.array([draw(st.floats(1.25, s - 2.25)) for s in shape])
    return f, eps, centre, draw(st.integers(1, 3)), draw(st.sampled_from([None, 1]))


@pytest.mark.filterwarnings("error")
@settings(derandomize=True, deadline=None, max_examples=200)
@given(slab_draws())
def test_slab_kernels_do_not_depend_on_the_workers(case):
    """mollify gives the same bits on one worker and on the drawn workers
    and slabs, within 1e-13 of the shifted adds, and radial_envelope the
    bits of the whole-array binning; no draw raises a numpy warning."""
    f, eps, centre, workers, slab_bytes = case
    outputs = []
    for count, size in ((1, radial._SLAB_BYTES), (workers, slab_bytes or radial._SLAB_BYTES)):
        with mock.patch.object(radial, "_workers", lambda: count), \
                mock.patch.object(radial, "_SLAB_BYTES", size):
            try:
                outputs.append(mollify(f, eps).values)
            except ValueError as exc:
                assert str(exc) == "field is too small for the requested mollification margin"
            env = radial_envelope(f, centre)
    if outputs:
        assert np.array_equal(outputs[0], outputs[1])
        want = shifted_mollify(f, eps)
        assert np.abs(outputs[1] - want).max() <= 1e-13 * np.abs(want).max()
    wtilde, r_attained = binned_envelope(f, centre, env.r)
    assert np.array_equal(env.wtilde, wtilde)
    assert np.array_equal(env.r_attained, r_attained)


class TestPointwiseMax:
    def test_max_with_itself(self):
        f = paraboloid_u_field(np.random.default_rng(2))
        m, kink = pointwise_max_fields(f, f)
        assert np.array_equal(m.values, f.values) and kink.all()

    def test_shifted_fields(self):
        f = paraboloid_u_field(np.random.default_rng(3))
        g = GridField(f.spacing, f.values + 0.5, f.origin)
        m, kink = pointwise_max_fields(f, g)
        assert np.array_equal(m.values, g.values) and not kink.any()
        ok, _ = u_field_admissible_mask(m, CONE32, margin=1e-9)
        assert ok.all()

    def test_grid_fields_off_kink(self):
        rng = np.random.default_rng(1)
        f = paraboloid_u_field(rng, n_pieces=1)
        g = paraboloid_u_field(rng, n_pieces=1)
        m, kink = pointwise_max_fields(f, g, kink_cells=3)
        ok, inner = u_field_admissible_mask(m, CONE32, margin=1e-9)
        away = ~kink[inner]
        assert ok[away].all()

    def test_negative_control_detected_off_kink(self):
        f = GridField(0.1, np.zeros((17, 17, 17)))
        coords = f.node_coordinates()
        f.values = (1.0 * (coords**2).sum(axis=1) + 1.0).reshape(17, 17, 17)
        g = GridField(0.1, (5.0 - 4.0 * (coords**2).sum(axis=1)).reshape(17, 17, 17))
        m, kink = pointwise_max_fields(f, g, kink_cells=2)
        ok, inner = u_field_admissible_mask(m, CONE32)
        away = ~kink[inner]
        assert away.any() and not ok[away].all()


class TestHarnack:
    def test_constant_factor(self):
        r = np.geomspace(0.01, 1.0, 30)
        est = harnack_ratio(r, np.full(30, 3.3), CONE32)
        assert est.c_est == pytest.approx(0.0, abs=1e-14)

    def test_analytic_family_constant_across_scales(self):
        c, theta = 0.6, 0.5
        expected = 2 * c / (1 - theta)
        values = []
        for R in (0.01, 0.1, 1.0):
            r = np.geomspace(1e-8, R, 80)
            chi = np.exp(-2 * (c / (1 - theta)) * r ** (1 - theta))
            values.append(harnack_ratio(r, chi, CONE32).c_est)
        for v in values:
            assert v == pytest.approx(expected, rel=0.03)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(2)
        r = np.geomspace(0.01, 1.0, 40)
        chi = np.exp(rng.normal(size=40) * 0.3) + 0.5
        e1 = harnack_ratio(r, chi, CONE32)
        e2 = harnack_ratio(r, 11.7 * chi, CONE32)
        assert e1.c_est == pytest.approx(e2.c_est, rel=1e-12)
        assert e1.pair == e2.pair

    def test_singular_family_diverges(self):
        ests = []
        for rmin in (1e-2, 1e-3, 1e-4):
            r = np.geomspace(rmin, 1.0, 60)
            p = RadialProfile.from_callables(r, 3, 2, lambda t: 2 * np.log(t),
                                             lambda t: 2 / t, lambda t: -2 / t**2)
            ests.append(harnack_from_w_profile(p).c_est)
        assert ests[1] > 2.0 * ests[0] and ests[2] > 2.0 * ests[1]

    def test_rejects_nonpositive_chi(self):
        with pytest.raises(ValueError):
            harnack_ratio(np.array([0.1, 0.2]), np.array([1.0, -1.0]), CONE32)

    def test_field_variant_matches_analytic_family(self):
        from khessian.analysis import harnack_from_field
        h = 0.05
        f = GridField(h, np.zeros((41, 41)))
        coords = f.node_coordinates()
        rr = np.maximum(np.sqrt((coords**2).sum(axis=1)), 1e-12)
        c, theta = 0.6, 0.5
        f.values = np.exp(-2 * (c / (1 - theta)) * rr ** (1 - theta)).reshape(41, 41)
        est = harnack_from_field(f, CONE32)
        assert est.c_est == pytest.approx(2 * c / (1 - theta), rel=0.03)



def all_pairs_harnack(coords, chi, cone, min_sep=0.0):
    """Reference scan over all m^2 ordered pairs in row blocks (the package's
    former implementation): the first maximal pair in row-major order."""
    coords = np.asarray(coords, dtype=float)
    chi = np.asarray(chi, dtype=float)
    if coords.ndim == 1:
        coords = coords[:, None]
    alpha = cone.alpha
    logchi = np.log(chi)
    m = len(logchi)
    block = max(1, int(4e6) // max(m, 1))
    best, best_pair = -np.inf, (0, 0)
    for start in range(0, m, block):
        stop = min(start + block, m)
        diff = coords[start:stop, None, :] - coords[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        num = np.abs(logchi[start:stop, None] - logchi[None, :])
        mask = dist > max(min_sep, 0.0)
        ratios = np.where(mask, num / np.where(mask, dist, 1.0) ** alpha, -np.inf)
        flat = int(np.argmax(ratios))
        i, j = divmod(flat, m)
        if ratios[i, j] > best:
            best = float(ratios[i, j])
            best_pair = (start + i, j)
    return best, best_pair


def lattice(shape, h):
    axes = [-1.0 + h * np.arange(s) for s in shape]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(shape))


def sine_field(x, seed):
    """log chi = sum_j c_j sin(omega_j . x + phi_j), smooth with interior extrema."""
    rng = np.random.default_rng(seed)
    c = rng.uniform(0.2, 0.5, 3)
    omega = rng.uniform(0.5, 2.0, (3, x.shape[1]))
    phase = rng.uniform(0.0, 2.0 * math.pi, 3)
    return (c * np.sin(x @ omega.T + phase)).sum(axis=1)


CONE53 = ConeParams(5, 3)   # alpha = 1/3
EXACT_CASES = [(cone, sep) for cone in (CONE32, CONE53) for sep in (0.0, 2.0)]


@pytest.mark.filterwarnings("error")
class TestHarnackSearch:
    """The pruned search returns the all-pairs c_est and pair bit for bit."""

    @staticmethod
    def check(coords, logchi, cone, min_sep):
        chi = 2.5 * np.exp(logchi)
        est = harnack_ratio(coords, chi, cone, min_sep)
        want = all_pairs_harnack(coords, chi, cone, min_sep)
        assert (est.c_est, est.pair) == want
        m = len(chi)
        assert 0 <= est.pairs_scored <= m * (m - 1) // 2
        return est

    @pytest.mark.parametrize("cone, sep", EXACT_CASES)
    @pytest.mark.parametrize("sort", [True, False])
    def test_random_1d(self, cone, sep, sort):
        rng = np.random.default_rng(11)
        r = rng.uniform(0.01, 2.0, 700)
        if sort:
            r = np.sort(r)
        logchi = -2.0 * (1.5 * np.sqrt(r) + 0.05 * np.sin(7.0 * r)) + 0.01 * rng.normal(size=700)
        self.check(r, logchi, cone, sep * 2.0 / 700)

    @pytest.mark.parametrize("cone, sep", EXACT_CASES)
    @pytest.mark.parametrize("shape", [(23, 31), (6, 6, 6), (10, 10, 10)])
    def test_random_lattice(self, cone, sep, shape):
        h = 2.0 / (shape[0] - 1)
        x = lattice(shape, h)
        rng = np.random.default_rng(len(x))
        self.check(x, sine_field(x, len(x)) + 0.02 * rng.normal(size=len(x)), cone, sep * h)

    @pytest.mark.parametrize("cone, sep", [(CONE32, 2.0), (CONE53, 0.0)])
    def test_benchmark_size_field(self, cone, sep):
        h = 2.0 / 15
        x = lattice((16, 16, 16), h)
        self.check(x, sine_field(x, 3), cone, sep * h)

    @pytest.mark.parametrize("cone, sep", EXACT_CASES)
    @pytest.mark.parametrize("field", ["constant", "linear", "radial"])
    def test_ties(self, cone, sep, field):
        h = 2.0 / 9
        x = lattice((10, 10, 10), h)
        logchi = {"constant": np.zeros(len(x)),
                  "linear": 0.8 * x[:, 0],
                  "radial": np.sqrt((x**2).sum(axis=1))}[field]
        self.check(x, logchi, cone, sep * h)

    @pytest.mark.parametrize("cone", [ConeParams(3, 1), ConeParams(4, 2), ConeParams(3, 3)])
    def test_other_exponents(self, cone):
        # alpha = -1, 0 and 1 bound the distance from the far box corners or the gap.
        rng = np.random.default_rng(5)
        x = rng.normal(size=(300, 2))
        x[150:] = x[:150]   # repeated points: distinct nodes at distance 0
        self.check(x, rng.normal(size=300), cone, 0.0)

    @pytest.mark.parametrize("m", [1, 2])
    def test_every_pair_masked(self, m):
        est = harnack_ratio(np.arange(m, dtype=float), np.arange(1.0, m + 1.0), CONE32,
                            min_sep=5.0)
        assert est.c_est == -np.inf and est.pair == (0, 0) and est.pairs_scored <= 1
        assert all_pairs_harnack(np.arange(m, dtype=float), np.arange(1.0, m + 1.0), CONE32,
                                 min_sep=5.0) == (-np.inf, (0, 0))

    def test_prunes_at_32_cubed(self):
        h = 2.0 / 31
        x = lattice((32, 32, 32), h)
        for cone in (CONE32, CONE53):
            est = harnack_ratio(x, np.exp(sine_field(x, 1)), cone, 2.0 * h)
            assert est.pairs_scored < 0.05 * len(x) ** 2 / 2

    @pytest.mark.parametrize("coords, chi, match", [
        ([0.1, 0.2, 0.3], [1.0, np.nan, 2.0], "chi must be finite"),
        ([0.1, 0.2, 0.3], [1.0, np.inf, 2.0], "chi must be finite"),
        ([0.1, np.nan, 0.3], [1.0, 1.5, 2.0], "coords must be finite"),
        ([[0.1, 0.0], [0.2, -np.inf]], [1.0, 2.0], "coords must be finite"),
        ([0.1, 0.2, 0.3], [1.0, 2.0], "same nodes"),
        ([[0.1, 0.2, 0.3]], [1.0, 2.0, 3.0], "same nodes"),
    ])
    def test_rejects_undefined_input(self, coords, chi, match):
        with pytest.raises(ValueError, match=match):
            harnack_ratio(np.array(coords), np.array(chi), CONE32)

    def test_rejects_nan_min_sep(self):
        with pytest.raises(ValueError, match="min_sep"):
            harnack_ratio(np.array([0.1, 0.2]), np.array([1.0, 2.0]), CONE32, min_sep=np.nan)


def former_volume_ratio(w, n, s_values, mode="origin", rho_ref=1.0):
    """The former root search of `volume_ratio`, kept as an oracle: every
    bracket probe and every brentq iterate integrates the length density over
    the full range from the center (or from the reference sphere), and so
    does the volume at each root.  Returns Q."""
    wf = _w_callable(w)
    omega = sphere_area(n)
    length = lambda t: math.exp(-wf(t))
    volden = lambda t: omega * math.exp(-n * wf(t)) * t ** (n - 1)
    if mode == "origin":
        s_of_rho = lambda rho: _quad(length, 0.0, rho)
        vol_of_rho = lambda rho: _quad(volden, 0.0, rho)
    else:
        s_of_rho = lambda rho: _quad(length, rho, rho_ref)
        vol_of_rho = lambda rho: _quad(volden, rho, rho_ref)
    Q = np.empty(len(s_values))
    for idx, s in enumerate(np.asarray(s_values, dtype=float)):
        if mode == "origin":
            hi = max(2.0 * s, 1e-3)
            while s_of_rho(hi) < s:
                hi *= 2.0
            rho = optimize.brentq(lambda x: s_of_rho(x) - s, 1e-300, hi, xtol=1e-14, rtol=8.9e-16)
        else:
            lo = rho_ref * 0.5
            while s_of_rho(lo) < s:
                lo *= 0.5
            rho = optimize.brentq(lambda x: s_of_rho(x) - s, lo, rho_ref * (1 - 1e-15),
                                  xtol=1e-300, rtol=8.9e-16)
        Q[idx] = vol_of_rho(rho) / s**n
    return Q


def stereographic(t):
    return math.log((1 + t * t) / 2)


def truncated_log(K):
    """Cap w = max(2 log rho, -K): flat near the origin, fundamental outside."""
    return lambda t: max(2 * math.log(t), -K) if t > 0 else -K


class TestVolumeSweep:
    """The one-sweep root search against the former full-range search."""

    @pytest.mark.parametrize("w, n, s, kwargs", [
        (stereographic, 3, np.linspace(0.05, 0.5, 25), {}),
        (stereographic, 5, np.linspace(0.05, 2.5, 25), {}),
        (lambda t: 0.0, 3, np.linspace(0.1, 4.0, 25), {}),
        (lambda t: 2 * math.log(t), 3, np.linspace(50.0, 400.0, 25),
         {"mode": "end", "rho_ref": 1.0}),
        (lambda t: 2 * math.log(t), 3, np.linspace(5.0, 900.0, 25),
         {"mode": "end", "rho_ref": 0.5}),
    ], ids=["stereographic_n3", "stereographic_n5", "euclidean", "fundamental_end_rho1",
            "fundamental_end_rho05"])
    def test_matches_the_former_search(self, w, n, s, kwargs):
        got = volume_ratio(w, n, s, **kwargs).Q
        want = former_volume_ratio(w, n, s, **kwargs)
        assert np.abs(got / want - 1.0).max() <= 1e-12

    def test_truncated_log_closed_form(self):
        # n = 3, K = 2: the cap rho <= 1/e is flat with s = e^2 rho, so
        # Q = omega/3 for s <= e.  Beyond it s = 2e - 1/rho and
        # Vol = omega (e^3 + e^3 - rho^-3) / 3.
        omega = sphere_area(3)
        s = np.linspace(0.6, 3.0, 15)
        cap = s <= math.e
        rho = 1.0 / (2.0 * math.e - s[~cap])
        exact = np.full(len(s), omega / 3)
        exact[~cap] = omega * (2.0 * math.e**3 - rho**-3) / 3 / s[~cap] ** 3
        curve = volume_ratio(truncated_log(2.0), 3, s)
        assert cap.sum() == 13
        assert np.abs(curve.Q / exact - 1.0).max() <= 1e-12

    def test_integrable_singular_center(self):
        # w = log(t) / 2: s = 2 sqrt(rho) and Vol = omega (2/3) rho^1.5, so
        # Q = omega / 12 at every radius.
        curve = volume_ratio(lambda t: 0.5 * math.log(t), 3, [0.1, 0.5, 2.0])
        assert np.abs(curve.Q / (sphere_area(3) / 12) - 1.0).max() <= 1e-10

    def test_evaluations_grow_with_the_radii_only(self):
        calls = 0

        def w(t):
            nonlocal calls
            calls += 1
            return 2 * math.log(t)

        volume_ratio(w, 3, np.linspace(50.0, 400.0, 25), mode="end", rho_ref=1.0)
        # The former full-range search made 131 775 evaluations here.
        assert calls < 15_000

    @pytest.mark.parametrize("w, s, kwargs, message", [
        (stereographic, [1.0, 3.5], {}, "geodesic radius unreachable; metric compactifies"),
        (lambda t: 2 * math.log(t), [0.1, 1.0], {},
         "length density is not integrable at the center"),
        (lambda t: 1.5 * math.log(t), [0.1, 1.0], {},
         "length density is not integrable at the center"),
        (lambda t: math.log(t), [0.1, 1.0], {},
         "length density is not integrable at the center"),
        (lambda t: 0.0, [0.5, 2.0], {"mode": "end"},
         "geodesic radius unreachable from the reference sphere"),
        (lambda t: 0.0, [0.2, 0.1], {}, "geodesic radii must be positive and increasing"),
        (lambda t: 0.0, [0.1], {"mode": "middle"}, "mode must be 'origin' or 'end'"),
        (lambda t: 0.0, [1e300], {}, "volume ratio overflows at s = 1e\\+300"),
        (lambda t: 0.0, [1e-200], {}, "volume ratio is not finite at s = 1e-200"),
        (lambda t: 250.0, [1e-100], {}, "volume ratio underflows to 0 at s = 1e-100"),
    ], ids=["sphere_beyond_pi", "singular_center_in_origin_mode", "center_t_pow_minus_1_5",
            "center_t_pow_minus_1", "end_unreachable",
            "radii_decreasing", "unknown_mode", "volume_overflows", "ratio_underflows",
            "ratio_underflows_to_zero"])
    def test_errors(self, w, s, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            volume_ratio(w, 3, np.array(s), **kwargs)


class TestVolume:
    def test_euclidean_constant(self):
        s = np.linspace(0.1, 1.0, 10)
        curve = volume_ratio(lambda t: 0.0, 3, s)
        assert np.abs(curve.Q - curve.omega_n / 3.0).max() <= 1e-10

    def test_round_sphere_closed_form(self):
        s = np.linspace(0.05, 0.5, 20)
        curve = volume_ratio(lambda t: math.log((1 + t * t) / 2), 3, s)
        exact = (2 * math.pi * s - math.pi * np.sin(2 * s)) / s**3
        assert np.abs(curve.Q - exact).max() <= 1e-8
        assert np.all(np.diff(curve.Q) <= 1e-6)
        assert curve.Q[0] <= curve.omega_n / 3 + 1e-9   # Q(0+) <= omega_n / n
        q0, c2 = fit_volume_expansion(curve)
        assert q0 == pytest.approx(4 * math.pi / 3, rel=1e-4)
        assert c2 == pytest.approx(-0.2, rel=0.05)

    def test_annulus_volume_fundamental_metric(self):
        w = lambda t: 2 * math.log(t)
        omega3 = sphere_area(3)
        for (r1, r2) in [(0.1, 0.5), (0.2, 2.0), (0.05, 0.4)]:
            exact = (omega3 / 3) * (r1**-3 - r2**-3)
            assert annulus_volume(w, r1, r2, 3) == pytest.approx(exact, rel=1e-8)

    def test_singular_center_raises_in_origin_mode(self):
        s = np.linspace(0.1, 1.0, 5)
        with pytest.raises(ValueError):
            volume_ratio(lambda t: 2 * math.log(t), 3, s, mode="origin")

    def test_end_mode_counts_single_end(self):
        s = np.linspace(5.0, 900.0, 25)
        curve = volume_ratio(lambda t: 2 * math.log(t), 3, s, mode="end", rho_ref=0.5)
        assert np.all(np.diff(curve.Q) <= 1e-9)
        res = end_count(curve)
        assert res.m == 1 and res.status == "converged"
        assert abs(res.ratio - res.m) <= 0.01

    def test_truncated_singularity_metric(self):
        # cap w = max(2 log rho, -K): flat near the origin, fundamental outside
        K = 2.0
        w = lambda t: max(2 * math.log(t), -K) if t > 0 else -K
        rho0 = math.exp(-K / 2)
        s_plateau = math.exp(K / 2)          # geodesic radius of the flat cap
        s = np.linspace(0.2 * s_plateau, 1.1 * s_plateau, 18)
        curve = volume_ratio(w, 3, s, mode="origin")
        assert np.all(np.diff(curve.Q) <= 1e-9)
        assert np.ptp(curve.Q) > 1e-3 * curve.Q[0]     # Q genuinely non-constant
        res = end_count(curve)
        assert res.m == 1

    def test_euclidean_end_count(self):
        s = np.linspace(0.5, 4.0, 10)
        res = end_count(volume_ratio(lambda t: 0.0, 3, s))
        assert res.m == 1 and abs(res.ratio - res.m) <= 1e-9

    def test_inconclusive_tail_flagged(self):
        s = np.linspace(0.2, 0.9, 12)
        curve = volume_ratio(lambda t: math.log((1 + t * t) / 2), 3, s)
        curve.Q = curve.Q * np.linspace(1.0, 0.5, 12)   # force a steep tail
        assert end_count(curve).status == "inconclusive"

    def test_profile_input(self):
        r = np.geomspace(1e-4, 3.0, 400)
        prof = RadialProfile.from_callables(r, 3, 2, lambda t: np.log((1 + t**2) / 2),
                                            lambda t: 2 * t / (1 + t**2),
                                            lambda t: 2 * (1 - t**2) / (1 + t**2) ** 2)
        s = np.linspace(0.1, 0.4, 8)
        curve = volume_ratio(prof, 3, s)
        exact = (2 * math.pi * s - math.pi * np.sin(2 * s)) / s**3
        assert np.abs(curve.Q - exact).max() <= 1e-5


class TestUFieldAdmissibility:
    def test_requires_matching_dimension(self):
        f = GridField(0.1, np.ones((9, 9)))
        with pytest.raises(ValueError):
            u_field_admissible_mask(f, CONE32)

    def test_paraboloid_is_strictly_admissible(self):
        rng = np.random.default_rng(3)
        f = paraboloid_u_field(rng, n_pieces=1)
        ok, _ = u_field_admissible_mask(f, CONE32, margin=1e-9, strict=True)
        assert ok.all()

    def test_requires_positive_u(self):
        f = GridField(0.1, np.full((9, 9, 9), -1.0))
        with pytest.raises(ValueError):
            u_field_admissible_mask(f, CONE32)


class TestNonFiniteFields:
    """Every grid-field computation rejects NaN and inf, naming the first
    such node, also when the values were reassigned after construction."""

    @staticmethod
    def bowl(m=9):
        f = GridField(0.25, np.zeros((m, m, m)))
        f.values = 1.0 + 0.5 * (f.node_coordinates() ** 2).sum(axis=1).reshape(m, m, m)
        return f

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_construction(self, bad):
        values = self.bowl().values
        values[4, 4, 4] = bad
        values[6, 1, 2] = bad
        with pytest.raises(ValueError, match=r"at node \(4, 4, 4\) is not finite"):
            GridField(0.25, values)

    CALLS = {
        "mollify": lambda f: mollify(f, 0.5),
        "u_field_sigma": lambda f: u_field_sigma(f, CONE32),
        "u_field_admissible_mask": lambda f: u_field_admissible_mask(f, CONE32),
        "harnack_from_field": lambda f: analysis.harnack_from_field(f, CONE32),
        "radial_envelope": lambda f: radial_envelope(f, np.zeros(3)),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_reassigned_values(self, call, bad):
        f = self.bowl()
        self.CALLS[call](f)
        values = f.values.copy()
        values[4, 4, 4] = bad
        f.values = values
        with pytest.raises(ValueError, match=r"at node \(4, 4, 4\) is not finite"):
            self.CALLS[call](f)
        f.values[4, 4, 4] = 1.0
        f.values[0, 3, 8] = bad
        with pytest.raises(ValueError, match=r"at node \(0, 3, 8\) is not finite"):
            self.CALLS[call](f)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_mollify_refuses_values_whose_pair_sums_overflow(self, sign):
        # Values up to just below 2^1023 mollify to finite values; a larger
        # one is named, as its pair sums would overflow.
        f = GridField(0.25, np.full((9, 9, 9), sign * 8.98e307))
        g = mollify(f, 0.5)
        assert np.isfinite(g.values).all()
        f.values[2, 3, 4] = sign * 1e308
        f.values[5, 5, 5] = np.nan
        with pytest.raises(ValueError, match=r"at node \(5, 5, 5\) is not finite"):
            mollify(f, 0.5)
        f.values[5, 5, 5] = 1.0
        with pytest.raises(ValueError, match=r"at node \(2, 3, 4\) is too large to mollify"):
            mollify(f, 0.5)
