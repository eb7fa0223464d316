"""Barrier operators, admissibility-preserving operations, and geometric
diagnostics for conformally flat radial metrics.

The Pucci minimal operator P[u] = min(lambda) + delta * sum(lambda) with
delta = (n-k)/(n(k-1)) annihilates the barrier u0 = r^{2-n/k} exactly; the
p-Laplacian reduction uses p - 2 = n(k-1)/(n-k).  Volume diagnostics work
with the metric g = e^{-2w} g_e: geodesic radius s(rho) = int e^{-w}, ball
volume omega_n int e^{-n w} t^{n-1} dt, and the ratio Q = Vol / s^n whose
large-radius limit counts singular ends in units of omega_n / n.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import radial
from .radial import GridField, RadialProfile
from .symfunc import ConeParams

__all__ = [
    "pucci_delta",
    "pucci_min",
    "holder_barrier",
    "p_laplacian_check",
    "mollify",
    "pointwise_max_fields",
    "u_field_sigma",
    "u_field_admissible_mask",
    "HarnackEstimate",
    "harnack_ratio",
    "harnack_from_w_profile",
    "harnack_from_field",
    "VolumeCurve",
    "sphere_area",
    "volume_ratio",
    "annulus_volume",
    "EndCountResult",
    "end_count",
    "fit_volume_expansion",
]


# ---------------------------------------------------------------------------
# Pucci minimal operator and the Holder barrier
# ---------------------------------------------------------------------------

def pucci_delta(n: int, k: int) -> float:
    """delta = (n-k)/(n(k-1)), positive for n/2 < k < n and zero at k = n."""
    if k < 2:
        raise ValueError("Pucci delta requires k >= 2")
    return (n - k) / (n * (k - 1))


def pucci_min(hessian_eigs, delta: float) -> float:
    lam = np.asarray(hessian_eigs, dtype=float)
    return float(lam.min() + delta * lam.sum())


def holder_barrier(r, n: int, k: int):
    """Value and radial Hessian eigenvalues of the barrier u0 = r^{2-n/k}.

    Returns (u0, radial_eig, tangential_eig): the Hessian of a radial function
    has eigenvalue u0'' radially and u0'/r with multiplicity n-1.
    """
    r = np.asarray(r, dtype=float)
    alpha = 2.0 - n / k
    u0 = r**alpha
    radial = alpha * (alpha - 1.0) * r ** (alpha - 2.0)
    tangential = alpha * r ** (alpha - 2.0)
    return u0, radial, tangential


# ---------------------------------------------------------------------------
# p-Laplacian reduction
# ---------------------------------------------------------------------------

def p_laplacian_check(profile: RadialProfile) -> np.ndarray:
    """Evaluate the radial p-Laplacian of u = e^w with p - 2 = n(k-1)/(n-k).

    Expanding the flux derivative gives
        Delta_p u = |u'|^{p-2} [ (p-1) u'' + (n-1) u'/r ],
    so the returned per-node ratio Delta_p u / (u |u'|^{p-2}) is
    [(p-1) u'' + (n-1) u'/r] / u.  On a flat background an admissible profile
    gives a nonnegative ratio.
    """
    n, k = profile.cone.n, profile.cone.k
    if k >= n:
        raise ValueError("p-Laplacian reduction needs k < n (p finite)")
    p = 2.0 + n * (k - 1) / (n - k)
    u = np.exp(profile.w)
    du = u * profile.dw
    d2u = u * (profile.d2w + profile.dw**2)
    return ((p - 1.0) * d2u + (n - 1.0) * du / profile.r) / u


# ---------------------------------------------------------------------------
# Mollification and pointwise maxima
# ---------------------------------------------------------------------------

def _bump_offsets(dims: int, spacing: float, eps: float):
    m = int(math.floor(eps / spacing + 1e-12))
    offsets, weights = [], []
    for off in itertools.product(range(-m, m + 1), repeat=dims):
        s = math.sqrt(sum(o * o for o in off)) * spacing / eps
        if s < 1.0:
            offsets.append(off)
            weights.append((1.0 - s * s) ** 4)
    w = np.array(weights)
    return m, offsets, w / w.sum()


# Two values below this in magnitude have a finite sum; mollify's weighted
# sums of such pair sums stay below it, since the weights add up to one.
_PAIR_SUM_LIMIT = 2.0 ** 1023


def _bump_groups(dims: int, spacing: float, eps: float):
    """The bump kernel of mollify, grouped by the leading part of its offsets.

    Returns m, the taps and the leads.  taps[q] lists the weights w(q + k^2)
    of the offsets whose leading part has squared length q, for last
    coordinates k = 0, 1, ..., in ascending q; every group has k = 0.
    leads[q] lists those leading parts with a nonnegative first coordinate,
    in lexicographic order.  The kernel is even in every coordinate, so
    these carry all of its weights.
    """
    m, offsets, weights = _bump_offsets(dims, spacing, eps)
    taps, leads = {}, {}
    for off, wgt in zip(offsets, weights):
        q = sum(o * o for o in off[:-1])
        if off[-1] >= 0:
            taps.setdefault(q, {})[off[-1]] = wgt
        if off[-1] == 0 and off[0] >= 0:
            leads.setdefault(q, []).append(off[:-1])
    taps = {q: [taps[q][k] for k in range(len(taps[q]))] for q in sorted(taps)}
    return m, taps, {q: leads[q] for q in taps}


def mollify(f: GridField, eps: float) -> GridField:
    """Discrete convolution with the radial bump kernel (1 - s^2)^4 on s in [0,1].

    The kernel is normalized to unit mass on the lattice, so constants are
    preserved to rounding (a few ulp) and linear fields up to rounding.  The
    output lives on the inner box with an eps-margin removed; on a flat
    background the u-gauge admissible cone is preserved.

    The kernel is even in every coordinate and its weights depend on the
    squared offset length only, so each value is one fixed sum of four
    stages (_bump_groups names the groups and leads), over the last axis j:
      1. pair sums S_k = v[j + k] + v[j - k] for k = 1..m;
      2. for each group q, in ascending q, its line
         w_0 v + w_1 S_1 + w_2 S_2 + ... over the group's nonzero taps;
      3. disc sums P_a for a = 0..m: each group's line, shifted along the
         middle axis by the lead's second coordinate (3-D), added into
         P_a of each of its leads (a, ...), in group and lead order;
      4. output plane i = the sum over o_0 = -a_max..a_max, ascending, of
         P_|o_0| of input plane i + m + o_0.
    The output planes are cut into one axis-0 slab per worker of
    radial._over_slabs.  A slab walks its input planes in ascending order,
    a few at a time, so that a chunk's pair sums, lines and disc sums stay
    in cache, and adds each chunk's disc sums into the output planes they
    reach, in ascending o_0.  Each slab recomputes the 2 a_max input planes
    it shares with its neighbours.  Every output value is the same sum in
    the same order whatever the slabs, chunks and threads.

    Values must be finite and below 2^1023 (about 8.99e307) in magnitude,
    so that no pair sum overflows; a value outside is refused, naming its
    node.
    """
    values = f.values
    if not max(values.max(), -values.min()) < _PAIR_SUM_LIMIT:
        f._require_finite()
        node = np.unravel_index(int(np.argmax(np.abs(values) >= _PAIR_SUM_LIMIT)), values.shape)
        raise ValueError(f"grid field value {values[node]} at node {tuple(map(int, node))} "
                         f"is too large to mollify: |value| must be below 2^1023")
    if eps < 2.0 * f.spacing:
        raise ValueError("mollification radius must be at least two grid cells")
    m, taps, leads = _bump_groups(f.dims, f.spacing, eps)
    shape = values.shape
    inner_shape = tuple(s - 2 * m for s in shape)
    if any(s < 3 for s in inner_shape):
        raise ValueError("field is too small for the requested mollification margin")
    a_max = max(lead[0] for group in leads.values() for lead in group)
    width, plane = shape[-1], math.prod(shape[1:])
    cols = slice(m, width - m)
    planes = -(-inner_shape[0] // radial._workers())
    # Chunks of twice the slab bytes of the other kernels: fewer, longer numpy
    # calls hand the GIL between the workers less often (on a 2-CPU Xeon
    # virtual machine a 128^3 field took 55 ms in 4-plane chunks, 68 ms in
    # 2-plane chunks).  The 2m + 2 buffers of a slab hold no more planes
    # than its output.
    chunk = max(1, min(2 * radial._slab_planes(shape[1:]), planes // (2 * m + 2)))
    out = np.zeros(inner_shape)

    def slab(i0, i1):
        # Pair sums and lines run over whole flattened rows: their first and
        # last m columns mix neighbouring rows and are never read.
        pairs = np.zeros((m, chunk * plane))
        line, tmp = np.empty((2, chunk * plane))
        discs = np.empty((a_max + 1, chunk) + inner_shape[1:-1] + (width,))
        for p0 in range(i0 + m - a_max, i1 + m + a_max, chunk):
            p1 = min(p0 + chunk, i1 + m + a_max)
            size = (p1 - p0) * plane
            v = values[p0:p1].reshape(-1)
            for k in range(1, m + 1):
                np.add(v[m + k:size - m + k], v[m - k:size - m - k], out=pairs[k - 1, m:size - m])
            rows = line[:size].reshape((p1 - p0,) + shape[1:])
            started = set()
            for q, weights in taps.items():
                np.multiply(v, weights[0], out=line[:size])
                for k, w in enumerate(weights[1:]):
                    line[:size] += np.multiply(pairs[k, :size], w, out=tmp[:size])
                for lead in leads[q]:
                    part = rows[(slice(None),) + tuple(
                        slice(m + o, s - m + o) for o, s in zip(lead[1:], shape[1:-1]))]
                    disc = discs[lead[0], :p1 - p0]
                    if lead[0] in started:
                        disc += part
                    else:
                        np.copyto(disc, part)
                        started.add(lead[0])
            for o0 in range(-a_max, a_max + 1):
                lo, hi = max(p0, i0 + m + o0), min(p1, i1 + m + o0)
                if lo < hi:
                    out[lo - m - o0:hi - m - o0] += discs[abs(o0), lo - p0:hi - p0, ..., cols]

    radial._over_slabs(inner_shape[0], planes, slab)
    return GridField(f.spacing, out, f.origin + m * f.spacing)


def _kink_mask(diff: np.ndarray, cells: int) -> np.ndarray:
    """Nodes within a Chebyshev distance `cells` of a sign change of diff."""
    contact = np.zeros(diff.shape, dtype=bool)
    for axis in range(diff.ndim):
        lo = [slice(None)] * diff.ndim
        hi = [slice(None)] * diff.ndim
        lo[axis] = slice(None, -1)
        hi[axis] = slice(1, None)
        cross = diff[tuple(lo)] * diff[tuple(hi)] <= 0.0
        contact[tuple(lo)] |= cross
        contact[tuple(hi)] |= cross
    for _ in range(cells):
        grown = contact.copy()
        for axis in range(diff.ndim):
            lo = [slice(None)] * diff.ndim
            hi = [slice(None)] * diff.ndim
            lo[axis] = slice(None, -1)
            hi[axis] = slice(1, None)
            grown[tuple(lo)] |= contact[tuple(hi)]
            grown[tuple(hi)] |= contact[tuple(lo)]
        contact = grown
    return contact


def pointwise_max_fields(f: GridField, g: GridField, kink_cells: int = 3):
    """Nodewise maximum of two fields plus the mask of contact-set neighborhoods.

    Derivative-based admissibility checks are only meaningful away from the
    contact set, so the mask marks nodes within `kink_cells` grid cells of a
    sign change of f - g.
    """
    if f.values.shape != g.values.shape or f.spacing != g.spacing:
        raise ValueError("fields must share grid shape and spacing")
    values = np.maximum(f.values, g.values)
    mask = _kink_mask(f.values - g.values, kink_cells)
    return GridField(f.spacing, values, f.origin), mask


# ---------------------------------------------------------------------------
# u-gauge admissibility of grid fields (flat background)
# ---------------------------------------------------------------------------

def _gradient(v: np.ndarray, h: float):
    """Central differences of v at its interior nodes, one array per axis."""
    d = v.ndim
    grads = []
    for axis in range(d):
        up = [slice(1, -1)] * d
        dn = [slice(1, -1)] * d
        up[axis] = slice(2, None)
        dn[axis] = slice(None, -2)
        grads.append((v[tuple(up)] - v[tuple(dn)]) / (2 * h))
    return grads


def _hessian(v: np.ndarray, h: float):
    """Central-difference Hessian entries of v at its interior nodes."""
    d = v.ndim
    H = {}
    for i in range(d):
        up = [slice(1, -1)] * d
        dn = [slice(1, -1)] * d
        mid = tuple(slice(1, -1) for _ in range(d))
        up[i] = slice(2, None)
        dn[i] = slice(None, -2)
        H[(i, i)] = (v[tuple(up)] - 2 * v[mid] + v[tuple(dn)]) / h**2
    for i in range(d):
        for j in range(i + 1, d):
            pp = [slice(1, -1)] * d
            pm = [slice(1, -1)] * d
            mp = [slice(1, -1)] * d
            mm = [slice(1, -1)] * d
            pp[i] = slice(2, None); pp[j] = slice(2, None)
            pm[i] = slice(2, None); pm[j] = slice(None, -2)
            mp[i] = slice(None, -2); mp[j] = slice(2, None)
            mm[i] = slice(None, -2); mm[j] = slice(None, -2)
            H[(i, j)] = (v[tuple(pp)] - v[tuple(pm)] - v[tuple(mp)] + v[tuple(mm)]) / (4 * h**2)
    return H


def _u_sigma_slab(v: np.ndarray, h: float, k: int):
    """sigma_1..sigma_k of the u-gauge matrix at the interior nodes of v.

    v is a slab of the field with a one-plane halo on each side of every
    axis, so the result covers the slab's own planes.
    """
    d = v.ndim
    u = v[(slice(1, -1),) * d]
    # The gradient is needed only for the shift, so it is gone before the
    # Hessian is formed, and the diagonal entries turn into M's in place.
    shift = sum(g * g for g in _gradient(v, h)) / (2.0 * u)
    H = _hessian(v, h)
    diag = [H[(i, i)] for i in range(d)]
    for entry in diag:
        entry -= shift
    del shift
    sigmas = [sum(diag)]
    if k >= 2:
        sigmas.append(sum(diag[i] * diag[j] - H[(i, j)] ** 2
                          for i, j in itertools.combinations(range(d), 2)))
    if k == 3:
        (a, b, c), (x, y, z) = diag, (H[(0, 1)], H[(0, 2)], H[(1, 2)])
        sigmas.append(a * (b * c - z * z) - x * (x * c - z * y) + y * (x * z - b * y))
    return sigmas


def _u_field_interior(f: GridField, cone: ConeParams):
    """Check f for the u-gauge kernels; returns the interior slice and shape."""
    f._require_finite()
    if f.dims != cone.n:
        raise ValueError("u-gauge check needs field dimension equal to cone.n")
    inner = tuple(slice(1, -1) for _ in range(f.dims))
    u = f.values[inner]
    if np.any(u <= 0.0):
        raise ValueError("u-gauge field must be positive")
    return inner, u.shape


def _over_sigma_slabs(f: GridField, k: int, shape, store) -> None:
    """Call store(i0, i1, [sigma_1..sigma_k]) on each slab [i0, i1) of the
    interior planes, in the worker threads of radial._over_slabs."""
    values, h = f.values, f.spacing
    radial._over_slabs(shape[0], radial._slab_planes(shape[1:]),
                       lambda i0, i1: store(i0, i1, _u_sigma_slab(values[i0:i1 + 2], h, k)))


def u_field_sigma(f: GridField, cone: ConeParams):
    """sigma_1..sigma_k of the u-gauge matrix M = D^2 u - |Du|^2/(2u) I, flat g0.

    Requires field dimension equal to cone.n.  Returns (list of sigma arrays,
    interior slice) with finite-difference derivatives at interior nodes.
    The sigma_j come straight from the entries of M (diagonal H_ii -
    |Du|^2/(2u), off-diagonal H_ij): sigma_1 is the trace, sigma_2 the sum of
    the 2x2 principal minors and sigma_3 the determinant; M is never stacked
    into one array.  Grid fields have at most 3 dimensions and cone.n >= 3,
    so d = 3 and k <= 3.

    The sigma_j are computed in cache-sized slabs along axis 0, shared among
    one thread per usable CPU, and written into preallocated output arrays;
    every value is the same as from whole-array differences.
    """
    inner, shape = _u_field_interior(f, cone)
    sigmas = [np.empty(shape) for _ in range(cone.k)]

    def store(i0, i1, part):
        for dst, src in zip(sigmas, part):
            dst[i0:i1] = src

    _over_sigma_slabs(f, cone.k, shape, store)
    return sigmas, inner


def u_field_admissible_mask(f: GridField, cone: ConeParams, margin: float = 0.0,
                            strict: bool = False):
    """Per-interior-node cone membership of a flat u-gauge field.

    A node is in the cone when every sigma_j > margin (strict) or
    sigma_j >= -margin.  The mask is written slab by slab, in the slabs and
    threads of u_field_sigma, so no full-size sigma array is ever held.
    """
    inner, shape = _u_field_interior(f, cone)
    ok = np.empty(shape, dtype=bool)

    def store(i0, i1, part):
        dst = ok[i0:i1]
        dst[...] = True
        for s in part:
            dst &= s > margin if strict else s >= -margin

    _over_sigma_slabs(f, cone.k, shape, store)
    return ok, inner


# ---------------------------------------------------------------------------
# Harnack ratio
# ---------------------------------------------------------------------------

@dataclass
class HarnackEstimate:
    c_est: float
    pair: tuple
    alpha: float
    pairs_scored: int = 0


_LEAF = 8             # nodes per leaf block of the Harnack search
_BATCH = 1 << 18      # pair ratios evaluated per batch of leaf blocks
_SLACK = 1.0 + 1e-9   # covers the few ulps by which pow may break monotonicity


def _pair_ratios(xa, xb, fa, fb, alpha: float, sep: float) -> np.ndarray:
    """|fa - fb| / |xa - xb|^alpha, -inf where |xa - xb| <= sep (broadcasting)."""
    diff = xa - xb
    dist = np.sqrt((diff**2).sum(axis=-1))
    num = np.abs(fa - fb)
    mask = dist > sep
    return np.where(mask, num / np.where(mask, dist, 1.0) ** alpha, -np.inf)


def _leaf_blocks(coords: np.ndarray):
    """Leaf blocks of a balanced tree of median splits along the widest axis.

    Every level splits each segment of nodes at its middle position, until no
    leaf holds more than _LEAF nodes; leaf j of depth D belongs to node
    j >> (D - t) of depth t.  Returns the node indices of each leaf as an
    (L, S) array, the leaf sizes and D.  Short leaves repeat their first
    node: the repeats add only copies of existing pairs, so neither the
    maximum nor its pair changes.
    """
    m = len(coords)
    depth = math.ceil(math.log2(m / _LEAF)) if m > _LEAF else 0
    order = np.arange(m)
    edges = np.array([0, m])
    for _ in range(depth):
        sizes = np.diff(edges)
        pts = coords[order]
        spread = np.maximum.reduceat(pts, edges[:-1]) - np.minimum.reduceat(pts, edges[:-1])
        seg = np.repeat(np.arange(len(sizes)), sizes)
        key = pts[np.arange(m), np.argmax(spread, axis=1)[seg]]
        order = order[np.lexsort((key, seg))]
        split = np.empty(2 * len(edges) - 1, dtype=int)
        split[0::2] = edges
        split[1::2] = edges[:-1] + sizes // 2
        edges = split
    sizes = np.diff(edges)
    slot = np.arange(sizes.max())
    return order[edges[:-1, None] + np.where(slot < sizes[:, None], slot, 0)], sizes, depth


class _Blocks(NamedTuple):
    """Tree nodes of one level: bounding boxes, log chi ranges, smallest node
    index, and the nodes of largest and smallest log chi."""

    lo: np.ndarray
    hi: np.ndarray
    fmin: np.ndarray
    fmax: np.ndarray
    first: np.ndarray
    imax: np.ndarray
    imin: np.ndarray

    def parents(self) -> "_Blocks":
        a, b = _Blocks(*(v[0::2] for v in self)), _Blocks(*(v[1::2] for v in self))
        return _Blocks(np.minimum(a.lo, b.lo), np.maximum(a.hi, b.hi),
                       np.minimum(a.fmin, b.fmin), np.maximum(a.fmax, b.fmax),
                       np.minimum(a.first, b.first), np.where(a.fmax >= b.fmax, a.imax, b.imax),
                       np.where(a.fmin <= b.fmin, a.imin, b.imin))

    def bounds(self, a, b, alpha: float, sep: float) -> np.ndarray:
        """Upper bound on every ratio between the nodes of blocks a and b.

        The numerator is bounded by the log chi ranges, the distance from
        below by the box gap (or sep) when alpha > 0 and from above by the
        farthest box corners otherwise.  Each step is monotone in rounded
        arithmetic, and _SLACK absorbs the rounding of the power.
        """
        num = np.maximum(self.fmax[a] - self.fmin[b], self.fmax[b] - self.fmin[a])
        if alpha > 0.0:
            gap = np.maximum(np.maximum(self.lo[a] - self.hi[b], self.lo[b] - self.hi[a]), 0.0)
            den = np.maximum(np.sqrt((gap**2).sum(axis=-1)), sep)
        else:
            far = np.maximum(self.hi[a] - self.lo[b], self.hi[b] - self.lo[a])
            den = np.sqrt((far**2).sum(axis=-1))
        bound = np.full(num.shape, np.inf)
        pos = den > 0.0
        bound[pos] = num[pos] / den[pos] ** alpha * _SLACK
        bound[num == 0.0] = 0.0
        return bound


class _Best:
    """Largest ratio so far and its pair (i < j), the smallest (i, j) among ties."""

    def __init__(self):
        self.value, self.pair = -np.inf, (0, 0)

    def offer(self, ratios, i, j):
        top = ratios.max(initial=-np.inf)
        if top == -np.inf or top < self.value:
            return
        hit = ratios == top
        i, j = np.broadcast_to(i, hit.shape)[hit], np.broadcast_to(j, hit.shape)[hit]
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        first = int(lo.min())
        pair = (first, int(hi[lo == first].min()))
        if top > self.value or pair < self.pair:
            self.value, self.pair = float(top), pair

    def may_hold(self, bound, first):
        """Block pairs that can still raise the maximum or win its tie-break."""
        return (bound > self.value) | ((bound == self.value) & (first <= self.pair[0]))


def harnack_ratio(coords, chi, cone: ConeParams, min_sep: float = 0.0) -> HarnackEstimate:
    """Empirical Harnack constant sup over pairs of log(chi(x)/chi(y)) / |x-y|^alpha.

    alpha = 2 - n/k.  Pairs closer than min_sep are skipped (short distances
    amplify finite-difference noise through the sublinear exponent).  The
    estimate is invariant under global scaling chi -> c * chi.  Among pairs
    attaining the maximum, pair is the one with the smallest first index,
    then the smallest second index.

    The search is exact and pruned, a dual-tree branch and bound in the
    manner of Gray & Moore (NIPS 2000).  Recursive median splits along the
    widest axis cut the nodes into leaf blocks; every tree node carries its
    bounding box and its range of log chi.  Block pairs are refined level by
    level and dropped once their bound, range / max(box gap, min_sep)^alpha,
    falls below the best ratio found so far, which the extreme nodes of each
    block pair keep up to date.  The surviving leaf block pairs are scored in
    decreasing bound order with the all-pairs expression, so c_est and pair
    are those of a scan over all m^2 pairs.  pairs_scored counts the
    unordered pairs of the scored leaf blocks, out of m(m-1)/2.
    """
    coords = np.asarray(coords, dtype=float)
    chi = np.asarray(chi, dtype=float)
    if coords.ndim == 1:
        coords = coords[:, None]
    if coords.ndim != 2 or chi.ndim != 1 or len(coords) != len(chi):
        raise ValueError(f"coords and chi must describe the same nodes: coords has shape "
                         f"{coords.shape}, chi has shape {chi.shape}")
    if not np.all(np.isfinite(chi)):
        raise ValueError("chi must be finite")
    if not np.all(np.isfinite(coords)):
        raise ValueError("coords must be finite")
    if np.any(chi <= 0.0):
        raise ValueError("chi must be positive")
    if math.isnan(min_sep):
        raise ValueError("min_sep must not be NaN")
    alpha = cone.alpha
    best = _Best()
    if len(chi) == 0:
        return HarnackEstimate(best.value, best.pair, alpha)
    logchi = np.log(chi)
    sep = max(min_sep, 0.0)
    idx, sizes, depth = _leaf_blocks(coords)
    x, f = coords[idx], logchi[idx]
    rows = np.arange(len(idx))
    levels = [_Blocks(x.min(axis=1), x.max(axis=1), f.min(axis=1), f.max(axis=1), idx.min(axis=1),
                      idx[rows, f.argmax(axis=1)], idx[rows, f.argmin(axis=1)])]
    for _ in range(depth):
        levels.append(levels[-1].parents())
    a = b = np.zeros(1, dtype=int)
    for t, blocks in enumerate(reversed(levels)):
        if t:
            ca = (2 * a[:, None] + [0, 0, 1, 1]).ravel()
            cb = (2 * b[:, None] + [0, 1, 0, 1]).ravel()
            a, b = ca[ca <= cb], cb[ca <= cb]
        for u, v in ((blocks.imax[a], blocks.imin[b]), (blocks.imax[b], blocks.imin[a])):
            best.offer(_pair_ratios(coords[u], coords[v], logchi[u], logchi[v], alpha, sep), u, v)
        bound = blocks.bounds(a, b, alpha, sep)
        keep = best.may_hold(bound, np.minimum(blocks.first[a], blocks.first[b]))
        a, b, bound = a[keep], b[keep], bound[keep]
    rank = np.argsort(-bound, kind="stable")
    a, b, bound = a[rank], b[rank], bound[rank]
    first = np.minimum(levels[0].first[a], levels[0].first[b])
    step = max(1, _BATCH // idx.shape[1] ** 2)
    scored = 0
    for start in range(0, len(a), step):
        if bound[start] < best.value:
            break
        part = slice(start, start + step)
        keep = best.may_hold(bound[part], first[part])
        pa, pb = a[part][keep], b[part][keep]
        best.offer(_pair_ratios(x[pa][:, :, None, :], x[pb][:, None, :, :],
                                f[pa][:, :, None], f[pb][:, None, :], alpha, sep),
                   idx[pa][:, :, None], idx[pb][:, None, :])
        na, nb = sizes[pa], sizes[pb]
        scored += int(np.where(pa == pb, na * (na - 1) // 2, na * nb).sum())
    return HarnackEstimate(best.value, best.pair, alpha, scored)


def harnack_from_w_profile(p: RadialProfile, min_sep: float = 0.0) -> HarnackEstimate:
    """Harnack estimate of the conformal factor chi = e^{-2w} of a radial profile.

    The estimate is invariant under chi -> c chi, so w is centred on its
    midrange first; a w that spans more than 708 raises ValueError.
    """
    span = float(np.ptp(p.w))
    if not span <= 708.0:
        raise ValueError(f"w spans {span:.6g}, more than 708: chi = e^(-2w) overflows a float")
    return harnack_ratio(p.r, np.exp(-2.0 * (p.w - (p.w.min() + 0.5 * span))), p.cone, min_sep)


def harnack_from_field(f: GridField, cone: ConeParams) -> HarnackEstimate:
    """Harnack estimate of a positive chi-gauge grid field.

    Pairs closer than two grid cells are skipped: the sublinear exponent
    amplifies finite-difference-scale noise at short distances.
    """
    f._require_finite()
    return harnack_ratio(f.node_coordinates(), f.values.ravel(), cone, 2.0 * f.spacing)


# ---------------------------------------------------------------------------
# Volume ratio diagnostics
# ---------------------------------------------------------------------------

def sphere_area(n: int) -> float:
    """Area omega_n of the unit sphere S^{n-1}."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass
class VolumeCurve:
    r: np.ndarray              # geodesic radii
    Q: np.ndarray              # Vol / r^n
    omega_n: float
    n: int


def _w_callable(w):
    if callable(w):
        return w
    if isinstance(w, RadialProfile):
        from scipy import interpolate
        interp = interpolate.PchipInterpolator(w.r, w.w, extrapolate=True)
        return lambda t: interp(t)
    raise TypeError("w must be a callable or a RadialProfile")


_EPS = float(np.finfo(float).eps)
# A geodesic-radius root stops on a Newton step within this many ulps of rho
# (8.9e-16 relative).
_ROOT_ULPS = 4.0
_END_TAIL_FRAC = 0.25
_END_SLOPE_TOL = 0.05


def _quad(fn, a: float, b: float) -> float:
    from scipy import integrate
    with warnings.catch_warnings():
        # divergence is reported through the accuracy check below
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(fn, a, b, limit=400, epsabs=1e-13, epsrel=1e-11)
    if not np.isfinite(val) or err > max(1e-8 * abs(val), 1e-9):
        raise ValueError(f"quadrature did not converge on [{a:.3g}, {b:.3g}]")
    return val


def volume_ratio(w, n: int, s_values, mode: str = "origin",
                 rho_ref: float = 1.0) -> VolumeCurve:
    """Volume ratio curve Q(s) = Vol(B_s) / s^n of the metric e^{-2w} g_e.

    mode "origin": balls centered at a regular origin, s(rho) and Vol(rho)
    integrated from 0 (a non-integrable length density at the center raises).
    mode "end": annulus-anchored curve for a metric with a singular center,
    measuring geodesic radius and volume inward from the reference sphere
    rho_ref; each fundamental-type end contributes omega_n / n in the limit.

    The curve is one sweep over the sorted radii: the Euclidean radius
    rho_i of s_i is found starting from rho_{i-1}, whose length integral
    S = s(rho) and volume carry over.  The bracket of rho_i doubles outward
    ("origin") or halves inward ("end") from rho_{i-1}, and each evaluation
    of S integrates only the segment from the nearest point whose S is
    known.  The root is a safeguarded Newton iteration on S(rho) = s_i with
    the exact derivative dS/drho = +-e^{-w(rho)}: a step that leaves the
    bracket, or is more than half the step before it, is replaced by
    bisection, which also carries it across a kink of w.  It stops on a
    step within 4 ulps of rho.  The volume adds the integral of the volume
    density over [rho_{i-1}, rho_i].  A Q that is not finite raises.

    Cost grows linearly with the number of radii: 25 radii on the
    fundamental end take about 3 800 evaluations of w.
    """
    wf = _w_callable(w)
    omega = sphere_area(n)
    s_values = np.asarray(s_values, dtype=float)
    if np.any(s_values <= 0.0) or np.any(np.diff(s_values) <= 0.0):
        raise ValueError("geodesic radii must be positive and increasing")
    length = lambda t: math.exp(-wf(t))
    volden = lambda t: omega * math.exp(-n * wf(t)) * t ** (n - 1)

    if mode == "origin":
        # The length density is positive: a probe integral that is not
        # positive and finite, or does not converge, diverges at the center.
        try:
            probe = _quad(length, 0.0, min(1e-3, 0.1 * rho_ref))
        except (ValueError, OverflowError) as exc:
            raise ValueError("length density is not integrable at the center") from exc
        if not 0.0 < probe < math.inf:
            raise ValueError("length density is not integrable at the center")
        outward, rho = 1.0, 0.0
    elif mode == "end":
        outward, rho = -1.0, float(rho_ref)
    else:
        raise ValueError("mode must be 'origin' or 'end'")

    def integral(fn, x, y):
        """Integral of fn over the segment from x to y, positive when y lies
        beyond x in the marching direction."""
        part = _quad(fn, min(x, y), max(x, y))
        return part if (y - x) * outward > 0.0 else -part

    Q = np.empty(len(s_values))
    S = V = 0.0
    try:
        for idx, s in enumerate(s_values):
            # Bracket: `a` has S(a) < s, `b` has S(b) >= s.
            a, Sa = rho, S
            if outward > 0.0:
                b = 2.0 * rho if rho > 0.0 else max(2.0 * s, 1e-3)
            else:
                b = 0.5 * rho
            while True:
                Sb = Sa + integral(length, a, b)
                if Sb >= s:
                    break
                a, Sa = b, Sb
                if outward > 0.0:
                    b *= 2.0
                    if b > 1e12:
                        raise ValueError("geodesic radius unreachable; metric compactifies")
                else:
                    b *= 0.5
                    if b < 1e-300:
                        raise ValueError("geodesic radius unreachable from the reference sphere")
            # Start from the end closer to s; never from the center itself.
            x, Sx = (b, Sb) if a == 0.0 or Sb - s < s - Sa else (a, Sa)
            last = abs(b - a)
            while True:
                slope = outward * length(x)
                dx = (s - Sx) / slope if 0.0 < abs(slope) < math.inf else math.nan
                tol = _ROOT_ULPS * _EPS * abs(x)
                lo, hi = min(a, b), max(a, b)
                if not (abs(dx) <= tol or lo < x + dx < hi and abs(2.0 * dx) <= last):
                    dx = 0.5 * (lo + hi) - x
                if abs(dx) <= tol:
                    break
                last = abs(dx)
                x += dx
                # Integrate from the nearer end of the bracket, so that the
                # error of a segment across a kink of w does not carry over.
                near, S_near = (a, Sa) if abs(x - a) <= abs(x - b) else (b, Sb)
                Sx = S_near + integral(length, near, x)
                if Sx < s:
                    a, Sa = x, Sx
                else:
                    b, Sb = x, Sx
            V += integral(volden, rho, x)
            rho, S = x, Sx
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                Q[idx] = V / s**n
            if not np.isfinite(Q[idx]):
                raise ValueError(f"volume ratio is not finite at s = {s:.6g}")
            if Q[idx] == 0.0:
                raise ValueError(f"volume ratio underflows to 0 at s = {s:.6g}")
    except OverflowError as exc:
        raise ValueError(f"volume ratio overflows at s = {s:.6g}") from exc
    return VolumeCurve(s_values, Q, omega, n)


def annulus_volume(w, r1: float, r2: float, n: int) -> float:
    """Volume of the annulus r1 < |x| < r2 in the metric e^{-2w} g_e."""
    if not 0.0 < r1 < r2:
        raise ValueError("need 0 < r1 < r2")
    wf = _w_callable(w)
    omega = sphere_area(n)
    return _quad(lambda t: omega * math.exp(-n * wf(t)) * t ** (n - 1), r1, r2)


@dataclass
class EndCountResult:
    m: int
    ratio: float               # n Q(r_max) / omega_n before rounding
    status: str                # "converged" or "inconclusive"


def end_count(curve: VolumeCurve) -> EndCountResult:
    """Estimate the number of singular ends from the tail of a volume curve.

    Rounds n Q(r_max) / omega_n to the nearest integer; if Q still varies by
    more than _END_SLOPE_TOL (relatively) over the trailing _END_TAIL_FRAC of
    the curve, the result is flagged inconclusive.
    """
    ratio = curve.n * float(curve.Q[-1]) / curve.omega_n
    m = int(round(ratio))
    tail = curve.Q[curve.r >= (1.0 - _END_TAIL_FRAC) * curve.r[-1]]
    variation = float(np.ptp(tail) / max(abs(curve.Q[-1]), 1e-300))
    status = "converged" if variation <= _END_SLOPE_TOL else "inconclusive"
    return EndCountResult(m, ratio, status)


def fit_volume_expansion(curve: VolumeCurve):
    """Fit Q(s) = q0 (1 + c2 s^2 + c4 s^4); returns (q0, c2).

    For a metric with scalar curvature R at the center the quadratic
    coefficient is -R / (6 (n + 2)).
    """
    s = curve.r
    A = np.stack([np.ones_like(s), s**2, s**4], axis=1)
    beta, *_ = np.linalg.lstsq(A, curve.Q, rcond=None)
    q0 = float(beta[0])
    return q0, float(beta[1] / q0)
