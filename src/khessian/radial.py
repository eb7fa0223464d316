"""Radial reduction of the conformal k-Hessian operator.

For a radial factor w(r) the curvature matrix is diagonal with eigenvalue
b = w'/r - w'^2/2 of multiplicity n-1 and a = w'' + w'^2/2 in the radial
direction, so

    sigma_k = C(n-1, k) b^k + C(n-1, k-1) a b^{k-1}.

In the supercritical range k > n/2 membership of (b, ..., b, a) in the closed
cone is equivalent to b >= 0 together with a + theta b >= 0, theta = (n-k)/k,
because (n-j)/j decreases in j.  This module also hosts the sublevel-set
radial envelope and the singularity classifier (fundamental 2 log r + C
versus Holder with exponent 2 - n/k).
"""

from __future__ import annotations

import contextlib
import contextvars
import io
import itertools
import math
import os
import warnings
import zipfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .symfunc import ConeParams

__all__ = [
    "RadialProfile",
    "RadialAB",
    "GridField",
    "EnvelopeProfile",
    "SingularityReport",
    "ab_reduce",
    "sigma_k_radial",
    "radial_admissible",
    "check_rw_monotone",
    "classify_singularity",
    "radial_envelope",
    "envelope_viscosity_check",
    "quadratic_fit_derivatives",
    "geometric_grid",
    "write_csv",
    "save_profile_csv",
    "load_profile_csv",
]

# Multiplier c_fd of the finite-difference inequality tolerances tau = c_fd * h.
DEFAULT_C_FD = 10.0
# Profiles whose extrapolated lim r w' is at least 2 - _EPS_CLASS are fundamental.
_EPS_CLASS = 0.05


def quadratic_fit_derivatives(x, f):
    """First and second derivatives from the local quadratic through 3 nodes.

    Interior nodes use the centered window, endpoints the one-sided window;
    this reproduces standard central differences on uniform grids and stays
    second order (first derivative) on smoothly graded ones.  Derivatives
    that overflow a float raise ValueError.
    """
    x = np.asarray(x, dtype=float)
    f = np.asarray(f, dtype=float)
    m = len(x)
    if m < 3:
        raise ValueError("need at least 3 nodes for finite differences")
    idx = np.clip(np.arange(m), 1, m - 2)
    x0, x1, x2 = x[idx - 1], x[idx], x[idx + 1]
    f0, f1, f2 = f[idx - 1], f[idx], f[idx + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        c0 = 1.0 / ((x0 - x1) * (x0 - x2))
        c1 = 1.0 / ((x1 - x0) * (x1 - x2))
        c2 = 1.0 / ((x2 - x0) * (x2 - x1))
        d1 = f0 * c0 * (2 * x - x1 - x2) + f1 * c1 * (2 * x - x0 - x2) + f2 * c2 * (2 * x - x0 - x1)
        d2 = 2.0 * (f0 * c0 + f1 * c1 + f2 * c2)
    if not (np.isfinite(d1).all() and np.isfinite(d2).all()):
        raise ValueError("finite-difference derivatives overflow a float")
    return d1, d2


def _local_spacing(r) -> np.ndarray:
    """Per-node spacing: the longer adjacent cell, the one cell at either end."""
    h = np.diff(r)
    return np.r_[h[0], np.maximum(h[:-1], h[1:]), h[-1]]


def geometric_grid(r_max: float, r_min: float, q: float = 0.8) -> np.ndarray:
    """Geometric grid r_max * q^i down to r_min, returned increasing."""
    if not (0 < q < 1 and 0 < r_min < r_max):
        raise ValueError("need 0 < q < 1 and 0 < r_min < r_max")
    count = int(math.floor(math.log(r_min / r_max) / math.log(q))) + 1
    pts = r_max * q ** np.arange(count + 1)
    return np.sort(pts[pts >= r_min * (1 - 1e-12)])


@dataclass
class RadialProfile:
    """Sampled radial factor w(r) with derivative data on an increasing grid."""

    r: np.ndarray
    w: np.ndarray
    dw: np.ndarray
    d2w: np.ndarray
    cone: ConeParams
    analytic: bool = False

    @classmethod
    def from_samples(cls, r, w, n: int, k: int, dw=None, d2w=None) -> "RadialProfile":
        r = np.asarray(r, dtype=float)
        w = np.asarray(w, dtype=float)
        if r.ndim != 1 or r.shape != w.shape or len(r) == 0:
            raise ValueError("r and w must be matching non-empty 1-d arrays")
        for name, v in (("r", r), ("w", w), ("dw", dw), ("d2w", d2w)):
            if v is not None and not np.all(np.isfinite(v)):
                raise ValueError(f"profile samples {name} must be finite")
        if r[0] <= 0.0 or np.any(np.diff(r) <= 0.0):
            raise ValueError("grid must be positive and strictly increasing")
        analytic = dw is not None and d2w is not None
        if not analytic:
            if len(r) < 3:
                raise ValueError("finite-difference mode needs at least 3 nodes")
            dw, d2w = quadratic_fit_derivatives(r, w)
        return cls(r, w, np.asarray(dw, dtype=float), np.asarray(d2w, dtype=float),
                   ConeParams(n, k), analytic)

    @classmethod
    def from_callables(cls, r, n: int, k: int, w, dw, d2w) -> "RadialProfile":
        r = np.asarray(r, dtype=float)
        return cls.from_samples(r, w(r), n, k, dw=dw(r), d2w=d2w(r))

    def local_spacing(self) -> np.ndarray:
        return _local_spacing(self.r)


@dataclass
class RadialAB:
    """Radial eigenvalue pair: a = w'' + w'^2/2, b = w'/r - w'^2/2."""

    a: np.ndarray
    b: np.ndarray


def ab_reduce(p: RadialProfile) -> RadialAB:
    a = p.d2w + 0.5 * p.dw**2
    b = p.dw / p.r - 0.5 * p.dw**2
    return RadialAB(a, b)


def sigma_k_radial(ab: RadialAB, cone: ConeParams) -> np.ndarray:
    """sigma_k of the radial spectrum (b, ..., b, a)."""
    n, k = cone.n, cone.k
    bk = ab.b ** (k - 1)
    return math.comb(n - 1, k) * bk * ab.b + math.comb(n - 1, k - 1) * ab.a * bk


def radial_admissible(ab: RadialAB, cone: ConeParams, strict: bool = False,
                      tol=0.0) -> np.ndarray:
    """Per-node cone membership of the radial spectrum (supercritical range
    only): b and a + theta b above tol (strict) or at least -tol (closed).
    tol is a number or one slack per node."""
    cone.require_supercritical()
    combo = ab.a + cone.theta * ab.b
    if strict:
        return (ab.b > tol) & (combo > tol)
    return (ab.b >= -tol) & (combo >= -tol)


def check_rw_monotone(p: RadialProfile) -> bool:
    """Whether 0 <= r w' <= 2 and r w' is non-decreasing, up to the FD tolerance."""
    rw = p.r * p.dw
    tol = 0.0 if p.analytic else DEFAULT_C_FD * float(p.local_spacing().max())
    tol = max(tol, 1e-12 * max(1.0, float(np.abs(rw).max())))
    return bool(rw.min() >= -tol and rw.max() <= 2.0 + tol and (np.diff(rw) >= -tol).all())


@dataclass
class SingularityReport:
    klass: str                      # "fundamental" or "holder"
    C: float | None
    alpha_est: float | None
    saturated: bool
    diagnostics: dict


def _fd_cone_slack(r, dw, h) -> np.ndarray:
    """Finite-difference slack for discrete cone checks.

    Models first-derivative noise (h s^2) plus the second-derivative noise of
    graded grids near singular centers (h^2 s^4), with the slope scale s
    capped at the admissible ceiling 2/r so inadmissible steepness cannot
    inflate its own tolerance.
    """
    s = np.maximum(1.0, np.minimum(np.abs(dw), 2.0 / r))
    return DEFAULT_C_FD * (h * s**2 + h**2 * s**4)


def _admissibility_tolerances(p: RadialProfile) -> np.ndarray:
    """Per-node slack for cone checks; analytic derivatives get a rounding floor."""
    if p.analytic:
        return 1e-11 * np.maximum(1.0, p.dw**2 + np.abs(p.d2w))
    return _fd_cone_slack(p.r, p.dw, p.local_spacing())


def classify_singularity(p: RadialProfile) -> SingularityReport:
    """Classify an admissible radial profile near r -> 0.

    The extrapolated limit of r w' decides the dichotomy: >= 2 - _EPS_CLASS
    means the fundamental singularity w = 2 log r + C (offset fitted from the
    innermost nodes); anything smaller is the Holder branch, whose exponent
    estimate 1 + slope comes from a log-log fit of w'.
    """
    if len(p.r) < 3:
        raise ValueError(f"classification needs at least 3 nodes, got {len(p.r)}")
    # An a or b that overflows is not finite, which fails the cone test.
    with np.errstate(over="ignore", invalid="ignore"):
        ab = ab_reduce(p)
        tol = _admissibility_tolerances(p)
        if not radial_admissible(ab, p.cone, tol=tol).all():
            combo = ab.a + p.cone.theta * ab.b
            worst = int(np.argmin(np.minimum(ab.b + tol, combo + tol)))
            raise ValueError(
                "profile is not admissible near r={:.3e}: b={:.3e}, a+theta*b={:.3e}".format(
                    p.r[worst], ab.b[worst], combo[worst])
            )

    rw = p.r * p.dw
    s0, s1, s2 = rw[2], rw[1], rw[0]       # decreasing radius order
    denom = s2 - 2.0 * s1 + s0
    if abs(denom) > 1e-12 * max(1.0, abs(s2)):
        limit = s2 - (s2 - s1) ** 2 / denom     # Aitken extrapolation
    else:
        limit = s2
    diagnostics = {"rw_limit": float(limit), "rw_inner": [float(s2), float(s1), float(s0)]}

    if limit >= 2.0 - _EPS_CLASS:
        offsets = p.w[:3] - 2.0 * np.log(p.r[:3])
        C = float(np.mean(offsets))
        diagnostics["offset_spread"] = float(np.ptp(offsets))
        return SingularityReport("fundamental", C, None, False, diagnostics)

    # Holder branch: fit log w' ~ log c - theta_hat log r on the usable nodes.
    mask = p.dw > 1e-13 * max(1.0, float(np.abs(p.w).max()))
    if mask.sum() < 3:
        diagnostics["fit_nodes"] = int(mask.sum())
        return SingularityReport("holder", None, 1.0, True, diagnostics)
    x = np.log(p.r[mask])
    y = np.log(p.dw[mask])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    alpha = 1.0 + float(slope)
    saturated = alpha >= 1.0
    alpha = min(alpha, 1.0)
    diagnostics.update(fit_slope=float(slope), fit_intercept=float(intercept),
                       fit_residual=resid, fit_nodes=int(mask.sum()))
    return SingularityReport("holder", None, alpha, saturated, diagnostics)


# ---------------------------------------------------------------------------
# Cartesian grid fields and the radial envelope
# ---------------------------------------------------------------------------

def _workers() -> int:
    """Threads for the grid kernels: one per CPU this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no sched_getaffinity outside Linux
        return os.cpu_count() or 1


def _pin_each_worker():
    """Thread initializer that gives each new worker a usable CPU of its own.

    Without it Linux may start every worker on the caller's CPU and leave
    them there while another CPU idles: on a 2-CPU virtual machine both
    workers of a 128^3 mollify shared one CPU for the whole 0.3 s call.
    """
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except AttributeError:      # no CPU affinity outside Linux
        return None
    slot = itertools.count()

    def pin():
        try:
            os.sched_setaffinity(0, {cpus[next(slot) % len(cpus)]})
        except OSError:         # the placement is only a hint
            pass

    return pin


# Bytes of one float array of a slab in the grid-field kernels: the ten or
# so arrays a u-gauge slab works on then about fill a core's 2 MB L2 cache.
_SLAB_BYTES = 1 << 18


def _slab_planes(plane) -> int:
    """Axis-0 planes per slab for planes of the given shape."""
    return max(1, _SLAB_BYTES // (8 * max(1, math.prod(plane))))


def _over_slabs(count: int, planes: int, work) -> None:
    """Call work(i0, i1) on each axis-0 slab [i0, i1) of range(count), planes
    thick, from one thread per usable CPU, each pinned to a CPU of its own;
    inline with one worker or one slab.  Each call runs in a copy of the
    caller's context, so np.errstate applies in the workers too.  The first
    exception in slab order reaches the caller, slabs not yet started are
    dropped, and no thread outlives the call.  work must write disjoint parts
    of any shared output and call no public khessian function: the
    benchmark's tracer wraps the public names and keeps a single span stack."""
    slabs = [(i, min(i + planes, count)) for i in range(0, count, planes)]
    workers = _workers()
    if workers <= 1 or len(slabs) <= 1:
        for slab in slabs:
            work(*slab)
        return
    pool = ThreadPoolExecutor(workers, initializer=_pin_each_worker())
    try:
        for done in [pool.submit(contextvars.copy_context().run, work, *slab) for slab in slabs]:
            done.result()
    finally:
        pool.shutdown(cancel_futures=True)


# The members of a save_raw archive, with the dimensions each may have.
_MEMBERS = {"origin.npy": (1,), "spacing.npy": (0,), "values.npy": (2, 3)}
# What zipfile and np.load raise on a damaged archive: a bad or truncated
# zip structure, an unknown compression method or flag, an encrypted member.
_ARCHIVE_FAULTS = (ValueError, zipfile.BadZipFile, EOFError, OSError, NotImplementedError,
                   RuntimeError)


def _read_archive(fh):
    """(spacing, values, origin) of a save_raw archive, by np.load.  Each
    member's .npy header is checked before its array is read: a real dtype,
    the dimensions of _MEMBERS, and the stored size its shape and dtype
    need, so a header that lies allocates nothing.  Raises ValueError (or
    the zipfile error of a damaged archive) naming the member at fault."""
    with np.load(fh, allow_pickle=False) as npz:
        names = sorted(npz.zip.namelist())
        if names != sorted(_MEMBERS):
            raise ValueError(f"archive members {', '.join(names) or 'none'}, "
                             f"expected {', '.join(_MEMBERS)}")
        for name, ndims in _MEMBERS.items():
            with npz.zip.open(name) as member:
                # np.save writes version 1.0 for every real dtype.
                version = np.lib.format.read_magic(member)
                if version != (1, 0):
                    raise ValueError(f"member {name}: .npy version {version}, expected (1, 0)")
                shape, _, dtype = np.lib.format.read_array_header_1_0(member)
                stored = npz.zip.getinfo(name).file_size - member.tell()
            if not np.can_cast(dtype, float):
                raise ValueError(f"member {name}: dtype {dtype} is not a real number type")
            if len(shape) not in ndims:
                raise ValueError(f"member {name}: shape {shape} has {len(shape)} dimensions, "
                                 f"expected {' or '.join(map(str, ndims))}")
            if min(shape, default=1) < 1:
                raise ValueError(f"member {name}: shape {shape} entries must be positive")
            if math.prod(shape) * dtype.itemsize != stored:
                raise ValueError(f"member {name}: shape {shape} of {dtype} does not fit "
                                 f"its {stored} stored bytes")
        return float(npz["spacing"]), npz["values"], npz["origin"]


def _data_fault(lines):
    """The first value or row of grid data lines that np.loadtxt cannot read,
    or None if Python's float reads them all (rows counted as loadtxt counts
    them: blank and comment lines skipped)."""
    expected = None
    row = 0
    for line in lines:
        words = line.split("#", 1)[0].split()
        if not words:
            continue
        row += 1
        for col, word in enumerate(words, start=1):
            try:
                float(word)
            except ValueError:
                return f"unparsable value {word!r} in data row {row}, column {col}"
        if expected is None:
            expected = len(words)
        elif len(words) != expected:
            return f"data row {row} has {len(words)} values, expected {expected}"
    return None


class _NonFinite(ValueError):
    """A grid field value that is not finite, at flat index `index`."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


@dataclass
class GridField:
    """Scalar samples on a uniform Cartesian box (2 or 3 dimensions)."""

    spacing: float
    values: np.ndarray
    origin: np.ndarray = field(default=None)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim not in (2, 3):
            raise ValueError("grid fields must be 2- or 3-dimensional")
        self._require_finite()
        # Bounded so that node distances and their squares stay normal floats.
        if not 1e-50 <= self.spacing <= 1e50:
            raise ValueError(f"spacing must lie in [1e-50, 1e50], got {self.spacing}")
        if self.origin is None:
            # Center the box on the coordinate origin by default.
            self.origin = -0.5 * self.spacing * (np.array(self.values.shape) - 1.0)
        self.origin = np.asarray(self.origin, dtype=float)
        if self.origin.shape != (self.values.ndim,):
            raise ValueError("origin length must match field dimension")
        if not (np.abs(self.origin) <= 1e50).all():
            raise ValueError("origin must lie in [-1e50, 1e50]")

    def _require_finite(self):
        """Raise ValueError naming the first node whose value is not finite.

        Called at construction and again by the grid-field computations,
        because values may be reassigned after construction.
        """
        finite = np.isfinite(self.values)
        if not finite.all():
            index = int(np.argmin(finite))
            node = np.unravel_index(index, self.values.shape)
            raise _NonFinite(f"grid field value {self.values[node]} at node "
                             f"{tuple(map(int, node))} is not finite", index)

    @property
    def dims(self) -> int:
        return self.values.ndim

    def axes(self):
        return [self.origin[d] + self.spacing * np.arange(s)
                for d, s in enumerate(self.values.shape)]

    def node_coordinates(self) -> np.ndarray:
        """(num_nodes, dims) array of node coordinates, row-major order."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def save_raw(self, path):
        """Write the grid file load_raw reads: an uncompressed np.savez
        archive of values, spacing and origin, under path as given."""
        with open(path, "wb") as fh:
            np.savez(fh, values=self.values, spacing=self.spacing, origin=self.origin)

    @classmethod
    def load_raw(cls, path) -> "GridField":
        """Read a grid file: an archive that save_raw writes, or text.

        A file that begins with the zip magic PK\\x03\\x04 is an archive,
        read by np.load, whose members values, spacing and origin must have
        a real dtype and 2 or 3, 0 and 1 dimensions (see _read_archive).  Any
        other file is text: `dims`, `shape`, `spacing` and optional `origin`
        header lines, then the values in row-major order, read by np.loadtxt.

        Raises ValueError naming the file and the fault: an archive zipfile
        cannot read, a missing or extra member, or a member of another dtype,
        dimension or stored size; a missing or malformed header line, an
        unparsable value or a data row of the wrong length, `dims`
        disagreeing with `shape`, or a value count other than the product of
        `shape`; and a non-finite value (in text, by its 1-based data row and
        column), a spacing, dimension or origin GridField rejects.
        """
        with open(path, "rb") as fh:
            if fh.read(4) == b"PK\x03\x04":
                fh.seek(0)
                try:
                    return cls(*_read_archive(fh))
                except _ARCHIVE_FAULTS as exc:
                    raise ValueError(f"grid file {path}: {exc}") from None
        # Undecodable bytes become U+FFFD, which no number or header word holds.
        with open(path, errors="replace") as fh:
            header = {}
            pos = fh.tell()
            for _ in range(4):
                words = fh.readline().split()
                if words and words[0] in ("dims", "shape", "spacing", "origin"):
                    header[words[0]] = words[1:]
                    pos = fh.tell()
                else:
                    fh.seek(pos)
                    break
            with warnings.catch_warnings():
                # An empty data section is reported below by the value count.
                warnings.simplefilter("ignore", UserWarning)
                try:
                    data = np.loadtxt(fh, ndmin=2)
                except ValueError as exc:
                    fh.seek(pos)
                    raise ValueError(f"grid file {path}: {_data_fault(fh) or exc}") from None
        for key in ("dims", "shape", "spacing"):
            if key not in header:
                raise ValueError(f"grid file {path}: missing header line '{key}'")
        try:
            (dims,) = map(int, header["dims"])
            shape = tuple(map(int, header["shape"]))
            (spacing,) = map(float, header["spacing"])
            origin = np.array(header["origin"], dtype=float) if "origin" in header else None
        except ValueError:
            raise ValueError(f"grid file {path}: malformed header "
                             + "; ".join(" ".join([k, *v]) for k, v in header.items())) from None
        if dims != len(shape):
            raise ValueError(f"grid file {path}: dims {dims} but shape has {len(shape)} entries")
        if min(shape, default=0) < 1:
            raise ValueError(f"grid file {path}: shape entries must be positive")
        if data.size != math.prod(shape):
            raise ValueError(f"grid file {path}: {data.size} values, "
                             f"shape {' '.join(map(str, shape))} needs {math.prod(shape)}")
        try:
            return cls(spacing, data.reshape(shape), origin)
        except _NonFinite as exc:
            # One finiteness scan, at construction; its flat index is the data's.
            row, col = divmod(exc.index, data.shape[1])
            raise ValueError(f"grid file {path}: non-finite value {data[row, col]} "
                             f"in data row {row + 1}, column {col + 1}") from None
        except ValueError as exc:
            raise ValueError(f"grid file {path}: {exc}") from None


@dataclass
class EnvelopeProfile:
    """Radial envelope w~(r): running supremum of a field over closed balls.

    r_attained holds the distance of the node realizing each supremum; the
    (r_attained, wtilde) pairs sample the exact envelope to second order in
    the grid spacing, while plain r carries the O(h) ball-quantization lag.
    """

    r: np.ndarray
    wtilde: np.ndarray
    r_attained: np.ndarray

    def attained_samples(self):
        """Deduplicated (r_attained, wtilde) samples on a strictly increasing
        grid: a sample within 1e-12 times the largest radius of the one
        before it, or of zero, is dropped."""
        tol = 1e-12 * self.r[-1]
        keep = np.r_[True, np.diff(self.r_attained) > tol]
        keep &= self.r_attained > tol
        return self.r_attained[keep], self.wtilde[keep]


def radial_envelope(f: GridField, center, radii=None) -> EnvelopeProfile:
    """Sublevel-set radial envelope of a field about a center point.

    Computed as the supremum of the field over closed balls, which agrees
    with the inf-over-sublevel-boundary-distance definition for upper
    semi-continuous fields; the result is non-decreasing in r by
    construction.  Radii must not exceed the distance from the center to the
    box boundary; the default radii are the multiples of the grid spacing up
    to it, so the center must lie at least one spacing inside.

    Each node is binned into the first requested ball that contains it; the
    per-bin maximum and the least distance of a node attaining it, followed
    by a running maximum over the bins (ties keep the earlier bin), give
    wtilde and r_attained without sorting the nodes.  When no node lies
    within radii[0], the balls up to the first nonempty one report the node
    nearest the center.

    The binning runs in cache-sized axis-0 slabs on the threads of
    _over_slabs.  Each slab computes its own node distances, bins, per-bin
    maxima, the least distance attaining each and its nearest node.  The
    slabs combine in slab order with exact max and min, the earliest slab
    winning a tie for the nearest node as argmin would, so the result has
    the bits of one pass over the whole field.
    """
    f._require_finite()
    center = np.asarray(center, dtype=float)
    if center.shape != (f.dims,):
        raise ValueError("center dimension does not match field")
    if not np.isfinite(center).all():
        raise ValueError("center must be finite")
    lo = f.origin
    hi = f.origin + f.spacing * (np.array(f.values.shape) - 1.0)
    if np.any(center <= lo) or np.any(center >= hi):
        raise ValueError("center must lie strictly inside the box")
    r_boundary = float(min((center - lo).min(), (hi - center).min()))
    if radii is None:
        if r_boundary < f.spacing:
            raise ValueError(f"center lies within one grid spacing ({f.spacing:.4g}) of the box "
                             f"boundary, at distance {r_boundary:.4g}: no default radius fits")
        radii = f.spacing * np.arange(1, int(r_boundary / f.spacing) + 1)
    radii = np.asarray(radii, dtype=float)
    if len(radii) == 0:
        raise ValueError("no envelope radii requested")
    if np.any(np.diff(radii) <= 0.0) or radii[0] <= 0.0:
        raise ValueError("radii must be positive and strictly increasing")
    if radii[-1] > r_boundary * (1.0 + 1e-12):
        raise ValueError(
            f"radius {radii[-1]:.4g} exceeds distance {r_boundary:.4g} to the box boundary")

    squares = [(x - c) ** 2 for x, c in zip(f.axes(), center)]
    values = f.values
    count = len(radii)
    planes = _slab_planes(values.shape[1:])
    slabs = -(-values.shape[0] // planes)
    slab_max, slab_dist = np.empty((2, slabs, count))
    near_dist, near_val = np.empty((2, slabs))
    near_bin = np.empty(slabs, dtype=int)

    def slab(i0, i1):
        s = i0 // planes
        # The node distances of node_coordinates(), summed over an open mesh.
        dist = np.sqrt(sum(np.ix_(squares[0][i0:i1], *squares[1:]))).ravel()
        vals = values[i0:i1].ravel()
        # Each node joins the first ball that contains it; bin `count` holds
        # the nodes outside every ball.
        bins = np.searchsorted(radii, dist, side="left")
        bin_max = np.full(count + 1, -np.inf)
        np.maximum.at(bin_max, bins, vals)
        top = vals == bin_max[bins]
        bin_dist = np.full(count + 1, np.inf)
        np.minimum.at(bin_dist, bins[top], dist[top])
        slab_max[s], slab_dist[s] = bin_max[:count], bin_dist[:count]
        near = int(np.argmin(dist))
        near_dist[s], near_val[s], near_bin[s] = dist[near], vals[near], bins[near]

    _over_slabs(values.shape[0], planes, slab)
    bin_max = slab_max.max(axis=0)
    bin_dist = np.where(slab_max == bin_max, slab_dist, np.inf).min(axis=0)
    # argmin takes the earliest slab among equally near ones, as it would
    # take the first node of the whole field.
    near = int(np.argmin(near_dist))
    if near_bin[near] > 0:
        # No node lies within radii[0]: the first balls use the node nearest the center.
        bin_max[0], bin_dist[0] = near_val[near], near_dist[near]
    running_max = np.maximum.accumulate(bin_max)
    # Ties keep the earlier bin, whose attaining node lies closer to the center.
    improved = np.r_[True, bin_max[1:] > running_max[:-1]]
    first = np.maximum.accumulate(np.where(improved, np.arange(count), 0))
    return EnvelopeProfile(radii, running_max, bin_dist[first])


def envelope_viscosity_check(e: EnvelopeProfile, cone: ConeParams) -> list:
    """Discrete check of the envelope inequalities

        w~'/r - (w~')^2/2 >= 0   and   (w~'' + w~'/r) - (1-theta)(w~'/r - (w~')^2/2) >= 0

    at interior nodes, with slack tau = DEFAULT_C_FD * h * max(1, (w~')^2).  The check
    runs on the attained-radius samples, which are free of the O(h) ball
    quantization lag.  Both inequalities are discrete surrogates for the
    viscosity-sense statements.  Returns the violations, each as (node,
    r, inequality, margin); an empty list passes.
    """
    cone.require_supercritical()
    r, wt = e.attained_samples()
    if len(r) < 5:
        raise ValueError("envelope too short for a finite-difference check")
    d1, d2 = quadratic_fit_derivatives(r, wt)
    with np.errstate(over="ignore", invalid="ignore"):     # a b of -inf is a violation
        b = d1 / r - 0.5 * d1**2
        combo = (d2 + d1 / r) - (1.0 - cone.theta) * b
    tol = _fd_cone_slack(r, d1, _local_spacing(r))
    violations = []
    for i in range(1, len(r) - 1):
        if b[i] < -tol[i]:
            violations.append((int(i), float(r[i]), "b", float(b[i])))
        if combo[i] < -tol[i]:
            violations.append((int(i), float(r[i]), "a+theta*b", float(combo[i])))
    return violations


# ---------------------------------------------------------------------------
# CSV output, and profile CSV serialization (columns: r, w, dw, d2w)
# ---------------------------------------------------------------------------

def write_csv(fh, header, columns):
    """Write the columns under header to the text file fh, one row per
    entry, every value as "%.16e", which is the text of "{:.16e}".format
    for every double.  The rows are formatted in one pass."""
    table = np.column_stack(columns)
    template = ",".join(["%.16e"] * table.shape[1]) + "\n"
    fh.write(",".join(header) + "\n")
    fh.write(template * len(table) % tuple(table.ravel().tolist()))


def save_profile_csv(p: RadialProfile, path):
    with open(path, "w") as fh:
        write_csv(fh, ["r", "w", "dw", "d2w"], [p.r, p.w, p.dw, p.d2w])


def load_profile_csv(path, n: int, k: int) -> RadialProfile:
    """Read a profile CSV with columns r, w and optionally both dw and d2w.

    np.loadtxt reads the rows under a header of distinct identifiers;
    np.genfromtxt reads any other text, and rows np.loadtxt refuses, with an
    unparsable or missing value as NaN.  Every fault raises ValueError naming
    the file: no header line, a missing column r or w, no data rows, text
    np.genfromtxt cannot split, a non-finite or unparsable value (with its
    column and 1-based data row), an r column that is not positive and
    strictly increasing, and fewer than 3 rows without derivative columns
    (RadialProfile.from_samples' own message).
    """
    with open(path) as fh:
        text = fh.read()
    if not text.strip():
        raise ValueError(f"profile {path}: no header line")
    names = [name.strip() for name in text.partition("\n")[0].split(",")]
    columns = None
    if all(map(str.isidentifier, names)):                   # as np.genfromtxt keeps them
        with warnings.catch_warnings(), contextlib.suppress(ValueError, UserWarning):
            warnings.simplefilter("error")                  # a file without data rows
            rows = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
            columns = np.rec.fromarrays(rows.T, dtype=[(name, float) for name in names])
    if columns is None:
        try:
            columns = np.genfromtxt(io.StringIO(text), delimiter=",", names=True)
        except ValueError as exc:
            raise ValueError(f"profile {path}: {exc}") from None
    names = columns.dtype.names
    for name in ("r", "w"):
        if name not in names:
            raise ValueError(f"profile {path}: no column {name}")
    wanted = ("r", "w", "dw", "d2w") if "dw" in names and "d2w" in names else ("r", "w")
    samples = {}
    for name in wanted:
        samples[name] = np.atleast_1d(columns[name])
        bad = np.flatnonzero(~np.isfinite(samples[name]))
        if len(bad):
            raise ValueError(f"profile {path}: column {name} must be finite, "
                             f"data row {bad[0] + 1} is {samples[name][bad[0]]}")
    r = samples["r"]
    if len(r) == 0:
        raise ValueError(f"profile {path}: no data rows")
    bad = np.flatnonzero(~((r >= 1e-50) & (r <= 1e50)))
    if len(bad):
        raise ValueError(f"profile {path}: column r must lie in [1e-50, 1e50], "
                         f"data row {bad[0] + 1} is {r[bad[0]]}")
    bad = np.flatnonzero(np.diff(r) <= 0.0)
    if len(bad):
        i = bad[0] + 1
        raise ValueError(f"profile {path}: column r must be strictly increasing, "
                         f"data row {i + 1} is {r[i]} after {r[i - 1]}")
    try:
        return RadialProfile.from_samples(r, samples["w"], n, k,
                                          dw=samples.get("dw"), d2w=samples.get("d2w"))
    except ValueError as exc:
        raise ValueError(f"profile {path}: {exc}") from None
