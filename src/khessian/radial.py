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

import io
import math
import mmap
import os
import signal
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from .symfunc import ConeParams

__all__ = [
    "RadialProfile",
    "RadialAB",
    "GridField",
    "EnvelopeProfile",
    "SingularityReport",
    "MonotoneReport",
    "EnvelopeCheck",
    "ab_reduce",
    "sigma_k_radial",
    "radial_admissible",
    "check_rw_monotone",
    "classify_singularity",
    "radial_envelope",
    "envelope_viscosity_check",
    "quadratic_fit_derivatives",
    "geometric_grid",
    "save_profile_csv",
    "load_profile_csv",
]

# Default multiplier for finite-difference inequality tolerances tau = c_fd * h.
DEFAULT_C_FD = 10.0


def quadratic_fit_derivatives(x, f):
    """First and second derivatives from the local quadratic through 3 nodes.

    Interior nodes use the centered window, endpoints the one-sided window;
    this reproduces standard central differences on uniform grids and stays
    second order (first derivative) on smoothly graded ones.
    """
    x = np.asarray(x, dtype=float)
    f = np.asarray(f, dtype=float)
    m = len(x)
    if m < 3:
        raise ValueError("need at least 3 nodes for finite differences")
    d1 = np.empty(m)
    d2 = np.empty(m)
    idx = np.clip(np.arange(m), 1, m - 2)
    x0, x1, x2 = x[idx - 1], x[idx], x[idx + 1]
    f0, f1, f2 = f[idx - 1], f[idx], f[idx + 1]
    c0 = 1.0 / ((x0 - x1) * (x0 - x2))
    c1 = 1.0 / ((x1 - x0) * (x1 - x2))
    c2 = 1.0 / ((x2 - x0) * (x2 - x1))
    xe = x
    d1 = f0 * c0 * (2 * xe - x1 - x2) + f1 * c1 * (2 * xe - x0 - x2) + f2 * c2 * (2 * xe - x0 - x1)
    d2 = 2.0 * (f0 * c0 + f1 * c1 + f2 * c2)
    return d1, d2


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
        h = np.diff(self.r)
        return np.r_[h[0], np.maximum(h[:-1], h[1:]), h[-1]]


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


def sigma_k_radial_gradients(ab: RadialAB, cone: ConeParams):
    """(d sigma/d a, d sigma/d b) of the radial sigma_k, used by solver Jacobians."""
    n, k = cone.n, cone.k
    b = ab.b
    dsig_da = math.comb(n - 1, k - 1) * b ** (k - 1)
    dsig_db = k * math.comb(n - 1, k) * b ** (k - 1)
    if k >= 2:
        dsig_db = dsig_db + (k - 1) * math.comb(n - 1, k - 1) * ab.a * b ** (k - 2)
    return dsig_da, dsig_db


def radial_admissible(ab: RadialAB, cone: ConeParams, strict: bool = False,
                      tol: float = 0.0) -> np.ndarray:
    """Per-node cone membership of the radial spectrum (supercritical range only)."""
    cone.require_supercritical()
    combo = ab.a + cone.theta * ab.b
    if strict:
        return (ab.b > tol) & (combo > tol)
    return (ab.b >= -tol) & (combo >= -tol)


@dataclass
class MonotoneReport:
    rw: np.ndarray
    tol: float
    min_value: float
    max_value: float
    worst_decrease: float
    bounds_ok: bool
    monotone_ok: bool

    @property
    def passed(self) -> bool:
        return self.bounds_ok and self.monotone_ok


def check_rw_monotone(p: RadialProfile, c_fd: float = DEFAULT_C_FD) -> MonotoneReport:
    """Verify 0 <= r w' <= 2 and discrete monotonicity of r w' up to FD tolerance."""
    rw = p.r * p.dw
    tol = 0.0 if p.analytic else c_fd * float(p.local_spacing().max())
    tol = max(tol, 1e-12 * max(1.0, float(np.abs(rw).max())))
    decreases = np.diff(rw)
    worst = float(-decreases.min()) if len(decreases) else 0.0
    return MonotoneReport(
        rw=rw,
        tol=tol,
        min_value=float(rw.min()),
        max_value=float(rw.max()),
        worst_decrease=worst,
        bounds_ok=bool(rw.min() >= -tol and rw.max() <= 2.0 + tol),
        monotone_ok=bool(worst <= tol),
    )


@dataclass
class SingularityReport:
    klass: str                      # "fundamental" or "holder"
    C: float | None
    alpha_est: float | None
    saturated: bool
    diagnostics: dict


def _fd_cone_slack(r, dw, h, c_fd: float) -> np.ndarray:
    """Finite-difference slack for discrete cone checks.

    Models first-derivative noise (h s^2) plus the second-derivative noise of
    graded grids near singular centers (h^2 s^4), with the slope scale s
    capped at the admissible ceiling 2/r so inadmissible steepness cannot
    inflate its own tolerance.
    """
    s = np.maximum(1.0, np.minimum(np.abs(dw), 2.0 / r))
    return c_fd * (h * s**2 + h**2 * s**4)


def _admissibility_tolerances(p: RadialProfile, c_fd: float) -> np.ndarray:
    """Per-node slack for cone checks; analytic derivatives get a rounding floor."""
    if p.analytic:
        return 1e-11 * np.maximum(1.0, p.dw**2 + np.abs(p.d2w))
    return _fd_cone_slack(p.r, p.dw, p.local_spacing(), c_fd)


def classify_singularity(p: RadialProfile, eps_class: float = 0.05,
                         c_fd: float = DEFAULT_C_FD) -> SingularityReport:
    """Classify an admissible radial profile near r -> 0.

    The extrapolated limit of r w' decides the dichotomy: >= 2 - eps_class
    means the fundamental singularity w = 2 log r + C (offset fitted from the
    innermost nodes); anything smaller is the Holder branch, whose exponent
    estimate 1 + slope comes from a log-log fit of w'.
    """
    ab = ab_reduce(p)
    tol = _admissibility_tolerances(p, c_fd)
    ok = (ab.b >= -tol) & (ab.a + p.cone.theta * ab.b >= -tol)
    if not np.all(ok):
        worst = int(np.argmin(np.minimum(ab.b + tol, ab.a + p.cone.theta * ab.b + tol)))
        raise ValueError(
            "profile is not admissible near r={:.3e}: b={:.3e}, a+theta*b={:.3e}".format(
                p.r[worst], ab.b[worst], ab.a[worst] + p.cone.theta * ab.b[worst])
        )

    rw = p.r * p.dw
    s0, s1, s2 = rw[2], rw[1], rw[0]       # decreasing radius order
    denom = s2 - 2.0 * s1 + s0
    if abs(denom) > 1e-12 * max(1.0, abs(s2)):
        limit = s2 - (s2 - s1) ** 2 / denom     # Aitken extrapolation
    else:
        limit = s2
    diagnostics = {"rw_limit": float(limit), "rw_inner": [float(s2), float(s1), float(s0)]}

    if limit >= 2.0 - eps_class:
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

# Grid data of more text than this is parsed, or written, in two processes.
_SPLIT_BYTES = 1 << 20
# Most bytes of text per value that save_raw writes: "%.16e" takes at most 24
# characters, and a space or a newline follows each value.
_VALUE_BYTES = 25
# Bytes of shared memory this process maps at a time when it collects a
# child's part, so that the part never adds to its resident set whole.
_DRAIN_BYTES = 1 << 20


def _split_usable() -> bool:
    """Whether a forked child may take half of the work on a grid file: os.fork
    exists, two CPUs are usable and the caller is the only Python thread (a
    fork copies no other thread, nor releases a lock one of them holds)."""
    if not hasattr(os, "fork") or threading.active_count() != 1:
        return False
    try:
        return len(os.sched_getaffinity(0)) >= 2
    except AttributeError:      # no sched_getaffinity outside Linux
        return (os.cpu_count() or 1) >= 2


def _in_two_processes(child_work, parent_work):
    """Run child_work() in a forked child while parent_work() runs here.

    child_work uses only numpy and os and reports through shared memory; the
    child ends with os._exit, status 0 when child_work returned.  Returns
    parent_work() and whether the child succeeded (False also when the fork
    fails).  The child is reaped before this returns, and killed first when
    parent_work raises or the wait is interrupted.
    """
    try:
        pid = os.fork()
    except OSError:
        return parent_work(), False
    if pid == 0:
        status = 1
        try:
            child_work()
            status = 0
        finally:
            os._exit(status)
    reaped = False
    try:
        result = parent_work()
        status = os.waitpid(pid, 0)[1]
        reaped = True
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return result, os.waitstatus_to_exitcode(status) == 0


def _shared(payload_bytes):
    """Anonymous shared memory for a child's part: a page that holds its
    counts (int64), then payload_bytes from the next page on."""
    return mmap.mmap(-1, mmap.PAGESIZE + payload_bytes)


def _drain(shared, nbytes, take):
    """Call take(offset, bytes view) on consecutive chunks of the first nbytes
    of the payload of _shared, dropping each chunk from this process's
    resident set once taken."""
    for i in range(0, nbytes, _DRAIN_BYTES):
        j = mmap.PAGESIZE + min(i + _DRAIN_BYTES, nbytes)
        take(i, memoryview(shared)[mmap.PAGESIZE + i:j])
        shared.madvise(mmap.MADV_DONTNEED, mmap.PAGESIZE + i, j - mmap.PAGESIZE - i)


def _ascii_lines(fh, count):
    """The lines in the next count bytes of a binary file.  Raises ValueError
    at a line that is not plain ASCII or holds a carriage return, which a
    text-mode reader could split or decode differently."""
    while count > 0:
        line = fh.readline(count)
        if not line:
            return
        if not line.isascii() or b"\r" in line:
            raise ValueError("not a plain ASCII line")
        count -= len(line)
        yield line


def _loadtxt_range(path, start, stop):
    """np.loadtxt of the lines in bytes [start, stop) of a file."""
    with open(path, "rb") as fh:
        fh.seek(start)
        return np.loadtxt(_ascii_lines(fh, stop - start), ndmin=2)


def _load_data_split(path, start, count):
    """The data rows from byte start to the end of a grid file, `count` values
    parsed in two processes: this one reads up to the first line break after
    the middle, a forked child the rest into shared memory.

    Returns None when the data is no more than _SPLIT_BYTES of text, holds
    fewer bytes than count or no child may be forked (see _split_usable),
    and on any fault in either half, such as a malformed line, a value count
    other than count or halves of different row lengths: the serial reader
    then reads the file and reports the fault with its whole-file row and
    column.
    """
    size = os.path.getsize(path)
    # Each value takes at least one byte of text.
    if not (size - start > _SPLIT_BYTES and 0 < count <= size - start) or not _split_usable():
        return None
    try:
        with open(path, "rb") as fh:
            fh.seek((start + size) // 2)
            fh.readline()
            middle = fh.tell()
        if middle >= size:
            return None
        shared = _shared(8 * count)
        counts = np.frombuffer(shared, np.int64, 2)     # the child's values and columns

        def child():
            part = _loadtxt_range(path, middle, size)
            if part.size > count:
                raise ValueError("too many values")
            np.frombuffer(shared, float, part.size, mmap.PAGESIZE)[:] = part.ravel()
            counts[:] = part.size, part.shape[1]

        head, child_ok = _in_two_processes(child, lambda: _loadtxt_range(path, start, middle))
    except (ValueError, OSError, MemoryError):
        # A malformed line in the first half, or no memory or fork to be had.
        return None
    size2, cols = (int(c) for c in counts)
    if not child_ok or head.shape[1] != cols or head.size + size2 != count:
        return None
    # A private mapping of its own: shared pages would stay shared with later
    # forks, and a mapping goes back to the system whole when the array goes.
    data = np.frombuffer(mmap.mmap(-1, 8 * count, flags=mmap.MAP_PRIVATE), float)
    data[:head.size] = head.ravel()
    tail = data[head.size:]
    del head

    def take(i, view):
        tail[i // 8:(i + len(view)) // 8] = np.frombuffer(view, float)

    _drain(shared, 8 * size2, take)
    return data.reshape(-1, cols)


def _save_rows(fh, rows):
    """np.savetxt(fh, rows, fmt="%.16e") to the text file fh; a forked child
    formats the second half of the rows into shared memory when the text may
    exceed _SPLIT_BYTES (see _split_usable).  The bytes are the same either
    way; if the child fails, this process formats its rows."""
    half = len(rows) // 2
    if _VALUE_BYTES * rows.size <= _SPLIT_BYTES or half == 0 or not _split_usable():
        np.savetxt(fh, rows, fmt="%.16e", delimiter=" ")
        return
    shared = _shared(_VALUE_BYTES * rows[half:].size)
    length = np.frombuffer(shared, np.int64, 1)        # bytes of the child's text

    def child():
        shared.seek(mmap.PAGESIZE)
        np.savetxt(shared, rows[half:], fmt="%.16e", delimiter=" ")
        length[0] = shared.tell() - mmap.PAGESIZE

    _, child_ok = _in_two_processes(
        child, lambda: np.savetxt(fh, rows[:half], fmt="%.16e", delimiter=" "))
    if child_ok:
        fh.flush()
        _drain(shared, int(length[0]), lambda i, view: fh.buffer.write(view))
    else:
        np.savetxt(fh, rows[half:], fmt="%.16e", delimiter=" ")


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
        if not (math.isfinite(self.spacing) and self.spacing > 0.0):
            raise ValueError("spacing must be positive and finite")
        if self.origin is None:
            # Center the box on the coordinate origin by default.
            self.origin = -0.5 * self.spacing * (np.array(self.values.shape) - 1.0)
        self.origin = np.asarray(self.origin, dtype=float)
        if self.origin.shape != (self.values.ndim,):
            raise ValueError("origin length must match field dimension")
        if not np.isfinite(self.origin).all():
            raise ValueError("origin must be finite")

    def _require_finite(self):
        """Raise ValueError naming the first node whose value is not finite.

        Called at construction and again by the grid-field computations,
        because values may be reassigned after construction.
        """
        finite = np.isfinite(self.values)
        if not finite.all():
            node = np.unravel_index(int(np.argmin(finite)), self.values.shape)
            raise ValueError(f"grid field value {self.values[node]} at node "
                             f"{tuple(map(int, node))} is not finite")

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

    @classmethod
    def from_function(cls, fn, spacing: float, shape, origin=None) -> "GridField":
        f = cls(spacing, np.zeros(shape), origin)
        coords = f.node_coordinates()
        f.values = fn(coords).reshape(shape)
        return f

    def save_raw(self, path):
        with open(path, "w") as fh:
            fh.write(f"dims {self.dims}\n")
            fh.write("shape " + " ".join(str(s) for s in self.values.shape) + "\n")
            fh.write(f"spacing {self.spacing:.16e}\n")
            fh.write("origin " + " ".join(f"{x:.16e}" for x in self.origin) + "\n")
            _save_rows(fh, self.values.reshape(self.values.shape[0], -1))

    @classmethod
    def load_raw(cls, path) -> "GridField":
        """Read a grid file: `dims`, `shape`, `spacing` and optional `origin`
        header lines, then the values in row-major order.

        Raises ValueError naming the fault: a missing or malformed header
        line, an unparsable value or a data row of the wrong length, `dims`
        disagreeing with `shape`, a value count other than the product of
        `shape`, or the first non-finite value (data rows and columns are
        1-based).

        A data section of more than about 1 MB of text is parsed in two
        processes when two CPUs are usable (see _load_data_split), with the
        same values and the same faults as the serial read.
        """
        with open(path) as fh:
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
                    count = math.prod(int(s) for s in header["shape"])
                except (KeyError, ValueError):
                    count = 0
                data = _load_data_split(path, pos, count)
                if data is None:
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
        finite = np.isfinite(data)
        if not finite.all():
            row, col = divmod(int(np.argmin(finite)), data.shape[1])
            raise ValueError(f"grid file {path}: non-finite value {data[row, col]} "
                             f"in data row {row + 1}, column {col + 1}")
        return cls(spacing, data.reshape(shape), origin)


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
    provenance: dict

    def attained_samples(self):
        """Deduplicated (r_attained, wtilde) samples on a strictly increasing grid."""
        keep = np.r_[True, np.diff(self.r_attained) > 1e-12]
        keep &= self.r_attained > 1e-12
        return self.r_attained[keep], self.wtilde[keep]


def radial_envelope(f: GridField, center, radii=None) -> EnvelopeProfile:
    """Sublevel-set radial envelope of a field about a center point.

    Computed as the supremum of the field over closed balls, which agrees
    with the inf-over-sublevel-boundary-distance definition for upper
    semi-continuous fields; the result is non-decreasing in r by
    construction.  Radii must not exceed the distance from the center to the
    box boundary.

    Each node is binned into the first requested ball that contains it; the
    per-bin maximum and the least distance of a node attaining it, followed
    by a running maximum over the bins (ties keep the earlier bin), give
    wtilde and r_attained without sorting the nodes.  When no node lies
    within radii[0], the balls up to the first nonempty one report the node
    nearest the center.
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
        radii = f.spacing * np.arange(1, int(r_boundary / f.spacing) + 1)
    radii = np.asarray(radii, dtype=float)
    if len(radii) == 0:
        raise ValueError("no envelope radii requested")
    if np.any(np.diff(radii) <= 0.0) or radii[0] <= 0.0:
        raise ValueError("radii must be positive and strictly increasing")
    if radii[-1] > r_boundary * (1.0 + 1e-12):
        raise ValueError(
            f"radius {radii[-1]:.4g} exceeds distance {r_boundary:.4g} to the box boundary")

    # The node distances of node_coordinates(), summed over an open mesh.
    dist = np.sqrt(sum(np.ix_(*[(x - c) ** 2 for x, c in zip(f.axes(), center)]))).ravel()
    vals = f.values.ravel()
    # Each node joins the first ball that contains it; bin len(radii) holds
    # the nodes outside every ball.
    bins = np.searchsorted(radii, dist, side="left")
    bin_max = np.full(len(radii), -np.inf)
    bin_dist = np.full(len(radii), np.inf)
    nearest = int(np.argmin(dist))
    if bins[nearest] > 0:
        # No node lies within radii[0]: the first balls use the node nearest the center.
        bin_max[0], bin_dist[0] = vals[nearest], dist[nearest]
    inside = bins < len(radii)
    bins, dist, vals = bins[inside], dist[inside], vals[inside]
    np.maximum.at(bin_max, bins, vals)
    top = vals == bin_max[bins]
    np.minimum.at(bin_dist, bins[top], dist[top])
    running_max = np.maximum.accumulate(bin_max)
    # Ties keep the earlier bin, whose attaining node lies closer to the center.
    improved = np.r_[True, bin_max[1:] > running_max[:-1]]
    first = np.maximum.accumulate(np.where(improved, np.arange(len(radii)), 0))
    return EnvelopeProfile(radii, running_max, bin_dist[first], {
        "center": center.tolist(),
        "shape": list(f.values.shape),
        "spacing": f.spacing,
    })


@dataclass
class EnvelopeCheck:
    r: np.ndarray
    b: np.ndarray
    combo: np.ndarray
    tol: np.ndarray
    violations: list

    @property
    def passed(self) -> bool:
        return len(self.violations) == 0


def envelope_viscosity_check(e: EnvelopeProfile, cone: ConeParams,
                             c_fd: float = DEFAULT_C_FD) -> EnvelopeCheck:
    """Discrete check of the envelope inequalities

        w~'/r - (w~')^2/2 >= 0   and   (w~'' + w~'/r) - (1-theta)(w~'/r - (w~')^2/2) >= 0

    at interior nodes, with slack tau = c_fd * h * max(1, (w~')^2).  The check
    runs on the attained-radius samples, which are free of the O(h) ball
    quantization lag.  Both inequalities are discrete surrogates for the
    viscosity-sense statements; violations are listed with their magnitude.
    """
    cone.require_supercritical()
    r, wt = e.attained_samples()
    if len(r) < 5:
        raise ValueError("envelope too short for a finite-difference check")
    d1, d2 = quadratic_fit_derivatives(r, wt)
    b = d1 / r - 0.5 * d1**2
    combo = (d2 + d1 / r) - (1.0 - cone.theta) * b
    h = np.r_[np.diff(r)[0], np.maximum(np.diff(r)[:-1], np.diff(r)[1:]), np.diff(r)[-1]]
    tol = _fd_cone_slack(r, d1, h, c_fd)
    violations = []
    for i in range(1, len(r) - 1):
        if b[i] < -tol[i]:
            violations.append((int(i), float(r[i]), "b", float(b[i])))
        if combo[i] < -tol[i]:
            violations.append((int(i), float(r[i]), "a+theta*b", float(combo[i])))
    return EnvelopeCheck(r, b, combo, tol, violations)


# ---------------------------------------------------------------------------
# Profile CSV serialization (columns: r, w, dw, d2w)
# ---------------------------------------------------------------------------

def save_profile_csv(p: RadialProfile, path):
    with open(path, "w") as fh:
        fh.write("r,w,dw,d2w\n")
        for i in range(len(p.r)):
            fh.write(",".join(f"{x:.16e}" for x in (p.r[i], p.w[i], p.dw[i], p.d2w[i])) + "\n")


def load_profile_csv(path, n: int, k: int) -> RadialProfile:
    """Read a profile CSV with columns r, w and optionally both dw and d2w.

    A non-finite or unparsable value raises ValueError naming its column and
    1-based data row.
    """
    with open(path) as fh:
        text = fh.read()
    rows = np.genfromtxt(io.StringIO(text), delimiter=",", names=True)
    names = rows.dtype.names
    columns = ("r", "w", "dw", "d2w") if "dw" in names and "d2w" in names else ("r", "w")
    samples = {}
    for name in columns:
        samples[name] = np.atleast_1d(rows[name])
        bad = np.flatnonzero(~np.isfinite(samples[name]))
        if len(bad):
            raise ValueError(f"profile {path}: column {name} must be finite, "
                             f"data row {bad[0] + 1} is {samples[name][bad[0]]}")
    return RadialProfile.from_samples(samples["r"], samples["w"], n, k,
                                      dw=samples.get("dw"), d2w=samples.get("d2w"))
