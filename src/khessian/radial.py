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


def _in_order(work, items):
    """Yield work(item) for each of items, in their order, from one thread per
    usable CPU, each pinned to a CPU of its own; inline with one worker or one
    item.  Each call runs in a copy of the caller's context, so np.errstate
    applies in the workers too.  At most two items per worker are taken and
    not yet yielded, so items may be read lazily.  An exception from work
    reaches the caller, and the threads end with the generator.  work must
    write disjoint parts of any shared output and call no public khessian
    function: the benchmark's tracer wraps the public names and keeps a single
    span stack."""
    items = iter(items)
    head = list(itertools.islice(items, 2))
    workers = _workers()
    if workers <= 1 or len(head) <= 1:
        yield from map(work, itertools.chain(head, items))
        return
    pool = ThreadPoolExecutor(workers, initializer=_pin_each_worker())
    pending = []
    try:
        for item in itertools.chain(head, items):
            pending.append(pool.submit(contextvars.copy_context().run, work, item))
            if len(pending) == 2 * workers:
                yield pending.pop(0).result()
        while pending:
            yield pending.pop(0).result()
    finally:
        pool.shutdown(cancel_futures=True)


def _over_slabs(count: int, planes: int, work) -> None:
    """Call work(i0, i1) on the axis-0 slabs [i0, i1) of range(count), by _in_order."""
    for _ in _in_order(lambda i: work(i, min(i + planes, count)), range(0, count, planes)):
        pass


# save_raw's layout: each value as "%.16e", then a space, or a newline after
# every prod(shape[1:]) values.  _decode and _format read and write it exactly
# (see load_raw and _format for why), in pieces of at most _CHUNK_BYTES of
# text, in np.longdouble arithmetic that needs a 64-bit significand.
# _POW10[q - _QMIN] is 10^q rounded once (numpy reads "1e<q>" with strtold),
# for the q of 17-digit mantissas with exponents of up to three digits.
_CHUNK_BYTES = 1 << 20
_KERNELS = np.finfo(np.longdouble).nmant >= 63
_QMIN = -1015
_POW10 = np.array([f"1e{q}" for q in range(_QMIN, 984)]).astype(np.longdouble)
# _EXPONENTS[o][q + 400]: "e+dd " (o = 0) or "e+ddd " (o = 1) for the exponent
# q, as the last bytes of a uint64 word.
_EXPONENTS = [np.frombuffer("".join(f"e{q:+0{3 + o}d} ".rjust(8) for q in range(-400, 400))
                            .encode(), "<u8") for o in (0, 1)]


def _in_range(z, carry, mask):
    """Whether text words z less their templates hold their fields: no bit of
    mask in z or z + carry, as a byte below its template wraps into mask and
    a digit less "0" plus 6 stays below 16 (Lemire, Softw. Pract. Exp. 51, 2021)."""
    return not ((z | (z + carry)) & mask).any()


def _decode(text):
    """The values of text, whole tokens each followed by a space or a newline,
    and the indices of those followed by a newline; None when text is not in
    save_raw's layout."""
    buf = np.frombuffer(text, np.uint8)
    sep = buf[22::23]                                       # a token takes 23 bytes or more
    if len(buf) % 23 == 0 and ((sep == 32) | (sep == 10)).all():
        # 23-byte records: any other token puts a character at byte 22 of its record.
        win = buf.reshape(-1, 23)
        neg = wide = np.zeros(len(win), bool)
    else:
        ends = np.flatnonzero(buf <= 32)
        starts = np.concatenate(([0], ends[:-1] + 1))
        neg = buf[starts] == 45
        starts += neg
        wide = ends - starts == 23                          # a 3-digit exponent
        sep = buf[ends]
        if not (((sep == 32) | (sep == 10)).all() and (wide | (ends - starts == 22)).all()):
            return None
        # The same 23 bytes of each token, from its first digit.
        win = np.lib.stride_tricks.sliding_window_view(buf, 23)[starts]
    # Each record's fields as little-endian words less their templates: "d."
    # with the leading digit, 16 fraction digits, and "e+dd" or "e-dd".
    head = np.ndarray(len(win), "<u2", win, 0, (23,)) - np.uint16(0x2E30)
    w = np.ndarray((2, len(win)), "<u8", win, 2, (8, 23)).copy() - 0x3030303030303030
    tail = np.ndarray(len(win), "<u4", win, 18, (23,)) - np.uint32(0x30302B65)
    third = win[wide, 22] - np.uint8(48)                    # of a 3-digit exponent
    if not (_in_range(head, 6, 0xFFF0) and _in_range(tail, 0x06060000, 0xF0F0FDFF)
            and _in_range(w, 0x0606060606060606, 0xF0F0F0F0F0F0F0F0)
            and _in_range(third, 6, 0xF0)):
        return None
    exp = (tail >> 16 & 0xFF) * 10 + (tail >> 24)
    if len(third):
        exp[wide] = 10 * exp[wide] + third
    # Each 8 fraction digits as an integer by three in-place multiply-shift steps (ibid.).
    t = w >> 8
    w *= 10
    w += t
    np.right_shift(w, 16, out=t)
    t &= 0x000000FF000000FF
    t *= 1 + (10000 << 32)
    w &= 0x000000FF000000FF
    w *= 100 + (1000000 << 32)
    w += t
    w >>= 32
    m = w[0] * np.uint64(10**8) + w[1] + head * np.uint64(10**16)
    v = m * _POW10[exp.astype(np.int32) * (1 - (tail >> 8 & 2).astype(np.int32)) - (16 + _QMIN)]
    with np.errstate(over="ignore"):
        x = v.astype(float)
    # float() reads v within 2^-9 ulp of a rounding midpoint: |v - x| over
    # 0.5 - 2^-9 of the ulp 2^(E - 1075) of nextafter(x, 0), E its biased
    # exponent.  The bound, of biased exponent E - 54 and fraction 0xFE << 44,
    # is negative or NaN for x <= 2^-969, where |v - x| keeps too few bits.
    gap = np.abs(np.subtract(v, x, out=v).astype(float))
    bound = (((x.view(np.int64) - 1) & -1 << 52) + ((0xFE << 44) - (54 << 52))).view(float)
    for i in np.flatnonzero(~(gap <= bound) & (m != 0)):
        x[i] = float(win[i, :22 + wide[i]].tobytes())
    return np.negative(x, out=x, where=neg), np.flatnonzero(sep == 10)


def _load_rows(path, start, shape):
    """The data rows from byte start of a grid file whose header gives shape
    (words), by _decode on _in_order, each piece placed once its row ends are
    where the row length puts them; None unless the text is in save_raw's layout."""
    if not (_KERNELS and shape and all(s.isdecimal() and int(s) > 0 for s in shape)):
        return None
    rows, count = int(shape[0]), math.prod(map(int, shape))
    with open(path, "rb") as fh:
        # Each value takes 23 to 25 bytes with its separator.
        end = fh.seek(0, io.SEEK_END)
        if not 23 * count <= end - start <= 25 * count:
            return None
        fh.seek(start)

        def pieces():
            while block := fh.read(_CHUNK_BYTES):
                cut = max(block.rfind(b" "), block.rfind(b"\n")) + 1
                fh.seek(cut - len(block), io.SEEK_CUR)
                if not cut:
                    return
                yield memoryview(block)[:cut]

        out, done = np.empty(count), 0
        for piece in _in_order(_decode, pieces()):
            if piece is None:
                return None
            x, ends = piece
            if done + len(x) > count or not np.array_equal(
                    ends, np.arange((-done - 1) % (count // rows), len(x), count // rows)):
                return None
            out[done:done + len(x)] = x
            done += len(x)
        return out.reshape(rows, -1) if done == count and fh.tell() == end else None


def _format(x, ncols, start):
    """save_raw's text of finite values x, x[0] at flat index start: each as
    "%.16e", then a space, or a newline at the end of a row of ncols values.

    The digits are M = rint(p), p = |x| 10^(16-e) with e from log10, the
    product taken again only where log10 was one off.  It errs by under 2^-63
    relative, 0.011 below 10^17, so floor(64 p) gives the correctly rounded M
    unless p's fraction lies within 1/64 of .5; those values take M and e from
    one "%.16e" call on all of them.  M's 16 fraction digits go out as two
    unaligned 8-byte words of ASCII digits, the inverse of _decode's steps.
    A piece of nonnegative values with 2-digit exponents fills fixed 23-byte
    rows, any other piece 25-byte rows that a mask compresses.
    """
    ax = np.abs(x)
    zero = ax == 0.0
    e = np.floor(np.log10(np.where(zero, 1.0, ax))).astype(np.int64)
    ax = ax.astype(np.longdouble)
    p = ax * _POW10[16 - e - _QMIN]
    off = np.flatnonzero((p >= 1e17) | (p < 1e16))          # log10 may be one off
    e[off] += np.where(p[off] >= 1e17, 1, -1)
    p[off] = ax[off] * _POW10[16 - e[off] - _QMIN]
    t = (p * 64).astype(np.uint64)                          # floor(64 p), as 64 p < 2^63
    m = (t + 32) >> 6
    slow = ~zero & ((((t - 31) & 63) < 2) | (m - 10**16 > 9 * 10**16))
    up = m == 10**17                                        # rounded up to the next decade
    m[up] = 10**16
    e = np.where(zero, 0, e + up)
    if slow.any():
        text = "%.16e " * np.count_nonzero(slow) % tuple(np.abs(x[slow]).tolist())
        m[slow], e[slow] = np.fromstring(text.replace(".", "").replace("e", " "),
                                         np.int64, sep=" ").reshape(-1, 2).T
    neg, big = np.signbit(x), np.abs(e) >= 100
    o = int(neg.any() or big.any())                         # room for a sign and a 3rd digit
    hi = m // 10**8
    lead = hi // 10**8
    w = np.stack([hi - lead * 10**8, m - hi * 10**8], axis=1)
    # Each 8 digits in halves, quarters and bytes by multiply-shift steps, the
    # quotients of 10^4, 100 and 10 exact below 10^8, 10^4 and 100 (ibid.).
    for mul, shift, mask, d, lane in ((3518437209, 45, 0x3FFF, 10**4, 32),
                                      (10486, 20, 0x0000007F0000007F, 100, 16),
                                      (103, 10, 0x000F000F000F000F, 10, 8)):
        t = w * mul >> shift & mask
        w -= t * d
        w <<= lane
        w += t
    w += 0x3030303030303030
    # Each row as words: its last 8 bytes from _EXPONENTS, then the fraction
    # digits over the first of those, then the leading digit and ".".
    row = 23 + 2 * o
    buf = np.empty((len(x), row), np.uint8)
    np.ndarray(len(x), "<u8", buf, row - 8, (row,))[...] = _EXPONENTS[o][e + 400]
    np.ndarray((len(x), 2), "<u8", buf, o + 2, (row, 8))[...] = w
    np.ndarray(len(x), "<u2", buf, o, (row,))[...] = lead + 0x2E30
    buf[(-start - 1) % ncols::ncols, -1] = 10
    if not o:
        return buf
    buf[:, 0] = 45
    keep = np.ones(buf.shape, bool)
    keep[:, 0], keep[:, 21] = neg, big
    return buf[keep]


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

    @classmethod
    def from_function(cls, fn, spacing: float, shape, origin=None) -> "GridField":
        f = cls(spacing, np.zeros(shape), origin)
        coords = f.node_coordinates()
        f.values = fn(coords).reshape(shape)
        return f

    def save_raw(self, path):
        """Write the grid file load_raw reads.  The data rows are the bytes of
        np.savetxt(fmt="%.16e"), by _format in pieces on _in_order, or by
        np.savetxt itself when a value is not finite or the kernels are not usable."""
        shape, flat = self.values.shape, self.values.ravel()
        with open(path, "wb") as fh:
            fh.write(f"dims {self.dims}\nshape {' '.join(map(str, shape))}\n"
                     f"spacing {self.spacing:.16e}\n"
                     f"origin {' '.join(f'{x:.16e}' for x in self.origin)}\n".encode())
            if not (_KERNELS and np.isfinite(flat).all()):
                return np.savetxt(fh, flat.reshape(shape[0], -1), fmt="%.16e", delimiter=" ")
            step = _CHUNK_BYTES // 25
            for text in _in_order(lambda i: _format(flat[i:i + step], flat.size // shape[0], i),
                                  range(0, flat.size, step)):
                fh.write(text)

    @classmethod
    def load_raw(cls, path) -> "GridField":
        """Read a grid file: `dims`, `shape`, `spacing` and optional `origin`
        header lines, then the values in row-major order.

        Raises ValueError naming the file and the fault: a missing or
        malformed header line, an unparsable value or a data row of the wrong
        length, `dims` disagreeing with `shape`, a value count other than the
        product of `shape`, the first non-finite value (data rows and columns
        are 1-based), or a spacing, dimension or origin GridField rejects.

        Data in save_raw's layout is decoded by numpy kernels (_decode) in
        pieces of 1 MiB on _in_order, as 23-byte records where a piece's
        values are all nonnegative with 2-digit exponents.  A 17-digit
        mantissa times a power of ten in a 64-bit-significand np.longdouble
        errs by under 2^-10 double ulp, so one rounding gives np.loadtxt's
        value bit for bit; values within 2^-9 ulp of a rounding midpoint, or
        of at most 2^-969, go through float().  Other text (a comment or blank
        line, CRLF, other spacing or number forms), and all text where
        np.longdouble is narrower, goes to np.loadtxt with the same messages.
        A 128^3 file takes about 0.09 s as records and 0.12 s with signs on
        two CPUs, 0.7 s with a comment.
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
                data = _load_rows(path, pos, header.get("shape", ()))
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
    1-based data row.  np.loadtxt reads the rows under a header of distinct
    identifiers; np.genfromtxt reads any other text, and rows np.loadtxt
    refuses, with an unparsable or missing value as NaN.
    """
    with open(path) as fh:
        text = fh.read()
    names = [name.strip() for name in text.partition("\n")[0].split(",")]
    columns = None
    if all(map(str.isidentifier, names)):                   # as np.genfromtxt keeps them
        with warnings.catch_warnings(), contextlib.suppress(ValueError, UserWarning):
            warnings.simplefilter("error")                  # a file without data rows
            rows = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
            columns = np.rec.fromarrays(rows.T, dtype=[(name, float) for name in names])
    if columns is None:
        columns = np.genfromtxt(io.StringIO(text), delimiter=",", names=True)
    names = columns.dtype.names
    wanted = ("r", "w", "dw", "d2w") if "dw" in names and "d2w" in names else ("r", "w")
    samples = {}
    for name in wanted:
        samples[name] = np.atleast_1d(columns[name])
        bad = np.flatnonzero(~np.isfinite(samples[name]))
        if len(bad):
            raise ValueError(f"profile {path}: column {name} must be finite, "
                             f"data row {bad[0] + 1} is {samples[name][bad[0]]}")
    return RadialProfile.from_samples(samples["r"], samples["w"], n, k,
                                      dw=samples.get("dw"), d2w=samples.get("d2w"))
