"""Batch command-line front end.

Subcommands: sigma, classify, solve, continue, envelope, harnack, volume,
verify.  Outputs are CSV (17 significant digits) and JSON summaries carrying
a run manifest, so identical inputs and seed reproduce byte-identical files.

Exit codes: 0 success, 1 verification failure, 2 solver non-convergence,
3 malformed input.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from . import __version__, analysis, conformal, radial, solver, symfunc
from .symfunc import ConeParams

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_NO_CONVERGENCE = 2
EXIT_BAD_INPUT = 3


def _manifest(command: str, args: dict, seed=None) -> dict:
    recorded = {k: v for k, v in sorted(args.items()) if v is not None}
    return {
        "command": command,
        "arguments": recorded,
        "seed": seed,
        "tool_version": __version__,
    }


def _write_json(path, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


def _print_report(payload: dict, out) -> int:
    """Print payload as indented JSON, and write the same text to out if given."""
    text = json.dumps(payload, indent=2, sort_keys=True, default=float)
    print(text)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sigma
# ---------------------------------------------------------------------------

def _eigenvalues(args) -> np.ndarray:
    """The eigenvalues of --lambda or of --csv, one row or column; a fault
    names the flag and the entry (1-based) or the file."""
    if args.lam is not None:
        lam = []
        for i, word in enumerate(args.lam.split(","), 1):
            try:
                lam.append(float(word))
            except ValueError:
                lam.append(math.nan)
            if not math.isfinite(lam[-1]):
                raise ValueError(f"--lambda entry {i} must be a finite number, got {word!r}")
        return np.array(lam)
    if args.csv is None:
        raise ValueError("supply eigenvalues with --lambda or --csv")
    try:
        with open(args.csv, errors="replace") as fh:
            table = radial.read_table(fh, ",")
    except ValueError as exc:
        raise ValueError(f"--csv file {args.csv}: {exc}") from None
    if not table.size:
        raise ValueError(f"--csv file {args.csv}: no eigenvalues")
    if min(table.shape) > 1:
        raise ValueError(f"--csv file {args.csv}: a table of {table.shape[0]} rows and "
                         f"{table.shape[1]} columns; give the eigenvalues as one row or column")
    return table.ravel()


def cmd_sigma(args) -> int:
    lam = _eigenvalues(args)
    k = args.k
    if not 1 <= k <= len(lam):
        raise ValueError(f"k={k} out of range for {len(lam)} eigenvalues")
    e = symfunc.sigma_all(lam, k)
    for j in range(1, k + 1):
        if not math.isfinite(e[j]):
            flag = "--lambda" if args.lam is not None else f"--csv file {args.csv}"
            raise ValueError(f"{flag}: sigma_{j} of these eigenvalues overflows a double")
    for j in range(1, k + 1):
        print(f"sigma_{j} = {e[j]:.12g}")
    in_open = symfunc.in_gamma_k(lam, k)
    print(f"in Gamma_{k}: {str(in_open).lower()}")
    n = len(lam)
    if k >= 2 and n >= 3:
        delta = ConeParams(n, k).delta_gv
        print(f"in Sigma_delta (delta={delta:.6g}): "
              f"{str(symfunc.in_sigma_delta(lam, delta)).lower()}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def _supercritical_cone(args) -> ConeParams:
    """The cone of --n and --k, which must have n/2 < k < n, where the paper's
    Harnack and Holder statements hold; a fault names both flags."""
    try:
        cone = ConeParams(args.n, args.k).require_supercritical()
        if cone.k == cone.n:
            raise ValueError("need k < n, where the Harnack and Holder statements hold")
    except ValueError as exc:
        raise ValueError(f"--n {args.n} --k {args.k}: {exc}") from None
    return cone


def cmd_classify(args) -> int:
    _supercritical_cone(args)
    profile = radial.load_profile_csv(args.profile, args.n, args.k)
    try:
        report = radial.classify_singularity(profile)
    except ValueError as exc:
        print(f"classification failed: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    payload = {
        "class": report.klass,
        "C": report.C,
        "alpha_est": report.alpha_est,
        "saturated": report.saturated,
        "diagnostics": report.diagnostics,
        "manifest": _manifest("classify", vars(args)),
    }
    return _print_report(payload, args.out)


# ---------------------------------------------------------------------------
# JSON input files
# ---------------------------------------------------------------------------

_REQUIRED = object()
# Exact types: json.load gives True as a bool, which isinstance counts as an int.
_NUMBER_TYPES = (int, float)


def _is_finite(value) -> bool:
    """A JSON number that a float holds: not NaN, infinite or out of range."""
    return type(value) in _NUMBER_TYPES and abs(value) <= sys.float_info.max


def _pair(value):
    if type(value) is list and len(value) == 2 and all(map(_is_finite, value)):
        return [float(x) for x in value]
    return None


def _table(value):
    if type(value) is list and value and all(
            type(row) is list and len(row) == 2 and type(row[0]) in _NUMBER_TYPES
            and type(row[1]) in _NUMBER_TYPES for row in value):
        try:
            table = np.asarray(value, dtype=float)
        except OverflowError:               # an integer beyond the float range
            return None
        if np.isfinite(table).all():
            return table
    return None


# Kinds of value a key may hold: a description, and a parser that returns the
# value converted, or None when it is not of the kind.
_KINDS = {
    "object": ("a JSON object", lambda v: v if type(v) is dict else None),
    "string": ("a string", lambda v: v if type(v) is str else None),
    "number": ("a finite number", lambda v: float(v) if _is_finite(v) else None),
    "integer": ("an integer", lambda v: v if type(v) is int else None),
    "pair": ("a list of two finite numbers", _pair),
    "table": ("a non-empty list of [r, f] pairs of finite numbers", _table),
}


# Ranges a value may be required to lie in: a description and a test.
_POSITIVE = ("positive", lambda v: v > 0.0)


def _at_least(least):
    return (f"at least {least}", lambda v: v >= least)


class _JSONInput:
    """One JSON input file, read strictly.  Every error names the file and
    the dotted path of the key at fault, such as 'domain.bc' or 'solver.N'."""

    def __init__(self, what: str, path):
        self.where = f"{what} {path}"
        with open(path) as fh:
            self.spec = json.load(fh)

    def fail(self, message: str):
        raise ValueError(f"{self.where}: {message}")

    @staticmethod
    def dotted(name: str, key: str) -> str:
        return f"{name}.{key}" if name else key

    def section(self, obj, name: str, allowed=None):
        """obj, once it is a JSON object holding only keys in allowed (if given)."""
        if not isinstance(obj, dict):
            self.fail(f"key {name!r} must be a JSON object" if name
                      else "top level must be a JSON object")
        for key in obj:
            if allowed is not None and key not in allowed:
                self.fail(f"unknown key {self.dotted(name, key)!r}")
        return obj

    def get(self, obj, name: str, key: str, kind: str, default=_REQUIRED, within=None):
        """obj[key] checked and converted as kind; default when the key is absent.
        within, a (description, test) pair, is the range the value must lie in."""
        if key in obj:
            description, parse = _KINDS[kind]
            value = parse(obj[key])
            if value is None:
                self.fail(f"key {self.dotted(name, key)!r} must be {description}")
        elif default is _REQUIRED:
            self.fail(f"missing key {self.dotted(name, key)!r}")
        else:
            value = default
        if within is not None and not within[1](value):
            self.fail(f"key {self.dotted(name, key)!r} must be {within[0]}, got {value!r}")
        return value


# ---------------------------------------------------------------------------
# solve / continue
# ---------------------------------------------------------------------------

# Keys a problem file may hold, by section; every one of them is read.
_PROBLEM_KEYS = {
    "": {"n", "k", "p", "domain", "rhs", "solver", "continuation"},
    "rhs": {"f_table", "f_const"},
    "solver": {"N", "tol", "max_iter"},
    "continuation": {"delta0", "step", "min_step", "t_start", "t_max", "after_fold_frac"},
}
_DOMAIN_KEYS = {
    "annulus": {"type", "r0", "r1", "bc"},
    "ball": {"type", "r1", "bc"},
    "sphere_constant": {"type"},
}
# Domain radii: their squares, and those of grid spacings and r1/r0, stay normal.
_RADIUS = ("in [1e-50, 1e50]", lambda v: 1e-50 <= v <= 1e50)
# Largest grid, checked before it is allocated.  Past about 10^4 nodes the
# rounding floor eps/h^2 exceeds the O(h^2) truncation error; a (3, 2, 0.5)
# ball solve takes about 1 s and 100 MB at N = 10^5, 5 s and 500 MB at 10^6.
_MAX_N = 10**5


def _load_problem_spec(path, continuation=False):
    """(problem, config, spec) of a problem file; with continuation, the file
    must have p > k, as `continue` needs."""
    src = _JSONInput("problem file", path)
    spec = src.section(src.spec, "", _PROBLEM_KEYS[""])
    get = src.get
    n = get(spec, "", "n", "integer", within=_at_least(3))
    k = get(spec, "", "k", "integer", within=(      # in integers: n / 2 may overflow
        f"in (n/2, n) = ({n // 2}{'.5' if n % 2 else ''}, {n})", lambda v: n < 2 * v < 2 * n))
    cone = ConeParams(n, k)
    # sigma_k_radial multiplies float arrays by ints up to k C(n-1, k-1), which is
    # >= 2^j, j = min(k-1, n-k): past j = 1024 it overflows, and is not computed.
    if min(k - 1, n - k) > 1024 or k * math.comb(n - 1, k - 1) > sys.float_info.max:
        src.fail(f"key 'n': C({n - 1}, {k - 1}) of the radial sigma_k overflows a float")
    # |p| <= 1e6 keeps the sphere's Newton step, about k/|a|, far above the step test.
    p = get(spec, "", "p", "number", within=("in [-1e6, 1e6]", lambda v: abs(v) <= 1e6))
    dom_spec = get(spec, "", "domain", "object")
    kind = get(dom_spec, "domain", "type", "string").lower()
    if kind not in _DOMAIN_KEYS:
        src.fail(f"unknown domain type {kind!r}")
    src.section(dom_spec, "domain", _DOMAIN_KEYS[kind])
    if kind == "annulus":
        r0 = get(dom_spec, "domain", "r0", "number", within=_RADIUS)
        r1 = get(dom_spec, "domain", "r1", "number", within=(
            f"{_RADIUS[0]} and greater than domain.r0 = {r0!r}",
            lambda v: _RADIUS[1](v) and v > r0))
        domain = solver.Annulus(r0, r1, *get(dom_spec, "domain", "bc", "pair"))
    elif kind == "ball":
        domain = solver.Ball(get(dom_spec, "domain", "r1", "number", within=_RADIUS),
                             get(dom_spec, "domain", "bc", "number"))
    else:
        domain = solver.SphereConstant()
    rhs_spec = src.section(get(spec, "", "rhs", "object", {}), "rhs", _PROBLEM_KEYS["rhs"])
    if "f_table" in rhs_spec:
        if "f_const" in rhs_spec:
            src.fail("give 'rhs.f_table' or 'rhs.f_const', not both")
        table = get(rhs_spec, "rhs", "f_table", "table")
        # np.interp needs increasing abscissae and silently misreads others.
        if not np.all(np.diff(table[:, 0]) > 0.0):
            src.fail("key 'rhs.f_table' must have a strictly increasing r column")
        f = lambda r: np.interp(np.asarray(r, dtype=float), table[:, 0], table[:, 1])
    else:
        # The p <= k solvers need f > 0 on the domain.
        f = get(rhs_spec, "rhs", "f_const", "number", 1.0, _POSITIVE if p <= k else None)
    problem = solver.RadialProblem(cone, domain, p, f)
    sconf = src.section(get(spec, "", "solver", "object", {}), "solver", _PROBLEM_KEYS["solver"])
    N = get(sconf, "solver", "N", "integer", 129, (f"at most {_MAX_N}", lambda v: v <= _MAX_N))
    try:
        r = solver.RadialSystem(problem, N).r
    except ValueError as exc:
        src.fail(f"key 'solver.N': {exc}")
    if p <= k and "f_table" in rhs_spec and np.any(problem.f_values(r) <= 0.0):
        src.fail("key 'rhs.f_table' must give f > 0 at every grid node")
    cconf = src.section(get(spec, "", "continuation", "object", {}), "continuation",
                        _PROBLEM_KEYS["continuation"])
    # A null t_start asks for the default start, as an absent one does.
    t_start = None if cconf.get("t_start") is None else get(cconf, "continuation", "t_start",
                                                             "number", within=_POSITIVE)
    config = solver.SolverConfig(
        N=N,
        tol=get(sconf, "solver", "tol", "number", 1e-10, _POSITIVE),
        max_iter=get(sconf, "solver", "max_iter", "integer", 50, _at_least(1)),
        delta0=get(cconf, "continuation", "delta0", "number", 1.0,
                   ("in (0, 1]", lambda v: 0.0 < v <= 1.0)),
        ds0=get(cconf, "continuation", "step", "number", 0.05, _POSITIVE),
        ds_min=get(cconf, "continuation", "min_step", "number", 1e-12, _POSITIVE),
        t_start=t_start,
        t_max=get(cconf, "continuation", "t_max", "number", 10.0, _POSITIVE if t_start is None
                  else (f"greater than continuation.t_start = {t_start!r}",
                        lambda v: v > t_start)),
        after_fold_frac=get(cconf, "continuation", "after_fold_frac", "number", 0.7,
                            ("in (0, 1)", lambda v: 0.0 < v < 1.0)),
    )
    if continuation and not p > k:
        src.fail(f"key 'p' must be greater than k = {k} for continuation, got {p!r}")
    return problem, config, spec


# Residuals within this many rounding floors of zero do not enter the
# observed contraction order: rounding moves a residual by up to about one
# floor, so those above it carry at most 0.1 % noise.
_ORDER_FLOORS = 1e3


def _terminal_order(history, floor):
    """Observed contraction order from the last three residuals above
    _ORDER_FLOORS rounding floors, to two decimals, which is all that three
    residuals tell; None when fewer than three remain or they do not contract."""
    usable = [h for h in history if h > _ORDER_FLOORS * floor]
    if len(usable) < 3:
        return None
    r0, r1, r2 = usable[-3:]
    if r1 >= r0 or r2 >= r1:
        return None
    return round(math.log(r2 / r1) / math.log(r1 / r0), 2)


def cmd_solve(args) -> int:
    problem, config, spec = _load_problem_spec(args.problem)
    n, k, p = problem.cone.n, problem.cone.k, problem.p
    if p > k:
        # Vanishing-floor device: a small delta0 keeps the fold beyond t = 1
        # so both branches cross it; ride back far enough to bracket t = 1.
        cconf = spec.get("continuation", {})
        if "delta0" not in cconf:
            config.delta0 = 1e-3
        if "after_fold_frac" not in cconf:
            config.after_fold_frac = 0.45
    summary = {"n": n, "k": k, "p": p,
               "manifest": _manifest("solve", {"problem": args.problem})}
    system = solver.RadialSystem(problem, config.N)
    try:
        if p < k:
            sol = solver.solve_subcritical(problem, config)
            w = sol.w
            residual, floor = system.residual_floor(w, solver.vpower_rhs(problem.f, n, k, p))
            summary["regime"] = "subcritical"
            summary["newton_iterations"] = sol.iterations
            summary["residual"] = sol.residual
            summary["terminal_order"] = _terminal_order(sol.residual_history, floor)
            summary["floor_limited"] = sol.floor_limited
        elif p == k:
            eig = solver.solve_eigenvalue(problem)
            w = eig.w
            # One node on the sphere: its residual is residual_check.
            residual = [eig.residual_check]
            summary["regime"] = "eigenvalue"
            summary["theta"] = eig.theta
            summary["residual"] = eig.residual_check
        else:
            branch = solver.continuation_supercritical(problem, config)
            sols = branch.solutions_at(1.0)
            if not sols:
                print("no solution found at t = 1 on the computed branch", file=sys.stderr)
                return EXIT_NO_CONVERGENCE
            beta = 0.5 * (n - 2)
            w = max(sols, key=lambda ww: float(np.exp(-beta * ww).max()))
            rhs = solver.ContinuationRHS(problem.cone, p, problem.f, config.delta0)
            residual = system.residual_jacobian(w, rhs, t=1.0)[0]
            summary["regime"] = "supercritical"
            summary["t_star"] = branch.t_star
            summary["solutions_at_t1"] = len(sols)
    except solver.AdmissibilityError as exc:
        print(f"admissibility failure: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except solver.SolverError as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    with np.errstate(over="ignore"):
        exponent = -0.5 * (n - 2) * np.asarray(w)
        v = np.exp(exponent)
    if np.isposinf(v).any():
        raise ValueError(f"problem file {args.problem}: key 'n': v = exp(-(n-2) w/2) = "
                         f"exp({exponent.max():.4g}) of the solution overflows a float")
    with open(args.out_prefix + "_solution.csv", "w") as fh:
        radial.write_csv(fh, ["r", "w", "v", "residual"], [system.r, w, v, residual])
    _write_json(args.out_prefix + "_summary.json", summary)
    print(json.dumps({k: v for k, v in summary.items() if k != "manifest"},
                     sort_keys=True, default=float))
    return EXIT_OK


def cmd_continue(args) -> int:
    problem, config, _ = _load_problem_spec(args.problem, continuation=True)
    try:
        branch = solver.continuation_supercritical(problem, config)
    except solver.SolverError as exc:
        print(f"continuation failed: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    rows_t = [s.t for s in branch.samples]
    rows_d = [s.delta_t for s in branch.samples]
    rows_v = [s.v_probe for s in branch.samples]
    rows_it = [float(s.newton_iters) for s in branch.samples]
    # A fold's t_star is the t of one sample: the refined fold's own sample,
    # or the bracket sample of an unrefined one.
    fold_ts = {f.t_star for f in branch.folds}
    rows_fold = [1.0 if s.t in fold_ts else 0.0 for s in branch.samples]
    with open(args.out_prefix + "_branch.csv", "w") as fh:
        radial.write_csv(fh, ["t", "delta_t", "v_at_probe", "newton_iters", "fold_flag"],
                         [rows_t, rows_d, rows_v, rows_it, rows_fold])
    summary = {
        "t_star": branch.t_star,
        "n_folds": len(branch.folds),
        "fold_refined": [f.refined for f in branch.folds],
        "n_samples": len(branch.samples),
        "termination": branch.termination,
        "manifest": _manifest("continue", {"problem": args.problem}),
    }
    _write_json(args.out_prefix + "_summary.json", summary)
    print(json.dumps({k: v for k, v in summary.items() if k != "manifest"},
                     sort_keys=True, default=float))
    return EXIT_OK


# ---------------------------------------------------------------------------
# envelope / harnack / volume
# ---------------------------------------------------------------------------

def cmd_envelope(args) -> int:
    try:
        center = np.array([float(x) for x in args.center.split(",")])
    except ValueError:
        raise ValueError(f"--center must be comma-separated numbers: {args.center!r}") from None
    if not np.isfinite(center).all():
        raise ValueError("--center must be finite")
    if args.step is not None and not (math.isfinite(args.step) and args.step > 0.0):
        raise ValueError(f"--step must be positive and finite, got {args.step}")
    if (args.n is None) != (args.k is None):
        raise ValueError("--n and --k go together: give both for the viscosity check, or neither")
    cone = None if args.n is None else _supercritical_cone(args)
    field = radial.GridField.load_raw(args.grid)
    lo = field.origin
    hi = field.origin + field.spacing * (np.array(field.values.shape) - 1.0)
    if center.shape != lo.shape or not (np.all(lo < center) and np.all(center < hi)):
        raise ValueError(f"--center {args.center} must be a point strictly inside the "
                         f"{field.dims}-dimensional box of grid file {args.grid}")
    radii = None
    if args.step is not None:
        rmax = float(min((center - lo).min(), (hi - center).min()))
        count = rmax / args.step
        if count > field.values.size:
            raise ValueError(f"--step {args.step} asks for {count:.4g} radii, "
                             f"more than the {field.values.size} grid nodes")
        if rmax < args.step:
            raise ValueError(f"--step {args.step} exceeds the distance {rmax:.4g} "
                             "from --center to the box boundary")
        radii = args.step * np.arange(1, int(count) + 1)
    env = radial.radial_envelope(field, center, radii=radii)
    with open(args.out, "w") as fh:
        radial.write_csv(fh, ["r", "wtilde", "r_attained"], [env.r, env.wtilde, env.r_attained])
    if cone is not None:
        violations = radial.envelope_viscosity_check(env, cone)
        print(f"viscosity check: {len(violations)} violation(s)")
        for v in violations[:10]:
            print(f"  r={v[1]:.6g} {v[2]} margin={v[3]:.3e}")
    return EXIT_OK


def cmd_harnack(args) -> int:
    _supercritical_cone(args)
    if not args.min_sep >= 0.0:
        raise ValueError(f"--min-sep must be a nonnegative number, got {args.min_sep}")
    profile = radial.load_profile_csv(args.profile, args.n, args.k)
    try:
        est = analysis.harnack_from_w_profile(profile, min_sep=args.min_sep)
    except ValueError as exc:
        raise ValueError(f"profile {args.profile}: {exc}") from None
    if est.c_est == -math.inf:
        raise ValueError(f"no two profile nodes are farther apart than --min-sep {args.min_sep}")
    payload = {
        "c_est": est.c_est,
        "alpha": est.alpha,
        "pair": list(est.pair),
        "pair_radii": [float(profile.r[est.pair[0]]), float(profile.r[est.pair[1]])],
        "pairs_scored": est.pairs_scored,
        "manifest": _manifest("harnack", vars(args)),
    }
    return _print_report(payload, args.out)


# Most radii of a volume curve, checked before they are allocated: each
# costs about 0.07 ms, so 10^5 of them take about 7 s.
_MAX_RADII = 10**5
# Keys of every metric file, and the extra keys of each metric kind.
_METRIC_KEYS = {"kind", "n", "mode", "s_min", "s_max", "num", "rho_ref"}
_METRIC_EXTRA_KEYS = {"sphere_stereographic": set(), "euclidean": set(),
                      "fundamental_log": set(), "truncated_log": {"K"}}


def _load_metric_spec(path):
    """(n, w(t), mode, radii, rho_ref) of a metric file for `volume`, read strictly."""
    src = _JSONInput("metric file", path)
    spec = src.section(src.spec, "")
    kind = src.get(spec, "", "kind", "string").lower()
    if kind not in _METRIC_EXTRA_KEYS:
        src.fail(f"unknown metric kind {kind!r}")
    src.section(spec, "", _METRIC_KEYS | _METRIC_EXTRA_KEYS[kind])
    if kind == "sphere_stereographic":
        w = lambda t: math.log((1.0 + t * t) / 2.0)
    elif kind == "euclidean":
        w = lambda t: 0.0
    elif kind == "fundamental_log":
        w = lambda t: 2.0 * math.log(t)
    else:
        K = src.get(spec, "", "K", "number", 2.0)
        w = lambda t: max(2.0 * math.log(t), -K) if t > 0 else -K
    n = src.get(spec, "", "n", "integer", 3, _at_least(3))
    if n > 343:
        src.fail(f"key 'n' must be at most 343, got {n}: the area of the unit sphere "
                 "S^(n-1) overflows a float")
    mode = src.get(spec, "", "mode", "string", "origin",
                   ("'origin' or 'end'", lambda v: v in ("origin", "end")))
    s_min = src.get(spec, "", "s_min", "number", 0.05, _POSITIVE)
    s_max = src.get(spec, "", "s_max", "number", 0.5,
                    (f"greater than s_min = {s_min!r}", lambda v: v > s_min))
    s = np.linspace(s_min, s_max, src.get(spec, "", "num", "integer", 25, (
        f"in [3, {_MAX_RADII}]", lambda v: 3 <= v <= _MAX_RADII)))
    return n, w, mode, s, src.get(spec, "", "rho_ref", "number", 1.0, _POSITIVE)


def cmd_volume(args) -> int:
    n, w, mode, s, rho_ref = _load_metric_spec(args.metric)
    curve = analysis.volume_ratio(w, n, s, mode=mode, rho_ref=rho_ref)
    with open(args.out, "w") as fh:
        radial.write_csv(fh, ["r", "Q"], [curve.r, curve.Q])
    q0, c2 = analysis.fit_volume_expansion(curve)
    ends = analysis.end_count(curve)
    payload = {
        "n": n,
        "mode": mode,
        "q0": q0,
        "quadratic_coefficient": c2,
        "end_count": ends.m,
        "end_ratio": ends.ratio,
        "end_status": ends.status,
        "manifest": _manifest("volume", {"metric": args.metric, "out": args.out}),
    }
    if args.summary:
        _write_json(args.summary, payload)
    print(json.dumps({k: v for k, v in payload.items() if k != "manifest"},
                     sort_keys=True, default=float))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

# Draws per batch of the Gamma_k in Sigma_delta check; about half lie in Gamma_k.
_CONE_BATCH = 4096


def _by_key(draws):
    """{key: [value, ...]} of the (key..., value) draws, keys in first-drawn order."""
    groups = {}
    for *key, value in draws:
        groups.setdefault(tuple(key), []).append(value)
    return groups


def _subset_sums(lams, j):
    """Row-wise (sum of the products, sum of their absolute values) over the
    j-subsets of each row of the (m, n) array lams: (1, 1) for j = 0.  Each
    product and each sum runs left to right in itertools.combinations order,
    as sum(math.prod(c) for c in itertools.combinations(row, j)) does."""
    if j == 0:
        return np.ones(len(lams)), np.ones(len(lams))
    subsets = np.array(list(itertools.combinations(range(lams.shape[1]), j))).T
    products = np.multiply.accumulate(lams.T[subsets], axis=0)[-1]
    return (np.add.accumulate(products, axis=0)[-1],
            np.add.accumulate(np.abs(products), axis=0)[-1])


def _abs_max(S):
    """max |S_ij| of each matrix of a stack."""
    return np.abs(S).max(axis=(-2, -1))


def _verify_checks(seed: int):
    """Deterministic identity/property suite; yields (name, passed, detail).
    tests/test_acceptance.py asserts every check over seeds 0-24.

    The sampled checks draw one sample at a time, in a fixed order, and then
    evaluate each group of samples of one shape (such as one (n, k)) as a
    stack; the stacked routes give each sample the bits it gets alone."""
    rng = np.random.default_rng(seed)

    # 1. sigma recurrence vs subset enumeration, lambda scaled by U(0.5, 2)
    draws = []
    for _ in range(400):
        n = int(rng.integers(2, 9))
        lam = rng.normal(size=n) * rng.uniform(0.5, 2.0)
        draws.append((n, int(rng.integers(0, n + 1)), lam))
    worst = 0.0
    for (n, j), lams in _by_key(draws).items():
        recurrence = np.array([symfunc.sigma(lam, j) for lam in lams])
        brute, scale = _subset_sums(np.array(lams), j)
        worst = max(worst, float((np.abs(recurrence - brute) / np.maximum(1.0, scale)).max()))
    yield "sigma recurrence vs enumeration", worst <= 1e-12, f"max rel diff {worst:.2e}"

    # 2. gradient vs deletion oracle: sigma_{k-1} of each lambda without entry i
    draws = []
    for _ in range(100):
        n = int(rng.integers(2, 8))
        lam = rng.normal(size=n)
        draws.append((n, int(rng.integers(1, n + 1)), lam))
    worst = 0.0
    for (n, k), lams in _by_key(draws).items():
        grads = np.array([symfunc.sigma_gradient(lam, k) for lam in lams])
        others = np.arange(n - 1) + (np.arange(n - 1) >= np.arange(n)[:, None])
        oracle = symfunc.sigma(np.array(lams)[:, others], k - 1)
        worst = max(worst, float(np.abs(grads - oracle).max()))
    yield "sigma gradient vs deletion oracle", worst <= 1e-12, f"max diff {worst:.2e}"

    # 3. cone embedding Gamma_k in Sigma_delta: the first 10000 draws that lie
    # in Gamma_k, drawn and tested in batches (n in 3..6, k in 2..n,
    # lambda = N(0, 1)^n + U(0, 1.5))
    delta = np.zeros((7, 7))
    for n in range(3, 7):
        delta[n, 2:n + 1] = [ConeParams(n, k).delta_gv for k in range(2, n + 1)]
    bad = 0
    count = 0
    while count < 10000:
        ns = rng.integers(3, 7, size=_CONE_BATCH)
        ks = rng.integers(2, ns + 1)
        lams = rng.normal(size=(_CONE_BATCH, 6)) + rng.uniform(0, 1.5, size=(_CONE_BATCH, 1))
        in_gamma = np.zeros(_CONE_BATCH, dtype=bool)
        outside = np.zeros(_CONE_BATCH, dtype=bool)
        for n in range(3, 7):
            rows = np.flatnonzero(ns == n)
            k, batch = ks[rows], lams[rows, :n]
            gamma = symfunc.in_gamma_k(batch, k)
            in_gamma[rows] = gamma
            outside[rows] = gamma & ~symfunc.in_sigma_delta(batch, delta[n, k])
        first = np.flatnonzero(in_gamma)[:10000 - count]
        count += len(first)
        bad += int(outside[first].sum())
    yield "Gamma_k in Sigma_delta embedding", bad == 0, f"{bad} failures / 10000"

    # 4. orthogonal invariance of sigma_of_matrix
    draws = []
    for _ in range(60):
        n = int(rng.integers(2, 7))
        S = rng.normal(size=(n, n))
        Z = rng.normal(size=(n, n))
        draws.append((n, int(rng.integers(1, n + 1)), (S, Z)))
    worst = 0.0
    for (n, k), pairs in _by_key(draws).items():
        S, Z = (np.array(x) for x in zip(*pairs))
        S = 0.5 * (S + S.swapaxes(-1, -2))
        Q, _ = np.linalg.qr(Z)
        s1 = symfunc.sigma_of_matrix(S, k)
        s2 = symfunc.sigma_of_matrix(Q @ S @ Q.swapaxes(-1, -2), k)
        worst = max(worst, float((np.abs(s1 - s2) / np.maximum(1.0, np.abs(s1))).max()))
    yield "sigma_of_matrix orthogonal invariance", worst <= 1e-10, f"max rel diff {worst:.2e}"

    # 5. arrow minor identity: diagonal d, last column e above the diagonal
    draws = []
    for _ in range(300):
        n = int(rng.integers(2, 7))
        d = rng.normal(size=n)
        e = rng.normal(size=n - 1)
        draws.append((n, int(rng.integers(1, n + 1)), (d, e)))
    worst = 0.0
    for (n, k), arrows in _by_key(draws).items():
        d, e = (np.array(x) for x in zip(*arrows))
        S = np.zeros((len(d), n, n))
        S[:, range(n), range(n)] = d
        S[:, :-1, -1] = S[:, -1, :-1] = e
        worst = max(worst, float(symfunc.bordered_minor_identity_residual(S, k).max()))
    yield "bordered minor identity", worst <= 1e-10, f"max residual {worst:.2e}"

    # 6. gauge round trips and identities, one stack of jets per (n, background)
    draws = []
    for _ in range(200):
        n = int(rng.integers(3, 6))
        sphere = int(rng.integers(2))
        H = rng.normal(size=(n, n))
        draws.append((n, sphere, (float(rng.normal()), rng.normal(size=n), H)))
    worst_rt = worst_v = worst_u = 0.0
    for (n, sphere), jets in _by_key(draws).items():
        bg = [conformal.Background.flat(n), conformal.Background.round_sphere(n)][sphere]
        w, g, H = (np.array(x) for x in zip(*jets))
        jet = conformal.ConformalJet(conformal.Gauge.W, w, g, 0.5 * (H + H.swapaxes(-1, -2)), bg)
        ju = conformal.convert_gauge(jet, conformal.Gauge.U)
        jv = conformal.convert_gauge(jet, conformal.Gauge.V)
        back = conformal.convert_gauge(conformal.convert_gauge(ju, conformal.Gauge.CHI),
                                       conformal.Gauge.W)
        worst_rt = max(worst_rt, float(np.abs(back.value - jet.value).max()),
                       float(np.abs(back.hess - jet.hess).max()))
        W = conformal.matrix_W(jet)
        V = conformal.matrix_V(jv)
        U = conformal.matrix_U(ju)
        vW = (0.5 * (n - 2) * jv.value)[:, None, None] * W
        worst_v = max(worst_v, float((_abs_max(V - vW) / np.maximum(1.0, _abs_max(V))).max()))
        # math.exp, one jet at a time: numpy's exp may differ in the last bit
        ewW = np.array([math.exp(x) for x in jet.value.tolist()])[:, None, None] * W
        worst_u = max(worst_u, float((_abs_max(U - ewW) / np.maximum(1.0, _abs_max(U))).max()))
    yield "gauge round trips", worst_rt <= 1e-12, f"max diff {worst_rt:.2e}"
    yield "V = (n-2)/2 v W identity", worst_v <= 1e-12, f"max rel diff {worst_v:.2e}"
    yield "U = e^w W identity", worst_u <= 1e-12, f"max rel diff {worst_u:.2e}"

    # 7. Kelvin involution
    r = np.geomspace(0.3, 3.0, 40)
    v = np.exp(rng.normal(size=40) * 0.1) + 0.5
    s, vs = conformal.kelvin_transform(r, v, 4)
    r2, v2 = conformal.kelvin_transform(s, vs, 4)
    err = max(np.abs(r2 - r).max(), np.abs(v2 - v).max() / np.abs(v).max())
    yield "Kelvin involution", err <= 1e-12, f"max rel diff {err:.2e}"

    # 8. radial factorization vs matrix route, (a, b) scaled by U(0.5, 2)
    draws = []
    for _ in range(400):
        n = int(rng.integers(3, 7))
        k = int(rng.integers(1, n + 1))
        draws.append((n, k, rng.normal(size=2) * rng.uniform(0.5, 2.0)))
    worst = 0.0
    for (n, k), pairs in _by_key(draws).items():
        a, b = np.array(pairs).T
        direct = radial.sigma_k_radial(radial.RadialAB(a, b), ConeParams(n, k))
        spectra = np.zeros((len(a), n, n))
        spectra[:, range(n - 1), range(n - 1)] = b[:, None]
        spectra[:, -1, -1] = a
        mat = symfunc.sigma_of_matrix(spectra, k)
        worst = max(worst, float((np.abs(direct - mat) / np.maximum(1.0, np.abs(mat))).max()))
    yield "radial sigma_k vs matrix route", worst <= 1e-12, f"max rel diff {worst:.2e}"

    # 9. fundamental singular solution w = 2 log r (+ C)
    dw, d2w = (lambda t: 2.0 / t), (lambda t: -2.0 / t**2)
    p = radial.RadialProfile.from_callables(np.geomspace(0.1, 10.0, 200), 3, 2,
                                            lambda t: 2 * np.log(t), dw, d2w)
    ab = radial.ab_reduce(p)
    sig = radial.sigma_k_radial(ab, p.cone)
    errs = max(np.abs(ab.a).max(), np.abs(ab.b).max(), np.abs(sig).max())
    rep = radial.classify_singularity(radial.RadialProfile.from_callables(
        radial.geometric_grid(1.0, 1e-6), 3, 2, lambda t: 2 * np.log(t) + 5.0, dw, d2w))
    ok = errs <= 1e-12 and rep.klass == "fundamental" and abs(rep.C - 5.0) <= 1e-10
    # r w' = 2 is monotone, and the curvature matrix W of its jets vanishes
    ok &= radial.check_rw_monotone(p)
    for t in p.r[::50]:
        jet = conformal.jet_from_radial(conformal.Gauge.W, t, 2 * math.log(t), dw(t), d2w(t),
                                        conformal.Background.flat(3))
        ok &= bool(np.abs(conformal.matrix_W(jet)).max() * t**2 <= 1e-12)
    yield "fundamental solution a=b=sigma=0 and classify", ok, f"max {errs:.2e}, C err {abs(rep.C - 5.0):.2e}"

    # 10. barrier u0 = r^(2-n/k): its Laplacian and radial eigenvalue are
    # fixed multiples of r^(-n/k), and the Pucci operator annihilates it, as
    # the p-Laplacian of the p-reduction does (w = ln u0; ratio scaled by r^2)
    worst_lap = worst_rad = worst = worst_p = 0.0
    for (n, k) in [(3, 2), (4, 3), (5, 3), (5, 4)]:
        rr = np.geomspace(1e-3, 1.0, 80)
        _, rad, tan = analysis.holder_barrier(rr, n, k)
        worst_lap = max(worst_lap, np.abs((rad + (n - 1) * tan) * rr ** (n / k)
                                          - n * (k - 1) * (2 * k - n) / k**2).max())
        worst_rad = max(worst_rad, np.abs(rad * rr ** (n / k) + (2 * k - n) * (n - k) / k**2).max())
        delta = analysis.pucci_delta(n, k)
        alpha = 2.0 - n / k
        for i in range(len(rr)):
            P = analysis.pucci_min([rad[i]] + [tan[i]] * (n - 1), delta)
            worst = max(worst, abs(P) / rr[i] ** (alpha - 2.0))
        ratio = analysis.p_laplacian_check(radial.RadialProfile.from_callables(
            rr, n, k, lambda t: alpha * np.log(t), lambda t: alpha / t,
            lambda t: -alpha / t**2))
        worst_p = max(worst_p, np.abs(ratio * rr**2).max())
    ok = worst_lap <= 1e-10 and worst_rad <= 1e-10 and worst <= 1e-12 and worst_p <= 1e-12
    yield "Pucci annihilates the barrier", ok, (
        f"Laplacian {worst_lap:.2e}, radial {worst_rad:.2e}, max scaled |P| {worst:.2e}")

    # 11. volume diagnostics: the stereographic sphere's curve; annuli of the
    # fundamental metric w = 2 log r, of volume (omega/3)(r1^-3 - r2^-3), within
    # 1e-8 relative but (0.1, 0.5) within 1e-6 absolute; and its one end
    s = np.linspace(0.05, 0.5, 20)
    curve = analysis.volume_ratio(lambda t: math.log((1 + t * t) / 2), 3, s)
    _, c2 = analysis.fit_volume_expansion(curve)
    w_log = lambda t: 2 * math.log(t)
    ok = abs(c2 + 0.2) <= 0.01 and np.all(np.diff(curve.Q) <= 1e-6)
    vol_err = 0.0
    for r1, r2 in [(0.1, 0.5), (0.2, 2.0), (0.05, 0.3)]:
        exact = analysis.sphere_area(3) / 3 * (r1**-3 - r2**-3)
        rel = abs(analysis.annulus_volume(w_log, r1, r2, 3) / exact - 1.0)
        ok &= rel <= (1e-6 / exact if r1 == 0.1 else 1e-8)
        vol_err = max(vol_err, rel)
    ends = analysis.end_count(analysis.volume_ratio(w_log, 3, np.linspace(5.0, 900.0, 25),
                                                    mode="end", rho_ref=0.5))
    ok &= ends.m == 1 and ends.status == "converged"
    yield "volume curve and annulus volume", ok, (
        f"c2 {c2:.4f}, annulus rel err {vol_err:.2e}, {ends.m} end ({ends.status})")

    # 12. sphere: theta(3,2) = 3/16 and theta(4,3) = 1/2 to one ulp; the (3,2,4)
    # fold t* = 3/32 to four ulps, and at t = 0.9 t* the two solutions v = e^(-w/2) of
    # A v^2 = t (1 + v^4), A = 3/16: v^2 = (A -+ sqrt(A^2 - 4 t^2)) / (2 t)
    ulps = []
    for n, k, theta in [(3, 2, 3 / 16), (4, 3, 0.5)]:
        eig = solver.solve_eigenvalue(solver.RadialProblem(
            ConeParams(n, k), solver.SphereConstant(), p=float(k), f=1.0))
        ulps.append(abs(eig.theta - theta) / math.ulp(theta))
    prob4 = solver.RadialProblem(ConeParams(3, 2), solver.SphereConstant(), p=4.0, f=1.0)
    br = solver.continuation_supercritical(
        prob4, solver.SolverConfig(N=1, ds0=0.02, t_start=0.005, after_fold_frac=0.6))
    t_err = abs(br.t_star - 3 / 32) if br.t_star is not None else math.inf
    A, t = 3 / 16, 0.9 * 3 / 32
    exact = [math.sqrt((A + sign * math.sqrt(A * A - 4 * t * t)) / (2 * t)) for sign in (-1, 1)]
    sols = sorted(math.exp(-0.5 * w[0]) for w in br.solutions_at(t))
    sol_err = max(abs(x - y) for x, y in zip(sols, exact)) if len(sols) == 2 else math.inf
    ok = max(ulps) <= 1 and t_err <= 4 * math.ulp(3 / 32) and sol_err <= 1e-8
    # the Schouten eigenvalues of the round sphere (w = 0) are all 1/2
    for n in (3, 4):
        jet = conformal.ConformalJet(conformal.Gauge.W, 0.0, np.zeros(n), np.zeros((n, n)),
                                     conformal.Background.round_sphere(n))
        ok &= bool(np.abs(conformal.schouten_eigenvalues(jet) - 0.5).max() <= 1e-15)
    yield "scalar eigenvalue and fold", ok, (
        f"theta err {ulps[0]:g} and {ulps[1]:g} ulp, t* err {t_err:.2e}, "
        f"{len(sols)} solutions at 0.9 t* within {sol_err:.2e}")

    # 13. Holder exponent: the classifier recovers 2 - n/k within 2% for (3,2)
    # and (5,3)
    details = []
    ok = True
    for (n, k) in [(3, 2), (5, 3)]:
        theta = (n - k) / k
        c = 0.5
        p = radial.RadialProfile.from_callables(
            radial.geometric_grid(1.0, 1e-6), n, k,
            lambda t: c / (1 - theta) * t ** (1 - theta),
            lambda t: c * t ** (-theta),
            lambda t: -c * theta * t ** (-theta - 1))
        rep = radial.classify_singularity(p)
        alpha = 2.0 - n / k
        err = abs(rep.alpha_est - alpha) / alpha if rep.klass == "holder" else math.inf
        ok &= rep.klass == "holder" and err <= 0.02
        details.append(f"({n},{k}): alpha {rep.alpha_est:.4f} vs {alpha:.4f}")
    yield "Holder exponent", ok, "; ".join(details)

    # 14. Harnack ratio: constant across scales for the Holder family,
    # divergent for the singular family
    cone = ConeParams(3, 2)
    c, theta = 0.6, 0.5
    expected = 2 * c / (1 - theta)
    estimates = []
    for R in (0.01, 0.1, 1.0):
        r = np.geomspace(1e-8, R, 80)
        chi = np.exp(-2 * (c / (1 - theta)) * r ** (1 - theta))
        estimates.append(analysis.harnack_ratio(r, chi, cone).c_est)
    spread = max(abs(e - expected) / expected for e in estimates)
    singular = []
    for rmin in (1e-2, 1e-3, 1e-4):
        r = np.geomspace(rmin, 1.0, 60)
        singular.append(analysis.harnack_ratio(r, r**-4.0, cone).c_est)
    diverges = singular[1] > 2.0 * singular[0] and singular[2] > 2.0 * singular[1]
    yield "Harnack ratio", spread <= 0.03 and diverges, (
        f"family spread {spread:.3%}; singular estimates "
        + " -> ".join(f"{x:.0f}" for x in singular))


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    failures = 0
    for name, passed, detail in _verify_checks(args.seed):
        print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
        failures += not passed
    print(f"{'all checks passed' if failures == 0 else f'{failures} check(s) failed'}")
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="khessian",
        description="Cone algebra, radial diagnostics, and continuation solvers "
                    "for conformal k-Hessian equations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sigma", help="evaluate sigma_1..sigma_k and cone membership")
    p.add_argument("--lambda", dest="lam", help="comma-separated eigenvalues")
    p.add_argument("--csv", help="file with eigenvalues (one row or column)")
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("classify", help="classify a radial profile near r -> 0")
    p.add_argument("--profile", required=True, help="CSV with columns r,w[,dw,d2w]")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", help="write the report JSON here")

    p = sub.add_parser("solve", help="solve a radial problem (p < k, p = k, or p > k)")
    p.add_argument("--problem", required=True, help="problem JSON")
    p.add_argument("--out-prefix", required=True)

    p = sub.add_parser("continue", help="supercritical continuation with fold detection")
    p.add_argument("--problem", required=True, help="problem JSON")
    p.add_argument("--out-prefix", required=True)

    p = sub.add_parser("envelope", help="radial envelope of a grid field")
    p.add_argument("--grid", required=True,
                   help="grid file: an archive from GridField.save_raw, or text")
    p.add_argument("--center", required=True, help="comma-separated coordinates")
    p.add_argument("--step", type=float, help="radial step (default: grid spacing)")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--out", required=True)

    p = sub.add_parser("harnack", help="empirical Harnack constant of a profile")
    p.add_argument("--profile", required=True, help="CSV with columns r,w[,dw,d2w]")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--min-sep", type=float, default=0.0)
    p.add_argument("--out")

    p = sub.add_parser("volume", help="volume-ratio curve of a radial metric")
    p.add_argument("--metric", required=True, help="metric JSON")
    p.add_argument("--out", required=True, help="CSV output (r, Q)")
    p.add_argument("--summary", help="JSON summary output")

    p = sub.add_parser("verify", help="run the identity/property suite")
    p.add_argument("--seed", type=int, default=0)

    return parser


def _check_outputs(args):
    """Refuse, before any computation, an output flag whose directory is
    missing, or a file flag that names a directory."""
    for flag in ("out_prefix", "out", "summary"):
        path = getattr(args, flag, None)
        if path is None:
            continue
        name, folder = "--" + flag.replace("_", "-"), os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            raise ValueError(f"{name} {path}: {folder} is not a directory")
        if flag != "out_prefix" and (not path or os.path.isdir(path)):
            raise ValueError(f"{name} {path!r} names a directory, not a file")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  It names the subcommand only:
    main looks up its cmd_* function when it runs, so a rebinding of that
    name after the parser was built is seen."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else EXIT_OK
    # argparse turns an option value of exactly "--" into an empty list.
    if [] in vars(args).values():
        print("error: '--' is not a value of any option", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        _check_outputs(args)
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
