"""The four workloads: seeded inputs, the operations of one pass, and checks.

A workload writes its inputs (problem JSON, profiles, grid files) into a run
directory, warms up, then runs whole passes of the same operations.  The
operations call the CLI (khessian.cli.main, in-process) on those files, or
the public solver and analysis calls.  Checks run after each pass, outside
the timed region, against the computations in oracles.py or against
properties the method must have.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

import oracles
from khessian import analysis, cli, radial, solver
from khessian.symfunc import ConeParams


class OperationFailed(Exception):
    """An operation ended without a result; the message gives the reason."""


def run_cli(argv) -> str:
    """khessian.cli.main in-process; returns stdout, raises on a non-zero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        lines = [ln for ln in err.getvalue().splitlines() if "Warning" not in ln]
        raise OperationFailed(f"{argv[0]} exited {code}: {lines[-1] if lines else ''}")
    return out.getvalue()


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)


def _read_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _rel(a, b) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


class Workload:
    """One benchmark workload.  Subclasses fill in the five steps."""

    name = ""

    def __init__(self, run_dir: str, seed: int, smoke: bool):
        self.dir = run_dir
        self.seed = seed
        self.smoke = smoke

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def rng(self):
        return np.random.default_rng([self.seed, sum(map(ord, self.name))])

    def setup(self):
        """Write every input file of the workload into the run directory."""

    def warm_up(self):
        """Small calls that load lazy imports and caches before timing."""

    def prepare(self) -> list:
        """Untimed: load inputs and compute oracles.  Returns check failures."""
        return []

    def operations(self) -> list:
        """[(label, callable)] for one pass; each callable returns its output."""
        raise NotImplementedError

    def check(self, results: dict) -> list:
        """Check the outputs of one pass (label -> output of the operations
        that did not fail).  Returns a list of failure descriptions."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# annulus_fold
# ---------------------------------------------------------------------------

def _manufactured_w(r):
    return 1.6 * np.sqrt(r)


ANNULUS = {"n": 3, "k": 2, "p": 4.0, "r0": 0.5, "r1": 2.0}
ANNULUS_CONTINUATION = {"delta0": 1.0, "step": 0.02, "t_start": 1e-3,
                        "t_max": 50.0, "after_fold_frac": 0.7}


def annulus_spec(N: int) -> dict:
    a = ANNULUS
    return {"n": a["n"], "k": a["k"], "p": a["p"],
            "domain": {"type": "annulus", "r0": a["r0"], "r1": a["r1"],
                       "bc": [float(_manufactured_w(a["r0"])), float(_manufactured_w(a["r1"]))]},
            "rhs": {"f_const": 1.0},
            "solver": {"N": N},
            "continuation": dict(ANNULUS_CONTINUATION)}


class AnnulusFold(Workload):
    """`khessian continue` through the fold of the (3,2,4) annulus problem."""

    name = "annulus_fold"

    def sizes(self):
        return (24, 48, 96) if self.smoke else (96, 192, 384)

    def setup(self):
        # The problem files do not depend on the seed; it only orders the calls.
        for N in self.sizes() + (16,):
            _write_json(self.path(f"annulus_N{N}.json"), annulus_spec(N))
        self.order = [int(N) for N in self.rng().permutation(self.sizes())]

    def _continue(self, N):
        return run_cli(["continue", "--problem", self.path(f"annulus_N{N}.json"),
                        "--out-prefix", self.path(f"annulus_N{N}")])

    def warm_up(self):
        self._continue(16)

    def operations(self):
        return [(f"continue N={N}", lambda N=N: self._continue(N)) for N in self.order]

    def prepare(self):
        """Fold state of the smallest size through the public solver call."""
        N = self.sizes()[0]
        a = ANNULUS
        c = ANNULUS_CONTINUATION
        problem = solver.RadialProblem(
            ConeParams(a["n"], a["k"]),
            solver.Annulus(a["r0"], a["r1"], float(_manufactured_w(a["r0"])),
                           float(_manufactured_w(a["r1"]))),
            a["p"], 1.0)
        config = solver.SolverConfig(N=N, delta0=c["delta0"], ds0=c["step"],
                                     t_start=c["t_start"], t_max=c["t_max"],
                                     after_fold_frac=c["after_fold_frac"])
        branch = solver.continuation_supercritical(problem, config)
        failures = []
        if len(branch.folds) != 1:
            return [f"public continuation at N={N}: {len(branch.folds)} folds"]
        fold = branch.folds[0]
        self.api_t_star = fold.t_star
        resid = lambda w, t: oracles.annulus_fold_residual(
            w, t, a["r0"], a["r1"], float(_manufactured_w(a["r0"])),
            float(_manufactured_w(a["r1"])), a["n"], a["k"], a["p"])
        worst = float(np.abs(resid(fold.w_star, fold.t_star)).max())
        if worst > 1e-9:
            failures.append(f"fold state at N={N}: independent residual {worst:.3e}")
        # Near-singular at the fold: compare with a state at half the fold parameter.
        inner = [s for s in branch.samples if s.t < 0.5 * fold.t_star][-1]
        smin = lambda w, t: np.linalg.svd(oracles.fd_jacobian(lambda x: resid(x, t), w),
                                          compute_uv=False)[-1]
        at_fold, inside = smin(fold.w_star, fold.t_star), smin(inner.w, inner.t)
        if not at_fold < 1e-2 * inside:
            failures.append(f"fold Jacobian at N={N} not near-singular: smallest singular "
                            f"value {at_fold:.3e} vs {inside:.3e} inside")
        return failures

    def check(self, results):
        failures = []
        t_star = {}
        for N in self.sizes():
            if f"continue N={N}" not in results:
                continue
            with open(self.path(f"annulus_N{N}_summary.json")) as fh:
                summary = json.load(fh)
            rows = _read_csv(self.path(f"annulus_N{N}_branch.csv"))
            ts = summary["t_star"]
            if summary["n_folds"] != 1 or summary["termination"] != "fold crossed":
                failures.append(f"N={N}: {summary['n_folds']} folds, {summary['termination']}")
                continue
            if _rel(rows[:, 0].max(), ts) > 1e-12:
                failures.append(f"N={N}: largest t {rows[:, 0].max()!r} is not t* {ts!r}")
            flagged = rows[rows[:, 4] == 1.0, 0]
            if len(flagged) != 1 or _rel(flagged[0], ts) > 1e-12:
                failures.append(f"N={N}: fold row does not carry t*")
            t_star[N] = ts
        sizes = self.sizes()
        if len(t_star) == len(sizes):
            gaps = [abs(t_star[b] - t_star[a]) for a, b in zip(sizes, sizes[1:])]
            if not gaps[1] < gaps[0]:
                failures.append(f"t* gap does not shrink as N doubles: {gaps}")
            if _rel(t_star[sizes[0]], self.api_t_star) > 1e-12:
                failures.append("CLI and public call disagree on t*")
        return failures


# ---------------------------------------------------------------------------
# banded_newton
# ---------------------------------------------------------------------------

def _quartic(c2, c4):
    w = lambda r: c2 * r**2 + c4 * r**4
    dw = lambda r: 2 * c2 * r + 4 * c4 * r**3
    d2w = lambda r: 2 * c2 + 12 * c4 * r**2
    return w, dw, d2w


def _sigma2_of(w, dw, d2w):
    """sigma_2 (n = 3) of the exact radial factor, as a function of r."""
    def sig(r):
        r = np.asarray(r, dtype=float)
        a = d2w(r) + 0.5 * dw(r) ** 2
        b = dw(r) / r - 0.5 * dw(r) ** 2
        return oracles.radial_sigma_k(a, b, 3, 2)
    return sig


class BandedNewton(Workload):
    """Newton solves whose linear algebra is banded or scalar."""

    name = "banded_newton"
    ANNULUS_W = (_manufactured_w, lambda r: 0.8 / np.sqrt(r), lambda r: -0.4 * r**-1.5)
    BALL_W = _quartic(0.4, 0.1)
    SPHERE_P_EQ_K = ((3, 2), (4, 3), (5, 3), (5, 4))
    SPHERE_CONTINUE = ((3, 2, 4.0), (4, 3, 5.0), (5, 3, 4.0), (5, 4, 6.0))

    def newton_sizes(self):
        return (64, 128, 256, 512, 1024) if self.smoke else (64, 128, 256, 512, 1024, 2048, 4096)

    def ball_sizes(self):
        return (32, 64) if self.smoke else (128, 256, 512)

    def setup(self):
        rng = self.rng()
        # Ball p < k files: a seeded quartic w = c2 r^2 + c4 r^4, f tabulated from it.
        self.ball_w = _quartic(float(rng.uniform(0.35, 0.45)), float(rng.uniform(0.08, 0.12)))
        r_tab = np.linspace(1e-4, 1.0, 2000)
        w, _, _ = self.ball_w
        n, k, p = 3, 2, 0.5
        f_tab = _sigma2_of(*self.ball_w)(r_tab) * np.exp(-0.5 * (n - 2) * (k - p) * w(r_tab)) \
            / oracles.wgauge_power(n, k)
        self.f_table = [[float(x), float(y)] for x, y in zip(r_tab, f_tab)]
        for N in self.ball_sizes():
            _write_json(self.path(f"ball_N{N}.json"), {
                "n": n, "k": k, "p": p, "domain": {"type": "ball", "r1": 1.0, "bc": float(w(1.0))},
                "rhs": {"f_table": self.f_table}, "solver": {"N": N}})
        # Sphere files with a seeded constant f.
        self.f_eig = {nk: float(rng.uniform(0.5, 2.0)) for nk in self.SPHERE_P_EQ_K}
        for (n, k), f in self.f_eig.items():
            _write_json(self.path(f"sphere_eig_{n}{k}.json"), {
                "n": n, "k": k, "p": float(k), "domain": {"type": "sphere_constant"},
                "rhs": {"f_const": f}, "solver": {"N": 1}})
        self.f_cont = {nkp: float(rng.uniform(0.5, 2.0)) for nkp in self.SPHERE_CONTINUE}
        for (n, k, p), f in self.f_cont.items():
            _write_json(self.path(f"sphere_cont_{n}{k}.json"), {
                "n": n, "k": k, "p": p, "domain": {"type": "sphere_constant"},
                "rhs": {"f_const": f}, "solver": {"N": 1},
                "continuation": {"step": 0.02, "t_start": 0.005, "after_fold_frac": 0.6}})
        # The manufactured Newton problems are fixed: their fine-grid failures
        # are a known fault and must not depend on the seed.
        self.manufactured = {}
        for dom, exact in (("annulus", self.ANNULUS_W), ("ball", self.BALL_W)):
            if dom == "annulus":
                domain = solver.Annulus(0.5, 2.0, float(exact[0](0.5)), float(exact[0](2.0)))
            else:
                domain = solver.Ball(1.0, float(exact[0](1.0)))
            sig = _sigma2_of(*exact)
            f = lambda r, sig=sig, w=exact[0]: sig(r) * np.exp(-w(np.asarray(r, dtype=float)))
            self.manufactured[dom] = (solver.RadialProblem(ConeParams(3, 2), domain, p=0.0, f=None),
                                      solver.ExpRHS(f, 1.0), exact[0])

    def warm_up(self):
        problem, rhs, _ = self.manufactured["annulus"]
        solver.newton_solve(problem, rhs, solver.SolverConfig(N=32))
        run_cli(["solve", "--problem", self.path("sphere_eig_32.json"),
                 "--out-prefix", self.path("warm")])

    def _newton(self, dom, N):
        problem, rhs, _ = self.manufactured[dom]
        return solver.newton_solve(problem, rhs, solver.SolverConfig(N=N)).w

    def operations(self):
        ops = [(f"newton {dom} N={N}", lambda d=dom, N=N: self._newton(d, N))
               for dom in ("annulus", "ball") for N in self.newton_sizes()]
        ops += [(f"solve ball N={N}", lambda N=N: run_cli(
            ["solve", "--problem", self.path(f"ball_N{N}.json"),
             "--out-prefix", self.path(f"ball_N{N}")])) for N in self.ball_sizes()]
        ops += [(f"solve sphere p=k {n}{k}", lambda n=n, k=k: run_cli(
            ["solve", "--problem", self.path(f"sphere_eig_{n}{k}.json"),
             "--out-prefix", self.path(f"sphere_eig_{n}{k}")])) for n, k in self.SPHERE_P_EQ_K]
        ops += [(f"continue sphere {n}{k}", lambda n=n, k=k: run_cli(
            ["continue", "--problem", self.path(f"sphere_cont_{n}{k}.json"),
             "--out-prefix", self.path(f"sphere_cont_{n}{k}")]))
            for n, k, _ in self.SPHERE_CONTINUE]
        return ops

    def check(self, results):
        failures = []
        for dom in ("annulus", "ball"):
            _, _, exact = self.manufactured[dom]
            errs = {}
            for N in self.newton_sizes():
                w = results.get(f"newton {dom} N={N}")
                if w is not None:
                    r = np.linspace(0.5, 2.0, N) if dom == "annulus" else oracles.ball_grid(1.0, N)
                    errs[N] = float(np.abs(w - exact(r)).max())
            for N in errs:
                if 2 * N in errs:
                    order = math.log2(errs[N] / errs[2 * N])
                    if not 1.7 <= order <= 2.3:
                        failures.append(f"newton {dom}: order {order:.3f} from N={N} to {2 * N}")
        w_exact = self.ball_w[0]
        for N in self.ball_sizes():
            if f"solve ball N={N}" not in results:
                continue
            rows = _read_csv(self.path(f"ball_N{N}_solution.csv"))
            r, w = rows[:, 0], rows[:, 1]
            if np.abs(r - oracles.ball_grid(1.0, N)).max() > 1e-12:
                failures.append(f"ball N={N}: grid differs from r_i = (i + 1/2) h")
            res = oracles.ball_residual(w, 1.0, float(w_exact(1.0)), 3, 2, 0.5, self.f_table)
            if np.abs(res).max() > 1e-8:
                failures.append(f"ball N={N}: independent residual {np.abs(res).max():.3e}")
            if np.abs(w - w_exact(r)).max() > 5e-3:
                failures.append(f"ball N={N}: error {np.abs(w - w_exact(r)).max():.3e}")
        for n, k in self.SPHERE_P_EQ_K:
            out = results.get(f"solve sphere p=k {n}{k}")
            if out is not None:
                theta = json.loads(out.strip().splitlines()[-1])["theta"]
                want = oracles.sphere_eigenvalue(n, k, self.f_eig[(n, k)])
                if _rel(theta, want) > 1e-9:
                    failures.append(f"sphere ({n},{k}): theta {theta!r}, closed form {want!r}")
        for n, k, p in self.SPHERE_CONTINUE:
            out = results.get(f"continue sphere {n}{k}")
            if out is not None:
                summary = json.loads(out.strip().splitlines()[-1])
                want = oracles.sphere_fold(n, k, p, self.f_cont[(n, k, p)])
                if summary["n_folds"] != 1 or _rel(summary["t_star"], want) > 1e-9:
                    failures.append(f"sphere ({n},{k},{p:g}): t* {summary['t_star']!r}, "
                                    f"root-find {want!r}, {summary['n_folds']} folds")
        return failures


# ---------------------------------------------------------------------------
# grid_fields
# ---------------------------------------------------------------------------

class GridFields(Workload):
    """Harnack searches, the radial envelope and mollification on grid fields."""

    name = "grid_fields"
    HARNACK_CONES = ((3, 2), (5, 3))

    def setup(self):
        rng = self.rng()
        # Harnack field: chi = exp(sum_j c_j sin(omega_j . x + phi_j)) on [-1, 1]^3.
        m = 6 if self.smoke else 16
        field = radial.GridField(2.0 / (m - 1), np.zeros((m, m, m)))
        x = field.node_coordinates()
        c = rng.uniform(0.2, 0.5, 3)
        omega = rng.uniform(0.5, 2.0, (3, 3))
        phase = rng.uniform(0.0, 2.0 * math.pi, 3)
        field.values = np.exp((c * np.sin(x @ omega.T + phase)).sum(axis=1)).reshape(m, m, m)
        field.save_raw(self.path("chi.grid"))
        # Radial profile for `khessian harnack`: w = A sqrt(r) + B sin(omega r + phi).
        nodes = 400 if self.smoke else 8000
        r = np.linspace(0.01, 2.0, nodes)
        A, B = rng.uniform(1.2, 2.0), rng.uniform(0.01, 0.1)
        om, ph = rng.uniform(2.0, 10.0), rng.uniform(0.0, 2.0 * math.pi)
        w = A * np.sqrt(r) + B * np.sin(om * r + ph)
        dw = 0.5 * A / np.sqrt(r) + B * om * np.cos(om * r + ph)
        d2w = -0.25 * A * r**-1.5 - B * om**2 * np.sin(om * r + ph)
        radial.save_profile_csv(radial.RadialProfile.from_samples(r, w, 3, 2, dw=dw, d2w=d2w),
                                self.path("profile.csv"))
        # Bowl u = c0 + a |x|^2 on [-1, 1]^3: radially increasing and admissible
        # for the envelope check, convex and positive for mollification.
        m = 24 if self.smoke else 128
        self.c0, self.a = float(rng.uniform(6.0, 8.0)), float(rng.uniform(0.5, 0.9))
        bowl = radial.GridField(2.0 / (m - 1), np.zeros((m, m, m)))
        bowl.values = (self.c0 + self.a * (bowl.node_coordinates() ** 2).sum(axis=1)).reshape(m, m, m)
        bowl.save_raw(self.path("bowl.grid"))

    def warm_up(self):
        tiny = radial.GridField(0.5, 1.0 + 0.01 * np.arange(729.0).reshape(9, 9, 9))
        analysis.harnack_from_field(tiny, ConeParams(3, 2))
        analysis.u_field_admissible_mask(analysis.mollify(tiny, 1.0), ConeParams(3, 2))

    def prepare(self):
        self.chi = radial.GridField.load_raw(self.path("chi.grid"))
        self.bowl = radial.GridField.load_raw(self.path("bowl.grid"))
        h = self.chi.spacing
        idx = np.stack(np.meshgrid(*[np.arange(s) for s in self.chi.values.shape],
                                   indexing="ij"), axis=-1).reshape(-1, 3)
        alphas = [ConeParams(n, k).alpha for n, k in self.HARNACK_CONES]
        # Pairs closer than two cells are skipped; lattice distances make the test exact.
        self.harnack_oracle = oracles.harnack_max(idx, np.log(self.chi.values.ravel()),
                                                  alphas, spacing=h, min_sep=2.0 + 1e-9)
        prof = _read_csv(self.path("profile.csv"))
        self.profile_oracle = oracles.harnack_max(prof[:, 0], np.log(np.exp(-2.0 * prof[:, 1])),
                                                  [0.5])[0]
        self.eps = 4.0 * self.bowl.spacing
        self.shift = 3 * self.a * oracles.mollifier_second_moment(3, self.bowl.spacing, self.eps)
        # Constants pass through the mollifier exactly (to rounding).
        const = radial.GridField(self.bowl.spacing, np.full((20, 20, 20), self.c0))
        worst = float(np.abs(analysis.mollify(const, self.eps).values - self.c0).max())
        return [f"mollified constant moved by {worst:.3e}"] if worst > 1e-13 * self.c0 else []

    def _mollify(self):
        out = analysis.mollify(self.bowl, self.eps)
        mask, _ = analysis.u_field_admissible_mask(out, ConeParams(3, 2))
        return out, mask

    def operations(self):
        ops = [(f"harnack field alpha={ConeParams(n, k).alpha:.4g}",
                lambda n=n, k=k: analysis.harnack_from_field(self.chi, ConeParams(n, k)))
               for n, k in self.HARNACK_CONES]
        ops.append(("harnack profile", lambda: run_cli(
            ["harnack", "--profile", self.path("profile.csv"), "--n", 3, "--k", 2])))
        ops.append(("envelope", lambda: run_cli(
            ["envelope", "--grid", self.path("bowl.grid"), "--center", "0,0,0",
             "--n", 3, "--k", 2, "--out", self.path("envelope.csv")])))
        ops.append(("mollify", self._mollify))
        return ops

    def check(self, results):
        failures = []
        for (n, k), want in zip(self.HARNACK_CONES, self.harnack_oracle):
            est = results.get(f"harnack field alpha={ConeParams(n, k).alpha:.4g}")
            if est is not None and _rel(est.c_est, want) > 1e-12:
                failures.append(f"harnack field ({n},{k}): c_est {est.c_est!r}, all pairs {want!r}")
        out = results.get("harnack profile")
        if out is not None:
            c_est = json.loads(out)["c_est"]
            if _rel(c_est, self.profile_oracle) > 1e-12:
                failures.append(f"harnack profile: c_est {c_est!r}, all pairs {self.profile_oracle!r}")
        out = results.get("envelope")
        if out is not None:
            rows = _read_csv(self.path("envelope.csv"))
            wt, r_att = rows[:, 1], rows[:, 2]
            exact = self.c0 + self.a * r_att**2
            if np.abs(wt - exact).max() > 1e-12 * self.c0:
                failures.append(f"envelope differs from the field at attained radii by "
                                f"{np.abs(wt - exact).max():.3e}")
            if np.any(np.diff(wt) < 0.0):
                failures.append("envelope decreases")
            if "viscosity check: 0 violation(s)" not in out:
                failures.append(f"viscosity check: {out.strip().splitlines()[0]}")
        if "mollify" in results:
            field, mask = results["mollify"]
            x = field.node_coordinates()
            exact = self.c0 + self.a * (x**2).sum(axis=1) + self.shift
            worst = float(np.abs(field.values.ravel() - exact).max())
            if worst > 1e-12 * self.c0:
                failures.append(f"mollified bowl off the second-moment shift by {worst:.3e}")
            if not mask.all():
                failures.append(f"{int((~mask).sum())} mollified nodes outside the cone")
        return failures


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

STEREO = {"kind": "sphere_stereographic", "n": 3, "s_min": 0.05, "s_max": 0.5, "num": 25}
FUNDAMENTAL_END = {"kind": "fundamental_log", "n": 3, "mode": "end", "rho_ref": 1.0,
                   "s_min": 50.0, "s_max": 400.0, "num": 25}


class Identities(Workload):
    """`verify`, `sigma`, `classify` and `volume`: the symfunc and conformal layers."""

    name = "identities"

    def setup(self):
        rng = self.rng()
        self.lams = []
        for _ in range(4):
            n = int(rng.integers(3, 7))
            self.lams.append((rng.normal(size=n) + rng.uniform(0.0, 1.5),
                              int(rng.integers(1, n + 1))))
        # Fundamental profile w = 2 log r + 5 on a seeded geometric grid.
        r = radial.geometric_grid(1.0, 1e-6, q=float(rng.uniform(0.7, 0.9)))
        radial.save_profile_csv(radial.RadialProfile.from_samples(
            r, 2.0 * np.log(r) + 5.0, 3, 2, dw=2.0 / r, d2w=-2.0 / r**2),
            self.path("fundamental.csv"))
        _write_json(self.path("stereo.json"), STEREO)
        _write_json(self.path("fundamental_end.json"), FUNDAMENTAL_END)

    def warm_up(self):
        run_cli(["sigma", "--lambda", "1,2,3", "--k", 2])

    def operations(self):
        ops = [("verify", lambda: run_cli(["verify", "--seed", 7]))]
        # "--lambda=..." keeps argparse from reading a leading minus as an option.
        ops += [(f"sigma {i}", lambda lam=lam, k=k: run_cli(
            ["sigma", "--lambda=" + ",".join(repr(float(x)) for x in lam), "--k", k]))
            for i, (lam, k) in enumerate(self.lams)]
        ops.append(("classify", lambda: run_cli(
            ["classify", "--profile", self.path("fundamental.csv"), "--n", 3, "--k", 2])))
        ops += [(f"volume {name}", lambda name=name: run_cli(
            ["volume", "--metric", self.path(f"{name}.json"), "--out", self.path(f"{name}.csv")]))
            for name in ("stereo", "fundamental_end")]
        return ops

    def check(self, results):
        failures = []
        out = results.get("verify")
        if out is not None and not out.rstrip().endswith("all checks passed"):
            failures.append("verify: " + out.strip().splitlines()[-1])
        for i, (lam, k) in enumerate(self.lams):
            out = results.get(f"sigma {i}")
            if out is None:
                continue
            want = oracles.elementary_symmetric(lam)
            got = {ln.split(" = ")[0]: ln.split(" = ")[1] for ln in out.splitlines()
                   if ln.startswith("sigma_")}
            scale = max(1.0, float(np.abs(want).max()))
            for j in range(1, k + 1):
                if abs(float(got[f"sigma_{j}"]) - want[j]) > 1e-10 * scale:
                    failures.append(f"sigma {i}: sigma_{j} {got[f'sigma_{j}']}, oracle {want[j]!r}")
            in_cone = all(want[j] > 0.0 for j in range(1, k + 1))
            if f"in Gamma_{k}: {str(in_cone).lower()}" not in out:
                failures.append(f"sigma {i}: Gamma_{k} membership differs from the oracle")
        out = results.get("classify")
        if out is not None:
            report = json.loads(out)
            if report["class"] != "fundamental" or abs(report["C"] - 5.0) > 1e-8:
                failures.append(f"classify: {report['class']} with C={report['C']}")
        out = results.get("volume stereo")
        if out is not None:
            c2 = json.loads(out)["quadratic_coefficient"]
            rows = _read_csv(self.path("stereo.csv"))
            worst = float(np.max(np.abs(rows[:, 1] / oracles.sphere_volume_ratio(rows[:, 0]) - 1.0)))
            if abs(c2 + 0.2) > 0.01 or worst > 1e-8:
                failures.append(f"stereographic volume: c2 {c2:.5f}, curve off by {worst:.2e}")
        out = results.get("volume fundamental_end")
        if out is not None:
            summary = json.loads(out)
            rows = _read_csv(self.path("fundamental_end.csv"))
            worst = float(np.max(np.abs(rows[:, 1] / oracles.fundamental_end_ratio(rows[:, 0]) - 1.0)))
            if summary["end_count"] != 1 or worst > 1e-8:
                failures.append(f"fundamental end: {summary['end_count']} ends, "
                                f"curve off by {worst:.2e}")
        return failures


WORKLOADS = {w.name: w for w in (AnnulusFold, BandedNewton, GridFields, Identities)}
