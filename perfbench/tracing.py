"""Spans and counters around the khessian package, installed from outside it.

The tracer wraps, by name, the public functions and public class methods of
each package module (the layers), the named solver stages, the dense solves
the solver makes through numpy, and the files the CLI opens.  Each call made
while the wrappers are installed records a span: name, layer, start, end and
parent.  Spans stay in memory and are reduced to per-layer metrics once per
group (one set-up or one pass of a workload).

Metrics are looked up by the names of what they wrap.  When a name no
longer exists in the package, its metrics are reported as absent and the run
goes on.
"""

from __future__ import annotations

import builtins
import functools
import os
import statistics
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "solver", "radial", "analysis", "symfunc", "conformal")

# Solver stages that are private functions but carry named metrics.
SOLVER_STAGES = ("_damped_newton", "_corrector", "_tangent", "_refine_fold")
ASSEMBLY = tuple(f"solver.RadialSystem.{m}" for m in
                 ("residual", "root_residual", "residual_jacobian", "root_residual_jacobian"))
CONE_CHECKS = ("solver.RadialSystem.admissible", "solver.RadialSystem._cone_guard")
DENSE_SOLVE = "solver.np.linalg.solve"
REFINE = "solver._refine_fold"
NEWTON = "solver._damped_newton"

# Bit flags for the span families whose nesting the metrics need.
_BIT_ASSEMBLY, _BIT_CONE, _BIT_REFINE = 1, 2, 4
_MISSING = object()


def _family_bits(name: str) -> int:
    return ((_BIT_ASSEMBLY if name in ASSEMBLY else 0)
            | (_BIT_CONE if name in CONE_CHECKS else 0)
            | (_BIT_REFINE if name == REFINE else 0))


class _Proxy:
    """Attribute view of a module with some attributes replaced."""

    def __init__(self, real, **replaced):
        self._real = real
        self.__dict__.update(replaced)

    def __getattr__(self, attr):
        return getattr(self._real, attr)


class _TracedFile:
    """File object that adds the bytes moved and the time held open to a tracer."""

    def __init__(self, tracer, fh, writing):
        self._tracer, self._fh, self._writing = tracer, fh, writing
        self._opened = perf_counter()
        self._bytes = 0

    def read(self, *args):
        data = self._fh.read(*args)
        self._bytes += len(data)
        return data

    def readline(self, *args):
        data = self._fh.readline(*args)
        self._bytes += len(data)
        return data

    def write(self, data):
        self._bytes += len(data)
        return self._fh.write(data)

    def __iter__(self):
        for line in self._fh:
            self._bytes += len(line)
            yield line

    def close(self):
        if self._fh.closed:
            return
        self._fh.close()
        kind = "write" if self._writing else "read"
        self._tracer.counters[f"cli.{kind}_s"] += perf_counter() - self._opened
        self._tracer.counters[f"cli.{kind}_bytes"] += self._bytes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __getattr__(self, attr):
        return getattr(self._fh, attr)


class Tracer:
    """Installs span-recording wrappers into the package modules and removes them."""

    def __init__(self, modules: dict):
        self.modules = modules          # layer name -> module object
        # [name, layer, family bits, bits of the ancestors, start, end, parent]
        self.spans = []
        self.stack = []
        self.counters = Counter()
        self.samples = defaultdict(list)
        self.wrapped = set()
        self._patches = []              # (owner, attribute, original)

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, name, layer, probe=None):
        spans, stack = self.spans, self.stack
        bits = _family_bits(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                parent = stack[-1]
                up = spans[parent]
                span = [name, layer, bits, up[2] | up[3], 0.0, 0.0, parent]
            else:
                span = [name, layer, bits, 0, 0.0, 0.0, -1]
            stack.append(len(spans))
            spans.append(span)
            start = span[4] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = perf_counter()
                stack.pop()
                if probe is not None:
                    probe(tracer, args, None, exc, span[5] - start)
                raise
            span[5] = perf_counter()
            stack.pop()
            if probe is not None:
                probe(tracer, args, out, None, span[5] - start)
            return out

        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every public function and method of the layers, plus the named stages."""
        wrappers = {}                   # id(original function) -> wrapper
        for layer, mod in self.modules.items():
            for attr, val in list(vars(mod).items()):
                if getattr(val, "__module__", None) != mod.__name__:
                    continue
                if isinstance(val, type):
                    if not attr.startswith("_"):
                        self._wrap_class(layer, val)
                elif callable(val) and (not attr.startswith("_")
                                        or (layer == "solver" and attr in SOLVER_STAGES)):
                    name = f"{layer}.{attr}"
                    wrappers[id(val)] = self._wrap(val, name, layer, PROBES.get(name))
                    self.wrapped.add(name)
        # Rebind every module-level reference, including the names that
        # "from .module import name" copied into other layers.
        for mod in self.modules.values():
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    self._patch(mod, attr, wrappers[id(val)])
        solver = self.modules["solver"]
        if getattr(solver, "np", None) is np:
            traced = self._wrap(np.linalg.solve, DENSE_SOLVE, "solver", _probe_dense_solve)
            self._patch(solver, "np", _Proxy(np, linalg=_Proxy(np.linalg, solve=traced)))
            self.wrapped.add(DENSE_SOLVE)

        def traced_open(path, mode="r", *args, **kwargs):
            fh = builtins.open(path, mode, *args, **kwargs)
            return _TracedFile(self, fh, any(c in mode for c in "wax+"))
        self._patch(self.modules["cli"], "open", traced_open)
        self.wrapped.add("cli.open")

    def _wrap_class(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            public = not attr.startswith("_")
            named = f"{layer}.{cls.__name__}.{attr}"
            if not (public or named in CONE_CHECKS):
                continue
            probe = PROBES.get(named)
            if isinstance(raw, classmethod):
                value = classmethod(self._wrap(raw.__func__, named, layer, probe))
            elif isinstance(raw, staticmethod):
                value = staticmethod(self._wrap(raw.__func__, named, layer, probe))
            elif callable(raw) and not isinstance(raw, type):
                value = self._wrap(raw, named, layer, probe)
            else:
                continue
            self._patch(cls, attr, value)
            self.wrapped.add(named)

    def remove(self):
        """Restore every attribute the tracer replaced, latest first."""
        for owner, attr, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- groups -------------------------------------------------------------

    def fp_event(self, kind, flag):
        """numpy error callback: one overflow or invalid-value event."""
        self.counters["solver.fp_warnings"] += 1

    def begin(self):
        self.spans.clear()
        self.stack.clear()
        self.counters.clear()
        self.samples.clear()

    def end(self) -> dict:
        """Reduce the spans and counters recorded since begin() to metric values."""
        return _reduce(self.spans, self.counters, self.samples)


# ---------------------------------------------------------------------------
# Probes: read arguments and results of named calls
# ---------------------------------------------------------------------------

def _probe_newton(tr, args, out, exc, dur):
    if out is not None:
        tr.counters["solver.newton_iters"] += out.iterations
    elif hasattr(exc, "history"):
        tr.counters["solver.newton_iters"] += max(len(exc.history) - 1, 0)


def _probe_corrector(tr, args, out, exc, dur):
    if out is not None:
        tr.counters["solver.corrector_iters"] += out[2]
    elif isinstance(exc, Exception):
        tr.counters["solver.corrector_rejects"] += 1


def _probe_continuation(tr, args, out, exc, dur):
    if out is None:
        return
    tr.counters["solver.folds_found"] += len(out.folds)
    tr.counters["solver.folds_refined"] += sum(1 for f in out.folds if f.refined)
    problem, config = args[0], args[1]
    if type(problem.domain).__name__ == "Annulus":
        tr.samples["continue"].append((config.N, dur))


def _probe_newton_solve(tr, args, out, exc, dur):
    if out is not None:
        problem, config = args[0], args[2]
        tr.samples["newton"].append((type(problem.domain).__name__, config.N, dur))


def _probe_harnack_ratio(tr, args, out, exc, dur):
    tr.counters["analysis.harnack_pairs"] += len(np.asarray(args[1])) ** 2


def _probe_harnack_field(tr, args, out, exc, dur):
    if abs(args[1].alpha - 1.0 / 3.0) < 1e-12:
        tr.counters["analysis.harnack_alpha13_s"] += dur


def _probe_load_raw(tr, args, out, exc, dur):
    tr.counters["radial.load_raw_bytes"] += os.path.getsize(args[-1])


def _probe_envelope(tr, args, out, exc, dur):
    tr.counters["radial.envelope_nodes"] += np.asarray(args[0].values).size


def _probe_dense_solve(tr, args, out, exc, dur):
    m = np.shape(args[0])[-1]
    tr.counters["solver.dense_flops"] += 2.0 * m**3 / 3.0


PROBES = {
    NEWTON: _probe_newton,
    "solver._corrector": _probe_corrector,
    "solver.continuation_supercritical": _probe_continuation,
    "solver.newton_solve": _probe_newton_solve,
    "analysis.harnack_ratio": _probe_harnack_ratio,
    "analysis.harnack_from_field": _probe_harnack_field,
    "radial.GridField.load_raw": _probe_load_raw,
    "radial.radial_envelope": _probe_envelope,
}

# Metrics read straight from the span totals: metric -> (span name, "s" or "calls").
_SPAN_METRICS = {
    "solver.dense_solve_s": (DENSE_SOLVE, "s"),
    "solver.dense_solve_calls": (DENSE_SOLVE, "calls"),
    "solver.fold_refine_s": (REFINE, "s"),
    "solver.corrector_s": ("solver._corrector", "s"),
    "solver.tangent_s": ("solver._tangent", "s"),
    "solver.banded_solve_s": ("solver.RadialSystem.solve_linear", "s"),
    "solver.banded_solve_calls": ("solver.RadialSystem.solve_linear", "calls"),
    "analysis.harnack_s": ("analysis.harnack_ratio", "s"),
    "analysis.mollify_s": ("analysis.mollify", "s"),
    "analysis.u_field_s": ("analysis.u_field_admissible_mask", "s"),
    "analysis.volume_s": ("analysis.volume_ratio", "s"),
    "radial.load_raw_s": ("radial.GridField.load_raw", "s"),
    "radial.envelope_s": ("radial.radial_envelope", "s"),
    "radial.viscosity_check_s": ("radial.envelope_viscosity_check", "s"),
    "radial.save_raw_s": ("radial.GridField.save_raw", "s"),
    "radial.classify_s": ("radial.classify_singularity", "s"),
    "symfunc.sigma_all_s": ("symfunc.sigma_all", "s"),
    "symfunc.sigma_all_calls": ("symfunc.sigma_all", "calls"),
    "symfunc.sym_eigenvalues_s": ("symfunc.sym_eigenvalues", "s"),
    "symfunc.sym_eigenvalues_calls": ("symfunc.sym_eigenvalues", "calls"),
    "conformal.convert_gauge_s": ("conformal.convert_gauge", "s"),
    "conformal.convert_gauge_calls": ("conformal.convert_gauge", "calls"),
}

# Every other metric, with the wrapped names it needs.
_REQUIRES = {
    "solver.dense_flops": (DENSE_SOLVE,),
    "solver.fold_refine_assemblies": (REFINE,) + ASSEMBLY,
    "solver.folds_found": ("solver.continuation_supercritical",),
    "solver.folds_refined": ("solver.continuation_supercritical",),
    "solver.corrector_iters": ("solver._corrector",),
    "solver.corrector_rejects": ("solver._corrector",),
    "solver.continue_N96_s": ("solver.continuation_supercritical",),
    "solver.continue_N192_s": ("solver.continuation_supercritical",),
    "solver.continue_N384_s": ("solver.continuation_supercritical",),
    "solver.continue_slope": ("solver.continuation_supercritical",),
    "solver.assemble_s": ASSEMBLY,
    "solver.assemble_calls": ASSEMBLY,
    "solver.newton_iters": (NEWTON,),
    "solver.line_search_trials": (NEWTON, "solver.RadialSystem.admissible"),
    "solver.cone_check_s": CONE_CHECKS,
    "solver.cone_check_calls": CONE_CHECKS,
    "solver.newton_slope": ("solver.newton_solve",),
    "solver.fp_warnings": (),
    "analysis.harnack_pairs": ("analysis.harnack_ratio",),
    "analysis.harnack_alpha13_s": ("analysis.harnack_from_field",),
    "radial.load_raw_bytes": ("radial.GridField.load_raw",),
    "radial.envelope_nodes": ("radial.radial_envelope",),
    "cli.read_s": ("cli.open",),
    "cli.read_bytes": ("cli.open",),
    "cli.write_s": ("cli.open",),
    "cli.write_bytes": ("cli.open",),
}
_REQUIRES.update({m: (span,) for m, (span, _) in _SPAN_METRICS.items()})

# Metrics that describe set-up; every other metric describes a pass.
SETUP_METRICS = ("radial.save_raw_s",)


def available(metric: str, wrapped: set) -> bool:
    """Whether the names a per-layer metric needs were found in the package."""
    if metric.endswith(".self_s"):
        return metric.split(".")[0] in LAYERS
    if metric not in _REQUIRES:
        return False
    return all(name in wrapped for name in _REQUIRES[metric])


def loglog_slope(groups) -> float:
    """Least-squares slope of log(time) against log(N), one intercept per group.

    groups maps a group key to a list of (N, seconds); groups with fewer than
    two sizes are skipped.  Returns 0.0 when no group has two sizes.
    """
    sxy = sxx = 0.0
    for pts in groups.values():
        if len({n for n, _ in pts}) < 2:
            continue
        x = np.log([n for n, _ in pts])
        y = np.log([s for _, s in pts])
        sxy += float(((x - x.mean()) * (y - y.mean())).sum())
        sxx += float(((x - x.mean()) ** 2).sum())
    return sxy / sxx if sxx > 0.0 else 0.0


def _reduce(spans, counters, samples) -> dict:
    total = Counter()
    calls = Counter()
    child = [0.0] * len(spans)
    for span in spans:
        if span[6] >= 0:
            child[span[6]] += span[5] - span[4]
    self_s = Counter()
    assemble_s = assemble_calls = refine_assemblies = 0
    cone_s = cone_calls = trials = 0
    for i, (name, layer, own, inherited, start, end, parent) in enumerate(spans):
        dur = end - start
        total[name] += dur
        calls[name] += 1
        self_s[layer] += dur - child[i]
        if own & _BIT_ASSEMBLY and not inherited & _BIT_ASSEMBLY:
            assemble_s += dur
            assemble_calls += 1
            if inherited & _BIT_REFINE:
                refine_assemblies += 1
        if own & _BIT_CONE and not inherited & _BIT_CONE:
            cone_s += dur
            cone_calls += 1
            if name == "solver.RadialSystem.admissible" and parent >= 0 \
                    and spans[parent][0] == NEWTON:
                trials += 1
    out = {m: (total[s] if kind == "s" else calls[s]) for m, (s, kind) in _SPAN_METRICS.items()}
    out.update({f"{layer}.self_s": self_s[layer] for layer in LAYERS})
    cont = {n: s for n, s in samples["continue"]}
    newton = defaultdict(list)
    for dom, n, s in samples["newton"]:
        newton[dom].append((n, s))
    out.update({
        "solver.assemble_s": assemble_s,
        "solver.assemble_calls": assemble_calls,
        "solver.fold_refine_assemblies": refine_assemblies,
        "solver.cone_check_s": cone_s,
        "solver.cone_check_calls": cone_calls,
        # The first cone check of each Newton solve tests the start, not a step.
        "solver.line_search_trials": max(trials - calls[NEWTON], 0),
        "solver.continue_N96_s": cont.get(96, 0.0),
        "solver.continue_N192_s": cont.get(192, 0.0),
        "solver.continue_N384_s": cont.get(384, 0.0),
        "solver.continue_slope": loglog_slope({"annulus": samples["continue"]}),
        "solver.newton_slope": loglog_slope(newton),
    })
    for key in ("solver.dense_flops", "solver.folds_found", "solver.folds_refined",
                "solver.corrector_iters", "solver.corrector_rejects", "solver.newton_iters",
                "solver.fp_warnings", "analysis.harnack_pairs", "analysis.harnack_alpha13_s",
                "radial.load_raw_bytes", "radial.envelope_nodes", "cli.read_s",
                "cli.read_bytes", "cli.write_s", "cli.write_bytes"):
        out[key] = counters[key]
    return out


def combine(pass_groups, setup_groups) -> dict:
    """Median of each metric over the traced passes (set-ups for set-up metrics)."""
    names = set(pass_groups[0]) if pass_groups else set()
    out = {}
    for name in names:
        source = setup_groups if name in SETUP_METRICS else pass_groups
        out[name] = statistics.median(float(g[name]) for g in source)
    return out

