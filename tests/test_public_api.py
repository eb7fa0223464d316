"""Every public function of the package has a caller outside the tests, and
every defaulted parameter a caller that sets it.

A function in a module's `__all__`, or a public method of a class there, must
be used by package code (the CLI, another module, or its own module outside
its definition) or by the benchmark in perfbench/.  Code that only tests
reach is either wired into a command or a `verify` check, or deleted.
A name is used where it is called, read as an attribute, or imported; a local
variable of the same name, or a mention in a comment or docstring, does not
count.  In perfbench/ a string that spells a name counts too, since the
benchmark's tracer looks methods up by strings such as "root_residual".

A defaulted parameter of a public function, method or class (a dataclass
field is a parameter of its class) that some call in src/ or perfbench/
reaches must be passed, by keyword or by position, by at least one of those
calls; a value nothing sets is a module constant, not a parameter.

A field of a dataclass in a module's `__all__`, unless its name starts with
`_`, must be read as an attribute in src/ or perfbench/ on a receiver other
than `self` or `cls`; a value no caller reads is not returned.  Like the
other checks this one matches names, so a read of a same-named attribute of
another class counts.
"""

import ast
import dataclasses
import inspect
import pathlib
import re

from khessian import analysis, conformal, radial, solver, symfunc

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "khessian"
MODULES = (analysis, conformal, radial, solver, symfunc)
SOURCES = sorted(PACKAGE.glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))

# Public names kept without such a caller, each with the reason.  An entry
# whose name gains a caller, or is deleted, fails test_keep_list_is_needed.
KEEP = {
    "solver.general_rhs_continuation": "existence for Yamabe-type equations, a claim of "
                                       "the abstract, through GeneralVRHS and "
                                       "validate_growth; the amplitude continuation of "
                                       "failed p < k solves is to call it",
    "solver.assemble": "the only public path to RadialSystem._cone_guard, whose time "
                       "perfbench's solver.cone_check metrics report by name",
    "analysis.pointwise_max_fields": "admissibility of a pointwise maximum "
                                     "(acceptance criterion 12)",
    "analysis.u_field_sigma": "the value-level route that tests compare with the "
                              "stacked-matrix oracle",
}

# Defaulted parameters kept although no call sets them, each with the reason.
# An entry that gains a caller, or is deleted, fails
# test_keep_params_list_is_needed.
KEEP_PARAMS = {
    "solver.newton_solve.w0": "the seed picks one of the two solutions below a fold; "
                              "initial_guess finds only one of them",
    "solver.solve_subcritical.w0": "the seed picks one of the two solutions below a "
                                   "fold; initial_guess finds only one of them",
    "analysis.u_field_admissible_mask.margin": "the rounding slack at the cone boundary "
                                               "that the mollification and pointwise-"
                                               "maximum acceptance tests need",
    "analysis.u_field_admissible_mask.strict": "the open cone Gamma_k, which tests check "
                                               "beside the closed one",
}

# Dataclass fields kept although nothing in src/ or perfbench/ reads them,
# each with the reason.  An entry that gains a reader, or is deleted, fails
# test_keep_fields_list_is_needed.
KEEP_FIELDS = {
    "solver.BranchSample.tangent_t": "tests locate the fold bracket by the sign change of "
                                     "the tangent's t-component that _continue_branch tests",
}


def _trees(paths):
    return [ast.parse(path.read_text(), str(path)) for path in paths]


def _used(paths, strings=False):
    """Names called, read as an attribute or imported in the files at paths;
    with strings, also the parts of each string constant that spells a name
    or dotted name."""
    names = set()
    for tree in _trees(paths):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                names.add(node.func.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and re.fullmatch(r"[A-Za-z_][\w.]*", node.value):
                names.update(node.value.split("."))
    return names


def _public_callables(mod):
    """(dotted name, bare name, object, bound) of each function and class in
    mod.__all__ and of each public method or classmethod of a class there;
    bound is True where a call does not pass the first parameter."""
    layer = mod.__name__.rsplit(".", 1)[-1]
    for name in mod.__all__:
        obj = getattr(mod, name)
        if inspect.isfunction(obj):
            yield f"{layer}.{name}", name, obj, False
        elif inspect.isclass(obj):
            yield f"{layer}.{name}", name, obj, False
            for attr, raw in vars(obj).items():
                if attr.startswith("_"):
                    continue
                bound = not isinstance(raw, staticmethod)
                if isinstance(raw, (classmethod, staticmethod)):
                    raw = raw.__func__
                if inspect.isfunction(raw):
                    yield f"{layer}.{name}.{attr}", attr, raw, bound


def _unreached():
    names = _used(SOURCES) | _used(BENCH, strings=True)
    return [dotted for mod in MODULES
            for dotted, bare, obj, _ in _public_callables(mod)
            if not inspect.isclass(obj) and bare not in names]


def _calls(paths):
    """Bare callee name -> list of (positional count, keyword names) of every
    call in the files at paths; a starred argument passes no named slot."""
    calls = {}
    for tree in _trees(paths):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            bare = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if bare is None:
                continue
            npos = 0
            for arg in node.args:
                if isinstance(arg, ast.Starred):
                    break
                npos += 1
            calls.setdefault(bare, []).append(
                (npos, {kw.arg for kw in node.keywords if kw.arg is not None}))
    return calls


def _unset_parameters():
    calls = _calls(SOURCES + BENCH)
    unset = []
    for mod in MODULES:
        for dotted, bare, obj, bound in _public_callables(mod):
            sites = calls.get(bare)
            if not sites:
                continue
            params = list(inspect.signature(obj).parameters.values())
            if bound:
                params = params[1:]
            for i, param in enumerate(params):
                if param.default is inspect.Parameter.empty \
                        or param.kind in (param.VAR_POSITIONAL, param.VAR_KEYWORD):
                    continue
                positional = param.kind == param.POSITIONAL_OR_KEYWORD
                if not any(param.name in kws or (positional and npos > i)
                           for npos, kws in sites):
                    unset.append(f"{dotted}.{param.name}")
    return unset


def _read_attributes(paths):
    """Attribute names loaded in the files at paths on a receiver other than
    self or cls."""
    names = set()
    for tree in _trees(paths):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and not (
                    isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")):
                names.add(node.attr)
    return names


def _unread_fields():
    names = _read_attributes(SOURCES + BENCH)
    unread = []
    for mod in MODULES:
        layer = mod.__name__.rsplit(".", 1)[-1]
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isclass(obj) and dataclasses.is_dataclass(obj):
                unread += [f"{layer}.{name}.{fld.name}" for fld in dataclasses.fields(obj)
                           if not fld.name.startswith("_") and fld.name not in names]
    return unread


def test_every_public_function_has_a_caller():
    unreached = [dotted for dotted in _unreached() if dotted not in KEEP]
    assert not unreached, "public code that only tests reach: " + ", ".join(unreached)


def test_keep_list_is_needed():
    stale = set(KEEP) - set(_unreached())
    assert not stale, f"keep-list entries with a caller, or deleted: {sorted(stale)}"


def test_every_parameter_is_set_by_a_caller():
    unset = [dotted for dotted in _unset_parameters() if dotted not in KEEP_PARAMS]
    assert not unset, "defaulted parameters no caller sets: " + ", ".join(unset)


def test_keep_params_list_is_needed():
    stale = set(KEEP_PARAMS) - set(_unset_parameters())
    assert not stale, f"keep-params entries with a caller, or deleted: {sorted(stale)}"


def test_every_field_is_read():
    unread = [dotted for dotted in _unread_fields() if dotted not in KEEP_FIELDS]
    assert not unread, "dataclass fields nothing reads: " + ", ".join(unread)


def test_keep_fields_list_is_needed():
    stale = set(KEEP_FIELDS) - set(_unread_fields())
    assert not stale, f"keep-fields entries with a reader, or deleted: {sorted(stale)}"
