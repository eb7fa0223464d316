"""Every public function of the package has a caller outside the tests.

A function in a module's `__all__`, or a public method of a class there, must
be used by package code (the CLI, another module, or its own module outside
its definition) or by the benchmark in perfbench/.  Code that only tests
reach is either wired into a command or a `verify` check, or deleted.
References are names and attributes in the parsed source, so a mention in a
comment or docstring does not count; in perfbench/ a string that spells a
name counts too, since the benchmark's tracer looks methods up by strings
such as "root_residual".
"""

import ast
import inspect
import pathlib
import re

from khessian import analysis, conformal, radial, solver, symfunc

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "khessian"
MODULES = (analysis, conformal, radial, solver, symfunc)

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


def _referenced(paths, strings=False):
    """Names and attributes used in the files at paths; with strings, also
    the parts of each string constant that spells a name or dotted name."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and re.fullmatch(r"[A-Za-z_][\w.]*", node.value):
                names.update(node.value.split("."))
    return names


def _public_functions(mod):
    """(dotted name, bare name) of each function in mod.__all__ and of each
    public method or classmethod of a class there."""
    layer = mod.__name__.rsplit(".", 1)[-1]
    for name in mod.__all__:
        obj = getattr(mod, name)
        if inspect.isfunction(obj):
            yield f"{layer}.{name}", name
        elif inspect.isclass(obj):
            for attr, raw in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    raw = raw.__func__
                if inspect.isfunction(raw):
                    yield f"{layer}.{name}.{attr}", attr


def _unreached():
    names = (_referenced(sorted(PACKAGE.glob("*.py")))
             | _referenced(sorted((ROOT / "perfbench").glob("*.py")), strings=True))
    return [dotted for mod in MODULES for dotted, bare in _public_functions(mod)
            if bare not in names]


def test_every_public_function_has_a_caller():
    unreached = [dotted for dotted in _unreached() if dotted not in KEEP]
    assert not unreached, "public code that only tests reach: " + ", ".join(unreached)


def test_keep_list_is_needed():
    stale = set(KEEP) - set(_unreached())
    assert not stale, f"keep-list entries with a caller, or deleted: {sorted(stale)}"
