"""Property test of the input contract: whatever numbers an input file holds,
every command that reads one ends in an exit code and never raises or prints
a numpy RuntimeWarning.

The numeric fields of p < k ball and annulus problem files and of metric
files are drawn from ordinary values and from the whole float range (nan and
inf included, which the loaders reject); `solve` and `volume` end in exit 0,
2 or 3.  So are the values of the profile CSVs that `classify` and `harnack`
read (columns r,w or r,w,dw,d2w), of small grid files for `envelope`, and
the --n and --k flags; those commands end in exit 0 or 3.  Grid sizes,
iteration limits and radius counts stay small, so every example runs in
milliseconds.
"""

import contextlib
import io
import itertools
import json
import math
import pathlib
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from khessian.cli import main

# Any float, and an ordinary one about as often.
NUMBER = st.one_of(st.floats(-10.0, 10.0), st.floats())
POSITIVE = st.one_of(st.floats(1e-3, 10.0), st.floats())


@st.composite
def problems(draw):
    """("solve", spec) of a p < k ball or annulus problem file."""
    n = draw(st.one_of(st.integers(3, 8), st.integers(3, 2000)))
    k = draw(st.integers(1, n))
    p = draw(st.one_of(st.floats(-5.0, k, exclude_max=True),
                       st.floats(max_value=k, exclude_max=True)))
    if draw(st.booleans()):
        domain = {"type": "ball", "r1": draw(POSITIVE), "bc": draw(NUMBER)}
    else:
        domain = {"type": "annulus", "r0": draw(POSITIVE), "r1": draw(POSITIVE),
                  "bc": [draw(NUMBER), draw(NUMBER)]}
    if draw(st.booleans()):
        rhs = {"f_const": draw(POSITIVE)}
    else:
        rows = draw(st.integers(1, 4))
        rhs = {"f_table": [[draw(NUMBER), draw(POSITIVE)] for _ in range(rows)]}
    spec = {"n": n, "k": k, "p": p, "domain": domain, "rhs": rhs,
            "solver": {"N": draw(st.integers(2, 48)), "tol": draw(POSITIVE),
                       "max_iter": draw(st.integers(1, 60))}}
    return "solve", spec


@st.composite
def metrics(draw):
    """("volume", spec) of a metric file."""
    spec = {"kind": draw(st.sampled_from(["sphere_stereographic", "euclidean",
                                          "fundamental_log", "truncated_log"])),
            "n": draw(st.one_of(st.integers(3, 8), st.integers(3, 1000))),
            "mode": draw(st.sampled_from(["origin", "end"])),
            "s_min": draw(POSITIVE), "s_max": draw(POSITIVE),
            "num": draw(st.integers(3, 30)), "rho_ref": draw(POSITIVE)}
    if spec["kind"] == "truncated_log":
        spec["K"] = draw(NUMBER)
    return "volume", spec


def numbers(size, low=-10.0, high=10.0, wild=False):
    """size numbers in [low, high]; when wild, any float as often."""
    ordinary = st.floats(low, high)
    each = st.one_of(ordinary, st.floats()) if wild else ordinary
    return st.lists(each, min_size=size, max_size=size)


def cone_flags():
    """--n and --k inside the paper's range n/2 < k < n, or one time in three
    any integers."""
    inside = st.integers(3, 8).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(n // 2 + 1, n - 1)))
    anywhere = st.tuples(st.integers(-3, 2000), st.integers(-3, 2000))
    return st.one_of(inside, inside, anywhere).map(lambda nk: [f"--n={nk[0]}", f"--k={nk[1]}"])


@st.composite
def profiles(draw):
    """("classify" or "harnack", profile CSV text, flags...).  The r column
    and the other columns are each wild in half the examples; w reaches
    +-1000 in half of the others."""
    wild_r, wild_w = draw(st.booleans()), draw(st.booleans())
    m = draw(st.integers(1 if wild_r else 3, 12))
    r = draw(numbers(m, 1e-3, 1.0, wild_r))
    if not (wild_r and draw(st.booleans())):
        r = list(itertools.accumulate(r))
    if all(1e-3 <= x <= 1e3 for x in r) and draw(st.booleans()):
        # w = c r^g, admissible for small enough c, with its exact derivatives
        c, g = draw(st.floats(0.0, 2.0)), draw(st.floats(0.1, 2.0))
        columns = [[c * x**g for x in r], [c * g * x ** (g - 1) for x in r],
                   [c * g * (g - 1) * x ** (g - 2) for x in r]]
    else:
        scale = draw(st.sampled_from([10.0, 1e3]))
        columns = [draw(numbers(m, -scale, scale, wild_w)) for _ in range(3)]
    names = draw(st.sampled_from([("r", "w"), ("r", "w", "dw", "d2w")]))
    rows = zip(r, *columns[:len(names) - 1])
    text = ",".join(names) + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)
    command = draw(st.sampled_from(["classify", "harnack"]))
    flags = draw(cone_flags())
    if command == "harnack" and draw(st.booleans()):
        flags.append(f"--min-sep={draw(numbers(1, 0.0, 1.0, draw(st.booleans())))[0]!r}")
    return (command, text, *flags)


@st.composite
def grids(draw):
    """("envelope", grid file text, flags...).  The geometry and the values
    are each wild in half the examples: a wild geometry may have one
    dimension, one node along an axis, any spacing and origin, and --center
    anywhere."""
    wild, wild_values = draw(st.booleans()), draw(st.booleans())
    dims = draw(st.integers(1 if wild else 2, 3))
    shape = draw(st.lists(st.integers(1 if wild else 3, 9 if dims == 2 else 5),
                          min_size=dims, max_size=dims))
    spacing = draw(numbers(1, 1e-3, 1.0, wild))[0]
    origin = draw(numbers(dims, wild=wild))
    values = draw(numbers(math.prod(shape), wild=wild_values))
    width = math.prod(shape[1:])
    text = (f"dims {dims}\nshape {' '.join(map(str, shape))}\nspacing {spacing!r}\n"
            f"origin {' '.join(map(repr, origin))}\n"
            + "".join(" ".join(map(repr, values[i:i + width])) + "\n"
                      for i in range(0, len(values), width)))
    if wild and draw(st.booleans()):
        center = draw(numbers(dims, wild=True))
    else:
        center = [o + spacing * (s - 1) * draw(st.floats(0.2, 0.8))
                  for o, s in zip(origin, shape)]
    flags = [f"--center={','.join(map(repr, center))}"]
    if draw(st.booleans()):
        flags.append(f"--step={draw(numbers(1, 1e-3, 1.0, wild))[0]!r}")
    if draw(st.booleans()):
        flags += draw(cone_flags())
    return ("envelope", text, *flags)


def problem(command="solve", **keys):
    """(command, spec) of the (3, 2, 0.5) ball problem file with keys replaced."""
    spec = {"n": 3, "k": 2, "p": 0.5, "domain": {"type": "ball", "r1": 1.0, "bc": 0.0},
            "solver": {"N": 16}}
    return (command, dict(spec, **keys))


def ball(r1, bc):
    return problem(domain={"type": "ball", "r1": r1, "bc": bc})


def annulus(r0, r1, bc=(0.0, 0.0)):
    return problem(domain={"type": "annulus", "r0": r0, "r1": r1, "bc": list(bc)})


def run(case):
    """(exit code, stderr, RuntimeWarnings) of the command on the case's file.

    A case is (command, input, flags...), where input is the text of the file
    or, for `solve`, `continue` and `volume`, the JSON object it holds."""
    command, content, *flags = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        path = tmp / "input"
        path.write_text(content if isinstance(content, str) else json.dumps(content))
        argv = {"solve": ["--problem", path, "--out-prefix", tmp / "out"],
                "continue": ["--problem", path, "--out-prefix", tmp / "out"],
                "volume": ["--metric", path, "--out", tmp / "q.csv"],
                "classify": ["--profile", path],
                "harnack": ["--profile", path],
                "envelope": ["--grid", path, "--out", tmp / "env.csv"]}[command]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, *map(str, argv), *flags])
    return code, err.getvalue(), [w for w in caught if issubclass(w.category, RuntimeWarning)]


# Inputs that once ended in a traceback (an overflow or a division by zero in
# the initial iterate or in the unit-sphere area), or in a message below the
# loader that named no key, with the exit code and the key their message
# names now.
FORMER_CRASHES = [
    (ball(1e-320, 0.0), 3, "domain.r1"),
    (ball(1e300, 0.0), 3, "domain.r1"),
    (ball(1.0, 1e300), 2, None),
    (annulus(0.5, 1e300), 3, "domain.r1"),
    (annulus(1e-320, 2e-320), 3, "domain.r0"),
    (("volume", {"kind": "sphere_stereographic", "n": 400}), 3, "n"),
    (problem(n=2), 3, "n"),
    (problem(k=4), 3, "k"),
    (problem(n=4, k=2), 3, "k"),
    (annulus(2.0, 0.5), 3, "domain.r1"),
    (annulus(0.5, 0.5), 3, "domain.r1"),
    (problem(rhs={"f_const": 0.0}), 3, "rhs.f_const"),
    (problem(rhs={"f_table": [[0.0, 1.0], [0.5, -1.0], [1.0, 1.0]]}), 3, "rhs.f_table"),
    (problem(p=2.0, domain={"type": "sphere_constant"}, rhs={"f_const": -1.0}),
     3, "rhs.f_const"),
    (problem("continue", p=2.0), 3, "p"),
]

# Extreme data that once printed numpy RuntimeWarnings before the solver
# failed: an overflowing initial iterate, and a non-finite Newton system.
WARNED = [
    annulus(0.5, 2.0, (0.0, 3.2e209)),
    problem(n=457, k=325, domain={"type": "ball", "r1": 0.001, "bc": 0.0}, solver={"N": 2}),
]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.one_of(problems(), metrics()))
@example(FORMER_CRASHES[0][0])
@example(FORMER_CRASHES[1][0])
@example(FORMER_CRASHES[2][0])
@example(FORMER_CRASHES[3][0])
@example(FORMER_CRASHES[4][0])
@example(FORMER_CRASHES[5][0])
@example(WARNED[0])
@example(WARNED[1])
def test_any_numbers_end_in_an_exit_code(case):
    code, err, warned = run(case)
    assert code in (0, 2, 3), (code, err)
    assert not warned, [str(w.message) for w in warned]


# chi = e^{-2w} overflows at w = -355 unless w is centred first.
WIDE_W = ("harnack", "r,w,dw,d2w\n1,-355,0,0\n2,0,0,0\n", "--n=3", "--k=2")


def radial_grid(spacing, scale, m=15):
    """("envelope", text, flags...) of an m x m grid of scale |x|^(1/2) about
    its centre node, with the viscosity check."""
    i = np.arange(m) - m // 2
    values = scale * np.hypot(i[:, None], i[None, :]) ** 0.5
    text = (f"dims 2\nshape {m} {m}\nspacing {spacing!r}\norigin 0 0\n"
            + "".join(" ".join(map(repr, row)) + "\n" for row in values.tolist()))
    centre = spacing * (m // 2)
    return ("envelope", text, f"--center={centre!r},{centre!r}", "--n=3", "--k=2")


# Inputs that printed RuntimeWarnings before this test: finite-difference
# derivatives or a and b that overflow, node distances that overflow, an
# r column whose grid spacing squared overflows, and --center outside the
# box with --step (numpy's "Maximum allowed size exceeded").
PROFILE_AND_GRID_FAULTS = [
    ("classify", "r,w,dw,d2w\n1,0,1e200,0\n2,0,0,0\n3,0,0,0\n", "--n=3", "--k=2"),
    ("harnack", "r,w\n1,0\n1.0000000000000002,1e300\n3,0\n", "--n=3", "--k=2"),
    ("classify", "r,w\n0.5,0\n1.2,0\n3.8e155,0\n", "--n=3", "--k=2"),
    radial_grid(1e300, 1.0),
    radial_grid(0.1, 1e300),
    radial_grid(0.1, 1.0)[:2] + ("--center=-1e300,0", "--step=0.1"),
]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.one_of(profiles(), grids()))
@example(WIDE_W)
@example(PROFILE_AND_GRID_FAULTS[0])
@example(PROFILE_AND_GRID_FAULTS[1])
@example(PROFILE_AND_GRID_FAULTS[2])
@example(PROFILE_AND_GRID_FAULTS[3])
@example(PROFILE_AND_GRID_FAULTS[4])
@example(PROFILE_AND_GRID_FAULTS[5])
def test_any_profile_or_grid_ends_in_an_exit_code(case):
    code, err, warned = run(case)
    assert code in (0, 3), (code, err)
    assert not warned, [str(w.message) for w in warned]


@pytest.mark.parametrize("case, code, key", FORMER_CRASHES)
def test_former_crashes_name_their_key(case, code, key):
    got, err, _ = run(case)
    assert got == code, err
    if key is not None:
        assert f"key '{key}'" in err, err
    assert "Traceback" not in err


@pytest.mark.parametrize("case", WARNED, ids=["annulus-bc-3.2e209", "ball-457-325"])
def test_extreme_data_fails_without_a_warning(case):
    code, err, warned = run(case)
    assert code == 2, err
    assert not warned, [str(w.message) for w in warned]


def test_centred_w_gives_a_harnack_estimate():
    code, err, warned = run(WIDE_W)
    assert (code, err, warned) == (0, "", [])


def test_w_wider_than_a_float_names_the_profile_and_span():
    code, err, _ = run(("harnack", "r,w\n1,-400\n2,0\n3,309\n", "--n=3", "--k=2"))
    assert code == 3
    assert err.startswith("error: profile ") and "w spans 709, more than 708" in err, err


@pytest.mark.parametrize("case", PROFILE_AND_GRID_FAULTS,
                         ids=["huge-dw", "fd-overflow", "huge-r", "huge-spacing",
                              "huge-values", "center-outside"])
def test_found_faults_end_without_a_warning(case):
    code, err, warned = run(case)
    assert code in (0, 3) and "Maximum allowed size" not in err, err
    assert not warned, [str(w.message) for w in warned]
