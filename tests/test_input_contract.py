"""Property test of the input contract: whatever numbers an input file holds,
every command that reads one ends in an exit code and never raises or prints
a numpy RuntimeWarning.

The numeric fields of problem files and of metric files are drawn from
ordinary values and from the whole float range (nan and inf included, which
the loaders reject); `solve`, `continue` and `volume` end in exit 0, 2 or 3.
Problem files are p < k `solve` problems, and p >= k `solve` and `continue`
problems with a continuation section, on a ball, an annulus or the sphere;
about one example in ten runs a continuation through a refined fold.
So are the values of the profile CSVs that `classify` and `harnack` read
(columns r,w or r,w,dw,d2w), of small grid files for `envelope` (text, or
archives, some of them damaged), and the --n and --k flags; those commands
end in exit 0 or 3.  So do the eigenvalues that `sigma` reads from --lambda
or from a one-row or one-column --csv file, huge, tiny, empty and
non-numeric entries included, with --k from -1 to n + 1.  `verify --seed`
is drawn as any text, and the output flag of each command that writes files
as a new file, a missing directory, a directory or a plain file in the place
of a directory; those end in exit 0, 2 or 3.  Grid sizes,
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
import zipfile

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
    spec = {"n": n, "k": k, "p": p, "domain": draw(domains()), "rhs": draw(rhs_sections()),
            "solver": {"N": draw(st.integers(2, 48)), "tol": draw(POSITIVE),
                       "max_iter": draw(st.integers(1, 60))}}
    return "solve", spec


def domains():
    """A ball, an annulus or the sphere reduction, with any numbers."""
    return st.one_of(
        st.builds(lambda r1, bc: {"type": "ball", "r1": r1, "bc": bc}, POSITIVE, NUMBER),
        st.builds(lambda r0, r1, bc: {"type": "annulus", "r0": r0, "r1": r1, "bc": bc},
                  POSITIVE, POSITIVE, st.lists(NUMBER, min_size=2, max_size=2)),
        st.just({"type": "sphere_constant"}))


def rhs_sections(f=POSITIVE):
    """{"f_const": f} or an f_table of one to four rows."""
    table = st.lists(st.tuples(NUMBER, f).map(list), min_size=1, max_size=4)
    return st.one_of(st.builds(lambda v: {"f_const": v}, f),
                     st.builds(lambda rows: {"f_table": rows}, table))


def capped(ordinary):
    """ordinary values, or one time in three a value that no key of the
    continuation section accepts; the continuation then stays short."""
    return st.one_of(ordinary, ordinary, st.sampled_from([0.0, -1.0, math.nan, math.inf]))


@st.composite
def branches(draw):
    """("continue" or "solve", spec) of a p >= k problem file on the sphere,
    a ball or an annulus, with a continuation section.  In half the examples
    every number is wild (k and p any, radii and data any, section values
    out of range one time in three); in the others the problem lies in the
    paper's range with data near a solvable one.  N, the steps and t_max
    stay small, so that a branch takes tens of steps."""
    wild = draw(st.booleans())
    n = draw(st.integers(3, 60 if wild else 8))
    k = draw(st.integers(1, n) if wild else st.integers(n // 2 + 1, n - 1))
    p = draw(st.one_of(st.just(float(k)), st.floats()) if wild
             else st.floats(0.25, 6.0).map(lambda dp: k + dp))
    if wild:
        domain, rhs = draw(domains()), draw(rhs_sections(NUMBER))
    else:
        r0, width, w0 = (draw(st.floats(0.1, 1.0)), draw(st.floats(0.2, 3.0)),
                         draw(st.floats(-3.0, 3.0)))
        # 0 < w1 - w0 < 2 ln(r1/r0) keeps annulus data inside the cone.
        slope = draw(st.floats(0.05, 0.95)) * 2.0 * math.log1p(width / r0)
        domain = draw(st.sampled_from([
            {"type": "sphere_constant"}, {"type": "ball", "r1": r0 + width, "bc": w0},
            {"type": "annulus", "r0": r0, "r1": r0 + width, "bc": [w0, w0 + slope]}]))
        rhs = {"f_const": draw(st.floats(0.1, 10.0))}
    ranges = {"delta0": st.floats(1e-3, 1.0), "step": st.floats(0.02, 0.3),
              "min_step": st.floats(1e-4, 1e-2), "t_start": st.floats(1e-3, 0.1),
              "t_max": st.floats(0.5, 5.0), "after_fold_frac": st.floats(0.3, 0.9)}
    continuation = {key: draw(capped(values) if wild else values)
                    for key, values in ranges.items() if draw(st.booleans())}
    spec = {"n": n, "k": k, "p": p, "domain": domain, "rhs": rhs,
            "continuation": continuation,
            "solver": {"N": draw(st.integers(1 if wild else 3, 16)),
                       "tol": draw(POSITIVE if wild else st.floats(1e-12, 1e-6)),
                       "max_iter": draw(st.integers(1 if wild else 20, 30))}}
    return draw(st.sampled_from(["continue", "solve"])), spec


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


def npy(array, **header):
    """The .npy bytes of array, with entries of its header (such as shape) replaced."""
    out = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        out, {**np.lib.format.header_data_from_array_1_0(array), **header})
    return out.getvalue() + array.tobytes()


ARCHIVE_FAULTS = ["truncate", "flip", "drop", "add", "complex", "string", "lie"]


@st.composite
def archives(draw, values, spacing, origin):
    """The bytes of a zip archive of values, spacing and origin, as
    GridField.save_raw writes it, in half the examples with one fault of
    ARCHIVE_FAULTS: cut at a byte, a byte flipped, a member dropped or added,
    values stored as complex numbers or strings, or a values header that
    declares more values than it holds."""
    fault = draw(st.one_of(st.none(), st.sampled_from(ARCHIVE_FAULTS)))
    members = {"values": values, "spacing": np.float64(spacing), "origin": np.array(origin)}
    if fault == "drop":
        del members[draw(st.sampled_from(sorted(members)))]
    elif fault == "add":
        members["extra"] = np.zeros(2)
    elif fault in ("complex", "string"):
        members["values"] = values.astype(complex if fault == "complex" else str)
    lie = {}
    if fault == "lie":
        lie["shape"] = (values.shape[0] * draw(st.integers(2, 2**40)), *values.shape[1:])
    out = io.BytesIO()
    with zipfile.ZipFile(out, "w") as zf:
        for name, member in members.items():
            zf.writestr(name + ".npy", npy(member, **(lie if name == "values" else {})))
    data = bytearray(out.getvalue())
    if fault == "truncate":
        del data[draw(st.integers(0, len(data) - 1)):]
    elif fault == "flip":
        data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
    return bytes(data)


@st.composite
def grids(draw):
    """("envelope", grid file text or archive bytes, flags...).  The geometry
    and the values are each wild in half the examples: a wild geometry may
    have one dimension, one node along an axis, any spacing and origin, and
    --center anywhere.  Half the files are archives (see archives)."""
    archive, wild, wild_values = draw(st.booleans()), draw(st.booleans()), draw(st.booleans())
    dims = draw(st.integers(1 if wild else 2, 3))
    shape = draw(st.lists(st.integers(1 if wild else 3, 9 if dims == 2 else 5),
                          min_size=dims, max_size=dims))
    spacing = draw(numbers(1, 1e-3, 1.0, wild))[0]
    origin = draw(numbers(dims, wild=wild))
    values = draw(numbers(math.prod(shape), wild=wild_values))
    width = math.prod(shape[1:])
    if archive:
        content = draw(archives(np.reshape(values, shape), spacing, origin))
    else:
        content = (f"dims {dims}\nshape {' '.join(map(str, shape))}\nspacing {spacing!r}\n"
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
    return ("envelope", content, *flags)


# An eigenvalue as --lambda or a CSV file spells it: an ordinary number or
# one near the largest or the smallest double, and in wild inputs also any
# float (nan and inf included) or a word that is no number.
FINITE_EIGENVALUES = st.one_of(
    st.floats(-10.0, 10.0), st.floats(1e300, 1.7e308), st.floats(-1.7e308, -1e300),
    st.floats(-1e-300, 1e-300)).map(repr)
WILD_EIGENVALUES = st.one_of(
    FINITE_EIGENVALUES, st.floats().map(repr),
    st.sampled_from(["", " ", "1e400", "-1e400", "x", "1,5", "0x10", "--"]))


@st.composite
def eigenvalue_inputs(draw):
    """("sigma", CSV text or None, flags...): one to eight eigenvalues, wild
    in half the examples, as --lambda or as a one-row or one-column --csv
    file, and --k in [-1, n + 1]."""
    words = draw(st.lists(draw(st.sampled_from([FINITE_EIGENVALUES, WILD_EIGENVALUES])),
                          min_size=1, max_size=8))
    k = f"--k={draw(st.integers(-1, len(words) + 1))}"
    layout = draw(st.sampled_from(["lambda", "row", "column"]))
    if layout == "lambda":
        return ("sigma", None, f"--lambda={','.join(words)}", k)
    text = ",".join(words) + "\n" if layout == "row" else "".join(w + "\n" for w in words)
    return ("sigma", text, k)


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

    A case is (command, input, flags...), where input is the text or the
    bytes of the file or, for `solve`, `continue` and `volume`, the JSON
    object it holds; `sigma` reads no file when it is None."""
    command, content, *flags = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        path = tmp / "input"
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not None:
            path.write_text(content if isinstance(content, str) else json.dumps(content))
        argv = {"solve": ["--problem", path, "--out-prefix", tmp / "out"],
                "continue": ["--problem", path, "--out-prefix", tmp / "out"],
                "volume": ["--metric", path, "--out", tmp / "q.csv"],
                "classify": ["--profile", path],
                "harnack": ["--profile", path],
                "envelope": ["--grid", path, "--out", tmp / "env.csv"],
                "sigma": [] if content is None else ["--csv", path]}[command]
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
    # Drawn with (n, k) = (3, 3), now refused by the k range: exit 0 with a
    # residual of 7.7e169 and an overflow warning, because the root-form
    # Newton step, 3e-94, passed the step test at once.
    (problem(n=4, k=3, p=-4.662974732294732e138, domain={"type": "sphere_constant"},
             rhs={"f_const": 9.502878447915867e-136},
             solver={"N": 2, "tol": 0.0625, "max_iter": 1}), 3, "p"),
    # JSON integers beyond the float range, or sizes past the stated bounds:
    # an OverflowError (exit 1), a request for 7.28 TiB, or a refusal that
    # named neither the file nor the key.  Each is refused before anything
    # of its size is allocated.
    (problem(rhs={"f_table": [[0.0, 10**400], [1.0, 1.0]]}), 3, "rhs.f_table"),
    (problem(solver={"N": 10**400}), 3, "solver.N"),
    (problem(solver={"N": 10**12}), 3, "solver.N"),
    (problem(n=10**400), 3, "k"),
    (problem(n=10**400, k=10**400 - 1), 3, "n"),
    (("volume", {"kind": "euclidean", "num": 10**12}), 3, "num"),
    (("volume", {"kind": "euclidean", "num": 10**400}), 3, "num"),
]

# Extreme data that once printed numpy RuntimeWarnings before the solver
# failed: an overflowing initial iterate, and a non-finite Newton system.
WARNED = [
    annulus(0.5, 2.0, (0.0, 3.2e209)),
    problem(n=457, k=325, domain={"type": "ball", "r1": 0.001, "bc": 0.0}, solver={"N": 2}),
]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.one_of(problems(), metrics(), branches(), branches()))
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


# Eigenvalues whose sigma_j overflow: exit 0 with inf, nan and a numpy
# RuntimeWarning before this test.
SIGMA_OVERFLOWS = [
    (("sigma", None, "--lambda=1e308,1e308,1e308", "--k=2"), "--lambda", 1),
    (("sigma", None, "--lambda=1e200,1e200,-1e200", "--k=3"), "--lambda", 2),
    (("sigma", "1e200\n1e200\n-1e200\n", "--k=3"), "--csv file", 2),
    # sigma_1's running sum is finite, though numpy's order of additions
    # overflows; sigma_2 is not.
    (("sigma", None, "--lambda=-1e308,0,1e308,1e308,0,0,0,0", "--k=2"), "--lambda", 2),
]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(eigenvalue_inputs())
@example(SIGMA_OVERFLOWS[0][0])
@example(SIGMA_OVERFLOWS[1][0])
@example(SIGMA_OVERFLOWS[2][0])
@example(SIGMA_OVERFLOWS[3][0])
def test_any_eigenvalues_end_in_an_exit_code(case):
    code, err, warned = run(case)
    assert code in (0, 3), (code, err)
    assert "Traceback" not in err, err
    assert not warned, [str(w.message) for w in warned]


@pytest.mark.parametrize("case, flag, j", SIGMA_OVERFLOWS,
                         ids=["inf", "nan", "csv-nan", "numpy-sum"])
def test_sigma_overflow_names_flag_and_order(case, flag, j):
    code, err, warned = run(case)
    assert code == 3 and not warned, err
    assert err.startswith(f"error: {flag}") and f"sigma_{j} " in err, err


@pytest.mark.parametrize("order", ["-1e308,0,1e308,1e308,0,0,0,0",
                                   "-1e308,1e308,1e308,0,0,0,0,0"])
def test_finite_sigma_1_is_printed_in_either_order(order, capsys):
    # numpy's sum of the first order overflows; sigma_1 does not, in either.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sigma", f"--lambda={order}", "--k=1"]) == 0
    assert capsys.readouterr() == ("sigma_1 = 1e+308\nin Gamma_1: true\n", "")


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


# verify --seed as any text: negative, zero, beyond 2^64, or no integer.
SEEDS = st.one_of(st.integers(max_value=-1).map(str), st.just("0"),
                  st.integers(2**64, 2**256).map(str), st.text(max_size=6))


@settings(derandomize=True, deadline=None, max_examples=10)
@given(SEEDS)
@example("-1")
@example(str(2**64 + 1))
@example("7.5")
def test_any_verify_seed_ends_in_an_exit_code(seed):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["verify", f"--seed={seed}"])
    assert code in (0, 2, 3), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()


# (input file, flags) of one quick run of each command that writes files.
QUICK_RUNS = {
    "solve": ({"n": 3, "k": 2, "p": 2.0, "domain": {"type": "sphere_constant"},
               "rhs": {"f_const": 1.0}, "solver": {"N": 1}}, ["--out-prefix"]),
    "continue": ({"n": 3, "k": 2, "p": 4.0, "domain": {"type": "sphere_constant"},
                  "rhs": {"f_const": 1.0}, "solver": {"N": 1},
                  "continuation": {"step": 0.1, "t_start": 0.01}}, ["--out-prefix"]),
    "volume": ({"kind": "euclidean", "n": 3, "num": 3}, ["--out"]),
    "envelope": ("dims 2\nshape 3 3\nspacing 1\norigin 0 0\n1 1 1\n1 0 1\n1 1 1\n",
                 ["--center=1,1", "--out"]),
    "harnack": ("r,w\n1,0\n2,1\n3,1.5\n", ["--n=3", "--k=2", "--out"]),
    "classify": ("r,w\n0.001,1\n0.01,2\n0.1,3\n", ["--n=3", "--k=2", "--out"]),
}


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.sampled_from(sorted(QUICK_RUNS)),
       st.sampled_from(["new file", "missing directory", "directory", "file as directory"]))
def test_any_output_path_ends_in_an_exit_code(command, where):
    content, flags = QUICK_RUNS[command]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        (tmp / "input").write_text(content if isinstance(content, str) else json.dumps(content))
        (tmp / "plain").write_text("")
        (tmp / "dir").mkdir()
        out = {"new file": tmp / "out", "missing directory": tmp / "missing" / "out",
               "directory": tmp / "dir", "file as directory": tmp / "plain" / "out"}[where]
        input_flag = {"solve": "--problem", "continue": "--problem",
                      "volume": "--metric", "envelope": "--grid"}.get(command, "--profile")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, input_flag, str(tmp / "input"), *flags, str(out)])
    assert code in (0, 2, 3), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if where in ("missing directory", "file as directory"):
        assert code == 3 and err.getvalue().startswith(f"error: {flags[-1]} "), err.getvalue()
