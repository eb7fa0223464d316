"""Property test of the input contract: whatever numbers a problem or metric
file holds, `khessian solve` and `khessian volume` end in exit 0, 2 or 3 and
never raise.

The numeric fields of p < k ball and annulus problem files and of metric
files are drawn from ordinary values and from the whole float range (nan and
inf included, which the loaders reject).  Grid sizes, iteration limits and
radius counts stay small, so every example runs in milliseconds.
"""

import contextlib
import io
import json
import pathlib
import tempfile

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


def ball(r1, bc):
    return ("solve", {"n": 3, "k": 2, "p": 0.5, "domain": {"type": "ball", "r1": r1, "bc": bc},
                      "solver": {"N": 16}})


def annulus(r0, r1):
    return ("solve", {"n": 3, "k": 2, "p": 0.5,
                      "domain": {"type": "annulus", "r0": r0, "r1": r1, "bc": [0.0, 0.0]},
                      "solver": {"N": 16}})


def run(case):
    """(exit code, stderr) of the command on the case's file."""
    command, spec = case
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "input.json"
        path.write_text(json.dumps(spec))
        if command == "solve":
            argv = ["solve", "--problem", str(path), "--out-prefix", str(pathlib.Path(tmp) / "out")]
        else:
            argv = ["volume", "--metric", str(path), "--out", str(pathlib.Path(tmp) / "q.csv")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, err.getvalue()


# Inputs that once ended in a traceback (an overflow or a division by zero in
# the initial iterate or in the unit-sphere area), with the exit code and the
# key their message names now.
FORMER_CRASHES = [
    (ball(1e-320, 0.0), 3, "domain.r1"),
    (ball(1e300, 0.0), 3, "domain.r1"),
    (ball(1.0, 1e300), 2, None),
    (annulus(0.5, 1e300), 3, "domain.r1"),
    (annulus(1e-320, 2e-320), 3, "domain.r0"),
    (("volume", {"kind": "sphere_stereographic", "n": 400}), 3, "n"),
]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.one_of(problems(), metrics()))
@example(FORMER_CRASHES[0][0])
@example(FORMER_CRASHES[1][0])
@example(FORMER_CRASHES[2][0])
@example(FORMER_CRASHES[3][0])
@example(FORMER_CRASHES[4][0])
@example(FORMER_CRASHES[5][0])
def test_any_numbers_end_in_an_exit_code(case):
    code, err = run(case)
    assert code in (0, 2, 3), (code, err)


@pytest.mark.parametrize("case, code, key", FORMER_CRASHES)
def test_former_crashes_name_their_key(case, code, key):
    got, err = run(case)
    assert got == code, err
    if key is not None:
        assert f"key '{key}'" in err, err
    assert "Traceback" not in err
