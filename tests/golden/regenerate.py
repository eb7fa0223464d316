"""Regenerate the golden outputs of `khessian solve`, `continue`, `volume`,
`envelope` and `harnack`.

Each case is one input file and one command, run in an empty directory:

  * `khessian solve|continue --problem problem.json --out-prefix out`;
  * `khessian volume --metric metric.json --out out_curve.csv
    --summary out_summary.json`;
  * `khessian envelope --grid grid.txt --center ... --step ... --n ... --k ...
    --out out_envelope.csv`, the grid file written here from a quadratic
    field (see _grid_text);
  * `khessian harnack --profile profile.csv --n ... --k ... --min-sep ...
    --out out_harnack.json`.

`<case>.json` next to this script records:

  * argv, the input (under "problem") and the exit code;
  * stdout: a stdout that is one JSON document as that value without its
    run manifest, else one parsed JSON value per line, a line that is not
    JSON as its text;
  * every output file: CSVs as header and rows, JSON without its run
    manifest.

Numbers are written with 17 significant digits, which round-trips a double.
tests/test_golden.py re-runs every case and compares with these files.

Usage, from the root of the repository (names regenerate only those cases):

    PYTHONPATH=src python tests/golden/regenerate.py [case ...]
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent


def _quartic_ball_table():
    """f of the p = 1/2 ball problem whose solution is w = 0.4 r^2 + 0.1 r^4."""
    r = np.linspace(1e-4, 1.0, 60)
    dw, d2w = 0.8 * r + 0.4 * r**3, 0.8 + 1.2 * r**2
    a, b = d2w + 0.5 * dw**2, dw / r - 0.5 * dw**2
    f = (b**2 + 2 * a * b) * np.exp(-0.75 * (0.4 * r**2 + 0.1 * r**4)) / 4.0
    return [[float(x), float(y)] for x, y in zip(r, f)]


def _sqrt_annulus_table():
    """f of the p = 1/2 annulus problem whose solution is w = 1.6 sqrt(r)."""
    r = np.linspace(0.5, 2.0, 60)
    dw, d2w = 0.8 * r**-0.5, -0.4 * r**-1.5
    a, b = d2w + 0.5 * dw**2, dw / r - 0.5 * dw**2
    f = (b**2 + 2 * a * b) * np.exp(-0.75 * 1.6 * np.sqrt(r)) / 4.0
    return [[float(x), float(y)] for x, y in zip(r, f)]


W_ANNULUS = [1.6 * math.sqrt(0.5), 1.6 * math.sqrt(2.0)]
SPHERE = {"type": "sphere_constant"}
SPHERE_CONTINUATION = {"step": 0.02, "t_start": 0.005, "after_fold_frac": 0.6}


def _annulus_fold(N):
    return {"n": 3, "k": 2, "p": 4.0,
            "domain": {"type": "annulus", "r0": 0.5, "r1": 2.0, "bc": W_ANNULUS},
            "rhs": {"f_const": 1.0}, "solver": {"N": N},
            "continuation": {"delta0": 1.0, "step": 0.02, "t_start": 1e-3,
                             "t_max": 50.0, "after_fold_frac": 0.7}}


# Volume metrics: the stereographic sphere about its regular origin, the
# fundamental end measured inward from rho_ref = 1, and the truncated cap
# whose radii cross its kink at s = e.  The Euclidean metric is left out: its
# quadratic coefficient is rounding noise near 1e-15.
VOLUME_METRICS = {
    "volume_stereographic_origin": {"kind": "sphere_stereographic", "n": 3, "mode": "origin",
                                    "s_min": 0.05, "s_max": 0.5, "num": 25},
    "volume_fundamental_log_end": {"kind": "fundamental_log", "n": 3, "mode": "end",
                                   "rho_ref": 1.0, "s_min": 50.0, "s_max": 400.0, "num": 25},
    "volume_truncated_log_origin": {"kind": "truncated_log", "K": 2.0, "n": 3, "mode": "origin",
                                    "s_min": 0.6, "s_max": 3.0, "num": 15},
}


# Envelope grids: u = c0 + sum_d c_d x_d^2 + c_xy x_0 x_1 on a uniform box.
# The 3-d grid is over 1 MB of text, with a comment and a blank line among
# its rows, so a reader that splits large files meets both.
ENVELOPE_GRIDS = {
    "envelope_quadratic_2d": {"shape": [9, 11], "spacing": 0.25, "origin": [-1.0, -1.25],
                              "coeffs": [2.0, 1.0, 0.5, 0.25], "center": [0.1, -0.05],
                              "step": 0.1, "n": 3, "k": 2},
    "envelope_quadratic_3d": {"shape": [44, 44, 44], "spacing": 0.05,
                              "origin": [-1.075, -1.075, -1.075],
                              "coeffs": [6.5, 0.7, 0.9, 0.6, 0.2], "center": [0.05, -0.1, 0.025],
                              "step": 0.05, "n": 3, "k": 2},
}

# Harnack profiles: w = a sqrt(r) + b r^2 on a uniform grid of [r0, r1].
HARNACK_PROFILES = {
    "harnack_profile_32": {"r0": 0.01, "r1": 2.0, "num": 60, "a": 1.6, "b": 0.05,
                           "n": 3, "k": 2, "min_sep": 0.0},
    "harnack_profile_53_min_sep": {"r0": 0.02, "r1": 1.5, "num": 45, "a": 1.2, "b": -0.1,
                                   "n": 5, "k": 3, "min_sep": 0.1},
}


def _grid_text(spec):
    """The grid file of an ENVELOPE_GRIDS entry, one axis-0 plane per data row."""
    shape, h, origin = spec["shape"], spec["spacing"], spec["origin"]
    c0, *cd = spec["coeffs"]
    axes = [[o + h * i for i in range(s)] for o, s in zip(origin, shape)]
    lines = [f"dims {len(shape)}", "shape " + " ".join(map(str, shape)),
             f"spacing {h:.16e}", "origin " + " ".join(f"{o:.16e}" for o in origin)]
    inner = [[]]
    for ax in axes[1:]:
        inner = [p + [x] for p in inner for x in ax]
    for i, x0 in enumerate(axes[0]):
        row = []
        for rest in inner:
            x = [x0] + rest
            u = c0
            for c, xd in zip(cd, x):
                u += c * xd * xd
            row.append(u + cd[-1] * x[0] * x[1])
        lines.append(" ".join(f"{u:.16e}" for u in row))
        if i == 1:
            lines.append("# a comment line")
        if i == len(axes[0]) // 2:
            lines.append("")
    return "\n".join(lines) + "\n"


def _profile_text(spec):
    """The r,w profile CSV of a HARNACK_PROFILES entry."""
    num, r0, r1 = spec["num"], spec["r0"], spec["r1"]
    rows = []
    for i in range(num):
        r = r0 + (r1 - r0) * i / (num - 1)
        rows.append(f"{r:.17g},{spec['a'] * math.sqrt(r) + spec['b'] * r * r:.17g}")
    return "r,w\n" + "\n".join(rows) + "\n"


def cases():
    """{name: (command, input)} of every golden case."""
    out = {
        "solve_ball_p_lt_k": ("solve", {
            "n": 3, "k": 2, "p": 0.5, "domain": {"type": "ball", "r1": 1.0, "bc": 0.5},
            "rhs": {"f_table": _quartic_ball_table()}, "solver": {"N": 48}}),
        "solve_annulus_p_lt_k": ("solve", {
            "n": 3, "k": 2, "p": 0.5,
            "domain": {"type": "annulus", "r0": 0.5, "r1": 2.0, "bc": W_ANNULUS},
            "rhs": {"f_table": _sqrt_annulus_table()}, "solver": {"N": 48}}),
        "solve_sphere_p_gt_k": ("solve", {
            "n": 3, "k": 2, "p": 4.0, "domain": SPHERE, "rhs": {"f_const": 1.0},
            "solver": {"N": 1}, "continuation": {"step": 0.05, "t_start": 0.005}}),
        # With f small the fold lies past t = 1, so both branches cross t = 1.
        "solve_annulus_p_gt_k": ("solve", {
            "n": 3, "k": 2, "p": 4.0,
            "domain": {"type": "annulus", "r0": 0.5, "r1": 2.0,
                       "bc": [2.0 * math.sqrt(0.5), 2.0 * math.sqrt(2.0)]},
            "rhs": {"f_const": 1e-3}, "solver": {"N": 32}, "continuation": {"t_start": 1e-3}}),
        "continue_annulus_N96": ("continue", _annulus_fold(96)),
    }
    for (n, k), f in {(3, 2): 1.3, (4, 3): 0.7, (5, 3): 1.9, (5, 4): 0.55}.items():
        out[f"solve_sphere_p_eq_k_{n}{k}"] = ("solve", {
            "n": n, "k": k, "p": float(k), "domain": SPHERE, "rhs": {"f_const": f},
            "solver": {"N": 1}})
    for (n, k, p), f in {(3, 2, 4.0): 1.0, (4, 3, 5.0): 0.8, (5, 3, 4.0): 1.4,
                         (5, 4, 6.0): 0.6}.items():
        out[f"continue_sphere_{n}{k}{p:g}"] = ("continue", {
            "n": n, "k": k, "p": p, "domain": SPHERE, "rhs": {"f_const": f},
            "solver": {"N": 1}, "continuation": dict(SPHERE_CONTINUATION)})
    for name, metric in VOLUME_METRICS.items():
        out[name] = ("volume", dict(metric))
    for name, grid in ENVELOPE_GRIDS.items():
        out[name] = ("envelope", dict(grid))
    for name, profile in HARNACK_PROFILES.items():
        out[name] = ("harnack", dict(profile))
    return out


def _read_output(path: Path):
    if path.suffix == ".csv":
        lines = path.read_text().splitlines()
        return {"header": lines[0].split(","),
                "rows": [[float(x) for x in line.split(",")] for line in lines[1:]]}
    payload = json.loads(path.read_text())
    payload.pop("manifest", None)
    return payload


def _read_stdout(text: str) -> list:
    """stdout as [value] without its manifest when all of it is one JSON
    document, else one parsed JSON value per line (text for a line that is
    not JSON)."""
    try:
        payload = json.loads(text)
    except ValueError:
        return [_json_or_text(line) for line in text.splitlines()]
    if isinstance(payload, dict):
        payload.pop("manifest", None)
    return [payload]


def _json_or_text(line: str):
    try:
        return json.loads(line)
    except ValueError:
        return line


def _write_input(command: str, problem: dict, workdir: Path) -> list:
    """Write the case's input file into workdir; returns the argv."""
    if command == "volume":
        (workdir / "metric.json").write_text(json.dumps(problem))
        return [command, "--metric", "metric.json", "--out", "out_curve.csv",
                "--summary", "out_summary.json"]
    if command == "envelope":
        (workdir / "grid.txt").write_text(_grid_text(problem))
        return [command, "--grid", "grid.txt",
                "--center", ",".join(repr(c) for c in problem["center"]),
                "--step", repr(problem["step"]), "--n", str(problem["n"]),
                "--k", str(problem["k"]), "--out", "out_envelope.csv"]
    if command == "harnack":
        (workdir / "profile.csv").write_text(_profile_text(problem))
        return [command, "--profile", "profile.csv", "--n", str(problem["n"]),
                "--k", str(problem["k"]), "--min-sep", repr(problem["min_sep"]),
                "--out", "out_harnack.json"]
    (workdir / "problem.json").write_text(json.dumps(problem))
    return [command, "--problem", "problem.json", "--out-prefix", "out"]


def run_case(command: str, problem: dict, workdir) -> dict:
    """Run one case in the empty directory workdir; returns its record."""
    from khessian.cli import main

    workdir = Path(workdir)
    argv = _write_input(command, problem, workdir)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return {"argv": argv, "problem": problem, "exit": code,
            "stdout": _read_stdout(out.getvalue()),
            "files": {p.name: _read_output(p) for p in sorted(workdir.glob("out_*"))}}


def _dumps(value, indent=""):
    """JSON text with every float written with 17 significant digits."""
    inner = indent + " "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{inner}{json.dumps(k)}: {_dumps(v, inner)}" for k, v in sorted(value.items())]
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if isinstance(value, list):
        if any(isinstance(v, (dict, list)) for v in value):
            rows = ",\n".join(inner + _dumps(v, inner) for v in value)
            return "[\n" + rows + "\n" + indent + "]"
        return "[" + ", ".join(_dumps(v) for v in value) + "]"
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite number {value!r} in a golden output")
        text = format(value, ".17g")
        return text if any(c in text for c in ".e") else text + ".0"
    return json.dumps(value)


def main(names=()):
    known = cases()
    unknown = sorted(set(names) - set(known))
    if unknown:
        raise SystemExit(f"unknown golden case(s): {', '.join(unknown)}")
    for name in names or known:
        command, problem = known[name]
        with tempfile.TemporaryDirectory() as workdir:
            record = run_case(command, problem, workdir)
        (HERE / f"{name}.json").write_text(_dumps(record) + "\n")
        print(f"{name}: exit {record['exit']}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
