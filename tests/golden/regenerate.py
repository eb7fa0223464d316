"""Regenerate the golden outputs of `khessian solve`, `continue` and `volume`.

Each case is one input file and one command.  The case runs in an empty
directory as `khessian <command> --problem problem.json --out-prefix out`,
or for `volume` as `khessian volume --metric metric.json --out out_curve.csv
--summary out_summary.json`, and `<case>.json` next to this script records:

  * argv, the input file (under "problem") and the exit code;
  * stdout, one parsed JSON value per line;
  * every output file: CSVs as header and rows, the summary JSON without
    its run manifest.

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
    return out


def _read_output(path: Path):
    if path.suffix == ".csv":
        lines = path.read_text().splitlines()
        return {"header": lines[0].split(","),
                "rows": [[float(x) for x in line.split(",")] for line in lines[1:]]}
    payload = json.loads(path.read_text())
    payload.pop("manifest", None)
    return payload


def run_case(command: str, problem: dict, workdir) -> dict:
    """Run one case in the empty directory workdir; returns its record."""
    from khessian.cli import main

    workdir = Path(workdir)
    if command == "volume":
        (workdir / "metric.json").write_text(json.dumps(problem))
        argv = [command, "--metric", "metric.json", "--out", "out_curve.csv",
                "--summary", "out_summary.json"]
    else:
        (workdir / "problem.json").write_text(json.dumps(problem))
        argv = [command, "--problem", "problem.json", "--out-prefix", "out"]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return {"argv": argv, "problem": problem, "exit": code,
            "stdout": [json.loads(line) for line in out.getvalue().splitlines()],
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
