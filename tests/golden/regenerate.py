"""Regenerate the golden outputs of `khessian solve`, `continue`, `volume`,
`envelope`, `harnack`, `sigma`, `classify` and `verify`.

Each case is one command, with at most one input file, run in an empty
directory:

  * `khessian solve|continue --problem problem.json --out-prefix out`;
  * `khessian volume --metric metric.json --out out_curve.csv
    --summary out_summary.json`;
  * `khessian envelope --grid grid.txt --center ... --step ... --n ... --k ...
    --out out_envelope.csv`, the grid file written here as text from a
    quadratic field (see _grid_text), or as GridField.save_raw's archive,
    still named grid.txt (see _grid_field);
  * `khessian harnack --profile profile.csv --n ... --k ... --min-sep ...
    --out out_harnack.json`;
  * `khessian sigma --lambda ... --k ...`, or `--csv eigenvalues.csv` with
    the eigenvalues written here as one CSV row;
  * `khessian classify --profile profile.csv --n ... --k ...
    --out out_classify.json`, the profile written here (see _singular_profile_text);
  * `khessian verify --seed ...`, which reads no file; its detail lines move
    whenever the check list or its random stream does.

`<case>.json` next to this script records:

  * argv, the input (under "problem") and the exit code;
  * stdout: a stdout that is one JSON document as that value without its
    run manifest, else one parsed JSON value per line, a line that is not
    JSON as its text;
  * every output file: CSVs as header and rows, JSON without its run
    manifest.

Numbers are written with 17 significant digits, which round-trips a double.
tests/test_golden.py re-runs every case and compares with these files: every
number within REL relative, residuals also when both lie within
RESIDUAL_FLOOR.

Usage, from the root of the repository (names regenerate only those cases;
--check writes nothing, prints every case and key path that moved beyond
that tolerance, then the largest relative difference it accepted within REL
and its key path, and exits 1 if any moved):

    PYTHONPATH=src python tests/golden/regenerate.py [--check] [case ...]
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
REL = 1e-12
RESIDUAL_FLOOR = 1e-11


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
# The text grids have a comment and a blank line among their rows.
ENVELOPE_GRIDS = {
    "envelope_quadratic_2d": {"shape": [9, 11], "spacing": 0.25, "origin": [-1.0, -1.25],
                              "coeffs": [2.0, 1.0, 0.5, 0.25], "center": [0.1, -0.05],
                              "step": 0.1, "n": 3, "k": 2},
    "envelope_quadratic_3d": {"shape": [44, 44, 44], "spacing": 0.05,
                              "origin": [-1.075, -1.075, -1.075],
                              "coeffs": [6.5, 0.7, 0.9, 0.6, 0.2], "center": [0.05, -0.1, 0.025],
                              "step": 0.05, "n": 3, "k": 2},
    # Written by GridField.save_raw, as archives.
    "envelope_saved_records_3d": {"shape": [40, 42, 44], "spacing": 0.05,
                                  "origin": [-0.975, -1.025, -1.075],
                                  "coeffs": [3.25, 0.8, 0.6, 0.9, -0.15],
                                  "center": [0.015, -0.02, 0.03], "step": 0.05,
                                  "n": 3, "k": 2, "writer": "save_raw"},
    "envelope_saved_signed_2d": {"shape": [60, 70], "spacing": 0.05, "origin": [-1.5, -1.7],
                                 "coeffs": [-0.5, 1.0, 0.75, 0.3], "center": [0.02, -0.03],
                                 "step": 0.05, "n": 3, "k": 2, "writer": "save_raw"},
}

# Harnack profiles: w = a sqrt(r) + b r^2 on a uniform grid of [r0, r1].
HARNACK_PROFILES = {
    "harnack_profile_32": {"r0": 0.01, "r1": 2.0, "num": 60, "a": 1.6, "b": 0.05,
                           "n": 3, "k": 2, "min_sep": 0.0},
    "harnack_profile_53_min_sep": {"r0": 0.02, "r1": 1.5, "num": 45, "a": 1.2, "b": -0.1,
                                   "n": 5, "k": 3, "min_sep": 0.1},
}


# Eigenvalues for `sigma`: inside Gamma_3 (and Sigma_delta), and outside Gamma_2.
SIGMA_CASES = {
    "sigma_lambda_n4_k3": {"lambda": [2.0, 1.5, -0.25, 0.75], "k": 3},
    "sigma_csv_n5_k2": {"csv": [1.0, -2.5, 0.5, 0.125, -0.75], "k": 2},
}

# Profiles for `classify` on the geometric grid r_max q^i down to r_min: the
# fundamental singularity w = 2 log r + C with its derivatives, and the Holder
# factor w = c r^(1-theta) / (1-theta), theta = (n-k)/k, sampled without them.
CLASSIFY_PROFILES = {
    "classify_fundamental_analytic": {"kind": "fundamental", "C": 5.0, "r_max": 1.0,
                                      "r_min": 1e-6, "q": 0.8, "n": 3, "k": 2},
    "classify_holder_sampled_53": {"kind": "holder", "c": 0.5, "r_max": 1.0, "r_min": 1e-6,
                                   "q": 0.8, "n": 5, "k": 3},
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


def _grid_field(spec):
    """The field of an ENVELOPE_GRIDS entry as a GridField, with the values of
    _grid_text."""
    from khessian.radial import GridField

    field = GridField(spec["spacing"], np.zeros(spec["shape"]), spec["origin"])
    x = np.meshgrid(*field.axes(), indexing="ij")
    c0, *cd = spec["coeffs"]
    u = c0
    for c, xd in zip(cd, x):
        u = u + c * xd * xd
    field.values = u + cd[-1] * x[0] * x[1]
    return field


def _profile_text(spec):
    """The r,w profile CSV of a HARNACK_PROFILES entry."""
    num, r0, r1 = spec["num"], spec["r0"], spec["r1"]
    rows = []
    for i in range(num):
        r = r0 + (r1 - r0) * i / (num - 1)
        rows.append(f"{r:.17g},{spec['a'] * math.sqrt(r) + spec['b'] * r * r:.17g}")
    return "r,w\n" + "\n".join(rows) + "\n"


def _singular_profile_text(spec):
    """The profile CSV of a CLASSIFY_PROFILES entry."""
    count = int(math.floor(math.log(spec["r_min"] / spec["r_max"]) / math.log(spec["q"]))) + 1
    radii = sorted(spec["r_max"] * spec["q"] ** i for i in range(count))
    if spec["kind"] == "fundamental":
        rows = [(r, 2.0 * math.log(r) + spec["C"], 2.0 / r, -2.0 / r**2) for r in radii]
        header = "r,w,dw,d2w"
    else:
        theta = (spec["n"] - spec["k"]) / spec["k"]
        rows = [(r, spec["c"] / (1.0 - theta) * r ** (1.0 - theta)) for r in radii]
        header = "r,w"
    return header + "\n" + "".join(",".join(f"{x:.17g}" for x in row) + "\n" for row in rows)


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
    for name, eigenvalues in SIGMA_CASES.items():
        out[name] = ("sigma", dict(eigenvalues))
    for name, profile in CLASSIFY_PROFILES.items():
        out[name] = ("classify", dict(profile))
    out["verify_seed_7"] = ("verify", {"seed": 7})
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
        if problem.get("writer") == "save_raw":
            _grid_field(problem).save_raw(workdir / "grid.txt")
        else:
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
    if command == "sigma":
        if "lambda" in problem:
            return [command, "--lambda", ",".join(map(repr, problem["lambda"])),
                    "--k", str(problem["k"])]
        (workdir / "eigenvalues.csv").write_text(",".join(map(repr, problem["csv"])) + "\n")
        return [command, "--csv", "eigenvalues.csv", "--k", str(problem["k"])]
    if command == "verify":
        return [command, "--seed", str(problem["seed"])]
    if command == "classify":
        (workdir / "profile.csv").write_text(_singular_profile_text(problem))
        return [command, "--profile", "profile.csv", "--n", str(problem["n"]),
                "--k", str(problem["k"]), "--out", "out_classify.json"]
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


def mismatches(got, want, where, residual=False, accepted=None):
    """Descriptions of every difference between got and want, by key path.
    accepted, a list, receives (relative difference, key path) of every
    number that differs within REL."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                    f"!= {sorted(want)}"]
        return [m for key in sorted(want)
                for m in mismatches(got[key], want[key], f"{where}.{key}",
                                    residual or key == "residual", accepted)]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: length {len(got) if isinstance(got, list) else got!r} "
                    f"!= {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{where}[{i}]", residual, accepted)]
    if _is_number(want) and _is_number(got):
        scale = max(abs(got), abs(want))
        if abs(got - want) <= REL * scale:
            if accepted is not None and got != want:
                accepted.append((abs(got - want) / scale, where))
            return []
        if residual and scale <= RESIDUAL_FLOOR:
            return []
        return [f"{where}: {got!r} != {want!r}"]
    return [] if got == want and type(got) is type(want) else [f"{where}: {got!r} != {want!r}"]


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def csv_residuals(record):
    """The record with each CSV's residual column keyed as 'residual'."""
    for table in record["files"].values():
        if "header" in table and "residual" in table["header"]:
            col = table["header"].index("residual")
            table["residual"] = [row.pop(col) for row in table["rows"]]
    return record


def moved(name, workdir, accepted=None) -> list:
    """Every key path of golden case name that a re-run in the empty
    directory workdir moves beyond the tolerance, and its input if that
    differs at all from the one recorded (accepted: see mismatches)."""
    path = HERE / f"{name}.json"
    if not path.exists():
        return [f"{name}: no golden file"]
    want = json.loads(path.read_text())
    got = json.loads(_dumps(run_case(*cases()[name], workdir)))
    found = [] if got.pop("problem") == want.pop("problem") else [f"{name}.problem: changed"]
    return found + mismatches(csv_residuals(got), csv_residuals(want), name, accepted=accepted)


def main(names=(), check=False):
    known = cases()
    unknown = sorted(set(names) - set(known))
    if unknown:
        raise SystemExit(f"unknown golden case(s): {', '.join(unknown)}")
    found, accepted = [], []
    for name in names or known:
        with tempfile.TemporaryDirectory() as workdir:
            if check:
                found += moved(name, workdir, accepted)
            else:
                record = run_case(*known[name], workdir)
                (HERE / f"{name}.json").write_text(_dumps(record) + "\n")
                print(f"{name}: exit {record['exit']}")
    if check:
        print("\n".join(found) or "no golden case moved")
        if accepted:
            print("largest relative difference accepted within REL: %.3g at %s" % max(accepted))
        else:
            print("no number differs")
    return 1 if found else 0


if __name__ == "__main__":
    args = sys.argv[1:]
    sys.exit(main([a for a in args if a != "--check"], check="--check" in args))
