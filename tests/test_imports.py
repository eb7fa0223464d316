"""Which scipy subpackages a fresh process loads.

scipy is imported in the functions that call it, so the package import and
the commands that need no scipy load none of it.  Each case runs in a fresh
interpreter and reads its sys.modules.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np

import khessian
from khessian import analysis
from khessian.cli import main
from khessian.radial import (GridField, RadialProfile, geometric_grid, load_profile_csv,
                             save_profile_csv)

SRC = os.path.dirname(os.path.dirname(os.path.abspath(khessian.__file__)))

# Runs cli.main on each argv of sys.argv[1] with stdout muted, then prints
# the exit codes and the scipy modules the process holds.
RUN_COMMANDS = """
import contextlib, io, json, sys
from khessian import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules
                                                  if m.split(".")[0] == "scipy")}))
"""


def fresh(code, *args):
    """Run code in a new interpreter on this package; returns its last stdout line as JSON."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_package_import_loads_no_scipy():
    out = fresh("import json, sys\nimport khessian, khessian.cli\n"
                "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    assert out == []


def test_sigma_classify_harnack_envelope_load_no_scipy(tmp_path):
    r = geometric_grid(1.0, 1e-6)
    profile = RadialProfile.from_callables(r, 3, 2, lambda t: 2 * np.log(t) + 5.0,
                                           lambda t: 2.0 / t, lambda t: -2.0 / t**2)
    save_profile_csv(profile, tmp_path / "profile.csv")
    field = GridField(0.05, np.zeros((41, 41)))
    field.values = np.sqrt(np.hypot(*field.node_coordinates().T)).reshape(41, 41)
    field.save_raw(tmp_path / "field.grid")
    cone = ["--n", "3", "--k", "2"]
    argvs = [["sigma", "--lambda", "1,2,3", "--k", "2"],
             ["classify", "--profile", str(tmp_path / "profile.csv"), *cone],
             ["harnack", "--profile", str(tmp_path / "profile.csv"), *cone],
             ["envelope", "--grid", str(tmp_path / "field.grid"), "--center", "0,0",
              "--step", "0.1", *cone, "--out", str(tmp_path / "env.csv")]]
    assert fresh(RUN_COMMANDS, json.dumps(argvs)) == {"codes": [0, 0, 0, 0], "scipy": []}


def test_mollify_mask_and_envelope_load_no_scipy():
    code = """
import json, sys
import numpy as np
from khessian import analysis, radial
from khessian.symfunc import ConeParams
f = radial.GridField(0.1, np.zeros((21, 22, 23)))
f.values = (2.0 + (f.node_coordinates() ** 2).sum(axis=1)).reshape(f.values.shape)
g = analysis.mollify(f, 0.25)
ok, _ = analysis.u_field_admissible_mask(g, ConeParams(3, 2))
env = radial.radial_envelope(g, np.zeros(3))
print(json.dumps({"in_cone": bool(ok.all()), "radii": len(env.r),
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""
    assert fresh(code) == {"in_cone": True, "radii": 8, "scipy": []}


def test_solve_and_continue_load_only_scipy_linalg(tmp_path):
    solve = {"n": 3, "k": 2, "p": 0.5, "domain": {"type": "ball", "r1": 1.0, "bc": 0.0},
             "rhs": {"f_const": 1.0}, "solver": {"N": 32}}
    annulus = {"type": "annulus", "r0": 0.5, "r1": 2.0,
               "bc": [1.6 * math.sqrt(0.5), 1.6 * math.sqrt(2.0)]}
    fold = {"n": 3, "k": 2, "p": 4.0, "domain": annulus, "rhs": {"f_const": 1.0},
            "solver": {"N": 24},
            "continuation": {"step": 0.05, "t_start": 1e-3, "after_fold_frac": 0.7}}
    (tmp_path / "solve.json").write_text(json.dumps(solve))
    (tmp_path / "fold.json").write_text(json.dumps(fold))
    argvs = [["solve", "--problem", str(tmp_path / "solve.json"),
              "--out-prefix", str(tmp_path / "s")],
             ["continue", "--problem", str(tmp_path / "fold.json"),
              "--out-prefix", str(tmp_path / "c")]]
    out = fresh(RUN_COMMANDS, json.dumps(argvs))
    assert out["codes"] == [0, 0]
    assert "scipy.linalg" in out["scipy"]
    for name in ("scipy.integrate", "scipy.interpolate", "scipy.ndimage"):
        assert name not in out["scipy"]


def test_volume_runs_its_deferred_imports(tmp_path, capsys):
    metric = {"kind": "sphere_stereographic", "n": 3, "s_min": 0.05, "s_max": 0.5, "num": 12}
    (tmp_path / "metric.json").write_text(json.dumps(metric))
    # A sampled profile: volume_ratio interpolates it by PCHIP.
    r = np.geomspace(1e-3, 4.0, 200)
    sphere = RadialProfile.from_callables(r, 3, 2, lambda t: np.log((1 + t * t) / 2),
                                          lambda t: 2 * t / (1 + t * t),
                                          lambda t: 2 * (1 - t * t) / (1 + t * t) ** 2)
    save_profile_csv(sphere, tmp_path / "sphere.csv")
    s = [0.05, 0.2, 0.35, 0.5]
    code = f"""
import contextlib, io, json
from khessian import analysis, cli, radial
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["volume", "--metric", {str(tmp_path / "metric.json")!r},
                     "--out", {str(tmp_path / "fresh.csv")!r}])
profile = radial.load_profile_csv({str(tmp_path / "sphere.csv")!r}, 3, 2)
print(json.dumps({{"code": code, "Q": analysis.volume_ratio(profile, 3, {s!r}).Q.tolist()}}))
"""
    out = fresh(code)
    assert out["code"] == 0
    profile = load_profile_csv(tmp_path / "sphere.csv", 3, 2)
    assert out["Q"] == analysis.volume_ratio(profile, 3, s).Q.tolist()
    assert main(["volume", "--metric", str(tmp_path / "metric.json"),
                 "--out", str(tmp_path / "here.csv")]) == 0
    assert (tmp_path / "fresh.csv").read_text() == (tmp_path / "here.csv").read_text()
