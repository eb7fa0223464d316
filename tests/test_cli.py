import dataclasses
import io
import itertools
import json
import math
import warnings
import zipfile

import numpy as np
import pytest

from khessian import cli, conformal, radial, symfunc
from khessian.cli import main
from khessian.radial import RadialProfile, geometric_grid, save_profile_csv, write_csv
from khessian.symfunc import ConeParams, in_gamma_k, in_sigma_delta, sigma_all


@pytest.fixture
def fundamental_csv(tmp_path):
    r = geometric_grid(1.0, 1e-6)
    p = RadialProfile.from_callables(r, 3, 2, lambda t: 2 * np.log(t) + 5.0,
                                     lambda t: 2.0 / t, lambda t: -2.0 / t**2)
    path = tmp_path / "fundamental.csv"
    save_profile_csv(p, path)
    return path


@pytest.fixture
def holder_csv(tmp_path):
    r = geometric_grid(1.0, 1e-6)
    c, theta = 0.5, 0.5
    p = RadialProfile.from_callables(r, 3, 2,
                                     lambda t: c / (1 - theta) * t ** (1 - theta),
                                     lambda t: c * t ** (-theta),
                                     lambda t: -c * theta * t ** (-theta - 1))
    path = tmp_path / "holder.csv"
    save_profile_csv(p, path)
    return path


@pytest.fixture
def scalar_problem_json(tmp_path):
    spec = {
        "n": 3, "k": 2, "p": 4.0,
        "domain": {"type": "sphere_constant"},
        "rhs": {"f_const": 1.0},
        "solver": {"N": 1},
        "continuation": {"delta0": 1.0, "step": 0.02, "t_start": 0.005,
                         "after_fold_frac": 0.6},
    }
    path = tmp_path / "scalar_n3k2p4.json"
    path.write_text(json.dumps(spec))
    return path


class TestSigmaCommand:
    def test_positive_orthant(self, capsys):
        assert main(["sigma", "--lambda", "1,1,1,1", "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "sigma_3 = 4" in out
        assert "in Gamma_3: true" in out

    def test_outside_cone(self, capsys):
        assert main(["sigma", "--lambda=-1,1,1", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "in Gamma_2: false" in out

    def test_enumeration_value(self, capsys):
        assert main(["sigma", "--lambda", "1,2,3", "--k", "2"]) == 0
        assert "sigma_2 = 11" in capsys.readouterr().out

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [2, 3])
    def test_wide_range_eigenvalues_keep_the_embedding(self, capsys, k):
        # Entries 550 decades apart with a finite sum: Gamma_k lies in
        # Sigma_delta, also for delta = 0 at k = n.
        assert main(["sigma", "--lambda=1e300,1e-250,1e-250", "--k", str(k)]) == 0
        out = capsys.readouterr().out
        assert f"in Gamma_{k}: true" in out
        delta = ConeParams(3, k).delta_gv
        assert f"in Sigma_delta (delta={delta:.6g}): true" in out

    def test_malformed_input_exits_3(self, capsys):
        assert main(["sigma", "--lambda", "1,abc", "--k", "2"]) == 3
        assert main(["sigma", "--lambda", "1,2", "--k", "5"]) == 3
        assert main(["sigma", "--k", "2"]) == 3

    def test_csv_input(self, tmp_path, capsys):
        path = tmp_path / "lam.csv"
        path.write_text("1.0,2.0,3.0\n")
        assert main(["sigma", "--csv", str(path), "--k", "2"]) == 0
        assert "sigma_2 = 11" in capsys.readouterr().out

    @pytest.mark.parametrize("entries, named", [
        ("1,x,3", "--lambda entry 2 must be a finite number, got 'x'"),
        ("1,2,", "--lambda entry 3 must be a finite number, got ''"),
        ("nan,2,3", "--lambda entry 1 must be a finite number, got 'nan'"),
        ("1,2,-inf", "--lambda entry 3 must be a finite number, got '-inf'"),
    ])
    def test_bad_lambda_entry_is_named(self, capsys, entries, named):
        assert main(["sigma", "--lambda=" + entries, "--k", "2"]) == 3
        assert capsys.readouterr().err == f"error: {named}\n"

    @pytest.mark.parametrize("text, named", [
        ("1.0,x,3.0\n", "could not convert string 'x'"),
        ("1.0,2.0\n3.0\n", "the number of columns changed"),
        ("1.0,inf,3.0\n", "entry 2 is inf"),
    ])
    def test_bad_csv_names_the_file(self, tmp_path, capsys, text, named):
        path = tmp_path / "lam.csv"
        path.write_text(text)
        assert main(["sigma", "--csv", str(path), "--k", "2"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: --csv file {path}: ") and named in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", ["", "\n", "# no values\n"], ids=["empty", "blank", "comment"])
    def test_csv_without_values_is_named(self, tmp_path, capsys, text):
        # One message and no numpy warning ("loadtxt: input contained no data").
        path = tmp_path / "empty.csv"
        path.write_text(text)
        assert main(["sigma", "--csv", str(path), "--k", "2"]) == 3
        assert capsys.readouterr().err == f"error: --csv file {path}: no eigenvalues\n"


class TestClassifyCommand:
    def test_fundamental(self, fundamental_csv, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["classify", "--profile", str(fundamental_csv),
                     "--n", "3", "--k", "2", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["class"] == "fundamental"
        assert report["C"] == pytest.approx(5.0, abs=1e-10)
        assert report["manifest"]["command"] == "classify"

    def test_holder(self, holder_csv, capsys):
        assert main(["classify", "--profile", str(holder_csv),
                     "--n", "3", "--k", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["class"] == "holder"
        assert report["alpha_est"] == pytest.approx(0.5, rel=0.02)

    def test_inadmissible_exits_3(self, tmp_path, capsys):
        r = np.geomspace(1e-3, 1.0, 40)
        p = RadialProfile.from_callables(r, 3, 2, lambda t: np.log(t),
                                         lambda t: 1.0 / t, lambda t: -1.0 / t**2)
        path = tmp_path / "bad.csv"
        save_profile_csv(p, path)
        assert main(["classify", "--profile", str(path), "--n", "3", "--k", "2"]) == 3
        assert "not admissible" in capsys.readouterr().err

    def test_missing_file_exits_3(self, capsys):
        assert main(["classify", "--profile", "/nonexistent.csv",
                     "--n", "3", "--k", "2"]) == 3

    def test_cone_outside_the_paper_exits_3(self, fundamental_csv, capsys):
        assert main(["classify", "--profile", str(fundamental_csv),
                     "--n", "4", "--k", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--n 4 --k 2: (n, k) = (4, 2) is not supercritical" in captured.err

    def test_k_equal_to_n_exits_3(self, fundamental_csv, capsys):
        # The Harnack and Holder statements hold for n/2 < k < n.
        assert main(["classify", "--profile", str(fundamental_csv),
                     "--n", "3", "--k", "3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--n 3 --k 3: need k < n" in captured.err


class TestSolveCommand:
    def test_eigenvalue_regime(self, tmp_path, capsys):
        spec = {"n": 3, "k": 2, "p": 2.0,
                "domain": {"type": "sphere_constant"},
                "rhs": {"f_const": 1.0}, "solver": {"N": 1}}
        path = tmp_path / "eigen.json"
        path.write_text(json.dumps(spec))
        code = main(["solve", "--problem", str(path),
                     "--out-prefix", str(tmp_path / "eig")])
        assert code == 0
        summary = json.loads((tmp_path / "eig_summary.json").read_text())
        assert summary["regime"] == "eigenvalue"
        assert abs(summary["theta"] - 3.0 / 16.0) <= math.ulp(3.0 / 16.0)
        assert summary["residual"] == 0.0
        assert "theta_sequence" not in summary
        assert summary["manifest"]["tool_version"]
        csv_lines = (tmp_path / "eig_solution.csv").read_text().splitlines()
        assert csv_lines[0] == "r,w,v,residual"
        assert [float(x) for x in csv_lines[1].split(",")] == [1.0, 0.0, 1.0, 0.0]

    @pytest.mark.parametrize("rhs, key", [
        ({"f_const": 0.0}, "rhs.f_const"),
        ({"f_const": -1.0}, "rhs.f_const"),
        ({"f_table": [[0.0, 1.0], [1.0, -1.0], [2.0, 1.0]]}, "rhs.f_table"),
    ], ids=["zero", "negative", "table_negative_at_1"])
    def test_eigenvalue_with_f_not_positive_exits_3(self, tmp_path, capsys, rhs, key):
        spec = {"n": 3, "k": 2, "p": 2.0, "domain": {"type": "sphere_constant"},
                "rhs": rhs, "solver": {"N": 1}}
        path = tmp_path / "eigen.json"
        path.write_text(json.dumps(spec))
        code = main(["solve", "--problem", str(path), "--out-prefix", str(tmp_path / "eig")])
        assert code == 3
        assert capsys.readouterr().err.startswith(f"error: problem file {path}: key '{key}' must")
        assert not (tmp_path / "eig_summary.json").exists()

    @pytest.mark.parametrize("domain", [
        {"type": "ball", "r1": 1.0, "bc": 0.0},
        {"type": "annulus", "r0": 0.5, "r1": 1.0, "bc": [0.0, 0.0]},
    ], ids=["ball", "annulus"])
    def test_eigenvalue_off_the_sphere_exits_3(self, tmp_path, capsys, domain):
        spec = {"n": 3, "k": 2, "p": 2.0, "domain": domain, "solver": {"N": 128}}
        path = tmp_path / "eigen.json"
        path.write_text(json.dumps(spec))
        code = main(["solve", "--problem", str(path), "--out-prefix", str(tmp_path / "eig")])
        assert code == 3
        assert "defined only on the sphere reduction" in capsys.readouterr().err
        assert not (tmp_path / "eig_summary.json").exists()

    def test_supercritical_regime(self, tmp_path, capsys):
        spec = {"n": 3, "k": 2, "p": 4.0,
                "domain": {"type": "sphere_constant"},
                "rhs": {"f_const": 1.0}, "solver": {"N": 1},
                "continuation": {"step": 0.05, "t_start": 0.005}}
        path = tmp_path / "super.json"
        path.write_text(json.dumps(spec))
        code = main(["solve", "--problem", str(path),
                     "--out-prefix", str(tmp_path / "sup")])
        assert code == 0
        rows = (tmp_path / "sup_solution.csv").read_text().splitlines()
        v = float(rows[1].split(",")[2])
        # oracle: upper root of A v^2 = delta0 + v^4 at the default delta0 = 1e-3
        from scipy.optimize import brentq
        A = 3.0 / 16.0
        oracle = brentq(lambda x: A * x**2 - (1e-3 + x**4),
                        math.sqrt(A / 2), 10.0, xtol=1e-15)
        assert v == pytest.approx(oracle, abs=1e-8)

    @staticmethod
    def annulus_spec(**solver_keys):
        """Manufactured p < k annulus problem with w = 1.6 sqrt(r)."""
        w0, w1 = 1.6 * math.sqrt(0.5), 1.6 * math.sqrt(2.0)
        r_tab = np.linspace(0.5, 2.0, 400)
        a = -0.4 * r_tab**-1.5 + 0.5 * (0.8 * r_tab**-0.5) ** 2
        b = 0.8 * r_tab**-0.5 / r_tab - 0.5 * (0.8 * r_tab**-0.5) ** 2
        f_tab = (b**2 + 2 * a * b) * np.exp(-0.75 * 1.6 * np.sqrt(r_tab)) / 4.0
        return {"n": 3, "k": 2, "p": 0.5,
                "domain": {"type": "annulus", "r0": 0.5, "r1": 2.0, "bc": [w0, w1]},
                "rhs": {"f_table": [[float(x), float(y)] for x, y in zip(r_tab, f_tab)]},
                "solver": dict(N=64, **solver_keys)}

    def test_annulus_subcritical(self, tmp_path, capsys):
        path = tmp_path / "annulus.json"
        path.write_text(json.dumps(self.annulus_spec()))
        code = main(["solve", "--problem", str(path),
                     "--out-prefix", str(tmp_path / "ann")])
        assert code == 0
        summary = json.loads((tmp_path / "ann_summary.json").read_text())
        assert summary["regime"] == "subcritical"
        rows = (tmp_path / "ann_solution.csv").read_text().splitlines()[1:]
        r = np.array([float(x.split(",")[0]) for x in rows])
        w = np.array([float(x.split(",")[1]) for x in rows])
        assert np.abs(w - 1.6 * np.sqrt(r)).max() <= 1e-3

    def test_summary_reports_floor_limited(self, tmp_path, capsys):
        path = tmp_path / "annulus.json"
        path.write_text(json.dumps(self.annulus_spec()))
        assert main(["solve", "--problem", str(path), "--out-prefix", str(tmp_path / "a")]) == 0
        summary = json.loads((tmp_path / "a_summary.json").read_text())
        assert summary["floor_limited"] is False
        assert summary["residual"] <= 1e-10

    @pytest.mark.filterwarnings("error")
    def test_v_that_overflows_exits_3_without_a_csv(self, tmp_path, capsys, monkeypatch):
        # w = -2000 on the sphere gives v = exp(2000) at n = 4.
        solve = cli.solver.solve_eigenvalue
        monkeypatch.setattr(cli.solver, "solve_eigenvalue",
                            lambda problem: dataclasses.replace(solve(problem), w=np.array([-2e3])))
        spec = {"n": 4, "k": 3, "p": 3.0, "domain": {"type": "sphere_constant"},
                "solver": {"N": 1}}
        path = tmp_path / "eigen.json"
        path.write_text(json.dumps(spec))
        code = main(["solve", "--problem", str(path), "--out-prefix", str(tmp_path / "eig")])
        assert code == 3
        assert capsys.readouterr().err == (f"error: problem file {path}: key 'n': v = "
                                           "exp(-(n-2) w/2) = exp(2000) of the solution "
                                           "overflows a float\n")
        assert [p.name for p in tmp_path.iterdir()] == ["eigen.json"]

    def test_terminal_order_reads_residuals_clear_of_the_floor(self):
        from khessian.cli import _terminal_order
        history = [1.0, 1e-1, 1e-3, 1.3e-7, 2e-14]
        # Every residual lies above 1e3 floors: the last three give 1.75.
        assert _terminal_order(history, 1e-17) == 1.75
        # 2e-14 lies within 1e3 floors: 1e-1, 1e-3 and 1.3e-7 give 1.94.
        assert _terminal_order(history, 1e-11) == 1.94
        assert _terminal_order(history, 1e-9) == 2.0
        assert _terminal_order(history, 1e-4) is None
        assert _terminal_order([1.0, 2.0, 1e-3], 0.0) is None

    def test_unconverged_solve_names_floor_and_step(self, tmp_path, capsys):
        path = tmp_path / "annulus.json"
        path.write_text(json.dumps(self.annulus_spec(max_iter=2)))
        assert main(["solve", "--problem", str(path), "--out-prefix", str(tmp_path / "a")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("solver failed: Newton did not converge in 2 iterations: residual ")
        assert "rounding floor" in err and "last Newton step" in err


class TestBallSolve:
    def test_ball_problem_json(self, tmp_path, capsys):
        # manufactured quartic on the unit ball; f tabulated on a fine grid
        wb = lambda r: 0.4 * r**2 + 0.1 * r**4
        r_tab = np.linspace(1e-4, 1.0, 600)
        dw = 0.8 * r_tab + 0.4 * r_tab**3
        d2w = 0.8 + 1.2 * r_tab**2
        a = d2w + 0.5 * dw**2
        b = dw / r_tab - 0.5 * dw**2
        f_tab = (b**2 + 2 * a * b) * np.exp(-0.75 * wb(r_tab)) / 4.0
        spec = {"n": 3, "k": 2, "p": 0.5,
                "domain": {"type": "ball", "r1": 1.0, "bc": wb(1.0)},
                "rhs": {"f_table": [[float(x), float(y)]
                                    for x, y in zip(r_tab, f_tab)]},
                "solver": {"N": 96}}
        path = tmp_path / "ball.json"
        path.write_text(json.dumps(spec))
        code = main(["solve", "--problem", str(path),
                     "--out-prefix", str(tmp_path / "ball")])
        assert code == 0
        rows = (tmp_path / "ball_solution.csv").read_text().splitlines()[1:]
        r = np.array([float(x.split(",")[0]) for x in rows])
        w = np.array([float(x.split(",")[1]) for x in rows])
        assert np.abs(w - wb(r)).max() <= 2e-3


class TestContinueCommand:
    def test_fold_summary(self, scalar_problem_json, tmp_path, capsys):
        code = main(["continue", "--problem", str(scalar_problem_json),
                     "--out-prefix", str(tmp_path / "branch")])
        assert code == 0
        summary = json.loads((tmp_path / "branch_summary.json").read_text())
        assert summary["t_star"] == pytest.approx(3.0 / 32.0, abs=1e-8)
        assert summary["fold_refined"] == [True]
        lines = (tmp_path / "branch_branch.csv").read_text().splitlines()
        assert lines[0] == "t,delta_t,v_at_probe,newton_iters,fold_flag"
        flags = [float(l.split(",")[4]) for l in lines[1:]]
        assert 1.0 in flags

    @pytest.mark.parametrize("failure", ["not ok", "raises"])
    def test_unrefined_fold_flags_one_row(self, scalar_problem_json, tmp_path, capsys,
                                          monkeypatch, failure):
        from khessian import solver

        def refine(system, rhs, w, t, phi0):
            if failure == "raises":
                raise solver.SolverError("refinement failed")
            return w, t, False

        monkeypatch.setattr(solver, "_refine_fold", refine)
        code = main(["continue", "--problem", str(scalar_problem_json),
                     "--out-prefix", str(tmp_path / "branch")])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        summary = json.loads((tmp_path / "branch_summary.json").read_text())
        assert printed["fold_refined"] == summary["fold_refined"] == [False]
        assert printed["n_folds"] == 1
        lines = (tmp_path / "branch_branch.csv").read_text().splitlines()
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        # The fold is the bracket sample with the larger t, flagged once.
        assert [row[0] for row in rows if row[4] == 1.0] == [summary["t_star"]]
        assert summary["t_star"] == max(row[0] for row in rows)

    def test_determinism(self, scalar_problem_json, tmp_path, capsys):
        main(["continue", "--problem", str(scalar_problem_json),
              "--out-prefix", str(tmp_path / "one")])
        main(["continue", "--problem", str(scalar_problem_json),
              "--out-prefix", str(tmp_path / "two")])
        assert (tmp_path / "one_branch.csv").read_bytes() == \
            (tmp_path / "two_branch.csv").read_bytes()

    def test_annulus_fold_refined_without_warnings(self, tmp_path, capsys):
        w = lambda r: 1.6 * math.sqrt(r)
        spec = {"n": 3, "k": 2, "p": 4.0,
                "domain": {"type": "annulus", "r0": 0.5, "r1": 2.0, "bc": [w(0.5), w(2.0)]},
                "rhs": {"f_const": 1.0}, "solver": {"N": 192},
                "continuation": {"delta0": 1.0, "step": 0.02, "t_start": 1e-3,
                                 "t_max": 50.0, "after_fold_frac": 0.7}}
        path = tmp_path / "annulus.json"
        path.write_text(json.dumps(spec))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["continue", "--problem", str(path),
                         "--out-prefix", str(tmp_path / "annulus")])
        assert code == 0
        assert not [c for c in caught if issubclass(c.category, RuntimeWarning)]
        assert "RuntimeWarning" not in capsys.readouterr().err
        summary = json.loads((tmp_path / "annulus_summary.json").read_text())
        assert summary["n_folds"] == 1 and summary["fold_refined"] == [True]

    def test_failed_start_solve_names_floor_and_step(self, tmp_path, capsys):
        w = lambda r: 1.6 * math.sqrt(r)
        spec = {"n": 3, "k": 2, "p": 4.0,
                "domain": {"type": "annulus", "r0": 0.5, "r1": 2.0, "bc": [w(0.5), w(2.0)]},
                "rhs": {"f_const": 1.0}, "solver": {"N": 48, "max_iter": 1},
                "continuation": {"t_start": 1e-3}}
        path = tmp_path / "annulus.json"
        path.write_text(json.dumps(spec))
        assert main(["continue", "--problem", str(path), "--out-prefix", str(tmp_path / "a")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("continuation failed: Newton did not converge in 1 iterations: ")
        assert "rounding floor" in err and "last Newton step" in err

    def test_wrong_regime_exits_3(self, tmp_path, capsys):
        spec = {"n": 3, "k": 2, "p": 1.0,
                "domain": {"type": "sphere_constant"}, "rhs": {"f_const": 1.0}}
        path = tmp_path / "sub.json"
        path.write_text(json.dumps(spec))
        assert main(["continue", "--problem", str(path),
                     "--out-prefix", str(tmp_path / "x")]) == 3


class TestEnvelopeCommand:
    def test_radial_field(self, tmp_path, capsys):
        from khessian.radial import GridField
        f = GridField(0.02, np.zeros((121, 121)))
        coords = f.node_coordinates()
        rr = np.maximum(np.sqrt((coords**2).sum(axis=1)), 1e-12)
        f.values = (np.sqrt(rr)).reshape(121, 121)
        grid_path = tmp_path / "field.grid"
        f.save_raw(grid_path)
        out = tmp_path / "env.csv"
        code = main(["envelope", "--grid", str(grid_path), "--center", "0,0",
                     "--step", "0.08", "--n", "3", "--k", "2", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "r,wtilde,r_attained"
        assert "0 violation(s)" in capsys.readouterr().out

    GRID_HEADER = "dims 2\nshape 3 4\nspacing 0.5\n"
    GRID_ROWS = ["1 2 3 4", "5 6 7 8", "9 10 11 12"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text, named", [
        ("dims 2\nshape 3 4\n" + "\n".join(GRID_ROWS), "missing header line 'spacing'"),
        ("shape 3 4\nspacing 0.5\n" + "\n".join(GRID_ROWS), "missing header line 'dims'"),
        ("dims 3\nshape 3 4\nspacing 0.5\n" + "\n".join(GRID_ROWS),
         "dims 3 but shape has 2 entries"),
        (GRID_HEADER + "\n".join(GRID_ROWS[:2]), "8 values, shape 3 4 needs 12"),
        (GRID_HEADER, "0 values, shape 3 4 needs 12"),
        (GRID_HEADER + "\n".join(GRID_ROWS + ["13 14 15 16"]), "16 values, shape 3 4 needs 12"),
        (GRID_HEADER + "1 2 3 4\n5 nan 7 8\n9 10 11 12",
         "non-finite value nan in data row 2, column 2"),
        (GRID_HEADER + "1 2 3 4\n5 6 7 8\n9 10 11 -inf",
         "non-finite value -inf in data row 3, column 4"),
        ("dims 2\nshape 3 four\nspacing 0.5\n" + "\n".join(GRID_ROWS), "malformed header"),
        ("dims 2\nshape 0 4\nspacing 0.5\n", "shape entries must be positive"),
        ("dims 2\nshape 3 4\nspacing inf\n" + "\n".join(GRID_ROWS),
         "spacing must lie in [1e-50, 1e50], got inf"),
        (GRID_HEADER + "1 2 3 4\n5 abc 7 8\n9 10 11 12",
         "unparsable value 'abc' in data row 2, column 2"),
        (GRID_HEADER + "# comment\n1 2 3 4\n\n5 6 7\n9 10 11 12",
         "data row 2 has 3 values, expected 4"),
    ], ids=["no-spacing", "no-dims", "dims-vs-shape", "short", "empty", "long", "nan", "inf",
            "bad-shape", "zero-shape", "inf-spacing", "unparsable", "ragged"])
    def test_malformed_grid_exits_3(self, tmp_path, capsys, text, named):
        path = tmp_path / "bad.grid"
        path.write_text(text + "\n")
        code = main(["envelope", "--grid", str(path), "--center", "0,0",
                     "--out", str(tmp_path / "env.csv")])
        assert code == 3
        assert named in capsys.readouterr().err
        assert not (tmp_path / "env.csv").exists()

    @pytest.mark.parametrize("text, message", [
        (GRID_HEADER.replace("0.5", "0") + "\n".join(GRID_ROWS),
         "spacing must lie in [1e-50, 1e50], got 0.0"),
        ("dims 1\nshape 3\nspacing 0.5\n1\n2\n3", "grid fields must be 2- or 3-dimensional"),
        (GRID_HEADER + "origin 0 0 0\n" + "\n".join(GRID_ROWS),
         "origin length must match field dimension"),
        (GRID_HEADER.replace("0.5", "1e300") + "\n".join(GRID_ROWS),
         "spacing must lie in [1e-50, 1e50], got 1e+300"),
        (GRID_HEADER + "origin 0 -1e60\n" + "\n".join(GRID_ROWS),
         "origin must lie in [-1e50, 1e50]"),
    ], ids=["zero-spacing", "one-dimension", "origin-length", "huge-spacing", "huge-origin"])
    def test_field_faults_name_the_file(self, tmp_path, capsys, text, message):
        # Faults that GridField finds in a read field carry the file's name too.
        path = tmp_path / "bad.grid"
        path.write_text(text + "\n")
        code = main(["envelope", "--grid", str(path), "--center", "0,0",
                     "--out", str(tmp_path / "env.csv")])
        assert code == 3
        assert capsys.readouterr().err == f"error: grid file {path}: {message}\n"

    @staticmethod
    def damage(data, fault):
        """The bytes of save_raw's archive data with one fault, and the
        start of the message that names it."""
        if fault == "truncated":
            return data[:len(data) // 2], ""
        if fault == "bad-crc":
            i = data.index(b"values.npy") + len(b"values.npy") + 200
            return (data[:i] + bytes([data[i] ^ 1]) + data[i + 1:],
                    "Bad CRC-32 for file 'values.npy'")
        out = io.BytesIO()
        with zipfile.ZipFile(io.BytesIO(data)) as src, zipfile.ZipFile(out, "w") as zf:
            for name in src.namelist():
                member = src.read(name)
                if fault == "lying-shape" and name == "values.npy":
                    # The header keeps its length: 10 more digits, 10 fewer pad spaces.
                    member = member.replace(b"(3, 4)", b"(30000000000, 4)", 1).replace(
                        b" " * 10 + b"\n", b"\n", 1)
                if fault != "no-origin" or name != "origin.npy":
                    zf.writestr(name, member)
        return out.getvalue(), {
            "lying-shape": "member values.npy: shape (30000000000, 4) of float64 does not fit "
                           "its 96 stored bytes",
            "no-origin": "archive members spacing.npy, values.npy, expected origin.npy, "
                         "spacing.npy, values.npy"}[fault]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fault", ["truncated", "bad-crc", "lying-shape", "no-origin"])
    def test_damaged_archive_exits_3(self, tmp_path, capsys, fault):
        # zipfile's faults and a values header that lies end in exit 3, not a traceback.
        from khessian.radial import GridField
        path = tmp_path / "bad.grid"
        GridField(0.5, np.arange(12.0).reshape(3, 4)).save_raw(path)
        data, message = self.damage(path.read_bytes(), fault)
        path.write_bytes(data)
        code = main(["envelope", "--grid", str(path), "--center", "0,0",
                     "--out", str(tmp_path / "env.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: grid file {path}: {message}") and err.count("\n") == 1
        assert not (tmp_path / "env.csv").exists()

    def test_archive_and_text_of_a_field_give_one_csv(self, tmp_path):
        from khessian.radial import GridField
        i = np.arange(21) - 10
        f = GridField(0.05, np.hypot(i[:, None], i[None, :] / 2) ** 0.5)
        f.save_raw(tmp_path / "a.grid")
        (tmp_path / "t.grid").write_text(
            f"dims 2\nshape 21 21\nspacing {f.spacing!r}\n"
            f"origin {' '.join(map(repr, f.origin.tolist()))}\n"
            + "".join(" ".join(map(repr, row.tolist())) + "\n" for row in f.values))
        for name in ("a", "t"):
            assert main(["envelope", "--grid", str(tmp_path / f"{name}.grid"), "--center", "0,0",
                         "--n", "3", "--k", "2", "--out", str(tmp_path / f"{name}.csv")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "t.csv").read_bytes()

    @staticmethod
    def sqrt_index_grid(spacing, origin=None):
        """A 15 x 15 field |i|^(1/2) of the node index i about its centre node."""
        from khessian.radial import GridField
        i = np.arange(15) - 7
        return GridField(spacing, np.hypot(i[:, None], i[None, :]) ** 0.5, origin)

    def test_centre_within_one_spacing_of_the_edge_exits_3(self, tmp_path, capsys):
        path = tmp_path / "g.grid"
        self.sqrt_index_grid(0.1, origin=[0.0, 0.0]).save_raw(path)
        code = main(["envelope", "--grid", str(path), "--center=0.05,0.7",
                     "--out", str(tmp_path / "env.csv")])
        assert code == 3
        assert capsys.readouterr().err == ("error: center lies within one grid spacing (0.1) of "
                                           "the box boundary, at distance 0.05: no default "
                                           "radius fits\n")
        assert not (tmp_path / "env.csv").exists()

    def test_viscosity_verdict_does_not_depend_on_the_scale(self, tmp_path, capsys):
        # At spacing 1e-13 every attained radius lies below 1e-12.
        for spacing in (1e-11, 1e-13):
            self.sqrt_index_grid(spacing).save_raw(tmp_path / "g.grid")
            assert main(["envelope", "--grid", str(tmp_path / "g.grid"), "--center", "0,0",
                         "--n", "3", "--k", "2", "--out", str(tmp_path / "env.csv")]) == 0
            assert capsys.readouterr().out == "viscosity check: 0 violation(s)\n"

    @pytest.mark.parametrize("step", [[], ["--step", "0.1"]])
    def test_non_finite_center_exits_3(self, tmp_path, capsys, step):
        path = tmp_path / "ok.grid"
        path.write_text(self.GRID_HEADER + "\n".join(self.GRID_ROWS) + "\n")
        code = main(["envelope", "--grid", str(path), "--center", "nan,0", *step,
                     "--out", str(tmp_path / "env.csv")])
        assert code == 3
        assert "center must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, named", [
        (["--step", "0"], "--step"),
        (["--step", "-0.1"], "--step"),
        (["--step", "nan"], "--step"),
        (["--step", "inf"], "--step"),
        (["--step", "1e-300"], "--step 1e-300 asks for 5e+299 radii, more than the 12 grid nodes"),
        (["--step", "1e-9"], "--step 1e-09 asks for 5e+08 radii, more than the 12 grid nodes"),
        (["--step", "0.75"], "--step 0.75 exceeds the distance 0.5 from --center"),
        (["--center", "a,b"], "--center"),
        (["--center", "0,,0"], "--center"),
        (["--n", "3", "--k", "0"], "--k"),
        (["--n", "3", "--k", "5"], "--k"),
        (["--n", "4", "--k", "2"], "--k"),
        (["--n", "3", "--k", "3"], "--n 3 --k 3: need k < n"),
        (["--n", "2", "--k", "2"], "--n"),
        (["--n", "3"], "--k"),
        (["--k", "2"], "--n"),
        (["--center", "5,0", "--step", "0.1"], "--center 5,0 must be a point strictly inside"),
        (["--center=-1e300,0", "--step", "0.1"], "--center -1e300,0 must be a point"),
        (["--center", "0,0,0", "--step", "0.1"], "--center 0,0,0 must be a point"),
    ], ids=["step-0", "step-negative", "step-nan", "step-inf", "step-1e-300", "step-1e-9",
            "step-beyond-box", "center-letters",
            "center-empty", "k-0", "k-5", "not-supercritical", "k-equal-n", "n-2", "n-alone",
            "k-alone", "center-outside", "center-far-outside", "center-3d"])
    def test_bad_flag_exits_3(self, tmp_path, capsys, monkeypatch, flags, named):
        # A flag is rejected before any array is sized by it.
        arange = np.arange

        def bounded(*args, **kwargs):
            if all(isinstance(a, int) for a in args) and len(range(*args)) > 10**6:
                raise MemoryError(f"np.arange{args}")
            return arange(*args, **kwargs)

        monkeypatch.setattr(np, "arange", bounded)
        path = tmp_path / "ok.grid"
        path.write_text(self.GRID_HEADER + "\n".join(self.GRID_ROWS) + "\n")
        assert main(["envelope", "--grid", str(path), "--center", "0,0",
                     "--out", str(tmp_path / "env.csv"), *flags]) == 3
        assert named in capsys.readouterr().err
        assert not (tmp_path / "env.csv").exists()


class TestHarnackCommand:
    @pytest.mark.parametrize("min_sep", ["inf", "1e9", "-1", "-inf", "nan"])
    def test_bad_min_sep_exits_3(self, holder_csv, tmp_path, capsys, min_sep):
        out = tmp_path / "h.json"
        assert main(["harnack", "--profile", str(holder_csv), "--n", "3", "--k", "2",
                     "--min-sep", min_sep, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert "--min-sep" in captured.err and captured.out == ""
        assert not out.exists()

    def test_cone_outside_the_paper_exits_3(self, fundamental_csv, capsys):
        assert main(["harnack", "--profile", str(fundamental_csv),
                     "--n", "4", "--k", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--n 4 --k 2: (n, k) = (4, 2) is not supercritical" in captured.err

    def test_k_equal_to_n_exits_3(self, fundamental_csv, capsys):
        assert main(["harnack", "--profile", str(fundamental_csv),
                     "--n", "3", "--k", "3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--n 3 --k 3: need k < n" in captured.err

    def test_analytic_family(self, tmp_path, capsys):
        r = geometric_grid(1.0, 1e-8, 0.8)
        c, theta = 0.6, 0.5
        p = RadialProfile.from_callables(r, 3, 2,
                                         lambda t: c / (1 - theta) * t ** (1 - theta),
                                         lambda t: c * t ** (-theta),
                                         lambda t: -c * theta * t ** (-theta - 1))
        path = tmp_path / "prof.csv"
        save_profile_csv(p, path)
        assert main(["harnack", "--profile", str(path), "--n", "3", "--k", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["c_est"] == pytest.approx(2 * c / (1 - theta), rel=0.03)
        assert 0 < payload["pairs_scored"] <= len(r) * (len(r) - 1) // 2

    @pytest.mark.parametrize("command", ["harnack", "classify"])
    @pytest.mark.parametrize("column", ["r", "w"])
    def test_nan_profile_exits_3(self, tmp_path, capsys, command, column):
        r = np.geomspace(1e-3, 1.0, 40)
        rows = {"r": r, "w": 0.5 * np.sqrt(r)}
        rows[column][17] = np.nan
        path = tmp_path / "nan.csv"
        lines = [f"{a:.17g},{b:.17g}\n" for a, b in zip(rows["r"], rows["w"])]
        path.write_text("r,w\n" + "".join(lines))
        assert main([command, "--profile", str(path), "--n", "3", "--k", "2"]) == 3
        assert f"{column} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["harnack", "classify"])
    @pytest.mark.parametrize("column", ["dw", "d2w"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "x"])
    def test_bad_derivative_exits_3(self, fundamental_csv, capsys, command, column, bad):
        lines = fundamental_csv.read_text().splitlines()
        cells = lines[18].split(",")
        cells[lines[0].split(",").index(column)] = bad
        lines[18] = ",".join(cells)
        fundamental_csv.write_text("\n".join(lines) + "\n")
        assert main([command, "--profile", str(fundamental_csv), "--n", "3", "--k", "2"]) == 3
        assert f"column {column} must be finite, data row 18" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["harnack", "classify"])
    @pytest.mark.parametrize("text, fault", [
        ("", "no header line"),
        ("\n\n\n", "no header line"),
        ("r,w\n", "no data rows"),
        ("x,w\n1,2\n2,3\n3,4\n", "no column r"),
        ("r,x\n1,2\n2,3\n3,4\n", "no column w"),
        ("r,w\n2,2\n1,3\n3,4\n", "column r must be strictly increasing, data row 2 is 1.0 after 2.0"),
        ("r,w\n1,2\n2,3\n2,4\n", "column r must be strictly increasing, data row 3 is 2.0 after 2.0"),
        ("r,w\n-1,2\n1,3\n3,4\n", "column r must lie in [1e-50, 1e50], data row 1 is -1.0"),
        ("r,w\n1,2\n2,3\n", "finite-difference mode needs at least 3 nodes"),
        ("r,w\n1,2\n2,3\n1e60,4\n", "column r must lie in [1e-50, 1e50], data row 3 is 1e+60"),
        ("r,w\n1e-60,2\n2,3\n3,4\n", "column r must lie in [1e-50, 1e50], data row 1 is 1e-60"),
        ("r,w\n1,0\n1.0000000000000002,1e300\n3,0\n",
         "finite-difference derivatives overflow a float"),
        ("r,w\n1,2,3\n2,3\n", "Some errors were detected !\n    Line #2 (got 3 columns instead of 2)"),
    ])
    def test_profile_fault_names_the_file(self, tmp_path, capsys, command, text, fault):
        path = tmp_path / "profile.csv"
        path.write_text(text)
        assert main([command, "--profile", str(path), "--n", "3", "--k", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: profile {path}: {fault}\n"

    def test_classify_needs_three_nodes(self, tmp_path, capsys):
        path = tmp_path / "profile.csv"
        path.write_text("r,w,dw,d2w\n1,2,2,-2\n2,3.4,1,-0.5\n")
        assert main(["classify", "--profile", str(path), "--n", "3", "--k", "2"]) == 3
        assert capsys.readouterr().err == ("classification failed: "
                                           "classification needs at least 3 nodes, got 2\n")


class TestVolumeCommand:
    def test_sphere_quadratic_coefficient(self, tmp_path, capsys):
        spec = {"kind": "sphere_stereographic", "n": 3,
                "s_min": 0.05, "s_max": 0.5, "num": 20}
        mpath = tmp_path / "sphere_stereo_n3.json"
        mpath.write_text(json.dumps(spec))
        out = tmp_path / "vol.csv"
        summary = tmp_path / "vol.json"
        code = main(["volume", "--metric", str(mpath), "--out", str(out),
                     "--summary", str(summary)])
        assert code == 0
        payload = json.loads(summary.read_text())
        assert payload["quadratic_coefficient"] == pytest.approx(-0.2, rel=0.05)
        lines = out.read_text().splitlines()
        assert lines[0] == "r,Q"

    def test_end_mode(self, tmp_path, capsys):
        spec = {"kind": "fundamental_log", "n": 3, "mode": "end",
                "rho_ref": 0.5, "s_min": 5.0, "s_max": 900.0, "num": 20}
        mpath = tmp_path / "metric.json"
        mpath.write_text(json.dumps(spec))
        out = tmp_path / "vol.csv"
        assert main(["volume", "--metric", str(mpath), "--out", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["end_count"] == 1

    def test_truncated_log_metric(self, tmp_path, capsys):
        s_plateau = math.exp(1.0)       # K = 2: flat cap out to e^{K/2}
        spec = {"kind": "truncated_log", "K": 2.0, "n": 3,
                "s_min": 0.2 * s_plateau, "s_max": 1.1 * s_plateau, "num": 15}
        mpath = tmp_path / "metric.json"
        mpath.write_text(json.dumps(spec))
        out = tmp_path / "vol.csv"
        assert main(["volume", "--metric", str(mpath), "--out", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["end_count"] == 1


@pytest.mark.filterwarnings("error")
class TestMetricLoader:
    SPHERE = {"kind": "sphere_stereographic", "n": 3, "s_min": 0.05, "s_max": 0.5, "num": 20}

    def run(self, tmp_path, spec):
        mpath = tmp_path / "metric.json"
        mpath.write_text(json.dumps(spec))
        out = tmp_path / "vol.csv"
        code = main(["volume", "--metric", str(mpath), "--out", str(out)])
        assert not out.exists() or code == 0
        return code, mpath

    @pytest.mark.parametrize("change, message", [
        ({"s_mn": 0.2}, "unknown key 's_mn'"),
        ({"K": 2.0}, "unknown key 'K'"),
        ({"kind": "hyperbolic"}, "unknown metric kind 'hyperbolic'"),
        ({"kind": 3}, "key 'kind' must be a string"),
        ({"num": "25"}, "key 'num' must be an integer"),
        ({"n": True}, "key 'n' must be an integer"),
        ({"s_min": None}, "key 's_min' must be a finite number"),
        ({"rho_ref": float("inf")}, "key 'rho_ref' must be a finite number"),
        ({"mode": 1}, "key 'mode' must be a string"),
        ({"mode": "middle"}, "key 'mode' must be 'origin' or 'end', got 'middle'"),
        ({"num": 0}, "key 'num' must be in [3, 100000], got 0"),
        ({"num": 1}, "key 'num' must be in [3, 100000], got 1"),
        ({"num": 2}, "key 'num' must be in [3, 100000], got 2"),
        ({"num": 100001}, "key 'num' must be in [3, 100000], got 100001"),
        ({"n": 0}, "key 'n' must be at least 3, got 0"),
        ({"n": 1}, "key 'n' must be at least 3, got 1"),
        ({"n": 344}, "key 'n' must be at most 343, got 344: the area of the unit sphere "
                     "S^(n-1) overflows a float"),
        ({"rho_ref": -1}, "key 'rho_ref' must be positive, got -1.0"),
        ({"s_min": 0.0}, "key 's_min' must be positive, got 0.0"),
        ({"s_min": 0.6}, "key 's_max' must be greater than s_min = 0.6, got 0.5"),
        ({"s_max": 0.05}, "key 's_max' must be greater than s_min = 0.05, got 0.05"),
        ({"kind": "truncated_log", "K": 1e400}, "key 'K' must be a finite number"),
    ])
    def test_malformed_metric_is_named(self, tmp_path, capsys, change, message):
        code, mpath = self.run(tmp_path, dict(self.SPHERE, **change))
        assert code == 3
        assert capsys.readouterr().err == f"error: metric file {mpath}: {message}\n"

    def test_default_s_max_below_s_min_is_named(self, tmp_path, capsys):
        spec = dict(self.SPHERE, s_min=1.0)
        del spec["s_max"]
        code, mpath = self.run(tmp_path, spec)
        assert code == 3
        assert capsys.readouterr().err.endswith(
            "key 's_max' must be greater than s_min = 1.0, got 0.5\n")

    def test_volume_that_overflows_is_input_error(self, tmp_path, capsys):
        spec = {"kind": "euclidean", "n": 3, "s_min": 1e300, "s_max": 2e300, "num": 3}
        assert self.run(tmp_path, spec)[0] == 3
        assert capsys.readouterr().err == "error: volume ratio overflows at s = 1e+300\n"

    def test_missing_kind_is_named(self, tmp_path, capsys):
        spec = dict(self.SPHERE)
        del spec["kind"]
        code, mpath = self.run(tmp_path, spec)
        assert code == 3
        assert capsys.readouterr().err == f"error: metric file {mpath}: missing key 'kind'\n"

    def test_top_level_must_be_an_object(self, tmp_path, capsys):
        assert self.run(tmp_path, [self.SPHERE])[0] == 3
        assert capsys.readouterr().err.endswith("top level must be a JSON object\n")

    def test_every_read_key_is_accepted(self, tmp_path, capsys):
        spec = dict(self.SPHERE, mode="origin", rho_ref=1.0)
        assert self.run(tmp_path, spec)[0] == 0
        spec = {"kind": "truncated_log", "K": 2.0, "n": 3, "s_min": 0.6, "s_max": 3.0, "num": 15}
        assert self.run(tmp_path, spec)[0] == 0


class TestVerifyCommand:
    @pytest.mark.filterwarnings("error")
    def test_passes_with_table(self, capsys):
        assert main(["verify", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out
        assert "all checks passed" in out
        lines = out.splitlines()
        assert len(lines) == 17 and all(ln.startswith("[PASS] ") for ln in lines[:-1])
        assert lines[-1] == "all checks passed"

    @pytest.mark.parametrize("module, name, broken, check", [
        ("radial", "check_rw_monotone",
         lambda f: lambda p: False,
         "fundamental solution a=b=sigma=0 and classify"),
        ("conformal", "jet_from_radial",
         lambda f: lambda gauge, r, w, dw, d2w, bg: f(gauge, r, w, dw, d2w * (1 + 1e-6), bg),
         "fundamental solution a=b=sigma=0 and classify"),
        ("analysis", "p_laplacian_check",
         lambda f: lambda p: f(p) + 1e-9,
         "Pucci annihilates the barrier"),
        ("conformal", "schouten_eigenvalues",
         lambda f: lambda jet: f(jet) + 1e-14,
         "scalar eigenvalue and fold"),
        ("radial", "classify_singularity",
         lambda f: lambda p: (lambda rep: rep if rep.klass != "holder" else
                              dataclasses.replace(rep, alpha_est=rep.alpha_est * 1.03))(f(p)),
         "Holder exponent"),
        ("analysis", "harnack_ratio",
         lambda f: lambda *a: (lambda est: dataclasses.replace(est, c_est=est.c_est * 1.05))(f(*a)),
         "Harnack ratio"),
    ], ids=["rw-monotone", "matrix-W", "p-laplacian", "schouten", "holder-alpha", "harnack"])
    def test_each_check_sees_its_fault(self, monkeypatch, capsys, module, name, broken, check):
        mod = getattr(cli, module)
        monkeypatch.setattr(mod, name, broken(getattr(mod, name)))
        assert main(["verify", "--seed", "7"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [ln for ln in lines if ln.startswith("[FAIL] ")] == [
            ln for ln in lines if ln.startswith(f"[FAIL] {check}: ")]
        assert len(lines) == 17 and lines[-1] == "1 check(s) failed"

    @pytest.mark.parametrize("seed", ["-1", "-12345678901234567890"])
    def test_negative_seed_names_the_flag(self, capsys, seed):
        assert main(["verify", "--seed", seed]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --seed must be a non-negative integer, got {seed}\n"


def sphere_spec():
    """The scalar (3, 2, 4) sphere problem; both `solve` and `continue` take it."""
    return {"n": 3, "k": 2, "p": 4.0,
            "domain": {"type": "sphere_constant"},
            "rhs": {"f_const": 1.0},
            "solver": {"N": 1},
            "continuation": {"step": 0.05, "t_start": 0.005}}


ANNULUS = {"type": "annulus", "r0": 0.5, "r1": 2.0, "bc": [1.1, 2.2]}
BALL = {"type": "ball", "r1": 1.0, "bc": 0.5}


def run_problem(tmp_path, command, spec):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(spec))
    return main([command, "--problem", str(path), "--out-prefix", str(tmp_path / "out")]), path


@pytest.mark.filterwarnings("error")
class TestProblemLoader:
    @pytest.mark.parametrize("command", ["solve", "continue"])
    @pytest.mark.parametrize("key", ["n", "k", "p", "domain", "domain.type"])
    def test_missing_key_is_named(self, tmp_path, capsys, command, key):
        spec = sphere_spec()
        section, _, name = key.rpartition(".")
        del (spec[section] if section else spec)[name]
        code, path = run_problem(tmp_path, command, spec)
        assert code == 3
        err = capsys.readouterr().err
        assert err == f"error: problem file {path}: missing key {key!r}\n"
        assert not (tmp_path / "out_summary.json").exists()

    @pytest.mark.parametrize("domain, key", [
        ({"type": "annulus", "r1": 2.0, "bc": [0.0, 0.0]}, "domain.r0"),
        ({"type": "annulus", "r0": 0.5, "r1": 2.0}, "domain.bc"),
        ({"type": "ball", "bc": 0.0}, "domain.r1"),
    ])
    def test_missing_domain_key_is_named(self, tmp_path, capsys, domain, key):
        spec = dict(sphere_spec(), domain=domain)
        assert run_problem(tmp_path, "solve", spec)[0] == 3
        assert capsys.readouterr().err.endswith(f"missing key {key!r}\n")

    @pytest.mark.parametrize("change, message", [
        ({"domain": dict(ANNULUS, r0=1e-51)},
         "key 'domain.r0' must be in [1e-50, 1e50], got 1e-51"),
        ({"domain": dict(BALL, r1=0.0)}, "key 'domain.r1' must be in [1e-50, 1e50], got 0.0"),
        ({"domain": dict(BALL, r1=2e50)}, "key 'domain.r1' must be in [1e-50, 1e50], got 2e+50"),
        ({"n": 2000, "k": 1001}, "key 'n': C(1999, 1000) of the radial sigma_k overflows a float"),
        # Refused without computing C(999999, 500000), which takes seconds.
        ({"n": 10**6, "k": 500001},
         "key 'n': C(999999, 500000) of the radial sigma_k overflows a float"),
        ({"solver": {"N": 100001}}, "key 'solver.N' must be at most 100000, got 100001"),
    ])
    def test_out_of_range_value_is_named(self, tmp_path, capsys, change, message):
        code, path = run_problem(tmp_path, "solve", dict(sphere_spec(), p=0.5, **change))
        assert code == 3
        assert capsys.readouterr().err == f"error: problem file {path}: {message}\n"

    @pytest.mark.parametrize("command", ["solve", "continue"])
    @pytest.mark.parametrize("n", [3, 5])
    def test_k_equal_to_n_is_named(self, tmp_path, capsys, command, n):
        # The paper's range is n/2 < k < n: (3, 3) used to exit 2 after 50
        # Newton iterations, and (5, 5) to exit 0.
        spec = dict(sphere_spec(), n=n, k=n, p=n + 1.0)
        code, path = run_problem(tmp_path, command, spec)
        assert code == 3
        assert capsys.readouterr().err == (f"error: problem file {path}: key 'k' must be in "
                                           f"(n/2, n) = ({n / 2:g}, {n}), got {n}\n")
        assert not (tmp_path / "out_summary.json").exists()

    @pytest.mark.parametrize("command", ["solve", "continue"])
    @pytest.mark.parametrize("section, key", [
        ("", "tolerance"),
        ("solver", "tolerance"),
        ("solver", "maxiter"),
        ("continuation", "ds_max"),
        ("rhs", "f"),
        ("domain", "r1"),
    ])
    def test_unknown_key_is_rejected(self, tmp_path, capsys, command, section, key):
        spec = sphere_spec()
        (spec[section] if section else spec)[key] = 1e-3
        code, path = run_problem(tmp_path, command, spec)
        assert code == 3
        dotted = f"{section}.{key}" if section else key
        err = capsys.readouterr().err
        assert err == f"error: problem file {path}: unknown key {dotted!r}\n"
        assert not (tmp_path / "out_summary.json").exists()

    def test_key_of_another_domain_is_rejected(self, tmp_path, capsys):
        spec = dict(sphere_spec(), domain={"type": "ball", "r0": 0.5, "r1": 1.0, "bc": 0.0})
        assert run_problem(tmp_path, "solve", spec)[0] == 3
        assert capsys.readouterr().err.endswith("unknown key 'domain.r0'\n")

    def test_both_rhs_forms_are_rejected(self, tmp_path, capsys):
        spec = dict(sphere_spec(), rhs={"f_const": 1.0, "f_table": [[0.0, 1.0], [1.0, 1.0]]})
        assert run_problem(tmp_path, "solve", spec)[0] == 3
        assert "give 'rhs.f_table' or 'rhs.f_const', not both" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["domain", "rhs", "solver", "continuation"])
    def test_section_must_be_an_object(self, tmp_path, capsys, section):
        spec = dict(sphere_spec(), **{section: [1.0]})
        assert run_problem(tmp_path, "continue", spec)[0] == 3
        assert capsys.readouterr().err.endswith(f"key {section!r} must be a JSON object\n")

    def test_top_level_must_be_an_object(self, tmp_path, capsys):
        assert run_problem(tmp_path, "solve", [sphere_spec()])[0] == 3
        assert capsys.readouterr().err.endswith("top level must be a JSON object\n")

    @pytest.mark.parametrize("command", ["solve", "continue"])
    @pytest.mark.parametrize("key, value, description", [
        ("domain.bc", 1.0, "a list of two finite numbers"),
        ("domain.bc", [1.0], "a list of two finite numbers"),
        ("domain.bc", [1.0, "2.0"], "a list of two finite numbers"),
        ("domain.bc", [1.0, True], "a list of two finite numbers"),
        ("domain.r0", None, "a finite number"),
        ("domain.r1", float("inf"), "a finite number"),
        ("domain.r1", 10**400, "a finite number"),
        ("domain.type", 5, "a string"),
        ("solver.N", "96", "an integer"),
        ("solver.N", True, "an integer"),
        ("solver.N", 96.0, "an integer"),
        ("solver.tol", "1e-10", "a finite number"),
        ("continuation.t_max", float("nan"), "a finite number"),
        ("continuation.t_start", "0.001", "a finite number"),
        ("n", "3", "an integer"),
        ("p", None, "a finite number"),
        ("rhs.f_const", [1.0], "a finite number"),
        ("rhs.f_table", [1.0, 2.0], "a non-empty list of [r, f] pairs of finite numbers"),
        ("rhs.f_table", [], "a non-empty list of [r, f] pairs of finite numbers"),
        ("rhs.f_table", [[0.0, 1.0], [1.0, float("nan")]],
         "a non-empty list of [r, f] pairs of finite numbers"),
        ("rhs.f_table", [[0.0, 1.0], [1.0, False]],
         "a non-empty list of [r, f] pairs of finite numbers"),
    ])
    def test_value_of_wrong_type_is_named(self, tmp_path, capsys, command, key, value,
                                          description):
        spec = dict(sphere_spec(), domain={"type": "annulus", "r0": 0.5, "r1": 2.0,
                                           "bc": [1.1, 2.2]}, solver={"N": 48})
        if key == "rhs.f_table":
            spec["rhs"] = {}
        section, _, name = key.rpartition(".")
        (spec[section] if section else spec)[name] = value
        code, path = run_problem(tmp_path, command, spec)
        assert code == 3
        err = capsys.readouterr().err
        assert err == f"error: problem file {path}: key {key!r} must be {description}\n"
        assert not (tmp_path / "out_summary.json").exists()

    @pytest.mark.parametrize("command", ["solve", "continue"])
    @pytest.mark.parametrize("key, value, message", [
        ("continuation.step", -0.05, "must be positive, got -0.05"),
        ("continuation.step", 0, "must be positive, got 0.0"),
        ("continuation.t_start", -1, "must be positive, got -1.0"),
        ("continuation.t_start", 0.0, "must be positive, got 0.0"),
        ("solver.tol", 0, "must be positive, got 0.0"),
        ("solver.tol", -1e-10, "must be positive, got -1e-10"),
        ("solver.max_iter", 0, "must be at least 1, got 0"),
        ("continuation.after_fold_frac", -3.0, "must be in (0, 1), got -3.0"),
        ("continuation.after_fold_frac", 1.0, "must be in (0, 1), got 1.0"),
        ("continuation.t_max", -1.0, "must be greater than continuation.t_start = 0.005, "
                                     "got -1.0"),
        ("continuation.t_max", 0.005, "must be greater than continuation.t_start = 0.005, "
                                      "got 0.005"),
        ("continuation.min_step", 0.0, "must be positive, got 0.0"),
        ("continuation.delta0", 2.0, "must be in (0, 1], got 2.0"),
        ("continuation.delta0", 0.0, "must be in (0, 1], got 0.0"),
    ])
    def test_value_out_of_range_is_named(self, tmp_path, capsys, command, key, value, message):
        spec = sphere_spec()
        section, _, name = key.rpartition(".")
        spec[section][name] = value
        code, path = run_problem(tmp_path, command, spec)
        assert code == 3
        err = capsys.readouterr().err
        assert err == f"error: problem file {path}: key {key!r} {message}\n"
        assert not (tmp_path / "out_summary.json").exists()

    @pytest.mark.parametrize("t_max, code", [(-1.0, 3), (0.0, 3), (0.02, 0)])
    def test_t_max_without_t_start_must_be_positive(self, tmp_path, capsys, t_max, code):
        spec = sphere_spec()
        del spec["continuation"]["t_start"]
        spec["continuation"]["t_max"] = t_max
        assert run_problem(tmp_path, "continue", spec)[0] == code
        if code:
            assert capsys.readouterr().err.endswith(
                f"key 'continuation.t_max' must be positive, got {t_max!r}\n")

    @pytest.mark.parametrize("command", ["solve", "continue"])
    @pytest.mark.parametrize("domain, N, message", [
        (ANNULUS, 0, "an annulus grid needs N >= 3, got N = 0"),
        (ANNULUS, 1, "an annulus grid needs N >= 3, got N = 1"),
        (ANNULUS, 2, "an annulus grid needs N >= 3, got N = 2"),
        (BALL, 0, "a ball grid needs N >= 2, got N = 0"),
        (BALL, 1, "a ball grid needs N >= 2, got N = 1"),
        ({"type": "sphere_constant"}, 0, "the sphere grid needs N >= 1, got N = 0"),
    ], ids=["annulus0", "annulus1", "annulus2", "ball0", "ball1", "sphere0"])
    def test_grid_too_small_is_named(self, tmp_path, capsys, command, domain, N, message):
        spec = dict(sphere_spec(), domain=domain, solver={"N": N})
        code, path = run_problem(tmp_path, command, spec)
        assert code == 3
        err = capsys.readouterr().err
        assert err == f"error: problem file {path}: key 'solver.N': {message}\n"
        assert not (tmp_path / "out_summary.json").exists()

    @pytest.mark.parametrize("command", ["solve", "continue"])
    def test_ball_with_two_nodes_has_one_equation_row(self, tmp_path, capsys, command):
        spec = dict(sphere_spec(), domain=BALL, solver={"N": 2})
        assert run_problem(tmp_path, command, spec)[0] == 0
        summary = json.loads((tmp_path / "out_summary.json").read_text())
        assert summary["t_star"] > 0.0

    @pytest.mark.parametrize("command", ["solve", "continue"])
    @pytest.mark.parametrize("r", [[2.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 2.0, 1.0]],
                             ids=["decreasing", "repeated", "unordered"])
    def test_f_table_r_column_must_increase(self, tmp_path, capsys, command, r):
        spec = dict(sphere_spec(), domain=BALL, solver={"N": 32},
                    rhs={"f_table": [[x, 1.0] for x in r]})
        code, path = run_problem(tmp_path, command, dict(spec, p=0.5))
        assert code == 3
        err = capsys.readouterr().err
        assert err == (f"error: problem file {path}: key 'rhs.f_table' must have a strictly "
                       "increasing r column\n")
        assert not (tmp_path / "out_summary.json").exists()

    def test_unknown_domain_type_names_the_file(self, tmp_path, capsys):
        spec = dict(sphere_spec(), domain={"type": "torus"})
        code, path = run_problem(tmp_path, "solve", spec)
        assert code == 3
        assert capsys.readouterr().err == (f"error: problem file {path}: "
                                           "unknown domain type 'torus'\n")

    def test_null_t_start_takes_the_default(self, tmp_path, capsys):
        # The default start is t = 0.01.
        spec = sphere_spec()
        outputs = []
        for t_start in (None, 0.01):
            spec["continuation"]["t_start"] = t_start
            assert run_problem(tmp_path, "continue", spec)[0] == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_every_read_key_is_accepted(self, tmp_path, capsys):
        spec = sphere_spec()
        spec["solver"] = {"N": 1, "tol": 1e-10, "max_iter": 50}
        spec["continuation"] = {"delta0": 1.0, "step": 0.05, "min_step": 1e-12,
                                "t_start": 0.005, "t_max": 10.0, "after_fold_frac": 0.6}
        assert run_problem(tmp_path, "continue", spec)[0] == 0
        assert run_problem(tmp_path, "solve", dict(spec, p=1.0))[0] == 0


def former_cone_check(rng, samples=10000):
    """The former check 3 of `verify`, kept as an oracle: one draw at a time
    (n in 3..6, k in 2..n, lambda = N(0, 1)^n + U(0, 1.5)) through
    `in_gamma_k`, and `in_sigma_delta` with a fresh ConeParams per sample.
    Returns the number of Gamma_k samples outside Sigma_delta."""
    bad = 0
    count = 0
    while count < samples:
        n = int(rng.integers(3, 7))
        k = int(rng.integers(2, n + 1))
        lam = rng.normal(size=n) + rng.uniform(0, 1.5)
        if not in_gamma_k(lam, k):
            continue
        count += 1
        if not in_sigma_delta(lam, ConeParams(n, k).delta_gv):
            bad += 1
    return bad


def verify_lines(seed):
    return [f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
            for name, ok, detail in cli._verify_checks(seed)]


@pytest.mark.filterwarnings("error")
class TestBatchedConeCheck:
    """Check 3 of `verify` (Gamma_k in Sigma_delta) draws and tests its
    samples in batches; it must test what the former scalar loop tested."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 5, 11, 13])
    def test_verify_passes_at_other_seeds(self, capsys, seed):
        assert main(["verify", "--seed", str(seed)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 17 and lines[-1] == "all checks passed"
        assert lines[2] == "[PASS] Gamma_k in Sigma_delta embedding: 0 failures / 10000"

    def test_stacked_sigma_delta_sum_does_not_overflow(self):
        # Finite rows whose sum in numpy's order once overflowed (the class
        # turns warnings into errors), in both orders, next to unit rows;
        # with delta = 0, tiny entries keep their sign whether or not the
        # row's sum overflows.  Check 3 tests its batches so.
        lam = np.array([[-1e308, 0, 1e308, 1e308, 0, 0, 0, 0],
                        [-1e308, 1e308, 1e308, 0, 0, 0, 0, 0],
                        [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -0.5],
                        [0.0] * 8,
                        [1e300, 1e-250, 1e-250, 1e-250, 1e-250, 1e-250, 1e-250, 1e-250],
                        [1e308, 1e308, 1e-300, 5e-324, 1.0, 1.0, 1.0, 1.0],
                        [1e308, 1e308, -5e-324, 1.0, 1.0, 1.0, 1.0, 1.0]])
        delta = np.array([0.09375] * 4 + [0.0] * 3)
        sigma_delta = in_sigma_delta(lam, delta)
        assert sigma_delta.tolist() == [False, False, True, False, True, True, False]
        assert sigma_delta.tolist() == [in_sigma_delta(x, d) for x, d in zip(lam, delta)]

    def test_stacked_cone_tests_match_the_scalar_tests(self):
        # Unit-scale rows, and integer rows in -2..2: those have exact zero
        # sigma_j (the Gamma_k boundary) and, for the dyadic deltas, entries
        # equal to -delta sigma_1 (the Sigma_delta boundary).  Check 3 tests
        # its batches with one order and one delta per row.
        rng = np.random.default_rng(40)
        deltas = [0.0, 0.125, 0.25, 0.5, 1.0 / 6.0, 0.6]
        rows = zero_sigma = on_sigma_delta = 0
        for n in range(2, 8):
            for integer in (False, True):
                m = 2000
                if integer:
                    lam = rng.integers(-2, 3, size=(m, n)).astype(float)
                else:
                    lam = rng.normal(size=(m, n)) + rng.uniform(0, 1.5, size=(m, 1))
                k = rng.integers(1, n + 1, size=m)
                delta = np.array(deltas)[rng.integers(0, len(deltas), size=m)]
                gamma, sigma_delta = in_gamma_k(lam, k), in_sigma_delta(lam, delta)
                assert gamma.dtype == bool and sigma_delta.dtype == bool
                assert gamma.tolist() == [in_gamma_k(x, int(j)) for x, j in zip(lam, k)]
                assert sigma_delta.tolist() == [in_sigma_delta(x, d) for x, d in zip(lam, delta)]
                rows += m
                e = sigma_all(lam, n)[:, 1:]
                zero_sigma += int(((e == 0.0) & (np.arange(1, n + 1) <= k[:, None])).any(axis=1).sum())
                edge = lam == -delta[:, None] * lam.sum(axis=1, keepdims=True)
                on_sigma_delta += int(edge.any(axis=1).sum())
        assert rows >= 20000
        assert zero_sigma > 100 and on_sigma_delta > 100

    def test_former_check_passes(self):
        assert former_cone_check(np.random.default_rng(7)) == 0

    def test_same_failure_rate_as_the_former_check(self, monkeypatch):
        # With delta halved, about 5 % of Gamma_k samples leave Sigma_delta;
        # the batched and the former check must see the same rate.
        half = ConeParams.delta_gv.fget
        monkeypatch.setattr(ConeParams, "delta_gv", property(lambda c: 0.5 * half(c)))
        line = verify_lines(3)[2]
        assert line.startswith("[FAIL] Gamma_k in Sigma_delta embedding: ")
        batched = int(line.split(": ")[1].split(" failures")[0])
        former = former_cone_check(np.random.default_rng(3))
        assert 300 <= batched <= 700 and 300 <= former <= 700
        assert abs(batched - former) <= 5 * math.sqrt(batched + former)


# The former scalar loops of verify's sampled checks 1, 2, 4, 5, 6 and 8,
# kept as oracles: each evaluates one sample at a time through the
# single-matrix and single-jet routes, and returns its verify line(s).

def former_recurrence_check(rng):
    worst = 0.0
    for _ in range(400):
        n = int(rng.integers(2, 9))
        lam = rng.normal(size=n) * rng.uniform(0.5, 2.0)
        j = int(rng.integers(0, n + 1))
        brute = sum(math.prod(c) for c in itertools.combinations(lam, j)) if j else 1.0
        scale = max(1.0, sum(abs(math.prod(c)) for c in itertools.combinations(np.abs(lam), j))
                    if j else 1.0)
        worst = max(worst, abs(symfunc.sigma(lam, j) - brute) / scale)
    return [f"[PASS] sigma recurrence vs enumeration: max rel diff {worst:.2e}"]


def former_gradient_check(rng):
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 8))
        lam = rng.normal(size=n)
        k = int(rng.integers(1, n + 1))
        grad = symfunc.sigma_gradient(lam, k)
        oracle = np.array([symfunc.sigma(np.delete(lam, i), k - 1) for i in range(n)])
        worst = max(worst, np.abs(grad - oracle).max())
    return [f"[PASS] sigma gradient vs deletion oracle: max diff {worst:.2e}"]


def former_invariance_check(rng):
    worst = 0.0
    for _ in range(60):
        n = int(rng.integers(2, 7))
        S = rng.normal(size=(n, n))
        S = 0.5 * (S + S.T)
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        k = int(rng.integers(1, n + 1))
        s1 = symfunc.sigma_of_matrix(S, k)
        s2 = symfunc.sigma_of_matrix(Q @ S @ Q.T, k)
        worst = max(worst, abs(s1 - s2) / max(1.0, abs(s1)))
    return [f"[PASS] sigma_of_matrix orthogonal invariance: max rel diff {worst:.2e}"]


def former_arrow_check(rng):
    worst = 0.0
    for _ in range(300):
        n = int(rng.integers(2, 7))
        S = np.diag(rng.normal(size=n))
        S[:-1, -1] = rng.normal(size=n - 1)
        S[-1, :-1] = S[:-1, -1]
        k = int(rng.integers(1, n + 1))
        worst = max(worst, symfunc.bordered_minor_identity_residual(S, k))
    return [f"[PASS] bordered minor identity: max residual {worst:.2e}"]


def former_gauge_check(rng):
    worst_rt = worst_v = worst_u = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 6))
        bg = [conformal.Background.flat(n), conformal.Background.round_sphere(n)][int(rng.integers(2))]
        H = rng.normal(size=(n, n))
        jet = conformal.ConformalJet(conformal.Gauge.W, float(rng.normal()),
                                     rng.normal(size=n), 0.5 * (H + H.T), bg)
        ju = conformal.convert_gauge(jet, conformal.Gauge.U)
        jv = conformal.convert_gauge(jet, conformal.Gauge.V)
        back = conformal.convert_gauge(conformal.convert_gauge(ju, conformal.Gauge.CHI),
                                       conformal.Gauge.W)
        worst_rt = max(worst_rt, abs(back.value - jet.value),
                       np.abs(back.hess - jet.hess).max())
        W = conformal.matrix_W(jet)
        V = conformal.matrix_V(jv)
        U = conformal.matrix_U(ju)
        sc = max(1.0, np.abs(V).max())
        worst_v = max(worst_v, np.abs(V - 0.5 * (n - 2) * jv.value * W).max() / sc)
        worst_u = max(worst_u, np.abs(U - math.exp(jet.value) * W).max()
                      / max(1.0, np.abs(U).max()))
    return [f"[PASS] gauge round trips: max diff {worst_rt:.2e}",
            f"[PASS] V = (n-2)/2 v W identity: max rel diff {worst_v:.2e}",
            f"[PASS] U = e^w W identity: max rel diff {worst_u:.2e}"]


def former_radial_check(rng):
    worst = 0.0
    for _ in range(400):
        n = int(rng.integers(3, 7))
        k = int(rng.integers(1, n + 1))
        a, b = rng.normal(size=2) * rng.uniform(0.5, 2.0)
        direct = float(radial.sigma_k_radial(radial.RadialAB(np.array([a]), np.array([b])),
                                             ConeParams(n, k))[0])
        mat = symfunc.sigma_of_matrix(np.diag([b] * (n - 1) + [a]), k)
        worst = max(worst, abs(direct - mat) / max(1.0, abs(mat)))
    return [f"[PASS] radial sigma_k vs matrix route: max rel diff {worst:.2e}"]


# Index of the first verify line of each former check.
FORMER_CHECKS = {0: former_recurrence_check, 1: former_gradient_check,
                 3: former_invariance_check, 4: former_arrow_check,
                 5: former_gauge_check, 9: former_radial_check}


class TestStackedVerifyChecks:
    """Verify's sampled checks draw their samples one at a time, as the former
    loops did, and evaluate them in stacks: same draws, same lines."""

    @pytest.mark.parametrize("seed", [0, 4, 7, 11, 24])
    def test_lines_and_draws_equal_the_former_loops(self, monkeypatch, seed):
        # Record the generator's state after each line, which is where the
        # next check starts drawing.
        made = []
        real = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda s: made.append(real(s)) or made[-1])
        lines, states = [], [real(seed).bit_generator.state]
        for name, ok, detail in cli._verify_checks(seed):
            lines.append(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
            states.append(made[0].bit_generator.state)
        for first, former in FORMER_CHECKS.items():
            rng = real(0)
            rng.bit_generator.state = states[first]
            want = former(rng)
            assert lines[first:first + len(want)] == want
            assert rng.bit_generator.state == states[first + len(want)]


class TestParser:
    def test_built_once_per_process(self, monkeypatch, capsys):
        assert main(["sigma", "--lambda=1,2,3", "--k=2"]) == 0
        monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
        assert main(["sigma", "--lambda=1,2,3", "--k=1"]) == 0
        assert main(["bogus"]) == 3
        assert capsys.readouterr().out.count("sigma_1 = 6") == 2

    def test_dispatch_reaches_the_current_binding(self, monkeypatch, capsys):
        # perfbench's tracer rebinds cmd_* names after the parser may have
        # been built; the rebound function must be the one that runs.
        main(["verify", "--help"])
        seen = []
        monkeypatch.setattr(cli, "cmd_verify", lambda args: seen.append(args.seed) or 5)
        assert main(["verify", "--seed", "3"]) == 5
        assert seen == [3]


def test_unknown_command_exits_3(capsys):
    assert main(["bogus"]) == 3


@pytest.mark.parametrize("argv", [
    ["sigma", "--lambda=--", "--k=2"],
    ["envelope", "--grid", "grid.txt", "--center=--", "--out", "env.csv"],
    ["classify", "--profile=--", "--n=3", "--k=2"],
], ids=["sigma", "envelope", "classify"])
def test_double_dash_value_exits_3(capsys, argv):
    # argparse gives "--" as an empty list, which reached the commands as a
    # list and ended in an AttributeError traceback.
    assert main(argv) == 3
    assert capsys.readouterr().err == "error: '--' is not a value of any option\n"


def former_write_csv(path, header, columns):
    """The CLI's former CSV writer, kept as an oracle: one format call per value."""
    rows = len(columns[0])
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(rows):
            fh.write(",".join("{:.16e}".format(c[i]) for c in columns) + "\n")


SPECIAL_DOUBLES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, -1e-310,
                   1e308, -1e308, 1.7976931348623157e308, math.inf, -math.inf, math.nan,
                   0.1, 1.0 / 3.0, 1e16, 123456789.0, -2.5]


def one_pass_csv(path, header, columns):
    with open(path, "w") as fh:
        write_csv(fh, header, columns)


def former_save_profile_csv(p, path):
    """The former radial.save_profile_csv, kept as an oracle."""
    with open(path, "w") as fh:
        fh.write("r,w,dw,d2w\n")
        for i in range(len(p.r)):
            fh.write(",".join(f"{x:.16e}" for x in (p.r[i], p.w[i], p.dw[i], p.d2w[i])) + "\n")


class TestCsvWriter:
    @pytest.mark.parametrize("as_list", [False, True])
    def test_same_bytes_as_the_per_value_writer(self, tmp_path, as_list):
        rng = np.random.default_rng(36)
        # Every bit pattern is a double: signs, exponents and payloads alike.
        drawn = rng.integers(0, 2**64, size=3000, dtype=np.uint64).view(np.float64)
        values = np.concatenate([SPECIAL_DOUBLES * 3, drawn])
        columns = [values, values[::-1].copy(), rng.permutation(values)]
        if as_list:
            columns = [c.tolist() for c in columns]
        header = ["a", "b", "c"]
        one_pass_csv(tmp_path / "got.csv", header, columns)
        former_write_csv(tmp_path / "want.csv", header, columns)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_mixed_columns_and_no_rows(self, tmp_path):
        for columns in ([np.array([-0.0, 1e308]), [math.inf, 5e-324], (math.nan, 2.0)],
                        [np.array([]), []]):
            header = ["x"] * len(columns)
            one_pass_csv(tmp_path / "got.csv", header, columns)
            former_write_csv(tmp_path / "want.csv", header, columns)
            assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_profile_bytes_are_the_former_writers(self, tmp_path):
        rng = np.random.default_rng(39)
        drawn = rng.integers(0, 2**64, size=800, dtype=np.uint64).view(np.float64)
        for m in (1, 3, 8000):
            r = np.sort(np.abs(rng.normal(size=m))) + 1e-3
            w, dw, d2w = (rng.permutation(np.resize(np.concatenate([SPECIAL_DOUBLES, drawn]), m))
                          for _ in range(3))
            # The constructor, not from_samples: the writer takes any double.
            p = RadialProfile(r, w, dw, d2w, ConeParams(3, 2), True)
            save_profile_csv(p, tmp_path / "got.csv")
            former_save_profile_csv(p, tmp_path / "want.csv")
            assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_fold_below_1e_15_flags_one_row(tmp_path, capsys):
    # t* = 9.375e-17: rounding t to 15 decimal places flagged every sample.
    spec = dict(sphere_spec(), rhs={"f_const": 1e30},
                continuation={"step": 0.02, "t_start": 1e-19, "after_fold_frac": 0.6})
    code, _ = run_problem(tmp_path, "continue", spec)
    assert code == 0
    summary = json.loads((tmp_path / "out_summary.json").read_text())
    assert summary["t_star"] == pytest.approx(9.375e-17, rel=1e-9)
    lines = (tmp_path / "out_branch.csv").read_text().splitlines()[1:]
    flagged = [float(line.split(",")[0]) for line in lines if line.endswith(",1.0000000000000000e+00")]
    assert len(lines) == 37 and flagged == [summary["t_star"]]


OUTPUT_COMMANDS = {
    "solve": ["--problem", "problem.json", "--out-prefix"],
    "continue": ["--problem", "problem.json", "--out-prefix"],
    "envelope": ["--grid", "grid.txt", "--center", "0,0", "--out"],
    "volume": ["--metric", "metric.json", "--out"],
    "harnack": ["--profile", "profile.csv", "--n", "3", "--k", "2", "--out"],
    "classify": ["--profile", "profile.csv", "--n", "3", "--k", "2", "--out"],
}


class TestOutputPaths:
    # A prefix may be a directory's name or empty; a file flag may not.
    @pytest.mark.parametrize("command, where", [
        (command, where) for command in OUTPUT_COMMANDS
        for where in ("missing directory", "file as directory", "directory", "empty")
        if OUTPUT_COMMANDS[command][-1] == "--out" or where.endswith(" directory")])
    def test_fault_names_the_flag_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                  command, where):
        *argv, flag = OUTPUT_COMMANDS[command]
        (tmp_path / "plain").write_text("")
        path = {"missing directory": tmp_path / "missing" / "x",
                "file as directory": tmp_path / "plain" / "x",
                "directory": tmp_path, "empty": ""}[where]
        monkeypatch.setattr(cli, f"cmd_{command}", lambda args: pytest.fail("command ran"))
        assert main([command, *argv, flag, str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag} ")

    def test_volume_summary_is_checked_too(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "cmd_volume", lambda args: pytest.fail("command ran"))
        assert main(["volume", "--metric", "m.json", "--out", str(tmp_path / "q.csv"),
                     "--summary", str(tmp_path / "missing" / "s.json")]) == 3
        assert capsys.readouterr().err.startswith("error: --summary ")

    def test_solve_out_prefix_in_a_missing_directory(self, tmp_path, capsys):
        code, _ = run_problem(tmp_path, "solve", sphere_spec())
        assert code == 0
        path = tmp_path / "nonexistent" / "x"
        assert main(["solve", "--problem", str(tmp_path / "problem.json"),
                     "--out-prefix", str(path)]) == 3
        assert capsys.readouterr().err.endswith(
            f"error: --out-prefix {path}: {path.parent} is not a directory\n")
