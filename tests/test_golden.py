"""Golden outputs of `khessian solve`, `continue`, `volume`, `envelope`, `harnack`,
`sigma`, `classify` and `verify`.

Every case under tests/golden/ is re-run and must give the same input, exit
code, keys and shapes, and every number within regenerate.REL (1e-12)
relative.  Residuals are rounding noise around zero, where a relative bound
means nothing: two residuals also match when both lie within
regenerate.RESIDUAL_FLOOR.  A change that moves a value beyond this
regenerates the moved cases with tests/golden/regenerate.py and lists every
moved value in CHANGES.md; `regenerate.py --check` lists them without
writing.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)

CASES = sorted(GOLDEN.glob("*.json"))


def test_golden_set_matches_the_case_list():
    assert [p.stem for p in CASES] == sorted(regenerate.cases())


@pytest.mark.parametrize("path", CASES, ids=[p.stem for p in CASES])
def test_golden_case(path, tmp_path):
    found = regenerate.moved(path.stem, tmp_path)
    assert not found, "\n".join(found[:20])


@pytest.mark.parametrize("name", ["envelope_saved_records_3d", "envelope_saved_signed_2d"])
def test_saved_grids_are_archives(name, tmp_path):
    # save_raw writes an archive under the name it is given, read back bit for bit.
    from khessian.radial import GridField

    problem = regenerate.cases()[name][1]
    regenerate._write_input("envelope", problem, tmp_path)
    assert (tmp_path / "grid.txt").read_bytes()[:4] == b"PK\x03\x04"
    got = GridField.load_raw(tmp_path / "grid.txt")
    assert got.values.tobytes() == regenerate._grid_field(problem).values.tobytes()


@pytest.mark.parametrize("name", ["solve_annulus_p_lt_k", "solve_ball_p_lt_k"])
def test_ulp_level_stencil_change_is_accepted(name, tmp_path, monkeypatch):
    # w'' scaled by 1 + 4e-16 moves residuals near the rounding floor, and
    # the Newton residuals above it by up to 1e-6 relative; terminal_order
    # is read from the latter to two decimals and keeps its value.
    from khessian import solver

    stencil = solver.RadialSystem._stencil

    def perturbed(self, w):
        d1, d2, _ = stencil(self, w)
        d2 = d2 * (1.0 + 4e-16)
        half_sq = 0.5 * d1**2
        return d1, d2, solver.RadialAB(d2 + half_sq, d1 / self.r_eq - half_sq)

    monkeypatch.setattr(solver.RadialSystem, "_stencil", perturbed)
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    got = json.loads(regenerate._dumps(regenerate.run_case(*regenerate.cases()[name], tmp_path)))
    assert got["stdout"][0]["terminal_order"] == want["stdout"][0]["terminal_order"]
    found = regenerate.mismatches(regenerate.csv_residuals(got),
                                  regenerate.csv_residuals(want), name)
    assert not found, "\n".join(found[:20])
