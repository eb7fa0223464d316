"""Golden outputs of `khessian solve`, `continue`, `volume`, `envelope`, `harnack`,
`sigma` and `classify`.

Every case under tests/golden/ is re-run and must give the same exit code,
the same keys and shapes, and every number within 1e-12 relative.  Residuals
are rounding noise around zero, where a relative bound means nothing: two
residuals also match when both lie within RESIDUAL_FLOOR.  A change that
moves a value beyond this regenerates the set with tests/golden/regenerate.py
and lists every moved value in CHANGES.md.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
REL = 1e-12
RESIDUAL_FLOOR = 1e-11

_spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)

CASES = sorted(GOLDEN.glob("*.json"))


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def mismatches(got, want, where, residual=False):
    """Descriptions of every difference between got and want, by key path."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                    f"!= {sorted(want)}"]
        return [m for key in sorted(want)
                for m in mismatches(got[key], want[key], f"{where}.{key}",
                                    residual or key == "residual")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: length {len(got) if isinstance(got, list) else got!r} "
                    f"!= {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{where}[{i}]", residual)]
    if _is_number(want) and _is_number(got):
        scale = max(abs(got), abs(want))
        if abs(got - want) <= REL * scale or (residual and scale <= RESIDUAL_FLOOR):
            return []
        return [f"{where}: {got!r} != {want!r}"]
    return [] if got == want and type(got) is type(want) else [f"{where}: {got!r} != {want!r}"]


def csv_residuals(record):
    """The record with each CSV's residual column keyed as 'residual'."""
    for table in record["files"].values():
        if "header" in table and "residual" in table["header"]:
            col = table["header"].index("residual")
            table["residual"] = [row.pop(col) for row in table["rows"]]
    return record


def test_golden_set_matches_the_case_list():
    assert [p.stem for p in CASES] == sorted(regenerate.cases())


@pytest.mark.parametrize("path", CASES, ids=[p.stem for p in CASES])
def test_golden_case(path, tmp_path):
    want = json.loads(path.read_text())
    command, problem = regenerate.cases()[path.stem]
    assert want["problem"] == json.loads(json.dumps(problem))
    got = regenerate.run_case(command, problem, tmp_path)
    got = json.loads(regenerate._dumps(got))
    assert got["argv"] == want["argv"]
    assert got["exit"] == want["exit"]
    found = mismatches(csv_residuals(got), csv_residuals(want), path.stem)
    assert not found, "\n".join(found[:20])


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
    found = mismatches(csv_residuals(got), csv_residuals(want), name)
    assert not found, "\n".join(found[:20])
