"""The benchmark's last line of standard output is its result.

`perfbench/run.py` runs here as a separate process with its standard output
piped, as a benchmark harness runs it, on every workload at smoke size.  The last line must be strict JSON (no NaN or
Infinity) that reports a correct run and finite end-to-end metrics.
"""

import json
import math
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_strict_json_rejects_non_finite_constants():
    for text in ('{"x": NaN}', '{"x": Infinity}', '{"x": -Infinity}'):
        with pytest.raises(ValueError):
            strict_json(text)
    assert strict_json('{"x": 1e308}') == {"x": 1e308}


@pytest.mark.parametrize("workload", ["annulus_fold", "banded_newton", "grid_fields",
                                      "identities"])
def test_smoke_run_ends_with_a_result_line(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = strict_json(proc.stdout.splitlines()[-1])
    assert {"correct", "attempted", "failed", "metrics"} <= set(result)
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] > 0
    for name in ("pass_s", "setup_s", "peak_rss_mb"):
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (name, value)
