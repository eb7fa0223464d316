"""khessian benchmark: run one workload, or all of them, and print the metrics.

    python3 perfbench/run.py --workload annulus_fold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                    # all four workloads, one process each
    python3 perfbench/run.py --smoke            # every operation and check, tiny sizes

Run from anywhere; the package is imported from src/ next to this directory.
One workload runs in this process: it writes its inputs into a run directory,
sets up and warms up three times, then runs whole passes of its operations
until --seconds have gone and at least three passes are done, checking the
outputs after each pass.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics of BENCHMARK.json with --trace 0,
its per-layer metrics with --trace 1.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy loads: load comes from one process.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench_runs")
SETUP_REPS = 3
# A run makes at least this many passes, so that its median has a middle.
MIN_PASSES = 3


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def import_package() -> dict:
    """Import khessian from src/ of this checkout; returns its modules by layer."""
    if not os.path.isfile(os.path.join(SRC, "khessian", "__init__.py")):
        sys.exit(f"perfbench: no khessian sources under {SRC}")
    sys.path.insert(0, SRC)
    import khessian.cli
    from khessian import analysis, cli, conformal, radial, solver, symfunc
    if not os.path.abspath(khessian.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: khessian imported from {khessian.__file__}, not {SRC}")
    return {"cli": cli, "solver": solver, "radial": radial, "analysis": analysis,
            "symfunc": symfunc, "conformal": conformal}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def machine_line() -> str:
    import numpy
    import scipy
    return (f"machine: {cpu_model()}, nproc {os.cpu_count()}, "
            f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}, BLAS threads {BLAS_THREADS}")


def run_pass(ops, failures_seen):
    """Run one pass.  Returns (outputs of the operations that succeeded, number failed)."""
    import workloads
    results = {}
    failed = 0
    for label, op in ops:
        try:
            results[label] = op()
        except (workloads.OperationFailed, ArithmeticError, ValueError, RuntimeError) as exc:
            failed += 1
            failures_seen.setdefault(label, f"{type(exc).__name__}: {exc}")
    return results, failed


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 spec: dict) -> dict:
    import numpy as np
    import speed
    probe = speed.SpeedProbe(speed.MIXES.get(name, speed.MIX))
    modules, *import_s = probe.timed(import_package)
    import tracing
    import workloads

    print(f"khessian benchmark: workload {name}, seed {seed}, {seconds:g} s, "
          f"trace {int(trace)}{', smoke' if smoke else ''}")
    print(machine_line())
    # A terminated run still removes its run directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    run_dir = os.path.join(RUNS, f"{name}-{seed}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        wl = workloads.WORKLOADS[name](run_dir, seed, smoke)
        tracer = tracing.Tracer(modules) if trace else None
        setups, setup_groups = [], []
        for _ in range(1 if smoke else SETUP_REPS):
            if tracer:
                tracer.install()
                tracer.begin()
            setups.append(probe.timed(lambda: (wl.setup(), wl.warm_up()), not tracer)[1:])
            if tracer:
                setup_groups.append(tracer.end())
                tracer.remove()
        problems = wl.prepare()
        ops = wl.operations()
        failures_seen = {}
        attempted = failed = 0
        passes, pass_groups = [], []
        if tracer:
            # One untraced pass first: the tracing overhead is measured against it.
            (results, nfail), *untraced = probe.timed(lambda: run_pass(ops, failures_seen), False)
            problems += wl.check(results)
            attempted += len(ops)
            failed += nfail
            tracer.install()
            np.seterrcall(tracer.fp_event)
            saved = np.seterr(over="call", invalid="call")
        begin = perf_counter()
        while True:
            if tracer:
                tracer.begin()
            (results, nfail), *times = probe.timed(lambda: run_pass(ops, failures_seen),
                                                   not tracer)
            passes.append(times)
            if tracer:
                pass_groups.append(tracer.end())
            attempted += len(ops)
            failed += nfail
            problems += wl.check(results)
            if smoke or (perf_counter() - begin >= seconds and len(passes) >= MIN_PASSES):
                break
        if tracer:
            np.seterr(**saved)
            tracer.remove()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(RUNS)
        except OSError:
            pass

    median = lambda pairs, i: statistics.median(p[i] for p in pairs)
    setup_s = import_s[1] + median(setups, 1)
    print(f"set-up: import {import_s[0]:.3f} s + " + ", ".join(f"{t:.3f}" for t, _ in setups)
          + f" s; scaled {setup_s:.4f} s")
    print(f"passes: {len(passes)}, " + ", ".join(f"{t:.3f}" for t, _ in passes)
          + f" s; median {median(passes, 0):.4f} s, scaled median {median(passes, 1):.4f} s")
    print(f"operations: attempted {attempted}, failed {failed}")
    for label, reason in failures_seen.items():
        print(f"  failed: {label}: {reason}")
    for p in dict.fromkeys(problems):
        print(f"  CHECK FAILED: {p}")

    if tracer:
        values = tracing.combine(pass_groups, setup_groups)
        values["trace.overhead_s"] = median(passes, 1) - untraced[1]
        wanted = spec["per_layer"]
        absent = [m["name"] for m in wanted if m["name"] != "trace.overhead_s"
                  and not tracing.available(m["name"], tracer.wrapped)]
    else:
        values = {
            "pass_s": median(passes, 1),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
        absent = []
    if absent:
        print("absent (wrapped name not found): " + ", ".join(absent))
    metrics = {}
    for m in wanted:
        if m["name"] in absent:
            continue
        metrics[m["name"]] = {"value": float(values[m["name"]]), "unit": m["unit"]}
        print(f"  {m['name']:34s} {values[m['name']]:>16.6g} {m['unit']}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args, spec) -> dict:
    """Each workload in a fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {w['name']} exited {proc.returncode}")
        result = json.loads(lines[-1])
        print(f"{w['name']}: correct {result['correct']}, attempted {result['attempted']}, "
              f"failed {result['failed']}\n")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            combined["metrics"][f"{w['name']}.{key}"] = val
    return combined


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one set-up and one pass per workload")
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args, spec)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.smoke, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
