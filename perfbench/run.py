"""Benchmark of the sextic package: one workload per run, one JSON line out.

    python3 perfbench/run.py --workload {block,ladder,reconcile} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root.  The workload runs in this one process, with
BLAS and OpenMP pinned to one thread.  Steps:

1. set-up: import ``sextic.cli`` (the whole package, as every command does)
   and build the workload's seeded inputs.  The same set-up is repeated in
   fresh interpreters, one at a time, between passes spread over the run;
   ``setup_s`` is the median;
2. timed passes over the inputs until they add up to ``--seconds``; every
   pass is the same work and ``pass_s`` is the median pass time;
3. ``peak_rss_mb`` is read right after the last pass;
4. the outputs of the first pass are checked against independent
   references (``checks.py``) and every later pass must equal the first.

With ``--trace 1`` the public functions of each layer are wrapped
(``tracing.py``) and the per-layer table is printed instead, each value the
median over passes; the set-up imports are timed by ``-X importtime`` in the
fresh interpreters.  A copy of each result goes to ``perfbench/out/``.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import re
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_RUNS = 7  # this process plus six fresh interpreters
IMPORT_METRICS = (("import.scipy_integrate.ms", "scipy.integrate"),
                  ("import.scipy_linalg.ms", "scipy.linalg"),
                  ("import.mpmath.ms", "mpmath"))
_IMPORT_LINE = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)")


def set_up(workload: str, seed: int):
    """Import the package and build the inputs; (seconds, inputs)."""
    start = perf_counter()
    import sextic.cli  # noqa: F401
    import workloads
    inputs = workloads.make_inputs(workload, seed)
    return perf_counter() - start, inputs


def import_table(stderr: str) -> dict[str, float]:
    """Milliseconds per layer from ``-X importtime`` output.

    A dependency is charged its cumulative time where it is first imported;
    ``import.sextic.ms`` is the self time of the package's own modules.
    """
    cumulative, own = {}, 0.0
    for match in _IMPORT_LINE.finditer(stderr):
        self_us, cum_us, _, name = match.groups()
        cumulative.setdefault(name, int(cum_us) / 1e3)
        if name == "sextic" or name.startswith("sextic."):
            own += int(self_us) / 1e3
    table = {metric: cumulative.get(module, 0.0) for metric, module in IMPORT_METRICS}
    table["import.sextic.ms"] = own
    return table


def fresh_set_up(workload: str, seed: int, trace: bool):
    """The set-up in a new interpreter: (seconds, import table or None)."""
    cmd = [sys.executable] + (["-X", "importtime"] if trace else []) + [
        str(Path(__file__).resolve()), "--setup-only", "--workload", workload,
        "--seed", str(seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                          check=True)
    seconds = json.loads(done.stdout.splitlines()[-1])["setup_s"]
    return seconds, import_table(done.stderr) if trace else None


def first_difference(first: list, later: list):
    """Index of the first operation whose output differs, or None."""
    if len(first) != len(later):
        return min(len(first), len(later))
    return next((i for i, (a, b) in enumerate(zip(first, later)) if a != b), None)


def check_outputs(workload: str, inputs: list, outputs: list):
    """(problems, failed operations per pass)."""
    import checks
    problems, failed = [], 0
    for item, out in zip(inputs, outputs):
        if workload == "block":
            problems += checks.check_block(item, out)
        elif workload == "ladder":
            found, missed = checks.check_ladder(item, out)
            problems += found
            failed += missed
        else:
            problems += checks.check_reconcile(item, out)
    return problems, failed


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setup_s, inputs = set_up(workload, seed)
    import tracing
    import workloads

    setups, imports = [setup_s], []

    def fresh():
        sec, table = fresh_set_up(workload, seed, trace)
        setups.append(sec)
        imports.append(table)

    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracing.install(tracer)
    times, layers, first, changed = [], [], None, []
    while not times or sum(times) < seconds:
        # the fresh set-ups are spread over the run, so that setup_s samples
        # the host over the same stretch of time as the passes
        while len(setups) < SETUP_RUNS and sum(times) >= (len(setups) - 1) * seconds / (SETUP_RUNS - 1):
            fresh()
        t0 = perf_counter()
        outputs = workloads.run_pass(workload, inputs)
        times.append(perf_counter() - t0)
        if tracer:
            layers.append(tracer.take_pass())
        if first is None:
            first = outputs
        elif (index := first_difference(first, outputs)) is not None:
            changed.append(f"pass {len(times)}: operation {index} differs from the first pass")
    while len(setups) < SETUP_RUNS:
        fresh()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems, failed = check_outputs(workload, inputs, first)
    problems += changed
    for line in problems:
        print(f"CHECK FAILED: {line}", file=sys.stderr)

    if tracer:
        metrics = {metric: {"value": statistics.median(t[metric] for t in imports), "unit": "ms"}
                   for metric in imports[0]}
        for metric, unit in tracing.LAYER_METRICS:
            metrics[metric] = {"value": statistics.median(p.get(metric, 0.0) for p in layers),
                               "unit": unit}
        metrics["trace.pass_ms"] = {"value": 1e3 * statistics.median(times), "unit": "ms"}
    else:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                   "pass_s": {"value": statistics.median(times), "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    result = {"correct": not problems, "attempted": len(times) * len(inputs),
              "failed": len(times) * failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    detail = dict(result, workload=workload, seed=seed, seconds=seconds, trace=trace,
                  passes=len(times), pass_times_s=times, setup_times_s=setups,
                  problems=problems)
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("block", "ladder", "reconcile"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "sextic" / "__init__.py").is_file():
        print(f"run.py: no sextic package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        setup_s, _ = set_up(args.workload, args.seed)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
