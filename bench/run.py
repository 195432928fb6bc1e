"""charpow benchmark: the command that runs one workload.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Each cold run of the workload is a fresh
interpreter (bench/worker.py), so every lazy cache of charpow fills inside
the timed phase, as it does for every `charpow` invocation.  Cold runs
repeat, one at a time, for about `--seconds` (at least three untraced runs,
or one untraced and one traced run with `--trace 1`).

With `--trace 0` the result carries the end-to-end metrics of
BENCHMARK.json, each the median over the untraced runs.  With `--trace 1`
untraced and traced runs alternate; the result carries the per-layer
metrics, each the median over the traced runs.  Every run's outputs are
checked (reference digests, the suites' own properties, the diagonal
compatibility oracle); an op that fails, raises, exits non-zero or is cut
by the time limit counts in `failed`.

Standard output: a JSON record line (environment, every sample, tracing
overhead), one line per metric, and, last, the result object.  The record
is also written to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
MIN_UNTRACED_RUNS = 3
CHILD_LIMIT_S = 60.0  # one cold run; the slowest workload takes ~12 s untraced
RUN_LIMIT_S = 160.0  # the whole invocation ends within 180 s
CHILD_ENV = {
    # numpy must not start BLAS threads: every run is single-threaded
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class Child:
    """Outcome of one worker process."""

    def __init__(self, traced, report=None, error=""):
        self.traced = traced
        self.report = report
        self.error = error


def run_child(workload, seed, index, traced, oracle, timeout) -> Child:
    work = OUT / f"work-{os.getpid()}-{index}"
    work.mkdir(parents=True)
    try:
        config = {"workload": workload, "seed": seed, "workdir": str(work),
                  "trace": traced, "oracle": oracle, "spawn": time.monotonic()}
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(config)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, **CHILD_ENV},
        )
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return Child(traced, error=f"cut at the {timeout:.0f} s time limit")
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = err.strip().splitlines()[-1:] or [""]
            return Child(traced, error=f"exit {proc.returncode}: {tail[0]}")
        return Child(traced, report=json.loads(lines[-1]))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_children(workload, seed, seconds, trace):
    """Cold runs, one at a time, for about `seconds`.

    With trace, untraced and traced runs alternate.  Once the minimum number
    of runs is in, a run starts only if a run of its kind, at the median
    length seen so far, would end within `seconds`.  A run that fails or is
    cut ends the series: its ops are already counted as failed, and later
    runs would measure a broken program.
    """
    t0 = time.monotonic()
    children = []
    lengths = {False: [], True: []}
    oracle = True
    while True:
        elapsed = time.monotonic() - t0
        traced = bool(trace) and len(children) % 2 == 1
        enough = len(children) >= (2 if trace else MIN_UNTRACED_RUNS)
        if enough and elapsed + statistics.median(lengths[traced]) > seconds:
            break
        left = RUN_LIMIT_S - elapsed
        if left < 5.0:
            break
        child = run_child(workload, seed, len(children), traced, oracle,
                          min(CHILD_LIMIT_S, left))
        children.append(child)
        lengths[traced].append(time.monotonic() - t0 - elapsed)
        if child.report is None:
            break
        # the semantic oracle runs once per invocation, in the first run
        oracle = False
    return children


def tally(children, expected_ops):
    """(attempted, failed, failure notes).

    Every run must reproduce the first complete run's output digests, and
    an output whose check failed in the first run stays failed when repeated.
    """
    attempted = failed = 0
    notes = []
    first = None
    for i, child in enumerate(children):
        if child.report is None:
            attempted += expected_ops
            failed += expected_ops
            notes.append(f"run {i}: {child.error}")
            continue
        outcomes = child.report["outcomes"]
        digests = child.report["digests"]
        if first is None:
            first = child.report
            first_failed = {name for name, ok, _ in outcomes if not ok}
        for name, ok, detail in outcomes:
            if ok and name in digests and child.report is not first:
                if digests[name] != first["digests"].get(name):
                    ok, detail = False, "output differs from the first run's"
                elif name in first_failed:
                    ok, detail = False, "repeats the first run's failed output"
            attempted += 1
            if not ok:
                failed += 1
                notes.append(f"run {i}: {name}: {detail}")
        if len(outcomes) != expected_ops:
            attempted += 1
            failed += 1
            notes.append(f"run {i}: {len(outcomes)} ops, expected {expected_ops}")
    return attempted, failed, notes


def environment(workload, seed, seconds, trace):
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count()
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "platform": platform.platform(),
        "nproc": cores, "cpu_count": os.cpu_count(),
        "commit": commit, "src_sha256": h.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "charpow" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no charpow source tree (src/charpow) to measure",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    if args.workload not in reference["ops"]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    children = run_children(args.workload, args.seed, args.seconds, args.trace)
    attempted, failed, notes = tally(children, reference["ops"][args.workload])
    plain = [c.report for c in children if c.report and not c.traced]
    traced = [c.report for c in children if c.report and c.traced]
    if not plain or (args.trace and not traced):
        print(json.dumps({"record": {"attempted": attempted, "failed": failed,
                                     "failures": notes}}))
        print("error: no run completed, so there is nothing to measure",
              file=sys.stderr)
        return 1

    def median(reports, key):
        return statistics.median(r[key] for r in reports)

    record = {"environment": environment(args.workload, args.seed, args.seconds,
                                         args.trace),
              "numpy": plain[0]["numpy"],
              "attempted": attempted, "failed": failed, "failures": notes,
              "runs": [{"traced": c.traced, "error": c.error,
                        **{k: v for k, v in (c.report or {}).items()
                           if k not in ("outcomes", "digests")}}
                       for c in children]}
    if args.trace:
        metrics_spec = spec["per_layer"]
        wall_plain, wall_traced = median(plain, "wall_s"), median(traced, "wall_s")
        values = {m["name"]: statistics.median(r["layers"][m["name"]] for r in traced)
                  for m in metrics_spec if m["name"] in traced[0]["layers"]}
        values["trace.wall_s"] = wall_traced
        values["trace.overhead_s"] = wall_traced - wall_plain
        record["tracing_overhead_s"] = wall_traced - wall_plain
    else:
        metrics_spec = spec["end_to_end"]
        values = {m["name"]: median(plain, m["name"]) for m in metrics_spec}
    missing = [m["name"] for m in metrics_spec if m["name"] not in values]
    if missing:
        print(f"error: runs did not report {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in metrics_spec}
    samples = len(traced) if args.trace else len(plain)
    record["metrics"] = metrics
    record["samples"] = samples

    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"record": record}))
    for key, m in metrics.items():
        print(f"{key} = {m['value']:.6g} {m['unit']}  (median of {samples} runs)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
