"""One cold run of a benchmark workload, in a fresh interpreter.

Started by run.py as `python3 bench/worker.py '<json config>'`.  The config
names the workload, the seed, the parent's monotonic clock reading just
before the spawn, a work directory, whether to trace, and whether to
run the semantic oracle.  The worker imports charpow from the checkout's
`src/`, builds the seeded inputs (set-up), runs the workload's operations
(timed phase, cold caches), then checks every output and writes one JSON
report to its standard output.  Anything else charpow prints goes to
standard error.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
DEFAULT_SEED = 0
P = 2


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def canonical_json(obj) -> str:
    """The CLI's canonical encoding: sorted keys, fixed separators, newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


class Op:
    """One operation: a CLI invocation, a suite call or one API call.

    `run` executes inside the timed phase and returns a raw result; `digest`
    (outside the timed phase) reduces it to the SHA-256 of canonical bytes,
    and `outcomes` turns it into one (name, ok, detail) per counted op.
    """

    def __init__(self, name, run, digest=None, outcomes=None, oracle=None,
                 suite=False, out_path=None, seeded=False):
        self.name = name
        self.run = run
        self.digest = digest
        self.outcomes = outcomes or (lambda result: [(name, True, "")])
        self.oracle = oracle
        self.suite = suite
        self.out_path = out_path
        self.seeded = seeded  # the output depends on the seed


def cli_op(name, argv, out_path, oracle=None, seeded=False):
    def run():
        from charpow import cli

        return cli.main(list(argv) + ["--out", str(out_path)])

    def outcomes(rc):
        return [(name, rc == 0, f"exit {rc}" if rc else "")]

    return Op(name, run, digest=lambda rc: sha256_file(out_path),
              outcomes=outcomes, oracle=oracle, out_path=out_path, seeded=seeded)


def suite_op(name, suites, cfg_kwargs):
    def run():
        from charpow import verify

        return verify.run_suites(list(suites), verify.VerifyConfig(**cfg_kwargs))

    def outcomes(results):
        return [
            (f"{r.suite}/{r.name} {r.params}", r.ok, r.detail) for r in results
        ]

    return Op(name, run, outcomes=outcomes, suite=True)


def section_bound(p: int, m: int) -> int:
    e, q = 0, 1
    while q * p <= m:
        q *= p
        e += 1
    return e


# ---------------------------------------------------------------------------
# workloads: set-up builds the seeded inputs and returns the ops to time


def setup_powerop_total(seed: int, work: Path):
    from charpow import classfn, groups

    f = classfn.random_class_function(groups.build_group("C2"), P, 2, 3, seed)
    f_path = work / "f.json"
    f_path.write_text(canonical_json(classfn.to_json_dict(f)), encoding="utf-8")
    total_path = work / "total.json"
    return [
        cli_op(
            "powerop-total-C2-m3",
            ["powerop", "--input", str(f_path), "--total", "--m", "3", "--n", "2",
             "--level", "3"],
            total_path,
            oracle=lambda: diagonal_compatibility(f_path, total_path, 3),
            seeded=True,
        ),
        cli_op(
            "powerop-S1-m4-coord",
            ["powerop", "--group", "S1", "--m", "4", "--n", "2", "--level", "3",
             "--generator", "coord"],
            work / "s1.json",
        ),
    ]


def diagonal_compatibility(f_path: Path, total_path: Path, m: int) -> bool:
    """restrict(P_total(f), diagonal G x S_m -> G wr S_m) == P_m(f)."""
    from charpow import classfn, groups, isogeny

    f = classfn.from_json_dict(json.loads(f_path.read_text(encoding="utf-8")))
    total = classfn.from_json_dict(json.loads(total_path.read_text(encoding="utf-8")))
    sec = isogeny.canonical_section(f.p, f.n, section_bound(f.p, m))
    lhs = classfn.restrict(total, groups.diagonal_wreath_hom(f.group, m))
    return lhs == classfn.power_op(f, m, sec)


def setup_verify_invariance(seed: int, work: Path):
    from charpow.rng import SplitMix64

    rng = SplitMix64(seed)
    cfg = dict(groups=("C2", "S3"), max_m=3, functions=1,
               seeds=(rng.next_u64(), rng.next_u64()))
    return [suite_op("invariance+stabilizer", ("invariance", "stabilizer"), cfg)]


def setup_enumerate_structure(seed: int, work: Path):
    # No input depends on the seed: these listings are fixed by their flags.
    def transfer_ideal():
        from charpow import classfn, groups

        return classfn.transfer_ideal(P, 1, 2, 4, groups.build_group("C2"))

    def ideal_digest(ideal):
        summary = {"keys": [list(k) for k in ideal.keys],
                   "generators": [list(g) for g in ideal.generators],
                   "rank": ideal.rank, "quotient_dim": ideal.quotient_dim()}
        return hashlib.sha256(canonical_json(summary).encode()).hexdigest()

    return [
        cli_op("enumerate-wreath-C2-m4",
               ["enumerate", "--kind", "wreath-classes", "--group", "C2",
                "--m", "4", "--n", "2"], work / "wreath.json"),
        cli_op("enumerate-hom-S6",
               ["enumerate", "--kind", "hom-classes", "--group", "S6", "--n", "2"],
               work / "hom.json"),
        cli_op("enumerate-sums-n3-m10",
               ["enumerate", "--kind", "sums", "--n", "3", "--m", "10"],
               work / "sums.json"),
        suite_op("bijections+transfers+fgl", ("bijections", "transfers", "fgl"), {}),
        Op("transfer-ideal-C2-m4", transfer_ideal, digest=ideal_digest),
    ]


WORKLOADS = {
    "powerop-total": setup_powerop_total,
    "verify-invariance": setup_verify_invariance,
    "enumerate-structure": setup_enumerate_structure,
}


# ---------------------------------------------------------------------------


def import_charpow():
    """Import charpow and its CLI from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import charpow
    import charpow.cli  # noqa: F401  (also imports charpow.verify)

    if Path(charpow.__file__).resolve().parent != (SRC / "charpow").resolve():
        raise ImportError(f"charpow was imported from {charpow.__file__}, not {SRC}")


def run_ops(ops):
    """Timed phase: run every op, keeping its result or the exception it raised."""
    results, op_seconds = [], []
    for op in ops:
        t = time.perf_counter()
        try:
            results.append(op.run())
        except Exception as exc:  # counted as a failed op, reported below
            results.append(exc)
        op_seconds.append(time.perf_counter() - t)
    return results, op_seconds


def reference_verdict(name, digest, seed, reference):
    """True or False against the recorded digest, or None if none applies.

    A reference with seed null holds for every seed; one recorded for a seed
    holds only for that seed.
    """
    ref = reference.get(name)
    if ref is None or ref["seed"] not in (None, seed):
        return None
    return digest == ref["sha256"]


def check_ops(ops, results, seed, reference, oracle: bool):
    """Outcomes of every op, and the output digests, outside the timed phase.

    A wrong digest, or a failed oracle where no digest applies, fails the op.
    """
    outcomes, digests = [], {}
    for op, result in zip(ops, results):
        if isinstance(result, Exception):
            outcomes.append((op.name, False, f"{type(result).__name__}: {result}"))
            continue
        found = op.outcomes(result)
        if op.digest is not None and found[-1][1]:
            digests[op.name] = digest = op.digest(result)
            verdict = reference_verdict(op.name, digest, seed, reference)
            detail = "output digest differs from the reference"
            if verdict is None and oracle and op.oracle is not None:
                try:
                    verdict = op.oracle()
                except Exception as exc:  # an oracle crash fails the op, not the run
                    verdict, detail = False, f"oracle: {type(exc).__name__}: {exc}"
                else:
                    detail = "oracle identity fails"
            if verdict is False:
                found[-1] = (op.name, False, detail)
        outcomes.extend(found)
    return outcomes, digests


def main(config: dict) -> dict:
    workload, seed = config["workload"], int(config["seed"])
    work = Path(config["workdir"])
    import_charpow()
    ops = WORKLOADS[workload](seed, work)
    setup_s = time.monotonic() - config["spawn"]
    tracer = None
    if config["trace"]:
        import spans

        tracer, counters = spans.Tracer(), spans.Counters()
        spans.instrument(tracer, counters)
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    w0 = time.perf_counter()
    results, op_seconds = run_ops(ops)
    w1 = time.perf_counter()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    report = {
        "wall_s": w1 - w0,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "setup_s": setup_s,
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "op_seconds": dict(zip((op.name for op in ops), op_seconds)),
        "numpy": sys.modules["numpy"].__version__,
    }
    if tracer is not None:
        report["layers"] = spans.layer_metrics(tracer, counters, w0, w1)
        properties = [
            r for op, res in zip(ops, results)
            if op.suite and isinstance(res, list) for r in res
        ]
        report["layers"]["verify.properties"] = len(properties)
        report["layers"]["verify.properties_failed"] = sum(not r.ok for r in properties)
        report["layers"]["cli.output_bytes"] = sum(
            op.out_path.stat().st_size for op in ops
            if op.out_path is not None and op.out_path.exists()
        )
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["digests"]
    outcomes, digests = check_ops(ops, results, seed, reference, config["oracle"])
    report["outcomes"] = outcomes
    report["digests"] = digests
    return report


if __name__ == "__main__":
    proto = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr
    out = main(json.loads(sys.argv[1]))
    proto.write(json.dumps(out) + "\n")
    proto.flush()
