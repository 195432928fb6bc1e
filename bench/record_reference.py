"""Record bench/reference.json: output digests and op counts per workload.

    python3 bench/record_reference.py

Runs every workload once at the default seed and stores the SHA-256 of each
op's canonical output.  Outputs that do not depend on the seed are checked
for every seed; the seeded ones only for the default seed (other seeds use
the diagonal compatibility oracle).  Record only from a commit whose
outputs are known good: the digests pin the byte-identical JSON contract.
"""

from __future__ import annotations

import json
import shutil
import sys

import worker


def main() -> int:
    worker.import_charpow()
    work = worker.ROOT / ".bench_out" / "record"
    digests, ops_count = {}, {}
    for name, setup in worker.WORKLOADS.items():
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        ops = setup(worker.DEFAULT_SEED, work)
        results, _ = worker.run_ops(ops)
        outcomes, found = worker.check_ops(ops, results, worker.DEFAULT_SEED, {}, True)
        bad = [o for o in outcomes if not o[1]]
        if bad:
            print(f"{name}: failing ops, not recording: {bad}", file=sys.stderr)
            return 1
        ops_count[name] = len(outcomes)
        for op in ops:
            if op.name in found:
                digests[op.name] = {
                    "seed": worker.DEFAULT_SEED if op.seeded else None,
                    "sha256": found[op.name],
                }
        print(f"{name}: {len(outcomes)} ops pass", file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    worker.REFERENCE.write_text(
        json.dumps({"ops": ops_count, "digests": digests}, indent=1, sort_keys=True)
        + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
