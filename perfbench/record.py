"""Record the reference outputs of the default seed into reference.json.

Run it only on a commit whose outputs are known good; the benchmark then
checks every op of the default seed (and every `verify` op) against these
SHA-256 digests byte for byte.

    python3 perfbench/record.py
"""

import json
import os
import shutil
import sys

from run import PINNED_ENV

# the digests hold for single-threaded BLAS, as the benchmark runs; pin it
# before worker imports numpy
os.environ.update(PINNED_ENV)

import worker  # noqa: E402


def main() -> int:
    work = worker.ROOT / ".bench_work" / "record"
    shutil.rmtree(work, ignore_errors=True)
    ref = {"seed": worker.DEFAULT_SEED}
    for workload, cycle in worker.CYCLE.items():
        runner = worker.Runner(workload, worker.DEFAULT_SEED, work / workload, {})
        ref[workload] = {}
        for i in range(cycle):
            runner.op(i)
            ref[workload][str(i)] = worker.digests(worker.read_outputs(runner.out))
        if runner.failures:
            sys.exit(f"{workload}: {runner.failures}")
    worker.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
