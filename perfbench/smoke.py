"""Smoke test of the benchmark itself, and the one command that prints every
metric of every workload.

For the default seed and one other seed, runs each workload briefly
untraced and traced through run.py, and checks that:
- the last line is the result object with exactly its four keys;
- every metric BENCHMARK.json names is emitted, with its unit, and no other;
- no op failed (op_fail_frac is 0) and the result is correct;
- after the traced run every traced function is the original again.

    python3 perfbench/smoke.py            # about two minutes
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = (1, 7)
SECONDS = "2"   # sweep_power's traced run still completes its 30-point cycle


def run(workload: str, seed: int, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} trace {trace}: exit "
                             f"{proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for seed in SEEDS:
        for workload in (w["name"] for w in spec["workloads"]):
            for trace in (0, 1):
                record, result = run(workload, seed, trace)
                tag = f"{workload} seed={seed} trace={trace}"
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                checks = {
                    "result keys": set(result) == {"correct", "attempted", "failed", "metrics"},
                    "metric names and units": got == wanted[trace],
                    "no failed op": result["failed"] == 0 and result["attempted"] >= 1,
                    "correct": result["correct"] is True,
                    "op_fail_frac is 0": "# op_fail_frac: 0.0" in record,
                }
                if trace:
                    checks["originals restored"] = "# restored: True" in record
                problems += [f"{tag}: {name}" for name, ok in checks.items() if not ok]
                print(f"== {tag}: attempted={result['attempted']} failed={result['failed']}")
                for name, m in result["metrics"].items():
                    print(f"   {name} = {m['value']:.6g} {m['unit']}")
    for p in problems:
        print("FAILED:", p)
    print("smoke:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
