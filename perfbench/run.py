"""fdsic benchmark: time the CLI's `simulate`, `sweep-power` and `verify`
commands end to end, or trace them layer by layer.

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 30 --trace 0

`--trace 0` starts SETUPS fresh worker processes one after another, each
timing ops for seconds / SETUPS of op wall time, and reports the
end-to-end metrics. `--trace 1` starts one worker that runs each op
untraced and then traced, and reports the per-layer metrics. Every line but the last is a human-readable record (environment,
every metric with its unit, failures); the last line is one JSON object.
Exits non-zero without a result when a worker cannot run.
"""

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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("simulate", "sweep_power", "verify")
SETUPS = 3          # fresh workers per untraced run; setup_s is their median
TAIL_BEYOND = 10    # op_ms_tail: the highest percentile with ten ops beyond it
DEADLINE_S = 170    # a run must end within 180 s
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without calling git (which would
    search the parent directories of a checkout that is not a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "fdsic").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_worker(args, budget: float, trace: int, work: Path, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--budget", repr(budget), "--trace", str(trace),
           "--work-dir", str(work)]
    env = {**os.environ, **PINNED_ENV}
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        sys.exit(f"worker timed out: {' '.join(cmd)}")
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        sys.exit(f"worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(results: list) -> tuple:
    walls = [w for r in results for w in r["op_wall_s"]]
    cpus = [c for r in results for c in r["op_cpu_s"]]
    n = len(walls)
    completed = sum(ok for r in results for ok in r["op_ok"])
    k = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1  # too few ops: the slowest
    metrics = {
        "ops_per_s": (completed / sum(walls), "1/s"),
        "op_ms_p50": (1e3 * statistics.median(walls), "ms"),
        "op_ms_tail": (1e3 * sorted(walls)[k], "ms"),
        "cpu_ms_per_op": (1e3 * sum(cpus) / n, "ms"),
        "setup_s": (statistics.median(r["setup_s"] for r in results), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results), "MB"),
    }
    details = {"timed_ops": n, "tail_percentile": 100.0 * (k + 1) / n,
               "tail_ops_beyond": n - 1 - k,
               "setup_s_each": [r["setup_s"] for r in results]}
    return metrics, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    deadline = time.monotonic() + DEADLINE_S

    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        results = [run_worker(args, args.seconds, 1, work / "traced", deadline)]
        metrics = {k: (v["value"], v["unit"]) for k, v in results[0]["metrics"].items()}
        details = {"restored": results[0]["restored"]}
    else:
        results = [run_worker(args, args.seconds / SETUPS, 0, work / f"w{i}", deadline)
                   for i in range(SETUPS)]
        metrics, details = end_to_end(results)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    details["op_fail_frac"] = failed / attempted
    if args.workload == "verify":
        details["seed_dependent_inputs"] = False

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(),
        "source_sha256": source_digest(), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
        **results[0]["env"], "threads_pinned": PINNED_ENV, **details,
        "failures": [f for r in results for f in r["failures"]][:20],
    }
    (work / "result.json").write_text(json.dumps(
        {"record": record, "metrics": metrics, "workers": results}, indent=1))
    for key, value in record.items():
        print(f"# {key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    correct = failed == 0 and details.get("restored", True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
