"""One benchmark worker: a fresh process that sets up one workload, warms
it up, and times ops by calling `fdsic.cli.main(argv)` in-process.

Started by `run.py`, one worker at a time, with BLAS and OpenMP pinned to
one thread. It prints one JSON object on stdout and nothing else.

    python3 perfbench/worker.py --workload simulate --seed 1 --budget 10 \
        --trace 0 --work-dir .bench_work/simulate/w0
"""

import time

T0 = time.perf_counter()  # setup_s starts here; interpreter start-up is outside it

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import platform
import resource
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import fdsic  # noqa: E402
from fdsic import cli  # noqa: E402
from fdsic.config import load_config, save_config  # noqa: E402

if Path(fdsic.__file__).resolve().parent != SRC / "fdsic":
    sys.exit(f"fdsic imported from {fdsic.__file__}, not from {SRC}")

import tracing  # noqa: E402

DEFAULT_SEED = 1
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# benchmark seed n -> OFDM signal/run seed n, single-carrier seed n + 1, so
# seed 1 reproduces the shipped configs exactly
CONFIGS = {"ofdm": ("ofdm_20mhz.cfg", 0), "sc": ("single_carrier_10mhz.cfg", 1)}
SWEEP_DBM = tuple(range(-10, 20))
SUITES = ("lemma", "filters", "oracle-delay", "poisson")
# poisson fails on purpose (acceptance criterion 3b): exit code 1 is expected
SUITE_RC = {"lemma": 0, "filters": 0, "oracle-delay": 0, "poisson": 1}

CYCLE = {"simulate": 1, "sweep_power": len(SWEEP_DBM), "verify": 1}


def write_configs(seed: int, cfg_dir: Path) -> dict:
    """Seeded copies of the shipped configs, written with save_config."""
    cfg_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for key, (shipped, offset) in CONFIGS.items():
        cfg = load_config(ROOT / "configs" / shipped)
        s = seed + offset
        cfg = dataclasses.replace(cfg, seed=s,
                                  signal=dataclasses.replace(cfg.signal, seed=s))
        paths[key] = cfg_dir / shipped
        save_config(cfg, paths[key])
    return paths


def op_calls(workload: str, i: int, cfgs: dict, out: Path) -> list:
    """The CLI invocations of op `i`, each with its expected exit code."""
    if workload == "simulate":
        return [(["simulate", "--config", str(cfgs[k]), "--output-dir", str(out / k)], 0)
                for k in CONFIGS]
    if workload == "sweep_power":
        p = SWEEP_DBM[i % len(SWEEP_DBM)]
        return [(["sweep-power", "--config", str(cfgs["ofdm"]), f"--dbm={p}",
                  "--output-dir", str(out)], 0)]
    return [(["verify", "--suite", s, "--output-dir", str(out)], SUITE_RC[s])
            for s in SUITES]


def read_outputs(out: Path) -> dict:
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def digests(outputs: dict) -> dict:
    return {k: hashlib.sha256(v).hexdigest() for k, v in outputs.items()}


def sweep_expected(i: int, warm: dict) -> dict:
    """A power point's expected output from the warm-up point's output.

    The SI channel and the VM tap both scale with sqrt(G_t), so with an
    ideal receiver every row equals the warm-up row apart from the power
    column (checked against the recorded rows of the default seed)."""
    lines = warm.get("power_sweep.csv", b"").split(b"\n")
    if len(lines) != 3 or b"," not in lines[1]:
        return {}  # the warm-up failed; every later op fails with it
    header, row, _ = lines
    tail = row.split(b",", 1)[1]
    p = SWEEP_DBM[i % len(SWEEP_DBM)]
    return {"power_sweep.csv": b"%s\n%d,%s\n" % (header, p, tail)}


class Checker:
    """Byte-for-byte output check of every op."""

    def __init__(self, workload: str, seed: int, reference: dict):
        self.workload = workload
        self.reference = None
        if workload in reference and (workload == "verify" or seed == reference["seed"]):
            self.reference = reference[workload]
        self.warm = None

    def check(self, i: int, rcs: list, expected_rcs: list, outputs: dict) -> str:
        """'' when the op is correct, else the reason it is not."""
        if rcs != expected_rcs:
            return f"exit codes {rcs}, expected {expected_rcs}"
        if self.reference is not None:
            want = self.reference[str(i % CYCLE[self.workload])]
            got = digests(outputs)
        else:
            want = (sweep_expected(i, self.warm) if self.workload == "sweep_power"
                    else self.warm)
            got = outputs
        if got != want:
            bad = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
            return f"outputs differ from the reference: {bad}"
        return ""


class Runner:
    def __init__(self, workload: str, seed: int, work: Path, reference: dict):
        self.workload = workload
        self.cfgs = write_configs(seed, work / "configs")
        self.checker = Checker(workload, seed, reference)
        self.out = work / "out"
        self.sink = io.StringIO()
        self.failures = []

    def op(self, i: int, tracer=None) -> tuple:
        """Run op `i`; returns (wall s, cpu s, output bytes, ok)."""
        shutil.rmtree(self.out, ignore_errors=True)
        calls = op_calls(self.workload, i, self.cfgs, self.out)
        rcs = []
        error = ""
        if tracer is not None:
            tracer.begin_op(i)
        t, c = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(self.sink):
                for argv, _ in calls:
                    rcs.append(cli.main(argv))
        except Exception as exc:  # an op that raises is a failed op, not a crash
            error = f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - t, time.process_time() - c
        if tracer is not None:
            tracer.end_op()
        self.sink.seek(0)
        self.sink.truncate()
        outputs = read_outputs(self.out) if self.out.exists() else {}
        if self.checker.warm is None:
            self.checker.warm = outputs
        if not error:
            error = self.checker.check(i, rcs, [rc for _, rc in calls], outputs)
        if error:
            self.failures.append(f"op {i}: {error}")
        return wall, cpu, sum(map(len, outputs.values())), not error

    def timed(self, budget_s: float) -> list:
        """Ops from index 1 until their summed wall time reaches `budget_s`."""
        ops = []
        spent = 0.0
        while spent < budget_s:
            ops.append(self.op(len(ops) + 1))
            spent += ops[-1][0]
        return ops

    def traced(self, budget_s: float, tracer: tracing.Tracer) -> tuple:
        """Each op runs untraced, then traced, until the summed wall time of
        both reaches `budget_s` and the input cycle is complete. Pairing the
        two keeps drift in machine load out of the tracing overhead.
        Returns (untraced ops, traced ops, originals restored after each)."""
        untraced, traced = [], []
        restored = True
        spent = 0.0
        i = 0
        while i % CYCLE[self.workload] or spent < budget_s:
            untraced.append(self.op(i))
            tracer.install()
            try:
                traced.append(self.op(i, tracer))
            finally:
                tracer.uninstall()
            restored &= tracing.originals_restored()
            spent += untraced[-1][0] + traced[-1][0]
            i += 1
        return untraced, traced, restored


# per-layer metrics read straight off the spans: "<span>.calls" or
# "<span>.busy_ms" / "<span>.self_ms", per traced op
SPAN_METRICS = (
    "rfstage.tune.busy_ms", "rfstage.power_detect.calls", "rfstage.power_detect.busy_ms",
    "rfstage.rf_stage.busy_ms",
    "channel.apply_channel.calls", "channel.apply_channel.busy_ms",
    "channel.fractional_delay.calls", "channel.fractional_delay.busy_ms",
    "channel.impair.busy_ms",
    "signals.gen_frame.calls", "signals.gen_frame.busy_ms",
    "digital.ls_fit.calls", "digital.ls_fit.busy_ms", "digital.cancel.busy_ms",
    "digital.deriv_filter.calls",
    "metrics.psd.calls", "metrics.psd.busy_ms", "metrics.slope_diagnostic.busy_ms",
    "harness.run_pipeline.calls", "harness.run_pipeline.busy_ms",
    "harness.run_pipeline.self_ms", "harness.write_outputs.busy_ms",
    "harness.write_outputs.self_ms",
    "oracle.resample_delay_reference.calls", "oracle.resample_delay_reference.busy_ms",
    "oracle.exact_delay_oracle.busy_ms", "oracle.kernel_fourier0_numeric.busy_ms",
    "oracle.poisson_check.calls", "oracle.poisson_check.busy_ms",
    "config.load_config.busy_ms",
)


def per_layer(tracer: tracing.Tracer, traced: list, untraced: list) -> dict:
    n = len(traced)
    stats = tracing.span_stats(tracer.spans)
    m = {}
    for metric in SPAN_METRICS:
        span, stat = metric.rsplit(".", 1)
        s = stats.get(span, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        m[metric] = ((s["calls"] / n, "count") if stat == "calls"
                     else (1e3 * s[stat.replace("_ms", "_s")] / n, "ms"))

    counts = tracer.counts
    probes = counts["rfstage.tune.probes"]
    tunes = stats.get("rfstage.tune", {}).get("calls", 0)
    op_wall = sum(o[0] for o in traced)
    top = sum(end - start for _, start, end, parent, _ in tracer.spans
              if parent >= 0 and tracer.spans[parent][0] == "op")
    m.update({
        "rfstage.tune.probes": (probes / n, "count"),
        "rfstage.tune.probe_us": (1e3 * m["rfstage.tune.busy_ms"][0] * n / probes
                                  if probes else 0.0, "us"),
        "rfstage.tune.accept_ratio": (counts["rfstage.tune.accepted"] / probes
                                      if probes else 0.0, "ratio"),
        "rfstage.tune.converged_frac": (counts["rfstage.tune.converged"] / tunes
                                        if tunes else 0.0, "ratio"),
        "numpy.fft.calls": (counts["numpy.fft.calls"] / n, "count"),
        "signals.BasebandSignal.constructions": (
            counts["signals.BasebandSignal.constructions"] / n, "count"),
        "harness.output_bytes": (sum(o[2] for o in traced) / n, "bytes"),
        "trace.overhead_frac": (1.0 - sum(o[0] for o in untraced) / op_wall, "ratio"),
        "trace.unspanned_frac": (1.0 - top / op_wall, "ratio"),
    })
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(CYCLE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True,
                    help="seconds of op wall time to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", required=True)
    args = ap.parse_args(argv)

    runner = Runner(args.workload, args.seed, Path(args.work_dir),
                    json.loads(REFERENCE.read_text()))
    runner.op(0)  # warm-up; also the self-check reference for other seeds
    setup_s = time.perf_counter() - T0
    result = {"setup_s": setup_s, "warmup_ok": not runner.failures}

    if args.trace:
        tracer = tracing.Tracer()
        untraced, traced, result["restored"] = runner.traced(args.budget, tracer)
        result["metrics"] = per_layer(tracer, traced, untraced)
        ops = untraced + traced
        (Path(args.work_dir) / "spans.json").write_text(json.dumps(tracer.spans))
    else:
        ops = runner.timed(args.budget)
        result["op_wall_s"] = [o[0] for o in ops]
        result["op_cpu_s"] = [o[1] for o in ops]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["attempted"] = len(ops) + 1
    result["failed"] = len(runner.failures)
    result["op_ok"] = [o[3] for o in ops]
    result["failures"] = runner.failures[:20]
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
