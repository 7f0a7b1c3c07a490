"""Command-line entry point.

Subcommands: simulate, sweep-bandwidth, sweep-power, verify, spectrum.
Exit code is 0 iff every check the invocation ran has passed.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import sys

from .config import ExperimentConfig, load_config
from .harness import (run_simulate, run_spectrum, run_sweep_bandwidth,
                      run_sweep_power, run_verify, VERIFY_SUITES)


# glibc mallopt parameters
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Let glibc's malloc reuse freed memory instead of returning it.

    A pipeline run allocates and frees dozens of ~1 MB arrays. With glibc's
    default, adaptive thresholds many of them get fresh mmap'd pages or are
    trimmed off the heap when freed, so each run in a process page-faults
    about 20 MB back in (OFDM config): a tenth of a `simulate` run, and the
    part whose cost varies most from run to run. Fixed thresholds (mmap only
    above 32 MB, trim only above 64 MB of free heap) keep those pages for
    the next array; peak memory stays the same. Does nothing where the C
    library has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt(M_MMAP_THRESHOLD, 32 << 20)
    mallopt(M_TRIM_THRESHOLD, 64 << 20)


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if getattr(args, "output_dir", None):
        cfg = dataclasses.replace(cfg, output_dir=args.output_dir)
    return cfg


def _parse_bw_list(text: str) -> list:
    return [float(v) for v in text.split(",") if v.strip()]


def _parse_dbm_range(text: str) -> list:
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [float(v) for v in text.split(",") if v.strip()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fdsic",
                                     description="Self-interference cancellation simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the full pipeline once")
    p_sim.add_argument("--config", help="path to a key=value config file")
    p_sim.add_argument("--output-dir", dest="output_dir")

    p_bw = sub.add_parser("sweep-bandwidth", help="cancellation vs bandwidth")
    p_bw.add_argument("--config")
    p_bw.add_argument("--bw", default="5e6,10e6,15e6,20e6",
                      help="comma-separated bandwidths in Hz")
    p_bw.add_argument("--output-dir", dest="output_dir")

    p_pw = sub.add_parser("sweep-power", help="cancellation vs transmit power")
    p_pw.add_argument("--config")
    p_pw.add_argument("--dbm", default="-10..19",
                      help="range lo..hi or comma-separated dBm values")
    p_pw.add_argument("--output-dir", dest="output_dir")

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("--suite", required=True, choices=sorted(VERIFY_SUITES))
    p_ver.add_argument("--output-dir", dest="output_dir", default="out")

    p_spec = sub.add_parser("spectrum", help="PSD of one pipeline stage")
    p_spec.add_argument("--config")
    p_spec.add_argument("--stage", required=True, choices=["pre", "rf", "digital"])
    p_spec.add_argument("--output-dir", dest="output_dir")

    args = parser.parse_args(argv)
    _keep_freed_memory()

    if args.command == "simulate":
        report = run_simulate(_load(args))
        print(f"rf_cancellation_db = {report.rf_cancellation_db:.2f}")
        print(f"digital_cancellation_db = {report.digital_cancellation_db:.2f}")
        print(f"total_db = {report.total_db:.2f}")
        return 0

    if args.command == "sweep-bandwidth":
        rows = run_sweep_bandwidth(_load(args), _parse_bw_list(args.bw))
        for bw, rf_db, dig_db, tot in rows:
            print(f"{bw/1e6:.0f} MHz: rf={rf_db:.2f} dB digital={dig_db:.2f} dB total={tot:.2f} dB")
        return 0

    if args.command == "sweep-power":
        rows = run_sweep_power(_load(args), _parse_dbm_range(args.dbm))
        for row in rows:
            print(f"{row[0]:.0f} dBm: rf={row[1]:.2f} dB total(order2)={row[5]:.2f} dB")
        return 0

    if args.command == "verify":
        ok = run_verify(args.suite, output_dir=args.output_dir)
        print(f"suite {args.suite}: {'pass' if ok else 'fail'}")
        return 0 if ok else 1

    if args.command == "spectrum":
        path = run_spectrum(_load(args), args.stage)
        print(f"wrote {path}")
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
