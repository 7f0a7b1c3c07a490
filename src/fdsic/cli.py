"""Command-line entry point.

Subcommands: simulate, sweep-bandwidth, sweep-power, verify, spectrum.
Exit status 0: every check the invocation ran passed; 1: a check failed; 2: a usage error,
or a refused config or output directory, which prints one stderr line "fdsic: error: <message>".
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import sys

from .config import ConfigError, ExperimentConfig, check_output_dir, load_config
from .harness import (STAGES, format_point, run_simulate, run_spectrum, run_sweep_bandwidth,
                      run_sweep_power, run_verify, VERIFY_SUITES)


# glibc mallopt parameters
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
M_ARENA_MAX = -8


def _keep_freed_memory() -> None:
    """Let glibc's malloc reuse freed memory instead of returning it.

    A pipeline run allocates and frees dozens of ~1 MB arrays. With glibc's
    default, adaptive thresholds many of them get fresh mmap'd pages or are
    trimmed off the heap when freed, so each run in a process page-faults
    about 20 MB back in (OFDM config): a tenth of a `simulate` run, and the
    part whose cost varies most from run to run. Fixed thresholds (mmap only
    above 32 MB, trim only above 64 MB of free heap) keep those pages for
    the next array. One arena serves all threads: with one per thread, each
    thread of verify's oracle-delay pool keeps a frame's working set in its own
    (+3.4 MB of peak memory, not +0.6). Does nothing without mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(M_MMAP_THRESHOLD, 32 << 20)
    mallopt(M_TRIM_THRESHOLD, 64 << 20)
    mallopt(M_ARENA_MAX, 1)


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.output_dir is not None:  # "" is the current directory
        cfg = dataclasses.replace(cfg, output_dir=args.output_dir)
    check_output_dir(cfg.output_dir)
    return cfg


def _sweep_points(text: str) -> list:
    """Sweep points: an inclusive integer range lo..hi, or comma-separated
    numbers. Text that is neither, or gives no point, is a usage error."""
    lo, _, hi = text.partition("..")
    try:  # a bound or an entry that is no number, or a third bound in hi, gives none
        points = (list(range(int(lo), int(hi) + 1)) if ".." in text
                  else [float(v) for v in text.split(",") if v.strip()])
    except ValueError:
        points = []
    if not points:
        raise argparse.ArgumentTypeError(f"{text!r} is neither an integer range lo..hi with "
                                         "lo <= hi nor a list of comma-separated numbers")
    return points


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fdsic",
                                     description="Self-interference cancellation simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--config", help="path to a key=value config file")
    run.add_argument("--output-dir", dest="output_dir")

    sub.add_parser("simulate", parents=[run], help="run the full pipeline once")

    p_bw = sub.add_parser("sweep-bandwidth", parents=[run], help="cancellation vs bandwidth")
    p_bw.add_argument("--bw", default="5e6,10e6,15e6,20e6", type=_sweep_points,
                      help="comma-separated bandwidths in Hz")

    p_pw = sub.add_parser("sweep-power", parents=[run], help="cancellation vs transmit power")
    p_pw.add_argument("--dbm", default="-10..19", type=_sweep_points,
                      help="range lo..hi or comma-separated dBm values")

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("--suite", required=True, choices=sorted(VERIFY_SUITES))
    p_ver.add_argument("--output-dir", dest="output_dir", default=ExperimentConfig.output_dir)

    p_spec = sub.add_parser("spectrum", parents=[run], help="PSD of one pipeline stage")
    p_spec.add_argument("--stage", required=True, choices=STAGES)
    return parser


def main(argv=None) -> int:
    # argparse reads a spaced value that starts with "-" as an option: join it
    argv = list(sys.argv[1:] if argv is None else argv)
    for flag in ("--dbm", "--bw"):
        while flag in argv[:-1]:
            i = argv.index(flag)
            argv[i:i + 2] = [f"{flag}={argv[i + 1]}"]
    args = _parser().parse_args(argv)
    _keep_freed_memory()
    try:  # only config loading, the output_dir check and sweep point building raise ConfigError
        if args.command == "simulate":
            report = run_simulate(_load(args))
            print(f"rf_cancellation_db = {report.rf_cancellation_db:.2f}")
            print(f"digital_cancellation_db = {report.digital_cancellation_db:.2f}")
            print(f"total_db = {report.total_db:.2f}")
            return 0

        if args.command == "sweep-bandwidth":
            for bw, rf_db, dig_db, tot in run_sweep_bandwidth(_load(args), args.bw):
                print(f"{format_point(bw / 1e6)} MHz: rf={rf_db:.2f} dB "
                      f"digital={dig_db:.2f} dB total={tot:.2f} dB")
            return 0

        if args.command == "sweep-power":
            for row in run_sweep_power(_load(args), args.dbm):
                print(f"{format_point(row[0])} dBm: rf={row[1]:.2f} dB "
                      f"total(order2)={row[5]:.2f} dB")
            return 0

        if args.command == "verify":
            ok = run_verify(args.suite, output_dir=check_output_dir(args.output_dir))
            print(f"suite {args.suite}: {'pass' if ok else 'fail'}")
            return 0 if ok else 1

        if args.command == "spectrum":
            print(f"wrote {run_spectrum(_load(args), args.stage)}")
            return 0
    except ConfigError as exc:
        print("fdsic: error: " + " ".join(str(exc).splitlines()), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
