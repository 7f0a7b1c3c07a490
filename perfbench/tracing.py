"""Per-layer tracing of fdsic from outside the package.

`Tracer.install()` wraps the layer functions named in `LAYER_FUNCTIONS`.
Each wrapper is bound in the module that defines the function and in every
loaded `fdsic` module that imported it by name (`harness.apply_channel`,
`rfstage.apply_channel`, `cli.load_config`, the package's re-exports, ...),
because a name imported with `from .x import f` does not see a rebinding of
`x.f`. It also counts `BasebandSignal` constructions and `numpy.fft.fft` /
`numpy.fft.ifft` calls. `Tracer.uninstall()` puts every original back, so
untraced runs never see a wrapper.

Spans (name, start, end, parent, op id) are kept in memory; busy and self
times are derived from them after the run.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

import numpy as np

from fdsic import signals

# module -> functions wrapped in a span. `taylor` is on no CLI path and is
# deliberately absent.
LAYER_FUNCTIONS = {
    "signals": ("gen_frame",),
    "channel": ("apply_channel", "fractional_delay", "impair"),
    "rfstage": ("rf_stage", "tune", "power_detect"),
    "digital": ("ls_fit", "cancel", "deriv_filter"),
    "metrics": ("psd", "slope_diagnostic"),
    # the run_* commands are spanned so that the op's top-level spans cover
    # all of cli.main but argument parsing and printing
    "harness": ("run_simulate", "run_sweep_power", "run_verify",
                "run_pipeline", "write_outputs"),
    "oracle": ("resample_delay_reference", "exact_delay_oracle",
               "kernel_fourier0_numeric", "poisson_check"),
    "config": ("load_config",),
}

_WRAPPED = "__perfbench_wrapper__"


def _fdsic_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "fdsic" or name.startswith("fdsic."))]


class Tracer:
    """Span recorder plus the counters the per-layer metrics need."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, op id]
        self._stack = []
        self.op_id = -1
        self._op_span = -1
        self.counts = dict.fromkeys(
            ("numpy.fft.calls", "signals.BasebandSignal.constructions",
             "rfstage.tune.probes", "rfstage.tune.accepted",
             "rfstage.tune.converged"), 0)
        self._rebound = []   # (owner, attribute, original)

    # -- spans ---------------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1, self.op_id])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = perf_counter()

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._op_span = self._open("op")

    def end_op(self) -> None:
        self._close(self._op_span)

    def _span_wrapper(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(result)
            return result
        setattr(wrapper, _WRAPPED, True)
        return wrapper

    def _count_wrapper(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        setattr(wrapper, _WRAPPED, True)
        return wrapper

    def _count_tune(self, result) -> None:
        self.counts["rfstage.tune.probes"] += result.iterations
        self.counts["rfstage.tune.accepted"] += len(result.detector_readings)
        self.counts["rfstage.tune.converged"] += int(result.converged)

    # -- install / uninstall -------------------------------------------
    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._rebound.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap the layer functions; spans and counts accumulate across
        install/uninstall pairs."""
        if self._rebound:
            raise RuntimeError("tracer already installed")
        modules = _fdsic_modules()
        for mod_name, names in LAYER_FUNCTIONS.items():
            home = sys.modules[f"fdsic.{mod_name}"]
            for name in names:
                orig = getattr(home, name)
                hook = self._count_tune if (mod_name, name) == ("rfstage", "tune") else None
                wrapper = self._span_wrapper(f"{mod_name}.{name}", orig, hook)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._rebind(mod, attr, wrapper)
        for name in ("fft", "ifft"):
            self._rebind(np.fft, name,
                         self._count_wrapper("numpy.fft.calls", getattr(np.fft, name)))
        self._rebind(signals.BasebandSignal, "__post_init__",
                     self._count_wrapper("signals.BasebandSignal.constructions",
                                         signals.BasebandSignal.__post_init__))

    def uninstall(self) -> None:
        while self._rebound:
            owner, attr, orig = self._rebound.pop()
            setattr(owner, attr, orig)


def originals_restored() -> bool:
    """True when no fdsic module, `numpy.fft` or `BasebandSignal` holds a
    tracer wrapper."""
    owners = _fdsic_modules() + [np.fft]
    for owner in owners:
        if any(getattr(v, _WRAPPED, False) for v in vars(owner).values()):
            return False
    return not getattr(signals.BasebandSignal.__post_init__, _WRAPPED, False)


def span_stats(spans) -> dict:
    """Per span name: call count, busy seconds and self seconds.

    Busy time sums a name's spans that have no ancestor of the same name;
    self time is a span's duration minus the durations of its direct
    children (children never overlap, the program being single-threaded).
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        s["calls"] += 1
        s["self_s"] += (end - start) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            s["busy_s"] += end - start
    return stats
