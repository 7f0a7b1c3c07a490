"""Experiment configuration: dataclass plus flat INI-style file parsing.

The file format is plain key = value lines under [section] headers, so any
language's standard config parsing can read and write it.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .channel import (MAX_DELAY_FRACTION, ChannelTap, MultipathChannel, PathLossModel,
                      ReceiverImpairments, check_carrier, taps_from_geometry)
from .digital import MIN_FIT_SAMPLES, MIN_OVERSAMPLING
from .metrics import MIN_BAND_BINS, band_mask
from .rfstage import MAX_VM_BITS, MIN_DETECTOR_SYMBOLS, MIN_VM_BITS
from .signals import SignalSpec

# Samples dropped at both frame ends before any power measurement: covers the
# FIR edge convention and the wrap vicinity of the periodic delay.
EDGE_GUARD = 64


def welch_segment(n: int) -> int:
    """Welch segment of an n-sample PSD: the largest power of two up to 4096."""
    return min(4096, 1 << (n.bit_length() - 1))


def slope_band(spec: SignalSpec) -> tuple:
    """Fit band (f_lo, f_hi) of the slope diagnostic: inside the occupied
    spectrum, away from DC and from the spectral edge."""
    if spec.kind == "ofdm":
        edge = (spec.ofdm_used_carriers / 2 + 3) / spec.ofdm_fft_size * spec.bandwidth_hz
    else:
        edge = 0.5 * spec.bandwidth_hz
        if spec.pulse == "rrc":
            edge *= (1.0 - spec.rolloff)
    return (0.05 * edge, 0.9 * edge)


def _power(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _amplitude(db: float) -> float:
    return 10.0 ** (db / 20.0)


def _linear(form, **values) -> float:
    """form(*values), the linear form of the file values given by key. Where it
    overflows, or underflows to 0, a ValueError names them; a value of 0, nan
    or infinity passes, to fail the check made for it."""
    try:
        linear = form(*values.values())
    except OverflowError:
        linear = math.inf
    if linear in (0.0, math.inf) and all(v != 0 and math.isfinite(v) for v in values.values()):
        raise ValueError(", ".join(f"{key} = {_format(v)}" for key, v in values.items())
                         + (" is" if len(values) == 1 else " are") + " out of range")
    return linear


@dataclass(frozen=True)
class ChannelConfig:
    """Channel description: explicit taps and/or reflector geometry."""

    carrier_hz: float = 2.395e9
    tx_gain_db: float = 0.0
    taps_db_ns: tuple = ()           # (gain_db, delay_ns) pairs
    reflector_distances_m: tuple = (0.125, 0.30)
    circulator_gain_db: float = -18.0
    circulator_delay_ns: float = 0.5
    pathloss_cap_db: float = -20.0
    pathloss_alpha: float = 4.0
    pathloss_calib_distance_m: float = 0.25
    pathloss_calib_db: float = -30.0

    def __post_init__(self):
        if self.pathloss_calib_distance_m < 0:  # d^alpha would be complex or |d|^alpha
            raise ValueError(f"pathloss_calib_distance_m = {self.pathloss_calib_distance_m} "
                             "must not be negative")
        self.build()  # a channel that cannot be built fails here, at load

    def path_loss_model(self) -> PathLossModel:
        """The capped model through (calib distance, calib loss) below the cap."""
        k = _linear(lambda db, d, alpha: _power(db) * d ** alpha,
                    pathloss_calib_db=self.pathloss_calib_db,
                    pathloss_calib_distance_m=self.pathloss_calib_distance_m,
                    pathloss_alpha=self.pathloss_alpha)
        return PathLossModel(_linear(_power, pathloss_cap_db=self.pathloss_cap_db), k,
                             self.pathloss_alpha)

    def build(self) -> MultipathChannel:
        tx_gain = _linear(_power, tx_gain_db=self.tx_gain_db)
        if self.taps_db_ns:
            taps = tuple(ChannelTap(gain=_linear(_amplitude, taps=g_db), delay_s=d_ns * 1e-9)
                         for g_db, d_ns in self.taps_db_ns)
            return MultipathChannel(taps=taps, carrier_hz=self.carrier_hz,
                                    tx_gain=tx_gain)
        extra = ()
        if self.circulator_gain_db is not None:
            gain = _linear(_amplitude, circulator_gain_db=self.circulator_gain_db)
            extra = (ChannelTap(gain=gain,
                                delay_s=self.circulator_delay_ns * 1e-9),)
        return taps_from_geometry(self.reflector_distances_m,
                                  self.path_loss_model(), self.carrier_hz,
                                  extra_taps=extra, tx_gain=tx_gain)


@dataclass(frozen=True)
class ExperimentConfig:
    signal: SignalSpec = field(default_factory=SignalSpec)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    impairments: ReceiverImpairments = field(default_factory=ReceiverImpairments)
    vm_bits: int = 16
    detector_window: int = 16384
    tune_budget: int = 1200
    digital_order: int = 2
    train_len: int = 4096
    output_dir: str = "out"
    seed: int = 1

    def __post_init__(self):
        """Every check a run needs, made before any frame is generated."""
        for obj in (self, self.signal, self.channel, self.impairments):
            for f in dataclasses.fields(obj):
                value = getattr(obj, f.name)
                if isinstance(value, (float, tuple)) and not np.isfinite(np.array(value)).all():
                    raise ValueError(f"{FILE_KEYS.get(f.name, f.name)} = {_format(value)} "
                                     "must be finite")
        sig, n = self.signal, self.signal.frame_len
        if self.digital_order not in (1, 2):
            raise ValueError("digital_order must be 1 or 2")
        if not MIN_VM_BITS <= self.vm_bits <= MAX_VM_BITS:
            raise ValueError(f"vm_bits = {self.vm_bits} must be in [{MIN_VM_BITS}, {MAX_VM_BITS}]")
        if self.tune_budget <= 0:
            raise ValueError("tune_budget must be positive")
        if sig.oversampling < MIN_OVERSAMPLING:
            raise ValueError(f"oversampling = {sig.oversampling} must be >= {MIN_OVERSAMPLING}")
        if self.train_len < MIN_FIT_SAMPLES:
            raise ValueError(f"train_len = {self.train_len} is below {MIN_FIT_SAMPLES} samples")
        if n - 2 * EDGE_GUARD - self.train_len < 4 * EDGE_GUARD:
            raise ValueError(f"train_len = {self.train_len} leaves fewer than "
                             f"{4 * EDGE_GUARD} of the {n} frame samples to evaluate on")
        band = slope_band(sig)
        seg = welch_segment(n - 2 * EDGE_GUARD - self.train_len)  # the evaluation slice's PSD
        grid = np.fft.fftfreq(seg, 1 / sig.sample_rate_hz)  # metrics.psd's bins, unsorted
        # an empty band (RRC rolloff 1) is (0, 0) and holds the DC bin alone
        if np.count_nonzero(band_mask(grid, band)) < MIN_BAND_BINS:
            key = "ofdm_used_carriers" if sig.kind == "ofdm" else "rolloff"
            raise ValueError(f"slope-diagnostic band {band[0]:g}..{band[1]:g} Hz holds fewer than "
                             f"{MIN_BAND_BINS} bins of the {seg}-point PSD: check {key}, train_len")
        if not MIN_DETECTOR_SYMBOLS * sig.oversampling <= self.detector_window <= n:
            raise ValueError(f"detector_window = {self.detector_window} must lie between "
                             f"{MIN_DETECTOR_SYMBOLS} symbols and the {n}-sample frame")
        if self.impairments.sample_offset >= 1.0 / sig.sample_rate_hz:
            raise ValueError("sample_offset must be below one sample period, "
                             f"{1.0 / sig.sample_rate_hz:g} s")
        check_carrier(self.channel.carrier_hz, sig.sample_rate_hz)
        delay = max(tap.delay_s for tap in self.channel.build().taps)
        if delay > MAX_DELAY_FRACTION * (n / sig.sample_rate_hz):  # apply_channel's bound
            raise ValueError(f"tap delay {delay * 1e9:g} ns exceeds {MAX_DELAY_FRACTION:.0%} of "
                             f"the frame: check taps, circulator_delay_ns, reflector_distances_m")


# File sections in file order. Each fills either the nested dataclass field
# of ExperimentConfig it names or the listed top-level fields.
SECTIONS = {"signal": "signal", "channel": "channel", "impairments": "impairments",
            "rf": ("vm_bits", "detector_window", "tune_budget"),
            "digital": ("digital_order", "train_len"), "run": ("output_dir", "seed")}

FILE_KEYS = {"taps_db_ns": "taps", "digital_order": "order"}  # field -> key, where they differ


def _floats(text: str) -> tuple:
    return tuple(float(v) for v in text.split(",") if v.strip())


def _pairs(text: str) -> tuple:
    return tuple((float(g), float(d))
                 for g, d in (v.split(":") for v in text.split(",") if v.strip()))


# Fields whose default's type does not tell how to parse them.
_PARSERS = {"taps_db_ns": _pairs,  # gain_db:delay_ns pairs
            "circulator_gain_db": lambda t: None if t.lower() == "none" else float(t)}


def _section_fields(cfg: ExperimentConfig, section: str):
    """The object a section fills and its {file key: field name} map."""
    obj, names = cfg, SECTIONS[section]
    if isinstance(names, str):
        obj = getattr(cfg, names)
        names = [f.name for f in dataclasses.fields(obj)]
    return obj, {FILE_KEYS.get(name, name): name for name in names}


def _format(value, sep: str = ", ") -> str:
    """File text of a field; str() of a float is its shortest exact form."""
    if isinstance(value, tuple):
        return sep.join(_format(v, ":") for v in value)
    return "none" if value is None else str(value)


def load_config(path) -> ExperimentConfig:
    """Read an ExperimentConfig from a flat key=value file. Missing keys keep
    their defaults; unknown sections and keys and bad values raise ValueError."""
    # no header can name the empty default section, so [DEFAULT] is unknown too
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                       interpolation=None, default_section="")
    try:  # a repeated section or key, a key before any section, a line with no =
        parser.read_string(Path(path).read_text(), source=str(path))
    except configparser.Error as exc:
        raise ValueError(str(exc)) from None
    cfg = ExperimentConfig()
    top = {}
    for section in parser.sections():
        if section not in SECTIONS:
            raise ValueError(f"unknown section [{section}]")
        obj, names = _section_fields(cfg, section)
        values = {}
        for key, text in parser.items(section):
            if key not in names:
                raise ValueError(f"unknown key {key!r} in [{section}]")
            name, default = names[key], getattr(obj, names[key])
            parse = _PARSERS.get(name, _floats if isinstance(default, tuple) else type(default))
            try:
                values[name] = parse(text)
            except ValueError as exc:
                raise ValueError(f"bad value {text!r} for {key!r} in [{section}]: {exc}") from None
        if obj is not cfg:
            try:
                values = {SECTIONS[section]: dataclasses.replace(obj, **values)}
            except ValueError as exc:
                raise ValueError(f"invalid [{section}]: {exc}") from None
        top.update(values)
    return dataclasses.replace(cfg, **top)


def save_config(cfg: ExperimentConfig, path) -> None:
    """Write every field of a config; load_config reads it back equal. Text
    that would not load back unchanged raises ValueError naming its key."""
    lines = []
    for section in SECTIONS:
        obj, names = _section_fields(cfg, section)
        texts = {key: _format(getattr(obj, name)) for key, name in names.items()}
        for key, text in texts.items():
            if text != text.strip() or "#" in text or not text.isprintable():
                raise ValueError(f"cannot write {key!r} in [{section}]: {text!r}")
        lines += [f"[{section}]", *(f"{key} = {text}" for key, text in texts.items()), ""]
    Path(path).write_text("\n".join(lines))
