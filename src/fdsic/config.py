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

from .channel import (MAX_DELAY_FRACTION, MAX_POWER_DB, SPEED_OF_LIGHT, ChannelTap,
                      MultipathChannel, ReceiverImpairments, check_carrier)
from .digital import MIN_FIT_SAMPLES, MIN_OVERSAMPLING, check_order
from .metrics import MIN_BAND_BINS, band_mask, welch_segment
from .rfstage import MAX_VM_BITS, MIN_DETECTOR_SYMBOLS, MIN_VM_BITS
from .signals import SignalSpec

# Samples dropped at both frame ends before any power measurement: covers the
# FIR edge convention and the wrap vicinity of the periodic delay.
EDGE_GUARD = 64


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
    overflows, or underflows to 0, a ValueError names them."""
    try:
        linear = form(*values.values())
    except OverflowError:
        linear = math.inf
    if linear in (0.0, math.inf):
        raise ValueError(", ".join(f"{key} = {_format(v)}" for key, v in values.items())
                         + (" is" if len(values) == 1 else " are") + " out of range")
    return linear


def _check_finite(values: dict) -> None:
    """Refuse a nan or infinite float, or list entry, of the fields given by name,
    naming its file key: nan passes every ordered comparison, so this runs first."""
    for name, value in values.items():
        if isinstance(value, (float, tuple)) and not np.isfinite(np.array(value)).all():
            raise ValueError(f"{FILE_KEYS.get(name, name)} = {_format(value)} must be finite")


class ConfigError(ValueError):
    """A refused config: a file that cannot be read, or a value no run can take."""


def check_output_dir(path: str) -> str:
    """path, refused unless the first of it and its parents that exists is a directory."""
    found = next(p for p in (Path(path), *Path(path).parents) if p.exists())
    if not found.is_dir():
        raise ConfigError(f"output_dir = {path!r}: {str(found)!r} is not a directory")
    return path


@dataclass(frozen=True)
class ChannelConfig:
    """Channel description: explicit taps or reflector geometry, not both."""

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
        _check_finite(vars(self))  # first, then the field rules, then the build
        geometry = [f.name for f in dataclasses.fields(self)[3:]  # the fields after taps_db_ns
                    if getattr(self, f.name) != f.default]
        if self.taps_db_ns and geometry:  # build() would drop the geometry without a word
            raise ValueError(f"taps cannot be combined with {', '.join(geometry)}")
        if not (self.taps_db_ns or self.reflector_distances_m) and self.circulator_gain_db is None:
            raise ValueError("circulator_gain_db = none and an empty reflector_distances_m "
                             "leave no tap")
        if self.pathloss_calib_distance_m <= 0:  # d^alpha would be 0, complex or |d|^alpha
            raise ValueError(f"pathloss_calib_distance_m = {self.pathloss_calib_distance_m} "
                             "must be positive")
        if self.pathloss_alpha <= 2:
            raise ValueError(f"pathloss_alpha = {self.pathloss_alpha} must exceed 2")
        if self.circulator_delay_ns < 0:
            raise ValueError(f"circulator_delay_ns = {self.circulator_delay_ns} must be >= 0")
        for gain_db, delay_ns in self.taps_db_ns:
            if delay_ns < 0:
                raise ValueError(f"taps = {gain_db}:{delay_ns} holds a negative delay")
        for d in self.reflector_distances_m:
            if d <= 0:
                raise ValueError(f"reflector_distances_m = {d} must be positive")
        gains = [("tx_gain_db", self.tx_gain_db), ("circulator_gain_db", self.circulator_gain_db),
                 *(("taps", g_db) for g_db, _ in self.taps_db_ns)]
        for key, db in gains:  # past it, power sums overflow or sink into power_db's floor
            if db is not None and abs(db) > MAX_POWER_DB:
                raise ValueError(f"{key} = {db} is out of range")
        self.build()  # a channel that cannot be built fails here, at load

    @property
    def tx_amplitude(self) -> float:
        """sqrt(G_t), the amplitude factor of tx_gain_db: the one place it becomes linear."""
        return float(np.sqrt(_power(self.tx_gain_db)))

    def build(self) -> MultipathChannel:
        """The explicit taps, or the circulator tap, then per reflector at distance d
        a tap of delay 2d/c (the round trip) and amplitude sqrt(min(cap, k (2d)^-alpha)):
        the capped power law through (calib distance, calib loss): H(f) at unit transmit power."""
        if self.taps_db_ns:
            taps = [ChannelTap(gain=_amplitude(g_db), delay_s=d_ns * 1e-9)
                    for g_db, d_ns in self.taps_db_ns]
        else:
            taps = [] if self.circulator_gain_db is None else [ChannelTap(
                gain=_amplitude(self.circulator_gain_db), delay_s=self.circulator_delay_ns * 1e-9)]
            # k, then the cap: both checked, in this order, with no reflector too
            k = _linear(lambda db, d, alpha: _power(db) * d ** alpha,
                        pathloss_calib_db=self.pathloss_calib_db,
                        pathloss_calib_distance_m=self.pathloss_calib_distance_m,
                        pathloss_alpha=self.pathloss_alpha)
            cap = _linear(_power, pathloss_cap_db=self.pathloss_cap_db)

            def amplitude(d: float) -> float:
                try:
                    return float(np.sqrt(min(cap, k * (2.0 * d) ** -self.pathloss_alpha)))
                except OverflowError:  # k (2d)^-alpha beyond the float range: far above the cap
                    return float(np.sqrt(cap))

            for d in self.reflector_distances_m:
                taps.append(ChannelTap(gain=_linear(amplitude, reflector_distances_m=d),
                                       delay_s=2.0 * d / SPEED_OF_LIGHT))
        return MultipathChannel(taps=tuple(taps), carrier_hz=self.carrier_hz)


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

    @property
    def slices(self) -> tuple:
        """(train, ev): train_len samples after EDGE_GUARD, then up to EDGE_GUARD from the end."""
        train = slice(EDGE_GUARD, EDGE_GUARD + self.train_len)
        return train, slice(train.stop, self.signal.frame_len - EDGE_GUARD)

    def __post_init__(self):
        """Every check a run needs, made before any frame is generated."""
        _check_finite(vars(self) | vars(self.signal) | vars(self.impairments))
        sig, n, ev = self.signal, self.signal.frame_len, self.slices[1]
        if self.seed < 0:
            raise ValueError(f"invalid [run]: seed = {self.seed} must not be negative")
        check_order(self.digital_order)
        if not MIN_VM_BITS <= self.vm_bits <= MAX_VM_BITS:
            raise ValueError(f"vm_bits = {self.vm_bits} must be in [{MIN_VM_BITS}, {MAX_VM_BITS}]")
        if self.tune_budget <= 0:
            raise ValueError(f"tune_budget = {self.tune_budget} must be positive")
        if sig.oversampling < MIN_OVERSAMPLING:
            raise ValueError(f"oversampling = {sig.oversampling} must be >= {MIN_OVERSAMPLING}")
        if self.train_len < MIN_FIT_SAMPLES:
            raise ValueError(f"train_len = {self.train_len} is below {MIN_FIT_SAMPLES} samples")
        if ev.stop - ev.start < 4 * EDGE_GUARD:
            raise ValueError(f"train_len = {self.train_len} leaves fewer than "
                             f"{4 * EDGE_GUARD} of the {n} frame samples to evaluate on")
        band = slope_band(sig)
        seg = welch_segment(ev.stop - ev.start)  # the evaluation slice's PSD
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
            raise ValueError(f"sample_offset = {self.impairments.sample_offset} must be below "
                             f"one sample period, {1.0 / sig.sample_rate_hz:g} s")
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
    """Read an ExperimentConfig from a flat key=value file. Missing keys keep their
    defaults; an unreadable file, unknown sections and keys and bad values raise ConfigError."""
    # no header can name the empty default section, so [DEFAULT] is unknown too
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                       interpolation=None, default_section="")
    try:  # configparser.Error: a repeated section or key, a key before any section, no =
        parser.read_string(Path(path).read_text(), source=str(path))
        return _from_sections(parser)
    except (OSError, configparser.Error, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def _from_sections(parser: configparser.ConfigParser) -> ExperimentConfig:
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
            try:  # a non-finite value is refused before the section's own rules
                _check_finite(values)
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
