"""Experiment configuration: dataclass plus flat INI-style file parsing.

The file format is plain key = value lines under [section] headers, so any
language's standard config parsing can read and write it.
"""

from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

from .channel import (ChannelTap, MultipathChannel, PathLossModel,
                      ReceiverImpairments, taps_from_geometry)
from .signals import SignalSpec


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

    def path_loss_model(self) -> PathLossModel:
        return PathLossModel.calibrated(cap_db=self.pathloss_cap_db,
                                        ref_distance_m=self.pathloss_calib_distance_m,
                                        ref_loss_db=self.pathloss_calib_db,
                                        alpha=self.pathloss_alpha)

    def build(self) -> MultipathChannel:
        tx_gain = 10.0 ** (self.tx_gain_db / 10.0)
        if self.taps_db_ns:
            taps = tuple(ChannelTap(gain=10.0 ** (g_db / 20.0), delay_s=d_ns * 1e-9)
                         for g_db, d_ns in self.taps_db_ns)
            return MultipathChannel(taps=taps, carrier_hz=self.carrier_hz,
                                    tx_gain=tx_gain)
        extra = ()
        if self.circulator_gain_db is not None:
            extra = (ChannelTap(gain=10.0 ** (self.circulator_gain_db / 20.0),
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
        if self.digital_order not in (1, 2):
            raise ValueError("digital_order must be 1 or 2")
        if self.train_len < 100:
            raise ValueError("train_len too short")
        if self.tune_budget <= 0:
            raise ValueError("tune_budget must be positive")
        if self.impairments.sample_offset >= 1.0 / self.signal.sample_rate_hz:
            raise ValueError("sample_offset must be below one sample period, "
                             f"{1.0 / self.signal.sample_rate_hz:g} s")


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
    parser.read_string(Path(path).read_text())
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
