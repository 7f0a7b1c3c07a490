from pathlib import Path

import pytest

from fdsic.config import ChannelConfig
from fdsic.signals import SignalSpec, gen_frame

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def oracle_frozen():
    """Frozen oracle outputs (key -> float), regenerated by
    scripts/freeze_oracle_values.py."""
    values = {}
    for line in (DATA_DIR / "oracle_frozen.txt").read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, val = line.split("=")
        values[key.strip()] = float(val)
    return values


@pytest.fixture(scope="session")
def default_channel():
    """Circulator tap plus reflectors at 12.5 cm and 30 cm at 2.395 GHz."""
    return ChannelConfig().build()


@pytest.fixture(scope="session")
def ofdm_frame_20mhz():
    spec = SignalSpec(kind="ofdm", bandwidth_hz=20e6, num_symbols=12, seed=3)
    return gen_frame(spec)
