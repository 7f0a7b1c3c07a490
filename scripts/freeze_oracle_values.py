#!/usr/bin/env python3
"""Regenerate the frozen oracle fixture consumed by the test suite.

The oracle runs with pinned seeds and sample counts, so the recorded values
are reproducible bit-for-bit; tests compare the live oracle against this
file before trusting any derived expectation.
"""

from pathlib import Path

import numpy as np

from fdsic.harness import LEMMA_SPEC, LEMMA_TAU_GRID
from fdsic.oracle import (exact_delay_oracle, kernel_fourier0_numeric,
                          lemma_kernel, order2_remainder, poisson_check)

FIXTURE = Path(__file__).resolve().parents[1] / "tests" / "data" / "oracle_frozen.txt"


def render() -> str:
    """The fixture text, from a fresh run of the oracle."""
    lines = ["# frozen oracle outputs; regenerate with scripts/freeze_oracle_values.py"]
    for tau in LEMMA_TAU_GRID:
        r = exact_delay_oracle(LEMMA_SPEC, tau)
        lines.append(f"lemma_err_power_tau_{tau} = {r['err_power']:.12e}")
        lines.append(f"lemma_deriv_power_tau_{tau} = {r['deriv_power']:.12e}")
    lines.append(f"fhat0_numeric = {kernel_fourier0_numeric():.12e}")
    lines.append(f"kernel_at_pi = {lemma_kernel(np.pi):.12e}")
    for d in (0.0, 0.25, 0.5):
        lines.append(f"poisson_direct_sum_{d} = {poisson_check(d).direct_sum:.12e}")
    # second-order Taylor remainder constant: max over the grid of
    # measured remainder / (tau/T)^6, used as the order-2 budget constant
    consts = []
    for tau in LEMMA_TAU_GRID:
        r2 = order2_remainder(LEMMA_SPEC, tau)
        consts.append(r2 / tau ** 6)
        lines.append(f"order2_remainder_tau_{tau} = {r2:.12e}")
    lines.append(f"order2_constant_max = {max(consts):.12e}")
    return "\n".join(lines) + "\n"


def main():
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(render())
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()
