"""Full-duplex self-interference cancellation simulator.

Models the multipath SI channel, its two-parameter linearization
H(f) = C0 + C1 f, an RF vector-modulator cancellation stage driven by a
power detector, and a derivative-filter least-squares digital stage.

The submodules are the API; the package exports only `__version__`.
"""

__version__ = "0.1.0"
