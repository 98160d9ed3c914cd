"""Closed-form error models: level-crossing rate and exponential error probabilities.

All dangerous-error probabilities share the form (1/sqrt(3)) * exp(-frac^2 *
gamma / 4), where ``frac`` is the threshold expressed as a fraction of the
guarded mean-square level and gamma is the number of noise bandwidths per
averaging window. The combined voltage+current method multiplies two such
factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .estimator import AveragingWindow, warn_small_gamma

SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class ThresholdFractions:
    """Decision thresholds as fractions of the guarded levels.

    beta   voltage low cut, fraction of the 00 voltage level
    delta  voltage high cut, fraction of the 11 voltage level
    lam    current low cut, fraction of the 11 current level
    rho    current high cut, fraction of the 00 current level
    """

    beta: float
    delta: float
    lam: float
    rho: float

    def __post_init__(self):
        for name in ("beta", "delta", "lam", "rho"):
            _check_fraction(getattr(self, name), name)


def _check_fraction(frac: float, name: str = "threshold fraction"):
    if not 0.0 < frac < 1.0:
        raise ValueError(f"{name} must be strictly inside (0, 1), got {frac}")


def rice_rate(threshold: float, rms: float, spectrum_moment: float) -> float:
    """Mean level-crossing frequency of a stationary Gaussian process.

    nu(threshold) = (2 / rms) * exp(-threshold^2 / (2 rms^2)) * spectrum_moment,
    where spectrum_moment = sqrt(integral of f^2 S(f) df).
    """
    if rms <= 0:
        raise ValueError(f"rms must be > 0, got {rms}")
    if spectrum_moment < 0:
        raise ValueError(f"spectrum_moment must be >= 0, got {spectrum_moment}")
    return (2.0 / rms) * math.exp(-(threshold * threshold) / (2.0 * rms * rms)) * spectrum_moment


def upcrossing_rate_flat(window: AveragingWindow, frac: float) -> float:
    """Unidirectional crossing rate of the averaged squared noise.

    Closed form (f_b / sqrt(3)) * exp(-frac^2 * gamma / 4). Algebraically
    identical to half the Rice rate with the flat-spectrum substitutions
    rms = S f_b sqrt(2 gamma), moment = sqrt(S(0)_sq * f_b^3 / 3).
    """
    _check_fraction(frac)
    return (window.f_b / SQRT3) * math.exp(-frac * frac * window.gamma / 4.0)


def _epsilon(frac: float, gamma: float) -> float:
    _check_fraction(frac)
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    warn_small_gamma(gamma, stacklevel=3)  # every public rate calls this directly: name its caller
    return math.exp(-frac * frac * gamma / 4.0) / SQRT3


def epsilon_current_11(lam: float, gamma: float) -> float:
    """Probability that an actual 11 period is misread as secure from the current."""
    return _epsilon(lam, gamma)


def epsilon_current_00(rho: float, gamma: float) -> float:
    """Probability that an actual 00 period is misread as secure from the current."""
    return _epsilon(rho, gamma)


def epsilon_voltage(frac: float, gamma: float) -> float:
    """Voltage-mode dangerous-error probability (frac = beta for 00, delta for 11)."""
    return _epsilon(frac, gamma)


def epsilon_combined(frac_v: float, frac_i: float, gamma: float) -> float:
    """Dangerous-error probability of the combined voltage+current decision.

    Product of the two single-mode probabilities, by statistical independence
    of the channel voltage and current:
    (1/3) * exp(-gamma * (frac_v^2 + frac_i^2) / 4).
    """
    return _epsilon(frac_v, gamma) * _epsilon(frac_i, gamma)


def epsilon_analytic(mode: str, actual: str, fracs: ThresholdFractions, gamma: float) -> float:
    """Dispatch the closed-form dangerous-error rate by mode and actual state."""
    if actual not in ("00", "11"):
        raise ValueError(f"analytic error rates exist only for 00 and 11, got {actual!r}")
    frac_v = fracs.beta if actual == "00" else fracs.delta
    frac_i = fracs.rho if actual == "00" else fracs.lam
    if mode == "voltage":
        return _epsilon(frac_v, gamma)
    if mode == "current":
        return _epsilon(frac_i, gamma)
    if mode == "combined":
        return _epsilon(frac_v, gamma) * _epsilon(frac_i, gamma)
    raise ValueError(f"unknown mode {mode!r}")
