"""Finite-time mean-square measurement and squared-noise spectral theory.

A bit decision is made from the mean square of the channel signal averaged
over the exchange period. Squaring a Gaussian band-limited signal produces a
DC part (the level being measured) plus an AC residual with a triangular
spectrum; the averaging acts as a low-pass filter with cut-off f_B = 1/tau
on that residual.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np


class SmallGammaWarning(UserWarning):
    """gamma below the regime where the flat-spectrum/Gaussian approximations hold."""


@dataclass(frozen=True)
class AveragingWindow:
    """Averaging-time bookkeeping: gamma = bandwidth * tau = bandwidth / f_b."""

    gamma: float
    bandwidth: float

    def __post_init__(self):
        if self.gamma <= 0 or self.bandwidth <= 0:
            raise ValueError("gamma and bandwidth must be positive")
        if self.gamma < 10:
            warnings.warn(
                f"gamma = {self.gamma} < 10: error-rate approximations assume "
                "many noise correlation times per averaging window",
                SmallGammaWarning,
                stacklevel=2,
            )

    @property
    def tau(self) -> float:
        return self.gamma / self.bandwidth

    @property
    def f_b(self) -> float:
        return self.bandwidth / self.gamma


def finite_mean_square(x: np.ndarray):
    """Arithmetic mean of the squared samples along the last axis."""
    if x.shape[-1] == 0:
        raise ValueError("no samples to average")
    return np.mean(np.square(x), axis=-1)


def measurement_slice(n_samples: int) -> slice:
    """Index range of the samples entering the per-period measurement.

    The measurement boxcar spans the trailing half of the period, i.e. a
    duration of 1/(2 f_B). A boxcar of that length has equivalent noise
    bandwidth exactly f_B, matching the low-pass-filter model with cut-off
    f_B that the closed-form error probabilities are derived from. (A boxcar
    over the full period would have noise bandwidth f_B/2 and understate the
    fluctuations by sqrt(2).)
    """
    return slice(n_samples // 2, n_samples)


def measure_period(u_c: np.ndarray, i_c: np.ndarray) -> tuple[float, float]:
    """Mean squares (msv, msi) of one period's channel voltage and current over its trailing half."""
    if len(u_c) != len(i_c):
        raise ValueError(f"length mismatch: {len(u_c)} vs {len(i_c)}")
    sl = measurement_slice(len(u_c))
    return float(finite_mean_square(u_c[sl])), float(finite_mean_square(i_c[sl]))


def squared_noise_psd_theory(f, s_level: float, bandwidth: float):
    """One-sided PSD of the AC part of the squared signal.

    For a Gaussian signal with flat one-sided PSD ``s_level`` on [0, B], the
    square's AC component has the triangular spectrum
    2 B s_level^2 (1 - f / 2B) on [0, 2B] and zero above. Vectorized in f.
    """
    f = np.asarray(f, dtype=float)
    peak = 2.0 * bandwidth * s_level * s_level
    out = np.where(f <= 2.0 * bandwidth, peak * (1.0 - f / (2.0 * bandwidth)), 0.0)
    out = np.where(f < 0, 0.0, out)
    if out.ndim == 0:
        return float(out)
    return out


def averaged_fluctuation_rms(s_level: float, window: AveragingWindow) -> float:
    """RMS of the residual fluctuation of the finite-time mean square.

    Flat-spectrum approximation: the averaging filter passes the squared
    signal's spectrum up to f_B at its zero-frequency value, giving
    rms = s_level * f_b * sqrt(2 * gamma).
    """
    return s_level * window.f_b * math.sqrt(2.0 * window.gamma)
