"""Statistics the tests compute from a session report's ``moment_sums`` and from printed levels."""

import math

import numpy as np


def msq_correlation(sums) -> float:
    """Sample correlation of per-period msv and msi from one state's ``[n, Σv, Σi, Σv², Σi², Σvi]``."""
    n, sv, si, svv, sii, svi = sums
    assert n >= 2, f"a correlation needs 2 periods, got {n}"
    cov = svi / n - (sv / n) * (si / n)
    var_v = svv / n - (sv / n) ** 2
    var_i = sii / n - (si / n) ** 2
    return cov / math.sqrt(var_v * var_i)


def level_law(n, sample_rate, bandwidth):
    """Mean and relative SD of the exact law of a whole wave's mean square over its theory level.

    A wave of ``n`` samples has independent Gaussian parts of equal variance
    in its K in-band bins (two each) and its in-band Nyquist bin (one,
    nyq = 1), so its mean square over its theory level is a scaled
    chi-square on dof = 2K + nyq degrees of freedom: mean fs·dof/(2·n·B),
    relative SD sqrt(2/dof). K and nyq are counted from ``np.fft.rfftfreq``.
    """
    freqs = np.fft.rfftfreq(n, 1 / sample_rate)
    in_band = (freqs > 0) & (freqs <= bandwidth * (1 + 1e-9))
    nyq = int(n % 2 == 0 and in_band[-1])
    dof = 2 * (int(in_band.sum()) - nyq) + nyq
    return sample_rate * dof / (2 * n * bandwidth), math.sqrt(2 / dof)


def q_sample_moments(n, total, squares, level):
    """Sample mean and variance of Q = reading / level from ``n`` periods' Σ reading and Σ reading²."""
    mean = total / (n * level)
    return mean, (squares / level**2 - n * mean**2) / (n - 1)


def q_moment_z(n, mean, var, k2, k4):
    """z-scores of Q's sample mean against E Q = 1 and of its sample variance against Var Q = κ2.

    The standard errors are sqrt(κ2/N) and sqrt(κ4/N + 2κ2²/(N - 1)) for N
    independent periods, with κ4 Q's fourth cumulant.
    """
    return (mean - 1) / math.sqrt(k2 / n), (var - k2) / math.sqrt(k4 / n + 2 * k2**2 / (n - 1))
