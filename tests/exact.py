"""The references that check ``kljn.exact``, and the z-scores that hold the simulator to its law.

A period's windowed mean square over its level is Q = Σλ_k χ²₁, with λ
the eigenvalues of ``kljn.exact.window_gram`` scaled to the level
(``kljn.exact.window_eigenvalues``). The rate gates read
``kljn.exact.rate``; Imhof's integral over λ gives Q's tails, the
reference for ``kljn.exact.tail``; ``q_cdf`` reads Q's CDF off those tails
for the KS gate; and λ's sums give Q's cumulants, which the moment gates
read. A whole wave's mean square has the chi-square law
of ``level_law``. The rest turns a run's counts and moment sums into
z-scores against these laws.
"""

import math

import numpy as np
from scipy.integrate import quad

from kljn.exact import tail, window_eigenvalues


def window_cumulants(gamma, oversample):
    """Cumulants κ2 = Var Q = 2Σλ² and κ4 = 48Σλ⁴ of Q, with λ from ``kljn.exact.window_eigenvalues``."""
    lam = window_eigenvalues(gamma, oversample)
    return 2 * (lam**2).sum(), 48 * (lam**4).sum()


def imhof_upper_tail(lam, x):
    """P(Q > x) for Q = Σλ_k χ²₁ by Imhof's (1961) integral, with ``quad``'s error estimate of it.

    P(Q > x) = 1/2 + (1/π)∫₀^∞ sin θ(u) / (u·ρ(u)) du, where
    θ(u) = (1/2)Σ arctan(λ_k u) - xu/2 and ρ(u) = Π (1 + λ_k²u²)^(1/4).
    1/ρ is formed as exp(-(1/4)Σ log1p(λ_k²u²)), which underflows to 0 at
    large u where ρ itself would overflow float64 (from γ = 300).
    """

    def integrand(u):
        theta = 0.5 * np.arctan(lam * u).sum() - 0.5 * x * u
        inv_rho = math.exp(-0.25 * np.log1p((lam * u) ** 2).sum())
        return math.sin(theta) * inv_rho / u

    value, error = quad(integrand, 0, math.inf, epsabs=1e-13, epsrel=1e-10, limit=200)
    return 0.5 + value / math.pi, error / math.pi


def q_cdf(lam, x):
    """P(Q <= x) for Q = Σλ_k χ²₁ at each value of ``x``, from ``kljn.exact.tail`` on x's side of Σλ.

    Below the mean it is the lower tail itself; above it, 1 minus the upper
    tail, as ``kljn.exact._within`` reads its cuts.
    """
    mean = lam.sum()
    cdf = [tail(lam, v, False) if v <= mean else 1 - tail(lam, v, True) for v in np.ravel(x)]
    return np.reshape(cdf, np.shape(x))


def binomial_z(est, exact):
    """The z-score of a ``RateEstimate``'s count against ``exact``, its rate's true value."""
    return (est.k - est.n * exact) / math.sqrt(est.n * exact * (1 - exact))


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


def msq_correlation(sums) -> float:
    """Sample correlation of per-period msv and msi from one state's ``[n, Σv, Σi, Σv², Σi², Σvi]``."""
    n, sv, si, svv, sii, svi = sums
    assert n >= 2, f"a correlation needs 2 periods, got {n}"
    cov = svi / n - (sv / n) * (si / n)
    var_v = svv / n - (sv / n) ** 2
    var_i = sii / n - (si / n) ** 2
    return cov / math.sqrt(var_v * var_i)
