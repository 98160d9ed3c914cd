"""Exact dangerous-error rates from one window operator, on numpy and ``math`` alone.

A forced 00 or 11 period's windowed mean square over its level is
Q = Σλ_k χ²₁, with λ the eigenvalues of the window operator ``window_gram``
scaled to the level (``window_eigenvalues``). A reading is secure, and so a
dangerous error, when it falls between its band's two cuts; ``rate`` gives
that probability from Q's tails, and ``tail`` gives each tail by the
Lugannani & Rice (1980) saddlepoint approximation.

The operator is built from γ and oversample alone. It reads no
``SystemConfig`` or ``NoiseSpec``, and it forms the rows of its synthesis
matrix S from the band's cosines and sines, with no FFT. So a kernel whose period, band or transform is off does not move the
law with it. No command imports this module.
"""

import math

import numpy as np

_STATES = ("00", "11")
_MODES = ("voltage", "current", "combined")


def window_gram(gamma, oversample):
    """G = S·Sᵀ / N_w, where row j of S is the measured half-period of unit-scale normal j alone.

    A period has n = oversample·γ samples, and its band fills bins
    1..n/oversample. The rows of S follow the kernel's normal layout: the
    Nyquist normal first (oversample 2 puts that bin in band), at scale √2,
    the ratio of every spec's two scales, so its row is (√2/n)·(−1)^t; then
    for each other in-band bin m a real part, (2/n)·cos(2πmt/n), and an
    imaginary part, −(2/n)·sin(2πmt/n). Each row is the inverse real DFT of
    its one coefficient, formed directly over the trailing half-window
    t = n/2..n − 1 of N_w = n/2 samples. No FFT builds it, so a fault in the kernel's transform does not move G
    with the kernel. A period's windowed mean square of the normals z at
    scale s is s²·zᵀGz.

    Raises ValueError unless n is an even multiple of oversample >= 2.
    """
    n = round(oversample * gamma)
    if not (oversample >= 2 and n % 2 == 0 and n % oversample == 0):
        raise ValueError(
            f"gamma = {gamma} at oversample = {oversample} gives {n} samples per period,"
            " not an even multiple of oversample >= 2"
        )
    nyquist = int(oversample == 2)
    n_band = n // oversample - nyquist
    t = np.arange(n // 2, n)
    # m·t mod n in integers, so every angle lies in [0, 2π) however large m·t is
    angle = np.outer(np.arange(1, n_band + 1), t) % n * (2 * math.pi / n)
    synthesis = np.empty((nyquist + 2 * n_band, t.size))
    if nyquist:
        synthesis[0] = math.sqrt(2.0) / n * (1 - 2 * (t % 2))
    synthesis[nyquist::2] = np.cos(angle) * (2 / n)
    synthesis[nyquist + 1 :: 2] = np.sin(angle) * (-2 / n)
    return synthesis @ synthesis.T / t.size


def window_eigenvalues(gamma, oversample):
    """The λ of Q = reading/level = Σλ_k χ²₁: the eigenvalues of ``window_gram`` scaled to the level.

    A generator of PSD S has the level S·B and draws its normals at the
    scale s = sqrt(S·f_s·n/4), so Q = zᵀGz·oversample·n/4. Then
    Σλ = E[reading]/level: 1 at oversample >= 3, and (n − 1)/n at
    oversample 2, whose Nyquist bin carries half a bin's power.
    """
    n = round(oversample * gamma)
    return np.linalg.eigvalsh(window_gram(gamma, oversample)) * (oversample * n / 4)


def tail(lam, x, upper):
    """P(Q > x) if ``upper``, else P(Q < x), for Q = Σλ_k χ²₁, by Lugannani & Rice (1980).

    The tail is taken at 1 of Q/x = Σ(λ_k/x)χ²₁, whose cumulant generating
    function K(s) = −½Σlog(1 − 2sλ_k/x) is defined below s = x/(2·max λ).
    Bisection brackets the saddlepoint ŝ, K'(ŝ) = 1, and Newton's method
    refines it, falling back to bisection where a step would leave the
    bracket. With w = sign(ŝ)·sqrt(2(ŝ − K(ŝ))) and u = ŝ·sqrt(K''(ŝ)),
    P(Q > x) = ½erfc(w/√2) + φ(w)(1/u − 1/w) and
    P(Q < x) = ½erfc(−w/√2) − φ(w)(1/u − 1/w). Each tail is its own erfc, so
    a small one does not cancel against 1. Eigenvalues <= 0 are dropped.
    """
    if x <= 0:
        return float(upper)
    # in units of x no sum or square passes float64, whatever the scale of x
    lam = np.asarray(lam, dtype=float)
    lam = lam[lam > 0] / x
    # P(Q > x) <= exp(K(s) − s) at s = 1/(4·max λ/x), where K(s) <= (m/2)·log 2: here below 1e-321, and the
    # saddlepoint would lie closer to the pole than float64 resolves
    if 0.25 / lam.max() > 740 + 0.5 * lam.size * math.log(2):
        return float(not upper)
    # K'(s) < m/(−2s) for s < 0, so a cut below the mean has its root above −m/2
    lo, hi = (-lam.size / 2, 0.0) if lam.sum() > 1 else (0.0, 0.5 / lam.max())
    s = 0.5 * (lo + hi)
    for _ in range(200):
        ratio = lam / (1 - 2 * s * lam)
        slope = ratio.sum() - 1
        if slope < 0:
            lo = s
        else:
            hi = s
        curvature = 2 * (ratio**2).sum()
        step = slope / curvature
        if abs(step) * math.sqrt(curvature) < 1e-13:
            break
        s = s - step if lo < s - step < hi else 0.5 * (lo + hi)
    u = s * math.sqrt(curvature)
    if abs(u) < 1e-4:
        # near the mean 1/u − 1/w loses its digits: take w = u + O(u²) and its limit −κ3/(6κ2^(3/2)) at ŝ = 0
        w, correction = u, -8 * (lam**3).sum() / (6 * (2 * (lam**2).sum()) ** 1.5)
    else:
        exponent = s + 0.5 * np.log1p(-2 * s * lam).sum()
        w = math.copysign(math.sqrt(2 * max(exponent, 0.0)), s)
        correction = 1 / u - 1 / w
    density = math.exp(-0.5 * w * w) / math.sqrt(2 * math.pi)
    if upper:
        return float(0.5 * math.erfc(w / math.sqrt(2)) + density * correction)
    return float(0.5 * math.erfc(-w / math.sqrt(2)) - density * correction)


def _within(lam, low, high):
    """P(low <= Q <= high) = P(Q >= low) − P(Q > high), each cut read on the tail on its side of the mean."""
    mean = lam.sum()
    if low >= mean:
        return tail(lam, low, True) - tail(lam, high, True)
    if high <= mean:
        return tail(lam, high, False) - tail(lam, low, False)
    return 1.0 - tail(lam, low, False) - tail(lam, high, True)


def rate(config, state, mode):
    """The exact dangerous-error rate of forced ``state`` in ``mode``, the rate ``protocol.error_rate`` estimates.

    ``state`` is 00 or 11 and ``mode`` voltage, current or combined. A
    reading's rate is P(low_cut <= reading <= high_cut), with the cuts of
    ``config.bands()`` over the state's level, from Q's law at the config's
    γ and oversample. In a state of equal resistors the voltage and the
    current are independent, so a combined rate is the product of the two.

    Raises ValueError for another state or mode, for a config outside
    ``window_gram``'s domain, and for an empty secure band.
    """
    if state not in _STATES:
        raise ValueError(f"state must be one of {', '.join(_STATES)}, got {state!r}")
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {', '.join(_MODES)}, got {mode!r}")
    lam = window_eigenvalues(config.gamma, config.oversample)
    bands, levels = config.bands(), config.levels()
    readings = {
        "voltage": (bands.v_low_cut, bands.v_high_cut, levels.voltage_for(state)),
        "current": (bands.i_low_cut, bands.i_high_cut, levels.current_for(state)),
    }
    p = 1.0
    for low, high, level in (readings.values() if mode == "combined" else [readings[mode]]):
        p *= _within(lam, low / level, high / level)
    return p
