"""Band-limited Gaussian noise: per-period random streams, synthesis and spectrum estimation.

The noise generators emulate enhanced Johnson noise: zero-mean Gaussian,
flat one-sided power spectral density up to a hard bandwidth limit, and
zero power above it. Synthesis is done in the frequency domain (independent
complex Gaussian coefficients in-band, zero out-of-band, inverse real FFT),
which gives an exactly band-limited spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np


@dataclass(frozen=True)
class NoiseSpec:
    """Parameters of a band-limited white Gaussian noise source, and the FFT bins it fills.

    psd_level   one-sided power spectral density (V^2/Hz or A^2/Hz)
    bandwidth   hard upper band edge (Hz)
    sample_rate sampling frequency (Hz), must satisfy Nyquist
    n_samples   number of samples to synthesize

    The in-band complex bins are rfft indices 1..n_band; DC and out-of-band
    bins are exactly zero. When the band reaches the Nyquist frequency of an
    even-length synthesis (sample_rate = 2*bandwidth), that bin must be real
    and gets a single coefficient (``nyquist``). A synthesis draws
    ``n_normals`` standard normals in this order: the Nyquist one (if any),
    then a real and an imaginary part per in-band bin. A spec with no bin in
    its band (any below 2 samples) is refused: its noise would be zero. So
    is one of more than 2**53 samples, whose bin frequencies float64 cannot
    tell apart.
    """

    psd_level: float
    bandwidth: float
    sample_rate: float
    n_samples: int
    # derived from the four parameters above, so repr, == and hash ignore them
    n_band: int = field(init=False, repr=False, compare=False)
    nyquist: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("psd_level", "bandwidth", "sample_rate"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        if self.psd_level < 0:
            raise ValueError(f"psd_level must be >= 0, got {self.psd_level}")
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth}")
        if self.sample_rate < 2.0 * self.bandwidth:
            raise ValueError(
                f"sample_rate {self.sample_rate} < 2*bandwidth {2 * self.bandwidth}: "
                "synthesis would alias"
            )
        # the top in-band bin k, found once: bins 1..k are in band, and 0 means none is
        n, half, k = self.n_samples, self.n_samples // 2, 0
        if n > 2**53:
            raise ValueError("more than 2**53 samples: float64 can no longer tell FFT bin k from bin k + 1")
        if n >= 2:
            # bin k lies at k * step, rfftfreq's own float arithmetic; a bin is in band when
            # 0 < k * step <= edge, which includes the bin at B itself (the tolerance covers
            # float grid round-off)
            step = 1.0 / (n * (1.0 / self.sample_rate))
            edge = self.bandwidth * (1 + 1e-12)
            k = half if edge >= half * step else int(edge / step)
            while k < half and 0 < (k + 1) * step <= edge:
                k += 1
            while k > 0 and not 0 < k * step <= edge:
                k -= 1
        if k == 0:
            raise ValueError(
                f"no FFT bin of {n} samples at sample rate {self.sample_rate:g} lies in the band "
                f"(0, {self.bandwidth:g}]: the noise would be all zeros"
            )
        # the Nyquist bin of a real FFT must be real-valued
        nyquist = n % 2 == 0 and k == half
        object.__setattr__(self, "n_band", k - nyquist)
        object.__setattr__(self, "nyquist", nyquist)

    @property
    def n_normals(self) -> int:
        return int(self.nyquist) + 2 * self.n_band

    @property
    def scale(self) -> float:
        """Std of the real and of the imaginary part of an in-band coefficient, for PSD ``psd_level``."""
        return _root(self.psd_level, self.sample_rate, self.n_samples, 4.0)

    @property
    def nyquist_scale(self) -> float:
        return _root(self.psd_level, self.sample_rate, self.n_samples, 2.0)

    def slots(self, coeffs: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
        """Float64 views ``(nyquist, in_band)`` of the slots that a synthesis fills in complex ``coeffs``.

        ``coeffs`` is C-contiguous and reaches at least the band's top bin,
        with the Nyquist bin, if any, last. ``nyquist`` is that bin's real part,
        or None when the band has none; ``in_band`` is the interleaved (real,
        imaginary) parts of bins 1..n_band, which take the in-band normals in
        their drawn order, so no complex temporary is built.
        """
        parts = coeffs.view(np.float64)
        return (parts[..., -2] if self.nyquist else None), parts[..., 2 : 2 + 2 * self.n_band]


def _root(psd_level: float, sample_rate: float, n_samples: int, d: float) -> float:
    """sqrt(psd_level * sample_rate * n_samples / d) with that expression's roundings, inf only where the root is.

    Where the product would pass 2**1021, psd_level gives up a power of four,
    4**k, and the root takes 2**k back, both exactly (the frexp exponents sum
    to E with the product in [2**(E - 3), 2**E)), so no product overflows.
    """
    k = max(0, (math.frexp(psd_level)[1] + math.frexp(sample_rate)[1] + math.frexp(n_samples)[1] - 1020) // 2)
    return math.sqrt(math.ldexp(psd_level, -2 * k) * sample_rate * n_samples / d) * 2.0**k


def _period_key(master_seed: int, period_index: int) -> np.ndarray:
    # an explicit uint64 array: a plain list would pass seeds >= 2**63 through float64
    return np.array([master_seed, period_index], dtype=np.uint64)


def rng_for_period(master_seed: int, period_index: int) -> np.random.Generator:
    """Named random sub-stream for one bit-exchange period.

    Counter-based (Philox) keying makes streams independent across period
    indices and reproducible regardless of evaluation order, so periods can
    be simulated in parallel without changing any result.
    """
    return np.random.Generator(np.random.Philox(key=_period_key(master_seed, period_index)))


def draw_periods(
    master_seed: int, start: int, stop: int, force_state: Optional[str], normals: np.ndarray, bits: np.ndarray
) -> Iterator[tuple]:
    """Draw periods [start, stop), with start < stop, from their ``rng_for_period`` streams a block at a time.

    ``normals`` has shape ``(block, 2, n_normals)`` and ``bits``, int8,
    ``(stop - start, 2)``. Each period draws its bits, then Alice's and
    Bob's normals as one row of ``normals``. Random or ``0110`` bits come
    from one raw word: a range-2 ``Generator.integers`` draw is the top bit
    of one ``next_uint32``, and Philox's ``next_uint32`` returns the low half
    of a 64-bit word, then its high half, so two such draws give bit 31
    (Alice) and bit 63 (Bob); ``0110`` draws Alice's bit alone and Bob takes
    the other. Forced ``00``/``11`` periods draw no word, and every row of
    ``bits`` is set once.

    For each block of up to ``block`` periods, the generator fills
    ``normals[:k]`` and ``bits[lo : lo + k]`` and yields ``(lo, k, a, b)``:
    the block's first period is ``start + lo``, and a and b are its bits,
    arrays of ``k`` or, in a forced chunk, one int. The rows of ``normals``
    are overwritten by the next block, so the caller must be done with them
    before it resumes the generator.

    One Philox is re-keyed per period (fresh counter and empty buffers),
    which is several times cheaper than constructing one. The re-key state
    holds plain Python ints: the setter converts each of its ten values to a
    C integer, and reading them from ints is 2-3x faster than indexing the
    uint64 arrays that the ``state`` getter returns, while it sets the same
    state.
    """
    bit_generator = np.random.Philox(key=_period_key(master_seed, start))
    random_raw, standard_normal = bit_generator.random_raw, np.random.Generator(bit_generator).standard_normal
    key = [int(master_seed), start]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,  # buffer empty
        "has_uint32": 0,
        "uinteger": 0,
    }
    rows = list(normals)
    draw_word = force_state in (None, "0110")
    if not draw_word:
        bits[:] = int(force_state[0])
    for lo in range(0, stop - start, len(rows)):
        k = min(len(rows), stop - start - lo)
        words = []
        for period, row in enumerate(rows[:k], start + lo):
            key[1] = period
            bit_generator.state = state
            if draw_word:
                words.append(random_raw())
            standard_normal(out=row)
        if draw_word:
            words = np.array(words, dtype=np.uint64)
            block = bits[lo : lo + k]
            block[:, 0] = (words >> 31) & 1
            block[:, 1] = words >> 63 if force_state is None else 1 - block[:, 0]
            yield lo, k, *block.T
        else:
            yield lo, k, int(force_state[0]), int(force_state[0])


def band_coefficients(layout: NoiseSpec, normals: np.ndarray, scale: float, nyquist_scale: float) -> np.ndarray:
    """rfft coefficients, shape ``(..., n_samples // 2 + 1)``, from normals laid out as ``layout``'s bins.

    ``normals`` has shape ``(..., layout.n_normals)``; every in-band part is
    one normal times ``scale``, and the Nyquist coefficient, if any, its
    normal times ``nyquist_scale``.
    """
    coeffs = np.zeros(normals.shape[:-1] + (layout.n_samples // 2 + 1,), dtype=complex)
    nyquist, in_band = layout.slots(coeffs)
    if nyquist is not None:
        np.multiply(normals[..., 0], nyquist_scale, out=nyquist)
    np.multiply(normals[..., int(layout.nyquist) :], scale, out=in_band)
    return coeffs


def synth_band_limited(spec: NoiseSpec, rng: np.random.Generator) -> np.ndarray:
    """Synthesize zero-mean Gaussian noise with a flat one-sided PSD on [0, B].

    Each in-band FFT bin gets an independent complex Gaussian coefficient
    scaled so that the expected one-sided density equals ``spec.psd_level``;
    out-of-band bins (and DC) are exactly zero. The sample variance converges
    to psd_level * bandwidth. Returns the ``spec.n_samples`` samples as a
    float64 array; raises ValueError when the noise level overflows float64.
    """
    coeffs = band_coefficients(spec, rng.standard_normal(spec.n_normals), spec.scale, spec.nyquist_scale)
    samples = np.fft.irfft(coeffs, n=spec.n_samples)
    # min and max carry a NaN through and show an infinity, without an n-byte mask
    if not (np.isfinite(samples.min()) and np.isfinite(samples.max())):
        raise ValueError("non-finite noise samples: the noise level overflows float64")
    return samples


# segments of a periodogram transformed together: about 512 KiB of samples
_CHUNK_SAMPLES = 1 << 16


def periodogram(samples: np.ndarray, sample_rate: float, n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Averaged one-sided power-density estimate of a sampled signal.

    Welch-style estimate with non-overlapping rectangular segments of length
    2*n_bins (no detrending, so the DC bin carries the signal mean); samples
    past the last whole segment are dropped. The integral of the returned
    density over frequency is Parseval-consistent with the mean square of
    the samples.

    The result is bit-identical to scipy 1.17's ``scipy.signal.welch`` with
    these settings because it keeps welch's order of operations: each
    segment is multiplied by the window value 1 / sqrt(length / (1 /
    sample_rate)) and transformed with a real FFT; its power ``real**2 +
    imag**2`` fills one column of a (n_bins + 1, segments) table; bins
    1..n_bins - 1 of the table are doubled; the density is the table's mean
    along its contiguous segment axis (numpy's pairwise sum: a plain running
    sum over segments moves the last digits). Segments are transformed in
    chunks of about ``_CHUNK_SAMPLES`` samples, which changes no value.

    Returns (frequencies, density), each of length n_bins + 1.
    """
    if n_bins < 2:
        raise ValueError(f"n_bins must be >= 2, got {n_bins}")
    length = 2 * n_bins
    if len(samples) < length:
        raise ValueError(
            f"signal length {len(samples)} too short for n_bins={n_bins} "
            f"(need >= {length})"
        )
    n_seg = len(samples) // length
    window = 1 / np.sqrt(length / (1 / sample_rate))
    power = np.empty((n_bins + 1, n_seg))
    step = max(1, _CHUNK_SAMPLES // length)
    for first in range(0, n_seg, step):
        last = min(first + step, n_seg)
        segments = samples[first * length : last * length].reshape(-1, length)
        spectrum = np.fft.rfft(segments * window, axis=-1)
        power[:, first:last] = (spectrum.real**2 + spectrum.imag**2).T
    power[1:-1] *= 2
    return np.fft.rfftfreq(length, 1 / sample_rate), power.mean(axis=-1)
