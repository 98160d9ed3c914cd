"""Band-limited Gaussian noise synthesis and spectrum estimation.

The noise generators emulate enhanced Johnson noise: zero-mean Gaussian,
flat one-sided power spectral density up to a hard bandwidth limit, and
zero power above it. Synthesis is done in the frequency domain (independent
complex Gaussian coefficients in-band, zero out-of-band, inverse real FFT),
which gives an exactly band-limited spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np


@dataclass(frozen=True)
class NoiseSpec:
    """Parameters of a band-limited white Gaussian noise source.

    psd_level   one-sided power spectral density (V^2/Hz or A^2/Hz)
    bandwidth   hard upper band edge (Hz)
    sample_rate sampling frequency (Hz), must satisfy Nyquist
    n_samples   number of samples to synthesize
    """

    psd_level: float
    bandwidth: float
    sample_rate: float
    n_samples: int

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
        if self.n_samples < 2:
            raise ValueError(f"n_samples must be >= 2, got {self.n_samples}")


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


def period_streams(master_seed: int, period_indices) -> Iterator[np.random.Generator]:
    """The streams of ``rng_for_period`` for each index in turn, from one generator.

    One Philox is re-keyed per period (fresh counter and empty buffers), which
    is several times cheaper than constructing one. The same generator object
    is yielded every time, so each stream must be drawn from before the next
    is requested.

    The re-key state holds plain Python ints, not the uint64 arrays that the
    ``state`` getter returns: the setter converts each of its ten values to a
    C integer, and reading them from ints is 2-3x faster than indexing
    arrays, while it sets the same state.
    """
    bit_generator = np.random.Philox(key=_period_key(master_seed, 0))
    rng = np.random.Generator(bit_generator)
    key = [int(master_seed), 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,  # buffer empty
        "has_uint32": 0,
        "uinteger": 0,
    }
    for index in period_indices:
        key[1] = index
        bit_generator.state = state
        yield rng


@dataclass(frozen=True)
class BandBins:
    """Which real-FFT bins a band-limited synthesis fills, and their scales.

    The in-band complex bins are rfft indices 1..n_band; DC and out-of-band
    bins are exactly zero. When the band reaches the Nyquist frequency of an
    even-length synthesis (sample_rate = 2*bandwidth), that bin must be real
    and gets a single coefficient. A synthesis draws ``n_normals`` standard
    normals in this order: the Nyquist one (if any), then a real and an
    imaginary part per in-band bin.
    """

    n_samples: int
    n_band: int
    nyquist: bool
    scale: float  # std of the real and of the imaginary part of an in-band coefficient
    nyquist_scale: float

    @property
    def n_normals(self) -> int:
        return int(self.nyquist) + 2 * self.n_band


def band_bins(spec: NoiseSpec) -> BandBins:
    """Bin layout and coefficient scales giving the expected one-sided PSD ``spec.psd_level``."""
    n = spec.n_samples
    fs = spec.sample_rate
    # bin k lies at k * step, rfftfreq's own float arithmetic; a bin is in band when
    # 0 < k * step <= edge, which includes the bin at B itself (the tolerance covers
    # float grid round-off), and the in-band bins are 1..k for the largest such k
    step = 1.0 / (n * (1.0 / fs))
    edge = spec.bandwidth * (1 + 1e-12)
    half = n // 2
    k = half if edge >= half * step else int(edge / step)
    while k < half and 0 < (k + 1) * step <= edge:
        k += 1
    while k > 0 and not 0 < k * step <= edge:
        k -= 1
    # Nyquist bin of a real FFT must be real-valued
    nyquist = n % 2 == 0 and k == half
    return BandBins(
        n_samples=n,
        n_band=k - nyquist,
        nyquist=nyquist,
        scale=math.sqrt(spec.psd_level * fs * n / 4.0),
        nyquist_scale=math.sqrt(spec.psd_level * fs * n / 2.0),
    )


def band_coefficients(bins: BandBins, normals: np.ndarray, scale, nyquist_scale) -> np.ndarray:
    """rfft coefficients, shape ``(..., n_samples // 2 + 1)``, from normals laid out as ``bins`` says.

    ``normals`` has shape ``(..., bins.n_normals)``; ``scale`` and
    ``nyquist_scale`` are scalars or arrays of shape ``normals.shape[:-1]``.
    """
    coeffs = np.zeros(normals.shape[:-1] + (bins.n_samples // 2 + 1,), dtype=complex)
    # float64 view of interleaved (real, imaginary) parts: bins 1..n_band take the
    # in-band normals in their drawn order, so no complex temporary is built
    parts = coeffs.view(np.float64)
    if bins.nyquist:
        np.multiply(normals[..., 0], nyquist_scale, out=parts[..., -2])
    in_band = normals[..., int(bins.nyquist) :]
    np.multiply(in_band, np.asarray(scale)[..., None], out=parts[..., 2 : 2 + 2 * bins.n_band])
    return coeffs


def synth_band_limited(spec: NoiseSpec, rng: np.random.Generator) -> np.ndarray:
    """Synthesize zero-mean Gaussian noise with a flat one-sided PSD on [0, B].

    Each in-band FFT bin gets an independent complex Gaussian coefficient
    scaled so that the expected one-sided density equals ``spec.psd_level``;
    out-of-band bins (and DC) are exactly zero. The sample variance converges
    to psd_level * bandwidth. Returns the ``spec.n_samples`` samples as a
    float64 array; raises ValueError when the noise level overflows float64.
    """
    return synth_band_limited_many([spec], rng)[0]


def synth_band_limited_many(specs: Sequence[NoiseSpec], rng: np.random.Generator) -> list[np.ndarray]:
    """``synth_band_limited`` for each spec in turn, with the inverse FFTs on a helper thread.

    The calling thread draws every spec's normals from ``rng`` and builds its
    coefficients, in the given order, so the stream and the samples are those
    of consecutive ``synth_band_limited`` calls. For two or more specs, one
    helper thread transforms each spectrum as soon as it is built, while the
    caller draws the next: numpy releases the GIL in both. Only the helper
    runs FFTs until the batch returns, and it runs them under the caller's
    ``np.geterr()``, which a new thread does not inherit. Before it draws a
    spectrum, the caller waits for the transform before last, so at most two
    spectra wait or are transformed at a time.
    """
    if len(specs) < 2:
        return [_samples(_coefficients(spec, rng), spec.n_samples) for spec in specs]
    # imported here: concurrent.futures pulls in logging, which a one-spec call never needs
    from concurrent.futures import ThreadPoolExecutor

    errors = np.geterr()

    def transform(coeffs, n_samples):
        with np.errstate(**errors):
            return _samples(coeffs, n_samples)

    with ThreadPoolExecutor(max_workers=1) as helper:
        futures = []
        for spec in specs:
            if len(futures) > 1:
                futures[-2].result()
            futures.append(helper.submit(transform, _coefficients(spec, rng), spec.n_samples))
        return [future.result() for future in futures]


def _coefficients(spec: NoiseSpec, rng: np.random.Generator) -> np.ndarray:
    bins = band_bins(spec)
    return band_coefficients(bins, rng.standard_normal(bins.n_normals), bins.scale, bins.nyquist_scale)


def _samples(coeffs: np.ndarray, n_samples: int) -> np.ndarray:
    samples = np.fft.irfft(coeffs, n=n_samples)
    if not np.isfinite(samples).all():
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
        spectrum = np.fft.rfft(samples[first * length : last * length].reshape(-1, length) * window, axis=-1)
        power[:, first:last] = (spectrum.real**2 + spectrum.imag**2).T
    power[1:-1] *= 2
    return np.fft.rfftfreq(length, 1 / sample_rate), power.mean(axis=-1)
