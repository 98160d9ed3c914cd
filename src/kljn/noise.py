"""Band-limited Gaussian noise synthesis and spectrum estimation.

The noise generators emulate enhanced Johnson noise: zero-mean Gaussian,
flat one-sided power spectral density up to a hard bandwidth limit, and
zero power above it. Synthesis is done in the frequency domain (independent
complex Gaussian coefficients in-band, zero out-of-band, inverse real FFT),
which gives an exactly band-limited spectrum.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Sequence

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
        return math.sqrt(self.psd_level * self.sample_rate * self.n_samples / 4.0)

    @property
    def nyquist_scale(self) -> float:
        return math.sqrt(self.psd_level * self.sample_rate * self.n_samples / 2.0)


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


def band_coefficients(layout: NoiseSpec, normals: np.ndarray, scale, nyquist_scale) -> np.ndarray:
    """rfft coefficients, shape ``(..., n_samples // 2 + 1)``, from normals laid out as ``layout``'s bins.

    ``normals`` has shape ``(..., layout.n_normals)``; ``scale`` and
    ``nyquist_scale`` are scalars or arrays of shape ``normals.shape[:-1]``,
    so that rows of one layout may take the scales of different specs.
    """
    coeffs = np.zeros(normals.shape[:-1] + (layout.n_samples // 2 + 1,), dtype=complex)
    # float64 view of interleaved (real, imaginary) parts: bins 1..n_band take the
    # in-band normals in their drawn order, so no complex temporary is built
    parts = coeffs.view(np.float64)
    if layout.nyquist:
        np.multiply(normals[..., 0], nyquist_scale, out=parts[..., -2])
    in_band = normals[..., int(layout.nyquist) :]
    np.multiply(in_band, np.asarray(scale)[..., None], out=parts[..., 2 : 2 + 2 * layout.n_band])
    return coeffs


def synth_band_limited(spec: NoiseSpec, rng: np.random.Generator) -> np.ndarray:
    """Synthesize zero-mean Gaussian noise with a flat one-sided PSD on [0, B].

    Each in-band FFT bin gets an independent complex Gaussian coefficient
    scaled so that the expected one-sided density equals ``spec.psd_level``;
    out-of-band bins (and DC) are exactly zero. The sample variance converges
    to psd_level * bandwidth. Returns the ``spec.n_samples`` samples as a
    float64 array; raises ValueError when the noise level overflows float64.
    """
    return _samples(_coefficients(spec, rng), spec.n_samples)


def synth_band_limited_many(specs: Sequence[NoiseSpec], rng: np.random.Generator) -> Iterator[np.ndarray]:
    """``synth_band_limited`` for each spec in turn, lazily, with the inverse FFTs on a helper thread.

    The calling thread draws every spec's normals from ``rng`` and builds its
    coefficients, in the given order, so the stream and the samples are those
    of consecutive ``synth_band_limited`` calls. For two or more specs, one
    helper thread (see ``_helper``) transforms each spectrum as soon as it is
    built, while the caller draws the next or works on the waves already
    handed out: numpy releases the GIL in both. Only the helper runs these
    FFTs. Each ``next()`` waits for its wave's transform, then draws every
    spectrum that is due (spectrum j only once transform j - 2 is done, so at
    most two spectra wait or are transformed at a time), and only then yields
    the wave. The helper starts at the first ``next()`` and exits when the
    iterator is exhausted or closed, or when a transform raises; a caller that
    may stop early should close it (``contextlib.closing``).

    The caller keeps each spectrum it drew until it next waits for that
    spectrum's transform: if the transform is done, the spectrum is freed
    then, and if not, the helper frees it as the transform ends, while the
    caller waits. So no spectrum is freed while the caller works on a wave
    it was handed. This is for glibc's malloc, which keeps a freed block
    resident when it is under the trim threshold: with the spectra freed
    whenever a transform ended, ``levels`` at 2**20 samples left 8-16 MB
    more resident in the process from run to run, which a later ``spectra``
    pass added to its peak.
    """
    if len(specs) < 2:
        for spec in specs:
            yield _samples(_coefficients(spec, rng), spec.n_samples)
        return
    with _helper() as submit:
        transforms, spectra = deque(), deque()

        def draw(spec):
            spectra.append(_coefficients(spec, rng))
            transforms.append(submit(_samples, spectra[-1], spec.n_samples))

        draw(specs[0])
        draw(specs[1])
        for j in range(2, len(specs) + 2):
            del spectra[0]  # spectrum j - 2, freed now or by the helper when transformed
            transforms[0].result()  # transform j - 2 is done: spectrum j may be drawn
            if j < len(specs):
                draw(specs[j])
            # popped first, so no future and no local keeps a wave once the caller drops it
            yield transforms.popleft().result()


@contextmanager
def _helper():
    """One helper thread: ``submit(fn, *args)`` runs ``fn(*args)`` on it under the caller's ``np.geterr()``.

    A new thread does not inherit ``np.errstate``, so without this an overflow
    that the caller asked to raise would pass silently on the helper. Leaving
    the block waits for every submitted call, and the thread exits.
    """
    # imported here: concurrent.futures pulls in logging, which a single-threaded call never needs
    from concurrent.futures import ThreadPoolExecutor

    errors = np.geterr()

    def under_callers_errors(fn, *args):
        with np.errstate(**errors):
            return fn(*args)

    with ThreadPoolExecutor(max_workers=1) as pool:
        yield functools.partial(pool.submit, under_callers_errors)


def _coefficients(spec: NoiseSpec, rng: np.random.Generator) -> np.ndarray:
    return band_coefficients(spec, rng.standard_normal(spec.n_normals), spec.scale, spec.nyquist_scale)


def _samples(coeffs: np.ndarray, n_samples: int) -> np.ndarray:
    samples = np.fft.irfft(coeffs, n=n_samples)
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
    chunks of about ``_CHUNK_SAMPLES`` samples, which changes no value. With
    two or more chunks, a helper thread (see ``_helper``) transforms the
    chunks after the middle chunk boundary while the caller transforms those
    before it; each fills its own columns of the table, and the doubling and
    the mean stay whole-table calls on the caller, so no value changes either.

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

    def fill(start, stop):
        for first in range(start, stop, step):
            last = min(first + step, stop)
            segments = samples[first * length : last * length].reshape(-1, length)
            spectrum = np.fft.rfft(segments * window, axis=-1)
            power[:, first:last] = (spectrum.real**2 + spectrum.imag**2).T

    n_chunks = -(-n_seg // step)
    if n_chunks < 2:
        fill(0, n_seg)
    else:
        split = n_chunks // 2 * step
        with _helper() as submit:
            second_half = submit(fill, split, n_seg)
            fill(0, split)
            second_half.result()
    power[1:-1] *= 2
    return np.fft.rfftfreq(length, 1 / sample_rate), power.mean(axis=-1)
