import decimal
import math
import sys
import threading
import warnings
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kljn import noise
from kljn.noise import NoiseSpec, periodogram, rng_for_period, synth_band_limited
from exact import level_law
from gates import GATES
from mutants import inject
from streams import drawn_periods


def make(psd=1.0, bw=1.0, fs=4.0, n=2**16, seed=0):
    spec = NoiseSpec(psd_level=psd, bandwidth=bw, sample_rate=fs, n_samples=n)
    return synth_band_limited(spec, np.random.default_rng(seed))


def kurtosis_z():
    """The excess kurtosis of 2**20 samples at f_s = 4B over its standard error, at row noise-kurtosis's seed.

    The samples are correlated, with Σρ⁴ = 4/3 at oversample 4, so the
    standard error is sqrt(24·Σρ⁴/N) = sqrt(32/N).
    """
    w = make(n=2**20, seed=GATES["noise-kurtosis"].seed)
    excess = np.mean(w**4) / np.mean(w**2) ** 2 - 3.0
    return excess / math.sqrt(32.0 / w.size)


def stationarity_t():
    """The first half's variance less the second's over two 32-batch standard errors, at row
    noise-stationarity's seed (2**20 samples)."""
    w = make(n=2**20, seed=GATES["noise-stationarity"].seed)
    halves = w.reshape(2, 32, -1)
    # variance-of-variance for a correlated Gaussian sequence, batched
    se = (halves**2).mean(axis=2).std(axis=1, ddof=1) / np.sqrt(32)
    return (halves[0].var() - halves[1].var()) / np.hypot(*se)


def variance_z():
    """The z-score of the mean square of 2**20 samples at S·B = 2 over S·B against its exact law.

    The law is ``exact.level_law``'s chi-square at the spec's sample rate
    and band, at the seed of row noise-variance.
    """
    n, sample_rate, bandwidth = 2**20, 2.0, 0.5
    spec = NoiseSpec(psd_level=4.0, bandwidth=bandwidth, sample_rate=sample_rate, n_samples=n)
    w = synth_band_limited(spec, np.random.default_rng(GATES["noise-variance"].seed))
    mean, rel_sd = level_law(n, sample_rate, bandwidth)
    return (np.mean(w**2) / (spec.psd_level * bandwidth) / mean - 1) / rel_sd


def drawn(normals):
    """A stand-in generator whose ``standard_normal`` returns ``normals``."""
    return SimpleNamespace(standard_normal=lambda size: normals)


def reference_band_coefficients(layout, normals, scale, nyquist_scale):
    """The rfft coefficients a synthesis fills from ``normals``, built through complex temporaries."""
    coeffs = np.zeros(normals.shape[:-1] + (layout.n_samples // 2 + 1,), dtype=complex)
    if layout.nyquist:
        coeffs[..., -1] = normals[..., 0] * nyquist_scale
    g = normals[..., int(layout.nyquist) :]
    coeffs[..., 1 : layout.n_band + 1] = (g[..., 0::2] + 1j * g[..., 1::2]) * scale
    return coeffs


def reference_band_bins(n_samples, sample_rate, bandwidth):
    """``(n_band, nyquist)`` as the bin layout was once found, from the whole ``rfftfreq`` array."""
    freqs = np.fft.rfftfreq(n_samples, d=1.0 / sample_rate)
    in_band = (freqs > 0) & (freqs <= bandwidth * (1 + 1e-12))
    nyquist = bool(n_samples % 2 == 0 and in_band[-1])
    return int(np.count_nonzero(in_band)) - nyquist, nyquist


def reference_periodogram(samples, sample_rate, n_bins):
    """The periodogram's expression on all whole segments at once, in welch's order of operations.

    The power table is laid out (bins, segments) in C order, so the mean sums
    each bin's segments along a contiguous axis, as scipy 1.17's welch does.
    """
    length = 2 * n_bins
    segments = samples[: len(samples) // length * length].reshape(-1, length)
    spectrum = np.fft.rfft(segments * (1 / np.sqrt(length / (1 / sample_rate))), axis=-1)
    power = np.ascontiguousarray((spectrum.real**2 + spectrum.imag**2).T)
    power[1:-1] *= 2
    return np.fft.rfftfreq(length, 1 / sample_rate), power.mean(axis=-1)


def binary53(x: Fraction) -> Fraction:
    """Positive ``x`` rounded to 53 significant bits, ties to even: float64's rounding with no exponent limit."""
    e = x.numerator.bit_length() - x.denominator.bit_length() - 53
    while x >= 2 ** (e + 53):
        e += 1
    while x < 2 ** (e + 52):
        e -= 1
    unit = Fraction(2) ** e
    return round(x / unit) * unit


def reference_root(psd, fs, n, d):
    """sqrt(psd * fs * n / d) with each step rounded as float64 rounds it but with no exponent limit; inf past float64.

    The products are exact fractions and the root a 50-digit decimal, each
    rounded to 53 bits, so the reference shares the expression's roundings
    but not its overflow.
    """
    product = binary53(binary53(Fraction(psd) * Fraction(fs)) * n) / d
    with decimal.localcontext(prec=50):
        root = binary53(Fraction((decimal.Decimal(product.numerator) / product.denominator).sqrt()))
    return float(root) if root <= sys.float_info.max else math.inf


# a float of mantissa in [0.5, 1) and binary exponent in [-60, 1024]: products beyond float64 and within it
BINADES = st.builds(math.ldexp, st.floats(0.5, 1, exclude_max=True), st.integers(-60, 1024))


class TestNoiseSpec:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(psd=BINADES, fs=BINADES, n=st.integers(2, 2**53))
    # the root itself passes float64 (about 6.3e308)
    @example(psd=1e308, fs=1e308, n=16)
    def test_scales_are_exact(self, psd, fs, n):
        """Each scale is the unchanged expression where its product is finite, and its exact value elsewhere.

        Where psd * fs * n fits float64 the scale is bit-equal to
        ``math.sqrt(psd * fs * n / d)``; where only that product overflows
        it equals the reference, which rounds as float64 does with no
        exponent limit; and it is inf only where that reference passes
        float64's largest value. Both scales are checked: d = 4 in band, 2
        at the Nyquist bin.
        """
        spec = NoiseSpec(psd_level=psd, bandwidth=fs / 2, sample_rate=fs, n_samples=n)
        for d, scale in ((4, spec.scale), (2, spec.nyquist_scale)):
            want = reference_root(psd, fs, n, d)
            if math.isfinite(psd * fs * n):
                assert scale == math.sqrt(psd * fs * n / d) == want
            else:
                assert scale == want
            if math.isfinite(want):
                # the roundings leave the scale within 2 ulp of the exact root
                with decimal.localcontext(prec=50):
                    exact = (decimal.Decimal(psd) * decimal.Decimal(fs) * n / d).sqrt()
                assert abs(decimal.Decimal(scale) - exact) <= 2 * decimal.Decimal(math.ulp(scale))

    def test_scale_of_an_overflowing_product(self):
        """psd * fs * n overflows float64, the scale sqrt(1e308 * 4 * 16 / 4) = 4e154 does not, nor its noise."""
        spec = NoiseSpec(psd_level=1e308, bandwidth=1, sample_rate=4, n_samples=16)
        assert spec.psd_level * spec.sample_rate * spec.n_samples == math.inf
        assert spec.scale == 4e154
        assert np.isfinite(synth_band_limited(spec, np.random.default_rng(0))).all()

    def test_rejects_aliasing_rate(self):
        with pytest.raises(ValueError, match="alias"):
            NoiseSpec(psd_level=1, bandwidth=1, sample_rate=1.9, n_samples=16)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            NoiseSpec(psd_level=np.inf, bandwidth=1, sample_rate=4, n_samples=16)

    def test_rejects_negative_psd_and_tiny_n(self):
        with pytest.raises(ValueError):
            NoiseSpec(psd_level=-1, bandwidth=1, sample_rate=4, n_samples=16)
        with pytest.raises(ValueError):
            NoiseSpec(psd_level=1, bandwidth=1, sample_rate=4, n_samples=1)

    @pytest.mark.parametrize("n_samples, sample_rate", [(2, 4), (3, 4), (5, 8), (2, 3)])
    def test_rejects_no_in_band_bin(self, n_samples, sample_rate):
        # bin 1 lies at sample_rate / n_samples, above the band edge: the noise would be all zeros
        with pytest.raises(ValueError, match=f"no FFT bin of {n_samples} samples"):
            NoiseSpec(psd_level=1, bandwidth=1, sample_rate=sample_rate, n_samples=n_samples)

    def test_rejects_more_samples_than_float64_resolves(self):
        # up to 2**53 samples the top in-band bin is found at once (the edge's 1e-12 tolerance
        # admits bins past 2**51); beyond, bins k and k + 1 can share one float64 frequency,
        # and the search never ended
        assert NoiseSpec(psd_level=1, bandwidth=1, sample_rate=4, n_samples=2**53).n_band >= 2**51
        with pytest.raises(ValueError, match=r"more than 2\*\*53 samples"):
            NoiseSpec(psd_level=1, bandwidth=1, sample_rate=4, n_samples=4 * 10**300)


class TestSynth:
    def test_zero_psd_gives_zero_waveform(self):
        w = make(psd=0.0)
        assert np.all(w == 0.0)

    def test_variance_matches_psd_times_bandwidth(self):
        """<x²> over S·B lies within the z gate of its exact chi-square law (row noise-variance)."""
        z = variance_z()
        assert abs(z) < GATES["noise-variance"].threshold, f"z = {z:+.2f}"

    def test_variance_gate_catches_2pct_psd(self):
        """A synthesis whose power is 2% high, its scales sqrt(1.02) times too large, fails the gate above."""
        with inject("psd", 1.02):
            z = variance_z()
        assert abs(z) >= GATES["noise-variance"].threshold, f"z = {z:+.2f}"

    def test_spectrum_flat_in_band_and_clean_above(self):
        w = make(psd=1.0, bw=1.0, fs=4.0, n=2**20, seed=3)
        freqs, psd = periodogram(w, 4.0, 64)
        df = freqs[1] - freqs[0]
        in_band = (freqs > 0) & (freqs < 1.0 - df)
        assert np.all(np.abs(psd[in_band] - 1.0) < 0.10)
        total = psd.sum() * df
        above = psd[freqs > 1.2].sum() * df
        assert above < 0.01 * total

    def test_reproducible_for_identical_seed(self):
        spec = NoiseSpec(psd_level=1, bandwidth=1, sample_rate=4, n_samples=4096)
        a = synth_band_limited(spec, rng_for_period(99, 5))
        b = synth_band_limited(spec, rng_for_period(99, 5))
        assert np.array_equal(a, b)

    def test_substreams_differ_across_periods(self):
        spec = NoiseSpec(psd_level=1, bandwidth=1, sample_rate=4, n_samples=4096)
        a = synth_band_limited(spec, rng_for_period(99, 5))
        b = synth_band_limited(spec, rng_for_period(99, 6))
        assert not np.array_equal(a, b)

    def test_gaussianity_excess_kurtosis(self):
        z = kurtosis_z()
        assert abs(z) < GATES["noise-kurtosis"].threshold, f"z = {z:+.2f}"

    def test_kurtosis_gate_catches_clipping(self):
        """A synthesis whose wave is clipped at ±2 RMS, sqrt(S·B) = 1 here, fails the gate above."""
        with inject("reference-clip"):
            z = kurtosis_z()
        assert abs(z) >= GATES["noise-kurtosis"].threshold, f"z = {z:+.2f}"

    def test_stationarity_between_halves(self):
        t = stationarity_t()
        assert abs(t) < GATES["noise-stationarity"].threshold, f"t = {t:+.2f}"

    def test_stationarity_gate_catches_2pct_step(self):
        """A synthesis whose second half is 2% louder fails the gate above."""
        with inject("reference-step"):
            t = stationarity_t()
        assert abs(t) >= GATES["noise-stationarity"].threshold, f"t = {t:+.2f}"

    def test_returns_float64_array(self):
        w = make(n=4096)
        assert isinstance(w, np.ndarray)
        assert w.dtype == np.float64 and w.shape == (4096,)

    def test_rejects_nonfinite_samples(self):
        # finite spec, but the coefficient scale sqrt(S * fs * n / 4), about 6.3e308, overflows float64
        spec = NoiseSpec(psd_level=1e308, bandwidth=1e307, sample_rate=1e308, n_samples=16)
        assert spec.scale == math.inf
        with pytest.raises(ValueError, match="non-finite"), np.errstate(all="ignore"):
            synth_band_limited(spec, np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    # normal 0 fills the Nyquist bin, and normal 5 the real part of bin 3
    @pytest.mark.parametrize("where", [5, 0], ids=["in-band", "nyquist"])
    def test_samples_reject_non_finite_spectrum(self, bad, where):
        """A spectrum with a nan or an infinity in any bin it fills is refused after its inverse FFT."""
        spec = NoiseSpec(psd_level=1.0, bandwidth=1.0, sample_rate=2.0, n_samples=16)
        normals = np.zeros(spec.n_normals)
        normals[1:7] = 1.0
        normals[where] = bad
        with pytest.raises(ValueError, match="non-finite"), np.errstate(all="ignore"):
            synth_band_limited(spec, drawn(normals))

    def test_nyquist_rate_synthesis_variance(self):
        # fs = 2B puts the band edge on the Nyquist bin
        spec = NoiseSpec(psd_level=1.0, bandwidth=1.0, sample_rate=2.0, n_samples=2**18)
        w = synth_band_limited(spec, np.random.default_rng(2))
        assert abs(np.mean(w**2) - 1.0) < 0.03


@st.composite
def band_grids(draw):
    """(n_samples, sample_rate, bandwidth) with fs = 2B exactly, other fs/B ratios, and B a few
    ulps from a bin or its edge; some put no bin in the band."""
    n = draw(st.one_of(st.integers(2, 3000), st.integers(2, 2**22)))
    kind = draw(st.sampled_from(["ratio", "bin", "edge"]))
    if kind == "ratio":
        bandwidth = draw(st.floats(1e-6, 1e9))
        ratio = draw(st.one_of(st.sampled_from([2.0, 3.0, 4.0, 4.5]), st.floats(2.0, 1e3)))
        return n, ratio * bandwidth, bandwidth
    sample_rate = draw(st.one_of(st.sampled_from([1.0, 3.0, 4.0]), st.floats(1e-6, 1e9)))
    step = 1.0 / (n * (1.0 / sample_rate))
    freq = draw(st.integers(1, n // 2)) * step
    # "edge": B whose tolerance edge B * (1 + 1e-12) lands on the bin
    bandwidth = freq if kind == "bin" else freq / (1 + 1e-12)
    for _ in range(draw(st.integers(0, 2))):
        bandwidth = math.nextafter(bandwidth, draw(st.sampled_from([-math.inf, math.inf])))
    assume(0 < bandwidth <= sample_rate / 2)
    return n, sample_rate, bandwidth


class TestBandBins:
    @settings(max_examples=300, deadline=None)
    @given(grid=band_grids())
    def test_matches_rfftfreq_count(self, grid):
        """NoiseSpec counts the bins rfftfreq puts in band, and refuses a grid with none."""
        n, sample_rate, bandwidth = grid
        expected = reference_band_bins(n, sample_rate, bandwidth)
        params = dict(psd_level=1.0, bandwidth=bandwidth, sample_rate=sample_rate, n_samples=n)
        if expected == (0, False):
            with pytest.raises(ValueError, match=f"no FFT bin of {n} samples"):
                NoiseSpec(**params)
            return
        spec = NoiseSpec(**params)
        assert (spec.n_band, spec.nyquist) == expected
        assert type(spec.n_band) is int and type(spec.nyquist) is bool

    def test_layout_is_not_a_parameter(self):
        """repr, == and hash see the four parameters only: the layout follows from them."""
        spec = NoiseSpec(psd_level=2.0, bandwidth=1.0, sample_rate=2.0, n_samples=8)
        assert (spec.n_band, spec.nyquist, spec.n_normals) == (3, True, 7)
        assert repr(spec) == "NoiseSpec(psd_level=2.0, bandwidth=1.0, sample_rate=2.0, n_samples=8)"
        same = NoiseSpec(psd_level=2.0, bandwidth=1.0, sample_rate=2.0, n_samples=8)
        assert spec == same and hash(spec) == hash(same)
        assert hash(spec) == hash((2.0, 1.0, 2.0, 8))
        assert spec != NoiseSpec(psd_level=1.0, bandwidth=1.0, sample_rate=2.0, n_samples=8)


class TestPeriodStreams:
    @settings(deadline=None)
    @given(
        data=st.data(),
        master_seed=st.integers(0, 2**64 - 1),
        start=st.integers(0, 2**64 - 1),
        block=st.integers(1, 4),
        force_state=st.sampled_from([None, "00", "11", "0110"]),
        n_normals=st.integers(0, 9),
    )
    def test_each_stream_is_rng_for_period(self, data, master_seed, start, block, force_state, n_normals):
        """Each period's word (none when forced 00/11), then Alice's and Bob's normals, come from its own stream."""
        stop = data.draw(st.integers(start + 1, min(start + 6, 2**64)), label="stop")
        periods = drawn_periods(master_seed, start, stop, force_state, block, n_normals)
        for period, (_, normals) in enumerate(periods, start):
            fresh = rng_for_period(master_seed, period)
            if force_state not in ("00", "11"):
                fresh.bit_generator.random_raw()  # the word the bits are read from
            assert np.array_equal(normals, fresh.standard_normal((2, n_normals)))


class TestBandCoefficients:
    @pytest.mark.parametrize("sample_rate", [2.0, 3.0])  # Nyquist bin in band (even n), not in band
    @settings(deadline=None)
    @given(
        data=st.data(),
        n=st.integers(2, 64),
        rows=st.sampled_from([(), (3,), (2, 2)]),
    )
    def test_matches_complex_expression(self, sample_rate, data, n, rows):
        """A synthesis is the inverse FFT of the coefficients that the complex expression builds from its normals.

        ``synth_band_limited`` writes ``normals * scale`` into the interleaved
        parts; both compute each real and imaginary part as one normal times
        its scale, so the sign of an exactly zero coefficient is the only
        possible difference, and ``array_equal`` counts -0.0 equal to 0.0.
        Each row of normals is one synthesis.
        """
        assume(n >= sample_rate)  # bin 1, at sample_rate / n, must be in the band (0, 1]
        psd_level = data.draw(st.floats(0.0, 1e6))
        layout = NoiseSpec(psd_level=psd_level, bandwidth=1.0, sample_rate=sample_rate, n_samples=n)
        assert layout.nyquist == (sample_rate == 2.0 and n % 2 == 0)
        normals = data.draw(arrays(np.float64, rows + (layout.n_normals,), elements=st.floats(-1e6, 1e6)))
        for row in normals.reshape(-1, layout.n_normals):
            got = synth_band_limited(layout, drawn(row))
            expected = np.fft.irfft(reference_band_coefficients(layout, row, layout.scale, layout.nyquist_scale), n=n)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize(
        "sample_rate, n, nyquist",
        [(2.0, 16, True), (3.0, 16, False), (2.0, 15, False)],
        ids=["even-nyquist", "even-no-nyquist", "odd"],
    )
    def test_slots_are_the_filled_bins(self, sample_rate, n, nyquist):
        """Normals written through ``slots`` land in exactly the bins, and the order, of the reference."""
        layout = NoiseSpec(psd_level=1.0, bandwidth=1.0, sample_rate=sample_rate, n_samples=n)
        assert layout.nyquist == nyquist
        coeffs = np.zeros((3, n // 2 + 1), dtype=complex)
        nyquist_slot, in_band = layout.slots(coeffs)
        assert (nyquist_slot is None) == (not nyquist)
        assert in_band.shape == (3, 2 * layout.n_band) and np.shares_memory(in_band, coeffs)
        # distinct nonzero normals, so a slot out of place or out of order shows
        normals = np.arange(1.0, 1.0 + 3 * layout.n_normals).reshape(3, layout.n_normals)
        if nyquist:
            assert nyquist_slot.shape == (3,) and np.shares_memory(nyquist_slot, coeffs)
            nyquist_slot[...] = normals[:, 0]
        in_band[...] = normals[:, int(nyquist) :]
        assert np.array_equal(coeffs, reference_band_coefficients(layout, normals, 1.0, 1.0))



class TestPeriodogram:
    def test_dc_waveform_power_in_lowest_bin(self):
        freqs, psd = periodogram(np.full(4096, 3.0), 4.0, 16)
        df = freqs[1] - freqs[0]
        assert psd[0] * df == pytest.approx(9.0, rel=1e-9)
        assert np.all(psd[1:] < 1e-12)

    def test_sine_wave_parseval(self):
        fs, n = 8.0, 4096
        t = np.arange(n) / fs
        f0 = 1.0  # bin-centered for nperseg=64
        freqs, psd = periodogram(2.0 * np.sin(2 * np.pi * f0 * t), fs, 32)
        df = freqs[1] - freqs[0]
        k = np.argmax(psd)
        assert freqs[k] == pytest.approx(f0)
        assert psd.sum() * df == pytest.approx(2.0, rel=1e-6)  # A^2/2
        assert psd[k] * df == pytest.approx(2.0, rel=1e-6)

    def test_parseval_consistency_with_mean_square(self):
        w = make(n=2**18, seed=5)
        freqs, psd = periodogram(w, 4.0, 128)
        df = freqs[1] - freqs[0]
        ms = np.mean(w**2)
        assert psd.sum() * df == pytest.approx(ms, rel=0.02)

    def test_rejects_short_waveform(self):
        w = np.ones(16)
        with pytest.raises(ValueError):
            periodogram(w, 1.0, 16)
        with pytest.raises(ValueError):
            periodogram(w, 1.0, 1)

    @settings(deadline=None, max_examples=60)
    @given(
        n_bins=st.integers(2, 300),
        n_seg=st.integers(1, 40),
        remainder=st.floats(0.0, 1.0, exclude_max=True),
        sample_rate=st.sampled_from([0.37, 1.0, 3.0, 4.0, 1e3]),
        chunk_segments=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_unchunked_expression(self, n_bins, n_seg, remainder, sample_rate, chunk_segments, seed):
        """Chunked segments give the same bits as one transform of every segment.

        Samples past the last whole segment are dropped, as welch drops them.
        """
        length = 2 * n_bins
        rng = np.random.default_rng(seed)
        samples = rng.standard_normal(n_seg * length + int(remainder * length)) * 3.0 + 0.5
        with mock.patch.object(noise, "_CHUNK_SAMPLES", chunk_segments * length):
            freqs, density = periodogram(samples, sample_rate, n_bins)
        ref_freqs, ref_density = reference_periodogram(samples, sample_rate, n_bins)
        assert freqs.shape == density.shape == (n_bins + 1,)
        assert np.array_equal(freqs, ref_freqs)
        assert np.array_equal(density, ref_density)

    @pytest.mark.parametrize("n_seg", [1, 3, 4, 8, 9])  # 1, step - 1, step, 2 step, 2 step + 1
    def test_halves_match_one_transform_of_every_segment(self, monkeypatch, n_seg):
        n_bins, step = 24, 4
        length = 2 * n_bins
        caller, threads, rfft, on = threading.get_ident(), threading.active_count(), np.fft.rfft, []

        def watched_rfft(*args, **kwargs):
            on.append(threading.get_ident())
            return rfft(*args, **kwargs)

        samples = np.random.default_rng(n_seg).standard_normal(n_seg * length + 17) * 3.0 + 0.5
        monkeypatch.setattr(noise, "_CHUNK_SAMPLES", step * length)
        monkeypatch.setattr(np.fft, "rfft", watched_rfft)
        freqs, density = periodogram(samples, 3.0, n_bins)
        monkeypatch.undo()
        ref_freqs, ref_density = reference_periodogram(samples, 3.0, n_bins)
        assert freqs.tobytes() == ref_freqs.tobytes() and density.tobytes() == ref_density.tobytes()
        # one transform per chunk, every one on the calling thread, and no thread started
        assert on == [caller] * -(-n_seg // step)
        assert threading.active_count() == threads

    def test_halves_exact_under_frequent_thread_switches(self, monkeypatch):
        # two concurrent callers on two cores, switching every microsecond: a power table
        # shared between calls, or a lost or misplaced column write, would change a density
        n_bins, step = 24, 4
        monkeypatch.setattr(noise, "_CHUNK_SAMPLES", step * 2 * n_bins)
        signals = [np.random.default_rng(seed).standard_normal(9 * 2 * n_bins * step + 5) for seed in (1, 2)]
        expected = [reference_periodogram(x, 3.0, n_bins)[1].tobytes() for x in signals]
        mismatches = []

        def repeat(x, want):
            try:
                for _ in range(30):
                    if periodogram(x, 3.0, n_bins)[1].tobytes() != want:
                        mismatches.append("density differs")
            except Exception as exc:  # a thread's exception would otherwise only be printed
                mismatches.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=repeat, args=pair) for pair in zip(signals, expected)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert mismatches == []

    def test_helper_half_keeps_the_callers_error_state(self, monkeypatch):
        """An overflow in the last chunk raises or passes as the caller's ``np.errstate`` asks."""
        n_bins = 8
        length = 2 * n_bins
        monkeypatch.setattr(noise, "_CHUNK_SAMPLES", length)  # one segment per chunk
        samples = np.ones(4 * length)
        samples[-1] = 1e300  # only the last chunk's power overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError), np.errstate(over="raise"):
                periodogram(samples, 1.0, n_bins)
            with np.errstate(over="ignore"):
                assert np.isinf(periodogram(samples, 1.0, n_bins)[1]).any()

    @pytest.mark.parametrize(
        "n_samples, n_bins, sample_rate",
        [(2**16, 64, 4.0), (2**16 + 77, 100, 3.0), (2**12 + 3, 2, 1.0), (1000, 7, 0.37), (2**14, 512, 4.0)],
    )
    def test_matches_scipy_welch(self, n_samples, n_bins, sample_rate):
        from scipy import signal

        samples = np.random.default_rng(n_samples).standard_normal(n_samples) ** 2
        samples -= samples.mean()
        freqs, density = periodogram(samples, sample_rate, n_bins)
        welch_freqs, welch_density = signal.welch(
            samples, fs=sample_rate, window="boxcar", nperseg=2 * n_bins, noverlap=0, detrend=False
        )
        np.testing.assert_allclose(freqs, welch_freqs, rtol=1e-12, atol=0)
        np.testing.assert_allclose(density, welch_density, rtol=1e-12, atol=0)
