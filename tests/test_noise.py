import math
import sys
import threading
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kljn import noise
from kljn.noise import (
    NoiseSpec,
    band_coefficients,
    period_streams,
    periodogram,
    rng_for_period,
    synth_band_limited,
    synth_band_limited_many,
)


def make(psd=1.0, bw=1.0, fs=4.0, n=2**16, seed=0):
    spec = NoiseSpec(psd_level=psd, bandwidth=bw, sample_rate=fs, n_samples=n)
    return synth_band_limited(spec, np.random.default_rng(seed))


def reference_band_coefficients(layout, normals, scale, nyquist_scale):
    """Coefficients as ``band_coefficients`` used to build them, through complex temporaries."""
    coeffs = np.zeros(normals.shape[:-1] + (layout.n_samples // 2 + 1,), dtype=complex)
    if layout.nyquist:
        coeffs[..., -1] = normals[..., 0] * nyquist_scale
    g = normals[..., int(layout.nyquist) :]
    coeffs[..., 1 : layout.n_band + 1] = (g[..., 0::2] + 1j * g[..., 1::2]) * np.asarray(scale)[..., None]
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


class TestNoiseSpec:
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
        # <x^2> -> S * B; standard error estimated by batching
        spec = NoiseSpec(psd_level=4.0, bandwidth=0.5, sample_rate=2.0, n_samples=2**20)
        w = synth_band_limited(spec, np.random.default_rng(7))
        batches = w.reshape(64, -1)
        means = (batches**2).mean(axis=1)
        var = means.mean()
        se = means.std(ddof=1) / np.sqrt(64)
        assert abs(var - 2.0) < 3 * se

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
        w = make(n=2**20, seed=11)
        x = w
        m2 = np.mean(x**2)
        m4 = np.mean(x**4)
        excess = m4 / m2**2 - 3.0
        se = np.sqrt(24.0 / x.size)
        assert abs(excess) < 5 * se

    def test_stationarity_between_halves(self):
        w = make(n=2**20, seed=13)
        half = w.size // 2
        a, b = w[:half], w[half:]
        va, vb = a.var(), b.var()
        # variance-of-variance for a correlated Gaussian sequence, batched
        sa = (a.reshape(32, -1) ** 2).mean(axis=1).std(ddof=1) / np.sqrt(32)
        sb = (b.reshape(32, -1) ** 2).mean(axis=1).std(ddof=1) / np.sqrt(32)
        assert abs(va - vb) < 3 * np.hypot(sa, sb)

    def test_returns_float64_array(self):
        w = make(n=4096)
        assert isinstance(w, np.ndarray)
        assert w.dtype == np.float64 and w.shape == (4096,)

    def test_rejects_nonfinite_samples(self):
        # finite spec, but the coefficient scale sqrt(S * fs * n / 4) overflows float64
        spec = NoiseSpec(psd_level=1e308, bandwidth=1, sample_rate=4, n_samples=16)
        with pytest.raises(ValueError, match="non-finite"), np.errstate(all="ignore"):
            synth_band_limited(spec, np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("where", [0, 3, 8], ids=["dc", "in-band", "nyquist"])
    def test_samples_reject_non_finite_spectrum(self, bad, where):
        coeffs = np.zeros(9, dtype=complex)
        coeffs[1:4] = 1.0
        coeffs[where] = bad
        with pytest.raises(ValueError, match="non-finite"), np.errstate(all="ignore"):
            noise._samples(coeffs, 16)

    def test_nyquist_rate_synthesis_variance(self):
        # fs = 2B puts the band edge on the Nyquist bin
        spec = NoiseSpec(psd_level=1.0, bandwidth=1.0, sample_rate=2.0, n_samples=2**18)
        w = synth_band_limited(spec, np.random.default_rng(2))
        assert abs(np.mean(w**2) - 1.0) < 0.03


class TestSynthMany:
    @settings(max_examples=40, deadline=None)
    @given(
        shapes=st.lists(
            st.tuples(
                st.one_of(st.integers(2, 300), st.integers(2, 2**16)),
                st.sampled_from([2.0, 3.0, 4.0]),  # fs / B; 2.0 with an even n fills the Nyquist bin
                st.floats(0.0, 1e3),
            ).filter(lambda shape: shape[0] >= shape[1]),  # bin 1, at fs / n, in the band (0, B]
            min_size=0,
            max_size=5,
        ),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_equals_consecutive_calls(self, shapes, seed):
        specs = [NoiseSpec(psd_level=p, bandwidth=1.0, sample_rate=fs, n_samples=n) for n, fs, p in shapes]
        batch_rng, single_rng = rng_for_period(seed, 0), rng_for_period(seed, 0)
        got = list(synth_band_limited_many(specs, batch_rng))
        expected = [synth_band_limited(spec, single_rng) for spec in specs]
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert g.dtype == e.dtype and g.tobytes() == e.tobytes()
        # the batch leaves the stream where the consecutive calls leave it
        assert batch_rng.bit_generator.random_raw() == single_rng.bit_generator.random_raw()

    @pytest.mark.parametrize("n_specs", [1, 2, 6])
    def test_waves_equal_consecutive_single_syntheses(self, n_specs):
        # n = 2**12 at fs = 2B fills the Nyquist bin; the sizes differ so a swapped wave shows
        specs = [
            NoiseSpec(psd_level=0.5 + i, bandwidth=1.0, sample_rate=2.0 + i % 3, n_samples=2**12 + 3 * i)
            for i in range(n_specs)
        ]
        batch_rng, single_rng = rng_for_period(11, 0), rng_for_period(11, 0)
        waves = synth_band_limited_many(specs, batch_rng)
        for spec in specs:
            assert next(waves).tobytes() == synth_band_limited(spec, single_rng).tobytes()
        assert next(waves, None) is None
        assert batch_rng.bit_generator.random_raw() == single_rng.bit_generator.random_raw()

    def test_transforms_one_at_a_time_off_the_calling_thread(self, monkeypatch):
        caller = threading.get_ident()
        running, seen, done, done_at_draw = [], [], [], []
        irfft, coefficients = np.fft.irfft, noise._coefficients

        def watched_irfft(*args, **kwargs):
            running.append(None)
            seen.append((threading.get_ident(), len(running)))
            try:
                time.sleep(0.01)  # slower than a draw, so an unbounded caller would run ahead
                return irfft(*args, **kwargs)
            finally:
                running.pop()
                done.append(None)

        def watched_coefficients(*args):
            done_at_draw.append(len(done))
            return coefficients(*args)

        monkeypatch.setattr(np.fft, "irfft", watched_irfft)
        monkeypatch.setattr(noise, "_coefficients", watched_coefficients)
        spec = NoiseSpec(psd_level=1.0, bandwidth=1.0, sample_rate=4.0, n_samples=2**14)
        threads = threading.active_count()
        list(synth_band_limited_many([spec] * 5, np.random.default_rng(3)))
        assert len(seen) == 5
        assert all(ident != caller and concurrent == 1 for ident, concurrent in seen)
        # spectrum j is drawn only once transform j - 2 is done
        assert all(n_done >= j - 1 for j, n_done in enumerate(done_at_draw))
        assert threading.active_count() == threads  # the helper is gone when the batch is exhausted
        seen.clear()
        list(synth_band_limited_many([spec], np.random.default_rng(3)))  # one spec: no thread
        assert seen == [(caller, 1)]

    def test_each_wave_handed_out_once_the_due_spectra_are_drawn(self, monkeypatch):
        drawn, coefficients = [], noise._coefficients

        def counted_coefficients(*args):
            drawn.append(None)
            return coefficients(*args)

        monkeypatch.setattr(noise, "_coefficients", counted_coefficients)
        spec = NoiseSpec(psd_level=1.0, bandwidth=1.0, sample_rate=4.0, n_samples=2**10)
        waves = synth_band_limited_many([spec] * 6, np.random.default_rng(3))
        assert drawn == []  # nothing is drawn before the first next()
        # wave i is yielded after transform i, so spectra up to i + 2 are due, and no more
        assert [(next(waves), len(drawn))[1] for _ in range(6)] == [3, 4, 5, 6, 6, 6]

    def test_helper_gone_when_exhausted_closed_or_failed(self, monkeypatch):
        spec = NoiseSpec(psd_level=1.0, bandwidth=1.0, sample_rate=4.0, n_samples=2**12)
        threads = threading.active_count()

        waves = synth_band_limited_many([spec] * 4, np.random.default_rng(3))
        assert len(list(waves)) == 4
        assert threading.active_count() == threads

        waves = synth_band_limited_many([spec] * 4, np.random.default_rng(3))
        next(waves)
        assert threading.active_count() == threads + 1  # the helper transforms the next spectra
        waves.close()
        assert threading.active_count() == threads

        samples, calls = noise._samples, []

        def third_fails(coeffs, n_samples):
            calls.append(None)
            if len(calls) == 3:
                raise ValueError("non-finite noise samples")
            return samples(coeffs, n_samples)

        monkeypatch.setattr(noise, "_samples", third_fails)
        waves = synth_band_limited_many([spec] * 6, np.random.default_rng(3))
        assert len([next(waves), next(waves)]) == 2
        with pytest.raises(ValueError, match="non-finite"):
            next(waves)
        assert threading.active_count() == threads
        assert next(waves, None) is None  # a failed iterator is finished

    @pytest.mark.parametrize(
        "errors, raised",
        [("raise", FloatingPointError), ("warn", RuntimeWarning), ("ignore", ValueError)],
    )
    def test_helper_keeps_the_callers_error_state(self, errors, raised):
        # the coefficient scale overflows to inf, and the inverse FFT meets inf - inf
        overflow = NoiseSpec(psd_level=1e308, bandwidth=1, sample_rate=4, n_samples=16)
        spec = NoiseSpec(psd_level=1.0, bandwidth=1, sample_rate=4, n_samples=16)
        for specs in ([spec, overflow], [overflow, spec]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(raised), np.errstate(all=errors):
                    list(synth_band_limited_many(specs, np.random.default_rng(0)))


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
        master_seed=st.integers(0, 2**64 - 1),
        periods=st.lists(
            st.tuples(
                st.integers(0, 2**64 - 1),
                # what the previous stream was left with: nothing, a bit drawn from a half
                # word (has_uint32 set), or 1-3 more raw words (a partly used buffer)
                st.one_of(st.just(0), st.just("bit"), st.integers(1, 3)),
            ),
            min_size=1,
            max_size=5,
        ),
    )
    def test_each_stream_is_rng_for_period(self, master_seed, periods):
        streams = period_streams(master_seed, [index for index, _ in periods])
        for (index, leftover), rng in zip(periods, streams):
            fresh = rng_for_period(master_seed, index)
            got, expected = rng.bit_generator.state, fresh.bit_generator.state
            for name in ("buffer_pos", "has_uint32", "uinteger"):
                assert got[name] == expected[name], name
            for name in ("counter", "key"):
                assert np.array_equal(got["state"][name], expected["state"][name]), name
            assert rng.bit_generator.random_raw() == fresh.bit_generator.random_raw()
            assert np.array_equal(rng.standard_normal(50), fresh.standard_normal(50))
            if leftover == "bit":
                rng.integers(0, 2)
            else:
                rng.bit_generator.random_raw(leftover)


class TestBandCoefficients:
    @pytest.mark.parametrize("sample_rate", [2.0, 3.0])  # Nyquist bin in band (even n), not in band
    @settings(deadline=None)
    @given(
        data=st.data(),
        n=st.integers(2, 64),
        rows=st.sampled_from([(), (3,), (2, 2)]),
        per_row=st.booleans(),
    )
    def test_matches_complex_expression(self, sample_rate, data, n, rows, per_row):
        """Writing ``normals * scale`` into the interleaved parts matches the complex expression.

        Both compute each real and imaginary part as one normal times its
        scale; the sign of an exactly zero coefficient is the only possible
        difference, and ``array_equal`` counts -0.0 equal to 0.0.
        """
        assume(n >= sample_rate)  # bin 1, at sample_rate / n, must be in the band (0, 1]
        layout = NoiseSpec(psd_level=1.0, bandwidth=1.0, sample_rate=sample_rate, n_samples=n)
        assert layout.nyquist == (sample_rate == 2.0 and n % 2 == 0)
        normals = data.draw(arrays(np.float64, rows + (layout.n_normals,), elements=st.floats(-1e6, 1e6)))
        scales = arrays(np.float64, rows, elements=st.floats(0.0, 1e6)) if per_row else st.floats(0.0, 1e6)
        scale, nyquist_scale = data.draw(scales), data.draw(scales)
        got = band_coefficients(layout, normals, scale, nyquist_scale)
        expected = reference_band_coefficients(layout, normals, scale, nyquist_scale)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert np.array_equal(got, expected)



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
        n_chunks = -(-n_seg // step)
        assert len(on) == n_chunks
        # the caller transforms the chunks before the middle boundary, one helper those after it
        helpers = set(on) - {caller}
        assert on.count(caller) == (n_chunks // 2 if n_chunks > 1 else 1)
        assert len(helpers) == (n_chunks > 1)
        assert threading.active_count() == threads

    def test_halves_exact_under_frequent_thread_switches(self, monkeypatch):
        # four threads (two callers, each with its helper) on two cores, switching every
        # microsecond: a lost or misplaced column write would change a density
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
        n_bins = 8
        length = 2 * n_bins
        monkeypatch.setattr(noise, "_CHUNK_SAMPLES", length)  # one segment per chunk
        samples = np.ones(4 * length)
        samples[-1] = 1e300  # the last chunk is the helper's: its power overflows
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
