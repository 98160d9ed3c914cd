import math

import numpy as np
import pytest
from scipy import stats

from kljn.estimator import (
    AveragingWindow,
    SmallGammaWarning,
    averaged_fluctuation_rms,
    finite_mean_square,
    measure_period,
    measurement_slice,
    squared_noise_psd_theory,
)
from kljn.noise import NoiseSpec, rng_for_period, synth_band_limited


def period_mean_squares(gamma, n_periods, seed=0, psd=1.0, bw=1.0, fs=4.0):
    """Trailing-half mean squares of independent synthesized periods."""
    n = int(round(fs * gamma / bw))
    n += n % 2
    spec = NoiseSpec(psd_level=psd, bandwidth=bw, sample_rate=fs, n_samples=n)
    sl = measurement_slice(n)
    out = np.empty(n_periods)
    for k in range(n_periods):
        w = synth_band_limited(spec, rng_for_period(seed, k))
        out[k] = np.mean(w[sl] ** 2)
    return out


class TestAveragingWindow:
    def test_bookkeeping(self):
        win = AveragingWindow(gamma=100.0, bandwidth=2.0)
        assert win.tau == pytest.approx(50.0)
        assert win.f_b == pytest.approx(0.02)
        assert win.tau * win.bandwidth == pytest.approx(win.gamma)

    def test_small_gamma_warns(self):
        with pytest.warns(SmallGammaWarning):
            AveragingWindow(gamma=5.0, bandwidth=1.0)

    def test_small_gamma_warning_names_the_caller(self):
        with pytest.warns(SmallGammaWarning) as record:
            AveragingWindow(gamma=5.0, bandwidth=1.0)
        assert [w.filename for w in record] == [__file__]


class TestFiniteMeanSquare:
    def test_constant(self):
        assert finite_mean_square(np.full(10, 3.0)) == pytest.approx(9.0)

    def test_alternating(self):
        x = np.tile([1.0, -1.0], 8)
        assert finite_mean_square(x) == pytest.approx(1.0)

    def test_rows_along_last_axis(self):
        x = np.array([[1.0, -1.0, 1.0, -1.0], [0.0, 2.0, 0.0, 2.0]])
        assert np.array_equal(finite_mean_square(x), [1.0, 2.0])
        assert finite_mean_square(x[1]) == finite_mean_square(x)[1]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            finite_mean_square(np.array([]))

    def test_single_period_close_to_level(self):
        ms = period_mean_squares(gamma=100, n_periods=1, seed=4)[0]
        assert abs(ms - 1.0) < 5.0 / math.sqrt(100)


class TestMeasurePeriod:
    def test_uses_trailing_half(self):
        n = 8
        u = np.zeros(n)
        u[n // 2 :] = 2.0  # leading half must not enter the measurement
        assert measure_period(u, np.ones(n)) == (4.0, 1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            measure_period(np.ones(8), np.ones(6))


class TestSquaredNoisePsdTheory:
    def test_zero_frequency_peak(self):
        assert squared_noise_psd_theory(0.0, s_level=3.0, bandwidth=2.0) == pytest.approx(2 * 2.0 * 9.0)

    def test_support_edge_and_beyond(self):
        assert squared_noise_psd_theory(2.0, 1.0, 1.0) == 0.0
        assert squared_noise_psd_theory(3.0, 1.0, 1.0) == 0.0

    def test_vectorized_triangle(self):
        f = np.array([0.0, 1.0, 2.0, 5.0])
        out = squared_noise_psd_theory(f, 1.0, 1.0)
        assert np.allclose(out, [2.0, 1.0, 0.0, 0.0])


class TestAveragedFluctuationRms:
    def test_small_gamma_evaluation(self):
        with pytest.warns(SmallGammaWarning):
            win = AveragingWindow(gamma=2.0, bandwidth=2.0)
        assert averaged_fluctuation_rms(1.0, win) == pytest.approx(2.0)

    def test_zero_level(self):
        win = AveragingWindow(gamma=100.0, bandwidth=100.0)
        assert averaged_fluctuation_rms(0.0, win) == 0.0

    def test_sqrt_two_gamma_scaling(self):
        win = AveragingWindow(gamma=100.0, bandwidth=100.0)  # f_b = 1
        assert averaged_fluctuation_rms(1.0, win) == pytest.approx(math.sqrt(200.0))

    def test_matches_empirical_spread(self):
        gamma = 50
        ms = period_mean_squares(gamma=gamma, n_periods=4000, seed=9)
        win = AveragingWindow(gamma=gamma, bandwidth=1.0)
        predicted = averaged_fluctuation_rms(1.0, win)
        assert ms.std(ddof=1) == pytest.approx(predicted, rel=0.10)


class TestFluctuationDistribution:
    def test_period_averages_are_gaussian(self):
        # KS distance to the fitted normal, against the 1% critical value
        ms = period_mean_squares(gamma=50, n_periods=1000, seed=17)
        stat, _ = stats.kstest(ms, "norm", args=(ms.mean(), ms.std(ddof=1)))
        assert stat < 1.628 / math.sqrt(ms.size)
