import math

import numpy as np
import pytest

from kljn.analytic import (
    SQRT3,
    ThresholdFractions,
    epsilon_analytic,
    epsilon_combined,
    epsilon_current_00,
    epsilon_current_11,
    epsilon_voltage,
    rice_rate,
    upcrossing_rate_flat,
)
from kljn.estimator import AveragingWindow, SmallGammaWarning


class TestThresholdFractions:
    def test_valid(self):
        fr = ThresholdFractions(beta=0.5, delta=0.4, lam=0.3, rho=0.2)
        assert fr.beta == 0.5

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5])
    def test_out_of_range(self, bad):
        with pytest.raises(ValueError, match=rf"^beta must be strictly inside \(0, 1\), got {bad}$"):
            ThresholdFractions(beta=bad, delta=0.5, lam=0.5, rho=0.5)


class TestRiceRate:
    def test_zero_threshold(self):
        assert rice_rate(0.0, rms=1.0, spectrum_moment=1.0) == pytest.approx(2.0)

    def test_large_threshold_vanishes(self):
        assert rice_rate(40.0, rms=1.0, spectrum_moment=1.0) < 1e-300

    def test_unit_point(self):
        assert rice_rate(1.0, 1.0, 1.0) == pytest.approx(2 * math.exp(-0.5))

    def test_zero_rms_rejected(self):
        with pytest.raises(ValueError):
            rice_rate(1.0, 0.0, 1.0)


class TestUpcrossingRateFlat:
    def test_zero_fraction_limit(self):
        win = AveragingWindow(gamma=100.0, bandwidth=100.0)  # f_b = 1
        assert upcrossing_rate_flat(win, 1e-12) == pytest.approx(1.0 / SQRT3)

    def test_reference_value(self):
        win = AveragingWindow(gamma=100.0, bandwidth=100.0)
        assert upcrossing_rate_flat(win, 0.5) == pytest.approx(1.114e-3, rel=1e-3)

    def test_matches_rice_composition(self):
        # closed form == rice_rate/2 with the flat-spectrum substitutions
        rng = np.random.default_rng(0)
        s = 1.7  # arbitrary level PSD; cancels
        for _ in range(100):
            lam = rng.uniform(0.05, 0.95)
            gamma = rng.uniform(10.0, 300.0)
            win = AveragingWindow(gamma=gamma, bandwidth=1.0)
            f_b = win.f_b
            threshold = lam * s * gamma * f_b
            rms = s * f_b * math.sqrt(2.0 * gamma)
            moment = math.sqrt((2.0 * s * s * gamma * f_b) * f_b**3 / 3.0)
            composed = rice_rate(threshold, rms, moment) / 2.0
            closed = upcrossing_rate_flat(win, lam)
            assert composed == pytest.approx(closed, rel=1e-12)


class TestEpsilonFormulas:
    def test_reference_points(self):
        assert epsilon_current_11(0.5, 100) == pytest.approx(1.114e-3, rel=1e-3)
        assert epsilon_current_11(0.5, 200) == pytest.approx(2.15e-6, rel=5e-3)
        assert epsilon_current_00(0.5, 100) == pytest.approx(1.114e-3, rel=1e-3)
        assert epsilon_voltage(0.5, 100) == pytest.approx(1.114e-3, rel=1e-3)
        assert epsilon_voltage(0.5, 50) == pytest.approx(2.53e-2, rel=5e-3)
        assert epsilon_current_00(1 - 1e-12, 100) == pytest.approx(
            math.exp(-25.0) / SQRT3, rel=1e-9
        )

    @pytest.mark.parametrize(
        "call",
        [
            lambda: epsilon_voltage(0.5, 5),
            lambda: epsilon_combined(0.5, 0.5, 5),
            lambda: epsilon_analytic("current", "11", ThresholdFractions(0.5, 0.5, 0.5, 0.5), 5),
            lambda: epsilon_current_00(0.5, 5),
            lambda: epsilon_current_11(0.5, 5),
        ]
        + [
            # each public rate is one call above the shared formula, in every mode
            lambda mode=mode, actual=actual: epsilon_analytic(
                mode, actual, ThresholdFractions(0.5, 0.5, 0.5, 0.5), 5
            )
            for mode in ("voltage", "current", "combined")
            for actual in ("00", "11")
        ],
        ids=["voltage", "combined", "dispatch", "current-00", "current-11"]
        + [f"dispatch-{mode}-{actual}" for mode in ("voltage", "current", "combined") for actual in ("00", "11")],
    )
    def test_small_gamma_warning_names_the_caller(self, call):
        with pytest.warns(SmallGammaWarning) as record:
            call()
        assert record and all(w.filename == __file__ for w in record)

    def test_small_gamma_warning_text_matches_the_window(self):
        """The closed-form rates and the averaging window state the gamma < 10 rule in one text."""
        with pytest.warns(SmallGammaWarning) as window:
            AveragingWindow(gamma=5, bandwidth=1)
        with pytest.warns(SmallGammaWarning) as rate:
            epsilon_voltage(0.5, 5)
        assert [str(w.message) for w in rate] == [str(w.message) for w in window]

    def test_gamma_zero_prefactor(self):
        with pytest.warns(SmallGammaWarning):
            assert epsilon_current_11(0.5, 0.0) == pytest.approx(1.0 / SQRT3)

    def test_combined_values(self):
        assert epsilon_combined(0.5, 0.5, 100) == pytest.approx(1.24e-6, rel=3e-3)
        assert epsilon_combined(0.5, 0.5, 200) == pytest.approx(4.6e-12, rel=7e-3)

    def test_combined_factorizes_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            fv, fi = rng.uniform(0.05, 0.95, size=2)
            g = rng.uniform(10, 400)
            assert epsilon_combined(fv, fi, g) == epsilon_voltage(fv, g) * epsilon_current_11(fi, g)

    def test_monotone_in_gamma_and_fraction(self):
        gs = np.linspace(10, 300, 40)
        eps = [epsilon_current_11(0.5, g) for g in gs]
        assert all(a > b for a, b in zip(eps, eps[1:]))
        fr = np.linspace(0.05, 0.95, 40)
        eps = [epsilon_current_11(f, 100) for f in fr]
        assert all(a > b for a, b in zip(eps, eps[1:]))

    def test_log_linear_in_gamma(self):
        lam = 0.37
        g1, g2 = 40.0, 250.0
        slope = (math.log(epsilon_current_11(lam, g2)) - math.log(epsilon_current_11(lam, g1))) / (
            g2 - g1
        )
        assert slope == pytest.approx(-lam * lam / 4.0, rel=1e-12)

    @pytest.mark.parametrize("frac", [0.0, 1.0, -0.5])
    def test_domain_violations(self, frac):
        with pytest.raises(ValueError):
            epsilon_current_11(frac, 100)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            epsilon_voltage(0.5, -1.0)


class TestEpsilonDispatch:
    def test_modes(self):
        fr = ThresholdFractions(beta=0.4, delta=0.3, lam=0.2, rho=0.6)
        assert epsilon_analytic("voltage", "00", fr, 100) == epsilon_voltage(0.4, 100)
        assert epsilon_analytic("voltage", "11", fr, 100) == epsilon_voltage(0.3, 100)
        assert epsilon_analytic("current", "00", fr, 100) == epsilon_current_00(0.6, 100)
        assert epsilon_analytic("current", "11", fr, 100) == epsilon_current_11(0.2, 100)
        assert epsilon_analytic("combined", "11", fr, 100) == epsilon_combined(0.3, 0.2, 100)

    def test_invalid_inputs(self):
        fr = ThresholdFractions(beta=0.5, delta=0.5, lam=0.5, rho=0.5)
        with pytest.raises(ValueError):
            epsilon_analytic("combined", "0110", fr, 100)
        with pytest.raises(ValueError):
            epsilon_analytic("sideways", "00", fr, 100)
