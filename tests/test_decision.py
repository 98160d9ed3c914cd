import itertools

import numpy as np
import pytest

from kljn.analytic import ThresholdFractions
from kljn.circuit import PhysicsConstants, ResistorSet, theoretical_levels
from kljn.decision import (
    CombinedOutcome,
    DecisionBands,
    EmptySecureBandError,
    Interpretation,
    combine,
    interpret_arrays,
    interpret_current,
    interpret_voltage,
    make_bands,
)

NORM = PhysicsConstants.normalized()


def reference_levels(alpha=10.0):
    return theoretical_levels(ResistorSet(1.0, alpha), NORM, bandwidth=1.0)


def half_fracs():
    return ThresholdFractions(beta=0.5, delta=0.5, lam=0.5, rho=0.5)


class TestMakeBands:
    def test_reference_current_cuts(self):
        bands = make_bands(reference_levels(), half_fracs())
        assert bands.i_low_cut == pytest.approx(0.075)
        assert bands.i_high_cut == pytest.approx(0.25)
        assert bands.v_low_cut == pytest.approx(0.75)
        assert bands.v_high_cut == pytest.approx(2.5)

    def test_tiny_fractions_give_widest_band(self):
        tiny = 1e-9
        fr = ThresholdFractions(beta=tiny, delta=tiny, lam=tiny, rho=tiny)
        levels = reference_levels()
        bands = make_bands(levels, fr)
        assert bands.i_low_cut == pytest.approx(levels.i_11)
        assert bands.i_high_cut == pytest.approx(levels.i_00)

    def test_degenerate_levels_raise(self):
        with pytest.warns(UserWarning):
            levels = reference_levels(alpha=1.05)
        with pytest.raises(EmptySecureBandError):
            make_bands(levels, half_fracs())

    def test_error_carries_offending_cuts(self):
        with pytest.raises(EmptySecureBandError) as exc_info:
            DecisionBands(v_low_cut=0.0, v_high_cut=1.0, i_low_cut=2.0, i_high_cut=1.0)
        assert exc_info.value.kind == "current"
        assert exc_info.value.low_cut == 2.0


class TestInterpret:
    @pytest.fixture
    def bands(self):
        return make_bands(reference_levels(), half_fracs())

    def test_current_midlevel_is_secure(self, bands):
        levels = reference_levels()
        assert interpret_current(levels.i_0110, bands) is Interpretation.SECURE_0110

    def test_current_zero_reads_11(self, bands):
        assert interpret_current(0.0, bands) is Interpretation.B11

    def test_current_above_high_cut_reads_00(self, bands):
        assert interpret_current(bands.i_high_cut * 1.000001, bands) is Interpretation.B00

    def test_current_ties_read_secure(self, bands):
        assert interpret_current(bands.i_low_cut, bands) is Interpretation.SECURE_0110
        assert interpret_current(bands.i_high_cut, bands) is Interpretation.SECURE_0110

    def test_voltage_zero_reads_00(self, bands):
        assert interpret_voltage(0.0, bands) is Interpretation.B00

    def test_voltage_midlevel_is_secure(self, bands):
        assert interpret_voltage(reference_levels().v_0110, bands) is Interpretation.SECURE_0110

    def test_voltage_above_high_cut_reads_11(self, bands):
        assert interpret_voltage(bands.v_high_cut * 1.000001, bands) is Interpretation.B11

    def test_current_is_step_function_with_two_cuts(self, bands):
        # scan a fine grid: exactly two transition points
        import numpy as np

        grid = np.linspace(0.0, 0.6, 20001)
        readings = [interpret_current(x, bands) for x in grid]
        transitions = sum(a is not b for a, b in zip(readings, readings[1:]))
        assert transitions == 2

    def test_negative_inputs_rejected(self, bands):
        with pytest.raises(ValueError):
            interpret_current(-1e-9, bands)
        with pytest.raises(ValueError):
            interpret_voltage(-1e-9, bands)

    @pytest.mark.parametrize("reader", [interpret_current, interpret_voltage])
    def test_nan_rejected(self, bands, reader):
        # a NaN compares false with both cuts and would otherwise read as secure
        with pytest.raises(ValueError, match=">= 0"):
            reader(float("nan"), bands)
        with pytest.raises(ValueError, match=">= 0"):
            reader(np.float64("nan"), bands)


class TestCombine:
    S, B0, B1 = Interpretation.SECURE_0110, Interpretation.B00, Interpretation.B11

    def test_total_over_all_cells(self):
        for v, i in itertools.product(Interpretation, repeat=2):
            assert isinstance(combine(v, i), CombinedOutcome)

    def test_keep_only_when_both_secure(self):
        for v, i in itertools.product(Interpretation, repeat=2):
            kept = combine(v, i) is CombinedOutcome.KEEP_SECURE
            assert kept == (v is self.S and i is self.S)

    def test_alarm_only_on_opposite_corners(self):
        for v, i in itertools.product(Interpretation, repeat=2):
            alarm = combine(v, i) is CombinedOutcome.ALARM_CONFLICT
            assert alarm == ({v, i} == {self.B0, self.B1})


class TestInterpretArrays:
    @pytest.fixture
    def bands(self):
        return make_bands(reference_levels(), half_fracs())

    def test_codes_match_scalar_readers(self, bands):
        levels = reference_levels()
        points = [levels.v_00, levels.v_0110, levels.v_11, levels.i_00, levels.i_0110, levels.i_11]
        for cut in (bands.v_low_cut, bands.v_high_cut, bands.i_low_cut, bands.i_high_cut):
            points += [np.nextafter(cut, 0.0), cut, np.nextafter(cut, np.inf)]
        # every voltage point against every current point
        msv, msi = (a.ravel() for a in np.meshgrid(points, points))
        v_code, i_code, outcome_code = interpret_arrays(msv, msi, bands)
        for k in range(msv.size):
            v = interpret_voltage(float(msv[k]), bands)
            i = interpret_current(float(msi[k]), bands)
            assert tuple(Interpretation)[v_code[k]] is v
            assert tuple(Interpretation)[i_code[k]] is i
            assert tuple(CombinedOutcome)[outcome_code[k]] is combine(v, i)
        assert set(outcome_code.tolist()) == set(range(len(CombinedOutcome)))

    @pytest.mark.parametrize("bad", [np.nan, -1e-300, -np.inf])
    @pytest.mark.parametrize("which", ["msv", "msi", "both"])
    def test_nan_or_negative_rejected(self, bands, bad, which):
        levels = reference_levels()
        msv = np.array([levels.v_0110, levels.v_0110, levels.v_0110])
        msi = np.array([levels.i_0110, levels.i_0110, levels.i_0110])
        if which in ("msv", "both"):
            msv[1] = bad
        if which in ("msi", "both"):
            msi[2] = bad
        with pytest.raises(ValueError, match="not NaN"):
            interpret_arrays(msv, msi, bands)

    def test_zero_and_infinity_accepted(self, bands):
        v_code, i_code, _ = interpret_arrays(np.array([0.0, np.inf]), np.array([np.inf, 0.0]), bands)
        assert v_code.tolist() == [0, 1]  # 00 below the low cut, 11 above the high cut
        assert i_code.tolist() == [0, 1]  # 00 above the high cut, 11 below the low cut
