import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kljn.circuit import (
    BOLTZMANN,
    DegenerateLevelsWarning,
    PhysicsConstants,
    ResistorSet,
    channel_waveforms,
    generator_psd,
    theoretical_levels,
)
from kljn.config import SystemConfig
from gates import GATES
from mutants import inject
from reference import reference_waves

NORM = PhysicsConstants.normalized()


def const_wave(value, n=8):
    return np.full(n, float(value))


class TestGeneratorPsd:
    def test_normalized_definition(self):
        assert generator_psd(2.0, NORM) == pytest.approx(2.0)

    def test_zero_resistance_rejected(self):
        with pytest.raises(ValueError):
            generator_psd(0.0, NORM)

    def test_si_value(self):
        consts = PhysicsConstants.si(t_eff=1e18)
        assert consts.k == BOLTZMANN
        assert generator_psd(1e4, consts) == pytest.approx(5.5226e-1, rel=1e-4)


class TestChannelWaveforms:
    def test_voltage_divider(self):
        u_c, i_c = channel_waveforms(const_wave(1.0), const_wave(0.0), 1.0, 1.0)
        assert np.allclose(i_c, 0.5)
        assert np.allclose(u_c, 0.5)

    def test_equal_generators_zero_current(self):
        u_c, i_c = channel_waveforms(const_wave(2.0), const_wave(2.0), 1.0, 3.0)
        assert np.allclose(i_c, 0.0)
        assert np.allclose(u_c, 2.0)

    def test_asymmetric_loop_by_hand(self):
        u_c, i_c = channel_waveforms(const_wave(0.0), const_wave(1.0), 3.0, 1.0)
        assert np.allclose(i_c, -0.25)
        assert np.allclose(u_c, 0.75)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            channel_waveforms(const_wave(1.0, n=8), const_wave(1.0, n=9), 1.0, 1.0)

    def test_linearity_in_generator_voltages(self):
        rng = np.random.default_rng(0)
        a1, a2 = rng.standard_normal((2, 64))
        b1, b2 = rng.standard_normal((2, 64))
        u_sum, i_sum = channel_waveforms(a1 + a2, b1 + b2, 1.0, 10.0)
        u1, i1 = channel_waveforms(a1, b1, 1.0, 10.0)
        u2, i2 = channel_waveforms(a2, b2, 1.0, 10.0)
        assert np.allclose(u_sum, u1 + u2)
        assert np.allclose(i_sum, i1 + i2)

    def test_rows_broadcast_against_per_row_resistances(self):
        # a block of periods: one resistance pair per row, each row solved as on its own
        rng = np.random.default_rng(1)
        u_a, u_b = rng.standard_normal((2, 3, 16))
        r_a = np.array([[1.0], [10.0], [1.0]])
        r_b = np.array([[1.0], [1.0], [10.0]])
        u_c, i_c = channel_waveforms(u_a, u_b, r_a, r_b)
        for row in range(3):
            u_row, i_row = channel_waveforms(u_a[row], u_b[row], float(r_a[row, 0]), float(r_b[row, 0]))
            assert np.array_equal(u_c[row], u_row)
            assert np.array_equal(i_c[row], i_row)


def draw_solve_inputs(data, rows, n, per_row):
    """Two generator waves of shape ``rows + (n,)`` and two resistances, scalars or one per row."""
    samples = arrays(np.float64, rows + (n,), elements=st.floats(-1e6, 1e6))
    if per_row:
        resistances = arrays(np.float64, rows + (1,), elements=st.floats(1e-3, 1e6))
    else:
        resistances = st.floats(1e-3, 1e6)
    return data.draw(samples), data.draw(samples), data.draw(resistances), data.draw(resistances)


class TestChannelCurrent:
    @settings(deadline=None)
    @given(data=st.data(), rows=st.sampled_from([(), (1,), (3,), (2, 2)]), n=st.integers(1, 32), per_row=st.booleans())
    def test_matches_channel_waveforms(self, data, rows, n, per_row):
        """The solve's current is (u_a - u_b) / (R_A + R_B), bit for bit, and leaves its inputs unchanged."""
        u_a, u_b, r_a, r_b = draw_solve_inputs(data, rows, n, per_row)
        before = u_a.copy(), u_b.copy()
        i_c = channel_waveforms(u_a, u_b, r_a, r_b)[1]
        assert i_c.shape == u_a.shape and i_c.dtype == np.float64
        assert np.array_equal(i_c, (u_a - u_b) / (r_a + r_b))
        assert np.array_equal(u_a, before[0]) and np.array_equal(u_b, before[1])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            channel_waveforms(const_wave(1.0, n=8), const_wave(1.0, n=9), 1.0, 1.0)


class TestChannelVoltage:
    @settings(deadline=None)
    @given(data=st.data(), rows=st.sampled_from([(), (1,), (3,), (2, 2)]), n=st.integers(1, 32), per_row=st.booleans())
    def test_matches_channel_waveforms(self, data, rows, n, per_row):
        """The solve's voltage is (u_a R_B + u_b R_A) / (R_A + R_B), bit for bit, and leaves its inputs unchanged."""
        u_a, u_b, r_a, r_b = draw_solve_inputs(data, rows, n, per_row)
        before = u_a.copy(), u_b.copy()
        u_c = channel_waveforms(u_a, u_b, r_a, r_b)[0]
        assert u_c.shape == u_a.shape and u_c.dtype == np.float64
        assert np.array_equal(u_c, (u_a * r_b + u_b * r_a) / (r_a + r_b))
        assert np.array_equal(u_a, before[0]) and np.array_equal(u_b, before[1])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            channel_waveforms(const_wave(1.0, n=8), const_wave(1.0, n=9), 1.0, 1.0)


class TestResistorSet:
    def test_values(self):
        rs = ResistorSet(r_low=2.0, alpha=10.0)
        assert rs.r0 == 2.0 and rs.r1 == 20.0
        assert rs.for_bit(0) == 2.0 and rs.for_bit(1) == 20.0

    def test_alpha_at_most_one_rejected(self):
        with pytest.raises(ValueError):
            ResistorSet(r_low=1.0, alpha=1.0)

    def test_small_alpha_warns(self):
        with pytest.warns(DegenerateLevelsWarning):
            ResistorSet(r_low=1.0, alpha=5.0)

    def test_small_alpha_warning_names_the_caller(self):
        with pytest.warns(DegenerateLevelsWarning) as record:
            ResistorSet(r_low=1.0, alpha=5.0)
        assert [w.filename for w in record] == [__file__]


class TestTheoreticalLevels:
    def test_reference_current_levels(self):
        levels = theoretical_levels(ResistorSet(1.0, 10.0), NORM, bandwidth=1.0)
        assert levels.i_11 == pytest.approx(0.05)
        assert levels.i_0110 == pytest.approx(1 / 11)
        assert levels.i_00 == pytest.approx(0.5)
        assert levels.v_00 == pytest.approx(0.5)
        # diagnostic for the (1+alpha)R loop-resistance convention
        assert levels.i_11_alt_convention == pytest.approx(1 / 11)

    def test_orderings(self):
        levels = theoretical_levels(ResistorSet(3.0, 50.0), NORM, bandwidth=2.0)
        assert levels.v_00 < levels.v_0110 < levels.v_11
        assert levels.i_11 < levels.i_0110 < levels.i_00

    def test_near_degenerate_alpha_still_ordered(self):
        with pytest.warns(DegenerateLevelsWarning):
            rs = ResistorSet(1.0, 1.01)
        levels = theoretical_levels(rs, NORM, bandwidth=1.0)
        assert levels.v_00 < levels.v_0110 < levels.v_11
        assert levels.i_11 < levels.i_0110 < levels.i_00

    def test_smallest_normal_levels_still_ordered(self):
        # t_eff = 1e-280: the smallest level, 11's current, is 2.8e-304, above float64's normal minimum
        levels = theoretical_levels(ResistorSet(1.0, 10.0), PhysicsConstants.si(1e-280), bandwidth=1.0)
        assert levels.v_00 < levels.v_0110 < levels.v_11
        assert levels.i_11 < levels.i_0110 < levels.i_00


def secure_product_t():
    """The mean of u_c·i_c over its 64-batch standard error, in the 01 state of 2**20 samples at row
    circuit-uncorrelated's seed."""
    u_c, i_c = reference_waves(SystemConfig(), (0, 1), 2**20, np.random.default_rng(GATES["circuit-uncorrelated"].seed))
    prod = u_c * i_c
    batches = prod.reshape(64, -1).mean(axis=1)
    return prod.mean() / (batches.std(ddof=1) / np.sqrt(64))


class TestEmpiricalPhysics:
    def test_voltage_current_uncorrelated_in_secure_state(self):
        # <u_c * i_c> is statistically zero in the 01 state (row circuit-uncorrelated)
        t = secure_product_t()
        assert abs(t) < GATES["circuit-uncorrelated"].threshold, f"t = {t:+.2f}"

    def test_uncorrelated_gate_catches_psd_not_proportional_to_r(self):
        """Generators whose PSD is not ∝ R, R1's 10% high, make u·i correlated in 01: the gate above fails."""
        with inject("reference-r1-psd"):
            t = secure_product_t()
        assert abs(t) >= GATES["circuit-uncorrelated"].threshold, f"t = {t:+.2f}"

    def test_mean_squares_match_levels(self):
        levels = theoretical_levels(ResistorSet(1.0, 10.0), NORM, bandwidth=1.0)
        # the default config: R = 1, alpha = 10, 4kT = 1, B = 1 and f_s = 4
        config = SystemConfig()
        rng = np.random.default_rng(8)
        for bits, v_th, i_th in (
            ((0, 0), levels.v_00, levels.i_00),
            ((0, 1), levels.v_0110, levels.i_0110),
            ((1, 1), levels.v_11, levels.i_11),
        ):
            u_c, i_c = reference_waves(config, bits, 2**21, rng)
            assert np.mean(u_c**2) == pytest.approx(v_th, rel=0.02)
            assert np.mean(i_c**2) == pytest.approx(i_th, rel=0.02)
