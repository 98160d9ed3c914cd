"""The ledger of tier-1's statistical gates: each gate's threshold, sample set, false-alarm share and power.

A gate is a check that a correct program fails only by chance: a statistic
held below a number of its standard errors, or a p-value held above a floor.
``GATES`` has one row per gate, and each test reads its threshold, its seeds
and its period count from its row, so the ledger states what runs. A row's
false-alarm probability is the chance that a correct program fails one of
its values; its union over the values is at most ``values`` times that, and
the rows' unions sum to the suite's bound, which ``test_gates.py`` pins.

A row's sample set is its master seeds and the periods drawn under each.
Every period's normals come from its own ``(seed, period)`` Philox stream
(``kljn.noise.rng_for_period``), whatever the config or forced state, and
``levels`` and ``spectra`` draw from period 0. So two rows read the same
draws when they share a seed and their period ranges intersect, and one of
them says so in ``shares``: their evidence is not independent. The noise
module's tests draw from ``np.random.default_rng(seed)`` instead, a stream
family of its own.

Not rows: the relative tolerances (criterion 3's 1%, criterion 4's 10% and
2%, criterion 5's 10%, criterion 7's 30%, and the 2% and 10% checks of the
circuit, noise and estimator tests), whose false-alarm probabilities are not
stated; and the mutant tests, which are the rows' power. Each mutant test
injects a fault of the registry ``tests/mutants.py`` (the sign fault is the
one that three rows' tests share).

A row's ``faults`` name every fault of the registry that fails its own
assertion, under its mutant test or in the kill matrix
(``tests/kill_matrix.py``), which runs tier-1 under each fault. Some program
fault fails 18 rows. The other three, noise-kurtosis, noise-stationarity and
circuit-uncorrelated, read the waveform reference (``synth_band_limited``
and ``reference_waves``), which no command runs, and only reference faults
fail them: they gate the reference, not the program.

To add a gate: add its row here, with its sample set and the faults that
fail it, read its threshold, seeds and periods from the row in its test,
declare any overlap in ``shares``, and update ``SUITE_BOUND``.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional, Union

from scipy import stats

from kljn.exact import tail, window_eigenvalues
from mutants import FAULTS, REFERENCE

# the stream families a row's seeds key: kljn's period streams, or numpy's default generator
PHILOX, PCG64 = "rng_for_period", "default_rng"
# the z gate, and the p-value floor of the table gates
Z_GATE = 4.5
P_GATE = 1e-5
# the suite's false-alarm bound: the sum of the rows' unions
SUITE_BOUND = 0.02043955497


def normal_tail(z):
    """P(|N(0, 1)| >= z): a z gate's false alarm, in the normal approximation."""
    return math.erfc(z / math.sqrt(2))


def t_tail(t, dof):
    """P(|T| >= t) for Student's t on ``dof`` degrees of freedom: a gate on a mean over batches' standard error."""
    return float(2 * stats.t.sf(t, dof))


def chi2_tail(z, dof):
    """P(|X/dof - 1| >= z·sqrt(2/dof)) for X a chi-square on ``dof`` degrees of freedom: a level's z gate."""
    half_width = z * math.sqrt(2 * dof)
    return float(stats.chi2.sf(dof + half_width, dof) + stats.chi2.cdf(dof - half_width, dof))


def q_outside(gamma, half_width):
    """P(|Q - 1| >= half_width) for Q, a period's mean square over its level at γ and oversample 4."""
    lam = window_eigenvalues(gamma, 4)
    return tail(lam, 1 + half_width, True) + tail(lam, 1 - half_width, False)


@dataclass(frozen=True)
class Gate:
    """One statistical gate of tier-1, as its test runs it.

    ``test`` is the test's pytest id, ``file.py::[Class::]function``, over
    all its parameters, and ``values`` the number of values it checks in
    one run of them all. ``seeds`` holds the master seeds, keyed by the case
    each feeds where the test keys them, and ``periods`` the periods drawn
    under each seed. ``p`` is one value's false-alarm probability.
    ``faults`` names the faults of ``tests/mutants.py`` that fail the gate,
    and ``power`` the mutant test that injects one, where there is one.
    ``shares`` names the rows whose draws this row also reads.
    """

    test: str
    statistic: str
    threshold: float
    values: int
    seeds: Union[tuple, dict]
    periods: range
    p: float
    faults: tuple = ()
    power: Optional[str] = None
    shares: tuple = ()
    stream: str = PHILOX

    @property
    def union(self) -> float:
        """The probability that a correct program fails any of the gate's values, by the union bound."""
        return min(1.0, self.values * self.p)

    @property
    def gates_reference(self) -> bool:
        """Whether only faults of the waveform reference fail the gate."""
        return all(FAULTS[name].patches == REFERENCE for name in self.faults)

    @property
    def seed_set(self) -> set:
        return set(self.seeds.values() if isinstance(self.seeds, dict) else self.seeds)

    @property
    def seed(self) -> int:
        """The seed of a one-seed row."""
        (seed,) = self.seed_set
        return seed

    def config(self, base, case=None):
        """``base`` at the row's seed (``case``'s, where the row keys its seeds) and its period count."""
        seed = self.seed if case is None else self.seeds[case]
        return replace(base, master_seed=seed, n_periods=len(self.periods))


Z_P = normal_tail(Z_GATE)
ACCEPTANCE = "test_acceptance.py::"
PERIOD_0 = range(1)
# criterion 8 gates one run twice, so its two rows read one sample set
CRITERION_8 = dict(seeds=(17,), periods=range(10**6))
# the program faults that fail a forced state's rates and moments: the period, the band, the PSD, R1's PSD and
# the window
KERNEL_FAULTS = ("period", "band", "psd", "r1-psd", "whole-window")
# a sampled mean's and a sampled variance's mutants: a 10% longer period, and a band 10% wide at the same power
TEN_PERCENT_RATE = ACCEPTANCE + "test_exact_rate_gate_catches_10pct_mutants"
TEN_PERCENT_MOMENTS = ACCEPTANCE + "test_moment_gate_catches_10pct_mutants"

GATES = {
    # the level law at 10**7 samples is a chi-square on 5·10**6 degrees of freedom, a normal to 1e-4 of its tail;
    # the PSD and level faults fail the test's 1% tolerance before its gate
    "criterion-3-levels": Gate(
        ACCEPTANCE + "test_criterion_03_level_reproduction", "z of a printed level against its chi-square law",
        Z_GATE, 6, (42,), PERIOD_0, chi2_tail(Z_GATE, 5 * 10**6), faults=("r1-psd",)),
    "criterion-5-variance": Gate(
        ACCEPTANCE + "test_criterion_05_fluctuation_rms", "z of a forced 11 reading's variance against Var Q",
        Z_GATE, 4, {50: 1050, 100: 1100}, range(10**4), Z_P, faults=("period", "band", "psd", "r1-psd"),
        power=ACCEPTANCE + "test_criterion_05_gate_catches_10pct_mutants"),
    "criterion-6-rate": Gate(
        ACCEPTANCE + "test_criterion_06_monte_carlo_vs_analytic", "binomial z of the 11 current rate at γ = 50",
        Z_GATE, 1, (11,), range(10**5), Z_P, faults=("period", "band", "psd", "r1-psd"),
        power=ACCEPTANCE + "test_criterion_06_gate_catches_10pct_mutants"),
    "session-rates-gamma-30": Gate(
        ACCEPTANCE + "test_monte_carlo_vs_exact_rates_gamma_30", "binomial z of a random-bits session's current rates",
        4.0, 2, (1,), range(2 * 10**4), normal_tail(4.0), faults=("psd", "r1-psd", "whole-window"),
        shares=("rate-gamma-30",)),
    # 2·10**5 periods: a 10% error in the averaging period or the noise band moves the 00 rate about 13 SD
    "rate-gamma-30": Gate(
        ACCEPTANCE + "test_error_rate_vs_exact_rates_gamma_30", "binomial z of a forced state's rate",
        Z_GATE, 4, {"00": 1, "11": 2}, range(2 * 10**5), Z_P, faults=KERNEL_FAULTS, power=TEN_PERCENT_RATE),
    "rate-oversample-2": Gate(
        ACCEPTANCE + "test_error_rate_vs_exact_rates_at_oversample_2", "binomial z of a forced state's current rate",
        Z_GATE, 2, {"00": 31, "11": 32}, range(2 * 10**5), Z_P, faults=("trace-scaled", "period", "psd", "r1-psd",
        "whole-window"),
        power=ACCEPTANCE + "test_oversample_2_gate_catches_trace_scaling"),
    # 2·10**4 forced periods: a 10% error in the averaging period or the noise band moves each reading's
    # variance 6 to 9 SD
    "moments-gamma-30": Gate(
        ACCEPTANCE + "test_forced_reading_moments_gamma_30", "z of a forced reading's mean and variance against Q's",
        Z_GATE, 8, {"00": 1, "11": 2}, range(2 * 10**4), Z_P, faults=KERNEL_FAULTS, power=TEN_PERCENT_MOMENTS,
        shares=("rate-gamma-30", "session-rates-gamma-30")),
    # each γ runs at its own seed, so the four points are independent, as the slope's standard error takes them;
    # the whole-window fault, R1's PSD and PSD x2 fail the test's 30% slope tolerance before its gate
    "criterion-7-slope": Gate(
        ACCEPTANCE + "test_criterion_07_exponential_decay_slope",
        "z of the weighted least-squares slope of ln(rate) against the exact rates' slope",
        Z_GATE, 1, {20.0: 720, 30.0: 730, 40.0: 740, 50.0: 750}, range(5 * 10**4), Z_P,
        faults=("psd",)),
    "criterion-8-correlation": Gate(
        ACCEPTANCE + "test_criterion_08_independence_and_product_law",
        "sqrt(n) times the correlation of the forced 11 readings", 4.0, 1, **CRITERION_8, p=normal_tail(4.0),
        faults=("sign",), shares=("criterion-8-rates",)),
    "criterion-8-rates": Gate(
        ACCEPTANCE + "test_criterion_08_independence_and_product_law",
        "binomial z of the forced 11 voltage, current and combined rates", Z_GATE, 3, **CRITERION_8, p=Z_P,
        faults=KERNEL_FAULTS),
    # the statistic's chi-square approximation puts a table's false alarm at the floor itself
    "independence-product": Gate(
        ACCEPTANCE + "test_criterion_08_secure_table_is_exact_product",
        "Cressie-Read p-value of a forced state's secure table against the exact product (3 dof)",
        P_GATE, 2, {"00": 11, "11": 12}, range(2 * 10**5), P_GATE, faults=("sign", *KERNEL_FAULTS),
        power=ACCEPTANCE + "test_independence_gate_catches_sign_mutant", shares=("criterion-6-rate",)),
    "independence-0110": Gate(
        ACCEPTANCE + "test_0110_secure_table_is_independent",
        "Cressie-Read p-value of the 0110 secure table against independence (1 dof)",
        P_GATE, 1, (13,), range(2 * 10**5), P_GATE, faults=("sign",),
        power=ACCEPTANCE + "test_0110_gate_catches_sign_mutant"),
    # at least 2048 degrees of freedom in each of the 12 cases, 6 levels at each of 4 seeds
    "levels-chi2": Gate(
        "test_cli.py::TestLevels::test_levels_follow_exact_chi2_law", "z of a printed level against its chi-square law",
        Z_GATE, 288, (1, 2, 3, 4), PERIOD_0, chi2_tail(Z_GATE, 2048), faults=("level", "band", "psd", "r1-psd"),
        power="test_cli.py::TestLevels::test_exact_level_gate_catches_2pct_mutants",
        shares=("rate-gamma-30", "moments-gamma-30", "session-rates-gamma-30", "estimator-single-period")),
    # the mean square of 2**20 samples at f_s = 4B is a chi-square on 2**19 degrees of freedom (exact.level_law)
    "noise-variance": Gate(
        "test_noise.py::TestSynth::test_variance_matches_psd_times_bandwidth",
        "z of the mean square over S·B against its chi-square law", 3.0, 1, (7,), PERIOD_0, chi2_tail(3.0, 2**19),
        faults=("psd", "reference-clip", "reference-step"),
        power="test_noise.py::TestSynth::test_variance_gate_catches_2pct_psd", stream=PCG64),
    # the samples are correlated, with Σρ⁴ = 4/3 at oversample 4, so the excess kurtosis's standard error is
    # sqrt(24·Σρ⁴/N) = sqrt(32/N)
    "noise-kurtosis": Gate(
        "test_noise.py::TestSynth::test_gaussianity_excess_kurtosis", "excess kurtosis over sqrt(32/N)",
        5.0 / math.sqrt(4 / 3), 1, (11,), PERIOD_0, normal_tail(5.0 / math.sqrt(4 / 3)),
        faults=("reference-clip",), power="test_noise.py::TestSynth::test_kurtosis_gate_catches_clipping",
        stream=PCG64),
    # the variances' difference over two 32-batch standard errors: Welch's t, about 62 degrees of freedom
    "noise-stationarity": Gate(
        "test_noise.py::TestSynth::test_stationarity_between_halves",
        "the halves' variance difference over its batched standard error", 3.0, 1, (13,), PERIOD_0,
        t_tail(3.0, 62), faults=("reference-step",),
        power="test_noise.py::TestSynth::test_stationarity_gate_catches_2pct_step", stream=PCG64),
    "circuit-uncorrelated": Gate(
        "test_circuit.py::TestEmpiricalPhysics::test_voltage_current_uncorrelated_in_secure_state",
        "the mean of u·i in 0110 over its 64-batch standard error", 4.0, 1, (21,), PERIOD_0, t_tail(4.0, 63),
        faults=("reference-r1-psd", "reference-clip"),
        power="test_circuit.py::TestEmpiricalPhysics::test_uncorrelated_gate_catches_psd_not_proportional_to_r",
        stream=PCG64),
    # exact binomial: the count of 4000 fair draws lies 127 or more from 2000
    "secure-fraction": Gate(
        "test_protocol.py::TestRunSession::test_secure_fraction_near_half",
        "the count of 0110 periods against n/2, in binomial SDs", 4.0, 1, (13,), range(4000),
        float(2 * stats.binom.sf(2126, 4000, 0.5)), faults=("equal-bits",),
        power="test_protocol.py::TestRunSession::test_secure_fraction_gate_catches_equal_bits",
        shares=("independence-0110",)),
    "msq-correlation": Gate(
        "test_protocol.py::TestRunSession::test_msq_correlation_diagnostic",
        "sqrt(n) times the correlation of the forced 11 readings", 4.0, 1, (29,), range(2000), normal_tail(4.0),
        faults=("sign",), power="test_protocol.py::TestRunSession::test_msq_correlation_gate_catches_sign_mutant"),
    # one period's mean square over its level is Q at γ = 100, whose exact tails give the gate's false alarm
    "estimator-single-period": Gate(
        "test_estimator.py::TestMeasurePeriod::test_single_period_close_to_level",
        "sqrt(γ) times one period's error |Q - 1|, at γ = 100", 5.0, 1, (4,), PERIOD_0,
        q_outside(100.0, 5.0 / math.sqrt(100)), faults=("psd",),
        power="test_estimator.py::TestMeasurePeriod::test_single_period_gate_catches_doubled_psd"),
    # the kernel's forced 00 current readings over their level are Q at γ = 50, and no parameter of its CDF is
    # fitted, so the distance follows Kolmogorov's law (against a fitted normal it would not: Lilliefors 1967);
    # the 10% period and band faults cannot fail it at n = 1000, reading 1.28 and 1.27
    "estimator-ks": Gate(
        "test_estimator.py::TestFluctuationDistribution::test_period_averages_are_gaussian",
        "sqrt(n) times the KS distance of the period averages to Q's exact CDF", 1.628, 1, (17,), range(1000),
        float(stats.kstwo.sf(1.628 / math.sqrt(1000), 1000)), faults=("whole-window", "psd"),
        power="test_estimator.py::TestFluctuationDistribution::test_ks_gate_catches_whole_period_window",
        shares=("criterion-8-correlation", "criterion-8-rates")),
}
