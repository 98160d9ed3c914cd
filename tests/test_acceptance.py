"""Acceptance suite: one test per release criterion, with a pass line each.

Criteria 3, 4 and 5 read the program: the levels that ``kljn levels``
prints, the spectrum that ``kljn spectra`` prints, and the kernel's forced
readings in ``run_session``'s moment sums. The Monte Carlo criteria keep
factor-of-x tolerances against the paper's closed forms, which are
rare-crossing approximations. Criteria 3 and 5 to 8 also carry exact gates:
against the chi-square level law, the window's cumulants, and the exact
rates of ``kljn.exact.rate``, each read at its gate's own config. Each gate
reads its threshold, seeds and periods from its row of ``gates.GATES``.
The rates and cumulants come from the library's one window operator,
``kljn.exact.window_gram``; the tests here also check that operator against
the window's cosine Toeplitz form, Imhof's integral (``tests/exact.py``) at
γ = 300, and ``rate``'s saddlepoint tails against Imhof's at every point a
gate reads and against the two pinned γ = 30 rates.
"""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2_contingency, power_divergence

from kljn.analytic import (
    SQRT3,
    epsilon_combined,
    epsilon_current_00,
    epsilon_current_11,
    rice_rate,
    upcrossing_rate_flat,
)
from kljn.circuit import LoopState, PhysicsConstants, ResistorSet, theoretical_levels
from kljn.cli import main
from kljn.config import SystemConfig
from kljn.decision import CombinedOutcome, Interpretation, combine, interpret_arrays
from kljn.estimator import AveragingWindow, averaged_fluctuation_rms, squared_noise_psd_theory
from kljn.exact import rate, tail, window_eigenvalues, window_gram
from kljn.protocol import ACTUAL_STATES, error_rate, extract_key, run_session
from exact import (
    binomial_z,
    imhof_upper_tail,
    level_law,
    msq_correlation,
    q_moment_z,
    q_sample_moments,
    window_cumulants,
)
from gates import GATES
from mutants import inject

NORM = PhysicsConstants.normalized()


def announce(num, description):
    print(f"PASS criterion {num}: {description}")


def test_criterion_01_analytic_golden_values():
    eps = epsilon_current_11(0.5, 100)
    assert 1.0e-3 <= eps <= 1.2e-3
    assert epsilon_combined(0.5, 0.5, 100) == pytest.approx(1.24e-6, rel=5e-3)
    assert epsilon_combined(0.5, 0.5, 200) == pytest.approx(4.6e-12, rel=2e-2)
    eps200 = epsilon_current_11(0.5, 200)
    assert 1e-6 / 3 <= eps200 <= 1e-6 * 3
    assert eps200 == pytest.approx(2.15e-6, rel=5e-3)
    announce(1, "closed-form error probabilities hit the published reference values")


def test_criterion_02_rice_consistency():
    rng = np.random.default_rng(123)
    s = 2.3
    for _ in range(100):
        lam = rng.uniform(0.05, 0.95)
        gamma = rng.uniform(10.0, 400.0)
        win = AveragingWindow(gamma=gamma, bandwidth=1.0)
        threshold = lam * s * gamma * win.f_b
        rms = s * win.f_b * math.sqrt(2.0 * gamma)
        moment = math.sqrt(2.0 * s * s * gamma * win.f_b**4 / 3.0)
        composed = rice_rate(threshold, rms, moment) / 2.0
        assert composed == pytest.approx(upcrossing_rate_flat(win, lam), rel=1e-12)
    announce(2, "closed-form upcrossing rate equals the composed Rice formula to 1e-12")


def test_criterion_03_level_reproduction(tmp_path):
    """``kljn levels`` prints all six levels within 1% of theory and within the z gate of their chi-square law
    (row criterion-3-levels)."""
    gate = GATES["criterion-3-levels"]
    n = 10**7
    levels = theoretical_levels(ResistorSet(1.0, 10.0), NORM, bandwidth=1.0)
    out = tmp_path / "levels.txt"
    assert main(["levels", "--samples", str(n), "--seed", str(gate.seed), "--out", str(out)]) == 0
    rows = [line.split() for line in out.read_text().splitlines()[4:]]
    mean, rel_sd = level_law(n, 4.0, 1.0)
    for row, state in zip(rows, ("00", "0110", "11"), strict=True):
        assert row[0] == state
        for printed, empirical, theory in (
            (row[1], row[2], levels.voltage_for(state)),
            (row[4], row[5], levels.current_for(state)),
        ):
            assert float(printed) == pytest.approx(theory, rel=1e-11)
            assert float(empirical) == pytest.approx(theory, rel=0.01)
            z = (float(empirical) / theory / mean - 1) / rel_sd
            assert abs(z) < gate.threshold, f"{state}: {empirical} is {z:+.2f} sd from its law"
    announce(3, "empirical channel mean squares match theory within 1% for all bit states")


def test_criterion_04_squared_noise_spectrum(tmp_path):
    """``kljn spectra`` prints the triangular law within 10% per bin up to 1.5 B, and under 2% of the power
    above its support, 2 B."""
    # oversample 8 puts the periodogram's top bin at 4 B, so 128 of its bins lie above the support
    cfg_path = tmp_path / "oversample8.cfg"
    cfg_path.write_text("oversample = 8\n")
    out = tmp_path / "spectra.csv"
    argv = ["spectra", "--config", str(cfg_path), "--samples", str(2**22), "--bins", "256", "--seed", "7"]
    assert main([*argv, "--out", str(out)]) == 0
    freqs, emp, printed = np.loadtxt(out, delimiter=",", skiprows=2, unpack=True)
    s_level = NORM.four_kt / LoopState.from_bits(1, 1, ResistorSet(1.0, 10.0)).r_loop
    theory = squared_noise_psd_theory(freqs, s_level, 1.0)
    np.testing.assert_allclose(printed, theory, rtol=1e-11, atol=0)
    sel = (freqs > 0) & (freqs <= 1.5)
    assert np.all(np.abs(emp[sel] / theory[sel] - 1.0) < 0.10)
    df = freqs[1] - freqs[0]
    above = freqs > 2.0
    assert above.sum() == 128
    out_of_support = emp[above].sum() * df
    assert out_of_support < 0.02 * (emp.sum() * df)
    announce(4, "squared-current spectrum follows the triangular law within 10% per bin")


VARIANCE_GATE = GATES["criterion-5-variance"]


def variance_z(gamma):
    """``{reading: (var, z)}`` of criterion 5's forced 11 readings over their levels at γ: the sample variance
    and its z-score against Var Q, at the γ's seed and periods of row criterion-5-variance."""
    cfg = VARIANCE_GATE.config(SystemConfig(gamma=gamma), gamma)
    n, sum_v, sum_i, sum_vv, sum_ii, _ = run_session(cfg, force_state="11").moment_sums["11"]
    levels = theoretical_levels(ResistorSet(1.0, 10.0), NORM, bandwidth=1.0)
    k2, k4 = window_cumulants(gamma, 4)
    got = {}
    for reading, total, squares, level in (("msv", sum_v, sum_vv, levels.v_11), ("msi", sum_i, sum_ii, levels.i_11)):
        mean, var = q_sample_moments(n, total, squares, level)
        got[reading] = var, q_moment_z(n, mean, var, k2, k4)[1]
    return got


@pytest.mark.parametrize("gamma", list(VARIANCE_GATE.seeds))
def test_criterion_05_fluctuation_rms(gamma):
    """The kernel's forced 11 readings spread as f_B·sqrt(2γ) over their levels, within 10%, and their
    variances lie within the z gate of the window's Var Q (row criterion-5-variance)."""
    # a flat band of unit mean square has S = 1/B = 1, so its fluctuation RMS is the relative spread
    predicted = averaged_fluctuation_rms(1.0, AveragingWindow(gamma=gamma, bandwidth=1.0))
    for reading, (var, z) in variance_z(gamma).items():
        assert math.sqrt(var) == pytest.approx(predicted, rel=0.10), reading
        assert abs(z) < VARIANCE_GATE.threshold, f"{reading} variance: {z:+.2f} sd from Var Q"
    announce(5, f"finite-time average spread matches sqrt(2*gamma)*S*f_B at gamma={gamma}")


CRITERION_6_GATE = GATES["criterion-6-rate"]
CRITERION_6_CONFIG = CRITERION_6_GATE.config(SystemConfig(alpha=100.0, gamma=50.0))


def criterion_6_z(workers):
    """``(z, est, exact)``: criterion 6's forced 11 current rate at γ = 50, at the seed and periods of row
    criterion-6-rate, its exact rate, and its z-score against it."""
    est = run_session(CRITERION_6_CONFIG, force_state="11", workers=workers).rates["eps_hat_i_11"]
    exact = rate(CRITERION_6_CONFIG, "11", "current")
    return binomial_z(est, exact), est, exact


def test_criterion_06_monte_carlo_vs_analytic():
    z, est, exact = criterion_6_z(workers=2)
    analytic = epsilon_current_11(0.5, 50.0)
    assert analytic == pytest.approx(2.53e-2, rel=5e-3)
    assert analytic / 3 <= est.p <= analytic * 3
    assert est.ci_low > 0.0
    assert est.ci_high < 1.0 / SQRT3
    assert exact == pytest.approx(1.2043e-2, rel=1e-4)
    assert abs(z) < CRITERION_6_GATE.threshold, f"{est.k}/{est.n} is {z:+.2f} sd from the exact rate {exact:.4e}"
    announce(6, "measured 11->secure current error rate within factor 3 of the closed form")


def test_monte_carlo_vs_exact_rates_gamma_30():
    """Both current-mode error rates sit within their gate's standard errors of the exact rates (row
    session-rates-gamma-30).

    The paper's closed form gives 8.85e-2 for both states here: its exponent
    f^2/4 is only the second-order term that the lower tail's (-f - ln(1-f))/2
    and the upper tail's (f - ln(1+f))/2 share, so it is 9.7x the exact 00 rate.
    """
    gate = GATES["session-rates-gamma-30"]
    cfg = gate.config(SystemConfig(alpha=100.0, gamma=30.0, mode="current_only"))
    report = run_session(cfg)
    for state in ("00", "11"):
        est, exact = report.rates[f"eps_hat_i_{state}"], rate(cfg, state, "current")
        z = binomial_z(est, exact)
        assert abs(z) < gate.threshold, f"eps_hat_i_{state}: {est.k}/{est.n} is {z:+.2f} sd from {exact}"
    paper = epsilon_current_00(0.5, 30.0)
    assert paper == pytest.approx(8.85e-2, rel=1e-3)
    assert paper / rate(cfg, "00", "current") == pytest.approx(9.7, abs=0.05)


# the physics of the γ = 30 gates; each gate's row gives its seeds and periods (forced 00 and 11 periods of
# one seed draw the same normals, so each state has its own seed)
EXACT_GATE_CONFIG = SystemConfig(alpha=100.0, gamma=30.0)
RATE_GATE = GATES["rate-gamma-30"]
# the (mode, state) cells of the γ = 30 rate gates; the current-mode cases keep the ids they had before the
# voltage-mode cases joined them
GATE_CELLS = [("current", "00"), ("current", "11"), ("voltage", "00"), ("voltage", "11")]
GATE_CELL_IDS = ["00", "11", "voltage-00", "voltage-11"]


def rate_z(mode, state, workers):
    """The z-score of ``error_rate``'s rate of ``EXACT_GATE_CONFIG`` at the state's seed and periods of row
    rate-gamma-30 in ``mode`` against ``kljn.exact.rate``, which reads neither the period's sample count nor
    the noise spec."""
    cfg = RATE_GATE.config(EXACT_GATE_CONFIG, state)
    return binomial_z(error_rate(cfg, mode, state, workers=workers), rate(cfg, state, mode))


@pytest.mark.parametrize("mode, state", GATE_CELLS, ids=GATE_CELL_IDS)
def test_error_rate_vs_exact_rates_gamma_30(mode, state):
    """The sweep's rate sits within the z gate of the exact rate (row rate-gamma-30)."""
    z = rate_z(mode, state, workers=2)
    assert abs(z) < RATE_GATE.threshold, f"{mode} {state}: {z:+.2f} sd from the exact rate"


@pytest.mark.parametrize("fault", ["period", "band"])
def test_exact_rate_gate_catches_10pct_mutants(fault):
    """The state-00 gate above fails on a kernel with either 10% fault, patched in this process (1 worker)."""
    with inject(fault, 1.1):
        z = rate_z("current", "00", workers=1)
    assert abs(z) >= RATE_GATE.threshold, f"{z:+.2f} sd from the exact rate"


@pytest.mark.parametrize("fault", ["period", "band"])
def test_criterion_05_gate_catches_10pct_mutants(fault):
    """All four variance gates of criterion 5 fail on a kernel with either 10% fault, patched in this process
    (1 worker)."""
    with inject(fault, 1.1):
        for gamma in VARIANCE_GATE.seeds:
            for reading, (_, z) in variance_z(gamma).items():
                assert abs(z) >= VARIANCE_GATE.threshold, f"γ = {gamma} {reading}: {z:+.2f} sd from Var Q"


@pytest.mark.parametrize("fault", ["period", "band"])
def test_criterion_06_gate_catches_10pct_mutants(fault):
    """Criterion 6's gate fails on a kernel with either 10% fault, patched in this process (1 worker)."""
    with inject(fault, 1.1):
        z = criterion_6_z(workers=1)[0]
    assert abs(z) >= CRITERION_6_GATE.threshold, f"{z:+.2f} sd from the exact rate"


MOMENT_GATE = GATES["moments-gamma-30"]


def moment_z(state):
    """z-scores ``{(reading, "mean" | "var"): z}`` of a forced state's readings over their levels against Q's moments,
    at the state's seed and periods of row moments-gamma-30.

    The mean of Q = reading/level is gated against E[Q] = 1 and its sample
    variance against κ2 (``exact.q_moment_z``). ``run_session``'s
    ``moment_sums`` give both.
    """
    cfg = MOMENT_GATE.config(EXACT_GATE_CONFIG, state)
    k2, k4 = window_cumulants(cfg.gamma, cfg.oversample)
    n, sum_v, sum_i, sum_vv, sum_ii, _ = run_session(cfg, force_state=state).moment_sums[state]
    levels = cfg.levels()
    z = {}
    for reading, total, squares, level in (
        ("msv", sum_v, sum_vv, levels.voltage_for(state)),
        ("msi", sum_i, sum_ii, levels.current_for(state)),
    ):
        z[reading, "mean"], z[reading, "var"] = q_moment_z(n, *q_sample_moments(n, total, squares, level), k2, k4)
    return z


def test_window_cumulants_gamma_30():
    # Var Q at gamma 30 is about 2/30.87: Q spreads as a chi-square of 30.87 degrees of freedom over its mean
    k2, k4 = window_cumulants(30.0, 4)
    assert k2 == pytest.approx(0.06479, abs=1e-5)
    assert 2 / k2 == pytest.approx(30.87, abs=0.01)
    # Σλ̂ = 1, so Σλ̂⁴ >= (Σλ̂²)³ (power means), with equality for a chi-square's equal eigenvalues
    assert 6 * k2**3 <= k4 <= 1.1 * 6 * k2**3


@pytest.mark.parametrize(
    "gamma, upper_11, lower_00",
    [(30.0, "3.685e-02", "9.135e-03"), (100.0, "8.645e-04", "6.156e-06")],
    ids=["gamma-30", "gamma-100"],
)
def test_exact_rates_from_the_window_eigenvalues(gamma, upper_11, lower_00):
    """The pinned exact current-mode rates at f = 0.5 follow from the window's eigenvalues and Imhof's integral.

    In state 11 the current reads secure on Q's upper tail, Q > 1.5; in
    state 00 on its lower tail, Q < 0.5. The eigenvalues come from
    ``eigvalsh`` of ``window_gram``; their sum and squared sum are checked
    against 1 and the operator's squared Frobenius norm over its squared
    trace, which needs no eigen-solve.
    """
    gram = window_gram(gamma, 4)
    lam = window_eigenvalues(gamma, 4)
    assert lam.sum() == pytest.approx(1.0, rel=1e-12)
    assert 2 * (lam**2).sum() == pytest.approx(2 * (gram**2).sum() / np.trace(gram) ** 2, rel=1e-10)
    upper, upper_error = imhof_upper_tail(lam, 1.5)
    lower_complement, lower_error = imhof_upper_tail(lam, 0.5)
    assert max(upper_error, lower_error) < 1e-10
    assert (f"{upper:.3e}", f"{1 - lower_complement:.3e}") == (upper_11, lower_00)


def test_imhof_tails_at_gamma_300():
    """Imhof's integral stays finite at gamma 300, where ρ(u) itself would pass float64 at ``quad``'s large u.

    The upper tail is pinned with ``quad``'s error estimate below 1e-3 of it.
    The lower tail, about 1.5e-14, lies below ``quad``'s absolute tolerance
    and cancels in 1 - P(Q > 0.5), so only its call is made.
    """
    lam = window_eigenvalues(300.0, 4)
    upper, error = imhof_upper_tail(lam, 1.5)
    assert f"{upper:.3e}" == "4.160e-08"
    assert error < 1e-3 * upper
    imhof_upper_tail(lam, 0.5)


# (γ, oversample, f, upper tail?) wherever quad's error estimate of Imhof's tail is below 1e-3 of it: at γ = 100,
# f = 0.7 the lower tail's estimate is 52 times the tail, so that point gates its upper tail alone. The last
# three are the other upper tails that criteria 6 and 7 read.
SADDLEPOINT_POINTS = [
    (gamma, oversample, f, upper)
    for gamma, oversample, f in [(g, o, f) for g, o in ((30.0, 4), (100.0, 4), (30.0, 2), (50.0, 2)) for f in (0.5, 0.7)]
    for upper in (True, False)
    if (gamma, f, upper) != (100.0, 0.7, False)
] + [(gamma, 4, 0.5, True) for gamma in (20.0, 40.0, 50.0)]


@pytest.mark.parametrize(
    "gamma, oversample, f, upper",
    SADDLEPOINT_POINTS,
    ids=[f"g{g:g}-os{o}-f{f}-{'upper' if u else 'lower'}" for g, o, f, u in SADDLEPOINT_POINTS],
)
def test_saddlepoint_tails_match_imhof(gamma, oversample, f, upper):
    """``kljn.exact.tail``, Lugannani & Rice's saddlepoint, lies within 1e-3 of Imhof's integral over one λ.

    The upper tail is read at Q > 1 + f, the lower at Q < 1 - f, as the
    11 and 00 current readings are at these fractions.
    """
    lam = window_eigenvalues(gamma, oversample)
    x = 1 + f if upper else 1 - f
    above, error = imhof_upper_tail(lam, x)
    reference = above if upper else 1 - above
    assert error < 1e-3 * reference
    assert tail(lam, x, upper) == pytest.approx(reference, rel=1e-3)


def test_saddlepoint_tails_near_the_mean():
    """Both tails match Imhof's near Q's mean, where u = ŝ·sqrt(K''(ŝ)) falls below 1e-4 and ``tail`` takes the
    limit of 1/u - 1/w, and on either side of that switch; the two tails sum to 1."""
    lam = window_eigenvalues(30.0, 4)
    for x in (1.0, 1 + 1e-5, 1 - 1e-5, 1 + 1e-3):
        above = imhof_upper_tail(lam, x)[0]
        assert tail(lam, x, True) == pytest.approx(above, rel=1e-3), x
        assert tail(lam, x, False) == pytest.approx(1 - above, rel=1e-3), x
        assert tail(lam, x, True) + tail(lam, x, False) == pytest.approx(1.0, rel=1e-14), x


def test_exact_rate_at_a_far_cut():
    """At α = 1e100 each reading's far cut lies 5e99 levels up or 1.5e-100 of a level down: the rates are the
    α = 100 ones, whose far cuts add under 1e-290, with no floating-point overflow or division by zero.

    The upper tail there is read as 0 from a Chernoff bound, because its
    saddlepoint lies nearer the pole than float64 resolves.
    """
    far = dataclasses.replace(EXACT_GATE_CONFIG, alpha=1e100)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for mode, state in GATE_CELLS:
            assert rate(far, state, mode) == pytest.approx(rate(EXACT_GATE_CONFIG, state, mode), rel=1e-12)


@pytest.mark.parametrize("mode, state", GATE_CELLS, ids=GATE_CELL_IDS)
def test_exact_rate_matches_the_pinned_rates(mode, state):
    """``kljn.exact.rate`` gives each pinned γ = 30 rate within 1e-3, and their product in combined mode.

    The pins are Imhof's current-mode rates (``test_exact_rates_from_the_window_eigenvalues``): 00 reads
    secure on Q's lower tail, 11 on its upper tail. At equal fractions every reading over its level has one
    law, so a voltage rate is the current rate of the other state, whose secure tail is the same.
    """
    other = {"00": "11", "11": "00"}[state]
    current_state = state if mode == "current" else other
    pinned = {"00": 9.135e-3, "11": 3.685e-2}[current_state]
    assert rate(EXACT_GATE_CONFIG, state, mode) == pytest.approx(pinned, rel=1e-3)
    if mode == "voltage":
        mirror = rate(EXACT_GATE_CONFIG, other, "current")
        assert rate(EXACT_GATE_CONFIG, state, mode) == pytest.approx(mirror, rel=1e-12)
    product = rate(EXACT_GATE_CONFIG, state, "voltage") * rate(EXACT_GATE_CONFIG, state, "current")
    assert rate(EXACT_GATE_CONFIG, state, "combined") == pytest.approx(product, rel=1e-12)


@pytest.mark.parametrize(
    "config, state, mode, match",
    [
        (SystemConfig(gamma=30.5), "11", "current", "gamma = 30.5 at oversample = 4"),
        (SystemConfig(), "0110", "current", "state must be one of 00, 11, got '0110'"),
        (SystemConfig(), "11", "both", "mode must be one of voltage, current, combined, got 'both'"),
    ],
    ids=["gamma", "state", "mode"],
)
def test_exact_rate_refuses(config, state, mode, match):
    """A config whose period is not an even multiple of oversample samples, a 0110 state and an unknown mode."""
    with pytest.raises(ValueError, match=match):
        rate(config, state, mode)


def test_exact_rate_peak_memory_at_gamma_500():
    """A γ = 500 rate traces at most three times G's 8 MB at its peak, and gives the rate that G built by
    ``irfft`` gave, within 1e-10.

    G is (2n/oversample)² float64s, 1000² here. Building S from the band's
    cosines holds S, its angles and one product at a time; the FFT-built
    operator also held a complex identity of S's size and its transform.
    """
    config = SystemConfig(gamma=500.0, alpha=100.0)
    tracemalloc.start()
    try:
        p = rate(config, "11", "current")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 1000**2 * 8, f"{peak / 1e6:.1f} MB"
    assert p == pytest.approx(2.559532711727668e-12, rel=1e-10)


# oversample 2 puts the Nyquist bin in band, which carries half a bin's power: Σλ = (n - 1)/n, not 1
NYQUIST_GATE_CONFIG = dataclasses.replace(EXACT_GATE_CONFIG, oversample=2)
NYQUIST_GATE = GATES["rate-oversample-2"]


@pytest.fixture(scope="module")
def nyquist_rates():
    """``error_rate``'s current-mode rate of forced 00 and 11 ``NYQUIST_GATE_CONFIG`` periods, each at its seed
    and periods of row rate-oversample-2."""
    return {
        state: error_rate(NYQUIST_GATE.config(NYQUIST_GATE_CONFIG, state), "current", state, workers=2)
        for state in NYQUIST_GATE.seeds
    }


def nyquist_z(nyquist_rates):
    """``{state: z}`` of each forced state's current rate against ``kljn.exact.rate``."""
    return {state: binomial_z(est, rate(NYQUIST_GATE_CONFIG, state, "current")) for state, est in nyquist_rates.items()}


def test_error_rate_vs_exact_rates_at_oversample_2(nyquist_rates):
    """At oversample 2 both current-mode rates sit within the z gate of ``kljn.exact.rate`` (row
    rate-oversample-2)."""
    for state, z in nyquist_z(nyquist_rates).items():
        assert abs(z) < NYQUIST_GATE.threshold, f"{state}: {z:+.2f} sd from the exact rate"


def test_oversample_2_gate_catches_trace_scaling(nyquist_rates):
    """The gate above fails on eigenvalues scaled to their trace, Σλ = 1, which drop the Nyquist bin's half bin."""
    with inject("trace-scaled"):
        z = nyquist_z(nyquist_rates)
    assert max(abs(v) for v in z.values()) >= NYQUIST_GATE.threshold, z


@pytest.mark.parametrize("oversample", [3, 4])
@pytest.mark.parametrize("gamma", [12.0, 30.0, 100.0])
def test_window_gram_matches_the_cosine_toeplitz_form(gamma, oversample):
    """The operator's λ̂ are the eigenvalues of the window's cosine Toeplitz form, and Σλ̂² is its lag sum.

    A period of n = oversample·γ samples whose band fills bins
    1..n/oversample (no Nyquist bin) has the periodic autocorrelation
    c(d) = Σ_k cos(2πkd/n). Over N_w·c(0), the covariance of its trailing
    N_w = n/2 samples is the Toeplitz matrix of t(d) = c(d)/(N_w·c(0)), of
    trace 1. It is a multiple of Sᵀ·S, so it shares its nonzero eigenvalues
    with G = S·Sᵀ/N_w over its trace; G has 2n/oversample - N_w more, all
    zero. Σλ̂² is the lag sum Σ_{|d|<N_w} (N_w - |d|)·t(d)².
    """
    n = round(oversample * gamma)
    n_w = n // 2
    lags = np.arange(n_w)
    c = np.cos(2 * np.pi * np.outer(lags, np.arange(1, n // oversample + 1)) / n).sum(axis=1)
    t = c / (n_w * c[0])
    toeplitz_lam = np.linalg.eigvalsh(t[np.abs(lags[:, None] - lags[None, :])])[::-1]
    lam = window_eigenvalues(gamma, oversample)[::-1]
    assert len(lam) == 2 * n // oversample
    np.testing.assert_allclose(lam, np.pad(toeplitz_lam, (0, len(lam) - n_w)), rtol=0, atol=1e-12)
    lag_sum = n_w * t[0] ** 2 + 2 * ((n_w - lags[1:]) * t[1:] ** 2).sum()
    assert (lam**2).sum() == pytest.approx(lag_sum, rel=1e-12)


@pytest.mark.parametrize("gamma", [30.0, 101.0, 500.0])
def test_window_eigenvalues_at_oversample_2_are_closed_form(gamma):
    """At oversample 2 the band holds every bin but DC, so λ is known in closed form, to 1e-15.

    With n = 2γ samples, SᵀS on the window is (2/n²)(nI − 11ᵀ): its nonzero
    λ are 2/n, n/2 − 1 times, and the Nyquist bin's 1/n, once, so Q is
    (2/n)·χ²_{n/2−1} + (1/n)·χ²₁. The other n/2 − 1 λ are zero.
    """
    n = round(2 * gamma)
    plateau = np.full(n // 2 - 1, 2 / n)
    expected = np.concatenate([plateau, [1 / n], np.zeros_like(plateau)])
    lam = np.sort(window_eigenvalues(gamma, 2))[::-1]
    np.testing.assert_allclose(lam, expected, rtol=0, atol=1e-15)


@pytest.mark.parametrize("state", list(MOMENT_GATE.seeds))
def test_forced_reading_moments_gamma_30(state):
    """Each forced reading's mean and variance over its level sit within the z gate of E[Q] and Var Q.

    Four z-scores per state (row moments-gamma-30). In a state of equal
    resistors, the voltage reads z_a + z_b and the current z_a - z_b, which
    are independent.
    """
    for (reading, moment), z in moment_z(state).items():
        assert abs(z) < MOMENT_GATE.threshold, f"{state} {reading} {moment}: {z:+.2f} sd from Q's"


@pytest.mark.parametrize("fault", ["period", "band"])
def test_moment_gate_catches_10pct_mutants(fault):
    """Both state-00 variance gates above fail on a kernel with either 10% fault; the means, whose power
    is unchanged, need not."""
    with inject(fault, 1.1):
        z = moment_z("00")
    assert z["msv", "var"] <= -MOMENT_GATE.threshold and z["msi", "var"] <= -MOMENT_GATE.threshold, z


def test_criterion_07_exponential_decay_slope():
    gate = GATES["criterion-7-slope"]
    gammas = np.array(list(gate.seeds))
    counts, trials, exact = [], [], []
    for gamma in gammas:
        cfg = gate.config(SystemConfig(alpha=100.0, gamma=gamma), gamma)
        report = run_session(cfg, force_state="11", workers=2)
        counts.append(report.rates["eps_hat_i_11"].k)
        trials.append(report.rates["eps_hat_i_11"].n)
        exact.append(rate(cfg, "11", "current"))
    eps = np.array(counts) / np.array(trials)
    # weighted LS on ln(eps), and with the same weights on ln(exact); binomial weights: var(ln p_hat) ~ 1/k
    w = np.array(counts, dtype=float)
    design = np.vstack([np.ones_like(gammas), gammas]).T
    y = np.column_stack([np.log(eps), np.log(exact)])
    wls = np.linalg.lstsq(design * np.sqrt(w)[:, None], y * np.sqrt(w)[:, None], rcond=None)
    slope, exact_slope = wls[0][1]
    target = -(0.5**2) / 4.0
    assert abs(slope - target) <= 0.30 * abs(target)
    # the fit's covariance (DᵀWD)⁻¹, with W the inverse variances
    se = math.sqrt(np.linalg.inv(design.T @ (w[:, None] * design))[1, 1])
    z = (slope - exact_slope) / se
    assert abs(z) < gate.threshold, f"slope {slope:.5f} is {z:+.2f} sd from the exact rates' {exact_slope:.5f}"
    announce(7, f"ln(error rate) decays in gamma with slope {slope:.4f} ~ -lambda^2/4")


def test_criterion_08_independence_and_product_law():
    correlation_gate, rate_gate = GATES["criterion-8-correlation"], GATES["criterion-8-rates"]
    cfg = rate_gate.config(EXACT_GATE_CONFIG)
    report = run_session(cfg, force_state="11", workers=2)
    corr = msq_correlation(report.moment_sums["11"])
    assert abs(corr) < correlation_gate.threshold / math.sqrt(cfg.n_periods)
    p_v = report.rates["eps_hat_v_11"].p
    p_i = report.rates["eps_hat_i_11"].p
    p_comb = report.rates["eps_hat_combined_11"].p
    assert p_v > 0 and p_i > 0 and p_comb > 0
    product = p_v * p_i
    assert product / 3 <= p_comb <= product * 3
    for name, mode in (("v", "voltage"), ("i", "current"), ("combined", "combined")):
        exact = rate(cfg, "11", mode)
        z = binomial_z(report.rates[f"eps_hat_{name}_11"], exact)
        assert abs(z) < rate_gate.threshold, f"eps_hat_{name}_11: {z:+.2f} sd from the exact rate {exact:.4e}"
    announce(
        8,
        f"msv/msi correlation {corr:+.1e} ~ 0 and combined rate {p_comb:.2e} "
        f"matches single-mode product {product:.2e}",
    )


PRODUCT_GATE = GATES["independence-product"]


def secure_table(cfg, state, workers=2):
    """Counts [[both secure, voltage only], [current only, neither]] of forced ``state`` periods of ``cfg``.

    A reading that is not secure is pooled into one row or column: in forced
    00 and 11 a reading never reads the other equal state, and in 0110 the
    voltage reads only 00 and the current only 11. Both readings are secure
    in exactly the periods kept as secure.
    """
    report = run_session(cfg, force_state=state, workers=workers)
    a = ACTUAL_STATES.index(state)
    v, i = report.confusion_v[a], report.confusion_i[a]
    if state == "0110":
        assert v[1] == i[0] == 0
    else:
        assert v[1 - a] == i[1 - a] == 0
    n, k_v, k_i = sum(v), v[2], i[2]
    k_vi = report.combined_counts[state][CombinedOutcome.KEEP_SECURE.value]
    return np.array([[k_vi, k_v - k_vi], [k_i - k_vi, n - k_v - k_i + k_vi]])


def product_divergence(state, workers=2):
    """The table of ``secure_table`` and its Cressie-Read statistic and p-value against the exact product law.

    The periods are ``EXACT_GATE_CONFIG``'s at the state's seed and periods
    of row independence-product. The expected table is n·p_v·p_i with each
    reading's exact rate (3 degrees of freedom: no parameter is estimated).
    """
    table = secure_table(PRODUCT_GATE.config(EXACT_GATE_CONFIG, state), state, workers)
    p_v, p_i = rate(EXACT_GATE_CONFIG, state, "voltage"), rate(EXACT_GATE_CONFIG, state, "current")
    expected = table.sum() * np.outer([p_v, 1 - p_v], [p_i, 1 - p_i])
    stat, p = power_divergence(table.ravel(), expected.ravel(), lambda_="cressie-read")
    return table, stat, p


@pytest.mark.parametrize("state", ["00", "11"])
def test_criterion_08_secure_table_is_exact_product(state):
    """A forced state's 2x2 table of (voltage secure, current secure) is the exact product multinomial.

    In a state of equal resistors the voltage reads z_a + z_b and the
    current z_a - z_b, which are independent, so the joint law is the
    product of the exact single-reading rates. Power-divergence statistic
    with λ = 2/3 (Read & Cressie 1988); the gate refuses below its row's p
    (row independence-product).
    """
    table, stat, p = product_divergence(state)
    assert p >= PRODUCT_GATE.threshold, f"{state}: {table.tolist()} reads {stat:.2f} (p = {p:.1e}) against the product"
    announce(8, f"forced {state} reading table matches the exact product law (p = {p:.2f})")


def test_independence_gate_catches_sign_mutant():
    """Both gates above fail on the loop law with Bob's current sign wrong, patched in this process.

    In 00 and 11 the mutant builds the current from z_a + z_b, as the
    voltage. Its marginals stay exact, but its two readings are one Q: the
    secure tails are opposite, so no period reads both secure, where about
    67 are expected.
    """
    with inject("sign"):
        for state in ("00", "11"):
            table, stat, p = product_divergence(state, workers=1)
            message = f"{state}: {table.tolist()} reads {stat:.2f}, p = {p:.1e}"
            assert table[0, 0] == 0 and p < PRODUCT_GATE.threshold, message


INDEPENDENCE_0110 = GATES["independence-0110"]


def independence_0110(workers=2):
    """The 0110 table of ``secure_table`` at row independence-0110's seed and periods, and its Cressie-Read
    statistic and p-value against independence, with the marginals estimated (1 degree of freedom)."""
    table = secure_table(INDEPENDENCE_0110.config(EXACT_GATE_CONFIG), "0110", workers)
    stat, p, _, _ = chi2_contingency(table, correction=False, lambda_="cressie-read")
    return table, stat, p


def test_0110_secure_table_is_independent():
    """In 0110 the two readings are independent too; their marginals have no exact rate here, so they are
    estimated, with the same statistic and gate (row independence-0110)."""
    table, stat, p = independence_0110()
    assert p >= INDEPENDENCE_0110.threshold, f"0110: {table.tolist()} reads {stat:.2f} (p = {p:.1e})"


def test_0110_gate_catches_sign_mutant():
    """The gate above fails on the loop law with Bob's current sign wrong, patched in this process.

    In 0110 the mutant's voltage and current weigh Bob's normals with one
    sign, so the two readings are correlated and the secure table is not
    a product.
    """
    with inject("sign"):
        table, stat, p = independence_0110(workers=1)
    assert p < INDEPENDENCE_0110.threshold, f"0110: {table.tolist()} reads {stat:.2f}, p = {p:.1e}"


def test_criterion_09_table_2_logic():
    S, B0, B1 = Interpretation.SECURE_0110, Interpretation.B00, Interpretation.B11
    expected = {
        (S, S): CombinedOutcome.KEEP_SECURE,
        (B0, B0): CombinedOutcome.DISCARD_INSECURE_00,
        (B0, S): CombinedOutcome.DISCARD_INSECURE_00,
        (S, B0): CombinedOutcome.DISCARD_INSECURE_00,
        (B1, B1): CombinedOutcome.DISCARD_INSECURE_11,
        (B1, S): CombinedOutcome.DISCARD_INSECURE_11,
        (S, B1): CombinedOutcome.DISCARD_INSECURE_11,
        (B0, B1): CombinedOutcome.ALARM_CONFLICT,
        (B1, B0): CombinedOutcome.ALARM_CONFLICT,
    }
    assert len(expected) == 9
    for (v, i), outcome in expected.items():
        assert combine(v, i) is outcome
    announce(9, "all 9 combined-decision cells map to the published verdicts")


def test_criterion_10_protocol_accounting_and_keys():
    n = 2000
    cfg = SystemConfig(gamma=60.0, n_periods=n, master_seed=19)
    report = run_session(cfg)
    assert sum(sum(v.values()) for v in report.combined_counts.values()) == n
    alice, bob = extract_key(report.bits, report.outcome_code)
    dangerous = (
        report.combined_counts["00"][CombinedOutcome.KEEP_SECURE.value]
        + report.combined_counts["11"][CombinedOutcome.KEEP_SECURE.value]
    )
    assert sum(a != b for a, b in zip(alice, bob)) == dangerous

    # injected errors: 00 periods disguised at the secure level, read by the
    # session's own interpretation code
    levels = cfg.levels()
    bad_bits = np.zeros((5, 2), dtype=np.int8)
    _, _, bad_outcome = interpret_arrays(
        np.full(5, levels.v_0110), np.full(5, levels.i_0110), cfg.bands()
    )
    alice, bob = extract_key(
        np.concatenate([report.bits, bad_bits]),
        np.concatenate([report.outcome_code, bad_outcome]),
    )
    assert sum(a != b for a, b in zip(alice, bob)) == dangerous + 5
    announce(10, "counts close, clean keys agree, injected errors mismatch exactly")


def test_criterion_11_determinism(tmp_path):
    cfg = SystemConfig(gamma=40.0, n_periods=400, master_seed=23)
    serial_1 = run_session(cfg)
    serial_2 = run_session(cfg)
    parallel = run_session(cfg, workers=2)
    dumps = [json.dumps(r.to_dict(), sort_keys=True) for r in (serial_1, serial_2, parallel)]
    assert dumps[0] == dumps[1] == dumps[2]

    cfg_path = tmp_path / "d.cfg"
    cfg_path.write_text("gamma = 40\nn_periods = 300\nmaster_seed = 23\n")
    outputs = []
    for k, workers in enumerate(("1", "2")):
        out = tmp_path / f"sweep{k}.csv"
        assert main([
            "sweep", "--config", str(cfg_path), "--gammas", "20,30",
            "--mode", "current", "--force-state", "11",
            "--workers", workers, "--out", str(out),
        ]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    announce(11, "reports and CSV outputs are byte-identical across reruns and workers")
