"""Acceptance suite: one test per release criterion, with a pass line each.

The Monte Carlo criteria use factor-of-x tolerances because the closed-form
error probabilities are themselves rare-crossing approximations; the tests
document the exact tolerance next to each assertion.
"""

import json
import math

import numpy as np
import pytest

from kljn.analytic import (
    SQRT3,
    epsilon_combined,
    epsilon_current_00,
    epsilon_current_11,
    rice_rate,
    upcrossing_rate_flat,
)
from kljn.circuit import (
    LoopState,
    PhysicsConstants,
    ResistorSet,
    channel_waveforms,
    generator_psd,
    theoretical_levels,
)
from kljn.config import SystemConfig
from kljn.decision import CombinedOutcome, Interpretation, combine, interpret_arrays
from kljn.estimator import (
    AveragingWindow,
    averaged_fluctuation_rms,
    measurement_slice,
    squared_noise_psd_theory,
)
from kljn.noise import NoiseSpec, periodogram, rng_for_period, synth_band_limited, synth_band_limited_many
from kljn.protocol import extract_key, run_session
from moments import msq_correlation

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


def test_criterion_03_level_reproduction():
    n = 10**7
    resistors = ResistorSet(1.0, 10.0)
    levels = theoretical_levels(resistors, NORM, bandwidth=1.0)
    rng = np.random.default_rng(42)
    for bits, v_th, i_th in (
        ((0, 0), levels.v_00, levels.i_00),
        ((0, 1), levels.v_0110, levels.i_0110),
        ((1, 1), levels.v_11, levels.i_11),
    ):
        state = LoopState.from_bits(*bits, resistors)
        # Alice's wave, then Bob's, as two synth_band_limited calls give them; Alice's inverse
        # FFT runs on a helper thread while Bob's normals are drawn
        specs = [NoiseSpec(generator_psd(r, NORM), 1.0, 4.0, n) for r in (state.r_alice, state.r_bob)]
        u_c, i_c = channel_waveforms(*synth_band_limited_many(specs, rng), state.r_alice, state.r_bob)
        assert np.mean(u_c**2) == pytest.approx(v_th, rel=0.01)
        assert np.mean(i_c**2) == pytest.approx(i_th, rel=0.01)
        del u_c, i_c
    announce(3, "empirical channel mean squares match theory within 1% for all bit states")


def test_criterion_04_squared_noise_spectrum():
    n = 2**22
    resistors = ResistorSet(1.0, 10.0)
    state = LoopState.from_bits(1, 1, resistors)
    s_level = NORM.four_kt / state.r_loop
    rng = np.random.default_rng(7)
    spec = NoiseSpec(generator_psd(state.r_alice, NORM), 1.0, 4.0, n)
    u_a = synth_band_limited(spec, rng)
    u_b = synth_band_limited(spec, rng)
    _, i_c = channel_waveforms(u_a, u_b, state.r_alice, state.r_bob)
    squared = np.square(i_c)
    squared -= squared.mean()
    freqs, emp = periodogram(squared, 4.0, 256)
    theory = squared_noise_psd_theory(freqs, s_level, 1.0)
    sel = (freqs > 0) & (freqs <= 1.5)
    assert np.all(np.abs(emp[sel] / theory[sel] - 1.0) < 0.10)
    df = freqs[1] - freqs[0]
    out_of_support = emp[freqs > 2.0].sum() * df
    assert out_of_support < 0.02 * (emp.sum() * df)
    announce(4, "squared-current spectrum follows the triangular law within 10% per bin")


@pytest.mark.parametrize("gamma", [50, 100])
def test_criterion_05_fluctuation_rms(gamma):
    n_periods = 10**4
    fs, bw, psd = 4.0, 1.0, 1.0
    n = int(round(fs * gamma / bw))
    spec = NoiseSpec(psd, bw, fs, n)
    sl = measurement_slice(n)
    values = np.empty(n_periods)
    for k in range(n_periods):
        w = synth_band_limited(spec, rng_for_period(1000 + gamma, k))
        values[k] = np.mean(w[sl] ** 2)
    win = AveragingWindow(gamma=gamma, bandwidth=bw)
    predicted = averaged_fluctuation_rms(psd, win)
    assert values.std(ddof=1) == pytest.approx(predicted, rel=0.10)
    announce(5, f"finite-time average spread matches sqrt(2*gamma)*S*f_B at gamma={gamma}")


def test_criterion_06_monte_carlo_vs_analytic():
    cfg = SystemConfig(alpha=100.0, gamma=50.0, n_periods=10**5, master_seed=11)
    report = run_session(cfg, force_state="11", workers=2)
    est = report.rates["eps_hat_i_11"]
    analytic = epsilon_current_11(0.5, 50.0)
    assert analytic == pytest.approx(2.53e-2, rel=5e-3)
    assert analytic / 3 <= est.p <= analytic * 3
    assert est.ci_low > 0.0
    assert est.ci_high < 1.0 / SQRT3
    announce(6, "measured 11->secure current error rate within factor 3 of the closed form")


# Exact tail probabilities of the windowed current mean square at alpha = 100,
# gamma = 30 and threshold fraction 0.5 (Imhof's integral over the window's
# eigenvalues): 00 reads secure on the lower tail, 11 on the upper tail.
EXACT_I_00_G30 = 9.135e-3
EXACT_I_11_G30 = 3.685e-2


def test_monte_carlo_vs_exact_rates_gamma_30():
    """Both current-mode error rates sit within 4 standard errors of the exact rates.

    The paper's closed form gives 8.85e-2 for both states here: its exponent
    f^2/4 is only the second-order term that the lower tail's (-f - ln(1-f))/2
    and the upper tail's (f - ln(1+f))/2 share, so it is 9.7x the exact 00 rate.
    """
    cfg = SystemConfig(alpha=100.0, gamma=30.0, mode="current_only", n_periods=2 * 10**4, master_seed=1)
    report = run_session(cfg)
    for name, exact in (("eps_hat_i_00", EXACT_I_00_G30), ("eps_hat_i_11", EXACT_I_11_G30)):
        est = report.rates[name]
        z = (est.k - est.n * exact) / math.sqrt(est.n * exact * (1 - exact))
        assert abs(z) < 4, f"{name}: {est.k}/{est.n} is {z:+.2f} sd from {exact}"
    paper = epsilon_current_00(0.5, 30.0)
    assert paper == pytest.approx(8.85e-2, rel=1e-3)
    assert paper / EXACT_I_00_G30 == pytest.approx(9.7, abs=0.05)


def test_criterion_07_exponential_decay_slope():
    gammas = np.array([20.0, 30.0, 40.0, 50.0])
    n = 50_000
    counts, trials = [], []
    for gamma in gammas:
        cfg = SystemConfig(alpha=100.0, gamma=gamma, n_periods=n, master_seed=13)
        report = run_session(cfg, force_state="11", workers=2)
        counts.append(report.rates["eps_hat_i_11"].k)
        trials.append(report.rates["eps_hat_i_11"].n)
    eps = np.array(counts) / np.array(trials)
    # weighted LS on ln(eps); binomial weights: var(ln p_hat) ~ 1/k
    w = np.array(counts, dtype=float)
    design = np.vstack([np.ones_like(gammas), gammas]).T
    wls = np.linalg.lstsq(design * np.sqrt(w)[:, None], np.log(eps) * np.sqrt(w), rcond=None)
    slope = wls[0][1]
    target = -(0.5**2) / 4.0
    assert abs(slope - target) <= 0.30 * abs(target)
    announce(7, f"ln(error rate) decays in gamma with slope {slope:.4f} ~ -lambda^2/4")


def test_criterion_08_independence_and_product_law():
    n = 10**6
    cfg = SystemConfig(alpha=100.0, gamma=30.0, n_periods=n, master_seed=17)
    report = run_session(cfg, force_state="11", workers=2)
    corr = msq_correlation(report.moment_sums["11"])
    assert abs(corr) < 4.0 / math.sqrt(n)
    p_v = report.rates["eps_hat_v_11"].p
    p_i = report.rates["eps_hat_i_11"].p
    p_comb = report.rates["eps_hat_combined_11"].p
    assert p_v > 0 and p_i > 0 and p_comb > 0
    product = p_v * p_i
    assert product / 3 <= p_comb <= product * 3
    announce(
        8,
        f"msv/msi correlation {corr:+.1e} ~ 0 and combined rate {p_comb:.2e} "
        f"matches single-mode product {product:.2e}",
    )


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

    from kljn.cli import main

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
