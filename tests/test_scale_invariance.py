"""Physical-scale invariance: T_eff, R and B (at fixed gamma) scale the physical numbers, never a count.

Every count depends only on gamma, alpha, oversample, the threshold
fractions, the seed and the number of periods. Scaling t_eff, r or b_kljn by
a power of two scales each noise coefficient by a power of two (the square
root of 4x is exact in float64), so every level, mean square and cut is
scaled exactly and every comparison with a cut reads the same.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kljn import cli, protocol
from kljn.config import SystemConfig, with_overrides
from kljn.protocol import error_rate, run_session

BASE = SystemConfig(
    t_eff=300.0,
    r=1000.0,
    b_kljn=1000.0,
    gamma=30.0,
    beta=0.2,
    delta=0.2,
    lam=0.2,
    rho=0.2,
    n_periods=3000,
    master_seed=7,
)
SCALINGS = [(name, factor) for name in ("t_eff", "r", "b_kljn") for factor in (4.0, 0.25)]
IDS = [f"{name}x{factor:g}" for name, factor in SCALINGS]


def moment_factors(name, f):
    """The factors of [n, sum v, sum i, sum v^2, sum i^2, sum v*i] when ``name`` is scaled by ``f``.

    Voltage levels scale as t_eff * r * b_kljn and current levels as
    t_eff * b_kljn / r.
    """
    i = 1 / f if name == "r" else f
    return [1, f, i, f * f, i * i, f * i]


def scaled(name, factor):
    return with_overrides(BASE, **{name: getattr(BASE, name) * factor})


@pytest.fixture(scope="module")
def base_session():
    return run_session(BASE)


@pytest.fixture(scope="module")
def base_rates():
    modes = ("voltage", "current", "combined")
    return {(mode, state): error_rate(BASE, mode, state) for mode in modes for state in ("00", "11")}


@pytest.mark.parametrize("name, factor", SCALINGS, ids=IDS)
def test_session_counts_unchanged_and_moments_exactly_scaled(base_session, name, factor):
    base, report = base_session, run_session(scaled(name, factor))
    # the base has errors of every kind, so equal tables are not equal by emptiness
    assert all(base.confusion_v[a][a] < sum(base.confusion_v[a]) for a in (0, 1))
    for field in ("confusion_v", "confusion_i", "combined_counts", "rates", "fidelity", "discard_rate"):
        assert getattr(report, field) == getattr(base, field), field
    assert np.array_equal(report.bits, base.bits)
    assert np.array_equal(report.outcome_code, base.outcome_code)
    factors = moment_factors(name, factor)
    for state, sums in base.moment_sums.items():
        assert report.moment_sums[state] == [s * f for s, f in zip(sums, factors)], state


@settings(max_examples=30, deadline=None, derandomize=True)
@given(name=st.sampled_from(["t_eff", "r", "b_kljn"]), factor=st.floats(-3.0, 3.0).map(lambda e: 10.0**e))
def test_session_counts_unchanged_at_any_factor(base_session, name, factor):
    """Any factor in [1e-3, 1e3], not only a power of two: counts equal, moment sums scaled up to rounding."""
    base, report = base_session, run_session(scaled(name, factor))
    for field in ("confusion_v", "confusion_i", "combined_counts", "rates", "fidelity", "discard_rate"):
        assert getattr(report, field) == getattr(base, field), field
    assert np.array_equal(report.bits, base.bits)
    assert np.array_equal(report.outcome_code, base.outcome_code)
    factors = moment_factors(name, factor)
    for state, sums in base.moment_sums.items():
        expected = [s * f for s, f in zip(sums, factors)]
        assert report.moment_sums[state] == pytest.approx(expected, rel=1e-14, abs=0), state


@pytest.mark.parametrize("name, factor", SCALINGS, ids=IDS)
def test_error_rate_unchanged_in_every_mode(base_rates, name, factor):
    """Both kinds of chunk: two readings per period (combined) and one (voltage, current)."""
    config = scaled(name, factor)
    assert all(rate.k for rate in base_rates.values())  # errors in every mode and state
    for (mode, state), rate in base_rates.items():
        assert error_rate(config, mode, state) == rate, (mode, state)


def _run(tmp_path, command, config, out_name):
    path = tmp_path / f"{out_name}.cfg"
    keys = ("t_eff", "r", "b_kljn", "gamma", "master_seed")
    path.write_text("".join(f"{k} = {getattr(config, k)}\n" for k in keys))
    out = tmp_path / f"{out_name}.txt"
    assert cli.main(command + ["--config", str(path), "--out", str(out)]) == 0
    return out.read_text()


@pytest.mark.parametrize("name", ["t_eff", "r", "b_kljn"])
def test_levels_relative_errors_unchanged(tmp_path, name):
    command = ["levels", "--samples", "4096"]
    base = _run(tmp_path, command, BASE, "base").splitlines()[4:]
    got = _run(tmp_path, command, scaled(name, 4.0), "scaled").splitlines()[4:]
    assert len(got) == len(base) == 3
    for row, base_row in zip(got, base):
        # state, then theory, empirical and rel_err for voltage and for current
        columns, base_columns = row.split(), base_row.split()
        assert [columns[i] for i in (0, 3, 6)] == [base_columns[i] for i in (0, 3, 6)]


@pytest.mark.parametrize("name", ["t_eff", "r", "b_kljn"])
def test_spectra_ratios_unchanged(tmp_path, monkeypatch, name):
    """The empirical and theoretical densities that ``spectra`` prints, taken before printing."""
    results = []

    def recording(fn):
        def wrapper(*args):
            results.append(fn(*args))
            return results[-1]

        return wrapper

    monkeypatch.setattr(protocol, "periodogram", recording(protocol.periodogram))
    monkeypatch.setattr(cli, "squared_noise_psd_theory", recording(cli.squared_noise_psd_theory))
    command = ["spectra", "--samples", "4096", "--bins", "64"]
    _run(tmp_path, command, BASE, "base")
    _run(tmp_path, command, scaled(name, 4.0), "scaled")
    (_, emp), theory, (_, scaled_emp), scaled_theory = results
    band = theory > 0  # the theory is zero at twice the band edge and above
    assert band.sum() == 64
    assert np.array_equal(scaled_emp[band] / scaled_theory[band], emp[band] / theory[band])
