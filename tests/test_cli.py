import argparse
import ast
import json
import multiprocessing
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from kljn import cli, protocol
from kljn.cli import main
from kljn.config import ConfigError, load_config
from kljn.noise import rng_for_period
from exact import level_law
from gates import GATES
from goldens import compute, rows
from mutants import inject
from reference import reference_waves
from refusals import DRAWN, READ, REFUSALS, run, write_config

FAST_CONFIG = """
r = 1.0
alpha = 10
t_eff = normalized
b_kljn = 1.0
gamma = 30
n_periods = 200
master_seed = 5
mode = combined
"""


@pytest.fixture
def fast_config(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST_CONFIG)
    return str(path)


@pytest.fixture
def refuse(capsys, monkeypatch, tmp_path):
    """``refuse(key)`` runs the ``REFUSALS`` row ``key`` in process, with ``--out``, and checks the refusal.

    The run exits with the row's code, prints no stdout, writes no ``--out``
    file and leaves no child process. Its stderr starts as its code's
    refusals do (argparse's with its usage), holds the row's text, and has
    no line of 300 characters, also where the input is long. The draw, the
    period kernel and the worker share fail the test where the row is
    refused before any period, and the ``protocol`` functions the commands
    call where it is refused while its command reads its input.
    """

    def check(key):
        row, path, out = REFUSALS[key], tmp_path / "refused.cfg", tmp_path / "refused.out"
        write_config(row.config, path)
        with monkeypatch.context() as patch, pytest.warns(row.warns) if row.warns else warnings.catch_warnings():
            if not row.warns:
                warnings.simplefilter("error")  # a row that names no warning raises none
            if row.refused != DRAWN:
                for name in ("rng_for_period", "_simulate_chunk", "_Share"):
                    patch.setattr(protocol, name, mock.Mock(side_effect=AssertionError(f"{name} reached")))
            if row.refused == READ:
                for name in ("run_session", "error_rate", "level_readings", "squared_current_spectrum"):
                    patch.setattr(cli, name, mock.Mock(side_effect=AssertionError(f"{name} reached")))
            code = run(row.argv + ["--config", str(path), "--out", str(out)])
        std = capsys.readouterr()
        assert code == row.code
        assert std.out == "" and not out.exists()
        assert std.err.startswith("usage:" if row.usage else {2: "config error: ", 3: "runtime error: "}[code])
        text = row.err.replace("{config}", str(path))
        assert std.err == text if text.endswith("\n") else text in std.err
        assert all(len(line) < 300 for line in std.err.splitlines())
        assert multiprocessing.active_children() == []

    return check


def cases(group):
    """Parametrize ``key`` over the ``group[case]`` rows of ``REFUSALS``, with their case ids."""
    keys = [key for key in REFUSALS if key.startswith(group + "[")]
    return pytest.mark.parametrize("key", keys, ids=[key[len(group) + 1 : -1] for key in keys])


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def traced_peak(argv):
    """Exit code of ``main(argv)`` and the peak bytes it traced above what was allocated before."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        baseline = tracemalloc.get_traced_memory()[0]
        code = main(argv)
        return code, tracemalloc.get_traced_memory()[1] - baseline
    finally:
        if not tracing:
            tracemalloc.stop()


def levels_z(capsys, tmp_path, oversample, n, seed):
    """The z-scores of the six levels ``kljn levels`` prints, each over its theory column, against their exact law.

    The law is ``exact.level_law`` at the config's sample rate and band;
    values in state and then voltage, current order.
    """
    path = tmp_path / "os.cfg"
    path.write_text(f"oversample = {oversample}\n")
    code, out, _ = run_cli(capsys, ["levels", "--config", str(path), "--samples", str(n), "--seed", str(seed)])
    assert code == 0
    config = load_config(str(path))
    mean, rel_sd = level_law(n, config.sample_rate, config.b_kljn)
    rows = [line.split() for line in out.splitlines()[4:]]
    ratios = np.array([[float(row[2]) / float(row[1]), float(row[5]) / float(row[4])] for row in rows])
    return (ratios.ravel() / mean - 1) / rel_sd


class TestLevels:
    def test_peak_memory_bounded_by_signal_size(self, tmp_path):
        # one state's normals (half a signal each at oversample 4), the one spectrum the readings are
        # filled into, cut after the band's top bin, and one reading's squared in-band slots (half a
        # signal each), and no wave: 2.00 signal sizes measured
        n = 2**20
        code, peak = traced_peak(["levels", "--samples", str(n), "--out", str(tmp_path / "l.txt")])
        assert code == 0
        assert peak <= 2.25 * 8 * n, f"peak {peak / (8 * n):.2f}x the signal's bytes"

    @pytest.mark.parametrize("n", [4, 4097, 65536], ids=["shortest", "odd", "even"])
    @pytest.mark.parametrize("config_text", ["", "oversample = 2\nt_eff = 1e18\n"], ids=["oversample-4", "nyquist-si"])
    def test_values_match_waveform_pipeline(self, capsys, monkeypatch, tmp_path, config_text, n):
        """Each printed level is the whole-wave mean square of the loop solved on six syntheses.

        Values are printed at full precision for the comparison. The
        reference synthesizes Alice's then Bob's wave per state from the one
        stream, solves the loop on the samples and averages the squares;
        ``oversample = 2`` with an even ``n`` fills the Nyquist bin.
        """
        path = tmp_path / "levels.cfg"
        path.write_text(config_text)
        monkeypatch.setattr(cli, "_fmt", lambda x, spec=None: repr(x))
        code, out, _ = run_cli(capsys, ["levels", "--config", str(path), "--samples", str(n)])
        assert code == 0
        rows = [line.split() for line in out.splitlines()[4:]]
        assert [row[0] for row in rows] == ["00", "0110", "11"]

        config = load_config(str(path))
        rng = rng_for_period(config.master_seed, 0)
        for row, bits in zip(rows, ((0, 0), (0, 1), (1, 1))):
            expected = [np.mean(np.square(w)) for w in reference_waves(config, bits, n, rng)]
            np.testing.assert_allclose([float(row[2]), float(row[5])], expected, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("n", [4097, 65536, 262143, 2**20])
    @pytest.mark.parametrize("oversample", [2, 3, 4])
    def test_levels_follow_exact_chi2_law(self, capsys, tmp_path, oversample, n):
        """Every printed level over its theory column lies within the z gate of its exact law, at each seed of
        row levels-chi2.

        The law is a scaled chi-square on 2K + nyq degrees of freedom, for K
        in-band bins and nyq in-band Nyquist bins (``exact.level_law``).
        """
        gate = GATES["levels-chi2"]
        for seed in gate.seeds:
            z = levels_z(capsys, tmp_path, oversample, n, seed)
            assert np.abs(z).max() < gate.threshold, f"seed {seed}: z = {np.round(z, 2).tolist()}"

    @pytest.mark.parametrize("fault", [("level",), ("band", 1.02, 1.0)], ids=["level", "band"])
    def test_exact_level_gate_catches_2pct_mutants(self, capsys, tmp_path, fault):
        """At 2**20 samples (oversample 4, SD 0.2%), one level 2% high, or a band 2% wide at the same PSD,
        moves a printed level more than 8 SD."""
        with inject(*fault):
            z = levels_z(capsys, tmp_path, 4, 2**20, GATES["levels-chi2"].seeds[0])
        assert np.abs(z).max() > 8, np.round(z, 2).tolist()

    def test_reference_levels_in_output(self, capsys, fast_config):
        code, out, _ = run_cli(capsys, ["levels", "--config", fast_config, "--samples", "65536"])
        assert code == 0
        assert "0.05" in out and "0.5" in out
        assert "config_hash=" in out

    def test_si_constant_echoed(self, capsys, tmp_path):
        path = tmp_path / "si.cfg"
        path.write_text("t_eff = 1e18\n")
        code, out, _ = run_cli(capsys, ["levels", "--config", str(path), "--samples", "4096"])
        assert code == 0
        assert "1.380649e-23" in out

    @cases("infinite-gamma")
    def test_infinite_gamma_is_config_error(self, refuse, key):
        refuse(key)

    @pytest.mark.parametrize(
        "failing_call",
        # the 0110 voltage's mean square, after the 00 row; or the 11 voltage's, after the 0110 row
        [3, 5],
        ids=["third-mean-square", "fifth-mean-square"],
    )
    def test_failure_prints_no_partial_table(self, capsys, monkeypatch, tmp_path, failing_call):
        original, calls = protocol._whole_mean_square, []

        def fails_once(*args):
            calls.append(None)
            if len(calls) == failing_call:
                raise ValueError("non-finite values: the noise level overflows float64")
            return original(*args)

        monkeypatch.setattr(protocol, "_whole_mean_square", fails_once)
        out_path = tmp_path / "levels.txt"
        threads = threading.active_count()
        code, out, err = run_cli(capsys, ["levels", "--samples", "8192", "--out", str(out_path)])
        assert code == 3
        assert out == "" and not out_path.exists()
        assert "non-finite" in err
        assert threading.active_count() == threads  # no thread outlives the command

    def test_allocation_failure_is_runtime_error(self, capsys, tmp_path):
        # 2**50 samples pass every size check, and their first array (8 PiB of normals) is refused at once
        out_path = tmp_path / "levels.txt"
        threads = threading.active_count()
        code, out, err = run_cli(capsys, ["levels", "--samples", str(2**50), "--out", str(out_path)])
        assert code == 3
        assert out == "" and not out_path.exists()
        assert err.startswith("runtime error:") and "Traceback" not in err
        assert threading.active_count() == threads

    def test_too_few_samples_is_config_error(self, refuse):
        refuse("levels-too-few-samples")

    def test_no_in_band_bin_is_config_error(self, refuse):
        refuse("levels-no-in-band-bin")

    def test_shortest_synthesis_runs(self, capsys):
        # 4 samples at oversample 4 put bin 1 at the band edge
        code, out, _ = run_cli(capsys, ["levels", "--samples", "4"])
        assert code == 0
        empirical = [float(line.split()[2]) for line in out.splitlines()[4:]]
        assert len(empirical) == 3 and all(level > 0 for level in empirical)

    def test_invalid_alpha_names_constraint(self, refuse):
        refuse("levels-invalid-alpha")


class TestSweep:
    def test_analytic_column_golden(self, capsys, fast_config):
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--config", fast_config, "--gammas", "100",
             "--mode", "current", "--force-state", "11"],
        )
        assert code == 0
        row = out.splitlines()[2].split(",")
        assert float(row[0]) == 100.0
        assert float(row[1]) == pytest.approx(1.114e-3, rel=1e-3)
        assert int(row[6]) == 200  # n_trials from config n_periods

    def test_combined_analytic_pair(self, capsys, fast_config):
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--config", fast_config, "--gammas", "100,200",
             "--mode", "combined", "--force-state", "00"],
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[2:]]
        assert float(rows[0][1]) == pytest.approx(1.24e-6, rel=3e-3)
        assert float(rows[1][1]) == pytest.approx(4.6e-12, rel=7e-3)

    def test_empty_gamma_list_is_usage_error(self, refuse):
        refuse("sweep-empty-gammas")

    def test_infinite_gamma_in_list_is_config_error(self, refuse):
        refuse("sweep-infinite-gamma-in-list")

    def test_descending_gammas_rejected(self, refuse):
        refuse("sweep-descending-gammas")

    def test_empty_secure_band_is_runtime_error(self, refuse):
        refuse("empty-secure-band[sweep]")

    def test_deterministic_output(self, capsys, fast_config, tmp_path):
        argv = ["sweep", "--config", fast_config, "--gammas", "20,30",
                "--mode", "current", "--force-state", "11"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2


class TestSession:
    def test_report_and_keys(self, capsys, fast_config):
        code, out, _ = run_cli(capsys, ["session", "--config", fast_config])
        assert code == 0
        payload = json.loads(out)
        counts = payload["combined_counts"]
        assert sum(sum(v.values()) for v in counts.values()) == payload["n_periods"] == 200
        expected_hex_len = 2 * ((payload["key_bits"] + 7) // 8)
        assert len(payload["alice_key_hex"]) == expected_hex_len
        assert len(payload["bob_key_hex"]) == expected_hex_len
        assert set(payload["rates"]) == {
            "eps_hat_v_00", "eps_hat_v_11", "eps_hat_i_00", "eps_hat_i_11",
            "eps_hat_combined_00", "eps_hat_combined_11",
        }
        assert "fidelity" in payload and "discard_rate" in payload

    def test_byte_identical_reruns(self, capsys, fast_config):
        _, out1, _ = run_cli(capsys, ["session", "--config", fast_config])
        _, out2, _ = run_cli(capsys, ["session", "--config", fast_config])
        assert out1 == out2

    def test_zero_periods_usage_error(self, refuse):
        refuse("unrunnable[session-zero-periods]")

    def test_empty_secure_band_is_runtime_error(self, refuse):
        refuse("empty-secure-band[session]")

    def test_seed_flag_changes_output(self, capsys, fast_config):
        _, out1, _ = run_cli(capsys, ["session", "--config", fast_config, "--seed", "1"])
        _, out2, _ = run_cli(capsys, ["session", "--config", fast_config, "--seed", "2"])
        assert out1 != out2


@cases("workers-below-one")
def test_workers_below_one_is_config_error(refuse, key):
    refuse(key)


@cases("unrunnable")
def test_unrunnable_config_is_config_error(refuse, key):
    refuse(key)


@cases("unreadable")
def test_unreadable_config_is_config_error(refuse, key):
    refuse(key)


@cases("refused-by-every-command")
def test_unrunnable_config_refused_by_every_command(refuse, key):
    refuse(key)


@cases("no-in-band-bin")
def test_no_in_band_bin_is_config_error(refuse, key):
    refuse(key)


@pytest.mark.filterwarnings("ignore::kljn.estimator.SmallGammaWarning")
def test_nyquist_only_period_runs(capsys, tmp_path):
    """gamma 0.5 at oversample 2: 2 samples per period, whose one in-band bin is the Nyquist bin."""
    path = tmp_path / "nyquist.cfg"
    path.write_text("gamma = 0.5\noversample = 2\nn_periods = 50\n")
    code, out, _ = run_cli(capsys, ["session", "--config", str(path)])
    assert code == 0
    for n, sum_v, sum_i, *_ in json.loads(out)["moment_sums"].values():
        assert n == 0 or (sum_v > 0 and sum_i > 0)


def test_sweep_force_state_0110_is_usage_error(refuse):
    refuse("sweep-force-state-0110")


class TestSpectra:
    def test_theory_column_shape(self, capsys, fast_config):
        code, out, _ = run_cli(
            capsys,
            ["spectra", "--config", fast_config, "--samples", "65536", "--bins", "32"],
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[2:]]
        f0, _, th0 = (float(x) for x in rows[0])
        assert f0 == 0.0
        # peak = 2 * B * S^2 with S the 11-state current PSD (alpha=10, R=1)
        s_level = 1.0 / 20.0
        assert th0 == pytest.approx(2 * s_level**2)
        for f, _, th in ((float(a), float(b), float(c)) for a, b, c in rows):
            if f >= 2.0:
                assert th == 0.0

    def test_output_file(self, capsys, fast_config, tmp_path):
        out_path = tmp_path / "spec.csv"
        code, out, _ = run_cli(
            capsys,
            ["spectra", "--config", fast_config, "--samples", "16384",
             "--bins", "16", "--out", str(out_path)],
        )
        assert code == 0
        assert out == ""
        assert out_path.read_text().startswith("#")

    @cases("spectra-bad-size")
    def test_bad_size_is_config_error(self, refuse, key):
        refuse(key)

    def test_no_in_band_bin_is_config_error(self, refuse):
        refuse("spectra-no-in-band-bin")

    def test_values_match_scipy_welch_pipeline(self, capsys, monkeypatch, fast_config):
        """The printed spectrum is the old solve, square and ``scipy.signal.welch`` pipeline's.

        Values are printed at full precision for the comparison; the tolerance
        also holds where scipy's welch sums in another order (scipy 1.8).
        """
        from scipy import signal

        n, n_bins = 65536, 64
        monkeypatch.setattr(cli, "_fmt", repr)
        code, out, _ = run_cli(
            capsys, ["spectra", "--config", fast_config, "--samples", str(n), "--bins", str(n_bins)]
        )
        assert code == 0
        rows = np.array([[float(x) for x in line.split(",")] for line in out.splitlines()[2:]])

        config = load_config(fast_config)
        _, i_c = reference_waves(config, (1, 1), n, rng_for_period(config.master_seed, 0))
        squared = np.square(i_c)
        squared -= squared.mean()
        freqs, density = signal.welch(
            squared, fs=config.sample_rate, window="boxcar", nperseg=2 * n_bins, noverlap=0, detrend=False
        )
        assert rows.shape == (n_bins + 1, 3)
        np.testing.assert_allclose(rows[:, 0], freqs, rtol=1e-12, atol=0)
        np.testing.assert_allclose(rows[:, 1], density, rtol=1e-12, atol=0)

    def test_peak_memory_bounded_by_signal_size(self, tmp_path):
        # the normals and a spectrum cut after the band's top bin (a quarter signal at oversample 4),
        # then that spectrum and the current during the one inverse FFT; the peak is the periodogram's:
        # the squared current, its power table (half a signal at 256 bins) and one chunk's transforms,
        # 1.79 signal sizes measured
        n = 2**20
        argv = ["spectra", "--samples", str(n), "--bins", "256", "--out", str(tmp_path / "s.csv")]
        code, peak = traced_peak(argv)
        assert code == 0
        assert peak <= 2 * 8 * n, f"peak {peak / (8 * n):.2f}x the signal's bytes"


@rows("test_golden_output")
def test_golden_output(row):
    """spectra and levels print the bytes they printed when each synthesis ran alone; ``oversample = 2`` fills
    the Nyquist bin."""
    assert compute(row) == row.recorded


@rows("test_golden_run_output")
def test_golden_run_output(row):
    """session and sweep print the bytes they printed before their run rules were each stated once.

    The session digests pin the JSON's confusion tables, combined counts,
    rates, moment sums and key hex, not only what the acceptance tests read;
    ``counts_sha256`` pins the JSON without its moment sums.
    """
    assert compute(row) == row.recorded


def test_package_root_exports_no_waveform_reference():
    """``import kljn`` binds no test-only function: the reference stays importable from its module only."""
    import kljn

    reference = [
        "channel_waveforms", "measure_period", "synth_band_limited", "interpret_current", "interpret_voltage",
    ]
    assert [name for name in reference if hasattr(kljn, name)] == []


# finite configs whose noise levels overflow float64 in the squared-current periodogram only, or
# whose products under the coefficient scales' roots overflow too, while the scales, the levels and
# the mean squares (up to about 1e306) fit
PERIODOGRAM_OVERFLOW = "t_eff = 1e290\nr = 1\nalpha = 1000\n"
SYNTHESIS_OVERFLOW = "t_eff = 3.6e305\nr = 1e20\nalpha = 1000\n"
# finite levels and mean squares, but 11 loop currents near 1.7e307 whose squares overflow
SQUARE_OVERFLOW = "r = 1e-10\nb_kljn = 3.4e298\n"
_OUTPUT = "runtime error: non-finite output values: the noise levels overflow float64\n"


class TestNonFiniteOutput:
    @pytest.mark.parametrize(
        "argv, text, err_wanted",
        [
            (["spectra", "--samples", "8192", "--bins", "64"], PERIODOGRAM_OVERFLOW, _OUTPUT),
            # the squared current's density, printed by _fmt, overflows
            (["spectra", "--samples", "8192", "--bins", "64"], SYNTHESIS_OVERFLOW, _OUTPUT),
            (["levels", "--samples", "8192"], SYNTHESIS_OVERFLOW, ""),
            # two shares of two periods, the calling process's and the pool's: the JSON guard refuses
            # the report's overflowed second moments
            (["session", "--workers", "2"], SYNTHESIS_OVERFLOW + "n_periods = 4\n", _OUTPUT),
            (["sweep", "--gammas", "30", "--workers", "2"], SYNTHESIS_OVERFLOW + "n_periods = 4\n", ""),
            (["levels", "--samples", "8192"], SQUARE_OVERFLOW, ""),
            (["spectra", "--samples", "8192", "--bins", "64"], SQUARE_OVERFLOW, _OUTPUT),
        ],
        ids=[
            "spectra-periodogram",
            "spectra-synthesis",
            "levels-synthesis",
            "session-w2-synthesis",
            "sweep-w2-synthesis",
            "levels-square",
            "spectra-square",
        ],
    )
    def test_overflow_is_runtime_error(self, capsys, tmp_path, argv, text, err_wanted, monkeypatch):
        """A command near float64's top exits 3 only where a number it prints overflows, else 0 with finite numbers.

        Under the suite's ``error::RuntimeWarning`` filter a numpy warning,
        in this process or a worker's, would fail the run: ``err_wanted`` is
        all of stderr.
        """
        path = tmp_path / "overflow.cfg"
        path.write_text(text)
        monkeypatch.setattr(protocol, "_usable_cpus", lambda: 2)  # a pool on any machine
        code, out, err = run_cli(capsys, argv + ["--config", str(path)])
        assert err == err_wanted
        assert multiprocessing.active_children() == []  # no pool process outlives the run
        if err_wanted:
            assert (code, out) == (3, "")
            return
        assert code == 0
        numbers = []
        for token in out.replace(",", " ").split():
            try:
                numbers.append(float(token))
            except ValueError:
                pass
        # levels' 18 readings, theories and relative errors, or the sweep row's 7 values
        assert len(numbers) >= 7 and np.isfinite(numbers).all()

    def test_overflowing_report_value_is_runtime_error(self, refuse):
        refuse("session-report-overflow")

    @cases("level-overflow")
    def test_overflowing_levels_are_runtime_error(self, refuse, key):
        refuse(key)

    def test_levels_finite_where_only_the_periodogram_overflows(self, capsys, tmp_path):
        # the mean squares themselves (about 1e270) are finite, so levels reports them
        path = tmp_path / "large.cfg"
        path.write_text(PERIODOGRAM_OVERFLOW)
        code, out, _ = run_cli(capsys, ["levels", "--samples", "8192", "--config", str(path)])
        assert code == 0
        rows = [line.split() for line in out.splitlines()[4:]]
        assert [row[0] for row in rows] == ["00", "0110", "11"]
        assert np.isfinite([float(x) for row in rows for x in row[1:]]).all()


# normal noise levels whose squared mean squares fall below the smallest normal float64
# (about 1e-340 at t_eff 1e-150) or stay above it (about 1e-244 at t_eff 1e-100)
UNDERFLOW = "t_eff = 1e-150\ngamma = 30\nn_periods = 50\n"
NO_UNDERFLOW = "t_eff = 1e-100\ngamma = 30\nn_periods = 50\n"


class TestUnderflowedOutput:
    def test_underflowed_moment_sums_are_runtime_error(self, refuse):
        for key in ("session-underflow[gamma-30]", "session-underflow[gamma-100]"):
            refuse(key)

    def test_small_normal_moment_sums_are_printed(self, capsys, tmp_path):
        path = tmp_path / "small.cfg"
        path.write_text(NO_UNDERFLOW)
        code, out, _ = run_cli(capsys, ["session", "--config", str(path)])
        assert code == 0
        sums = json.loads(out)["moment_sums"]
        assert sums and all(n > 0 and min(rest) >= sys.float_info.min for n, *rest in sums.values())
        assert min(min(rest[2:]) for _, *rest in sums.values()) < 1e-240

    def test_sweep_prints_no_moment_sums(self, capsys, tmp_path):
        path = tmp_path / "underflow.cfg"
        path.write_text(UNDERFLOW)
        code, out, _ = run_cli(capsys, ["sweep", "--gammas", "30", "--config", str(path)])
        assert code == 0
        assert out.splitlines()[2].startswith("30,")


class TestRepeatedMain:
    """``main`` runs pass after pass in one process: it builds its parser once and carries nothing over."""

    def test_parser_built_once(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        argv = ["session", "--workers", "0"]  # refused before any period runs
        first = run_cli(capsys, argv)
        n_first = len(built)
        assert run_cli(capsys, argv) == first and first[0] == 2
        # the first call builds at most the one tree (kljn and its four commands), the second none
        assert n_first <= 5 and len(built) == n_first

    def test_no_parsed_value_carries_over(self, capsys, monkeypatch):
        calls = []

        def recording_session(config, **kwargs):
            calls.append((config.master_seed, kwargs))
            raise ConfigError("stopped before any period runs")

        monkeypatch.setattr(cli, "run_session", recording_session)
        monkeypatch.setattr(cli, "error_rate", recording_session)
        for argv in (
            ["session", "--workers", "2", "--force-state", "0110", "--seed", "7"],
            ["sweep", "--gammas", "30", "--workers", "2", "--force-state", "00"],
            ["session"],
        ):
            assert main(argv) == 2
        capsys.readouterr()
        assert calls == [
            (7, {"force_state": "0110", "workers": 2}),
            (1, {"mode": "combined", "force_state": "00", "workers": 2}),
            (1, {"force_state": None, "workers": 1}),
        ]


def test_cli_imports_no_private_kljn_name_and_no_numpy():
    """``cli`` only parses and prints: it imports no numpy and no ``_``-prefixed name of a kljn module.

    ``levels`` and ``spectra`` take their readings from ``protocol``'s public
    functions, so the reading rule has one owner.
    """
    found = []
    for node in ast.walk(ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "numpy"]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[0] == "numpy":
                found.append(module)
            elif node.level or module.split(".")[0] == "kljn":
                names = module.split(".") + [alias.name for alias in node.names]
                found += [f"{module}.{name}" for name in names if name.startswith("_")]
    assert found == []
