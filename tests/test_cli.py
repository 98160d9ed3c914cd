import argparse
import ast
import contextlib
import dataclasses
import hashlib
import json
import multiprocessing
import sys
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from kljn import cli, protocol
from kljn.cli import main
from kljn.config import ConfigError, SystemConfig, load_config
from kljn.noise import rng_for_period
from exact import level_law
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
        with monkeypatch.context() as patch, pytest.warns(row.warns) if row.warns else contextlib.nullcontext():
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


# a true level fails |z| < 4.5 with two-sided probability at most 9.2e-6 (test_levels_follow_exact_chi2_law)
Z_GATE = 4.5


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
        """Every printed level over its theory column lies within 4.5 SD of its exact law, at seeds 1-4.

        The law is a scaled chi-square on 2K + nyq degrees of freedom, for K
        in-band bins and nyq in-band Nyquist bins (``exact.level_law``).
        With at least 2048 degrees of freedom here, a true value fails the
        gate with two-sided probability at most 9.2e-6 (chi-square tails), so
        the 24 values of one case at most 2.2e-4 and all 288 at most 2.7e-3,
        by the union bound.
        """
        for seed in range(1, 5):
            z = levels_z(capsys, tmp_path, oversample, n, seed)
            assert np.abs(z).max() < Z_GATE, f"seed {seed}: z = {np.round(z, 2).tolist()}"

    @pytest.mark.parametrize("mutant", ["level", "band"])
    def test_exact_level_gate_catches_2pct_mutants(self, capsys, monkeypatch, tmp_path, mutant):
        """At 2**20 samples (oversample 4, SD 0.2%), one level 2% high, or a band 2% wide at the same PSD,
        moves a printed level more than 8 SD."""
        if mutant == "level":
            original, calls = protocol._whole_mean_square, []

            def high(*args):  # the 0110 voltage
                calls.append(None)
                return original(*args) * (1.02 if len(calls) == 3 else 1.0)

            monkeypatch.setattr(protocol, "_whole_mean_square", high)
        else:
            spec = SystemConfig.noise_spec
            monkeypatch.setattr(
                SystemConfig,
                "noise_spec",
                lambda self, r, n: dataclasses.replace(spec(self, r, n), bandwidth=self.b_kljn * 1.02),
            )
        z = levels_z(capsys, tmp_path, 4, 2**20, 1)
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


# id: (config text, argv, sha256 of stdout)
GOLDEN_OUTPUT = {
    "spectra": ("", ["spectra", "--samples", "65536", "--bins", "64"],
                "7cef3c03eb5faf73d83375e8413dbe33ce603e0ae5730cdcb0adb9f1406cccde"),
    "levels": ("", ["levels", "--samples", "65536"],
               "aecac1f0d23cff2f186c874f535e1f9af67f65c779b082253bd21e81ccc791e8"),
    "spectra-nyquist": ("oversample = 2\n", ["spectra", "--samples", "65536", "--bins", "64"],
                        "3c0c91543696dbb77ede6521b92d9684ea34e337c157e128b02d236b4b295724"),
    "levels-nyquist": ("oversample = 2\n", ["levels", "--samples", "65536"],
                       "757b1bd74f7287751692c8286e93812aa95824cc266e23be5ec8d8ad40461936"),
    # 2343 segments and 96 trailing samples: five periodogram chunks, split 2 + 3
    "spectra-periodogram-halves": ("", ["spectra", "--samples", "300000", "--bins", "64"],
                                   "53a137a85fefa3f4fdfb43cf90327d11f2a330fec5f066d3618707fd50464170"),
}


def golden_stdout(capsys, tmp_path, config_text, argv):
    """What ``argv`` prints with ``config_text`` as its config file; the command must succeed."""
    path = tmp_path / "golden.cfg"
    path.write_text(config_text)
    code, out, _ = run_cli(capsys, argv + ["--config", str(path)])
    assert code == 0
    return out


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def counts_digest(session_stdout):
    """The digest of a session's JSON without its moment sums, re-serialized as ``session`` serializes it."""
    payload = json.loads(session_stdout)
    del payload["moment_sums"]
    return digest(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


@pytest.mark.parametrize("config_text, argv, sha256", list(GOLDEN_OUTPUT.values()), ids=list(GOLDEN_OUTPUT))
def test_golden_output(capsys, tmp_path, config_text, argv, sha256):
    """spectra and levels print the bytes they printed when each synthesis ran alone.

    The digests were recorded from the CLI whose syntheses drew and
    transformed one wave at a time; ``oversample = 2`` fills the Nyquist bin.
    The five-chunk periodogram's digest was recorded from the CLI that
    transformed every chunk on the calling thread. All five held when both
    commands came to compute their readings from the normals, which moves
    the values only in their last bits.
    """
    assert digest(golden_stdout(capsys, tmp_path, config_text, argv)) == sha256


# at alpha 100 and lambda 0.2 some 0110 periods read insecure, so a state's counts span outcomes
GOLDEN_RUN_CONFIG = "n_periods = 2000\nalpha = 100\nlambda = 0.2\n"

# id: (config text, argv, sha256 of stdout, sha256 of a session's counts (``counts_digest``) or None)
GOLDEN_RUN_OUTPUT = {
    "session": (
        GOLDEN_RUN_CONFIG, ["session", "--seed", "3"],
        "a2a24f75349a924cc12c76070f34b182f8dd024db013962c3b8fb4d1f0316583",
        "baafa6f39df9d37f0a45850ae4633017c7382993b77a3fbb4ffaf6369e2c5c69",
    ),
    "session-0110": (
        GOLDEN_RUN_CONFIG, ["session", "--seed", "3", "--force-state", "0110"],
        "543115fa20b3e4c3070193deb713f6a2bda85d613c0b509ff83f037631f2b530",
        "87f5b182e6b8470034fe25465502c91001d2c9607503f2b68c72305821f39d8d",
    ),
    # oversample 2 puts the Nyquist bin in band, which a 01/10 period's row fills from both parties
    "session-nyquist": (
        GOLDEN_RUN_CONFIG + "oversample = 2\n", ["session", "--seed", "3"],
        "22800edbfbe56f0bd63a8039787bf2ffa83b0085d27b6498ef24a83b634c9907",
        "59f235c0c0b2992e92edda3238d543bb6ed74cc505765169cbdf08dcb1fcf0e9",
    ),
    "sweep-current-11": (
        GOLDEN_RUN_CONFIG, ["sweep", "--seed", "3", "--gammas", "20,30", "--mode", "current"],
        "6b4ba3d5157606395f04004faeb9fce2e094c62e4420f3d795c4b821710230f7", None,
    ),
    "sweep-combined-00": (
        GOLDEN_RUN_CONFIG, ["sweep", "--seed", "3", "--gammas", "20,30", "--mode", "combined", "--force-state", "00"],
        "0d744bf7612bf1f84723ac95f036b06126ef016cbcc2b18d5dc0debe9be43d11", None,
    ),
    "sweep-voltage-00": (
        GOLDEN_RUN_CONFIG, ["sweep", "--seed", "3", "--gammas", "20,30", "--mode", "voltage", "--force-state", "00"],
        "50fa59b2d6c8b6c2c7c93e27e4a19953588f36a07e43cd1790ba44d817f67b23", None,
    ),
    "sweep-current-00": (
        GOLDEN_RUN_CONFIG, ["sweep", "--seed", "3", "--gammas", "20,30", "--mode", "current", "--force-state", "00"],
        "72b5bf684c1fa4e05490bd89f2f48cf790f0efdb86a49c684ccb889338391828", None,
    ),
    # oversample 2 puts the Nyquist bin in band, which the stage fills on its own
    "sweep-current-11-nyquist": (
        GOLDEN_RUN_CONFIG + "oversample = 2\n", ["sweep", "--seed", "3", "--gammas", "20,30", "--mode", "current"],
        "96a58df5e1482dad92fd69e6f7613f0f9dd9abe5d927779441de9061c60d543c", None,
    ),
    "sweep-voltage-00-nyquist": (
        GOLDEN_RUN_CONFIG + "oversample = 2\n",
        ["sweep", "--seed", "3", "--gammas", "20,30", "--mode", "voltage", "--force-state", "00"],
        "bd250f58483c243d2265a2fdfbae9ce3135b8beb97a9c8f405952bdf446ead49", None,
    ),
}


@pytest.mark.parametrize(
    "config_text, argv, sha256, counts_sha256", list(GOLDEN_RUN_OUTPUT.values()), ids=list(GOLDEN_RUN_OUTPUT)
)
def test_golden_run_output(capsys, tmp_path, config_text, argv, sha256, counts_sha256):
    """session and sweep print the bytes they printed before their run rules were each stated once.

    The session digests pin the JSON's confusion tables, combined counts,
    rates, moment sums and key hex, not only what the acceptance tests read.
    They were re-recorded when sessions came to solve the loop on the
    normals, which moved the moment sums' last bits and nothing else:
    ``counts_sha256``, the digest of the session JSON without its moment
    sums (``counts_digest``), was recorded before that change and held
    through it. The sweep digests held through it too; the two Nyquist
    sweeps' digests were recorded from the one-reading kernel that first
    solved the loop on the normals.
    """
    out = golden_stdout(capsys, tmp_path, config_text, argv)
    if counts_sha256 is not None:
        assert counts_digest(out) == counts_sha256
    assert digest(out) == sha256


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
