import argparse
import hashlib
import json
import multiprocessing
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from kljn import cli, noise, protocol
from kljn.circuit import LoopState, channel_waveforms
from kljn.cli import main
from kljn.config import ConfigError, load_config
from kljn.noise import rng_for_period, synth_band_limited

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


def _no_synthesis(*args):
    raise AssertionError("a bad size must be refused before any synthesis")


def _no_session(*args, **kwargs):
    raise AssertionError("a run the kernel cannot do must be refused before any period runs")


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


class TestLevels:
    def test_peak_memory_bounded_by_signal_size(self, tmp_path):
        # the six generator waves of the three states come from one batch and are held
        # together while each state's voltage and current are solved
        n = 2**20
        code, peak = traced_peak(["levels", "--samples", str(n), "--out", str(tmp_path / "l.txt")])
        assert code == 0
        assert peak <= 10 * 8 * n, f"peak {peak / (8 * n):.2f}x the signal's bytes"

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

    @pytest.mark.parametrize(
        "argv",
        [["levels"], ["session"], ["sweep", "--gammas", "30"]],
        ids=["levels", "session", "sweep"],
    )
    def test_infinite_gamma_is_config_error(self, capsys, tmp_path, argv):
        path = tmp_path / "inf.cfg"
        path.write_text("gamma = inf\n")
        code, out, err = run_cli(capsys, argv + ["--config", str(path)])
        assert code == 2
        assert out == ""
        assert "config error" in err and "gamma" in err

    @pytest.mark.parametrize(
        "module, name, failing_call",
        # Alice's 11 wave, the fifth synthesis, after states 00 and 0110 were solved; or the
        # 0110 voltage's mean square, the third, while the helper transforms the 11 waves
        [(noise, "_samples", 5), (cli, "finite_mean_square", 3)],
        ids=["fifth-synthesis", "third-mean-square"],
    )
    def test_failure_prints_no_partial_table(self, capsys, monkeypatch, tmp_path, module, name, failing_call):
        original, calls = getattr(module, name), []

        def fails_once(*args):
            calls.append(None)
            if len(calls) == failing_call:
                raise ValueError("non-finite values: the noise level overflows float64")
            return original(*args)

        monkeypatch.setattr(module, name, fails_once)
        out_path = tmp_path / "levels.txt"
        threads = threading.active_count()
        code, out, err = run_cli(capsys, ["levels", "--samples", "8192", "--out", str(out_path)])
        assert code == 3
        assert out == "" and not out_path.exists()
        assert "non-finite" in err
        assert threading.active_count() == threads  # the helper is gone

    def test_allocation_failure_is_runtime_error(self, capsys, tmp_path):
        # 2**50 samples pass every size check, and their first array (4 PiB) is refused at once
        out_path = tmp_path / "levels.txt"
        threads = threading.active_count()
        code, out, err = run_cli(capsys, ["levels", "--samples", str(2**50), "--out", str(out_path)])
        assert code == 3
        assert out == "" and not out_path.exists()
        assert err.startswith("runtime error:") and "Traceback" not in err
        assert threading.active_count() == threads

    def test_too_few_samples_is_config_error(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "synth_band_limited_many", _no_synthesis)
        code, out, err = run_cli(capsys, ["levels", "--samples", "1"])
        assert code == 2
        assert out == ""
        assert "config error" in err and "--samples" in err

    def test_no_in_band_bin_is_config_error(self, capsys, monkeypatch):
        # 3 samples at the default oversample 4 put bin 1 at 4/3 of the band edge: every
        # wave would be zero, and every empirical level 0
        monkeypatch.setattr(cli, "synth_band_limited_many", _no_synthesis)
        code, out, err = run_cli(capsys, ["levels", "--samples", "3"])
        assert code == 2
        assert out == ""
        assert "config error" in err and "--samples 3" in err and "no FFT bin" in err

    def test_shortest_synthesis_runs(self, capsys):
        # 4 samples at oversample 4 put bin 1 at the band edge
        code, out, _ = run_cli(capsys, ["levels", "--samples", "4"])
        assert code == 0
        empirical = [float(line.split()[2]) for line in out.splitlines()[4:]]
        assert len(empirical) == 3 and all(level > 0 for level in empirical)

    def test_invalid_alpha_names_constraint(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("alpha = 0.5\n")
        code, _, err = run_cli(capsys, ["levels", "--config", str(path)])
        assert code == 2
        assert "alpha" in err


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

    def test_empty_gamma_list_is_usage_error(self, capsys, fast_config):
        code, _, err = run_cli(capsys, ["sweep", "--config", fast_config, "--gammas", " "])
        assert code == 2
        assert "gammas" in err

    def test_infinite_gamma_in_list_is_config_error(self, capsys, fast_config):
        code, out, err = run_cli(capsys, ["sweep", "--config", fast_config, "--gammas", "30,inf"])
        assert code == 2
        assert out == ""
        assert "config error" in err and "gamma" in err

    def test_descending_gammas_rejected(self, capsys, fast_config):
        code, _, _ = run_cli(capsys, ["sweep", "--config", fast_config, "--gammas", "100,50"])
        assert code == 2

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

    def test_zero_periods_usage_error(self, capsys, tmp_path):
        path = tmp_path / "zero.cfg"
        path.write_text("n_periods = 0\n")
        code, _, err = run_cli(capsys, ["session", "--config", str(path)])
        assert code == 2
        assert "n_periods" in err

    def test_empty_secure_band_is_runtime_error(self, capsys, tmp_path):
        path = tmp_path / "tight.cfg"
        # alpha barely above 1: levels nearly coincide, 0.5 fractions overlap
        path.write_text("alpha = 1.05\nn_periods = 10\n")
        with pytest.warns(UserWarning):
            code, _, err = run_cli(capsys, ["session", "--config", str(path)])
        assert code == 3
        assert "empty secure band" in err

    def test_seed_flag_changes_output(self, capsys, fast_config):
        _, out1, _ = run_cli(capsys, ["session", "--config", fast_config, "--seed", "1"])
        _, out2, _ = run_cli(capsys, ["session", "--config", fast_config, "--seed", "2"])
        assert out1 != out2


@pytest.mark.parametrize("command", [["session"], ["sweep", "--gammas", "30"]])
@pytest.mark.parametrize("workers", ["0", "-2"])
def test_workers_below_one_is_config_error(capsys, monkeypatch, fast_config, command, workers):
    monkeypatch.setattr(cli, "run_session", _no_session)
    code, out, err = run_cli(capsys, command + ["--config", fast_config, "--workers", workers])
    assert code == 2
    assert out == ""
    assert "--workers" in err


@pytest.mark.parametrize(
    "config_text, command, message",
    [
        ("n_periods = 0\n", ["session"], "n_periods must be >= 1"),
        ("n_periods = 0\n", ["sweep", "--gammas", "30"], "n_periods must be >= 1"),
        # oversample 4 at gamma 0.1 rounds to 0 samples per period
        ("gamma = 0.1\n", ["session"], "0 samples per period"),
        ("", ["sweep", "--gammas", "0.1,30"], "0 samples per period"),
        ("oversample = 2\n", ["sweep", "--gammas", "0.2,30"], "0 samples per period"),
        # more samples per period than float64 tells FFT bins apart at: 4e300 used to hang
        # the top-bin search, 4e17 to fail allocating
        # counts beyond 2**53 print in 6 significant digits, not in 301
        ("gamma = 1e300\n", ["session"], "gives 4e+300 samples per period; more than 2**53 samples"),
        ("gamma = 1e17\n", ["session"], "more than 2**53 samples"),
        ("", ["sweep", "--gammas", "30,1e17"], "more than 2**53 samples"),
        # an infinite sample rate, an infinite period, and an oversample no float64 holds
        ("b_kljn = 1e308\n", ["session"], "samples per period overflow float64"),
        ("gamma = 1e300\nb_kljn = 1e-300\n", ["session"], "samples per period overflow float64"),
        (f"oversample = 1{'0' * 400}\n", ["session"], "at oversample = 1e+400: the sample rate or the samples"),
        # a malformed line, or an unknown key, is echoed by its first 40 characters and its line number
        (f"x{'0' * 400}\n", ["session"], f":1: expected 'key = value', got 'x{'0' * 39}'... (401 characters)"),
        (f"gamma = 30\nx{'0' * 400} = 1\n", ["session"], f":2: unknown key 'x{'0' * 39}'... (401 characters)"),
    ],
    ids=["session-zero-periods", "sweep-zero-periods", "session-short-period", "sweep-short-period",
         "sweep-short-period-nyquist", "session-huge-period", "session-2e53-period", "sweep-2e53-period",
         "session-infinite-rate", "session-infinite-tau", "session-huge-oversample", "session-long-line",
         "session-long-key"],
)
@pytest.mark.filterwarnings("ignore::kljn.estimator.SmallGammaWarning")
def test_unrunnable_config_is_config_error(capsys, monkeypatch, tmp_path, config_text, command, message):
    """session and sweep give the same exit code for a config no period can run."""
    monkeypatch.setattr(cli, "run_session", _no_session)
    path = tmp_path / "bad.cfg"
    path.write_text(config_text)
    code, out, err = run_cli(capsys, command + ["--config", str(path)])
    assert code == 2
    assert out == ""
    assert "config error" in err and message in err
    # a refusal line is short, also where the input is long: the 401-digit oversample prints as 1e+400,
    # and a 401-character line by its start
    assert all(len(line) < 300 for line in err.splitlines())


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
@pytest.mark.parametrize("command", [["session"], ["levels", "--samples", "4096"]], ids=["session", "levels"])
def test_unreadable_config_is_config_error(capsys, monkeypatch, tmp_path, kind, command):
    """A config file that cannot be read is a config error that names it, not a runtime failure."""
    monkeypatch.setattr(cli, "run_session", _no_session)
    monkeypatch.setattr(cli, "synth_band_limited_many", _no_synthesis)
    path = tmp_path / f"{kind}.cfg"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"\xff\xfegamma = 30\n")
    code, out, err = run_cli(capsys, command + ["--config", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("config error: ") and str(path) in err


@pytest.mark.parametrize(
    "config_text, message",
    [("n_periods = 0\n", "n_periods must be >= 1"), ("gamma = 0.1\n", "0 samples per period")],
    ids=["zero-periods", "short-period"],
)
@pytest.mark.parametrize(
    "argv",
    [["levels", "--samples", "4096"], ["spectra", "--samples", "4096", "--bins", "64"]],
    ids=["levels", "spectra"],
)
@pytest.mark.filterwarnings("ignore::kljn.estimator.SmallGammaWarning")
def test_unrunnable_config_refused_by_every_command(capsys, monkeypatch, tmp_path, config_text, message, argv):
    """levels and spectra run no period, yet refuse a config no period could run, as session does."""
    monkeypatch.setattr(cli, "synth_band_limited_many", _no_synthesis)
    path = tmp_path / "bad.cfg"
    path.write_text(config_text)
    code, out, err = run_cli(capsys, argv + ["--config", str(path)])
    assert code == 2
    assert out == ""
    assert "config error" in err and message in err


@pytest.mark.parametrize(
    "config_text, command",
    [("gamma = 0.5\n", ["session"]), ("", ["sweep", "--gammas", "0.5,30"])],
    ids=["session", "sweep"],
)
@pytest.mark.filterwarnings("ignore::kljn.estimator.SmallGammaWarning")
def test_no_in_band_bin_is_config_error(capsys, monkeypatch, tmp_path, config_text, command):
    """gamma 0.5 at oversample 4 gives 2 samples per period, whose noise would be all zeros."""
    monkeypatch.setattr(cli, "run_session", _no_session)
    path = tmp_path / "bad.cfg"
    path.write_text(config_text)
    code, out, err = run_cli(capsys, command + ["--config", str(path)])
    assert code == 2
    assert out == ""
    assert "config error" in err and "2 samples per period; no FFT bin" in err


@pytest.mark.filterwarnings("ignore::kljn.estimator.SmallGammaWarning")
def test_nyquist_only_period_runs(capsys, tmp_path):
    """gamma 0.5 at oversample 2: 2 samples per period, whose one in-band bin is the Nyquist bin."""
    path = tmp_path / "nyquist.cfg"
    path.write_text("gamma = 0.5\noversample = 2\nn_periods = 50\n")
    code, out, _ = run_cli(capsys, ["session", "--config", str(path)])
    assert code == 0
    for n, sum_v, sum_i, *_ in json.loads(out)["moment_sums"].values():
        assert n == 0 or (sum_v > 0 and sum_i > 0)


def test_sweep_force_state_0110_is_usage_error(capsys, monkeypatch, fast_config):
    monkeypatch.setattr(cli, "run_session", _no_session)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", fast_config, "--gammas", "30", "--force-state", "0110"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "--force-state" in out.err


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

    @pytest.mark.parametrize(
        "argv, flag",
        [(["--bins", "1"], "--bins"), (["--samples", "127", "--bins", "64"], "--samples")],
        ids=["one-bin", "shorter-than-a-segment"],
    )
    def test_bad_size_is_config_error(self, capsys, monkeypatch, argv, flag):
        monkeypatch.setattr(cli, "synth_band_limited_many", _no_synthesis)
        code, out, err = run_cli(capsys, ["spectra"] + argv)
        assert code == 2
        assert out == ""
        assert "config error" in err and flag in err

    def test_no_in_band_bin_is_config_error(self, capsys, monkeypatch, tmp_path):
        # 6 samples at oversample 8 put bin 1 at 4/3 of the band edge: the spectrum would be zero
        path = tmp_path / "oversample8.cfg"
        path.write_text("oversample = 8\n")
        monkeypatch.setattr(cli, "synth_band_limited_many", _no_synthesis)
        code, out, err = run_cli(capsys, ["spectra", "--config", str(path), "--samples", "6", "--bins", "3"])
        assert code == 2
        assert out == ""
        assert "config error" in err and "--samples 6" in err and "no FFT bin" in err

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
        loop = LoopState.from_bits(1, 1, config.resistors)
        spec = config.noise_spec(loop.r_alice, n)
        rng = rng_for_period(config.master_seed, 0)
        u_a = synth_band_limited(spec, rng)
        u_b = synth_band_limited(spec, rng)
        _, i_c = channel_waveforms(u_a, u_b, loop.r_alice, loop.r_bob)
        squared = np.square(i_c)
        squared -= squared.mean()
        freqs, density = signal.welch(
            squared, fs=config.sample_rate, window="boxcar", nperseg=2 * n_bins, noverlap=0, detrend=False
        )
        assert rows.shape == (n_bins + 1, 3)
        np.testing.assert_allclose(rows[:, 0], freqs, rtol=1e-12, atol=0)
        np.testing.assert_allclose(rows[:, 1], density, rtol=1e-12, atol=0)

    def test_peak_memory_bounded_by_signal_size(self, tmp_path):
        # u_a, u_b and the current are alive together only while the current is solved;
        # the squared signal and the periodogram's power table stay near two signals
        n = 2**20
        argv = ["spectra", "--samples", str(n), "--bins", "256", "--out", str(tmp_path / "s.csv")]
        code, peak = traced_peak(argv)
        assert code == 0
        assert peak <= 4 * 8 * n, f"peak {peak / (8 * n):.2f}x the signal's bytes"


@pytest.mark.parametrize(
    "config_text, argv, sha256",
    [
        ("", ["spectra", "--samples", "65536", "--bins", "64"],
         "7cef3c03eb5faf73d83375e8413dbe33ce603e0ae5730cdcb0adb9f1406cccde"),
        ("", ["levels", "--samples", "65536"],
         "aecac1f0d23cff2f186c874f535e1f9af67f65c779b082253bd21e81ccc791e8"),
        ("oversample = 2\n", ["spectra", "--samples", "65536", "--bins", "64"],
         "3c0c91543696dbb77ede6521b92d9684ea34e337c157e128b02d236b4b295724"),
        ("oversample = 2\n", ["levels", "--samples", "65536"],
         "757b1bd74f7287751692c8286e93812aa95824cc266e23be5ec8d8ad40461936"),
        # 2343 segments and 96 trailing samples: five periodogram chunks, split 2 + 3
        ("", ["spectra", "--samples", "300000", "--bins", "64"],
         "53a137a85fefa3f4fdfb43cf90327d11f2a330fec5f066d3618707fd50464170"),
    ],
    ids=["spectra", "levels", "spectra-nyquist", "levels-nyquist", "spectra-periodogram-halves"],
)
def test_golden_output(capsys, tmp_path, config_text, argv, sha256):
    """spectra and levels print the bytes they printed when each synthesis ran alone.

    The digests were recorded from the CLI whose syntheses drew and
    transformed one wave at a time; ``oversample = 2`` fills the Nyquist bin.
    The five-chunk periodogram's digest was recorded from the CLI that
    transformed every chunk on the calling thread.
    """
    path = tmp_path / "golden.cfg"
    path.write_text(config_text)
    code, out, _ = run_cli(capsys, argv + ["--config", str(path)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


# at alpha 100 and lambda 0.2 some 0110 periods read insecure, so a state's counts span outcomes
GOLDEN_RUN_CONFIG = "n_periods = 2000\nalpha = 100\nlambda = 0.2\n"


@pytest.mark.parametrize(
    "argv, sha256",
    [
        (["session", "--seed", "3"],
         "0e1d16215c7da558ec85b75d520a1aed7c0f1d72873b24d32113eae3f1321e23"),
        (["session", "--seed", "3", "--force-state", "0110"],
         "d2ebb467f48cf69024078dadbb608897f146f0b92b5f1c64d5408d37dad2c2cf"),
        (["sweep", "--seed", "3", "--gammas", "20,30", "--mode", "current"],
         "6b4ba3d5157606395f04004faeb9fce2e094c62e4420f3d795c4b821710230f7"),
        (["sweep", "--seed", "3", "--gammas", "20,30", "--mode", "combined", "--force-state", "00"],
         "0d744bf7612bf1f84723ac95f036b06126ef016cbcc2b18d5dc0debe9be43d11"),
    ],
    ids=["session", "session-0110", "sweep-current-11", "sweep-combined-00"],
)
def test_golden_run_output(capsys, tmp_path, argv, sha256):
    """session and sweep print the bytes they printed before their run rules were each stated once.

    The session digests pin the JSON's confusion tables, combined counts,
    rates, moment sums and key hex, not only what the acceptance tests read.
    """
    path = tmp_path / "golden.cfg"
    path.write_text(GOLDEN_RUN_CONFIG)
    code, out, _ = run_cli(capsys, argv + ["--config", str(path)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


# finite configs whose noise levels overflow float64: in the squared-current
# periodogram only, or already in the generator synthesis
PERIODOGRAM_OVERFLOW = "t_eff = 1e290\nr = 1\nalpha = 1000\n"
SYNTHESIS_OVERFLOW = "t_eff = 3.6e305\nr = 1e20\nalpha = 1000\n"
# finite levels and samples, but the session report's sums of squared mean squares overflow
REPORT_OVERFLOW = "t_eff = 1e300\nr = 1e20\ngamma = 30\nn_periods = 50\n"


class TestNonFiniteOutput:
    @pytest.mark.parametrize(
        "argv, text",
        [
            (["spectra", "--samples", "8192", "--bins", "64"], PERIODOGRAM_OVERFLOW),
            (["spectra", "--samples", "8192", "--bins", "64"], SYNTHESIS_OVERFLOW),
            (["levels", "--samples", "8192"], SYNTHESIS_OVERFLOW),
            # two shares of two periods: the calling process's and the pool's both overflow
            (["session", "--workers", "2"], SYNTHESIS_OVERFLOW + "n_periods = 4\n"),
            (["sweep", "--gammas", "30", "--workers", "2"], SYNTHESIS_OVERFLOW + "n_periods = 4\n"),
        ],
        ids=[
            "spectra-periodogram",
            "spectra-synthesis",
            "levels-synthesis",
            "session-w2-synthesis",
            "sweep-w2-synthesis",
        ],
    )
    def test_overflow_is_runtime_error(self, capsys, tmp_path, argv, text, monkeypatch):
        path = tmp_path / "overflow.cfg"
        path.write_text(text)
        monkeypatch.setattr(protocol, "_usable_cpus", lambda: 2)  # a pool on any machine
        with np.errstate(all="ignore"):
            code, out, err = run_cli(capsys, argv + ["--config", str(path)])
        assert code == 3
        assert out == ""
        assert "non-finite" in err
        assert multiprocessing.active_children() == []  # no pool process outlives the run

    def test_overflowing_report_value_is_runtime_error(self, capsys, tmp_path):
        path = tmp_path / "overflow.cfg"
        path.write_text(REPORT_OVERFLOW)
        out_path = tmp_path / "session.json"
        with np.errstate(all="ignore"):
            code, out, err = run_cli(capsys, ["session", "--config", str(path), "--out", str(out_path)])
        assert code == 3
        assert out == "" and not out_path.exists()
        assert "non-finite output values" in err

    @pytest.mark.parametrize(
        "text",
        # the voltage levels overflow; or R1 = alpha * R overflows, and the levels read nan; or
        # R_A * R_B underflows, and the voltage levels read 0; or 4kT_eff is subnormal, and the
        # current levels of 0110 and 11 both read 4.94e-324
        ["t_eff = 1e308\nr = 1e300\n", "r = 1e300\nalpha = 1e10\n", "r = 1e-200\n", "t_eff = 1e-300\n"],
        ids=["hot", "large-r1", "tiny-r", "tiny-t"],
    )
    @pytest.mark.parametrize("argv", [["session"], ["levels", "--samples", "8192"]], ids=["session", "levels"])
    def test_overflowing_levels_are_runtime_error(self, capsys, monkeypatch, tmp_path, argv, text):
        """Levels that overflow or underflow float64 are reported as such, not as an empty secure band."""
        monkeypatch.setattr(cli, "synth_band_limited_many", _no_synthesis)
        monkeypatch.setattr(protocol, "_simulate_chunk", _no_session)
        path = tmp_path / "overflow.cfg"
        path.write_text(text)
        code, out, err = run_cli(capsys, argv + ["--config", str(path)])
        assert code == 3
        assert out == ""
        assert "mean-square levels not finite and positive" in err and "overflow or underflow" in err
        assert "empty secure band" not in err

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
    def test_underflowed_moment_sums_are_runtime_error(self, capsys, tmp_path):
        path = tmp_path / "underflow.cfg"
        out_path = tmp_path / "session.json"
        # also at the default gamma 100, the run that printed second moments of 0.0
        for text, seed in ((UNDERFLOW, []), ("t_eff = 1e-150\nn_periods = 200\n", ["--seed", "3"])):
            path.write_text(text)
            code, out, err = run_cli(capsys, ["session", "--config", str(path), "--out", str(out_path)] + seed)
            assert code == 3
            assert out == "" and not out_path.exists()
            assert err.startswith("runtime error: ") and "underflow" in err

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
        for argv in (
            ["session", "--workers", "2", "--force-state", "0110", "--seed", "7"],
            ["sweep", "--gammas", "30", "--workers", "2", "--force-state", "00"],
            ["session"],
        ):
            assert main(argv) == 2
        capsys.readouterr()
        assert calls == [
            (7, {"force_state": "0110", "workers": 2}),
            (1, {"force_state": "00", "workers": 2}),
            (1, {"force_state": None, "workers": 1}),
        ]

