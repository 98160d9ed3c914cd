import json
import os
import subprocess
import sys

import numpy as np
import pytest

import kljn
from kljn.cli import main

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


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestLevels:
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


# finite configs whose noise levels overflow float64: in the squared-current
# periodogram only, or already in the generator synthesis
PERIODOGRAM_OVERFLOW = "t_eff = 1e290\nr = 1\nalpha = 1000\n"
SYNTHESIS_OVERFLOW = "t_eff = 3.6e305\nr = 1e20\nalpha = 1000\n"


class TestNonFiniteOutput:
    @pytest.mark.parametrize(
        "argv, text",
        [
            (["spectra", "--samples", "8192", "--bins", "64"], PERIODOGRAM_OVERFLOW),
            (["spectra", "--samples", "8192", "--bins", "64"], SYNTHESIS_OVERFLOW),
            (["levels", "--samples", "8192"], SYNTHESIS_OVERFLOW),
        ],
        ids=["spectra-periodogram", "spectra-synthesis", "levels-synthesis"],
    )
    def test_overflow_is_runtime_error(self, capsys, tmp_path, argv, text):
        path = tmp_path / "overflow.cfg"
        path.write_text(text)
        with np.errstate(all="ignore"):
            code, out, err = run_cli(capsys, argv + ["--config", str(path)])
        assert code == 3
        assert out == ""
        assert "non-finite" in err

    def test_levels_finite_where_only_the_periodogram_overflows(self, capsys, tmp_path):
        # the mean squares themselves (about 1e270) are finite, so levels reports them
        path = tmp_path / "large.cfg"
        path.write_text(PERIODOGRAM_OVERFLOW)
        code, out, _ = run_cli(capsys, ["levels", "--samples", "8192", "--config", str(path)])
        assert code == 0
        rows = [line.split() for line in out.splitlines()[4:]]
        assert [row[0] for row in rows] == ["00", "0110", "11"]
        assert np.isfinite([float(x) for row in rows for x in row[1:]]).all()


def test_cli_import_defers_scipy_signal():
    # only periodogram needs scipy.signal, and importing it dominates start-up
    src = os.path.dirname(os.path.dirname(kljn.__file__))
    code = "import sys, kljn.cli; print('scipy.signal' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"
