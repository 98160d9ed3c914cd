import dataclasses
import hashlib
import math
import multiprocessing
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kljn import protocol
from kljn.circuit import (
    DegenerateLevelsWarning,
    LoopState,
    channel_current,
    channel_voltage,
    channel_waveforms,
    generator_psd,
)
from kljn.cli import main
from kljn.config import SystemConfig, with_overrides
from kljn.decision import (
    CombinedOutcome,
    Interpretation,
    combine,
    current_codes,
    interpret_arrays,
    interpret_current,
    interpret_voltage,
    voltage_codes,
)
from kljn.estimator import SmallGammaWarning, measure_period, measurement_slice
from kljn.noise import NoiseSpec, band_coefficients, rng_for_period, synth_band_limited
from kljn.protocol import (
    ACTUAL_STATES,
    RateEstimate,
    WorkerExited,
    _simulate_chunk,
    error_rate,
    extract_key,
    key_to_hex,
    run_session,
    wilson_interval,
)
from moments import msq_correlation
from streams import drawn_periods

OUTCOMES = tuple(CombinedOutcome)


def small_config(**kw):
    defaults = dict(alpha=10.0, gamma=50.0, n_periods=200, master_seed=3)
    defaults.update(kw)
    return SystemConfig(**defaults)


def codes(*outcomes):
    return np.array([OUTCOMES.index(o) for o in outcomes], dtype=np.int8)


def read_periods(cfg, msv, msi):
    """Outcome codes of periods with the given mean squares, read as a session reads them."""
    return interpret_arrays(np.asarray(msv, float), np.asarray(msi, float), cfg.bands())[2]


def reference_extract_key(bits, outcome_code):
    """Per-period loop: Alice's bit and the inverse of Bob's from each kept period."""
    alice, bob = [], []
    for (bit_a, bit_b), code in zip(bits.tolist(), outcome_code.tolist()):
        if OUTCOMES[code] is CombinedOutcome.KEEP_SECURE:
            alice.append(bit_a)
            bob.append(1 - bit_b)
    return alice, bob


def reference_accounting(cfg, periods):
    """Per-period loop: confusion matrices, outcome counts, rates, fidelity and discard rate."""
    bands = cfg.bands()
    readings = tuple(Interpretation)
    confusion_v = [[0] * 3 for _ in ACTUAL_STATES]
    confusion_i = [[0] * 3 for _ in ACTUAL_STATES]
    combined = {state: {o.value: 0 for o in OUTCOMES} for state in ACTUAL_STATES}
    for (bit_a, bit_b), msv, msi in zip(
        periods["bits"].tolist(), periods["msv"].tolist(), periods["msi"].tolist()
    ):
        state = f"{bit_a}{bit_b}" if bit_a == bit_b else "0110"
        v = interpret_voltage(msv, bands)
        i = interpret_current(msi, bands)
        confusion_v[ACTUAL_STATES.index(state)][readings.index(v)] += 1
        confusion_i[ACTUAL_STATES.index(state)][readings.index(i)] += 1
        combined[state][combine(v, i).value] += 1
    n = {state: sum(row) for state, row in zip(ACTUAL_STATES, confusion_v)}
    kept = {state: combined[state][CombinedOutcome.KEEP_SECURE.value] for state in ACTUAL_STATES}
    rates = {}
    for a, state in enumerate(("00", "11")):
        rates[f"eps_hat_v_{state}"] = RateEstimate.from_counts(confusion_v[a][2], n[state])
        rates[f"eps_hat_i_{state}"] = RateEstimate.from_counts(confusion_i[a][2], n[state])
        rates[f"eps_hat_combined_{state}"] = RateEstimate.from_counts(kept[state], n[state])
    return {
        "confusion_v": confusion_v,
        "confusion_i": confusion_i,
        "combined_counts": combined,
        "rates": rates,
        "fidelity": kept["0110"] / n["0110"] if n["0110"] else None,
        "discard_rate": 1.0 - sum(kept.values()) / len(periods["bits"]),
    }


def reference_draw_bits(rng):
    """Random bits as the kernel first drew them: one vector draw of two integers."""
    b = rng.integers(0, 2, size=2)
    return int(b[0]), int(b[1])


def reference_period_bits(rng, force_state):
    """One period's bits drawn from its generator as the per-period loop drew them."""
    if force_state is None:
        return reference_draw_bits(rng)
    if force_state == "0110":
        a = int(rng.integers(0, 2))
        return a, 1 - a
    return {"00": (0, 0), "11": (1, 1)}[force_state]


def reference_key_to_hex(bits):
    """Key bits packed MSB-first through one Python int, as ``key_to_hex`` used to pack them."""
    if not bits:
        return ""
    nbytes = (len(bits) + 7) // 8
    val = 0
    for b in bits:
        val = (val << 1) | (b & 1)
    val <<= nbytes * 8 - len(bits)
    return val.to_bytes(nbytes, "big").hex()


def reference_simulate_chunk(config, master_seed, start, stop, force_state):
    """Per-period loop: one generator, two syntheses, one loop solve and one measurement each."""
    consts = config.constants
    resistors = config.resistors
    fs = config.sample_rate
    n_samp = config.samples_per_period
    count = stop - start
    bits = np.empty((count, 2), dtype=np.int8)
    msv = np.empty(count)
    msi = np.empty(count)
    spec_cache = {
        bit: NoiseSpec(
            psd_level=generator_psd(resistors.for_bit(bit), consts),
            bandwidth=config.b_kljn,
            sample_rate=fs,
            n_samples=n_samp,
        )
        for bit in (0, 1)
    }
    for j, index in enumerate(range(start, stop)):
        rng = rng_for_period(master_seed, index)
        bit_a, bit_b = reference_period_bits(rng, force_state)
        u_a = synth_band_limited(spec_cache[bit_a], rng)
        u_b = synth_band_limited(spec_cache[bit_b], rng)
        state = LoopState.from_bits(bit_a, bit_b, resistors)
        u_c, i_c = channel_waveforms(u_a, u_b, state.r_alice, state.r_bob)
        bits[j] = (bit_a, bit_b)
        msv[j], msi[j] = measure_period(u_c, i_c)
    return {"bits": bits, "msv": msv, "msi": msi}


def assert_matches_reference(cfg, start, stop, force_state, got):
    """``got``, the chunk of periods [start, stop), against ``reference_simulate_chunk`` and per-period chunks.

    The bits are the reference's, and so are the voltage and current codes
    at ``cfg.bands()``. The mean squares are the bytes of one
    ``_simulate_chunk`` call per period, and lie within 1e-14 relative of
    the reference's, which synthesizes each wave alone and solves the loop
    on the samples, so it rounds otherwise.
    """
    expected = reference_simulate_chunk(cfg, cfg.master_seed, start, stop, force_state)
    per_period = [_simulate_chunk(cfg, p, p + 1, force_state) for p in range(start, stop)]
    assert np.array_equal(got["bits"], expected["bits"])
    bands = cfg.bands()
    for name, codes in (("msv", voltage_codes), ("msi", current_codes)):
        assert got[name].tobytes() == np.concatenate([c[name] for c in per_period]).tobytes(), name
        assert np.max(np.abs(got[name] - expected[name]) / expected[name]) <= 1e-14, name
        assert np.array_equal(codes(got[name], bands), codes(expected[name], bands)), name


class TestSimulatePeriod:
    """Periods as a session simulates and reads them: bits, mean squares, outcome codes."""

    def test_deterministic(self):
        cfg = small_config(n_periods=8, master_seed=123)
        a = run_session(cfg)
        b = run_session(cfg)
        assert a.to_dict() == b.to_dict()
        assert np.array_equal(a.bits, b.bits)
        assert np.array_equal(a.outcome_code, b.outcome_code)

    def test_seed_changes_result(self):
        cfg = small_config(n_periods=8, master_seed=123)
        a = run_session(cfg)
        b = run_session(with_overrides(cfg, master_seed=124))
        assert a.moment_sums != b.moment_sums

    def test_forced_exact_levels_secure(self):
        cfg = small_config()
        levels = cfg.levels()
        bits = np.array([(0, 1)], dtype=np.int8)
        outcome_code = read_periods(cfg, [levels.v_0110], [levels.i_0110])
        assert OUTCOMES[outcome_code[0]] is CombinedOutcome.KEEP_SECURE
        assert extract_key(bits, outcome_code) == ([0], [0])

    def test_forced_exact_levels_00(self):
        cfg = small_config()
        levels = cfg.levels()
        bits = np.array([(0, 0)], dtype=np.int8)
        outcome_code = read_periods(cfg, [levels.v_00], [levels.i_00])
        assert OUTCOMES[outcome_code[0]] is CombinedOutcome.DISCARD_INSECURE_00
        assert extract_key(bits, outcome_code) == ([], [])

    def test_force_state_pins_bits(self):
        cfg = small_config(n_periods=5, master_seed=5)
        report = run_session(cfg, force_state="11")
        assert (report.bits == 1).all()
        report = run_session(cfg, force_state="0110")
        assert (report.bits[:, 0] != report.bits[:, 1]).all()

    def test_outcome_consistent_with_interps(self):
        cfg = small_config(n_periods=20, master_seed=9)
        report = run_session(cfg)
        periods = _simulate_chunk(cfg, 0, cfg.n_periods, None)
        assert np.array_equal(periods["bits"], report.bits)
        bands = cfg.bands()
        for msv, msi, code in zip(periods["msv"], periods["msi"], report.outcome_code):
            v = interpret_voltage(float(msv), bands)
            i = interpret_current(float(msi), bands)
            assert OUTCOMES[code] is combine(v, i)


class TestRunSession:
    def test_report_describes_its_config(self):
        cfg = small_config(n_periods=50, master_seed=1)
        report = run_session(cfg)
        assert report.config_hash == cfg.config_hash()
        assert (report.n_periods, report.master_seed) == (50, 1)
        assert report.bits.shape == (50, 2)
        assert report.outcome_code.shape == (50,)

    def test_single_period_report(self):
        report = run_session(small_config(n_periods=1, master_seed=2))
        assert report.n_periods == 1
        total = sum(
            sum(report.combined_counts[s].values()) for s in ACTUAL_STATES
        )
        assert total == 1

    def test_accounting_closure(self):
        n = 1000
        report = run_session(small_config(n_periods=n, master_seed=11))
        assert sum(sum(report.combined_counts[s].values()) for s in ACTUAL_STATES) == n
        for mat in (report.confusion_v, report.confusion_i):
            for a_code, a_name in enumerate(ACTUAL_STATES):
                assert sum(mat[a_code]) == report.moment_sums[a_name][0]

    @pytest.mark.parametrize("force_state", [None, "11", "0110"])
    def test_accounting_matches_per_period_reference(self, force_state):
        # low gamma and alpha: dangerous keeps, discards and alarms all occur
        cfg = small_config(gamma=12.0, alpha=10.0, n_periods=400, master_seed=7)
        report = run_session(cfg, force_state=force_state)
        periods = _simulate_chunk(cfg, 0, cfg.n_periods, force_state)
        expected = reference_accounting(cfg, periods)
        for name, value in expected.items():
            assert getattr(report, name) == value, name
        # Python numbers, as the JSON report serialises them
        assert all(type(c) is int for row in report.confusion_v + report.confusion_i for c in row)
        assert type(report.discard_rate) is float
        if force_state == "11":
            assert report.fidelity is None and report.rates["eps_hat_v_00"].p is None
        else:
            assert type(report.fidelity) is float
        counts = report.combined_counts
        alarms = sum(counts[s][CombinedOutcome.ALARM_CONFLICT.value] for s in ACTUAL_STATES)
        kept_00_11 = [counts[s][CombinedOutcome.KEEP_SECURE.value] for s in ("00", "11")]
        assert alarms > 0 or force_state == "11"
        assert min(kept_00_11) > 0 or force_state is not None

    def test_secure_fraction_near_half(self):
        n = 4000
        report = run_session(small_config(n_periods=n, master_seed=13))
        n_secure = report.moment_sums["0110"][0]
        # 4-sigma binomial window around 1/2
        assert abs(n_secure - n / 2) < 4 * math.sqrt(n * 0.25)

    def test_matches_per_period_simulation(self):
        cfg = small_config(n_periods=25, master_seed=17)
        report = run_session(cfg)
        for j in range(cfg.n_periods):
            period = _simulate_chunk(cfg, j, j + 1, None)
            assert np.array_equal(period["bits"][0], report.bits[j])
            assert read_periods(cfg, period["msv"], period["msi"])[0] == report.outcome_code[j]

    def test_top_bit_seeds_distinct_and_warning_free(self):
        cfg = small_config(n_periods=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports = [
                run_session(with_overrides(cfg, master_seed=seed))
                for seed in (2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1)
            ]
        assert reports[0].moment_sums != reports[1].moment_sums
        assert reports[2].moment_sums != reports[3].moment_sums

    # 2w - 1 periods run serially, 2w is the smallest pooled run, 301 splits unevenly
    @pytest.mark.parametrize(
        "workers, n_periods", [(w, n) for w in (2, 3, 4) for n in (2 * w - 1, 2 * w, 301)]
    )
    def test_parallel_identical_to_serial(self, workers, n_periods, monkeypatch):
        cfg = small_config(n_periods=n_periods, master_seed=19)
        serial = run_session(cfg)
        built = []

        class CountingShare(protocol._Share):
            def __init__(self, *args):
                built.append(args[1:3])
                super().__init__(*args)

        monkeypatch.setattr(protocol, "_Share", CountingShare)
        monkeypatch.setattr(protocol, "_usable_cpus", lambda: workers)  # on any machine
        parallel = run_session(cfg, workers=workers)
        # one child process per share but the caller's first
        assert len(built) == (workers - 1 if n_periods >= 2 * workers else 0)
        assert serial.to_dict() == parallel.to_dict()
        assert np.array_equal(serial.bits, parallel.bits)
        assert np.array_equal(serial.outcome_code, parallel.outcome_code)
        assert multiprocessing.active_children() == []

    def test_forced_state_conditioning(self):
        report = run_session(small_config(n_periods=500, master_seed=23), force_state="11")
        assert report.moment_sums["11"][0] == 500
        assert report.moment_sums["00"][0] == 0
        assert report.rates["eps_hat_i_00"].p is None  # undefined, not zero
        assert report.rates["eps_hat_i_11"].p is not None

    def test_undefined_rates_at_tiny_n(self):
        report = run_session(small_config(n_periods=1, master_seed=2), force_state="0110")
        assert report.rates["eps_hat_i_11"].p is None
        assert report.fidelity is not None

    def test_rejects_empty_session(self):
        with pytest.raises(ValueError):
            run_session(small_config(n_periods=0, master_seed=1))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_overflowing_noise_levels_rejected(self, workers, monkeypatch):
        # the bands are finite, but 4kT * R1 * f_s * n overflows float64 in the synthesis;
        # with 2 workers both the caller's share and the child process's share overflow
        cfg = small_config(t_eff=3.6e305, r=1e20, alpha=1000.0, n_periods=4, master_seed=2)
        cfg.bands()
        monkeypatch.setattr(protocol, "_usable_cpus", lambda: 2)
        with pytest.raises(ValueError, match="non-finite"), np.errstate(all="ignore"):
            run_session(cfg, workers=workers)
        assert multiprocessing.active_children() == []

    def test_config_warnings_not_repeated(self):
        # gamma < 10 and alpha < 10 each warn once, when the config is built
        with warnings.catch_warnings(record=True) as built:
            warnings.simplefilter("always")
            cfg = small_config(gamma=5.0, alpha=5.0, n_periods=50)
        assert sorted(w.category.__name__ for w in built) == [
            "DegenerateLevelsWarning",
            "SmallGammaWarning",
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_session(cfg)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rejects_unknown_force_state(self, workers, monkeypatch):
        def no_process(*args, **kwargs):
            raise AssertionError("a worker process was started before force_state was checked")

        monkeypatch.setattr(protocol, "_Share", no_process)
        monkeypatch.setattr(protocol, "_usable_cpus", lambda: 2)
        with pytest.raises(ValueError, match="force_state"):
            run_session(small_config(n_periods=20), force_state="01", workers=workers)

    @pytest.mark.parametrize(
        "workers, cpus, processes, shares",
        [
            (5000, 2, 1, [(20, 40)]),
            (3, 8, 2, [(13, 26), (26, 40)]),
            (2, 1, 0, []),  # one CPU runs serially
        ],
        ids=["5000-2-1", "3-8-2", "2-1-None"],  # workers, usable CPUs, child processes
    )
    def test_pool_capped_at_usable_cpus(self, workers, cpus, processes, shares, monkeypatch):
        submitted = []

        class InlineShare:
            """Records each share's (start, stop) in place of a child process, and runs the share here."""

            def __init__(self, *args):
                submitted.append(args[1:3])
                self._chunk = _simulate_chunk(*args)

            def result(self):
                return self._chunk

            def close(self):
                pass

        cfg = small_config(n_periods=40, master_seed=41)
        serial = run_session(cfg)
        monkeypatch.setattr(protocol, "_Share", InlineShare)
        monkeypatch.setattr(protocol, "_usable_cpus", lambda: cpus)
        report = run_session(cfg, workers=workers)
        # the calling process is one of the workers: the children get every share but the first
        assert len(submitted) == processes
        assert submitted == shares
        assert report.to_dict() == serial.to_dict()
        assert np.array_equal(report.bits, serial.bits)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_workers_below_one(self, workers, monkeypatch):
        def no_process(*args, **kwargs):
            raise AssertionError("a worker process was started for an invalid worker count")

        monkeypatch.setattr(protocol, "_Share", no_process)
        with pytest.raises(ValueError, match="workers"):
            run_session(small_config(n_periods=20), workers=workers)

    @pytest.mark.parametrize("workers", [2.0, 1.5, True, False, "2", None])
    def test_rejects_non_integer_workers(self, workers, monkeypatch):
        def no_process(*args, **kwargs):
            raise AssertionError("a worker process was started for an invalid worker count")

        monkeypatch.setattr(protocol, "_Share", no_process)
        with pytest.raises(ValueError, match="workers must be an integer"):
            run_session(small_config(n_periods=20), workers=workers)

    def test_numpy_integer_workers(self):
        cfg = small_config(n_periods=20)
        assert run_session(cfg, workers=np.int64(1)).to_dict() == run_session(cfg).to_dict()

    def test_usable_cpus(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert protocol._usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert protocol._usable_cpus() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
        assert protocol._usable_cpus() == 1

    def test_msq_correlation_diagnostic(self):
        report = run_session(small_config(n_periods=2000, master_seed=29), force_state="11")
        corr = msq_correlation(report.moment_sums["11"])
        assert abs(corr) < 4 / math.sqrt(2000)


def fork_children(monkeypatch):
    """Start the share runner's children by fork, so that they inherit this process's patches."""
    monkeypatch.setattr(multiprocessing, "Process", multiprocessing.get_context("fork").Process)
    monkeypatch.setattr(protocol, "_usable_cpus", lambda: 2)


class TestShareRunner:
    """Child processes that fail: the call raises, and no process outlives it."""

    @staticmethod
    def exit_mid_share(monkeypatch):
        chunk = _simulate_chunk

        def exits_in_child(config, start, stop, *rest):
            if start == 0:  # the caller's share
                return chunk(config, start, stop, *rest)
            chunk(config, start, start + 1, *rest)
            os._exit(7)

        fork_children(monkeypatch)
        monkeypatch.setattr(protocol, "_simulate_chunk", exits_in_child)

    def test_child_exit_raises(self, monkeypatch):
        self.exit_mid_share(monkeypatch)
        with pytest.raises(WorkerExited, match="exited with code 7 before sending its share"):
            run_session(small_config(n_periods=20), workers=2)
        assert multiprocessing.active_children() == []
        assert issubclass(WorkerExited, OSError)  # so the CLI reads it as a runtime failure

    def test_child_exit_is_cli_runtime_error(self, monkeypatch, capsys, tmp_path):
        self.exit_mid_share(monkeypatch)
        path = tmp_path / "run.cfg"
        path.write_text("n_periods = 20\n")
        code = main(["sweep", "--gammas", "30", "--workers", "2", "--config", str(path)])
        out = capsys.readouterr()
        assert code == 3
        assert out.out == "" and out.err.startswith("runtime error: a worker process exited with code 7")
        assert multiprocessing.active_children() == []

    def test_child_exception_reraised(self, monkeypatch):
        # a current-mode rate runs one-reading chunks in every share
        def fails(config, start, stop, force_state, reading=None):
            assert reading == "msi"
            if start:
                raise MemoryError(f"share from {start} failed")
            return _simulate_chunk(config, start, stop, force_state, reading)

        fork_children(monkeypatch)
        monkeypatch.setattr(protocol, "_simulate_chunk", fails)
        with pytest.raises(MemoryError, match="share from 10 failed"):
            error_rate(small_config(n_periods=20), "current", "11", workers=2)
        assert multiprocessing.active_children() == []


class TestErrorRate:
    # low gamma and alpha: every mode reads some forced 00 and 11 periods as secure
    CONFIG = small_config(gamma=12.0, alpha=10.0, n_periods=301, master_seed=7)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("force_state", ["00", "11"])
    @pytest.mark.parametrize("mode, prefix", [("voltage", "v"), ("current", "i"), ("combined", "combined")])
    def test_equals_session_rate(self, mode, prefix, force_state, workers, monkeypatch):
        monkeypatch.setattr(protocol, "_usable_cpus", lambda: 2)  # a child process on any machine
        expected = run_session(self.CONFIG, force_state=force_state, workers=workers)
        got = error_rate(self.CONFIG, mode, force_state, workers=workers)
        assert got == expected.rates[f"eps_hat_{prefix}_{force_state}"]
        assert 0 < got.k < got.n == self.CONFIG.n_periods
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("force_state", [None, "0110", "01", 11])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_rejects_force_state_a_sweep_cannot_count(self, force_state, workers, monkeypatch):
        def no_process(*args, **kwargs):
            raise AssertionError("a worker process was started before force_state was checked")

        monkeypatch.setattr(protocol, "_Share", no_process)
        monkeypatch.setattr(protocol, "_simulate_chunk", no_process)
        monkeypatch.setattr(protocol, "_usable_cpus", lambda: 2)
        with pytest.raises(ValueError, match="force_state must be one of 00, 11, got"):
            error_rate(self.CONFIG, "current", force_state, workers=workers)

    @pytest.mark.parametrize(
        "mode, force_state, workers, message",
        [
            ("current_only", "11", 1, "mode must be one of voltage, current, combined"),
            ("current", "11", 0, "workers must be >= 1"),
            ("current", "11", 2.0, "workers must be an integer"),
        ],
    )
    def test_rejects_before_any_period_runs(self, mode, force_state, workers, message, monkeypatch):
        def no_process(*args, **kwargs):
            raise AssertionError("a period ran for a call that must be refused")

        monkeypatch.setattr(protocol, "_Share", no_process)
        monkeypatch.setattr(protocol, "_simulate_chunk", no_process)
        with pytest.raises(ValueError, match=message):
            error_rate(self.CONFIG, mode, force_state, workers=workers)

    # per (mode, state): the reading, its reader, the cut between the state's level and the secure
    # band, that cut's fraction, the level, and the cut's side (+1: level * (1 + f), read insecure below;
    # -1: level * (1 - f), read insecure above)
    CUTS = {
        ("current", "11"): ("msi", interpret_current, "i_low_cut", "lam", "i_11", 1),
        ("voltage", "11"): ("msv", interpret_voltage, "v_high_cut", "delta", "v_11", -1),
        ("current", "00"): ("msi", interpret_current, "i_high_cut", "rho", "i_00", -1),
        ("voltage", "00"): ("msv", interpret_voltage, "v_low_cut", "beta", "v_00", 1),
    }

    @pytest.mark.parametrize("mode, state", list(CUTS), ids=[f"{m}-{s}" for m, s in CUTS])
    def test_period_on_a_cut_resolved(self, mode, state):
        """A period exactly on a cut reads secure, and the sweep's rate counts it as the session does.

        The period is the first period of the forced state that lies past
        the state's level on the cut's side and whose mean square a cut can
        be set at exactly.
        """
        reading, interpret, cut_name, fraction, level_name, side = self.CUTS[mode, state]
        cfg = self.CONFIG
        ms_all = _simulate_chunk(cfg, 0, cfg.n_periods, state, reading)[reading]
        level = getattr(cfg.levels(), level_name)
        # the cut lies between the level and the secure band: every fraction is positive
        for period in np.flatnonzero(side * (ms_all - level) > 0).tolist():
            ms = float(ms_all[period])
            cfg = with_overrides(self.CONFIG, **{fraction: side * (ms / level - 1)})
            if getattr(cfg.bands(), cut_name) == ms:
                break
        else:
            pytest.fail("no period's mean square lies past the level where a cut can be set at it")
        # the cuts move no mean square: the streams do not depend on them
        assert _simulate_chunk(cfg, 0, cfg.n_periods, state)[reading][period] == ms
        assert interpret(ms, cfg.bands()) is Interpretation.SECURE_0110
        got = error_rate(cfg, mode, state)
        assert got == run_session(cfg, force_state=state).rates[f"eps_hat_{reading[2]}_{state}"]
        secure = [interpret(x, cfg.bands()) is Interpretation.SECURE_0110 for x in ms_all.tolist()]
        assert got.k == sum(secure)

    def test_empty_secure_band_refused(self):
        with pytest.raises(ValueError, match="empty secure band"):
            error_rate(small_config(lam=0.99, rho=0.99), "current", "11")

    @pytest.mark.parametrize("mode", ["voltage", "current", "combined"])
    def test_overflowing_noise_levels_rejected(self, mode):
        cfg = small_config(t_eff=3.6e305, r=1e20, alpha=1000.0, n_periods=4, master_seed=2)
        with pytest.raises(ValueError, match="non-finite"), np.errstate(all="ignore"):
            error_rate(cfg, mode, "11")

    @pytest.mark.parametrize(
        "run",
        [
            lambda cfg: error_rate(cfg, "voltage", "11"),
            lambda cfg: error_rate(cfg, "current", "11"),
            lambda cfg: run_session(cfg),
            lambda cfg: run_session(cfg, force_state="0110"),
            lambda cfg: run_session(cfg, force_state="11"),
        ],
        ids=["voltage", "current", "session", "session-0110", "session-11"],
    )
    def test_overflowing_scale_refused_without_float_warnings(self, run):
        """A run whose coefficient scale is inf refuses with no numpy warning.

        Under the suite's ``error::RuntimeWarning`` filter a warning would
        raise in place of the ValueError. With random or 0110 bits rho is
        inf or nan for the unequal-resistor periods, whose ``irfft`` would
        warn of an invalid value.
        """
        cfg = small_config(t_eff=3.6e305, r=1e20, alpha=1000.0, n_periods=4, master_seed=2)
        assert cfg.noise_spec(cfg.resistors.r1, cfg.samples_per_period).scale == math.inf
        with pytest.raises(ValueError, match="non-finite"):
            run(cfg)


def chunk_peaks(cfg, *args):
    """Counts of 25 and 100 blocks of periods, and the traced peak memory of ``_simulate_chunk`` over each."""
    block = protocol._block_periods(cfg.samples_per_period)
    counts = (25 * block, 100 * block)
    # untraced warm-up: one-time allocations of a first call would hide growth in the first peak
    _simulate_chunk(cfg, 0, block, *args)
    peaks = []
    for count in counts:
        tracemalloc.start()
        try:
            _simulate_chunk(cfg, 0, count, *args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return counts, peaks


class TestBlockKernel:
    @settings(max_examples=80, deadline=None)
    @given(
        gamma=st.floats(3.0, 200.0),
        alpha=st.floats(1.5, 1000.0),
        oversample=st.sampled_from([2, 3, 4, 5]),
        force_state=st.sampled_from([None, "00", "11", "0110"]),
        master_seed=st.integers(0, 2**64 - 1),
        start=st.integers(0, 2**40),
        length=st.integers(1, 12),
        block_bytes=st.integers(1, 2**16),
    )
    def test_matches_per_period_loop(
        self, gamma, alpha, oversample, force_state, master_seed, start, length, block_bytes
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SmallGammaWarning)
            warnings.simplefilter("ignore", DegenerateLevelsWarning)
            # fractions of 0.1 leave a secure band down to alpha 1.5; they move no mean square
            fractions = dict(beta=0.1, delta=0.1, lam=0.1, rho=0.1)
            cfg = SystemConfig(gamma=gamma, alpha=alpha, oversample=oversample, master_seed=master_seed, **fractions)
        with warnings.catch_warnings(), pytest.MonkeyPatch.context() as mp:
            warnings.simplefilter("error")  # the config warned when built; the kernel must not
            # a budget this small puts block boundaries inside the chunk
            mp.setattr(protocol, "_BLOCK_BYTES", block_bytes)
            got = _simulate_chunk(cfg, start, start + length, force_state)
        assert_matches_reference(cfg, start, start + length, force_state, got)

    @pytest.mark.parametrize(
        "gamma, oversample",
        # 2800 and 4000 samples per period, and 3000 with the Nyquist bin in band
        [(700.0, 4), (1000.0, 4), (1500.0, 2)],
    )
    @pytest.mark.parametrize("force_state", [None, "0110", "00", "11"])
    def test_matches_per_period_loop_where_floor_binds(self, gamma, oversample, force_state):
        cfg = SystemConfig(gamma=gamma, alpha=100.0, oversample=oversample, master_seed=2**64 - 59)
        n = cfg.samples_per_period
        block = protocol._block_periods(n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(protocol, "_MIN_BLOCK_PERIODS", 1)
            assert protocol._block_periods(n) < block  # the budget alone gives smaller blocks
        # two floor-sized blocks and a partial one
        start, stop = 2**40 + 11, 2**40 + 11 + 2 * block + 3
        assert_matches_reference(cfg, start, stop, force_state, _simulate_chunk(cfg, start, stop, force_state))

    @pytest.mark.parametrize("gamma", [30.0, 1000.0, 2048.0])
    def test_block_bounded_by_budget(self, gamma):
        """Peak memory stays within the budget for blocks of many short periods or of a few long ones."""
        cfg = small_config(gamma=gamma)
        n = cfg.samples_per_period
        block = protocol._block_periods(n)
        # the block's samples alone (two parties, float64) fit the budget
        assert 1 < block * 2 * n * 8 <= protocol._BLOCK_BYTES
        counts, peaks = chunk_peaks(cfg, None)
        # at gamma 1000, holding 400 periods at once would take 400 * 2 * 4000 * 8 B = 25.6 MB of samples
        assert peaks[1] < 2 * protocol._BLOCK_BYTES
        # beyond the chunk's own results (int8 bits of both parties, float64 msv and msi),
        # memory does not grow with the number of blocks
        results = (counts[1] - counts[0]) * (2 + 8 + 8)
        assert peaks[1] - peaks[0] - results < 0.05 * protocol._BLOCK_BYTES

    def test_report_independent_of_block_size(self):
        # at gamma 1000 the long-period floor sets the default block size
        for gamma in (50.0, 1000.0):
            cfg = small_config(gamma=gamma, n_periods=1000, master_seed=37)
            assert protocol._block_periods(cfg.samples_per_period) < cfg.n_periods
            default = run_session(cfg)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(protocol, "_BLOCK_BYTES", 1)  # one period per block
                assert protocol._block_periods(cfg.samples_per_period) == 1
                single = run_session(cfg)
            assert single.to_dict() == default.to_dict()
            assert np.array_equal(single.bits, default.bits)
            assert np.array_equal(single.outcome_code, default.outcome_code)


class TestOneReadingKernel:
    @pytest.mark.parametrize("gamma", [12.0, 37.3, 100.0, 1000.0])
    @pytest.mark.parametrize("oversample", [2, 3, 4])
    @pytest.mark.parametrize("force_state", ["00", "11"])
    @pytest.mark.parametrize("reading", ["msv", "msi"])
    def test_agrees_with_two_wave_kernel(self, gamma, oversample, force_state, reading):
        """A one-reading chunk gives that reading of the two-reading chunk, byte for byte."""
        cfg = small_config(gamma=gamma, alpha=10.0, oversample=oversample, master_seed=2**64 - 59)
        block = protocol._block_periods(cfg.samples_per_period)
        start, stop = 2**40 + 11, 2**40 + 11 + 2 * block + 3  # two blocks and a partial one
        both = _simulate_chunk(cfg, start, stop, force_state)
        one = _simulate_chunk(cfg, start, stop, force_state, reading)
        assert sorted(one) == sorted(["bits", reading])
        assert one["bits"].tobytes() == both["bits"].tobytes()
        assert one[reading].tobytes() == both[reading].tobytes()

    @pytest.mark.parametrize("gamma", [30.0, 1000.0])
    @pytest.mark.parametrize("reading", ["msv", "msi"])
    def test_block_bounded_by_budget(self, gamma, reading):
        """The two-reading chunk's memory bounds hold for a one-reading chunk, in the same blocks."""
        counts, peaks = chunk_peaks(small_config(gamma=gamma), "11", reading)
        assert peaks[1] < 2 * protocol._BLOCK_BYTES
        # beyond the chunk's own results (int8 bits of both parties, float64 mean squares of the
        # reading), memory does not grow with the number of blocks
        results = (counts[1] - counts[0]) * (2 + 8)
        assert peaks[1] - peaks[0] - results < 0.05 * protocol._BLOCK_BYTES

    @pytest.mark.parametrize("force_state", ["00", "11"])
    @pytest.mark.parametrize("reading", ["msv", "msi"])
    def test_independent_of_block_size(self, force_state, reading):
        """The floor's blocks, one period per block and the budget's blocks give the same bytes."""
        cfg = small_config(gamma=1000.0, master_seed=37)
        n = cfg.samples_per_period
        start, stop = 2**40 + 11, 2**40 + 11 + 2 * protocol._block_periods(n) + 3
        results, sizes = [], []
        for name, value in [(None, None), ("_BLOCK_BYTES", 1), ("_MIN_BLOCK_PERIODS", 1)]:
            with pytest.MonkeyPatch.context() as mp:
                if name:
                    mp.setattr(protocol, name, value)
                sizes.append(protocol._block_periods(n))
                results.append(_simulate_chunk(cfg, start, stop, force_state, reading))
        # at gamma 1000 the long-period floor sets the default block size
        assert sizes[0] > sizes[2] > sizes[1] == 1
        for got in results[1:]:
            assert got["bits"].tobytes() == results[0]["bits"].tobytes()
            assert got[reading].tobytes() == results[0][reading].tobytes()

    @pytest.mark.parametrize("force_state", ["0110", None, "00", "11"])
    @pytest.mark.parametrize("reading", ["msv", "msi"])
    def test_equals_that_reading_of_both(self, force_state, reading):
        """In every state a one-reading chunk gives that reading of the two-reading chunk, byte for byte.

        Random and 0110 periods have unequal resistors, whose rho is not
        +1 or -1; oversample 2 puts the Nyquist bin in band.
        """
        for oversample in (2, 4):
            cfg = small_config(oversample=oversample, n_periods=300, master_seed=2**64 - 59)
            both = _simulate_chunk(cfg, 0, cfg.n_periods, force_state)
            one = _simulate_chunk(cfg, 0, cfg.n_periods, force_state, reading)
            assert sorted(one) == sorted(["bits", reading])
            assert one["bits"].tobytes() == both["bits"].tobytes()
            assert one[reading].tobytes() == both[reading].tobytes()

    # resistors that bring the reading's mean squares near the top of float64 at an SI t_eff below it
    @pytest.mark.parametrize(
        "reading, r, refused",
        [("msv", 1e25, [False, True, True]), ("msi", 1e-25, [False, False, True])],
        ids=["msv", "msi"],
    )
    def test_refuses_where_the_two_wave_stage_does(self, reading, r, refused):
        """Windowed sums of squares 64x and 4x below float64's largest, and 4x above it: both chunks refuse alike.

        A voltage's windowed sum of squares is about 1 / (4 * oversample) of
        psd * f_s * n, the product under its coefficient scale's square root,
        so 4x below the largest float that product already overflows and both
        chunks refuse. A current's sums also grow with 1 / r**2, and its
        scale does not bind.
        """
        base = small_config(r=r, t_eff=1.0, n_periods=20, master_seed=5)
        n = base.samples_per_period
        sums = _simulate_chunk(base, 0, base.n_periods, "00")[reading] * (n - n // 2)
        # the mean squares, and so the windowed sums, are proportional to t_eff
        top = np.finfo(float).max / sums.max()
        got = []
        for t_eff in (top / 64, top / 4, top * 4):
            cfg = with_overrides(base, t_eff=t_eff)
            outcomes = []
            for chunk_reading in (None, reading):
                try:
                    with np.errstate(all="ignore"):
                        periods = _simulate_chunk(cfg, 0, cfg.n_periods, "00", chunk_reading)
                    outcomes.append(periods[reading])
                except ValueError as exc:
                    assert "non-finite" in str(exc)
                    outcomes.append(None)
            both, one = outcomes
            assert (one is None) is (both is None), t_eff
            if one is not None:
                assert one.tobytes() == both.tobytes()
            got.append(one is None)
        assert got == refused


class TestReadingTables:
    @settings(derandomize=True, deadline=None)
    @given(
        r=st.floats(1e-12, 1e12),
        alpha=st.floats(1.5, 1e6),
        t_eff=st.one_of(st.just("normalized"), st.floats(1e-3, 1e20)),
        gamma=st.floats(12.0, 200.0),
        oversample=st.sampled_from([2, 3, 4]),
    )
    def test_equal_resistors_give_rho_plus_or_minus_one(self, r, alpha, t_eff, gamma, oversample):
        """rho[b, b] is exactly +1 for msv and -1 for msi, and the gains are the circuit's loop law at unit inputs.

        So in a forced 00 or 11 chunk the one-pass ``np.add`` or
        ``np.subtract`` of the normals writes the bytes of the general
        ``z_a + rho * z_b``, and the Nyquist slot's rho_nyquist is +1 or -1
        too.
        """
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateLevelsWarning)
            cfg = SystemConfig(r=r, alpha=alpha, t_eff=t_eff, gamma=gamma, oversample=oversample)
        n = cfg.samples_per_period
        layout, q, tables = protocol._reading_tables(cfg, n)
        r_bit = (cfg.resistors.r0, cfg.resistors.r1)
        assert layout == cfg.noise_spec(r_bit[0], n)
        scale = [cfg.noise_spec(x, n).scale for x in r_bit]
        one, zero = np.ones(1), np.zeros(1)
        for name, solve, sign in (("msv", channel_voltage, 1.0), ("msi", channel_current, -1.0)):
            amp, rho, rho_nyquist = tables[name]
            for b in (0, 1):
                assert rho[b, b] == rho_nyquist[b, b] == sign, (name, b)
            for a in (0, 1):
                for b in (0, 1):
                    g_a, g_b = solve(one, zero, r_bit[a], r_bit[b])[0], solve(zero, one, r_bit[a], r_bit[b])[0]
                    assert amp[a, b] == g_a * scale[a], (name, a, b)
                    assert rho[a, b] == g_b * scale[b] / amp[a, b], (name, a, b)
        assert np.array_equal(q, [cfg.noise_spec(x, n).nyquist_scale / cfg.noise_spec(x, n).scale for x in r_bit])

    @pytest.mark.parametrize("force_state", [None, "00"])
    def test_tables_follow_a_patched_noise_spec(self, monkeypatch, force_state):
        """A run after ``noise_spec`` is patched reads the patched spec, whatever ran before it in the process.

        Each call builds its tables anew: four times the PSD doubles every
        scale exactly, so every mean square is exactly four times the one the
        unpatched run gave.
        """
        cfg = small_config(n_periods=20)
        before = _simulate_chunk(cfg, 0, cfg.n_periods, force_state)
        spec = SystemConfig.noise_spec

        def hotter(self, r, n_samples):
            s = spec(self, r, n_samples)
            return dataclasses.replace(s, psd_level=4 * s.psd_level)

        monkeypatch.setattr(SystemConfig, "noise_spec", hotter)
        after = _simulate_chunk(cfg, 0, cfg.n_periods, force_state)
        assert np.array_equal(after["bits"], before["bits"])
        for name in ("msv", "msi"):
            assert np.array_equal(after[name], 4 * before[name]), name


def window_gram(cfg):
    """G = S·Sᵀ / N_w, where row j of S is the measured half-period of unit-scale normal j alone.

    S is the identity pushed through ``band_coefficients`` (unit scale,
    Nyquist scale √2, the ratio of every spec's two scales), ``irfft`` and
    ``measurement_slice``; N_w is the window's length. A period's windowed
    mean square of the normals z at scale s is then s²·zᵀGz.
    """
    n = cfg.samples_per_period
    layout = cfg.noise_spec(cfg.resistors.r0, n)
    unit = band_coefficients(layout, np.eye(layout.n_normals), 1.0, math.sqrt(2.0))
    synthesis = np.fft.irfft(unit, n=n, axis=-1)[:, measurement_slice(n)]
    return synthesis @ synthesis.T / synthesis.shape[1]


class TestQuadraticFormOracle:
    """Every chunk's mean squares against quadratic forms of each period's normals, with no FFT of their own."""

    @pytest.mark.parametrize("gamma", [12.0, 50.0])
    @pytest.mark.parametrize("oversample", [2, 4])  # oversample 2 puts the Nyquist bin in band
    @pytest.mark.parametrize(
        "force_state, reading",
        [(None, None), ("0110", None), ("00", None), ("11", None)]
        + [(state, reading) for state in ("00", "11") for reading in ("msv", "msi")],
    )
    def test_mean_squares_are_quadratic_forms(self, gamma, oversample, force_state, reading):
        cfg = small_config(gamma=gamma, oversample=oversample, n_periods=40, master_seed=2**64 - 59)
        n = cfg.samples_per_period
        gram = window_gram(cfg)
        r_bit = (cfg.resistors.r0, cfg.resistors.r1)
        scale = [cfg.noise_spec(r, n).scale for r in r_bit]
        start = 2**40 + 11
        got = _simulate_chunk(cfg, start, start + cfg.n_periods, force_state, reading)
        for j in range(cfg.n_periods):
            # the period's bits and normals, drawn as the per-period loop draws them
            rng = rng_for_period(cfg.master_seed, start + j)
            bits = reference_period_bits(rng, force_state)
            assert tuple(got["bits"][j].tolist()) == bits
            (s_a, s_b), (r_a, r_b) = ([v[bit] for bit in bits] for v in (scale, r_bit))
            # Alice's normals, then Bob's, each at its coefficient scale: S_xy = s_x * s_y * z_x' G z_y
            z_a, z_b = (s * rng.standard_normal(len(gram)) for s in (s_a, s_b))
            s_aa, s_ab, s_bb = z_a @ gram @ z_a, z_a @ gram @ z_b, z_b @ gram @ z_b
            expected = {
                "msv": (r_b**2 * s_aa + 2 * r_a * r_b * s_ab + r_a**2 * s_bb) / (r_a + r_b) ** 2,
                "msi": (s_aa - 2 * s_ab + s_bb) / (r_a + r_b) ** 2,
            }
            for name in ("msv", "msi") if reading is None else (reading,):
                assert got[name][j] == pytest.approx(expected[name], rel=1e-12, abs=0), (j, name)


class TestStage:
    """``_stage`` alone, fed normals and bits with no draw loop, against quadratic forms zᵀGz."""

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        oversample=st.sampled_from([2, 4]),  # oversample 2 puts the Nyquist bin in band
        name=st.sampled_from(["msv", "msi"]),
        k=st.integers(1, 4),
    )
    def test_windowed_sums_are_quadratic_forms(self, data, oversample, name, k):
        cfg = small_config(gamma=12.0, oversample=oversample)
        n = cfg.samples_per_period
        rule = protocol._reading_tables(cfg, n)
        layout, q, tables = rule
        assert layout.nyquist is (oversample == 2)
        normal = st.floats(-8.0, 8.0, width=64)
        z = data.draw(arrays(np.float64, (k, 2, layout.n_normals), elements=normal))
        bits = data.draw(arrays(np.int8, (k, 2), elements=st.integers(0, 1)))
        out = np.empty(k)
        protocol._stage(np.zeros((k, n // 2 + 1), dtype=complex), z, *bits.T, rule, name, out)

        gram = window_gram(cfg)
        width = len(range(n)[measurement_slice(n)])
        top = np.linalg.eigvalsh(gram).max()
        _, rho, rho_nyquist = tables[name]
        for j, (a, b) in enumerate(bits.tolist()):
            # w: the reading's combination of each normal, in units of amp. The gram scales the Nyquist
            # normal by √2 where the stage scales it by q_a, and its irfft takes the 1/n that the stage
            # leaves to its caller
            gain = np.full(layout.n_normals, rho[a, b])
            weight = np.ones(layout.n_normals)
            if layout.nyquist:
                gain[0], weight[0] = rho_nyquist[a, b], q[a] / math.sqrt(2.0)
            w = (z[j, 0] + gain * z[j, 1]) * weight
            expected = n**2 * width * (w @ gram @ w)
            assert out[j] == pytest.approx(expected, rel=1e-12, abs=1e-12 * n**2 * width * top * (w @ w)), j

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        oversample=st.sampled_from([2, 3, 4]),
        name=st.sampled_from(["msv", "msi"]),
        bit=st.integers(0, 1),
        k=st.integers(1, 4),
    )
    def test_shared_int_bit_matches_the_array_path(self, seed, oversample, name, bit, k):
        """One int bit for both parties (the one-pass sum) writes the bytes of per-period bit arrays."""
        cfg = small_config(gamma=12.0, oversample=oversample)
        n = cfg.samples_per_period
        rule = protocol._reading_tables(cfg, n)
        z = np.random.default_rng(seed).standard_normal((k, 2, rule[0].n_normals))
        got = []
        for a in (bit, np.full(k, bit, dtype=np.int8)):
            out = np.empty(k)
            protocol._stage(np.zeros((k, n // 2 + 1), dtype=complex), z, a, a, rule, name, out)
            got.append(out.tobytes())
        assert got[0] == got[1]


class TestDrawBits:
    @settings(deadline=None)
    @given(
        data=st.data(),
        master_seed=st.integers(0, 2**64 - 1),
        start=st.integers(0, 2**64 - 1),
        block=st.integers(1, 4),
        force_state=st.sampled_from([None, "00", "11", "0110"]),
        n_normals=st.integers(0, 9),
    )
    def test_raw_word_matches_integer_draws(self, data, master_seed, start, block, force_state, n_normals):
        """Each period's bits are two ``integers(0, 2)`` draws of its stream, or Alice's and its complement for
        0110, and its normals that stream's next draws."""
        stop = data.draw(st.integers(start + 1, min(start + 6, 2**64)), label="stop")
        periods = drawn_periods(master_seed, start, stop, force_state, block, n_normals)
        for period, (bits, normals) in enumerate(periods, start):
            vector, scalar = rng_for_period(master_seed, period), rng_for_period(master_seed, period)
            if force_state is None:
                expected = (int(scalar.integers(0, 2)), int(scalar.integers(0, 2)))
            elif force_state == "0110":
                a = int(scalar.integers(0, 2))
                expected = (a, 1 - a)
            else:
                expected = (int(force_state[0]),) * 2
            assert bits == expected == reference_period_bits(vector, force_state)
            # the streams stay in step for the normals drawn after the bits
            for rng in (scalar, vector):
                assert np.array_equal(normals, rng.standard_normal((2, n_normals)))

    @settings(max_examples=30, deadline=None)
    @given(
        master_seed=st.integers(0, 2**64 - 1),
        index=st.integers(0, 2**64 - 2),
        force_state=st.sampled_from(["00", "11"]),
    )
    def test_forced_periods_draw_normals_from_word_0(self, master_seed, index, force_state):
        cfg = small_config(master_seed=master_seed)
        got = _simulate_chunk(cfg, index, index + 1, force_state)
        assert got["bits"].tolist() == [[int(force_state[0])] * 2]
        assert_matches_reference(cfg, index, index + 1, force_state, got)


class TestSeedExactOutput:
    """Per-period bits, outcome codes and counts pinned across commits.

    The digests and counts were recorded before the kernel called the
    library's loop solve and mean square, and before ``_draw_bits`` drew its
    two bits as scalars; any change of the simulated stream moves them.
    """

    CONFIG = SystemConfig(gamma=30, alpha=100, lam=0.2, n_periods=2000, master_seed=41)

    @pytest.mark.parametrize(
        "force_state, bits_sha256, outcome_sha256, counts",
        [
            (
                None,
                "b599c2249ccdcabed9af1d046451cdcd9e9542bc70dae112c0913414ddf10fdb",
                "983ac9ddb4c1275c3ee5047e814199014a28c429c36ca06d495bb4891069d6ac",
                {
                    "00": (0, 524, 0, 0),
                    "11": (0, 0, 515, 0),
                    "0110": (786, 141, 27, 7),
                },
            ),
            (
                "0110",
                "b2741801315a5239d22cfeb7b6bfa5f2a48c48f291ccc3891751f3d9174cc85f",
                "3d18bf79cb26c0b48b376cf22809c3080f7d62236548a6e36f595838b9fb9448",
                {
                    "00": (0, 0, 0, 0),
                    "11": (0, 0, 0, 0),
                    "0110": (1641, 283, 64, 12),
                },
            ),
        ],
    )
    def test_golden(self, force_state, bits_sha256, outcome_sha256, counts):
        report = run_session(self.CONFIG, force_state=force_state)
        assert hashlib.sha256(report.bits.tobytes()).hexdigest() == bits_sha256
        assert hashlib.sha256(report.outcome_code.tobytes()).hexdigest() == outcome_sha256
        # counts per actual state in tuple(CombinedOutcome) order
        assert report.combined_counts == {
            state: {o.value: c for o, c in zip(OUTCOMES, row)} for state, row in counts.items()
        }

    @pytest.mark.parametrize(
        "overrides, force_state, digests",
        [
            (
                dict(gamma=100.0, n_periods=500, master_seed=43),
                "11",
                (
                    "353c38352a855c80f4ecb0793a76493228541b5fab5ef7af26effac91e77ec46",
                    "491375f7cae641b3dbd2eab9d1efc6841f6343a96dfa56e926dff73fd0c6b377",
                    "bccbe99b61ca42861b33d5b4400ecd53f60f441265d6c902c2a1b19672f210ba",
                ),
            ),
            (
                dict(gamma=1000.0, n_periods=53, master_seed=47),
                "11",
                (
                    "4fb5820c88b9bbde14a63d9512f66a0ff12d9dcbc3cd27f4e82cb88dc25020a0",
                    "b41010020e5d8e026f63057046ffc2a59335c6a635377e777a1bb19b665132d7",
                    "6623cb18bdf1da464ec445edd5b5ae0d40fb66ed39cd4744ba222383825ac25d",
                ),
            ),
            (
                # sample_rate = 2 * b_kljn: the Nyquist bin is in band
                dict(gamma=37.3, oversample=2, n_periods=2500, master_seed=53),
                None,
                (
                    "0884e270a2cf16b3b724544df4a9c9473375b31dcbe30c7ffde0b2dbd4fa2e6b",
                    "396d3edca2e6a80075c7f341bacbefb962498e9bde33bdfd0554b33fd55b6180",
                    "ea856bf691ff5731a8f24bab26088a9e4208d7b66e9a2ab75a911e85e084c0d3",
                ),
            ),
        ],
    )
    def test_golden_multi_block_chunks(self, overrides, force_state, digests):
        """Bits and mean-square bytes of chunks that span several blocks and end in a partial one.

        The bits were recorded with 4 MiB blocks, where these chunks also end
        in a partial block; the mean squares were re-recorded when every
        reading came to be solved on the normals and transformed alone (the
        forced chunks' digests are those the one-reading chunks had before).
        The float bytes pin more than the outcome codes do.
        """
        cfg = SystemConfig(alpha=100.0, lam=0.3, **overrides)
        block = protocol._block_periods(cfg.samples_per_period)
        assert cfg.n_periods > 2 * block and cfg.n_periods % block
        got = _simulate_chunk(cfg, 0, cfg.n_periods, force_state)
        assert tuple(hashlib.sha256(got[name].tobytes()).hexdigest() for name in ("bits", "msv", "msi")) == digests

    @pytest.mark.parametrize(
        "force_state, confusion_v, confusion_i, rates, fidelity, discard_rate",
        [
            (
                None,
                [[509, 0, 15], [0, 511, 4], [148, 0, 813]],
                [[517, 0, 7], [0, 422, 93], [0, 34, 927]],
                {"v_00": (15, 524), "v_11": (4, 515), "i_00": (7, 524), "i_11": (93, 515),
                 "combined_00": (0, 524), "combined_11": (0, 515)},
                0.81789802289282,
                0.607,
            ),
            (
                "0110",
                [[0, 0, 0], [0, 0, 0], [295, 0, 1705]],
                [[0, 0, 0], [0, 0, 0], [0, 76, 1924]],
                {name: (0, 0) for name in ("v_00", "v_11", "i_00", "i_11", "combined_00", "combined_11")},
                0.8205,
                0.1795,
            ),
        ],
    )
    def test_golden_accounting(self, force_state, confusion_v, confusion_i, rates, fidelity, discard_rate):
        report = run_session(self.CONFIG, force_state=force_state)
        assert report.confusion_v == confusion_v
        assert report.confusion_i == confusion_i
        assert {name[len("eps_hat_"):]: (r.k, r.n) for name, r in report.rates.items()} == rates
        assert report.fidelity == fidelity
        assert report.discard_rate == discard_rate


class TestKeyExtraction:
    def test_kept_secure_periods_agree(self):
        bits = np.array([(0, 1), (1, 0), (0, 0)], dtype=np.int8)
        outcome_code = codes(
            CombinedOutcome.KEEP_SECURE,
            CombinedOutcome.KEEP_SECURE,
            CombinedOutcome.DISCARD_INSECURE_00,
        )
        alice, bob = extract_key(bits, outcome_code)
        assert alice == [0, 1]
        assert bob == [0, 1]

    def test_wrongly_kept_insecure_period_mismatches(self):
        bits = np.array([(0, 0)], dtype=np.int8)
        alice, bob = extract_key(bits, codes(CombinedOutcome.KEEP_SECURE))
        assert alice == [0] and bob == [1]

    @given(
        st.integers(0, 40).flatmap(
            lambda n: st.tuples(
                arrays(np.int8, (n, 2), elements=st.integers(0, 1)),
                arrays(np.int8, n, elements=st.integers(0, len(OUTCOMES) - 1)),
            )
        )
    )
    def test_matches_per_period_loop(self, periods):
        bits, outcome_code = periods
        alice, bob = extract_key(bits, outcome_code)
        assert (alice, bob) == reference_extract_key(bits, outcome_code)
        assert all(type(b) is int for b in alice + bob)
        assert len(key_to_hex(alice)) == 2 * ((len(alice) + 7) // 8)

    def test_session_keys_agree_when_no_dangerous_errors(self):
        report = run_session(small_config(gamma=100.0, n_periods=400, master_seed=31))
        alice, bob = extract_key(report.bits, report.outcome_code)
        mismatches = sum(a != b for a, b in zip(alice, bob))
        dangerous = (
            report.combined_counts["00"][CombinedOutcome.KEEP_SECURE.value]
            + report.combined_counts["11"][CombinedOutcome.KEEP_SECURE.value]
        )
        assert len(alice) == len(bob)
        assert mismatches == dangerous

    @given(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=70))
    def test_key_to_hex_matches_big_int_loop(self, bits):
        assert key_to_hex(bits) == reference_key_to_hex(bits)

    def test_key_to_hex(self):
        assert key_to_hex([]) == ""
        assert key_to_hex([1, 0, 1, 0, 1, 0, 1, 0]) == "aa"
        assert key_to_hex([1]) == "80"  # MSB-first with zero padding


class TestWilsonInterval:
    def test_endpoints_clamped(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and hi < 0.05
        lo, hi = wilson_interval(100, 100)
        assert hi == 1.0 and lo > 0.95

    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(7, 50)
        assert lo < 7 / 50 < hi

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(6, 5)
