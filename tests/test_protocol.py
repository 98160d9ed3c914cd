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
from kljn.circuit import DegenerateLevelsWarning, channel_waveforms
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
from kljn.exact import window_gram
from kljn.noise import rng_for_period
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
from exact import msq_correlation
from gates import GATES
from goldens import COUNTS, FLOAT, GOLDENS, compute, rows
from mutants import inject
from reference import reference_waves
from streams import drawn_periods

OUTCOMES = tuple(CombinedOutcome)


def small_config(**kw):
    defaults = dict(alpha=10.0, gamma=50.0, n_periods=200, master_seed=3)
    defaults.update(kw)
    return SystemConfig(**defaults)


# the product under R1's coefficient scale overflows float64, but the scale, the levels and every
# mean square fit: only the sums of squared mean squares overflow
NEAR_TOP = dict(t_eff=3.6e305, r=1e20, alpha=1000.0, n_periods=4, master_seed=2)
# R1's coefficient scale itself, about sqrt(5e307 * 4e307 * 120 / 4), is past float64; so are the levels
INF_SCALE = dict(r=5e304, alpha=1000.0, b_kljn=1e307, gamma=30.0, n_periods=4, master_seed=2)


def overflowing(cfg, reading, state):
    """``cfg`` at the t_eff that puts ``reading``'s ``state`` level at an eighth of float64's largest.

    Every level stays finite where ``state`` has the reading's largest
    level, but each period's windowed sum of at least 100 squares is past
    float64's largest.
    """
    levels = cfg.levels()
    level = (levels.voltage_for if reading == "msv" else levels.current_for)(state)
    return with_overrides(cfg, t_eff=cfg.t_eff * (np.finfo(float).max / 8 / level))


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
    count = stop - start
    bits = np.empty((count, 2), dtype=np.int8)
    msv = np.empty(count)
    msi = np.empty(count)
    for j, index in enumerate(range(start, stop)):
        rng = rng_for_period(master_seed, index)
        bits[j] = state = reference_period_bits(rng, force_state)
        msv[j], msi[j] = measure_period(*reference_waves(config, state, config.samples_per_period, rng))
    return {"bits": bits, "msv": msv, "msi": msi}


def assert_matches_reference(cfg, start, stop, force_state, got, reading=None):
    """``got``, the chunk of periods [start, stop) in ``reading`` (both readings where None), against
    ``reference_simulate_chunk`` and per-period chunks.

    The chunk holds the bits and exactly the readings asked for. The bits
    are the reference's, and so are each reading's codes at ``cfg.bands()``.
    The mean squares are the bytes of one ``_simulate_chunk`` call per
    period in the same reading, and lie within 1e-14 relative of the
    reference's, which synthesizes each wave alone and solves the loop on the
    samples, so it rounds otherwise.
    """
    readers = {"msv": voltage_codes, "msi": current_codes}
    if reading is not None:
        readers = {reading: readers[reading]}
    assert sorted(got) == sorted(["bits", *readers])
    expected = reference_simulate_chunk(cfg, cfg.master_seed, start, stop, force_state)
    per_period = [_simulate_chunk(cfg, p, p + 1, force_state, reading) for p in range(start, stop)]
    assert np.array_equal(got["bits"], expected["bits"])
    bands = cfg.bands()
    for name, codes in readers.items():
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


def secure_fraction_z():
    """The count of 0110 periods of a random-bits session against n/2, in binomial SDs (row secure-fraction)."""
    cfg = GATES["secure-fraction"].config(small_config())
    n = cfg.n_periods
    n_secure = run_session(cfg).moment_sums["0110"][0]
    return (n_secure - n / 2) / math.sqrt(n * 0.25)


def msq_correlation_z():
    """sqrt(n) times the correlation of the forced 11 readings, which are independent (row msq-correlation)."""
    cfg = GATES["msq-correlation"].config(small_config())
    return math.sqrt(cfg.n_periods) * msq_correlation(run_session(cfg, force_state="11").moment_sums["11"])


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
        z = secure_fraction_z()
        assert abs(z) < GATES["secure-fraction"].threshold, f"z = {z:+.2f}"

    def test_secure_fraction_gate_catches_equal_bits(self):
        """A kernel whose Bob takes Alice's bit draws no 0110 period and fails the gate above."""
        with inject("equal-bits"):
            z = secure_fraction_z()
        assert abs(z) >= GATES["secure-fraction"].threshold, f"z = {z:+.2f}"

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
        """A session is refused where its mean squares pass float64's largest, and only there.

        At ``NEAR_TOP`` 4kT * R1 * f_s * n overflows, but the scale is its
        exact root: every mean square is finite, and only the second moment
        sums overflow, quietly. With 2 workers the caller's share and the
        child process's share both overflow at the hotter t_eff, and the
        caller refuses the joined readings.
        """
        monkeypatch.setattr(protocol, "_usable_cpus", lambda: 2)
        cfg = small_config(**NEAR_TOP)
        spec = cfg.noise_spec(cfg.resistors.r1, cfg.samples_per_period)
        assert spec.psd_level * spec.sample_rate * spec.n_samples == math.inf and math.isfinite(spec.scale)
        report = run_session(cfg, workers=workers)
        assert report == run_session(cfg)
        sums = [state_sums for state_sums in report.moment_sums.values() if state_sums[0]]
        assert np.isfinite([x[1:3] for x in sums]).all() and not np.isfinite([x[3:] for x in sums]).any()
        with pytest.raises(ValueError, match="non-finite channel mean squares"):
            run_session(overflowing(cfg, "msv", "11"), workers=workers)
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
        z = msq_correlation_z()
        assert abs(z) < GATES["msq-correlation"].threshold, f"sqrt(n) r = {z:+.2f}"

    def test_msq_correlation_gate_catches_sign_mutant(self):
        """A loop law with Bob's current sign wrong builds the 11 current from z_a + z_b, as the voltage: the two
        readings are one Q, and the gate above fails."""
        with inject("sign"):
            z = msq_correlation_z()
        assert abs(z) >= GATES["msq-correlation"].threshold, f"sqrt(n) r = {z:+.2f}"


def fork_children(monkeypatch):
    """Start the share runner's children by fork, so that they inherit this process's patches."""
    monkeypatch.setattr(multiprocessing, "Process", multiprocessing.get_context("fork").Process)
    monkeypatch.setattr(protocol, "_usable_cpus", lambda: 2)


def record_shares(monkeypatch):
    """Keep every ``_Share`` the runner builds, so that a pipe it leaves open stays open to be seen.

    Without this reference the last ``Connection`` to an unclosed reader is freed, and closed, as the
    runner returns; a count of open file descriptors afterwards cannot tell the two apart.
    """
    shares = []

    class Recorded(protocol._Share):
        def __init__(self, *args):
            super().__init__(*args)
            shares.append(self)

    monkeypatch.setattr(protocol, "_Share", Recorded)
    return shares


def assert_pipes_closed(shares):
    assert shares and [share._reader.closed for share in shares] == [True] * len(shares)


class TestShareRunner:
    """Child processes that succeed or fail: the call returns or raises, and no process or pipe outlives it."""

    def test_every_share_closes_its_pipe(self, monkeypatch):
        shares = record_shares(monkeypatch)
        monkeypatch.setattr(protocol, "_usable_cpus", lambda: 2)
        config = small_config(n_periods=20)
        run_session(config, workers=2)
        error_rate(config, "current", "11", workers=2)
        assert len(shares) == 2
        assert_pipes_closed(shares)

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
        shares = record_shares(monkeypatch)
        self.exit_mid_share(monkeypatch)
        with pytest.raises(WorkerExited, match="exited with code 7 before sending its share"):
            run_session(small_config(n_periods=20), workers=2)
        assert multiprocessing.active_children() == []
        assert_pipes_closed(shares)
        assert issubclass(WorkerExited, OSError)  # so the CLI reads it as a runtime failure

    def test_child_exit_is_cli_runtime_error(self, monkeypatch, capsys, tmp_path):
        shares = record_shares(monkeypatch)
        self.exit_mid_share(monkeypatch)
        path = tmp_path / "run.cfg"
        path.write_text("n_periods = 20\n")
        code = main(["sweep", "--gammas", "30", "--workers", "2", "--config", str(path)])
        out = capsys.readouterr()
        assert code == 3
        assert out.out == "" and out.err.startswith("runtime error: a worker process exited with code 7")
        assert multiprocessing.active_children() == []
        assert_pipes_closed(shares)

    def test_child_exception_reraised(self, monkeypatch):
        # a current-mode rate runs one-reading chunks in every share
        def fails(config, start, stop, force_state, reading=None):
            assert reading == "msi"
            if start:
                raise MemoryError(f"share from {start} failed")
            return _simulate_chunk(config, start, stop, force_state, reading)

        shares = record_shares(monkeypatch)
        fork_children(monkeypatch)
        monkeypatch.setattr(protocol, "_simulate_chunk", fails)
        with pytest.raises(MemoryError, match="share from 10 failed"):
            error_rate(small_config(n_periods=20), "current", "11", workers=2)
        assert multiprocessing.active_children() == []
        assert_pipes_closed(shares)


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

    @pytest.mark.parametrize(
        "mode, reading, r, state",
        [("voltage", "msv", 1e20, "11"), ("current", "msi", 1e-23, "00"), ("combined", "msv", 1e20, "11")],
        ids=["voltage", "current", "combined"],
    )
    def test_overflowing_noise_levels_rejected(self, mode, reading, r, state):
        """A rate is refused where the mean squares it reads pass float64's largest, and only there.

        At ``NEAR_TOP`` only the product under a scale's root overflows: the
        rate is the session's, and its reading's bytes are the two-reading
        stage's. At the hotter t_eff the reading's windowed sums overflow,
        in the state with the reading's largest level (the current's is 00).
        """
        cfg = small_config(**NEAR_TOP)
        key = {"voltage": "v", "current": "i", "combined": "combined"}[mode]
        assert error_rate(cfg, mode, "11") == run_session(cfg, force_state="11").rates[f"eps_hat_{key}_11"]
        one, both = (protocol._run_shares(cfg, "11", 1, name)[reading] for name in (reading, None))
        assert np.isfinite(one).all() and one.tobytes() == both.tobytes()
        with pytest.raises(ValueError, match="non-finite channel mean squares"):
            error_rate(overflowing(with_overrides(cfg, r=r), reading, state), mode, state)

    @pytest.mark.parametrize(
        "force_state, reading",
        [("11", "msv"), ("11", "msi"), (None, None), ("0110", None), ("11", None)],
        ids=["voltage", "current", "session", "session-0110", "session-11"],
    )
    def test_overflowing_scale_refused_without_float_warnings(self, force_state, reading):
        """A run whose coefficient scale is inf is refused at its one finiteness check, with no numpy warning.

        Such a scale needs levels past float64 too, which a session or a rate
        refuses before any period runs, so the runs are ``_run_shares``' as
        they call it. Under the suite's ``error::RuntimeWarning`` filter a
        warning would raise in place of the ValueError. With random or 0110
        bits rho is inf or nan for the unequal-resistor periods, whose
        ``irfft`` would warn of an invalid value.
        """
        cfg = small_config(**INF_SCALE)
        assert cfg.noise_spec(cfg.resistors.r1, cfg.samples_per_period).scale == math.inf
        with pytest.raises(ValueError, match="mean-square levels not finite"):
            cfg.bands()
        with pytest.raises(ValueError, match="non-finite channel mean squares"):
            protocol._run_shares(cfg, force_state, 1, reading)


# the period kernel's entry points: both readings (a session's chunks) and each one alone (a sweep's)
READINGS = [None, "msv", "msi"]


def assert_block_bounded(cfg, force_state, reading):
    """Peak memory of chunks of 25 and 100 blocks stays within the budget, for blocks of many short periods or
    of a few long ones, and grows only by the chunk's own results."""
    n = cfg.samples_per_period
    block = protocol._block_periods(n)
    # the block's samples alone (two parties, float64) fit the budget
    assert 1 < block * 2 * n * 8 <= protocol._BLOCK_BYTES
    # untraced warm-up: one-time allocations of a first call would hide growth in the first peak
    _simulate_chunk(cfg, 0, block, force_state, reading)
    counts, peaks = (25 * block, 100 * block), []
    for count in counts:
        tracemalloc.start()
        try:
            chunk = _simulate_chunk(cfg, 0, count, force_state, reading)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # at gamma 1000, holding 400 periods at once would take 400 * 2 * 4000 * 8 B = 25.6 MB of samples
    assert peaks[1] < 2 * protocol._BLOCK_BYTES
    # beyond the chunk's own results (a period's row of each of its arrays: int8 bits of both parties, a
    # float64 mean square per reading), memory does not grow with the number of blocks
    results = (counts[1] - counts[0]) * sum(array[0].nbytes for array in chunk.values())
    assert peaks[1] - peaks[0] - results < 0.05 * protocol._BLOCK_BYTES


def assert_one_reading_of_both(cfg, start, stop, force_state, reading):
    """A one-reading chunk holds the bits and that reading of the two-reading chunk, byte for byte."""
    both = _simulate_chunk(cfg, start, stop, force_state)
    one = _simulate_chunk(cfg, start, stop, force_state, reading)
    assert sorted(one) == sorted(["bits", reading])
    assert one["bits"].tobytes() == both["bits"].tobytes()
    assert one[reading].tobytes() == both[reading].tobytes()


class TestBlockKernel:
    """Every reading's chunks against the per-period reference and within the budget, and the report."""

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
        reading=st.sampled_from(READINGS),
    )
    def test_matches_per_period_loop(
        self, gamma, alpha, oversample, force_state, master_seed, start, length, block_bytes, reading
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
            got = _simulate_chunk(cfg, start, start + length, force_state, reading)
        assert_matches_reference(cfg, start, start + length, force_state, got, reading)

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
        for reading in READINGS:
            got = _simulate_chunk(cfg, start, stop, force_state, reading)
            assert_matches_reference(cfg, start, stop, force_state, got, reading)

    @pytest.mark.parametrize("gamma", [30.0, 1000.0, 2048.0])
    def test_block_bounded_by_budget(self, gamma):
        assert_block_bounded(small_config(gamma=gamma), None, None)

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
    """One-reading chunks against two-reading ones and within the budget, and every chunk per block size."""

    @pytest.mark.parametrize("gamma", [12.0, 37.3, 100.0, 1000.0])
    @pytest.mark.parametrize("oversample", [2, 3, 4])
    @pytest.mark.parametrize("force_state", ["00", "11"])
    @pytest.mark.parametrize("reading", ["msv", "msi"])
    def test_agrees_with_two_wave_kernel(self, gamma, oversample, force_state, reading):
        """Two blocks and a partial one, in each forced state of equal resistors (rho +1 or -1)."""
        cfg = small_config(gamma=gamma, alpha=10.0, oversample=oversample, master_seed=2**64 - 59)
        start = 2**40 + 11
        stop = start + 2 * protocol._block_periods(cfg.samples_per_period) + 3
        assert_one_reading_of_both(cfg, start, stop, force_state, reading)

    @pytest.mark.parametrize("gamma", [30.0, 1000.0, 2048.0])
    @pytest.mark.parametrize("reading", ["msv", "msi"])
    def test_block_bounded_by_budget(self, gamma, reading):
        assert_block_bounded(small_config(gamma=gamma), "11", reading)

    @pytest.mark.parametrize("force_state", ["00", "11"])
    @pytest.mark.parametrize("reading", ["msv", "msi", None])
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
            assert sorted(got) == sorted(results[0])
            for name in got:
                assert got[name].tobytes() == results[0][name].tobytes(), name

    @pytest.mark.parametrize("force_state", ["0110", None, "00", "11"])
    @pytest.mark.parametrize("reading", ["msv", "msi"])
    def test_equals_that_reading_of_both(self, force_state, reading):
        """In every state: random and 0110 periods have unequal resistors, whose rho is not +1 or -1;
        oversample 2 puts the Nyquist bin in band."""
        for oversample in (2, 4):
            cfg = small_config(oversample=oversample, n_periods=300, master_seed=2**64 - 59)
            assert_one_reading_of_both(cfg, 0, cfg.n_periods, force_state, reading)

    # resistors that bring the reading's mean squares near the top of float64 at an SI t_eff below it
    @pytest.mark.parametrize(
        "reading, r, refused",
        [("msv", 1e25, [False, False, True]), ("msi", 1e-25, [False, False, True])],
        ids=["msv", "msi"],
    )
    def test_refuses_where_the_two_wave_stage_does(self, reading, r, refused):
        """Windowed sums of squares 64x and 4x below float64's largest, and 4x above it: both stages' runs refuse alike.

        The runs are ``_run_shares``', whose one finiteness check reads the
        chunks' returned readings. A voltage's windowed sum of squares is
        about 1 / (4 * oversample) of psd * f_s * n, the product under its
        coefficient scale's square root: 4x below the largest float that
        product overflows, but the scale is its exact root, so only the sums
        past float64 are refused. A current's sums also grow with 1 / r**2.
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
                    periods = protocol._run_shares(cfg, "00", 1, chunk_reading)
                    outcomes.append(periods[reading])
                except ValueError as exc:
                    assert "non-finite channel mean squares" in str(exc)
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

        So in a forced 00 or 11 chunk ``z_a + rho * z_b`` is exactly
        ``z_a + z_b`` or ``z_a - z_b``, and the Nyquist slot's rho_nyquist
        is +1 or -1 too. The stored factor is amp/n, with amp = g_a·s_a, and
        rho = g_b·s_b/(g_a·s_a).
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
        for name, wave, sign in (("msv", 0, 1.0), ("msi", 1, -1.0)):
            factor, rho, rho_nyquist = tables[name]
            for b in (0, 1):
                assert rho[b, b] == rho_nyquist[b, b] == sign, (name, b)
            for a in (0, 1):
                for b in (0, 1):
                    g_a = channel_waveforms(one, zero, r_bit[a], r_bit[b])[wave][0]
                    g_b = channel_waveforms(zero, one, r_bit[a], r_bit[b])[wave][0]
                    assert factor[a, b] == g_a * scale[a] / n, (name, a, b)
                    assert rho[a, b] == g_b * scale[b] / (g_a * scale[a]), (name, a, b)
        assert np.array_equal(q, [cfg.noise_spec(x, n).nyquist_scale / cfg.noise_spec(x, n).scale for x in r_bit])

    @pytest.mark.parametrize("force_state", [None, "00"])
    def test_tables_follow_a_patched_noise_spec(self, force_state):
        """A run after ``noise_spec`` is patched reads the patched spec, whatever ran before it in the process.

        Each call builds its tables anew: the band fault at its own width and
        four times the PSD doubles every scale exactly, so every mean square
        is exactly four times the one the unpatched run gave.
        """
        cfg = small_config(n_periods=20)
        before = _simulate_chunk(cfg, 0, cfg.n_periods, force_state)
        with inject("band", 1, 4):
            after = _simulate_chunk(cfg, 0, cfg.n_periods, force_state)
        assert np.array_equal(after["bits"], before["bits"])
        for name in ("msv", "msi"):
            assert np.array_equal(after[name], 4 * before[name]), name


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
        gram = window_gram(cfg.gamma, cfg.oversample)
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

        gram = window_gram(cfg.gamma, cfg.oversample)
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
            # the form of w·2^e, whose largest entry is below 1, keeps all 53 bits where that of tiny normals
            # would underflow; scaling back by 4^-e rounds once
            e = -np.frexp(np.abs(w).max())[1]
            u = np.ldexp(w, e)
            expected = np.ldexp(n**2 * width * (u @ gram @ u), -2 * e)
            # the absolute term is float64's error model: one relative to the inputs' energy, and one for
            # underflow, where each of the stage's width squares may round by half the smallest subnormal
            tol = 1e-12 * n**2 * width * top * np.ldexp(u @ u, -2 * e) + width * math.ulp(0.0)
            assert out[j] == pytest.approx(expected, rel=1e-12, abs=tol), j

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        oversample=st.sampled_from([2, 3, 4]),
        name=st.sampled_from(["msv", "msi"]),
        bit=st.integers(0, 1),
        k=st.integers(1, 4),
    )
    def test_shared_int_bit_matches_the_array_path(self, seed, oversample, name, bit, k):
        """One int bit for both parties, as a forced 00 or 11 block passes, writes the bytes of per-period bit
        arrays: the rule indexes rho the same way for both."""
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
    """Per-period bits, outcome codes, counts, accounting and mean-square bytes pinned across commits.

    Their rows, with when each value was recorded, are ``goldens.py``'s; any
    change of the simulated stream moves them.
    """

    @rows("test_golden")
    def test_golden(self, row):
        """A session's bits, outcome codes and combined counts."""
        assert compute(row) == row.recorded

    @rows("test_golden_multi_block_chunks")
    def test_golden_multi_block_chunks(self, row):
        """Bits and mean-square bytes of chunks that span several blocks and end in a partial one.

        The float bytes pin more than the outcome codes do.
        """
        assert compute(row) == row.recorded

    @rows("test_golden_accounting")
    def test_golden_accounting(self, row):
        """A session's confusion tables, rates, fidelity and discard rate."""
        assert compute(row) == row.recorded

    def test_float_only_fft_change_moves_only_the_float_digests(self):
        """``irfft`` results one ulp high move exactly the ``FLOAT`` values of every golden row; a 10% band fault
        moves the ``COUNTS`` values too.

        The float-only change multiplies each of the program's ``irfft``
        results by 1 + 2^-52 in place, so it allocates nothing more. Every
        ``BITS`` and ``COUNTS`` value must hold under it, and every ``FLOAT``
        value must move, or the goldens would pin nothing below the counts.
        The band fault narrows each generator's band by 1.1 at unchanged
        power (a 10% wider band would pass the Nyquist frequency at
        oversample 2, which ``NoiseSpec`` refuses); only the ``BITS`` values
        hold.
        """
        goldens = {(test, case): row for test, table in GOLDENS.items() for case, row in table.items()}
        pins = [(key, pin, kind, value) for key, row in goldens.items() for pin, (kind, value) in row.pins.items()]
        for fault, kinds in ((("irfft-ulp",), {FLOAT}), (("band", 1 / 1.1), {COUNTS, FLOAT})):
            with inject(*fault):
                computed = {key: compute(row) for key, row in goldens.items()}
            moved = {(key, pin) for key, pin, _, value in pins if computed[key][pin] != value}
            assert moved == {(key, pin) for key, pin, kind, _ in pins if kind in kinds}, fault


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
