import hashlib
import math
import multiprocessing
import os
import tracemalloc
import warnings
from concurrent.futures import Future, ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kljn import protocol
from kljn.circuit import DegenerateLevelsWarning, LoopState, channel_waveforms, generator_psd
from kljn.config import SystemConfig, with_overrides
from kljn.decision import (
    CombinedOutcome,
    Interpretation,
    combine,
    interpret_arrays,
    interpret_current,
    interpret_voltage,
)
from kljn.estimator import SmallGammaWarning, measure_period
from kljn.noise import NoiseSpec, rng_for_period, synth_band_limited
from kljn.protocol import (
    ACTUAL_STATES,
    RateEstimate,
    _bits_from_words,
    _simulate_chunk,
    extract_key,
    key_to_hex,
    run_session,
    wilson_interval,
)

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
        periods = _simulate_chunk(cfg, cfg.master_seed, 0, cfg.n_periods, None)
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
        periods = _simulate_chunk(cfg, cfg.master_seed, 0, cfg.n_periods, force_state)
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
            period = _simulate_chunk(cfg, cfg.master_seed, j, j + 1, None)
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

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, max_workers):
                built.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(protocol, "_usable_cpus", lambda: workers)  # on any machine
        parallel = run_session(cfg, workers=workers)
        assert built == ([workers - 1] if n_periods >= 2 * workers else [])
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
        # with 2 workers both the caller's share and the pool's share overflow
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
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was built before force_state was checked")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        with pytest.raises(ValueError, match="force_state"):
            run_session(small_config(n_periods=20), force_state="01", workers=workers)

    @pytest.mark.parametrize(
        "workers, cpus, pools, shares",
        [
            (5000, 2, [1], [(20, 40)]),
            (3, 8, [2], [(13, 26), (26, 40)]),
            (2, 1, [], []),  # one CPU runs serially
        ],
        ids=["5000-2-1", "3-8-2", "2-1-None"],  # workers, usable CPUs, pool size
    )
    def test_pool_capped_at_usable_cpus(self, workers, cpus, pools, shares, monkeypatch):
        built, submitted = [], []

        class InlinePool:
            """Records the pool size and each share's (start, stop), and runs the share here."""

            def __init__(self, max_workers):
                built.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                submitted.append(args[2:4])
                future = Future()
                future.set_result(fn(*args))
                return future

        cfg = small_config(n_periods=40, master_seed=41)
        serial = run_session(cfg)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(protocol, "_usable_cpus", lambda: cpus)
        report = run_session(cfg, workers=workers)
        # the calling process is one of the workers: the pool gets every share but the first
        assert built == pools
        assert submitted == shares
        assert report.to_dict() == serial.to_dict()
        assert np.array_equal(report.bits, serial.bits)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_workers_below_one(self, workers, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was built for an invalid worker count")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        with pytest.raises(ValueError, match="workers"):
            run_session(small_config(n_periods=20), workers=workers)

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
        corr = report.msq_correlation("11")
        assert abs(corr) < 4 / math.sqrt(2000)


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
            cfg = SystemConfig(gamma=gamma, alpha=alpha, oversample=oversample, master_seed=master_seed)
        expected = reference_simulate_chunk(cfg, master_seed, start, start + length, force_state)
        with warnings.catch_warnings(), pytest.MonkeyPatch.context() as mp:
            warnings.simplefilter("error")  # the config warned when built; the kernel must not
            # a budget this small puts block boundaries inside the chunk
            mp.setattr(protocol, "_BLOCK_BYTES", block_bytes)
            got = _simulate_chunk(cfg, master_seed, start, start + length, force_state)
        for name in ("bits", "msv", "msi"):
            assert np.array_equal(got[name], expected[name]), name

    @pytest.mark.parametrize("gamma", [30.0, 1000.0])
    def test_block_bounded_by_budget(self, gamma):
        """Peak memory stays within the budget for blocks of many short periods or of a few long ones."""
        cfg = small_config(gamma=gamma)
        n = cfg.samples_per_period
        block = protocol._block_periods(n)
        # the block's samples alone (two parties, float64) fit the budget
        assert 1 < block * 2 * n * 8 <= protocol._BLOCK_BYTES
        counts = (25 * block, 100 * block)
        # untraced warm-up: one-time allocations of a first call would hide growth in the first peak
        _simulate_chunk(cfg, cfg.master_seed, 0, block, None)
        peaks = []
        for count in counts:
            tracemalloc.start()
            try:
                _simulate_chunk(cfg, cfg.master_seed, 0, count, None)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # at gamma 1000, holding 400 periods at once would take 400 * 2 * 4000 * 8 B = 25.6 MB of samples
        assert peaks[1] < 2 * protocol._BLOCK_BYTES
        # beyond the chunk's own results (int8 bits of both parties, float64 msv and msi),
        # memory does not grow with the number of blocks
        results = (counts[1] - counts[0]) * (2 + 8 + 8)
        assert peaks[1] - peaks[0] - results < 0.05 * protocol._BLOCK_BYTES

    def test_report_independent_of_block_size(self, monkeypatch):
        cfg = small_config(n_periods=1000, master_seed=37)
        assert protocol._block_periods(cfg.samples_per_period) < cfg.n_periods
        default = run_session(cfg)
        monkeypatch.setattr(protocol, "_BLOCK_BYTES", 1)  # one period per block
        assert protocol._block_periods(cfg.samples_per_period) == 1
        single = run_session(cfg)
        assert single.to_dict() == default.to_dict()
        assert np.array_equal(single.bits, default.bits)
        assert np.array_equal(single.outcome_code, default.outcome_code)


class TestDrawBits:
    @given(
        master_seed=st.integers(0, 2**64 - 1),
        index=st.integers(0, 2**64 - 1),
        force_state=st.sampled_from([None, "0110"]),
        n_normals=st.integers(0, 9),
    )
    def test_raw_word_matches_integer_draws(self, master_seed, index, force_state, n_normals):
        got = rng_for_period(master_seed, index)
        vector = rng_for_period(master_seed, index)
        scalar = rng_for_period(master_seed, index)
        word = np.array([got.bit_generator.random_raw()], dtype=np.uint64)
        bits = tuple(_bits_from_words(word, force_state)[0].tolist())
        alice, bob = reference_draw_bits(vector)
        a = int(scalar.integers(0, 2))
        if force_state is None:
            assert bits == (alice, bob) == (a, int(scalar.integers(0, 2)))
        else:
            assert bits == (alice, 1 - alice) == (a, 1 - a)
        # the streams stay in step for the normals drawn after the bits
        normals = got.standard_normal(n_normals)
        assert np.array_equal(normals, vector.standard_normal(n_normals))
        assert np.array_equal(normals, scalar.standard_normal(n_normals))

    @settings(max_examples=30, deadline=None)
    @given(
        master_seed=st.integers(0, 2**64 - 1),
        index=st.integers(0, 2**64 - 2),
        force_state=st.sampled_from(["00", "11"]),
    )
    def test_forced_periods_draw_normals_from_word_0(self, master_seed, index, force_state):
        cfg = small_config(master_seed=master_seed)
        expected = reference_simulate_chunk(cfg, master_seed, index, index + 1, force_state)
        got = _simulate_chunk(cfg, master_seed, index, index + 1, force_state)
        assert got["bits"].tolist() == [[int(force_state[0])] * 2]
        for name in ("msv", "msi"):
            assert np.array_equal(got[name], expected[name]), name


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
                    "ba27a4f9e5dfba2f40d856ece75d5724b74e975ccca588835cb0e23fb17bd4e9",
                    "02a6588eab71ebf61a45b87d8bc551dcdf0f51800fb5708185bacbcd25a18346",
                ),
            ),
            (
                dict(gamma=1000.0, n_periods=53, master_seed=47),
                "11",
                (
                    "4fb5820c88b9bbde14a63d9512f66a0ff12d9dcbc3cd27f4e82cb88dc25020a0",
                    "dcd1146e517a86a2d7ffe78d3d765e86e9abfd040f13469441a942a7ed12f44c",
                    "e71490a6d413797bd8ebc159cdac6de1b0be45738843e95a788c1b784518da0e",
                ),
            ),
            (
                # sample_rate = 2 * b_kljn: the Nyquist bin is in band
                dict(gamma=37.3, oversample=2, n_periods=2500, master_seed=53),
                None,
                (
                    "0884e270a2cf16b3b724544df4a9c9473375b31dcbe30c7ffde0b2dbd4fa2e6b",
                    "4270cddfd49edde9818e07169b9837e9e5842b3947093a3d495f0a4a70512a6a",
                    "a0c903466ee325ba37018e81bed48c125dba106a714068e46863b677da5fe18b",
                ),
            ),
        ],
    )
    def test_golden_multi_block_chunks(self, overrides, force_state, digests):
        """Bits and mean-square bytes of chunks that span several blocks and end in a partial one.

        Recorded with 4 MiB blocks, where these chunks also end in a partial
        block; the float bytes pin more than the outcome codes do.
        """
        cfg = SystemConfig(alpha=100.0, lam=0.3, **overrides)
        block = protocol._block_periods(cfg.samples_per_period)
        assert cfg.n_periods > 2 * block and cfg.n_periods % block
        got = _simulate_chunk(cfg, cfg.master_seed, 0, cfg.n_periods, force_state)
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
