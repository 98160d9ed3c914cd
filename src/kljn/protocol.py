"""Full key-exchange sessions: per-period simulation, decision, and accounting; every reading's rule.

Each period draws fresh resistor bits for both parties, synthesizes fresh
generator noise, solves the loop, measures the finite-time mean squares, and
interprets them. A session keeps its periods as arrays (bits, mean squares,
outcome codes) and aggregates them into confusion matrices, dangerous-error
rate estimates with binomial intervals, fidelity, and the discard rate; the
key comes from the same arrays. Periods are independent given their derived
random sub-streams, so a session may be executed in parallel and still
produce a seed-deterministic report.

The same reading rule gives what ``kljn levels`` and ``kljn spectra`` print:
``level_readings`` and ``squared_current_spectrum``.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from .config import ConfigError, SystemConfig, _checked
from .decision import _OUTCOME_CODE, CombinedOutcome, current_codes, interpret_arrays, voltage_codes
from .estimator import measurement_slice
from .noise import NoiseSpec, draw_periods, periodogram, rng_for_period

ACTUAL_STATES = ("00", "11", "0110")
# working-array budget of one block of simulated periods
_BLOCK_BYTES = 2**20
# periods per block for long periods, where the budget alone would give fewer (see _block_periods)
_MIN_BLOCK_PERIODS = 8
_OUTCOMES = tuple(CombinedOutcome)
_KEEP = _OUTCOMES.index(CombinedOutcome.KEEP_SECURE)
# a one-reading error_rate mode's mean square and its reader
_ONE_READING = {"voltage": ("msv", voltage_codes), "current": ("msi", current_codes)}


@dataclass(frozen=True)
class RateEstimate:
    """Binomial rate estimate k/n with a 95% Wilson interval.

    ``p`` is None when the conditioning state never occurred (undefined, not
    zero).
    """

    k: int
    n: int
    p: Optional[float]
    ci_low: Optional[float]
    ci_high: Optional[float]

    @classmethod
    def from_counts(cls, k: int, n: int) -> "RateEstimate":
        if n == 0:
            return cls(k=0, n=0, p=None, ci_low=None, ci_high=None)
        lo, hi = wilson_interval(k, n)
        return cls(k=k, n=n, p=k / n, ci_low=lo, ci_high=hi)


def wilson_interval(k: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if not 0 <= k <= n or n <= 0:
        raise ValueError(f"need 0 <= k <= n with n > 0, got k={k}, n={n}")
    z = 1.959963984540054  # the two-sided 95% normal quantile
    phat = k / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    lo = 0.0 if k == 0 else max(0.0, center - half)
    hi = 1.0 if k == n else min(1.0, center + half)
    return lo, hi


@dataclass
class SessionReport:
    n_periods: int
    master_seed: int
    config_hash: str
    force_state: Optional[str]
    # rows: actual state in ACTUAL_STATES order; columns: interpreted 00, 11, 01/10
    confusion_v: list
    confusion_i: list
    # combined_counts[actual][outcome name] = count
    combined_counts: dict
    # dangerous-error rates keyed eps_hat_{v,i,combined}_{00,11}: the actual
    # 00/11 periods that read secure by voltage, by current, and by both
    rates: dict
    fidelity: Optional[float]
    discard_rate: float
    # per-actual-state first and second moments of (msv, msi) for
    # independence diagnostics: [n, sum v, sum i, sum v^2, sum i^2, sum v*i]
    moment_sums: dict
    # per-period arrays, not part of the serialized report: int8 (n, 2) bits
    # (Alice, Bob) and int8 outcome codes indexing tuple(CombinedOutcome)
    bits: np.ndarray = field(repr=False, compare=False)
    outcome_code: np.ndarray = field(repr=False, compare=False)

    def to_dict(self) -> dict:
        """The serialized report: every field but the per-period arrays (those with repr=False)."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.repr}
        out["rates"] = {name: asdict(rate) for name, rate in self.rates.items()}
        return out


def _block_periods(n_samples: int) -> int:
    """Periods per block: as many as keep the block's working arrays within ``_BLOCK_BYTES``.

    The budget counts per period and party at most ``n_samples`` normals, a
    spectrum row and its inverse-FFT samples, and per period a half-window
    wave and its square: more than ``_simulate_chunk`` holds. Long periods
    get a floor of ``_MIN_BLOCK_PERIODS`` periods, as far as the block's
    samples stay within half the budget, and at least one period runs per
    block. README's Conventions give the sizes and timings behind each rule.
    """
    n = n_samples
    measured = len(range(n)[measurement_slice(n)])
    per_period = 2 * (8 * n + 16 * (n // 2 + 1) + 8 * n) + 2 * 8 * measured
    floor = min(_MIN_BLOCK_PERIODS, _BLOCK_BYTES // (2 * 2 * 8 * n))
    return max(1, floor, _BLOCK_BYTES // per_period)


def _reading_tables(config: SystemConfig, n_samples: int) -> tuple[NoiseSpec, np.ndarray, dict]:
    """``(layout, q, tables)`` of a period of ``n_samples``: bin layout, q by bit, tables by ``[bit_a, bit_b]``.

    ``tables[name]`` is ``(amp / n, rho, rho_nyquist)`` for ``msv`` and
    ``msi``. The loop law's gains of Alice's and Bob's generators are
    g_a = R_B/(R_A+R_B) and g_b = R_A/(R_A+R_B) for the channel voltage,
    g_a = 1/(R_A+R_B) and g_b = -g_a for the loop current (as in
    ``circuit.channel_waveforms``). With s a bit's
    in-band scale and q its Nyquist scale over s, amp = g_a·s_a,
    rho = g_b·s_b/amp and rho_nyquist = rho·(q_b/q_a). The factor is stored
    as amp/n, which scales the samples of an ``irfft`` with no 1/n to the
    reading's, so no reader divides by n.

    These tables are the one loop law of every reading the program makes
    (``_fill``): the period kernel's, ``level_readings``' and
    ``squared_current_spectrum``'s. Each call builds them anew: nothing
    caches them.
    """
    r = np.array([config.resistors.r0, config.resistors.r1])
    specs = [config.noise_spec(x, n_samples) for x in r.tolist()]
    s = np.array([spec.scale for spec in specs])
    r_a, r_b = r[:, None], r[None, :]
    loop = r_a + r_b
    tables = {}
    # quietly nan for a bit whose scale overflowed to inf: _run_shares refuses its periods as non-finite
    with np.errstate(invalid="ignore"):
        q = np.array([spec.nyquist_scale for spec in specs]) / s
        for name, (g_a, g_b) in {"msv": (r_b / loop, r_a / loop), "msi": (1 / loop, -1 / loop)}.items():
            amp = g_a * s[:, None]
            rho = g_b * s / amp
            tables[name] = (amp / n_samples, rho, rho * (q / q[:, None]))
    return specs[0], q, tables


def _fill(spectrum: np.ndarray, z: np.ndarray, a, b, rule: tuple, name: str) -> None:
    """Write reading ``name``'s z_a + rho·z_b, in units of its amp, into the slots of ``spectrum``.

    ``rule`` is ``_reading_tables``' result, ``z`` the unit normals, shape
    ``(..., 2, n_normals)``, and ``spectrum`` C-contiguous complex, whose
    bins reach at least the band's top one, with the Nyquist bin, if any,
    last (``n // 2 + 1`` bins for an ``irfft``). The bits are arrays of
    shape ``z.shape[:-2]`` or one int per party. Every state takes the one
    rule: where both parties have one resistor rho is exactly +1 or -1, so
    the product is exact and the slots hold z_a ± z_b to the bit (nan where
    a scale overflowed). The Nyquist slot, if any, takes
    (z_a0 + rho_nyquist·z_b0)·q_a.
    """
    layout, q, tables = rule
    _, rho, rho_nyquist = tables[name]
    nyquist, in_band = layout.slots(spectrum)
    nyq = int(layout.nyquist)
    np.multiply(z[..., 1, nyq:], rho[a, b, None], out=in_band)
    in_band += z[..., 0, nyq:]
    if nyquist is not None:
        nyquist[...] = (z[..., 0, 0] + rho_nyquist[a, b] * z[..., 1, 0]) * q[a]


def _stage(spectrum: np.ndarray, z: np.ndarray, a, b, rule: tuple, name: str, out: np.ndarray) -> None:
    """One block's reading ``name``: ``_fill``, one ``irfft`` row with no 1/n, and its windowed sum of squares.

    The arguments are as in ``_fill``, with one row of ``spectrum`` and of ``out``, the sums, per period.
    """
    _fill(spectrum, z, a, b, rule, name)
    n = rule[0].n_samples
    x = np.fft.irfft(spectrum, n=n, axis=-1, norm="forward")[..., measurement_slice(n)]
    np.einsum("ij,ij->i", x, x, out=out)


def _whole_mean_square(spectrum: np.ndarray, z: np.ndarray, bits: tuple, rule: tuple, name: str) -> float:
    """Mean square over the whole wave of reading ``name`` of the state ``bits``, by Parseval: no transform runs.

    ``_fill`` writes the reading into ``spectrum``'s slots (arguments as it
    takes them). An in-band bin's power counts twice, the Nyquist bin's once,
    so the mean square is (2·Σ in_band² + nyquist²)·(amp/n)².
    """
    layout, _, tables = rule
    _fill(spectrum, z, *bits, rule, name)
    nyquist, in_band = layout.slots(spectrum)
    total = 2 * np.square(in_band).sum()
    if nyquist is not None:
        total += nyquist**2
    return float(total * tables[name][0][bits] ** 2)


def level_readings(config: SystemConfig, n_samples: int) -> dict[str, tuple[float, float]]:
    """Whole-wave mean squares ``(msv, msi)`` of one wave of ``n_samples`` per state, keyed 00, 0110 and 11.

    The normals come from the stream of period 0 of ``config.master_seed``,
    Alice's then Bob's, state by state in the order 00, 0110, 11. Every
    reading refills the slots of one spectrum cut after the band's top bin.
    """
    rule = _reading_tables(config, n_samples)
    layout = rule[0]
    rng = rng_for_period(config.master_seed, 0)
    spectrum = np.zeros(layout.n_band + 1 + layout.nyquist, dtype=complex)
    readings = {}
    for state, bits in (("00", (0, 0)), ("0110", (0, 1)), ("11", (1, 1))):
        z = rng.standard_normal((2, layout.n_normals))
        readings[state] = tuple(_whole_mean_square(spectrum, z, bits, rule, name) for name in ("msv", "msi"))
        del z  # freed before the next state's normals are drawn
    return readings


def squared_current_spectrum(config: SystemConfig, n_samples: int, n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """``(freqs, psd)``: ``noise.periodogram`` of the 11 loop current's square less its mean, over ``n_samples``.

    The normals come from the stream of period 0 of ``config.master_seed``,
    Alice's then Bob's, into one spectrum cut after the band's top bin, as in
    ``level_readings``. Levels that float64 cannot hold are refused before
    any draw, as ``run_session`` refuses them before any period.
    """
    config.levels()  # fail fast on levels float64 cannot hold
    n = n_samples
    rule = _reading_tables(config, n)
    layout, _, tables = rule
    z = rng_for_period(config.master_seed, 0).standard_normal((2, layout.n_normals))
    coeffs = np.zeros(layout.n_band + 1 + layout.nyquist, dtype=complex)
    _fill(coeffs, z, 1, 1, rule, "msi")
    del z  # freed before the transform allocates its samples
    i_c = np.fft.irfft(coeffs, n=n, norm="forward")
    del coeffs
    # a square or their mean past float64 reads inf, with no warning; no density is then finite: refused where printed
    with np.errstate(over="ignore", invalid="ignore"):
        i_c *= tables["msi"][0][1, 1]
        squared = np.square(i_c, out=i_c)
        squared -= squared.mean()  # theory describes only the AC part
        return periodogram(squared, config.sample_rate, n_bins)


def _simulate_chunk(
    config: SystemConfig, start: int, stop: int, force_state: Optional[str], reading: Optional[str] = None
) -> dict:
    """Simulate periods [start, stop) of ``config.master_seed``, with start < stop; returns per-period arrays.

    Returns ``bits`` and both mean squares, ``msv`` and ``msi``, or only
    ``reading``'s. The periods are drawn by ``noise.draw_periods`` in blocks sized
    by ``_block_periods``, into buffers allocated once per chunk (a partial
    last block uses their leading rows), and every step is element- or
    row-wise, so the result does not depend on the block size.

    The loop law and the inverse FFT are linear, so a reading is
    amp·(z_a + rho·z_b) pushed through the synthesis, for Alice's and Bob's
    unit-scale normals z. ``_stage`` sums each block's windowed squares of
    the unscaled samples; after the last block each sum takes its period's
    (amp/n)², the physical windowed sum of squares, and is divided by the
    window's length.

    A mean square whose scale or windowed sum of squares overflows float64
    is returned as it is, inf or nan: ``_run_shares`` refuses the run.
    """
    n = config.samples_per_period
    rule = _reading_tables(config, n)
    layout, _, tables = rule
    count = stop - start
    block = max(1, min(count, _block_periods(n)))
    bits = np.empty((count, 2), dtype=np.int8)
    sums = {name: np.empty(count) for name in (tables if reading is None else (reading,))}
    normals = np.empty((block, 2, layout.n_normals))
    # every block writes the same in-band and Nyquist slots; DC and the bins above the band stay zero
    spectrum = np.zeros((block, n // 2 + 1), dtype=complex)
    # a scale that overflowed puts nan or inf into a spectrum, and a sum of squares may pass float64: both
    # are formed with no warning, and _run_shares refuses those periods
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, k, a, b in draw_periods(config.master_seed, start, stop, force_state, normals, bits):
            for name, ms in sums.items():
                _stage(spectrum[:k], normals[:k], a, b, rule, name, ms[lo : lo + k])
        for name, ms in sums.items():
            # the physical windowed sums of squares, then their means: a sum that overflowed stays infinite
            ms *= np.square(tables[name][0])[bits[:, 0], bits[:, 1]]
            ms /= len(range(n)[measurement_slice(n)])
    return {"bits": bits, **sums}


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class WorkerExited(OSError):
    """A worker process exited before sending back its share of the periods."""


def _send_share(conn, args: tuple) -> None:
    """A worker process's body: simulate one share and send it, or the exception it raised, to the caller."""
    try:
        reply = (True, _simulate_chunk(*args))
    except Exception as exc:
        reply = (False, exc)
    conn.send(reply)


class _Share:
    """One share of the periods, simulated in a child process that sends it back over a one-way pipe.

    The child starts when the share is built, by the platform's default start
    method. ``result()`` waits for the share and re-raises the child's
    exception; ``close()`` stops a child whose share was not received and
    waits for it to exit.
    """

    def __init__(self, *args):
        # imported here: a serial run never needs multiprocessing, and importing it costs start-up
        import multiprocessing

        self._reader, writer = multiprocessing.Pipe(duplex=False)
        self._process = multiprocessing.Process(target=_send_share, args=(writer, args))
        self._received = False
        try:
            self._process.start()
        except BaseException:
            self._reader.close()
            raise
        finally:
            writer.close()  # the child then holds the only write end: its exit ends the pipe

    def result(self) -> dict:
        try:
            ok, value = self._reader.recv()
        except EOFError:
            self._process.join()
            raise WorkerExited(
                f"a worker process exited with code {self._process.exitcode} before sending its share"
            ) from None
        self._received = True
        if not ok:
            raise value
        return value

    def close(self) -> None:
        # a child blocked writing a share larger than the pipe's buffer would never exit on its own
        if not self._received:
            self._process.terminate()
        self._process.join()
        self._process.close()
        self._reader.close()


def _run_shares(
    config: SystemConfig, force_state: Optional[str], workers: int, reading: Optional[str] = None
) -> dict:
    """``_simulate_chunk`` over all ``config.n_periods`` periods, its arrays in period order.

    ``reading`` selects the chunks' mean squares, as in ``_simulate_chunk``.

    With ``workers > 1`` the periods are split into ``workers`` shares, run by
    ``workers`` processes at once, the caller included: ``workers - 1`` child
    processes each simulate one share but the first, and the calling process
    simulates the first while they run. ``workers`` is capped at the usable
    CPUs, and fewer than two periods per share run serially. The arrays are
    identical to the serial run's because every period has its own derived
    random stream and the shares are concatenated in period order. No child
    outlives the call, also when it fails.

    The run's one finiteness check: a ValueError where a mean square is not
    finite, as where the noise levels or a windowed sum overflow float64.
    """
    n_periods = config.n_periods
    args = (force_state, reading)
    workers = min(workers, _usable_cpus())
    if workers == 1 or n_periods < 2 * workers:
        periods = _simulate_chunk(config, 0, n_periods, *args)
    else:
        bounds = np.linspace(0, n_periods, workers + 1, dtype=int).tolist()
        first, *rest = zip(bounds[:-1], bounds[1:])
        children = []
        try:
            for a, b in rest:
                children.append(_Share(config, a, b, *args))
            chunks = [_simulate_chunk(config, *first, *args)]
            chunks += [child.result() for child in children]
        finally:
            for child in children:
                child.close()
        periods = {name: np.concatenate([c[name] for c in chunks]) for name in chunks[0]}
    if not all(np.isfinite(ms).all() for name, ms in periods.items() if name != "bits"):
        raise ValueError("non-finite channel mean squares: the noise levels overflow float64")
    return periods


def _checked_workers(workers) -> int:
    """``workers`` as an int of at least 1, or a ConfigError before any period runs."""
    workers = _checked("workers", workers, "int")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    return workers


def error_rate(config: SystemConfig, mode: str, force_state: str, workers: int = 1) -> RateEstimate:
    """The rate ``run_session`` reports as ``rates[f"eps_hat_{v|i|combined}_{force_state}"]``.

    ``mode`` is voltage, current or combined; ``force_state`` is 00 or 11,
    the states whose dangerous errors a sweep counts. The periods, their
    shares and the decision cuts are the session's, and so are k, n, p and
    the interval.

    A combined-mode rate is the session's own: ``run_session``'s count
    table alone says which periods are dangerous in combined mode. A
    voltage- or current-mode rate computes only its reading, whose bytes are
    the session's because ``_simulate_chunk`` computes each reading alone.
    """
    workers = _checked_workers(workers)
    # before any worker starts
    if force_state not in ("00", "11"):
        raise ValueError(f"force_state must be one of 00, 11, got {force_state!r}")
    if mode not in ("voltage", "current", "combined"):
        raise ValueError(f"mode must be one of voltage, current, combined, got {mode!r}")
    if mode == "combined":
        return run_session(config, force_state, workers).rates[f"eps_hat_combined_{force_state}"]
    bands = config.bands()  # fail fast on an empty secure band
    reading, codes = _ONE_READING[mode]
    secure = codes(_run_shares(config, force_state, workers, reading)[reading], bands) == 2
    return RateEstimate.from_counts(int(np.count_nonzero(secure)), config.n_periods)


def run_session(
    config: SystemConfig,
    force_state: Optional[str] = None,
    workers: int = 1,
) -> SessionReport:
    """Run ``config.n_periods`` periods from ``config.master_seed`` and aggregate the accounting.

    ``workers`` processes share the periods, the caller included (see
    ``_run_shares``); the report is identical to the serial run's.
    """
    n_periods = config.n_periods
    workers = _checked_workers(workers)
    # before any worker starts
    if force_state is not None and force_state not in ACTUAL_STATES:
        raise ValueError(f"force_state must be one of 00, 11, 0110, got {force_state!r}")
    bands = config.bands()  # fail fast on an empty secure band
    periods = _run_shares(config, force_state, workers)
    bits, msv, msi = periods["bits"], periods["msv"], periods["msi"]
    v_code, i_code, outcome_code = interpret_arrays(msv, msi, bands)

    actual = np.where(bits[:, 0] == bits[:, 1], bits[:, 0], 2)  # 0->00, 1->11, 2->secure
    # counts[actual, voltage reading, current reading]; reading code 2 is secure
    counts = np.bincount((actual * 3 + v_code) * 3 + i_code, minlength=27).reshape(3, 3, 3)
    n_state = counts.sum((1, 2)).tolist()
    # each (voltage, current) reading pair adds its count to its outcome's column
    outcome_counts = counts.reshape(3, 9) @ np.eye(len(_OUTCOMES), dtype=counts.dtype)[_OUTCOME_CODE.ravel()]
    combined_counts = {
        state: {o.value: c for o, c in zip(_OUTCOMES, row)}
        for state, row in zip(ACTUAL_STATES, outcome_counts.tolist())
    }
    secure = {"v": counts[:2, 2].sum(1), "i": counts[:2, :, 2].sum(1), "combined": counts[:2, 2, 2]}
    rates = {
        f"eps_hat_{name}_{state}": RateEstimate.from_counts(int(k[a]), n_state[a])
        for name, k in secure.items()
        for a, state in enumerate(ACTUAL_STATES[:2])
    }
    moment_sums = {}
    for a, state in enumerate(ACTUAL_STATES):
        sel = actual == a
        sv, si_ = msv[sel], msi[sel]
        # a sum past float64 reads inf, with no warning: a report that holds one is refused where it is written
        with np.errstate(over="ignore", invalid="ignore"):
            moment_sums[state] = [
                n_state[a],
                float(sv.sum()),
                float(si_.sum()),
                float(np.square(sv).sum()),
                float(np.square(si_).sum()),
                float((sv * si_).sum()),
            ]

    return SessionReport(
        n_periods=n_periods,
        master_seed=config.master_seed,
        config_hash=config.config_hash(),
        force_state=force_state,
        confusion_v=counts.sum(2).tolist(),
        confusion_i=counts.sum(1).tolist(),
        combined_counts=combined_counts,
        rates=rates,
        fidelity=int(counts[2, 2, 2]) / n_state[2] if n_state[2] else None,
        discard_rate=1.0 - int(counts[:, 2, 2].sum()) / n_periods,
        moment_sums=moment_sums,
        bits=bits,
        outcome_code=outcome_code,
    )


def extract_key(bits: np.ndarray, outcome_code: np.ndarray) -> tuple[list[int], list[int]]:
    """Key bits from the kept periods of per-period ``bits`` and ``outcome_code`` arrays.

    Convention: the shared key bit is Alice's bit. Alice takes her own bit;
    Bob takes the inverse of his. On error-free kept periods (true 01/10) the
    two keys are identical; a wrongly kept 00 or 11 period produces exactly
    one mismatching bit pair. Returns lists of Python ints.
    """
    kept = bits[outcome_code == _KEEP]
    return kept[:, 0].tolist(), (1 - kept[:, 1]).tolist()


def key_to_hex(bits: Sequence[int]) -> str:
    """Pack key bits MSB-first into hex; the bit count disambiguates padding."""
    if len(bits) == 0:
        return ""
    return np.packbits(np.asarray(bits) & 1).tobytes().hex()
