"""Full key-exchange sessions: per-period simulation, decision, and accounting.

Each period draws fresh resistor bits for both parties, synthesizes fresh
generator noise, solves the loop, measures the finite-time mean squares, and
interprets them. A session keeps its periods as arrays (bits, mean squares,
outcome codes) and aggregates them into confusion matrices, dangerous-error
rate estimates with binomial intervals, fidelity, and the discard rate; the
key comes from the same arrays. Periods are independent given their derived
random sub-streams, so a session may be executed in parallel and still
produce a seed-deterministic report.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from .circuit import channel_waveforms
from .config import SystemConfig, _checked
from .decision import _OUTCOME_CODE, CombinedOutcome, interpret_arrays
from .estimator import finite_mean_square, measurement_slice
from .noise import band_coefficients, period_streams

ACTUAL_STATES = ("00", "11", "0110")
# working-array budget of one block of simulated periods
_BLOCK_BYTES = 2**20
_OUTCOMES = tuple(CombinedOutcome)
_KEEP = _OUTCOMES.index(CombinedOutcome.KEEP_SECURE)


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


def _bits_from_words(words: np.ndarray, force_state: Optional[str]) -> np.ndarray:
    """(Alice, Bob) bits, int8 of shape ``(len(words), 2)``, from each period's first raw word.

    A range-2 ``Generator.integers`` draw is the top bit of one
    ``next_uint32``, and Philox's ``next_uint32`` returns the low half of a
    64-bit word, then its high half. So two scalar draws give bit 31
    (Alice) and bit 63 (Bob) of the period's first word; ``0110`` draws
    Alice's bit alone and Bob takes the other. Forced ``00``/``11`` periods
    draw no word, and ``words`` is not read.
    """
    bits = np.empty((len(words), 2), dtype=np.int8)
    if force_state in ("00", "11"):
        bits[:] = int(force_state[0])
        return bits
    bits[:, 0] = (words >> 31) & 1
    bits[:, 1] = words >> 63 if force_state is None else 1 - bits[:, 0]
    return bits


def _block_periods(n_samples: int) -> int:
    """Periods per block: as many as keep the block's working arrays within ``_BLOCK_BYTES``.

    Per period and party a block holds at most ``n_samples`` normals (fewer
    unless oversample is 2), the complex spectrum and the inverse-FFT
    samples; per period it also holds the half-window voltage and current.
    At least one period runs per block.

    The budget is 1 MiB so that a block's working set stays in one core's
    L2 (2 MiB per core on the 2-core Xeon it was measured on) while every
    stage of the kernel passes over it: at 4 MiB each stage streamed from
    L3, and a session at gamma = 30 ran about 13% fewer periods per second.
    """
    n = n_samples
    per_period = 2 * (8 * n + 16 * (n // 2 + 1) + 8 * n) + 2 * 8 * (n - n // 2)
    return max(1, _BLOCK_BYTES // per_period)


def _simulate_chunk(
    config: SystemConfig,
    master_seed: int,
    start: int,
    stop: int,
    force_state: Optional[str],
) -> dict:
    """Simulate periods [start, stop); returns per-period arrays.

    Each period draws its bits (one raw word, read by ``_bits_from_words``),
    then Alice's and Bob's normals, from its own stream. Periods run in
    blocks sized by ``_block_periods``: one inverse FFT, loop solve and
    windowed mean square per block, all element- or row-wise, so the result
    does not depend on the block size.
    """
    n = config.samples_per_period
    r_bit = np.array([config.resistors.r0, config.resistors.r1])
    specs = [config.noise_spec(r, n) for r in r_bit.tolist()]
    layout = specs[0]  # the layout depends on n, f_s and B only; the scales on the bit
    scale = np.array([s.scale for s in specs])
    nyquist_scale = np.array([s.nyquist_scale for s in specs])
    window = measurement_slice(n)

    count = stop - start
    block = max(1, min(count, _block_periods(n)))
    bits = np.empty((count, 2), dtype=np.int8)
    msv = np.empty(count)
    msi = np.empty(count)
    draw_word = force_state in (None, "0110")
    words = np.zeros(block, dtype=np.uint64)
    normals = np.empty((block, 2, layout.n_normals))
    rows = list(normals)
    streams = period_streams(master_seed, range(start, stop))
    for lo in range(0, count, block):
        hi = min(lo + block, count)
        # range first: zip must not take a stream past the block's last period
        for j, rng in zip(range(hi - lo), streams):
            if draw_word:
                words[j] = rng.bit_generator.random_raw()
            rng.standard_normal(out=rows[j])
        bits[lo:hi] = _bits_from_words(words[: hi - lo], force_state)
        b = bits[lo:hi]
        coeffs = band_coefficients(layout, normals[: hi - lo], scale[b], nyquist_scale[b])
        # slice before solving: the solve then touches only the measured half
        x = np.fft.irfft(coeffs, n=n, axis=-1)[..., window]
        del coeffs
        u_c, i_c = channel_waveforms(x[:, 0], x[:, 1], r_bit[b[:, 0], None], r_bit[b[:, 1], None])
        msv[lo:hi] = finite_mean_square(u_c)
        msi[lo:hi] = finite_mean_square(i_c)
        # free the channel arrays before the next block allocates: holding them measured
        # about twice the page faults and 5-10% more time per period at gamma 1000
        del u_c, i_c
    if not (np.isfinite(msv).all() and np.isfinite(msi).all()):
        raise ValueError("non-finite channel mean squares: the noise levels overflow float64")
    return {"bits": bits, "msv": msv, "msi": msi}


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_session(
    config: SystemConfig,
    force_state: Optional[str] = None,
    workers: int = 1,
) -> SessionReport:
    """Run ``config.n_periods`` periods from ``config.master_seed`` and aggregate the accounting.

    With ``workers > 1`` the periods are split into ``workers`` shares, run
    by ``workers`` processes at once, the caller included: a pool of
    ``workers - 1`` processes takes every share but the first, and the
    calling process simulates the first while the pool runs. ``workers`` is
    capped at the usable CPUs (a fork pool starts all its processes at
    once), and fewer than two periods per share run serially. The report is
    identical to the serial run because every period has its own derived
    random stream and the shares are concatenated in period order.
    """
    n_periods = config.n_periods
    master_seed = config.master_seed
    workers = _checked("workers", workers, "int")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    workers = min(workers, _usable_cpus())
    # before any worker starts
    if force_state is not None and force_state not in ACTUAL_STATES:
        raise ValueError(f"force_state must be one of 00, 11, 0110, got {force_state!r}")
    bands = config.bands()  # fail fast on an empty secure band

    if workers == 1 or n_periods < 2 * workers:
        chunks = [_simulate_chunk(config, master_seed, 0, n_periods, force_state)]
    else:
        # imported here: it pulls in multiprocessing, which a serial run never needs
        from concurrent.futures import ProcessPoolExecutor

        bounds = np.linspace(0, n_periods, workers + 1, dtype=int).tolist()
        first, *rest = zip(bounds[:-1], bounds[1:])
        # leaving the block on an error waits for the pool's shares, so no process outlives it
        with ProcessPoolExecutor(max_workers=workers - 1) as pool:
            futures = [
                pool.submit(_simulate_chunk, config, master_seed, a, b, force_state)
                for a, b in rest
            ]
            chunks = [_simulate_chunk(config, master_seed, *first, force_state)]
            chunks += [f.result() for f in futures]

    bits = np.concatenate([c["bits"] for c in chunks])
    msv = np.concatenate([c["msv"] for c in chunks])
    msi = np.concatenate([c["msi"] for c in chunks])
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
        master_seed=master_seed,
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
