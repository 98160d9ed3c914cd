"""Fixed reference work, timed next to measurements that drift with the machine.

The benchmark was tuned on a 2-vCPU Intel Xeon VM (2 MiB L2 per core,
105 MiB shared L3) shared with other tenants. Over minutes, its speed drifts
by 20-50%. Runs of one workload are made minutes apart, so their raw times
differ by that drift. Where a reference of the same kind of work tracks the
drift, the measured time is divided by the reference's time, taken just
before it, and reported at the reference's nominal time:
`t * nominal / reference`. The references are not part of kljn and never
change with it, so a faster kljn still shows as a proportionally smaller
time. The raw times stay in each run's detail line.

Spread `(q3 - q1) / median` of ten run medians there, raw and paired:

- `small` kernel (interpreter work, FFTs of a few hundred samples) with
  session_g30: 0.19 raw, 0.05 paired.
- `large` kernel (FFT and arithmetic on a 16 MiB array) with spectra_4m:
  0.12 raw, 0.05 paired. The small kernel does not track it.
- `small_x2` kernel (the small kernel in each of two pool workers at once)
  with sweep_g1000_w2, whose passes use two workers: 0.17 raw, 0.07 paired,
  over fourteen 15-second runs while the machine slowed by half (the
  one-process kernels: 0.17 small, 0.11 large); 0.12 raw, 0.06 paired over
  twelve 20-second runs. Timing it after each pass too, or taking the
  fastest of seven, did not narrow it further.
- `SETUP_REFERENCE` (a cold interpreter importing numpy and the standard
  modules kljn uses) with set-up: 0.21 raw, 0.04 paired.
"""

from __future__ import annotations

import multiprocessing
from time import perf_counter

SETUP_REFERENCE = "import numpy, argparse, dataclasses, hashlib, json"
SETUP_NOMINAL_S = 0.15  # a cold start running SETUP_REFERENCE, on that machine when quiet


def _small(np, rng):
    data = rng.standard_normal(1 << 16)

    def run() -> float:
        t0 = perf_counter()
        acc = 0.0
        for i in range(200):
            y = np.fft.irfft(data[: 240 + 2 * (i % 5)])
            acc += float(np.mean(np.square(y[60:])))
            acc += sum([j * 0.5 for j in range(60)])
        acc += float(np.fft.irfft(data)[0])
        return perf_counter() - t0

    return run


def _large(np, rng):
    coeffs = rng.standard_normal((1 << 20) + 1) + 1j * rng.standard_normal((1 << 20) + 1)

    def run() -> float:
        t0 = perf_counter()
        y = np.square(np.fft.irfft(coeffs))
        y -= y.mean()
        return perf_counter() - t0

    return run


_worker_run = None  # the small kernel, built once in each pool worker
_pool = None


def _build_in_worker():
    global _worker_run
    import numpy as np

    _worker_run = _small(np, np.random.default_rng(0))


def _run_in_worker(_) -> float:
    return _worker_run()


def _small_x2(np, rng):
    global _pool
    if _pool is None:
        _pool = multiprocessing.get_context("fork").Pool(2, initializer=_build_in_worker)

    def run() -> float:
        t0 = perf_counter()
        _pool.map(_run_in_worker, range(2), chunksize=1)
        return perf_counter() - t0

    return run


def close_references():
    """Stop the pool of the `small_x2` kernel, if one was started."""
    global _pool
    if _pool is not None:
        _pool.terminate()
        _pool.join()
        _pool = None


# name -> (builder of the timed kernel, the kernel's time on that machine when quiet)
KERNELS = {"small": (_small, 0.012), "large": (_large, 0.075), "small_x2": (_small_x2, 0.015)}


def reference_s(kind: str) -> float:
    """Seconds the named kernel takes now: the fastest of three runs, so the
    first warms the caches a preceding measurement left cold, and a short burst
    of interference does not count as drift."""
    import numpy as np

    run = KERNELS[kind][0](np, np.random.default_rng(0))
    return min(run() for _ in range(3))
