"""The ``kljn`` console script's target, ``kljn.cli:main``, run in fresh interpreters.

These are the checks an in-process ``main()`` call cannot make: output bytes where a pool
process or a helper thread really runs, warnings as a whole process prints them, refusals
bounded by a timeout, and what importing the CLI loads. No installed ``kljn`` is needed:
the child finds the package on ``PYTHONPATH``.
"""

import contextlib
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import kljn

SRC = str(Path(kljn.__file__).resolve().parents[1])
TIMEOUT = 30  # s: a hang fails its row instead of the suite; every row takes under 1 s on 2 cores
MAIN = "import sys; from kljn.cli import main; sys.exit(main())"
# the child pins itself before main starts a helper thread or pool process, so these inherit it
ONE_CPU = "import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "


def kljn_cli(*argv, one_cpu=False):
    """The program ``kljn *argv``, run on one CPU if ``one_cpu``, for ``run``."""
    return ONE_CPU * one_cpu + MAIN, argv


def run(*programs):
    """Each ``(code, argv)`` program run as ``python -c code *argv`` with ``src`` on the path, all at once.

    Returns the exit code, stdout and stderr (bytes) of each. Every child leads its own process
    group; if a wait outlives ``TIMEOUT`` or is interrupted, every group is killed, so no pool
    process of a hung run is left behind.
    """
    with contextlib.ExitStack() as stack:
        procs = [
            stack.enter_context(
                subprocess.Popen(
                    [sys.executable, "-c", code, *argv],
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    env={**os.environ, "PYTHONPATH": SRC},
                    start_new_session=True,
                )
            )
            for code, argv in programs
        ]
        try:
            outputs = [proc.communicate(timeout=TIMEOUT) for proc in procs]
        except BaseException:
            for proc in procs:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
            raise
    return [(proc.returncode, out, err) for proc, (out, err) in zip(procs, outputs)]


SESSION = ("session", "--seed", "3")
SWEEP = ("sweep", "--seed", "3", "--gammas", "30,100")
SPECTRA = ("spectra", "--samples", "300000", "--bins", "64")
LEVELS = ("levels", "--samples", "65536")


@pytest.mark.parametrize(
    "programs",
    [
        # with 2 workers the calling process simulates one share and a one-process pool the other
        [kljn_cli(*SESSION, "--workers", "1"), kljn_cli(*SESSION, "--workers", "2")],
        [kljn_cli(*SWEEP, "--workers", "1"), kljn_cli(*SWEEP, "--workers", "2")],
        # the inverse FFTs and half of the periodogram segments run on a helper thread, which
        # interleaves differently from run to run, and again on one CPU; numpy 1.22 keeps its
        # floating-point error state per thread, not in a contextvar: the helper must still see
        # the caller's
        [kljn_cli(*SPECTRA), kljn_cli(*SPECTRA), kljn_cli(*SPECTRA, one_cpu=True)],
        [kljn_cli(*LEVELS), kljn_cli(*LEVELS), kljn_cli(*LEVELS, one_cpu=True)],
    ],
    ids=["session-workers", "sweep-workers", "spectra-threads", "levels-threads"],
)
def test_same_stdout(programs):
    (code, out, err), *others = run(*programs)
    assert code == 0, err
    assert out
    for other_code, other_out, other_err in others:
        assert other_code == 0, other_err
        assert other_out == out


@pytest.mark.parametrize(
    "config_text, argv, exit_code, shown, not_shown",
    [
        # a SmallGammaWarning names a source line, not the dataclass's generated __init__
        ("gamma = 5\nn_periods = 50\n", ["session"], 0, b"SmallGammaWarning", b"<string>"),
        # the config and the closed-form rate each warn naming their caller, never kljn.analytic
        ("", ["sweep", "--gammas", "5"], 0, b"SmallGammaWarning", b"analytic.py"),
        # samples per period float64 cannot resolve or hold are config errors, not a hang, and
        # neither 4e300 samples nor a 401-digit oversample is printed in full
        ("gamma = 1e300\n", ["session"], 2, b"gives 4e+300 samples per period", b"Traceback"),
        (f"oversample = 1{'0' * 400}\n", ["session"], 2, b"at oversample = 1e+400", b"Traceback"),
        ("b_kljn = 1e308\n", ["session"], 2, b"samples per period overflow float64", b"Traceback"),
    ],
    ids=["session-small-gamma", "sweep-small-gamma", "huge-gamma", "huge-oversample", "huge-rate"],
)
def test_one_run(tmp_path, config_text, argv, exit_code, shown, not_shown):
    path = tmp_path / "run.cfg"
    path.write_text(config_text)
    [(code, out, err)] = run(kljn_cli(*argv, "--config", str(path)))
    assert code == exit_code, err
    assert shown in err and not_shown not in err
    if exit_code:
        assert out == b"" and len(err) < 300
    else:
        assert out


def _loaded_after(code, modules):
    """Which of ``modules`` a fresh interpreter has loaded after running ``code``, as printed."""
    code += f"; import sys; print(sorted(m for m in {tuple(modules)!r} if m in sys.modules))"
    [(exit_code, out, err)] = run((code, ()))
    assert exit_code == 0, err
    return out.decode().strip()


def test_cli_import_defers_scipy_signal():
    # no kljn module uses scipy.signal, and importing it dominates start-up
    assert _loaded_after("import kljn.cli", ["scipy.signal"]) == "[]"


def test_cli_import_defers_process_pool():
    # only run_session's pool branch needs multiprocessing, and only the helper threads of
    # synth_band_limited_many and periodogram need concurrent.futures, which loads logging:
    # importing them costs every command's start-up
    modules = ["concurrent.futures", "concurrent.futures.process", "logging", "multiprocessing"]
    assert _loaded_after("import kljn.cli", modules) == "[]"


def test_run_never_imports_scipy_signal(tmp_path):
    path = tmp_path / "s.csv"
    argv = ["spectra", "--samples", "4096", "--bins", "16", "--out", str(path)]
    code = f"from kljn.cli import main; assert main({argv!r}) == 0"
    assert _loaded_after(code, ["scipy.signal"]) == "[]"
    assert path.read_text().startswith("#")
