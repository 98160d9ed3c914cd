"""The ``kljn`` console script's target, ``kljn.cli:main``, run in fresh interpreters.

These are the checks an in-process ``main()`` call cannot make: output bytes where a worker
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
# the child pins itself before main starts a helper thread or worker process, so these inherit it
ONE_CPU = "import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
# worker processes started as Python 3.14 starts them on Linux: from a server process, which
# imports kljn afresh and receives each share's arguments pickled, as spawn (macOS) does too
FORKSERVER = "import multiprocessing; multiprocessing.set_start_method('forkserver'); "
LONG = "0" * 400


def kljn_cli(*argv, one_cpu=False, forkserver=False):
    """The program ``kljn *argv``, run on one CPU if ``one_cpu``, its workers from a fork server if ``forkserver``."""
    return ONE_CPU * one_cpu + FORKSERVER * forkserver + MAIN, argv


def run(*programs):
    """Each ``(code, argv)`` program run as ``python -c code *argv`` with ``src`` on the path, all at once.

    Returns the exit code, stdout and stderr (bytes) of each. Every child leads its own process
    group; if a wait outlives ``TIMEOUT`` or is interrupted, every group is killed, so no worker
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
# a current-mode sweep reads one mean square per period, by the kernel's one-reading chunks
SWEEP_CURRENT = SWEEP + ("--mode", "current")
SPECTRA = ("spectra", "--samples", "300000", "--bins", "64")
LEVELS = ("levels", "--samples", "65536")


@pytest.mark.parametrize(
    "programs",
    [
        # with 2 workers the calling process simulates one share and a child process the other
        [kljn_cli(*SESSION, "--workers", "1"), kljn_cli(*SESSION, "--workers", "2")],
        [kljn_cli(*SWEEP, "--workers", "1"), kljn_cli(*SWEEP, "--workers", "2")],
        [kljn_cli(*SESSION, "--workers", "1"), kljn_cli(*SESSION, "--workers", "2", forkserver=True)],
        [kljn_cli(*SWEEP, "--workers", "1"), kljn_cli(*SWEEP, "--workers", "2", forkserver=True)],
        [
            kljn_cli(*SWEEP_CURRENT, "--workers", "1"),
            kljn_cli(*SWEEP_CURRENT, "--workers", "2"),
            kljn_cli(*SWEEP_CURRENT, "--workers", "2", forkserver=True),
        ],
        # half of the periodogram segments run on a helper thread, which interleaves differently
        # from run to run, and again on one CPU; numpy 1.22 keeps its floating-point error state
        # per thread, not in a contextvar: the helper must still see the caller's
        [kljn_cli(*SPECTRA), kljn_cli(*SPECTRA), kljn_cli(*SPECTRA, one_cpu=True)],
        # levels runs no thread and no inverse FFT (its mean squares come from the normals by
        # Parseval); the row, under its old id, still checks its bytes across fresh processes
        [kljn_cli(*LEVELS), kljn_cli(*LEVELS), kljn_cli(*LEVELS, one_cpu=True)],
    ],
    ids=[
        "session-workers",
        "sweep-workers",
        "session-forkserver",
        "sweep-forkserver",
        "sweep-current-workers",
        "spectra-threads",
        "levels-threads",
    ],
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
        # a 401-character value is echoed by its first 40 characters, whichever check refuses it
        (f"mode = x{LONG}\n", ["session"], 2, b"mode must be one of", b"Traceback"),
        (f"t_eff = x{LONG}\n", ["session"], 2, b"(401 characters)", b"Traceback"),
        (f"gamma = x{LONG}\n", ["session"], 2, b"bad value for 'gamma': expected a number", b"Traceback"),
        (f"alpha = x{LONG}\n", ["session"], 2, b"(401 characters)", b"Traceback"),
    ],
    ids=[
        "session-small-gamma",
        "sweep-small-gamma",
        "huge-gamma",
        "huge-oversample",
        "huge-rate",
        "long-mode",
        "long-t-eff",
        "long-gamma",
        "long-alpha",
    ],
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


# the caller's share fails once the child has simulated its share of 5000 periods, whose
# 90 kB of arrays do not fit the pipe's 64 KiB buffer: the child is blocked writing them
CALLER_FAILS = """
import multiprocessing, time
from kljn import protocol
from kljn.config import SystemConfig

chunk = protocol._simulate_chunk


def caller_fails(config, start, *rest):
    result = chunk(config, start, *rest)
    if start:
        return result
    time.sleep(1.0)
    raise ValueError("the caller's share failed")


protocol._simulate_chunk = caller_fails
protocol._usable_cpus = lambda: 2
try:
    protocol.run_session(SystemConfig(gamma=10.0, n_periods=10000), workers=2)
except ValueError as exc:
    print(exc, multiprocessing.active_children())
"""


def test_caller_failure_stops_child_blocked_on_its_result():
    # joining a child blocked writing its result without stopping it first would never return
    [(code, out, err)] = run((CALLER_FAILS, ()))
    assert code == 0, err
    assert out == b"the caller's share failed []\n"


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
    # only the worker processes of run_session and error_rate need multiprocessing, and only the helper thread of
    # periodogram needs concurrent.futures, which loads logging; only a refusal of a number beyond float64 needs
    # decimal: importing them costs every command's start-up
    modules = ["concurrent.futures", "concurrent.futures.process", "decimal", "logging", "multiprocessing"]
    code = "import kljn.cli; from kljn.config import parse_config; parse_config('gamma = 30\\nn_periods = 10\\n')"
    assert _loaded_after(code, modules) == "[]"


def test_run_never_imports_scipy_signal(tmp_path):
    path = tmp_path / "s.csv"
    argv = ["spectra", "--samples", "4096", "--bins", "16", "--out", str(path)]
    code = f"from kljn.cli import main; assert main({argv!r}) == 0"
    assert _loaded_after(code, ["scipy.signal"]) == "[]"
    assert path.read_text().startswith("#")
