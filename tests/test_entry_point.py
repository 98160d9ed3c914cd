"""The ``kljn`` console script's target, ``kljn.cli:main``, run in fresh interpreters.

These are the checks an in-process ``main()`` call cannot make: output bytes where a worker
process really runs, warnings as a whole process prints them, refusals bounded by a timeout,
and which modules a command loads (never scipy). No installed ``kljn`` is needed: the child
finds the package on ``PYTHONPATH``.
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
# the child pins itself before main starts a worker process, so these inherit it
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
        # spectra's periodogram transforms its five chunks on the calling thread and starts no
        # other; the row, under its old id, still checks its bytes across fresh processes and on
        # one CPU
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
        # a value allowed to pass float64 is formed with no numpy warning, and a run is refused once, at
        # the number it cannot print, the squared current's density; a sweep whose scale products
        # overflow prints its rates
        (
            "t_eff = 1e290\nr = 1\nalpha = 1000\n",
            ["spectra", "--samples", "8192", "--bins", "64"], 3, b"non-finite output values", b"RuntimeWarning",
        ),
        (
            "t_eff = 3.6e305\nr = 1e20\nalpha = 1000\nn_periods = 4\n",
            ["sweep", "--gammas", "30", "--workers", "2"], 0, b"", b"RuntimeWarning",
        ),
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
        "periodogram-overflow",
        "near-top-sweep",
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
    """Which modules of ``modules``, or inside one of them, a fresh interpreter has loaded after running ``code``, as printed."""
    inside = "any(m == n or m.startswith(n + '.') for n in names)"
    code += f"; import sys; names = {tuple(modules)!r}; print(sorted(m for m in sys.modules if {inside}))"
    [(exit_code, out, err)] = run((code, ()))
    assert exit_code == 0, err
    return out.decode().strip()


# every check starts as a command does: the CLI imported and a config parsed
START = "from kljn.cli import main; from kljn.config import parse_config; parse_config('gamma = 30\\nn_periods = 10\\n')"
# only the worker processes of run_session and error_rate need multiprocessing, no kljn module needs
# concurrent.futures (which loads logging), and only a refusal of a number beyond float64 needs decimal:
# importing them costs every command's start-up
POOL = ("concurrent.futures", "logging")
UNNEEDED = (*POOL, "decimal")


def test_cli_import_defers_scipy_signal():
    # no kljn module imports scipy, and importing it dominates start-up
    assert _loaded_after(START, ["scipy"]) == "[]"


def test_cli_import_defers_process_pool():
    assert _loaded_after(START, [*UNNEEDED, "multiprocessing"]) == "[]"


@pytest.mark.parametrize(
    "runs, forbidden",
    [
        ([(("spectra", "--samples", "4096", "--bins", "16"), b"#")], []),
        # a periodogram of five chunks, then levels, load neither a thread pool nor the logging it pulls in
        ([(SPECTRA, b"#"), (LEVELS, b"#")], POOL),
        ([(SESSION, b"{")], [*UNNEEDED, "multiprocessing"]),
        # a worker process loads multiprocessing, but where one CPU caps --workers to 1 none does
        ([(SESSION + ("--workers", "2"), b"{")], UNNEEDED),
        ([(SWEEP_CURRENT + ("--workers", "2"), b"#")], UNNEEDED),
    ],
    ids=["spectra", "spectra-levels", "session", "session-workers", "sweep-current-workers"],
)
def test_import_budget(tmp_path, runs, forbidden):
    """``START``, then ``kljn *argv`` for each ``(argv, prefix)`` of ``runs``, loads no scipy and no module of ``forbidden``.

    No kljn module imports scipy. Each run's output starts with its prefix.
    """
    outs = [tmp_path / f"{i}.out" for i in range(len(runs))]
    calls = [f"assert main({[*argv, '--out', str(out)]!r}) == 0" for (argv, _), out in zip(runs, outs)]
    assert _loaded_after("; ".join([START, *calls]), ["scipy", *forbidden]) == "[]"
    for (_, prefix), path in zip(runs, outs):
        assert path.read_bytes().startswith(prefix)
