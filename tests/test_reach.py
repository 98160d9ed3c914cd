"""The reach map: every function in ``src/kljn`` runs in some command, or ``ALLOWED`` says why it does not.

The commands run in process through ``cli.main``, under ``sys.setprofile``:
each successful run of the four commands, at both FFT layouts, in every
forced state, serial and with a child process, and every run of the
refusal table that the CLI tests check (``refusals.REFUSALS``). A function
is reached when its code object starts a frame. Functions are found in the
source with ``ast``, methods and nested functions included, and keyed by
file and first line (decorators included), as a code object's
``co_firstlineno`` counts it.
"""

import ast
import sys
from pathlib import Path

import pytest

import kljn
from kljn import cli, protocol
from refusals import REFUSALS, run, write_config
from traced import load_tracer

SRC = Path(kljn.__file__).resolve().parent

TRACED = "traced: perfbench/tracer.py wraps it by name"
REFERENCE = "waveform reference the tests compare the program against"
CLOSED_FORM = "public closed form of the paper"
IMPORT = "runs only at import"
WORKER = "runs only in a worker process"
EXACT = "exact law the tests gate the program against; no command prints it yet"
REASONS = (TRACED, REFERENCE, CLOSED_FORM, IMPORT, WORKER, EXACT)

# every src/kljn function that no command run reaches, with why it stays; a PR that removes one deletes its entry
ALLOWED = {
    "analytic.epsilon_current_11": TRACED,
    "analytic.epsilon_current_00": TRACED,
    "analytic.epsilon_voltage": TRACED,
    "analytic.epsilon_combined": TRACED,
    "decision.interpret_voltage": TRACED,
    "decision.interpret_current": TRACED,
    "noise.synth_band_limited": REFERENCE,
    "circuit.channel_waveforms": REFERENCE,
    "estimator.measure_period": REFERENCE,
    "analytic.rice_rate": CLOSED_FORM,
    "analytic.upcrossing_rate_flat": CLOSED_FORM,
    "estimator.averaged_fluctuation_rms": CLOSED_FORM,
    "decision.combine": IMPORT,  # builds decision._OUTCOME_CODE
    "protocol._send_share": WORKER,
    "exact.window_gram": EXACT,
    "exact.window_eigenvalues": EXACT,
    "exact.tail": EXACT,
    "exact._within": EXACT,
    "exact.rate": EXACT,
}

BASE = "gamma = 30\nn_periods = 40\nmaster_seed = 5\n"
SI_NYQUIST = BASE + "oversample = 2\nt_eff = 300\n"
LEVELS = ["levels", "--samples", "8192"]
SPECTRA = ["spectra", "--samples", "8192", "--bins", "64"]

# (config, as ``refusals.write_config`` writes it, argv, exit code) of each run
RUNS = [
    (BASE, LEVELS, 0),
    (BASE, SPECTRA, 0),
    (SI_NYQUIST, LEVELS, 0),
    (SI_NYQUIST, SPECTRA, 0),
    (BASE, ["session"], 0),
    (BASE, ["session", "--force-state", "0110"], 0),
    (BASE, ["session", "--force-state", "00"], 0),
    (BASE, ["sweep", "--gammas", "30", "--mode", "voltage"], 0),
    (BASE, ["sweep", "--gammas", "30,40", "--mode", "combined", "--force-state", "00"], 0),
    *((row.config, row.argv, row.code) for row in REFUSALS.values()),
]
# runs that share their periods with a child process
POOLED_RUNS = [
    (BASE, ["session", "--workers", "2"], 0),
    (BASE, ["sweep", "--gammas", "30", "--mode", "current", "--workers", "2"], 0),
]


def defined_functions() -> dict:
    """``(file, first line) -> name`` of every ``def`` in ``src/kljn``, as ``module.Class.function``."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[str(path), first] = name
                visit(child, path, name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, path.stem + ".")
    return found


def reached_functions(tmp_path, monkeypatch, capsys) -> set:
    """``(file, first line)`` of each code object that starts a frame in the runs, each run checked for its exit code."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    # the parser is built once per process: build it again here, where it is traced
    cli.build_parser.cache_clear()
    exits = []

    def traced(config, argv):
        path = tmp_path / f"run{len(exits)}.cfg"
        write_config(config, path)
        sys.setprofile(profile)
        try:
            exits.append(run(argv + ["--config", str(path)]))
        finally:
            sys.setprofile(None)
        capsys.readouterr()

    for config, argv, _ in RUNS:
        traced(config, argv)
    with monkeypatch.context() as patch:
        patch.setattr(protocol, "_usable_cpus", lambda: 2)  # a child process on any machine
        for config, argv, _ in POOLED_RUNS:
            traced(config, argv)
    assert exits == [code for _, _, code in RUNS + POOLED_RUNS]
    return {(str(Path(code.co_filename).resolve()), code.co_firstlineno) for code in codes}


# the refused runs at alpha 1.05 and at gamma below 10 warn
@pytest.mark.filterwarnings("ignore::kljn.circuit.DegenerateLevelsWarning")
@pytest.mark.filterwarnings("ignore::kljn.estimator.SmallGammaWarning")
def test_every_function_is_reached_or_allowed(tmp_path, monkeypatch, capsys):
    functions = defined_functions()
    assert len(set(functions.values())) == len(functions)  # one name per function
    reached = reached_functions(tmp_path, monkeypatch, capsys)
    unreached = {name for key, name in functions.items() if key not in reached}
    assert unreached == set(ALLOWED)
    assert set(ALLOWED.values()) <= set(REASONS)


def test_traced_entries_are_tracer_names():
    """An entry kept for the tracer names a function the tracer wraps, so removing the tracer's name frees it."""
    wrapped = {f"{module_name}.{attr}" for targets in load_tracer().LAYERS.values() for module_name, attr in targets}
    traced = {name for name, reason in ALLOWED.items() if reason == TRACED}
    assert traced and traced <= wrapped
