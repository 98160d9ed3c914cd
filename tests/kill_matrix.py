"""The kill matrix: tier-1 run once under each fault of ``tests/mutants.py``, and the ledger rows each fails.

Run it from anywhere, with scipy, pytest and hypothesis installed::

    python tests/kill_matrix.py matrix.json

It runs tier-1 clean, then once per fault at each argument tuple in the
fault's ``matrix``, each in a fresh interpreter (a spawned process). That
process enters the fault and then runs tier-1 with ``pytest.main``, so the
test modules import the patched program. Worker processes start by fork and
inherit the fault. Hypothesis draws from one fixed seed, keeps no example
database and has no deadline, so no run reads what an earlier run found, and
a slow fault fails no test by the clock. It does not shrink a failing
example either: which test fails is the finding, not its least example, and
shrinking made runs slow and uneven (under the 10% band fault, tier-1 took
355 s against about 50 s clean, 207 s of it shrinking
``test_matches_per_period_loop``'s examples).

The JSON holds, per run: the fault and what it patches, tier-1's seconds,
the failing tests with the message and source line each failed at, the
seconds of every test, the tests it cannot reach, the tests that fail by
construction, and each ledger row's outcome. A row fails when its test fails
at a line that reads a threshold: its own assertion. Where two rows share
one test, the line also names the row's gate. A row whose test fails at
another line first is unresolved: its assertion never ran. Per row, it also
holds the faults that failed the row here but that its ``faults`` in
``tests/gates.py`` do not name, and those it names that no run here failed
(a mutant test may inject them at another factor). The outcomes are printed
as a markdown table, rows by runs: ``x`` failed, ``?`` unresolved, ``.``
passed.
"""

import json
import linecache
import multiprocessing
import os
import sys
import time
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
# the program runs in fresh interpreters here, which a fault entered in the test process does not reach
UNREACHABLE = "tests/test_entry_point.py::"
# fails under any fault that replaces a kljn function: the function replaced no longer starts a frame
BY_CONSTRUCTION = "tests/test_reach.py::test_every_function_is_reached_or_allowed"
# the two criterion-8 rows gate one test, in this order; its failing line names the row's gate
SHARED_TEST = {"criterion-8-correlation": "correlation_gate", "criterion-8-rates": "rate_gate"}


class Record:
    """A pytest plugin that keeps each test's outcome and seconds, and where it failed first, its message and
    source line."""

    def __init__(self):
        self.tests = {}

    def pytest_runtest_logreport(self, report):
        test = self.tests.setdefault(report.nodeid, {"outcome": "passed", "seconds": 0.0})
        test["seconds"] += report.duration
        if report.skipped:
            test["outcome"] = "skipped"
        elif report.failed and test["outcome"] == "passed":
            test["outcome"] = "failed" if report.when == "call" else "error"
            crash = getattr(report.longrepr, "reprcrash", None)
            if crash is not None:
                test["message"] = crash.message
                test["line"] = linecache.getline(crash.path, crash.lineno).strip()

    def pytest_collectreport(self, report):
        if report.failed:
            self.tests[report.nodeid] = {"outcome": "error", "seconds": 0.0, "message": str(report.longrepr)}


def run_tier_1(fault, conn):
    """Run tier-1 under ``fault``, ``(name, *args)`` or None for none, and send its tests' records and seconds."""
    sys.path[:0] = [str(ROOT / "src"), str(TESTS)]
    os.chdir(ROOT)
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.dup2(devnull, 2)
    # the program starts its workers by the default method; fork lets them inherit the fault (3.14 defaults to a
    # fork server, whose workers import kljn afresh)
    multiprocessing.set_start_method("fork", force=True)
    import hypothesis
    import pytest

    from mutants import inject

    phases = [hypothesis.Phase.explicit, hypothesis.Phase.generate]
    hypothesis.settings.register_profile("kill-matrix", database=None, deadline=None, phases=phases)
    hypothesis.settings.load_profile("kill-matrix")
    record = Record()
    args = [str(TESTS), "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
    start = time.perf_counter()
    if fault is None:
        pytest.main(args, plugins=[record])
    else:
        with inject(*fault):
            pytest.main(args, plugins=[record])
    conn.send((record.tests, time.perf_counter() - start))


def row_outcomes(tests, gates):
    """``{row: "failed" | "unresolved" | "passed"}`` of each ledger row under one run's test records.

    A shared test's failure at a later row's gate leaves the earlier row's assertion run and passed.
    """
    shared = list(SHARED_TEST.values())
    outcomes = {}
    for name, gate in gates.items():
        cases = [t for nodeid, t in tests.items() if nodeid.split("[")[0] == "tests/" + gate.test]
        lines = [t.get("line", "") for t in cases if t["outcome"] != "passed"]
        own = SHARED_TEST.get(name, "")
        later = shared[shared.index(own) + 1 :] if own else []
        if any("threshold" in line and own in line for line in lines):
            outcomes[name] = "failed"
        elif all(any(gate_name in line for gate_name in later) for line in lines):
            outcomes[name] = "passed"
        else:
            outcomes[name] = "unresolved"
    return outcomes


def main(out):
    sys.path[:0] = [str(ROOT / "src"), str(TESTS)]
    from gates import GATES
    from mutants import FAULTS

    # each run by its label (``psd x1.02``, ``sign``): its fault and what the fault patches
    runs = {"clean": (None, None)}
    for name, fault in FAULTS.items():
        for args in fault.matrix:
            runs[" ".join([name, *(f"x{arg:g}" for arg in args)])] = ((name, *args), fault.patches)
    spawn = multiprocessing.get_context("spawn")
    matrix = {}
    for run, (fault, patches) in runs.items():
        receiver, sender = spawn.Pipe(duplex=False)
        process = spawn.Process(target=run_tier_1, args=(fault, sender))
        process.start()
        sender.close()
        tests, seconds = receiver.recv()
        process.join()
        failed = {
            nodeid: {key: t.get(key) for key in ("outcome", "message", "line")}
            for nodeid, t in tests.items()
            if t["outcome"] in ("failed", "error")
        }
        matrix[run] = {
            "fault": fault,
            "patches": patches,
            "seconds": round(seconds, 1),
            "failed": {nodeid: t for nodeid, t in failed.items() if nodeid != BY_CONSTRUCTION},
            "failed_by_construction": [nodeid for nodeid in failed if nodeid == BY_CONSTRUCTION],
            "unreachable": [nodeid for nodeid in tests if nodeid.startswith(UNREACHABLE)],
            "rows": row_outcomes(tests, GATES),
            "test_seconds": {nodeid: round(t["seconds"], 3) for nodeid, t in tests.items()},
        }
        print(f"{run}: {len(matrix[run]['failed'])} failed in {seconds:.0f} s", file=sys.stderr)
    faulted = [result for result in matrix.values() if result["fault"]]
    ledger = {}
    for row, gate in GATES.items():
        seen = {result["fault"][0] for result in faulted if result["rows"][row] == "failed"}
        ran = {result["fault"][0] for result in faulted}
        ledger[row] = {"unlisted": sorted(seen - set(gate.faults)), "unseen": sorted(set(gate.faults) & ran - seen)}
    Path(out).write_text(json.dumps({"runs": matrix, "ledger": ledger}, indent=1) + "\n", encoding="utf-8")
    mark = {"failed": "x", "unresolved": "?", "passed": "."}
    print("| row | " + " | ".join(matrix) + " |")
    print("|---" * (len(matrix) + 1) + "|")
    for row in GATES:
        print(f"| {row} | " + " | ".join(mark[result["rows"][row]] for result in matrix.values()) + " |")


if __name__ == "__main__":
    main(*sys.argv[1:])
