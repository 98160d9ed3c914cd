"""The ledger's own checks: the suite's false-alarm bound, the rows' sample sets, the tests and the faults they
name, and the faults the tests use."""

import ast
import importlib
from itertools import combinations
from pathlib import Path

import pytest

from gates import GATES, PCG64, PHILOX, SUITE_BOUND
from mutants import FAULTS


def test_suite_false_alarm_bound():
    """The rows' unions sum to ``SUITE_BOUND``: a correct program fails some gate of tier-1 at most this often.

    The bound is pinned, so a row added, removed or changed shows here. The
    bound, its three largest rows, the rows that no mutant test fails and
    the rows that gate the reference alone are printed, which ``-rP`` shows.
    """
    total = sum(gate.union for gate in GATES.values())
    largest = sorted(GATES.items(), key=lambda item: item[1].union, reverse=True)[:3]
    print(f"suite false-alarm bound {total:.4g} over {len(GATES)} gates; largest:")
    for name, gate in largest:
        print(f"  {name}: {gate.values} x {gate.p:.3g} = {gate.union:.3g}")
    unpowered = [name for name, gate in GATES.items() if gate.power is None]
    print(f"{len(unpowered)} gates without a mutant: {', '.join(unpowered)}")
    reference = [name for name, gate in GATES.items() if gate.gates_reference]
    print(f"{len(reference)} gates of the waveform reference alone: {', '.join(reference)}")
    assert total == pytest.approx(SUITE_BOUND, rel=1e-9)


def overlap(a, b):
    """Whether rows ``a`` and ``b`` read one stream's draws: a shared seed and intersecting period ranges."""
    return (
        a.stream == b.stream
        and bool(a.seed_set & b.seed_set)
        and max(a.periods.start, b.periods.start) < min(a.periods.stop, b.periods.stop)
    )


def test_sample_sets_overlap_only_where_declared():
    """Two rows that read one sample set name each other in ``shares`` (one of them does), and every name
    in ``shares`` is a row whose sample set this row does read."""
    for (name_a, a), (name_b, b) in combinations(GATES.items(), 2):
        declared = name_b in a.shares or name_a in b.shares
        assert overlap(a, b) == declared, f"{name_a} and {name_b}: overlap {overlap(a, b)}, declared {declared}"
    for name, gate in GATES.items():
        assert set(gate.shares) <= set(GATES) - {name}, name
        assert gate.stream in (PHILOX, PCG64), name


def resolve(test_id):
    """The test function that ``file.py::[Class::]function`` names, or None."""
    path, *names = test_id.split("::")
    obj = importlib.import_module(path.removesuffix(".py"))
    for name in names:
        obj = getattr(obj, name, None)
    return obj if callable(obj) and names[-1].startswith("test_") else None


def test_rows_name_tier_1_tests():
    """Every row's test and mutant test exist, and every row names registry faults that fail it."""
    for name, gate in GATES.items():
        assert resolve(gate.test), f"{name}: no test {gate.test}"
        assert gate.power is None or resolve(gate.power), f"{name}: no mutant test {gate.power}"
        assert gate.faults and set(gate.faults) <= set(FAULTS), f"{name}: faults {gate.faults}"
        assert gate.values >= 1 and 0 < gate.p < 1 and gate.periods.start == 0, name


def injected():
    """The names of registry faults that a test function which calls ``inject`` holds as string constants, in
    its body or its decorators."""
    names = set()
    for path in Path(__file__).resolve().parent.glob("test_*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and any(
                isinstance(call, ast.Call) and getattr(call.func, "id", None) == "inject" for call in ast.walk(node)
            ):
                names |= {c.value for c in ast.walk(node) if isinstance(c, ast.Constant) and c.value in FAULTS}
    return names


def test_every_fault_is_used():
    """Every fault of the registry is injected by a test or named by a row: the registry holds no fault that
    nothing reads."""
    named = {fault for gate in GATES.values() for fault in gate.faults}
    assert set(FAULTS) - injected() - named == set()
