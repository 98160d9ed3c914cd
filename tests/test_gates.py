"""The ledger's own checks: the suite's false-alarm bound, the rows' sample sets, and the tests they name."""

import importlib
from itertools import combinations

import pytest

from gates import GATES, PCG64, PHILOX, SUITE_BOUND


def test_suite_false_alarm_bound():
    """The rows' unions sum to ``SUITE_BOUND``: a correct program fails some gate of tier-1 at most this often.

    The bound is pinned, so a row added, removed or changed shows here. The
    bound, its three largest rows and the rows that no mutant test fails yet
    are printed, which ``-rP`` shows.
    """
    total = sum(gate.union for gate in GATES.values())
    largest = sorted(GATES.items(), key=lambda item: item[1].union, reverse=True)[:3]
    print(f"suite false-alarm bound {total:.4g} over {len(GATES)} gates; largest:")
    for name, gate in largest:
        print(f"  {name}: {gate.values} x {gate.p:.3g} = {gate.union:.3g}")
    unpowered = [name for name, gate in GATES.items() if gate.power is None]
    print(f"{len(unpowered)} gates without a mutant: {', '.join(unpowered)}")
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
    """Every row's test and mutant test exist, and a row without a mutant says why."""
    for name, gate in GATES.items():
        assert resolve(gate.test), f"{name}: no test {gate.test}"
        assert gate.power is None or resolve(gate.power), f"{name}: no mutant test {gate.power}"
        assert (gate.power is None) == bool(gate.no_power), name
        assert gate.values >= 1 and 0 < gate.p < 1 and gate.periods.start == 0, name
