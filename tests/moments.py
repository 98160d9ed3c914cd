"""Statistics the tests compute from a session report's ``moment_sums``."""

import math


def msq_correlation(sums) -> float:
    """Sample correlation of per-period msv and msi from one state's ``[n, Σv, Σi, Σv², Σi², Σvi]``."""
    n, sv, si, svv, sii, svi = sums
    assert n >= 2, f"a correlation needs 2 periods, got {n}"
    cov = svi / n - (sv / n) * (si / n)
    var_v = svv / n - (sv / n) ** 2
    var_i = sii / n - (si / n) ** 2
    return cov / math.sqrt(var_v * var_i)
