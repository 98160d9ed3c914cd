"""Each period of a ``noise.draw_periods`` run, as the tests compare it with its ``rng_for_period`` stream."""

import numpy as np

from kljn.noise import draw_periods


def drawn_periods(master_seed, start, stop, force_state, block, n_normals):
    """``[(bits, normals)]`` of periods [start, stop), drawn in blocks of ``block``; checks each yielded block.

    ``bits`` is the period's (Alice, Bob) tuple and ``normals`` a copy of its
    ``(2, n_normals)`` row, taken before the next block overwrites it.
    """
    normals = np.full((block, 2, n_normals), np.nan)
    bits = np.full((stop - start, 2), -1, dtype=np.int8)
    periods = []
    for lo, k, a, b in draw_periods(master_seed, start, stop, force_state, normals, bits):
        assert lo == len(periods) and 1 <= k <= block
        rows = bits[lo : lo + k]
        if force_state in ("00", "11"):
            assert type(a) is type(b) is int and a == b == int(force_state[0])
        else:
            assert np.array_equal(a, rows[:, 0]) and np.array_equal(b, rows[:, 1])
        periods += [(tuple(bit.tolist()), row.copy()) for bit, row in zip(rows, normals[:k])]
    assert len(periods) == stop - start
    return periods
