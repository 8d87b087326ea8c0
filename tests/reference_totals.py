"""Frozen copy of the Python-int trace totals that `greedy._exact_totals`
replaced, kept as a test oracle.

`_to_units` writes each finite float as an exact Python int in units of
2**emin, the least unit in the ladder; `_exact_totals` keeps running sums
of those ints `_CHUNK` bumps at a time and divides each by 2**-emin, which
rounds it correctly, or gives a signed inf past the float range.  The
library's totals must equal these bit for bit; `test_totals_reference.py`
compares them.  Do not edit the code below.
"""

from __future__ import annotations

import math

import numpy as np

_CHUNK = 4096  # bumps whose exact totals are held as Python ints at once


def _to_units(values: np.ndarray, emin: int) -> np.ndarray:
    """Finite `values` as exact Python ints in units of 2**emin."""
    mant, exp = np.frexp(values)
    shift = np.maximum(exp - (53 + emin), 0)  # frexp(0) is (0, 0): clamp its shift
    return np.ldexp(mant, 53).astype(np.int64).astype(object) << shift.astype(object)


def _over(units: int, scale: int) -> float:
    """``units / scale`` correctly rounded, or a signed inf past the float range."""
    try:
        return units / scale
    except OverflowError:
        return math.inf if units > 0 else -math.inf


def _exact_totals(energy: np.ndarray, bumps=np.empty(0, dtype=int)) -> np.ndarray:
    """Correctly rounded sums of ``energy[:, 0]``, then of each state after
    a bump, where bump j moves one task from flat cell ``bumps[j]`` of the
    finite `energy` to the next cell.

    Every float is an integer multiple of 2**emin, the least unit in
    `energy` (at most 1), so each state's exact sum is a running sum of
    Python ints, held `_CHUNK` bumps at a time; int / int division rounds
    it correctly.
    """
    cells = energy.ravel()
    tiny = np.min(np.abs(cells), where=cells != 0.0, initial=np.inf)
    emin = min(int(np.frexp(tiny)[1]) - 53, 0) if tiny < np.inf else 0
    scale = 1 << -emin
    totals = np.empty(len(bumps) + 1)
    carry = sum(_to_units(energy[:, 0], emin).tolist())
    totals[0] = _over(carry, scale)
    for lo in range(0, len(bumps), _CHUNK):
        cell = bumps[lo:lo + _CHUNK]
        sums = np.cumsum(_to_units(cells[cell + 1], emin) - _to_units(cells[cell], emin))
        sums += carry
        carry = sums[-1]
        try:
            totals[lo + 1:lo + 1 + len(cell)] = sums / scale
        except OverflowError:  # a total past the float range
            totals[lo + 1:lo + 1 + len(cell)] = [_over(s, scale) for s in sums.tolist()]
    return totals
