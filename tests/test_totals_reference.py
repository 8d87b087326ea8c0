"""Differential checks of the float64 digit-sum trace totals against the
frozen Python-int ones.

`reference_totals._exact_totals` sums each state's energies as exact
Python ints and divides once.  The totals of `greedy._exact_totals`, its
start and then each call of its `after`, joined, must be the same bits
(compared as int64, so a -0.0 for 0.0 counts too) for every finite,
nonnegative ladder, as greedy energies are: exponents across the whole
float range, subnormals, cells near DBL_MAX whose totals pass the float
range, eighths that make exact ties, and zeros.  The bumps walk tasks up
the ladder, as the greedy's do, a few of them or either side of a chunk,
and are handed over in chunks of drawn sizes, as the trace streams them.
At bench scale the CLI must write the same bytes with the frozen totals
patched in.
"""

import filecmp

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_totals
from offloadlab import greedy
from offloadlab.cli import main

_DBL_MAX = np.finfo(float).max
_SUBNORMAL = 5e-324

_WIDE = st.builds(np.ldexp, st.floats(0.5, 1.0, exclude_max=True),
                  st.integers(-1073, 1024)).map(float)
_KINDS = {
    "wide": _WIDE,
    "subnormal": st.integers(0, 2 ** 52 - 1).map(lambda k: k * _SUBNORMAL),
    "near_max": st.floats(0.5, 1.0).map(lambda f: f * _DBL_MAX),
    "big_and_subnormal": st.one_of(st.floats(1e299, 1e301),
                                   st.integers(1, 2 ** 20).map(lambda k: k * _SUBNORMAL)),
    # eighths next to 2**50 leave sums of 54 or more bits that end half-way
    "eighths": st.one_of(st.integers(0, 64).map(lambda k: k / 8),
                         st.sampled_from([2.0 ** 50, 2.0 ** 51, 3 * 2.0 ** 49])),
    "zeros": st.just(0.0),
}
_BUMPS = [0, 1, 2, 3, greedy._CHUNK - 1, greedy._CHUNK, greedy._CHUNK + 1]


@st.composite
def ladders(draw):
    """(energy, bumps): a ladder of one kind of cells, at most 30 drawn ones
    repeated, and bumps that each move a random task from the cell it is
    at to the next one, so that every state sums one cell of each task."""
    cells = _KINDS[draw(st.sampled_from(sorted(_KINDS)))]
    count = draw(st.sampled_from(_BUMPS))
    n = draw(st.integers(1, 6))
    levels = max(draw(st.integers(2, 5)), -(-count // n) + 1)
    size = min(n * levels, 30)
    energy = np.resize(np.array(draw(st.lists(cells, min_size=size, max_size=size)),
                                dtype=float), (n, levels))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    level = np.zeros(n, dtype=int)
    bumps = np.empty(count, dtype=int)
    for j, task in enumerate(rng.permutation(np.repeat(np.arange(n), levels - 1))[:count]):
        bumps[j] = task * levels + level[task]
        level[task] += 1
    return energy, bumps


@settings(max_examples=300, deadline=None)
@given(ladders(), st.lists(st.integers(1, 2 * greedy._CHUNK), max_size=4))
def test_digit_sums_equal_the_frozen_int_sums(ladder, sizes):
    # the bumps come in chunks of the drawn sizes, the rest in one, so the
    # running digit sums are carried across chunk edges
    energy, bumps = ladder
    start, after = greedy._exact_totals(energy, len(bumps))
    edges = np.cumsum(sizes)
    got = np.concatenate([start, *map(after, np.split(bumps, edges[edges < len(bumps)]))])
    want = reference_totals._exact_totals(energy, bumps)
    assert got.dtype == want.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def frozen_stream(energy, count):
    """`greedy._exact_totals`'s (start, after) over the frozen int totals:
    the whole pick order is summed at once, and each call of `after` hands
    back the totals of the bumps it is given, which must be the next ones."""
    bumps = np.concatenate([np.empty(0, dtype=np.intp), *greedy._picks(energy, count)])
    totals = reference_totals._exact_totals(energy, bumps)
    done = [0]

    def after(chunk):
        lo = done[0]
        done[0] += len(chunk)
        assert np.array_equal(chunk, bumps[lo:done[0]])
        return totals[1 + lo:1 + done[0]]
    return totals[:1], after


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cli_bytes_match_the_frozen_totals(seed, tmp_path, monkeypatch):
    # 100,000 bumps over a 2,000 x 51 ladder: every total is a `trace.csv` row
    argv = ["optimize", "--scenario.n_devices", "50", "--scenario.tasks_per_device", "40",
            "--seed", str(seed), "--out"]
    assert main(argv + [str(tmp_path / "digits")]) == 0
    monkeypatch.setattr(greedy, "_exact_totals", frozen_stream)
    assert main(argv + [str(tmp_path / "ints")]) == 0
    for name in ("trace.csv", "solution.json"):
        assert filecmp.cmp(tmp_path / "digits" / name, tmp_path / "ints" / name,
                           shallow=False), name
