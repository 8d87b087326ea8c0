"""Differential checks of the numpy number texts of `features.write_rows`
against ``repr``.

`write_rows` formats numpy float and int columns in numpy: `shortest`
finds repr's shortest round-trip digits of a float64 exactly and the cell
layout writes them in repr's fixed or exponent notation; integers are cut
into 4-digit groups.  Each test writes one column and compares its lines
with ``repr`` of the values as ``tolist()`` gives them, and `TestProduct`
checks the product step of `shortest` against Python ints.  The cases are
the places where such a kernel goes wrong: bit patterns at random, every
binade, the boundaries of log10 and of the notation, powers of two (whose
lower half gap is halved), integers past 2**53 and exact ties.  Values the
kernel cannot prove go to ``repr`` itself; `TestProvenRange` pins which.
The int dtypes at their bounds are compared with the frozen row writer in
`test_writers_reference.py`.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offloadlab.features import write_rows
from offloadlab.numtext import _product, shortest

_MAX = np.finfo(np.float64).max
_TINY = np.finfo(np.float64).tiny  # the smallest normal


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("number_text")


def _lines(path, column) -> list[str]:
    write_rows(path, ["v"], [column])
    return path.read_bytes().decode("ascii").split("\r\n")[1:-1]


def _assert_repr(path, values):
    values = np.asarray(values, dtype=np.float64)
    both = np.concatenate([values, -values])
    assert _lines(path, both) == [repr(v) for v in both.tolist()]


def _neighbours(values, steps=2):
    """`values` and the floats up to `steps` apart from each, either way."""
    out = [values]
    for direction in (-np.inf, np.inf):
        step = values
        for _ in range(steps):
            step = np.nextafter(step, direction)
            out.append(step)
    return np.concatenate(out)


class TestFloatText:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
    def test_random_bit_patterns(self, scratch, words):
        _assert_repr(scratch / "f.csv", np.array(words, dtype=np.uint64).view(np.float64))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=64))
    def test_random_floats(self, scratch, values):
        _assert_repr(scratch / "f.csv", values)

    def test_every_binade(self, scratch):
        # subnormals (exponents below -1022) up to the binade of the float max
        rng = np.random.default_rng(7)
        exponents = np.repeat(np.arange(-1074, 1024), 6)
        _assert_repr(scratch / "f.csv", np.ldexp(1.0 + rng.random(len(exponents)), exponents))

    def test_zeros_inf_nan_and_the_float_extremes(self, scratch):
        _assert_repr(scratch / "f.csv", [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                                         _TINY, np.nextafter(_TINY, 0), _MAX,
                                         np.nextafter(_MAX, 0), 2.0 ** -32, 2.0 ** 51])

    def test_powers_of_ten_and_their_neighbours(self, scratch):
        # floor(log10 x) is one off just below a power of ten,
        # as for 9.999999999999999e-06
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        _assert_repr(scratch / "f.csv", _neighbours(powers, steps=3))

    def test_powers_of_two_and_their_neighbours(self, scratch):
        _assert_repr(scratch / "f.csv", _neighbours(np.ldexp(1.0, np.arange(-1074, 1024))))

    def test_integers_around_2_53_and_1e16(self, scratch):
        _assert_repr(scratch / "f.csv", np.concatenate([
            np.arange(2 ** 53 - 40, 2 ** 53 + 40, dtype=np.int64).astype(np.float64),
            np.arange(10 ** 16 - 40, 10 ** 16 + 40, dtype=np.int64).astype(np.float64),
            np.arange(2 ** 51 - 40, 2 ** 51 + 40).astype(np.float64)]))

    @pytest.mark.parametrize("digits", range(1, 18))
    def test_each_shortest_digit_count(self, scratch, digits):
        rng = np.random.default_rng(digits)
        mantissas = rng.integers(10 ** (digits - 1), 10 ** digits, 3000, dtype=np.int64)
        exponents = rng.integers(-25, 25, 3000)
        _assert_repr(scratch / "f.csv", [float(f"{m}e{e}") for m, e in
                                         zip(mantissas.tolist(), exponents.tolist())])

    def test_where_the_notation_switches(self, scratch):
        # fixed point from 1e-4 up to below 1e16, d.ddde-XX / d.ddde+XX past them
        rng = np.random.default_rng(3)
        scale = np.array([1e-6, 1e-5, 1e-4, 1e-3, 1e14, 1e15, 1e16, 1e17])
        values = [scale, (1.0 + 9.0 * rng.random((50, 1))) * scale,
                  np.round(1.0 + 9.0 * rng.random((20, 1)), 3) * scale]
        _assert_repr(scratch / "f.csv", _neighbours(np.concatenate([v.ravel() for v in values])))

    def test_exact_ties_between_candidates(self, scratch):
        # k + 0.25 and k + 0.75 near 6e14 lie halfway between two 16-digit
        # candidates that both round back, and near 1.5e15 between two
        # 17-digit ones: repr takes the even one
        quarters = np.arange(1, 400, 2) / 4.0
        _assert_repr(scratch / "f.csv", np.concatenate([6e14 + quarters, 1.5e15 + quarters,
                                                        2 ** 50 + quarters]))

    def test_chunks_of_mixed_values(self, scratch):
        # proven and unproven values side by side across chunk boundaries
        rng = np.random.default_rng(11)
        values = rng.choice([0.0, -0.0, math.inf, math.nan, 1e-300, 1e300, 0.1, 479.5, 1e-9],
                            size=5000) * rng.random(5000)
        _assert_repr(scratch / "f.csv", values)


class TestProvenRange:
    """The values `shortest` proves are formatted in numpy; the rest goes
    to ``repr``, one cell at a time."""

    def test_every_value_in_the_range_is_proven(self):
        # log-uniform over [2**-32, 2**51), both signs, with exact ties, the
        # trace totals' magnitudes and short decimals
        rng = np.random.default_rng(5)
        values = np.concatenate([np.exp2(rng.uniform(-32, 51, 200_000)),
                                 6e14 + np.arange(1, 400, 2) / 4.0, 479.0 * rng.random(1000),
                                 np.round(rng.random(1000), 3) + 1.0])
        values *= rng.choice([-1.0, 1.0], len(values))
        assert shortest(values)[2].all()

    @pytest.mark.parametrize("value", [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                                       _TINY, np.nextafter(2.0 ** -32, 0), 2.0 ** 51, 1e16,
                                       _MAX], ids=str)
    def test_values_outside_it_are_not(self, value):
        assert not shortest(np.array([value]))[2].any()

    def test_a_wrong_log10_estimate_is_not(self):
        # log10 rounds to -5.0 just below 1e-05, one more than floor(log10 x)
        value = np.nextafter(1e-05, 0)
        assert np.log10(value) == -5.0 and not shortest(np.array([value]))[2].any()


class TestIntText:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=1, max_size=64))
    def test_random_int64(self, scratch, values):
        column = np.array(values, dtype=np.int64)
        assert _lines(scratch / "i.csv", column) == [repr(v) for v in values]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
    def test_random_uint64(self, scratch, values):
        column = np.array(values, dtype=np.uint64)
        assert _lines(scratch / "i.csv", column) == [repr(v) for v in values]

    @pytest.mark.parametrize("column", [range(-3, 2 ** 63 - 1, 2 ** 61), range(10, -10, -3),
                                        range(2 ** 63 - 5, 2 ** 63 + 5), range(-2 ** 64, 0, 2 ** 62),
                                        range(7, 7)], ids=str)
    def test_ranges(self, scratch, column):
        # a range past int64 is formatted cell by cell
        assert _lines(scratch / "i.csv", column) == list(map(repr, column))

    def test_every_integer_up_to_five_digits(self, scratch):
        # every 4-digit word and every digit count from 1 to 5, both signs
        column = range(-99_999, 100_000)
        expected = list(map(str, column))
        assert _lines(scratch / "i.csv", np.arange(-99_999, 100_000, dtype=np.int64)) == expected
        assert _lines(scratch / "i.csv", column) == expected


class TestProduct:
    """`_product` against Python ints: floor(m * 5**k / 2**s) modulo 2**64
    and twice the remainder, for m in [2**52, 2**53), k in [1, 26] and s in
    [1, 58], every m, k and s that `shortest` uses."""

    @staticmethod
    def _assert_exact(ms, ks, ss):
        powers = np.array([5 ** k for k in ks], dtype=np.uint64)
        q, twice = _product(np.array(ms, dtype=np.uint64), powers, np.array(ss, dtype=np.uint64))
        for m, k, s, got_q, got_twice in zip(ms, ks, ss, q.tolist(), twice.tolist()):
            product = m * 5 ** k
            assert got_q == (product >> s) % 2 ** 64, (m, k, s)
            assert got_twice == (product % 2 ** s) * 2, (m, k, s)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(2 ** 52, 2 ** 53 - 1), st.integers(1, 26),
                              st.integers(1, 58)), min_size=1, max_size=64))
    def test_random_operands(self, operands):
        self._assert_exact(*zip(*operands))

    def test_every_corner(self):
        # the ends of each range and their neighbours, in every combination;
        # 5**22 is the last power of five that float64 holds exactly
        ms = [2 ** 52, 2 ** 52 + 1, 2 ** 53 - 2, 2 ** 53 - 1]
        ks = [1, 2, 22, 23, 25, 26]
        ss = [1, 2, 57, 58]
        self._assert_exact(*zip(*((m, k, s) for m in ms for k in ks for s in ss)))
