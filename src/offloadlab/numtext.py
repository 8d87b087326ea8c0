"""The texts of numpy numbers as ``repr`` writes them, made in numpy.

`features.write_chunks` lays a piece of CSV rows out as one byte matrix in
which every byte that is not text is NUL, so the piece's text is its bytes
with the NULs deleted (``bytes.translate``); no number's text holds a NUL,
and there is no mask.  `float_cells` and `int_cell` fill a block of that
matrix.  Floats take repr's shortest round-trip digits (`shortest`), which
are proven exactly, and ``repr`` itself for the values they do not cover;
integers are cut into 4-digit words whose zeros before the first digit are
NUL.

`shortest` is the one subtle part.  It follows Ryu (Adams, PLDI 2018): an
exact 128-bit product gives the value's first 17 digits and its fraction,
and a candidate with fewer digits is kept when it lies within the value's
half gap to the next float, which decides how the value reads back.  The
arithmetic runs on uint64 words only: numpy promotes a uint64 mixed with
an int64 to float64, which is inexact, so the two are never mixed.
"""

from __future__ import annotations

import numpy as np

_U = np.uint64
_POW10 = np.array([10 ** i for i in range(20)], dtype=_U)
_POW5 = np.array([5 ** i for i in range(27)], dtype=_U)
# "00" to "99" as 2-byte words of ASCII digits
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), dtype=np.uint16)


def _word_tables():
    """The 4-byte words of 0 to 9999 three times: "0000" to "9999"; then
    with the zeros before the first digit NUL, 0 all NUL; then the same
    but 0 as three NULs and "0".  And per word i of the 16 digits after a
    float's first, the digit count up to that word's last non-zero digit,
    or 1 for a word 0: the largest over a value's 4 words is its count."""
    word = np.arange(10_000, dtype=np.int16)
    digits = np.searchsorted(np.array([1, 10, 100, 1000]), word, side="right")  # 0 for 0
    quads = np.stack([np.repeat(_PAIRS, 100), np.tile(_PAIRS, 100)], axis=1).view(np.uint32)
    # keep[d] keeps a word's last d bytes
    keep = ((np.arange(4) >= 4 - np.arange(5)[:, None]) * np.uint8(255)).view(np.uint32)
    quads = np.concatenate([quads, quads & keep[digits], quads & keep[np.maximum(digits, 1)]])
    tail = (5 - sum(word % 10 ** t == 0 for t in (1, 2, 3))).astype(np.uint8)
    tail = tail + np.arange(0, 16, 4, dtype=np.uint8)[:, None]
    tail[:, 0] = 1
    return quads.ravel(), tail


_QUADS, _TAIL = _word_tables()

# A float cell is 45 bytes, of which a 0/1 multiplier keeps repr's text and
# makes the rest NUL: the sign, "0.000", the 17 digits at bytes 6 to 22, a
# "." at 23, digits 1 to 16 again at 24 to 39, "e-" and two exponent digits
# at 40 to 43, and the separator after the cell.
FLOAT_CELL = np.frombuffer(b"-0.000" + b"0" * 17 + b"." + b"0" * 16 + b"e-00,", dtype=np.uint8)
_E_LOW, _E_HIGH = -10, 15  # the decimal exponents of the values `shortest` proves


def _float_masks() -> np.ndarray:
    """The multiplier of a positive float's text per decimal exponent E and
    digit count n: repr writes d1.d2...dn * 10**E in fixed point for
    -4 <= E <= 15, with ".0" after an integer, and as d1.d2...dne-XX below
    that."""
    at = np.arange(44)
    e = np.arange(_E_LOW, _E_HIGH + 1)[:, None, None]
    n = np.arange(1, 18)[:, None]
    whole = ((at >= 6) & (at <= 6 + e) | (at == 23)  # digits past the n-th are zeros
             | (at >= 24 + e) & (at < 23 + np.maximum(n, e + 2)))
    below_one = (at >= 1) & (at < 2 - e) | (at >= 6) & (at < 6 + n)
    exponent = (at == 6) | (at >= 40) | (at >= 23) & (at < 23 + n) & (n > 1)
    masks = np.where(e >= 0, whole, np.where(e >= -4, below_one, exponent))
    return masks.reshape(-1, 44).astype(np.uint8)


_FLOAT_MASKS = _float_masks()


def _product(m, power, s):
    """floor(m * 5**k / 2**s) modulo 2**64 and twice the remainder, for m
    in [2**52, 2**53), `power` = 5**k with k in [1, 26] and s in [1, 58].

    The product P = m * 5**k < 2**53 * 5**26 is lo + 2**64 * hi: uint64
    arithmetic gives lo exactly, and hi is the float64 estimate
    h = (fl(m) * fl(5**k) - fl(lo)) * 2**-64 rounded to an integer.  With
    u = 2**-53: fl(m) is exact, and fl(5**k) and the product each add a
    relative error of at most u, so the product is within (2u + u**2) * P
    of P; fl(lo) is within 2**10 of lo; so the exact difference is within
    e = (2u + u**2) * P + 2**10 of hi * 2**64, and the subtraction adds at
    most u times it.  In units of 2**64, where P / 2**64 < 5**26 / 2**11
    < 7.28e14 bounds hi too, |h - hi| <= (1 + u) * e / 2**64 + u * hi
    < 0.162 + 0.081 + 2**-53 < 0.25, so rounding h gives hi, an integer
    below 2**50 that float64 holds exactly."""
    lo = m * power
    hi = np.rint((m.astype(np.float64) * power.astype(np.float64) - lo.astype(np.float64))
                 * 2.0 ** -64).astype(_U)
    return (hi << (_U(64) - s)) | (lo >> s), (lo & ((_U(1) << s) - _U(1))) << _U(1)


def shortest(x):
    """repr's digits of each float64 of `x` as a 17-digit integer padded
    with zeros, the decimal exponent E of the first digit, and whether both
    are proven.

    repr gives the fewest digits that round back to x, the nearest to x of
    them, and of two as near the even one.  With |x| = m * 2**e and
    E = floor(log10 |x|), the product m * 5**(16 - E) holds
    |x| * 10**(16 - E) as 17 integer digits q and an s-bit fraction.  A
    candidate with t of q's digits dropped rounds back to x when it lies
    within x's half gap: 5**(16 - E) / 2**(s + 1) units of q, at most 11.2,
    halved below a power of two, its bound included for an even m
    (round-half-even).  For t >= 2 at most one candidate lies within 13
    units of q, the same one for every such t, so a test at t = 2 finds
    the shortest; failing that, the nearer candidate at t = 1 that fits, or
    q rounded.  For |x| in [2**-32, 2**51), s lies in [1, 58] and E in
    [-10, 15] or one off near a power of ten, which q's digit count shows.
    Zeros, subnormals, inf and nan, |x| outside that range and a wrong E
    are not proven."""
    bits = np.abs(x).view(_U)
    biased = (bits >> _U(52)).astype(np.int64)
    ok = (biased >= 1023 - 32) & (biased < 1023 + 51)
    exp10 = np.floor(np.log10(np.where(ok, bits.view(np.float64), 1.0))).astype(np.int64)
    s = np.clip(1059 - biased + exp10, 1, 58).astype(_U)  # 1075 - biased - (16 - E)
    m = (bits & _U(2 ** 52 - 1)) | _U(2 ** 52)
    del bits, biased  # a chunk's peak memory is the arrays alive at once
    gap = _POW5[16 - exp10]
    q, twice_frac = _product(m, gap, s)
    ok &= (q >= _POW10[16]) & (q < _POW10[17])
    tens, hundreds = q // _U(10), q // _U(100)
    shift, half, bound = s + _U(1), _U(1) << s, gap + ((m & _U(1)) ^ _U(1))
    pow2 = (m == _U(2 ** 52)).astype(np.uint8)
    del s, m, gap

    def fits(units, below):
        """Whether a candidate `units` of q below |x|, or above it, rounds
        back to x, and its distance from |x| times 2**(s + 1)."""
        scaled = np.minimum(units, _U(13)) << shift  # 13 is past any half gap
        distance = scaled + twice_frac if below else scaled - twice_frac
        return ((distance << pow2) if below else distance) < bound, distance

    last, last2 = q - tens * _U(10), q - hundreds * _U(100)
    (down1, d_down), (up1, d_up) = fits(last, True), fits(_U(10) - last, False)
    (down2, _), (up2, _) = fits(last2, True), fits(_U(100) - last2, False)
    above1 = up1 & (~down1 | (d_up < d_down) | ((d_up == d_down) & ((tens & _U(1)) == 1)))
    above0 = (twice_frac > half) | ((twice_frac == half) & ((q & _U(1)) == 1))
    digits = np.where(down2 | up2, (hundreds + up2) * _U(100),
                      np.where(down1 | up1, (tens + above1) * _U(10), q + above0))
    carry = digits == _POW10[17]  # 10**(E + 1), one digit
    digits[carry] = _POW10[16]
    return digits, exp10 + carry, ok


def _words(values, groups, lead=False):
    """The last 4 * `groups` digits of each uint64 of `values` as indices
    into `_QUADS`, (len(values), groups) in reading order: the numbers
    0 to 9999 of their 4-digit words, or with `lead`, for a word that has
    only zeros before it, that number's text with those zeros NUL.  A
    scalar divisor keeps numpy's division fast."""
    words = np.empty((len(values), groups), dtype=np.intp)
    for i in range(groups - 1, -1, -1):
        rest = values // _U(10_000)
        words[:, i] = values - rest * _U(10_000)
        if lead:  # the last word of a value 0 keeps one "0"
            words[:, i] += (rest == _U(0)) * (10_000 if i < groups - 1 else 20_000)
        values = rest
    return words


def float_cells(x, cells) -> None:
    """Write ``repr`` of each float of `x`, (rows, k), into `cells`,
    (rows, k, 45), which hold `FLOAT_CELL`, with every byte of a cell that
    is not text NUL; the separators are left as they are.  `shortest`
    gives the digits, and ``repr`` the texts it does not prove."""
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    digits, exp10, ok = shortest(x)
    shape = cells.shape[:2]
    words = _words(digits, 4)
    cells[..., 7:23] = cells[..., 24:40] = _QUADS.take(words).view(np.uint8).reshape(*shape, 16)
    cells[..., 6] += (digits // _POW10[16]).astype(np.uint8).reshape(shape)
    if (exp10 < -4).any():  # a value in exponent form
        cells[..., 42:44] = _PAIRS.take(np.abs(exp10)).view(np.uint8).reshape(*shape, 2)
    count = np.maximum.reduce([_TAIL[i].take(words[:, i]) for i in range(4)])
    # an unproven value's key may lie outside the table; its cell is
    # overwritten below
    key = exp10 * 17 + count + (-_E_LOW * 17 - 1)
    cells[..., :44] *= _FLOAT_MASKS.take(key, axis=0, mode="clip").reshape(*shape, 44)
    cells[..., 0] = (x < 0).reshape(shape) * np.uint8(ord("-"))
    missed = np.flatnonzero(~ok)
    if len(missed):
        row, column = np.divmod(missed, shape[1])
        texts = [repr(v).encode() for v in x[missed].tolist()]
        cells[row, column, :44] = np.array(texts, dtype="S44")[:, None].view(np.uint8)


def int_cell(low: int, high: int):
    """(cell, fill) for integers from `low` to `high`: a cell is a "-",
    then the digits right-aligned in 4-digit words, then a ",".
    ``fill(values, cells)`` writes ``repr`` of each integer of the numpy
    array `values` into `cells`, which hold `cell`, with every byte that is
    not text NUL, leaving the separator."""
    groups = -(-len(str(max(-low, high))) // 4)
    cell = np.zeros(2 + 4 * groups, dtype=np.uint8)
    cell[0], cell[-1] = ord("-"), ord(",")

    def fill(values, cells):
        wide = values.astype(_U if values.dtype.kind == "u" else np.int64, copy=False)
        magnitude = np.abs(wide).view(_U)  # -2**63 is 2**63
        cells[:, 1:-1] = _QUADS.take(_words(magnitude, groups, lead=True)).view(np.uint8)
        cells[:, 0] *= wide < 0
    return cell, fill
