"""The texts of numpy numbers as ``repr`` writes them, made in numpy.

`features.write_rows` lays a chunk of CSV rows out as one byte matrix and
a mask of the bytes that are text; `float_cells` and `int_cell` fill a
block of it.  Floats take repr's shortest round-trip digits (`shortest`),
which are proven exactly, and ``repr`` itself for the values they do not
cover; integers are cut into 4-digit words.

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
# "00" to "99" and "0000" to "9999" as 2- and 4-byte words of ASCII digits
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), dtype=np.uint16)
_QUADS = np.stack([np.repeat(_PAIRS, 100), np.tile(_PAIRS, 100)], axis=1).view(np.uint32).ravel()

# A float cell is 49 bytes, of which a mask keeps repr's text: the sign,
# "0.000", the 17 digits at bytes 7 to 23, a "." at 27, digits 1 to 16
# again at 28 to 43, "e-" and two exponent digits at 44 to 47, and the
# separator after the cell.  So a text is at most four runs of bytes, which
# keeps the read-out by the mask fast.
FLOAT_CELL = np.frombuffer(b"-0.000\0" + b"0" * 17 + b"\0\0\0." + b"0" * 16 + b"e-00,",
                           dtype=np.uint8)
_E_LOW, _E_HIGH = -10, 15  # the decimal exponents of the values `shortest` proves


def _float_masks() -> np.ndarray:
    """The mask of a positive float's text per decimal exponent E and
    digit count n: repr writes d1.d2...dn * 10**E in fixed point for
    -4 <= E <= 15, with ".0" after an integer, and as d1.d2...dne-XX below
    that."""
    at = np.arange(48)
    e = np.arange(_E_LOW, _E_HIGH + 1)[:, None, None]
    n = np.arange(1, 18)[:, None]
    whole = ((at >= 7) & (at <= 7 + e) | (at == 27)  # digits past the n-th are zeros
             | (at >= 28 + e) & (at < 27 + np.maximum(n, e + 2)))
    below_one = (at >= 1) & (at < 2 - e) | (at >= 7) & (at < 7 + n)
    exponent = (at == 7) | (at >= 44) | (at >= 27) & (at < 27 + n) & (n > 1)
    return np.where(e >= 0, whole, np.where(e >= -4, below_one, exponent)).reshape(-1, 48)


_FLOAT_MASKS = _float_masks()


def _product(m, gap, s):
    """floor(m * gap / 2**s) and twice the remainder, for s in [1, 58]: the
    128-bit product is made of 32-bit halves, in two 64-bit words."""
    low32 = _U(0xFFFFFFFF)
    ml, mh, gl, gh = m & low32, m >> _U(32), gap & low32, gap >> _U(32)
    ll, lh, hl = ml * gl, ml * gh, mh * gl
    mid = (ll >> _U(32)) + (lh & low32) + (hl & low32)
    lo = (ll & low32) | (mid << _U(32))
    hi = mh * gh + (lh >> _U(32)) + (hl >> _U(32)) + (mid >> _U(32))
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


def _quads(values, groups):
    """The last 4 * `groups` digits of each uint64 of `values` as words of
    4 ASCII digits; a scalar divisor keeps numpy's division fast."""
    words = np.empty((len(values), groups), dtype=np.uint32)
    for i in range(groups - 1, -1, -1):
        rest = values // _U(10_000)
        words[:, i] = _QUADS.take((values - rest * _U(10_000)).astype(np.intp))
        values = rest
    return words


def float_cells(x, cells, mask) -> None:
    """Write ``repr`` of each float of `x`, (rows, k), into `cells`, which
    hold `FLOAT_CELL`, and the bytes that are its text into `mask`, both
    (rows, k, 49); the separators are left as they are.  `shortest` gives
    the digits, and ``repr`` the texts it does not prove."""
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    digits, exp10, ok = shortest(x)
    shape = cells.shape[:2]
    cells[..., 8:24] = cells[..., 28:44] = _quads(digits, 4).view(np.uint8).reshape(*shape, 16)
    cells[..., 7] += (digits // _POW10[16]).astype(np.uint8).reshape(shape)
    cells[..., 46:48] = _PAIRS.take(np.abs(exp10)).view(np.uint8).reshape(*shape, 2)
    count = 17 - np.argmax(cells[..., 23:6:-1] != ord("0"), axis=-1).ravel()
    key = np.where(ok, (exp10 - _E_LOW) * 17 + count - 1, 0)
    mask[..., :48] = _FLOAT_MASKS.take(key, axis=0).reshape(*shape, 48)
    mask[..., 0] = (x < 0).reshape(shape)
    missed = np.flatnonzero(~ok)
    if len(missed):
        row, column = np.divmod(missed, shape[1])
        texts = [repr(v).encode() for v in x[missed].tolist()]
        cells[row, column, :24] = np.array(texts, dtype="S24")[:, None].view(np.uint8)
        mask[row, column, :48] = np.arange(48) < np.array([len(t) for t in texts])[:, None]


def int_cell(low: int, high: int):
    """(cell, fill) for integers from `low` to `high`: a cell is a "-" at
    byte 3, then the digits right-aligned in 4-digit words, then a ",".
    ``fill(values, cells, mask)`` writes ``repr`` of each integer of the
    numpy array `values` into `cells`, which hold `cell`, and the bytes
    that are its text into `mask`, leaving the separator."""
    groups = -(-len(str(max(-low, high))) // 4)
    cell = np.zeros(5 + 4 * groups, dtype=np.uint8)
    cell[3], cell[-1] = ord("-"), ord(",")
    width = len(cell) - 1
    masks = np.arange(width) >= width - np.arange(width - 3)[:, None]
    masks = np.concatenate([masks, masks | (np.arange(width) == 3)])  # then the negatives

    def fill(values, cells, mask):
        wide = values.astype(_U if values.dtype.kind == "u" else np.int64)
        magnitude = np.abs(wide).view(_U)  # -2**63 is 2**63
        cells[:, 4:-1] = _quads(magnitude, groups).view(np.uint8)
        count = np.searchsorted(_POW10[1:], magnitude, side="right") + 1
        mask[:, :-1] = masks.take(count + (wide < 0) * (width - 3), axis=0)
    return cell, fill
