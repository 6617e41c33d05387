"""Exact vectorized decimal text for the CSV and SVG writers.

``format_table`` gives, for every cell of a float table, the same bytes
as Python's ``spec % value`` for the two formats the writers use:
``b"%.17g"`` (CSV cells) and ``b"%.3f"`` (SVG pixel coordinates).

A cell with d fraction digits is scaled by 10**d as an exact
double-double: a Veltkamp split and Dekker's error-free product
(T. J. Dekker, Numer. Math. 18, 224, 1971), with d <= 22 so that 10**d
is an exact double.  The product is rounded half to even to an integer N,
whose digits come from a 4-digit ASCII table.  The text is built in a
planar array, one row per character and one column per cell, so every
step is one numpy operation over all cells.  Cells outside the route are
formatted by Python, one value at a time:

- ``%.17g``: zero, negative and non-finite values; values whose decimal
  exponent X lies outside [-4, 16], where ``%g`` switches to exponent
  notation; values whose log10 guess of X misses; values whose rounding
  carries to 18 digits.
- ``%.3f``: values outside [10, 1000).
"""

import numpy as np

# Cells each writer formats in one call: CHUNK // 14 rows of the CSV's 14
# columns, or CHUNK // 2 (x, y) points of a polyline.  So the text and
# temporaries a writer holds are one chunk whatever the grid length, and a
# chunk is long enough that numpy's per-call overhead is a small share.
CHUNK = 4096

# ASCII digits of 0000-9999: row i holds digit i of every number.
_DIGITS = np.indices((10, 10, 10, 10), dtype=np.uint8).reshape(4, 10000) + ord("0")

# 10**k, exact as a double for k <= 22, and its Veltkamp halves.
_POW10 = np.array([float(10**k) for k in range(23)])


def _split(a):
    """Veltkamp split of doubles into halves of at most 26 bits, a == high + low."""
    c = 134217729.0 * a  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


_POW10_HIGH, _POW10_LOW = _split(_POW10)


def _scaled_round(x, decimals):
    """x * 10**decimals as an exact double-double (hi, lo), and rounded half to even.

    ``x`` is positive and finite and ``hi`` below 2**62.  Below the even
    integer 2 floor(hi / 2), rint's ties-to-even give N's parity too.
    The rounding is exact where the rest, (hi - 2 floor(hi / 2)) + lo,
    fits a double: for hi >= 2**53, where it is lo itself, and for
    decimals = 3 with hi >= 2**8, where x * 1000 has at most 60
    significant bits and at most 51 of them below the point.
    """
    x_high, x_low = _split(x)
    p_high, p_low = _POW10_HIGH[decimals], _POW10_LOW[decimals]
    hi = x * _POW10[decimals]
    lo = ((x_high * p_high - hi) + x_high * p_low + x_low * p_high) + x_low * p_low
    even = 2.0 * np.floor(0.5 * hi)
    n = even.astype(np.int64) + np.rint((hi - even) + lo).astype(np.int64)
    return hi, lo, n


def _general(values):
    """Planar ``%.17g`` text of the cells it covers, and the mask of those cells.

    N, the value rounded to 17 significant digits, lies in [1e16, 1e17)
    and takes d = 16 - X fraction digits.  Its digits follow one '0'
    row, so the units digit is row 20 - d; the '.' goes in after it, and
    C's ``%g`` rule drops the trailing zeros of the fraction, and the '.'
    when no digit is left after it.
    """
    fast = (values > 0) & (values < 1e17)
    safe = np.where(fast, values, 1.0)
    exponent = np.floor(np.log10(safe)).astype(np.intp)
    fast &= (exponent >= -4) & (exponent <= 16)
    decimals = np.where(fast, 16 - exponent, 0)
    hi, lo, n = _scaled_round(safe, decimals)
    # the guess of X is right when N has 17 digits: 1e16 <= hi + lo and
    # N < 1e17, which also leaves out a rounding that carries to 18 digits
    fast &= ((hi > 1e16) | ((hi == 1e16) & (lo >= 0))) & (n < 10**17)

    # rows 0 and 22 are blank, row 1 is '0', rows 2-21 N's 20 digits
    pad = np.zeros((23, len(values)), dtype=np.uint8)
    pad[1] = ord("0")
    for k in range(5):
        scale = 10 ** (16 - 4 * k)
        group = n // scale
        n = n - group * scale
        np.take(_DIGITS, group, axis=1, out=pad[4 * k + 2:4 * k + 6])
    # text row j is digit j before the '.' at row 21 - d and digit j - 1
    # after it; masks are 0xff or 0, as uint8 has no vector multiply
    point = (21 - decimals).astype(np.uint8)
    row = np.arange(22, dtype=np.uint8)[:, None]
    text = pad[:-1] ^ ((pad[1:] ^ pad[:-1]) & -(row < point).view(np.uint8))
    text ^= (text ^ ord(".")) & -(row == point).view(np.uint8)
    # keep from the first digit of N or the units digit, whichever comes
    # first, to the last nonzero fraction digit or else the units digit
    start = (21 - np.maximum(17, decimals + 1)).astype(np.uint8)
    digit = np.arange(21, dtype=np.uint8)[:, None]
    last = np.max(-(pad[1:-1] != ord("0")).view(np.uint8) & digit, axis=0)
    end = np.where(last >= point, last + 1, point - 1)
    text &= -((row >= start) & (row <= end)).view(np.uint8)
    return fast, text


def _fixed(values):
    """Planar ``%.3f`` text of the cells it covers, and the mask of those cells.

    N = round(1000 x) for x in [10, 1000) has an integer part of 2 to 4
    digits, whose leading zeros are dropped, and a 3-digit fraction.
    """
    fast = (values >= 10) & (values < 1000)
    _, _, n = _scaled_round(np.where(fast, values, 10.0), 3)
    whole = n // 1000
    text = np.empty((8, len(values)), dtype=np.uint8)
    np.take(_DIGITS, whole, axis=1, out=text[:4])
    text[4] = ord(".")
    np.take(_DIGITS[1:], n - 1000 * whole, axis=1, out=text[5:])
    text[0] *= whole >= 1000
    text[1] *= whole >= 100
    return fast, text


def format_table(table, spec: bytes, seps: bytes) -> bytes:
    """``spec % value`` of every cell of a (rows, cols) table, row by row.

    Each cell is followed by the separator ``seps[col]`` of its column.
    ``spec`` is ``b"%.17g"`` or ``b"%.3f"``.
    """
    table = np.asarray(table, dtype=float)
    rows, cols = table.shape
    values = table.ravel()
    if spec == b"%.17g":
        fast, text = _general(values)
    elif spec == b"%.3f":
        fast, text = _fixed(values)
    else:
        raise ValueError(f"unsupported format {spec!r}")

    slow = np.flatnonzero(~fast)
    others = [spec % value for value in values[slow].tolist()]
    height = max([len(text)] + [len(other) for other in others])
    cells = np.zeros((height + 1, len(values)), dtype=np.uint8)
    cells[:len(text)] = text
    cells[height].reshape(rows, cols)[:] = np.frombuffer(seps, dtype=np.uint8)
    for index, other in zip(slow.tolist(), others):
        cells[:height, index] = 0
        cells[:len(other), index] = np.frombuffer(other, dtype=np.uint8)
    # the blank (zero) bytes go in one pass over the cell-major bytes
    return cells.T.tobytes().translate(None, b"\0")
