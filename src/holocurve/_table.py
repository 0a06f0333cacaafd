"""The one CSV artifact writer: a header line, then one row per index of the
columns, every value written exactly as ``"%.17g" % float(v)`` writes it, so
a float round-trips and an integer count prints without a decimal point.

A vectorized kernel makes those bytes for a block of rows at a time.  For a
normal double v of decimal exponent e = floor(log10 |v|), the 17 significant
digits are d = |v| 10^(16-e) rounded half-to-even (Steele & White, PLDI 1990;
Adams, OOPSLA 2019).  The kernel forms d in long double: |v| is exact there,
10^(16-e) is a correctly rounded table entry, and the product is one more
rounding, so d lies within 10^17 (2u + u^2) of its exact value, u being the
long double's unit roundoff.  Where the fraction of d clears 1/2 by more than
that, 10^16 <= d and round(d) < 10^17, round(d) are the digits; the kernel
lays them out as %g does (fixed notation for -4 <= e < 17, else scientific,
trailing zeros and a bare point dropped).  Every other value -- zero,
subnormal, inf, nan, a near tie, a decade edge -- goes through Python's own
``%``.  Where long double is a plain double, whose bound exceeds 1/2, the
kernel and its tables are skipped altogether: each block of rows is one
``%`` of the row format repeated over the block.
"""
from __future__ import annotations

import functools
import os
from pathlib import Path
from typing import Sequence

import numpy as np

_BLOCK = 4096           # values laid out at a time: about 1.5 MB of temporaries
_E_MIN, _E_MAX = -310, 310      # decimal exponents of normal doubles, padded
# 10^17 (2u + u^2) with u = eps / 2, rounded up: over 1/2, so that every
# value falls back, where long double is a plain double.
_MARGIN = 1.0001e17 * float(np.finfo(np.longdouble).eps)
_TINY = np.finfo(np.float64).tiny
_HUGE = np.finfo(np.float64).max
_U = np.uint64


@functools.cache
def _tables():
    """Lookup tables of the kernel, built on first use.

    Each value is laid out in four little-endian uint64 words: bytes 0-5 the
    sign and the "0.000" of fixed notation below 1, bytes 6-23 the digits
    and the point, bytes 24-28 the exponent and byte 31 the separator.  Zero
    bytes are padding, dropped after the block is laid out.
    """
    pow10 = np.array([np.longdouble(f"1e{16 - e}")
                      for e in range(_E_MIN, _E_MAX + 1)])
    g = np.arange(10000, dtype=np.uint16)
    zeros4 = np.zeros(10000, np.intp)       # trailing zeros of four digits
    zeros4[0] = 4
    for p in (10, 100, 1000):
        zeros4[1:] += g[1:] % p == 0
    digits = np.empty((10000, 4), np.uint8)     # the four ASCII digits of g
    for k in (3, 2, 1, 0):
        digits[:, k] = g % 10 + ord("0")
        g //= 10
    quad = digits.view("<u4").ravel().astype(_U)
    head = np.array([sign + "0.000"[:m] for sign in ("", "-")
                     for m in range(6)], "S8").view("<u8")
    exp = np.array(["e%+03d" % e for e in range(_E_MIN, _E_MAX + 1)] + [""],
                   "S8").view("<u8")
    # Body masks by k * 19 + lb for a point after k digits and lb bytes of
    # body: the first digits come from the words with the digits at byte 6,
    # the point goes to byte 6 + k, the rest come from the words with the
    # digits at byte 7, and bytes from 6 + lb on are dropped.
    k = np.arange(19)[:, None, None]
    lb = np.arange(19)[None, :, None]
    pos = np.arange(24) - 6
    left = (pos >= 0) & (pos < np.minimum(k, lb))
    right = (pos > k) & (pos < lb)
    point = (pos == k) & (k < lb)
    left, right, point = (
        np.ascontiguousarray((m * np.uint8(byte)).view("<u8")
                             .reshape(19 * 19, 3).T)
        for m, byte in ((left, 0xFF), (right, 0xFF), (point, ord("."))))
    return pow10, quad, zeros4, head, exp, left, right, point


def _format(x: np.ndarray, out: np.ndarray) -> None:
    """Lay out ``"%.17g" % v`` for every v of the flat float64 block `x` in
    the (len(x), 4) uint64 words `out`: words 0-2 are overwritten, the
    exponent is or-ed into word 3, which holds the separator."""
    pow10, quad, zeros4, head, exp, left, right, point = _tables()
    a = np.abs(x)
    fast = (a >= _TINY) & (a <= _HUGE)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    d = a.astype(np.longdouble) * pow10.take(e - _E_MIN)
    n = d.astype(_U)
    frac = (d - n).astype(np.float64)      # exact: d >= 2^53 where it counts
    # d >= 10^16 also admits an exact d a hair below 10^16, where e is one
    # too high: its 17 digits at e - 1 round up to 10^17, the same bytes.
    fast &= (np.abs(frac - 0.5) > _MARGIN) & (d >= 1e16)
    n += frac > 0.5
    fast &= n < 10 ** 17
    n[~fast] = 10 ** 16                     # placeholder digits, overwritten

    # The 17 digits: c0, then four groups of four as ASCII words.
    c0 = n // _U(10 ** 16)
    hi, lo = np.divmod(n - c0 * _U(10 ** 16), _U(10 ** 8))
    g1, g2 = np.divmod(hi, _U(10000))
    g3, g4 = np.divmod(lo, _U(10000))
    c0 += _U(ord("0"))
    q1, q2, q3, q4 = (quad.take(q) for q in (g1, g2, g3, g4))
    zeros = zeros4.take(g4) + (g4 == 0) * (zeros4.take(g3) + (g3 == 0) * (
        zeros4.take(g2) + (g2 == 0) * zeros4.take(g1)))
    s = 17 - zeros                          # significant digits kept

    # %g: fixed with the point after e + 1 digits for 0 <= e < 17, "0."
    # and -e - 1 zeros before all digits for -4 <= e < 0, else scientific.
    # k digits precede the point (17 below 1, whose point is in the head);
    # the body keeps lb bytes, so trailing zeros after the point and a bare
    # point are dropped.
    sci = (e < -4) | (e >= 17)
    below1 = ~sci & (e < 0)
    k = np.where(sci, 1, np.where(below1, 17, e + 1))
    lb = np.where(below1, s, np.where(s > k, s + 1, k))
    i = k * 19 + lb
    at6 = ((c0 << _U(48)) | (q1 << _U(56)),
           (q1 >> _U(8)) | (q2 << _U(24)) | (q3 << _U(56)),
           (q3 >> _U(8)) | (q4 << _U(24)))
    at7 = (c0 << _U(56), q1 | (q2 << _U(32)), q3 | (q4 << _U(32)))
    for w in range(3):
        out[:, w] = (at6[w] & left[w].take(i)) | (at7[w] & right[w].take(i)) \
            | point[w].take(i)
    out[:, 0] |= head.take(np.signbit(x) * 6 + np.where(below1, 1 - e, 0))
    out[:, 3] |= exp.take(np.where(sci & fast, e - _E_MIN, len(exp) - 1))

    slow = np.flatnonzero(~fast)
    if len(slow):
        out[slow, :3] = _text(x[slow])


def _text(x: np.ndarray) -> np.ndarray:
    """``"%.17g" % v`` for every v of `x`, as (len(x), 3) uint64 words."""
    text = np.array(["%.17g" % v for v in x.tolist()], "S24")
    return text.view("<u8").reshape(-1, 3)


def _rows(columns: list):
    """The CSV rows of `columns`, one bytes object per block of rows."""
    n_cols = len(columns)
    n_rows = len(columns[0]) if columns else 0
    rows = max(1, _BLOCK // max(n_cols, 1))
    row = "%.17g," * (n_cols - 1) + "%.17g\n"
    x = np.empty((min(rows, n_rows), n_cols))
    words = np.empty((len(x), n_cols, 4), "<u8")
    sep = np.array([ord(",") << 56] * (n_cols - 1) + [ord("\n") << 56], _U)
    for start in range(0, n_rows, rows):
        b = min(rows, n_rows - start)
        for j, col in enumerate(columns):
            x[:b, j] = col[start:start + b]
        if _MARGIN > 0.5:   # long double is a plain double: no value is fast
            yield (row * b % tuple(x[:b].ravel().tolist())).encode()
            continue
        block = words[:b]
        block[:, :, 3] = sep
        _format(x[:b].ravel(), block.reshape(b * n_cols, 4))
        yield block.tobytes().translate(None, b"\0")


def _checked(header: Sequence[str], columns) -> list:
    """`columns` as a list; ValueError unless there is one per name in
    `header` and all have the same length."""
    columns = list(columns)
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} header names but {len(columns)} "
                         f"columns")
    lengths = [len(col) for col in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns differ in length: {lengths}")
    return columns


class CsvFile:
    """A CSV file at `path` written a block of rows at a time: entering the
    context creates the parent directory and writes the header line, then
    each `write(columns)` appends its rows, laid out as write_csv lays them
    out.  Leaving the context on an exception removes the file, so `path`
    ends up holding a whole table or nothing."""

    def __init__(self, path, header: Sequence[str]):
        self.path, self.header = path, tuple(header)

    def __enter__(self):
        Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "wb")
        self._file.write((",".join(self.header) + "\n").encode())
        return self

    def write(self, columns) -> None:
        """Append the rows of `columns`; ValueError as write_csv raises it."""
        for chunk in _rows(_checked(self.header, columns)):
            self._file.write(chunk)

    def __exit__(self, kind, value, traceback):
        self._file.close()
        if kind is not None:
            os.remove(self.path)


def write_csv(path, header: Sequence[str], columns) -> None:
    """Write `columns` (equal-length sequences, one per name in `header`) as
    CSV rows to the file at `path`, through CsvFile.

    Every value is written as ``"%.17g" % float(v)`` writes it, so a float
    round-trips exactly and an integer count prints without a decimal point.
    Raises ValueError, before anything is written or any directory made,
    when the number of columns differs from the number of names or the
    columns differ in length.
    """
    columns = _checked(header, columns)
    with CsvFile(path, header) as table:
        table.write(columns)
