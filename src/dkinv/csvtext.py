"""Byte-exact ``"%.17g" % v`` text for blocks of doubles, in numpy.

The CSV tables print every float as ``%.17g``: the 17-significant-digit
decimal D * 10^(k-16) nearest to v, with 10^16 <= D < 10^17, laid out in
fixed notation when -4 <= k < 17 and as ``d.ddde+XX`` otherwise, trailing
zeros (and a point with nothing after it) dropped.  :func:`format_cells`
computes this for a whole block at once:

1. k = floor(log10 |v|), and |v| * 10^(16-k) as an unevaluated sum p + t:
   Veltkamp's split and Dekker's exact two-product of |v| with hi(10^q),
   plus |v| * lo(10^q), where hi + lo is 10^q as a double-double
   (Dekker, "A floating-point technique for extending the available
   precision", Numer. Math. 18, 1971).  hi and lo come from correctly
   rounded int/int divisions, once per q.
2. If p + t < 10^16, log10 overshot: k goes down one and p + t is taken
   again.  If the rounded D reaches 10^17 (log10 undershot, or the
   rounding carried into a new decade), k goes up one and D is taken
   again.  An exact power of ten whose scaled value lands a rounding error
   below 10^16 takes both steps and comes back to D = 10^16.
3. p >= 2^53 is an integer, so D = p + rint(t) in int64.  Its digits come
   from one int64 divmod by 10^8, int32 divmods by 10^4 and a table of
   the 4-byte texts of 0..9999.
4. Each piece of the text sits in fixed words of a row, with NULs for
   what is not shown: the head (separator, the sign from ``signbit``, so
   that -0.0 prints as -0, the "0." to "0.000" prefix below 1, and the
   first digit), the four digit groups masked to the digits before the
   point, the point, the same groups masked to the digits after it up to
   the last nonzero one, and the exponent.  Deleting the NULs leaves the
   text.  A block leaves out the words that none of its values needs.
5. A cell the vector path cannot decide takes ``"%.17g" % v`` itself:
   |v| outside [1e-280, 1e280] (so that every product and split stays
   normal and finite; zero is exact and stays), a non-finite v, or a
   scaled value whose fraction is within 1e-9 of one half.

Why 1e-9 is safe.  hi and lo are each within 2^-53 of their own size, so
hi + lo is 10^q to within 2^-106 relative (|lo| <= 2^-53 hi).  The
two-product is exact, and |v| * lo and the sum into t each add at most
2^-53 |t|, with |t| <= 2^-52 p.  The computed p + t is therefore
|v| * 10^q to about 2^-104 relative: below 1e-13 in absolute terms for a
scaled value below 10^18.  A fraction farther than 1e-9 from one half
rounds as the exact value does, and exact ties (such as 2^-25, whose 18th
significant digit is a final 5) go to ``%``, which rounds them half to
even.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

__all__ = ["format_cells", "format_lines", "write_table"]

_SPLIT = 134217729.0          # 2^27 + 1, Veltkamp's splitter
_LOW, _HIGH = 1e-280, 1e280   # the magnitudes the vector path decides
_TIE_MARGIN = 1e-9
_DECADE = 10 ** 16
_TOP = 300                    # the tables' |k|; the vector path's is <= 281
_BATCH_CELLS = 1 << 14        # floats per format_lines call of write_table


def _words(rows: np.ndarray, dtype) -> np.ndarray:
    """The rows of a uint8 matrix as one word of ``dtype`` each."""
    return np.ascontiguousarray(rows, np.uint8).view(dtype).reshape(len(rows))


def _digit_tables():
    """The words of "0000" .. "9999"; per group j of digits 4j+1 .. 4j+4
    of the 17, the count of digits up to the last nonzero one of the group
    (0 for a zero group); and per group, the bytes of the digits with index
    in [lead, shown), at lead * 18 + shown."""
    digit = np.arange(10, dtype=np.uint8)
    texts = np.empty((10, 10, 10, 10, 4), np.uint8)
    last = np.zeros((10, 10, 10, 10), np.uint8)
    for pos in range(4):
        place = digit.reshape((10,) + (1,) * (3 - pos))
        texts[..., pos] = place + ord("0")
        last[np.broadcast_to(place > 0, last.shape)] = pos + 1
    last = last.reshape(-1)
    shown = (last + np.arange(1, 14, 4, dtype=np.uint8)[:, None]) * (last > 0)
    index = 4 * np.arange(4)[:, None] + 1 + np.arange(4)
    count = np.arange(18)
    between = ((count[:, None, None, None] <= index)
               & (index < count[:, None, None])) * 255
    return (_words(texts.reshape(-1, 4), np.uint32), shown,
            _words(between.transpose(2, 0, 1, 3).reshape(-1, 4),
                   np.uint32).reshape(4, -1))


def _exponent_tables():
    """Per exponent k = row - _TOP: the head without its first digit
    (rows 2 row and 2 row + 1, for + and -; the separator comes first),
    the exponent word, and the count of digits before the point: 0 below
    1, k + 1 in fixed notation, 1 in exponential notation."""
    ks = np.arange(-_TOP, _TOP + 1)
    exponential = (ks < -4) | (ks >= 17)
    lead = np.where(exponential, 1, np.maximum(ks + 1, 0)).astype(np.uint8)
    heads = np.zeros((len(ks), 2, 8), np.uint8)
    heads[:, :, 0] = ord(",")
    heads[:, 1, 1] = ord("-")
    for k in range(-4, 0):
        heads[k + _TOP, :, 2:3 - k] = np.frombuffer(b"0." + b"0" * (-1 - k),
                                                    np.uint8)
    size = np.abs(ks)
    tails = exponential[:, None] * np.stack([
        np.full_like(ks, ord("e")), np.where(ks < 0, ord("-"), ord("+")),
        np.where(size >= 100, size // 100 + ord("0"), 0),  # two digits at least
        size // 10 % 10 + ord("0"), size % 10 + ord("0"),
        0 * ks, 0 * ks, 0 * ks], axis=1)
    return (_words(heads.reshape(-1, 8), np.uint64), _words(tails, np.uint64),
            lead)


_GROUPS, _SHOWN, _BETWEEN = _digit_tables()
_HEADS, _TAILS, _LEAD = _exponent_tables()
# The first digit, in the last byte of the head, and the point.
_FIRST = _words(np.c_[np.zeros((10, 7)), np.arange(10) + ord("0")],
                np.uint64)
_POINT = _words(np.array([[ord("."), 0, 0, 0]]), np.uint32)[0]


@lru_cache(maxsize=None)
def _pow10(q: int) -> tuple:
    """10^q as a double-double (hi, lo): hi the double nearest 10^q, lo
    the double nearest 10^q - hi.  Both come from correctly rounded
    int/int divisions."""
    num, den = (10 ** q, 1) if q >= 0 else (1, 10 ** -q)
    hi = num / den
    hnum, hden = hi.as_integer_ratio()
    return hi, (num * hden - hnum * den) / (den * hden)


def _split(a: np.ndarray) -> tuple:
    c = a * _SPLIT
    high = c - (c - a)
    return high, a - high


def _scaled(a: np.ndarray, q: np.ndarray) -> tuple:
    """a * 10^q as p + t, p = fl(a * hi(10^q)) and |t| <= ulp(p)."""
    first = int(q.min())
    his, los = np.array([_pow10(j) for j in range(first, int(q.max()) + 1)]).T
    hi, lo = his[q - first], los[q - first]
    p = a * hi
    ah, al = _split(a)
    bh, bl = _split(hi)
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl  # a * hi - p, exactly
    return p, err + a * lo


def _decimal(v: np.ndarray) -> tuple:
    """(D, k, undecided) for a 1-d float array v: |v| = D * 10^(k-16)
    rounded to 17 digits, D = k = 0 for zeros, and the indices of the
    values that the vector path leaves to ``%`` (their D and k are
    meaningless)."""
    a = np.abs(v)
    vector = (a >= _LOW) & (a <= _HIGH)
    zero = a == 0.0
    a[~vector] = 1.0
    k = np.floor(np.log10(a)).astype(np.intp)
    p, t = _scaled(a, 16 - k)
    # log10 overshot: the scaled value is below 10^16.
    low = (p < _DECADE) | ((p == _DECADE) & (t < 0.0))
    if low.any():
        k[low] -= 1
        p[low], t[low] = _scaled(a[low], 16 - k[low])
    for _ in range(2):
        # log10 undershot, or the rounding carried into the next decade.
        step = np.rint(t)
        digits = p.astype(np.int64) + step.astype(np.int64)
        high = digits >= 10 * _DECADE
        if not high.any():
            break
        k[high] += 1
        p[high], t[high] = _scaled(a[high], 16 - k[high])
    decided = (0.5 - np.abs(t - step) > _TIE_MARGIN) & vector \
        & (digits >= _DECADE) & (digits < 10 * _DECADE)
    digits[zero] = 0
    k[zero] = 0
    return digits, k, np.flatnonzero(~(decided | zero))


def format_cells(values) -> np.ndarray:
    """``"," + "%.17g" % v`` for every v in ``values``, one uint8 row each.

    Row i (in C order) holds the CSV cell of the i-th value, separator
    first, with NULs between and after its characters: deleting every NUL
    gives the text exactly.  The row width depends on the values.
    """
    v = np.asarray(values, dtype=float).reshape(-1)
    if not v.size:
        return np.zeros((0, 1), np.uint8)
    digits, k, fallback = _decimal(v)
    upper = digits // 100000000
    lower = (digits - upper * 100000000).astype(np.int32)
    upper = upper.astype(np.int32)
    first = upper // 100000000
    upper -= first * 100000000
    groups = []
    for part in (upper, lower):
        high = part // 10000
        groups += [high, part - high * 10000]
    # Digits up to the last nonzero one, the first digit at least; most
    # values end in a nonzero digit, so the last group alone decides them.
    shown = _SHOWN[3][groups[3]]
    rest = np.flatnonzero(shown == 0)
    if len(rest):
        shown[rest] = np.maximum.reduce(
            [_SHOWN[j][groups[j][rest]] for j in range(3)] + [np.ones_like(
                shown[rest])])
    row = k + _TOP
    lead = _LEAD[row]
    # The words some value needs: groups with a digit before the point,
    # groups with a digit after it (all four when some cell needs the room
    # of a "%.17g" text, 24 bytes and the separator), and the exponent.
    before = sum(int(lead.max()) > 4 * j + 1 for j in range(4))
    after = 4 if len(fallback) else sum(int(shown.max()) > 4 * j + 1
                                        for j in range(4))
    tail = k.min() < -4 or k.max() >= 17

    out = np.empty((len(v), 3 + before + after + 2 * tail), np.uint32)
    head = out[:, :2].view(np.uint64)[:, 0]
    np.bitwise_or(_HEADS[2 * row + np.signbit(v)], _FIRST[first], out=head)
    span = lead.astype(np.intp) * 18 + shown
    for j in range(max(before, after)):
        text = _GROUPS[groups[j]]
        if j < before:
            np.bitwise_and(text, _BETWEEN[j][lead], out=out[:, 2 + j])
        if j < after:
            np.bitwise_and(text, _BETWEEN[j][span], out=out[:, 3 + before + j])
    np.multiply((shown > lead) & (lead > 0), _POINT, out=out[:, 2 + before])
    if tail:
        out[:, -2:] = _TAILS[row].view(np.uint32).reshape(-1, 2)
    out = out.view(np.uint8)
    for i in fallback.tolist():
        cell = b",%.17g" % v[i]
        out[i] = 0
        out[i, :len(cell)] = np.frombuffer(cell, np.uint8)
    return out


def _padded(texts: Sequence[str]) -> np.ndarray:
    """ASCII texts as the rows of a NUL-padded uint8 matrix."""
    return np.array([s.encode() for s in texts], dtype=bytes).view(
        np.uint8).reshape(len(texts), -1)


def format_lines(leads: Sequence[str], heads: Sequence[str],
                 cells: np.ndarray) -> bytearray:
    """CSV lines ``lead + head + ("," + cell) * m + "\\n"``, lead-major.

    Every lead takes every head in turn; ``cells`` has one row of m floats
    per line, len(leads) * len(heads) rows in all.  The lines are built as
    one NUL-padded byte matrix, and the NULs are deleted from its bytes.
    """
    lead, head = _padded(leads), _padded(heads)
    text = format_cells(cells)
    count, size = len(lead), len(head)
    lw, hw, cw = lead.shape[1], head.shape[1], text.shape[1] * cells.shape[1]
    data = bytearray(count * size * (lw + hw + cw + 1))
    buf = np.frombuffer(data, np.uint8).reshape(count, size, -1)
    buf[:, :, :lw] = lead[:, None]
    buf[:, :, lw:lw + hw] = head
    buf[:, :, lw + hw:-1] = text.reshape(count, size, cw)
    buf[:, :, -1] = ord("\n")
    return data.translate(None, b"\0")


def write_table(path: str, header: Sequence[str], leads: Sequence[str],
                heads: Sequence[str], cells: np.ndarray) -> None:
    """Write the CSV file ``path``: the ``header`` line, then one line per
    row of the 2-d float array ``cells``, line k = a * len(heads) + b being
    ``leads[a] + heads[b]`` and row k in %.17g (:func:`format_lines`).

    Whole leads of about _BATCH_CELLS cells are formatted at a time, so
    only one batch is ever text; the bytes do not depend on the batch.
    """
    size = len(heads)
    step = -(-_BATCH_CELLS // (size * cells.shape[1]))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, len(leads), step):
            fh.write(format_lines(leads[start:start + step], heads,
                                  cells[start * size:(start + step) * size]))
