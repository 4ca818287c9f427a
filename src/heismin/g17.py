"""The text of '%.17g' % v for float64 columns, byte for byte, from
integer arithmetic over whole arrays.

A finite v = m 2^e (m its 53-bit significand) whose 17-digit rounding has
decimal exponent E is written from D = m 2^e 10^(16-E) rounded half-even,
an integer in [10^16, 10^17).  D is exact: 5^(16-E) fits one uint64 for
0 <= 16 - E <= 27, so m 5^(16-E) is held exactly in two uint64 words and D
is that product shifted by e + 16 - E bits, the fixed-precision method of
Adams, "Ryu revisited: printf floating point conversion" (OOPSLA 2019),
done with array operations.

The characters are built in slot rows: row j of a (SLOTS, n) uint8 array
holds character position j of every value, so that each operation runs
along a row of n values; a 0 byte is no character.  Zero, subnormals,
nan, infinities and values outside [1e-11, 1e17), where the power table
ends, take '%.17g' % v itself.
"""
from __future__ import annotations

import numpy as np

SLOTS = 28   # sign, "0.000", 17 digits and a point, "e-XX"

_POW5 = 5 ** np.arange(28, dtype=np.uint64)   # 5^27 < 2^63
_LOW32 = 0xFFFFFFFF
_POW10 = (10 ** np.arange(8, -1, -1, dtype=np.uint32))[:, None]   # 10^8 .. 10^0
_J17 = np.arange(17, dtype=np.int8)[:, None]
_J18 = np.arange(18, dtype=np.int8)[:, None]
_MINUS, _ZERO, _POINT, _E = (np.uint8(ord(c)) for c in "-0.e")


def _times_pow5(m, k):
    """(hi, lo): m 5^k = hi 2^64 + lo for m < 2^53 and 0 <= k <= 27, from
    32-bit halves, as 5^27 < 2^63 keeps every partial sum in 64 bits."""
    p = _POW5[k]
    m1, m0 = m >> 32, m & _LOW32
    p1, p0 = p >> 32, p & _LOW32
    low = m0 * p0
    mid = m0 * p1 + m1 * p0 + (low >> 32)
    return m1 * p1 + (mid >> 32), (mid << 32) | (low & _LOW32)


def _scaled(m, e, E):
    """(D, ok): D = m 2^e 10^(16-E) rounded half-even, exact where ok, which
    also requires 10^16 <= D < 10^17."""
    k = 16 - E
    in_table = (k >= 0) & (k <= 27)
    hi, lo = _times_pow5(m, np.where(in_table, k, 0))
    t = e + k   # D = m 5^k 2^t
    s = np.minimum(np.maximum(-t, 1), 63).astype(np.uint64)
    D = (hi << (64 - s)) | (lo >> s)
    # 17 digits before rounding: a D that only rounds up to 10^16 comes
    # from a value whose E is one too high
    ok = in_table & (t >= -63) & ((hi >> s) == 0) & (D >= 10**16)
    rest, half = lo & ((1 << s) - 1), 1 << (s - 1)
    D += (rest > half) | ((rest == half) & (D & 1).astype(bool))
    if (up := np.flatnonzero(t >= 0)).size:   # m 5^k 2^t is already an integer
        tu = t[up].astype(np.uint64)
        D[up] = lo[up] << tu
        ok[up] = (in_table[up] & (hi[up] == 0) & ((D[up] >> tu) == lo[up])
                  & (D[up] >= 10**16))
    return D, ok & (D < 10**17)


def _decimal(v):
    """(D, E, ok): v rounds to D 10^(E-16) with 17 significant digits
    where ok; elsewhere v is left to '%.17g' % v."""
    bits = v.view(np.uint64)
    exp2 = (bits >> 52).astype(np.int64) & 0x7FF
    normal = (exp2 > 0) & (exp2 < 0x7FF)
    m = (bits & (2**52 - 1)) | 2**52
    e = exp2 - 1075
    with np.errstate(divide="ignore", invalid="ignore"):
        E = np.where(normal, np.floor(np.log10(np.abs(v))), 0.0).astype(np.int64)
    D, ok = _scaled(m, e, E)
    if (redo := np.flatnonzero(normal & ~ok)).size:
        # log10 was one off near a power of ten, D rounded up to 10^17, or
        # v is outside the table, which the second try leaves not ok
        E[redo] += np.where(D[redo] < 10**16, -1, 1)
        D[redo], ok[redo] = _scaled(m[redo], e[redo], E[redo])
    return D, E, ok & normal


def _digits(D):
    """(17, n) uint8: the decimal digits of D < 10^17, first digit first."""
    top = D // 10**8
    q = np.empty((17, len(D)), np.uint8)   # D // 10^(16-j), mod 256
    q[:9] = top.astype(np.uint32) // _POW10
    q[9:] = (D - top * 10**8).astype(np.uint32) // _POW10[1:]
    d = q.copy()
    d[1:9] -= q[:8] * np.uint8(10)
    d[10:] -= q[9:16] * np.uint8(10)
    return d


def _slots(v):
    """(SLOTS, n) uint8: the characters of '%.17g' % v for each value of
    the float64 array v, in slot rows, 0 where a slot has none."""
    n = len(v)
    D, E, ok = _decimal(v)
    X = E.astype(np.int8)
    d = _digits(D)
    last = ((d != 0) * _J17).max(axis=0)   # the last nonzero digit
    fixed = X >= 0           # ddd.ddd, the point after digit X
    expo = X < -4            # d.ddde-XX
    small = ~(fixed | expo)  # 0.000ddd
    # the digits' slot that holds the point (18: none), and the last digit
    # written: %g strips trailing zeros only after the point
    point = np.where(fixed, X + 1, np.where(expo, 1, 18)).astype(np.int8)
    kept = np.maximum(last, point - 1 - np.int8(17) * small)
    padded = np.zeros((19, n), np.uint8)   # digit j's character at row j + 1
    padded[1:18] = (d + _ZERO) * (_J17 <= kept)
    out = np.empty((SLOTS, n), np.uint8)
    out[0] = (v < 0) * _MINUS
    out[1] = small * _ZERO
    out[2] = small * _POINT
    for i in range(3):   # -X - 1 zeros after "0."
        out[3 + i] = (small & (X < -1 - i)) * _ZERO
    digits = out[6:24]   # digit j before the point's slot, digit j - 1 after it
    np.multiply(padded[1:], _J18 < point, out=digits)
    digits += padded[:-1] * (_J18 > point)
    digits += (_J18 == point) * ((kept >= point) * _POINT)
    minus_x = (-X).astype(np.uint8)
    out[24] = expo * _E
    out[25] = expo * _MINUS
    out[26] = expo * (minus_x // 10 + _ZERO)
    out[27] = expo * (minus_x % 10 + _ZERO)
    if (fallback := np.flatnonzero(~ok)).size:   # NUL-padded, as the slots are
        texts = np.array(["%.17g" % x for x in v[fallback].tolist()], dtype=f"S{SLOTS}")
        out[:, fallback] = texts.view(np.uint8).reshape(fallback.size, SLOTS).T
    return out


def rows(columns, seps) -> str:
    """The text of the rows seps[0] v0 seps[1] v1 ... seps[C-1] v(C-1)
    seps[C] over the C equal-length columns of floats, each v written as
    '%.17g' % v; seps are ASCII.  The row of slots of each value is
    transposed into place behind its separator, and the 0 bytes dropped."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    C, n = len(cols), len(cols[0])
    lead = max(len(s) for s in seps[:C])
    end = seps[C].encode()
    text = np.zeros((n, C, lead + SLOTS + len(end)), np.uint8)
    for c, s in enumerate(seps[:C]):
        text[:, c, lead - len(s):lead] = np.frombuffer(s.encode(), np.uint8)
    text[:, C - 1, lead + SLOTS:] = np.frombuffer(end, np.uint8)
    text[:, :, lead:lead + SLOTS] = _slots(np.concatenate(cols)).reshape(SLOTS, C, n).T
    return text.tobytes().translate(None, b"\0").decode("ascii")
