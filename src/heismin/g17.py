"""The text of '%.17g' % v for float64 columns, byte for byte, from exact
arithmetic over whole arrays.

A finite v whose 17-digit rounding has decimal exponent E is written from
D = |v| 10^k, k = 16 - E, rounded half-even, in [10^16, 10^17).  With
10^k = P_hi + P_lo and |v| = a_hi + a_lo, P_hi and a_hi of 26 bits, a_hi
P_hi is exact and an integer and the rest a_hi P_lo + a_lo 10^k is within
2^-20, so D = a_hi P_hi + rint(rest) where rest is over 2^-17 from a half
(Dekker's splitting, Numer. Math. 18, 1971).  The text of a value is four
64-bit words, first character in the lowest byte, 0 bytes dropped: the
sign, "0.000" and the first digit; 16 digits from two 8-digit groups, split
by multiplying by reciprocals in lanes (4 + 4, 2 + 2, 1 + 1), the point
inserted by moving the digits after it up a byte; the digit moved out,
"e-XX" and the separator.  Zero, subnormals, nan, infinities, values
outside [1e-11, 1e17), where the table of powers ends, and a rest near a
half take '%.17g' % v itself.

A Writer fills the same work arrays, 96 bytes a value, and text buffer for
every block, so that a block allocates no large temporary and faults no
page in.  Its columns broadcast, as a grid's (A, 1), (1, B) and (A, B) do:
each column's own values are formatted once and their words broadcast into
the text, ceil((29 + L) / 8) words a cell for separators of up to L bytes.
On 6,144-value blocks of a 3-column trajectory it takes 80-95 ns a value,
some 20 of them in bytes.translate (2-vCPU Xeon, Python 3.11, numpy 2.4).
"""
from __future__ import annotations

import numpy as np

_B = 0x0101010101010101   # 1 in every byte
_TOP26 = 2**64 - 2**27    # a float's top 26 significant bits
_HI = [p >> max(0, p.bit_length() - 26) << max(0, p.bit_length() - 26)
       for p in (10**k for k in range(28))]
_P_HI, _P_LO = np.array(_HI, float), np.array([10**k - h for k, h in enumerate(_HI)], float)
# (multiplier, shift, mask, 2^bits - divisor): the quotient q of each lane
# by divisor is (lane * multiplier) >> shift, and adding q (2^bits - divisor)
# splits the lane in two, q in the upper half: digits big-endian
_LANES = ((112589990685, 50, 2**14 - 1, 2**32 - 10**4),
          (10486, 20, 0x0000007F0000007F, 2**16 - 100),
          (103, 10, 0x000F000F000F000F, 2**8 - 10))


def _words_of(k):
    """The words that depend on k alone: "0.000" and "e-XX", each from the
    second byte, the two masks of the digit bytes before the point, and the
    point at its byte, if there is one."""
    E, pp = 16 - k, max(16 - k, 0)
    small = -5 < E < 0
    low, point = (1 << 8 * pp) - 1, (0x2E << 8 * pp) * (pp < 16 and not small)
    return [int.from_bytes(b"\0" + (b"0." + b"0" * (-E - 1)) * small, "little"),
            int.from_bytes(b"\0" + (b"e-%02d" % -E) * (E < -4), "little"),
            low % 2**64, low >> 64, point % 2**64, point >> 64]


_TABLE = np.array([_words_of(k) for k in range(28)], np.uint64).T


def _scaled(a, k, D, f, i):
    """ok: fills D with a 10^k rounded half-even, exact where ok, which also
    requires 17 digits before rounding and D < 10^17; f is (5, n) float and
    i (n,) int64 work."""
    ph, pl, ah, al, r = f
    _P_HI.take(k, out=ph, mode="clip")
    _P_LO.take(k, out=pl, mode="clip")
    np.bitwise_and(a.view(np.uint64), _TOP26, out=ah.view(np.uint64))
    np.subtract(a, ah, out=al)
    np.multiply(ah, ph, out=r)
    np.copyto(D, r, casting="unsafe")
    ph += pl
    pl *= ah
    al *= ph
    pl += al
    np.rint(pl, out=r)
    pl -= r
    np.copyto(i, r, casting="unsafe")
    D += i
    ok = np.abs(pl, out=al) < 0.5 - 2.0**-17
    # 17 digits before rounding: a D that only rounds up to 10^16 comes
    # from a value whose E is one too high
    ok &= (D - (pl < 0) >= 10**16) & (D < 10**17)
    return ok


class Writer:
    """rows(columns, seps) a block of at most `values` values at a time,
    reusing the work arrays allocated here and its text buffer."""

    def __init__(self, values):
        self.values, self.seps, self.buf = values, None, bytearray()
        self.f, self.k = np.empty((7, values)), np.empty(values, np.int64)
        self.w = np.empty((4, values), np.uint64)

    def rows(self, columns, seps) -> str:
        """rows(columns, seps) of at most `values` own values: each formatted
        once, its words broadcast into the text with its separator ORed in."""
        columns = [np.asarray(c, float) for c in columns]
        grid, C = np.broadcast(*columns), len(columns)
        if not (cells := C * grid.size):
            return ""
        if seps != self.seps:
            # the separator after each value: after a row's last, its end
            # and the next row's start, from byte 29 of the value's words
            tails = [s.encode() for s in [*seps[1:C], seps[C] + seps[0]]]
            tail = np.zeros((C, (max(map(len, tails)) + 36) // 8 * 8), np.uint8)
            for c, s in enumerate(tails):
                tail[c, 29:29 + len(s)] = np.frombuffer(s, np.uint8)
            self.seps, self.tail = list(seps), tail.view(np.uint64)
        K = self.tail.shape[1]
        if len(self.buf) < 8 * K * cells:
            self.buf = bytearray(8 * K * max(cells, self.values))
        ends = np.cumsum([0, *(c.size for c in columns)]).tolist()
        v, w = self.f[0, :ends[-1]], self.w[:, :ends[-1]]
        for c, col in enumerate(columns):
            np.copyto(v[ends[c]:ends[c + 1]].reshape(col.shape), col)
        with np.errstate(all="ignore"):
            ok = self._words(v, w)
        if (fallback := np.flatnonzero(~ok)).size:   # NUL-padded, as the words are
            texts = np.array(["%.17g" % x for x in v[fallback].tolist()], dtype="S24")
            w[:3, fallback] = texts.view(np.uint64).reshape(-1, 3).T
            w[3, fallback] = 0
        out = np.frombuffer(self.buf, np.uint64, cells * K).reshape(*grid.shape, C, K)
        for c, col in enumerate(columns):
            words = w[:, ends[c]:ends[c + 1]]
            words[3] |= self.tail[c, 3]
            out[..., c, :4] = np.moveaxis(words.reshape(4, *col.shape), 0, -1)
        out[..., 4:] = self.tail[:, 4:]
        text = self.buf if len(self.buf) == out.nbytes else self.buf[:out.nbytes]
        body = text.translate(None, b"\0").decode("ascii")
        return seps[0] + body[:len(body) - len(seps[0])]

    def _words(self, v, w):
        """ok, filling the words w of the values v where ok."""
        N = len(v)
        (a, *f), k, D = self.f[1:, :N], self.k[:N], w[3].view(np.int64)
        (L, S, T), d0, G = self.f[1:, :N].view(np.uint64).reshape(3, 2, N), w[0], w[1:3]
        np.abs(v, out=a)
        np.log10(a, out=f[0])
        np.floor(f[0], out=f[0])
        np.subtract(16, f[0], out=f[0])
        np.copyto(k, f[0], casting="unsafe")
        ok = _scaled(a, k, D, f, d0.view(np.int64))
        if (redo := np.flatnonzero(~ok)).size:
            # log10 was one off near a power of ten, D rounded up to 10^17, or
            # v is outside the table, which the second try leaves not ok
            k[redo] += np.where(D[redo] < 10**16, 1, -1)
            Dr = np.empty(redo.size, np.int64)
            ok[redo] = _scaled(a[redo], k[redo], Dr, np.empty((5, redo.size)), Dr.copy())
            D[redo] = Dr
        ok &= (k >= 0) & (k <= 27)
        # the first digit, and the other 16 as bytes of two words, big-endian
        D = D.view(np.uint64)
        np.floor_divide(D, 10**16, out=d0)
        np.multiply(d0, 10**16, out=T[0])
        np.subtract(D, T[0], out=T[1])
        np.floor_divide(T[1], 10**8, out=G[0])
        np.multiply(G[0], 10**8, out=T[0])
        np.subtract(T[1], T[0], out=G[1])
        for multiplier, shift, mask, spread in _LANES:
            np.multiply(G, multiplier, out=T)
            T >>= shift
            T &= mask
            T *= spread
            G += T
        # every digit up to the last nonzero one, whose byte's prefix sum in
        # the big-endian words is not 0, or the second word's sum for the
        # first word; then every digit before the point
        np.multiply(G, _B, out=S)
        np.right_shift(S[1], 56, out=T[0])
        T[0] *= _B
        S[0] |= T[0]
        S += 0x7F * _B
        S &= 0x80 * _B
        S >>= 7
        S *= 0x30
        G |= S
        G.byteswap(inplace=True)
        np.take(_TABLE[2:4], k, axis=1, out=L, mode="clip")
        np.bitwise_and(L, 0x30 * _B, out=S)
        G |= S
        # the characters after the point, S, move up a byte: G - S + 256 S
        np.bitwise_and(G, L, out=T)
        np.subtract(G, T, out=S)
        np.multiply(S, 255, out=T)
        G += T
        np.right_shift(S, 56, out=T)
        G[1] += T[0]
        np.take(_TABLE[1], k, out=T[0], mode="clip")
        np.bitwise_or(T[1], T[0], out=w[3])
        point = (S[0] | S[1]) != 0
        np.take(_TABLE[4:6], k, axis=1, out=S, mode="clip")
        S *= point
        G |= S
        d0 |= 0x30
        d0 <<= 56
        np.take(_TABLE[0], k, out=T[0], mode="clip")
        d0 |= T[0]
        np.right_shift(v.view(np.uint64), 63, out=T[0])
        T[0] *= 0x2D
        d0 |= T[0]
        return ok


def rows(columns, seps) -> str:
    """The text of the rows seps[0] v0 seps[1] v1 ... seps[C-1] v(C-1)
    seps[C] over the C float columns, each v written as '%.17g' % v; seps
    are ASCII.  The columns broadcast to one shape of one or two axes, in
    whose C order the rows run."""
    return Writer(sum(np.size(c) for c in columns)).rows(columns, seps)
