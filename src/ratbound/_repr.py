"""float.__repr__'s texts of float64 arrays, computed with numpy: cli's JSON encoder
imports this module for its large float arrays only, so no other run compiles it.

Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020) on uint64 arrays.
A normal v = c 2^q (c = 2^52 + fraction) rounds from (4c - 2, 4c + 2) 2^(q-2), closed
when c is even.  With k = floor(log10 2^q) and g = ceil(10^-k 2^r), 2^127 <= g < 2^128,
the 192-bit product of g and cb = 4c 2^h (h = q + 1 + floor(log2 10^-k), 1..4) reads
4 v 10^-k at bit 128, and cb g -+ g 2^(h+1) read the interval's ends.  Each is rounded to
odd: bits 128..191, ORed with a sticky bit when bits 64..127 read above 1.  g's excess,
below cb < 2^59 at bit 0, carries at most 1 into bit 64, and the paper shows that the
exact value's fraction is 0 or stays clear of 0 and 1 by more than that: bits 128..191
are the exact floor, bits 64..127 read 0 or 1 just when the exact value is an integer,
and the low 64 bits are dropped.  A value rounded to odd compares with every even
integer as the exact value does, and every comparison below is with one (4s, 4s + 2,
4s + 4, 40 sp, 40 sp + 40): the choice is exact.  It is the one multiple of 10 in the
interval (one digit shorter), else the one of s and s + 1 in it, else the closer, the
even one on a tie: float.__repr__'s shortest round-tripping, closest digits, laid out
as repr does, in fixed notation for 1e-4 <= v < 1e16, else as d.ddde+XX.  numpy uint64
arrays wrap silently; two uint64 scalars would warn, and uint64 with int64 would
promote to float64, so every uint64 operand is a uint64 array or an np.uint64.
"""

from __future__ import annotations

import numpy as np

_FRACTION = np.uint64(2**52 - 1)
_ONE_AND_A_HALF = np.uint64(0x3FF8_0000_0000_0000)  # a stand-in float.__repr__ overwrites
_LOW32, _32, _64 = np.uint64(2**32 - 1), np.uint64(32), np.uint64(64)
_BLOCK = 4096  # floats a block
_WIDTH = 24  # the longest repr of a double, 1.2345678901234567e-308, is 23 characters
_LAYOUT = 512  # rows per layout step
# a block row's source bytes: 17 digits at 3..19, then ".0e", the exponent's sign, its
# digits zero-padded to four at 24..27 and NULs, which pad every text to _WIDTH
_DOT, _ZERO, _E, _SIGN, _NUL = 20, 21, 22, 23, 28
_EXP_TAIL = np.frombuffer(b".0e+.0e-", "<u4")  # bytes 20..23 for a positive, a negative exponent


def texts(values):
    """float.__repr__ of each of a float64 array's non-negative values: schubfach's texts,
    and float.__repr__'s own for zero, subnormals, exact powers of two (whose rounding
    interval is lopsided), inf and NaN."""
    bits = values.view(np.uint64)
    exponent = bits >> np.uint64(52)
    other = (exponent == 0) | (exponent == 2047) | ((bits & _FRACTION) == 0)
    result = schubfach(np.where(other, _ONE_AND_A_HALF, bits))
    index = np.flatnonzero(other)
    for i, text in zip(index.tolist(), map(float.__repr__, values[index].tolist())):
        result[i] = text
    return result


def _mul64(a, b):
    """(high, low) 64-bit halves of a * b, for uint64 arrays a and b."""
    a0, a1 = a & _LOW32, a >> _32
    b0, b1 = b & _LOW32, b >> _32
    low = a0 * b0
    mid = a1 * b0 + (low >> _32)
    mid2 = a0 * b1 + (mid & _LOW32)
    return a1 * b1 + (mid >> _32) + (mid2 >> _32), (mid2 << _32) | (low & _LOW32)


def _powers():
    """Per biased exponent 0..2046 (row 0 unread), as uint64 arrays: g's two 64-bit halves,
    the three of g 2^(h+1) and the shift h + 2 that takes c to cb; then k, as an intp
    array.  g and floor(log2 10^-k) depend on k alone: one Python-int g per k."""
    q = np.arange(2047) - 1075
    k = (q * 1262611) >> 22  # floor(log10 2^q) for |q| <= 1500, nondecreasing
    low, high = k[0].item(), k[-1].item()
    tens = [1]
    for _ in range(max(-low, high)):
        tens.append(10 * tens[-1])
    halves, log2s = [], []
    for k_e in range(low, high + 1):
        power = tens[abs(k_e)]
        if k_e <= 0:  # 10^-k an integer: g = 10^-k 2^r, r = 127 - floor(log2 10^-k)
            log2 = power.bit_length() - 1
            g = power << (127 - log2) if log2 <= 127 else -(-power >> (log2 - 127))
        else:  # 10^-k = 1 / power, floor(log2 10^-k) = -power.bit_length()
            log2 = -power.bit_length()
            g = -(-(1 << (127 - log2)) // power)
        halves += [g >> 64, g & (2**64 - 1)]
        log2s.append(log2)
    g1, g0 = np.array(halves, np.uint64).reshape(-1, 2)[k - low].T.copy()
    h = q + np.array(log2s)[k - low] + 1
    up = (h + 1).astype(np.uint64)  # g 2^(h+1) = d2:d1:d0, h + 1 = 2..5
    down = _64 - up
    d0, d1, d2 = g0 << up, (g1 << up) | (g0 >> down), g1 >> down
    return g1, g0, d0, d1, d2, (h + 2).astype(np.uint64), k


def _layouts():
    """The 4-digit ASCII groups as '<u4' words, the trailing zeros of each, and the text of
    each (digit count n, notation) as source byte indices, row (n - 1) * 22 + code: codes
    0..19 fixed notation for exponents X = -4..15, 20 and 21 e+XX and e+XXX."""
    # group abcd at [a, b, c, d] of (10, 10, 10, 10) arrays; its trailing zeros are
    # [d = 0] (1 + [c = 0] (1 + [b = 0] (1 + [a = 0])))
    ascii4 = np.empty((10, 10, 10, 10, 4), np.uint8)
    zero = (np.arange(10) == 0).astype(np.intp)
    a, b, c, d = (zero.reshape((10,) + (1,) * i) for i in (3, 2, 1, 0))
    for i, axis in enumerate((a, b, c, d)):
        ascii4[..., i] = np.arange(ord("0"), ord("0") + 10).reshape(axis.shape)
    zeros4 = d * (1 + c * (1 + b * (1 + a)))
    digit = [3 + i for i in range(17)]
    rows = []
    for n in range(1, 18):
        for code in range(22):
            if code >= 20:  # d[.ddd]e+XX or e+XXX
                text = digit[:1] + ([_DOT] + digit[1:n] if n > 1 else []) + [_E, _SIGN]
                text += [25, 26, 27] if code == 21 else [26, 27]
            elif code >= 4:  # X = code - 4 >= 0: X + 1 integer digits, at least one after "."
                text = digit[:code - 3] + [_DOT] + digit[code - 3:max(n, code - 2)]
            else:  # 0.000ddd
                text = [_ZERO, _DOT] + [_ZERO] * (3 - code) + digit[:n]
            rows.append(text + [_NUL] * (_WIDTH - len(text)))
    return ascii4.view("<u4").ravel(), zeros4.ravel(), np.array(rows, np.intp)


# built at import, which only the first large array of a process pays: about 2 ms here
_POWERS, _LAYOUTS = _powers(), _layouts()


def _estimates(bits):
    """(vb, lower, upper): 4 v 10^-k for each float v of a uint64 array of bits, all
    normal, and the ends of its rounding interval, each rounded to odd; lower and upper
    are moved one in when the interval is open (c odd)."""
    g1, g0, d0, d1, d2, shift, _ = _POWERS
    e = bits.view(np.int64) >> 52
    cb = ((bits & _FRACTION) | np.uint64(2**52)) << shift[e]
    # p2:p1:p0 = cb g, 192 bits; each estimate is its bits 128..191 with the sticky bit
    x1, p0 = _mul64(cb, g0[e])
    p2, p1 = _mul64(cb, g1[e])
    p1 += x1
    p2 += p1 < x1
    e0, e1, e2 = d0[e], d1[e], d2[e]  # g 2^(h+1)
    t = p1 + e1
    s1 = t + ((p0 + e0) < e0)
    vbr = (p2 + e2 + (t < e1) + (s1 < t)) | (s1 > np.uint64(1))
    t = p1 - e1
    s1 = t - (p0 < e0)
    vbl = (p2 - e2 - (p1 < e1) - (t < s1)) | (s1 > np.uint64(1))
    odd = bits & np.uint64(1)
    return p2 | (p1 > np.uint64(1)), vbl + odd, vbr - odd


def _shortest(bits):
    """(digits, X) of each float of a uint64 array of bits, all normal, positive and not
    powers of two: float.__repr__'s digits as a 17-digit int64, trailing zeros padding
    the shorter ones, and the decimal exponent X of the first digit."""
    vb, lower, upper = _estimates(bits)
    s = vb >> np.uint64(2)
    sp = s // np.uint64(10)
    sp40 = sp * np.uint64(40)
    wp = sp40 + np.uint64(40) <= upper
    shorter = (lower <= sp40) != wp
    s4 = s << np.uint64(2)
    w = s4 + np.uint64(4) <= upper
    closer = vb + (s & np.uint64(1)) > s4 + np.uint64(2)  # s + 1, or as close and s odd
    # 15 to 17 digits, below 2^63, so int64 from here on, scaled to 17
    digits = np.where(shorter, sp + wp, s + np.where((lower <= s4) != w, w, closer))
    digits = digits.view(np.int64)
    missing = (digits < 10**16).astype(np.intp) + (digits < 10**15)
    digits *= np.array([1, 10, 100])[missing]
    k = _POWERS[-1][bits.view(np.int64) >> 52]
    return digits, k + shorter + (16 - missing)


def schubfach(bits):
    """float.__repr__ of each float of a uint64 array of bits, all normal, positive and
    not powers of two, _BLOCK at a time: _shortest's digits laid out as repr does."""
    digits4, zeros4, layouts = _LAYOUTS
    rows = min(len(bits), _BLOCK)
    source = np.zeros((rows, 8), "<u4")
    # the layout runs _LAYOUT rows at a time: a block's (rows, _WIDTH) index, 786 KB, costs
    # more in fresh pages than the extra calls do
    sub = min(rows, _LAYOUT)
    offsets = np.repeat(np.arange(0, 32 * sub, 32), _WIDTH).reshape(sub, _WIDTH)
    index = np.empty((sub, _WIDTH), np.intp)
    text = np.empty((sub, _WIDTH), np.uint8)
    chars = np.empty((sub, _WIDTH), np.uint32)
    result = []
    for start in range(0, len(bits), _BLOCK):
        digits, x = _shortest(bits[start:start + _BLOCK])
        n = len(digits)
        top, rest = np.divmod(digits, 10**16)
        high, low = np.divmod(rest, 10**8)
        groups = [top, *np.divmod(high, 10**4), *np.divmod(low, 10**4)]
        for column, group in enumerate(groups):
            source[:n, column] = digits4[group]
        zeros = zeros4[groups[4]]
        more = groups[4] == 0
        for group in groups[3:0:-1]:  # the top digit is nonzero
            zeros += more * zeros4[group]
            more &= group == 0
        source[:n, 5] = _EXP_TAIL[(x < 0).astype(np.intp)]
        source[:n, 6] = digits4[np.abs(x)]
        fixed = (x >= -4) & (x <= 15)
        layout = (16 - zeros) * 22 + np.where(fixed, x + 4, 20 + (np.abs(x) >= 100))
        for first in range(0, n, sub):
            m = min(sub, n - first)
            # mode="clip" writes to `out` unbuffered; every index is in range
            np.take(layouts, layout[first:first + m], axis=0, out=index[:m], mode="clip")
            index[:m] += offsets[:m]
            np.take(source[first:first + m].view(np.uint8).ravel(), index[:m], out=text[:m],
                    mode="clip")
            chars[:m] = text[:m]
            result += chars[:m].view(f"U{_WIDTH}").ravel().tolist()
    return result
