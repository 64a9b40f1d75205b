import math
import sys

import numpy as np
import pytest

from ratbound import _repr

# _repr.texts must be float.__repr__'s bytes on the families where shortest digits go
# wrong: every exponent's extreme significands, the neighbours of each power of
# ten (where the digit count and the notation change), the m/4 ties (two
# one-decimal candidates equally close, repr takes the even one) and the ends of
# the range, which the fallback (zero, subnormals, powers of two) shares
_FINITE_BITS = 0x7FF0_0000_0000_0000  # the bits of inf: every finite non-negative float is below


def _every_exponent(rng):
    fractions = np.stack([np.ones(2046, np.uint64), np.full(2046, 2**52 - 1, np.uint64),
                          rng.integers(1, 2**52, 2046, dtype=np.uint64)], axis=1)
    exponents = np.arange(1, 2047, dtype=np.uint64)[:, None] << np.uint64(52)
    return (exponents | fractions).ravel().view(np.float64)


def _next_to_powers_of_ten(rng):
    powers = np.array([float(f"1e{j}") for j in range(-323, 309)]).view(np.int64)
    bits = (powers[:, None] + np.arange(-3, 4)).ravel()  # the power and 3 ulps a side
    return bits[bits >= 0].view(np.float64)  # 1e-323 has only two floats below it


_FLOAT_FAMILIES = {
    "random_bits": lambda rng: rng.integers(0, _FINITE_BITS, 200_000, np.uint64).view(np.float64),
    "every_exponent": _every_exponent,
    "powers_of_ten": _next_to_powers_of_ten,
    "ties": lambda rng: (2.0 * rng.integers(2**50, 2**51, 10_000) + 1) / 4,  # odd m/4, m < 2^52
    "extremes": lambda rng: np.array([sys.float_info.min, sys.float_info.max, 5e-324,
                                      np.nextafter(sys.float_info.min, 1), 2**52 + 1.0]),
}


@pytest.mark.parametrize("family", _FLOAT_FAMILIES)
def test_texts_are_float_repr(family):
    values = _FLOAT_FAMILIES[family](np.random.default_rng(41))
    want = list(map(float.__repr__, values.tolist()))
    assert _repr.texts(values) == want
    # and the kernel's own texts, on the floats it takes: normal, not powers of two
    bits = values.view(np.uint64)
    exponent = bits >> np.uint64(52)
    kernel = (exponent > 0) & (exponent < 2047) & ((bits & np.uint64(2**52 - 1)) > 0)
    assert kernel.mean() > 0.5
    assert _repr.schubfach(bits[kernel]) == [t for t, k in zip(want, kernel.tolist()) if k]


def test_texts_switch_notation_where_repr_does():
    # fixed notation for 1e-4 <= x < 1e16, else d.ddde+XX with two exponent digits or more
    values = [np.nextafter(1e-4, 0), 1e-4, np.nextafter(1e-4, 1), np.nextafter(1e16, 0), 1e16,
              np.nextafter(1e16, math.inf), 0.1, 123456789.125, 1e22, 1.7976931348623157e308]
    assert _repr.texts(np.array(values)) == [
        "9.999999999999999e-05", "0.0001", "0.00010000000000000002", "9999999999999998.0",
        "1e+16", "1.0000000000000002e+16", "0.1", "123456789.125", "1e+22",
        "1.7976931348623157e+308"]


def test_texts_of_short_and_empty_arrays():
    # the kernel's blocks and layout steps hold fewer rows than they can
    values = np.array([0.5, 1 / 3, 2.0, 1e300])
    for n in range(len(values) + 1):
        assert _repr.texts(values[:n]) == list(map(float.__repr__, values[:n].tolist()))
