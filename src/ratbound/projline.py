"""Points of the projective line and the chordal metric.

A point (z:w) of P^1 is stored by a canonical representative: the pair is
scaled to unit Euclidean norm (|z|^2 + |w|^2 = 1) and rotated so that the
coordinate of largest modulus is positive real.  With both arguments
canonical, the chordal distance is simply |z1*w2 - z2*w1|, which takes
values in [0, 1] and is comparable to the spherical metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .config import DEFAULTS
from .errors import NumericalFailure


@dataclass(frozen=True)
class ProjPoint:
    """Canonical representative of a point of P^1.  Build via canonicalize()."""

    z: complex
    w: complex

    @property
    def is_infinity(self) -> bool:
        return abs(self.w) < DEFAULTS.pt

    def ratio(self) -> complex:
        """Affine coordinate z/w; returns complex('inf') at the point at infinity."""
        if self.w == 0:
            return complex(math.inf, 0.0)
        return self.z / self.w

    def as_array(self) -> np.ndarray:
        return np.array([self.z, self.w], dtype=complex)

    def to_json(self):
        return re_im(self.as_array()).tolist()

    def __repr__(self):
        if self.is_infinity:
            return "ProjPoint(inf)"
        r = self.ratio()
        return f"ProjPoint({r.real:.6g}{r.imag:+.6g}j)"


def canonicalize(z: complex, w: complex) -> ProjPoint:
    """Canonical representative of (z:w).  Scale-invariant up to round-off.

    A second pass is not a no-op: it moves the last bits of most points, so
    a point is canonicalized once, when it is made."""
    z, w = complex(z), complex(w)
    m = max(abs(z), abs(w))
    if m == 0.0:
        raise ValueError("not a projective point: (0, 0)")
    z, w = z / m, w / m
    n = math.sqrt(abs(z) ** 2 + abs(w) ** 2)
    z, w = z / n, w / n
    anchor = z if abs(z) >= abs(w) else w
    phase = anchor / abs(anchor)
    return ProjPoint(z / phase, w / phase)


INFINITY = canonicalize(1, 0)
ZERO = canonicalize(0, 1)


def re_im(values) -> np.ndarray:
    """The JSON layout of complex numbers: a contiguous complex array's float view
    with a trailing [re, im] axis; writing the view writes the array."""
    return values.view(float).reshape(*values.shape, 2)


def chordal_distance(p: ProjPoint, q: ProjPoint) -> float:
    """d(p, q) = |z_p w_q - z_q w_p| for canonical representatives."""
    return min(abs(p.z * q.w - q.z * p.w), 1.0)


# ---------------------------------------------------------------------------
# vectorized kernels used by the measure module


def _row_max(mods) -> np.ndarray:
    """The largest entry of each row of a float array of a few columns.

    np.maximum column by column: numpy reduces max(axis=1) one short row at
    a time, several times slower at these widths, to the same (exact) values.
    """
    return reduce(np.maximum, mods.T)


def canonicalize_rows(pairs) -> np.ndarray:
    """Canonicalize an (n, 2) array of representatives, rowwise.

    Every step is an elementwise ufunc on the two columns, so a row's bits
    depend on that row alone, never on its batch.  The norm is
    sqrt(s[:, 0] + s[:, 1]) with s = (conj(a) a).real, exactly what
    np.linalg.norm(a, axis=1) evaluates, without its row-by-row reduction.
    """
    a = np.array(pairs, dtype=complex)
    m = _row_max(np.abs(a))
    if (m == 0.0).any():
        raise ValueError("not a projective point: (0, 0)")
    # numpy divides a complex by a real m through 1/m, which overflows for a
    # subnormal m; scaling such rows by an exact power of two makes m normal.
    tiny = m < np.finfo(float).tiny
    if tiny.any():
        a[tiny] *= 2.0**64
        m[tiny] = _row_max(np.abs(a[tiny]))
    a /= m[:, None]
    s = (a.conj() * a).real
    a /= np.sqrt(s[:, 0] + s[:, 1])[:, None]
    anchor = np.where(np.abs(a[:, 0]) >= np.abs(a[:, 1]), a[:, 0], a[:, 1])
    a *= (np.abs(anchor) / anchor)[:, None]
    return a


# Pairs per row block of chordal_cross: a block's three complex temporaries
# (16 bytes a pair each, 1.5 MB in all) fit a 2 MB L2 cache.  Blocks of 2^13
# to 2^16 pairs timed alike on a 2-core Xeon.
_CROSS_BLOCK = 2**15


def chordal_cross(A, B) -> np.ndarray:
    """All chordal distances between canonical rows of A (n, 2) and B (m, 2).

    Rows of A are taken in blocks of about _CROSS_BLOCK pairs, so only the
    float (n, m) result is held at full size, bit for bit the one-shot formula.
    """
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    out = np.empty((len(A), len(B)))
    step = max(1, _CROSS_BLOCK // max(len(B), 1))
    bz, bw = B[None, :, 0], B[None, :, 1]
    for lo in range(0, len(A), step):
        a, d = A[lo:lo + step], out[lo:lo + step]
        np.abs(a[:, 0, None] * bw - a[:, 1, None] * bz, out=d)
        np.minimum(d, 1.0, out=d)
    return out


# A generic direction: the conjugate and rotationally symmetric point sets of
# the example families do not tie when projected on it.
_SWEEP_AXIS = np.array([1.0, math.sqrt(2.0), math.pi]) / math.sqrt(3.0 + math.pi**2)


def _merge_close(points, weights, eps):
    """Merge the unit-norm rows of points (n, 2) that lie within chordal eps.

    A group, a connected component of the relation d(p, q) <= eps, becomes
    one canonical row in place of its first member: the weighted mean of its
    members, phase-aligned to that first member, with the summed weight.
    Other rows come back unchanged; with no group, so do the inputs.  On the
    unit sphere chordal distance is half the Euclidean one, so only pairs
    whose projections on a sweep axis lie within 2 eps are compared.  More
    than max(64 n, 2^20) pairs within eps is a NumericalFailure, raised as the
    count passes it: rows that each lie close to many others form no
    meaningful groups, and their pair lists grow quadratically.

    A group's sum adds its members in index order from +0.0, one np.bincount
    per real and imaginary part of each column (np.add.at adds in the same
    order, but one row at a time).  Full-size temporaries are deleted once
    used, but each expression keeps its unnamed temporaries: numpy reuses a
    temporary of 256 KB or more in place, which can swap a complex product's
    operands, and its SIMD a*b and b*a may differ in the last bit.
    """
    if len(points) < 2:
        return points, weights
    z, w = points[:, 0], points[:, 1]
    zw = z * np.conj(w)
    proj = (2 * zw.real * _SWEEP_AXIS[0] + 2 * zw.imag * _SWEEP_AXIS[1]
            + (np.abs(z) ** 2 - np.abs(w) ** 2) * _SWEEP_AXIS[2])
    order = np.argsort(proj)
    swept = proj[order]
    # 1e-15 absorbs the rounding of the embedding at distance exactly eps
    span = np.searchsorted(swept, swept + (2 * eps + 1e-15), side="right")
    span -= np.arange(1, len(swept) + 1)
    if not span.any():  # no pair within 2 eps along the axis: the usual case for simple roots
        return points, weights
    del zw, proj, swept
    none = np.zeros(0, dtype=np.intp)
    near_a, near_b = [none], [none]
    active = np.nonzero(span > 0)[0]
    n = len(points)
    k, pairs, max_pairs = 1, 0, max(64 * n, 2**20)
    while len(active):
        a, b = order[active], order[active + k]
        close = np.abs(z[a] * w[b] - z[b] * w[a]) <= eps
        near_a.append(a[close])
        near_b.append(b[close])
        pairs += len(near_a[-1])
        if pairs > max_pairs:
            raise NumericalFailure(f"merge: more than {max_pairs} pairs of {n} points lie "
                                   f"within chordal {eps:g}; the clustering is ambiguous")
        k += 1
        active = active[span[active] >= k]
    a, b = np.concatenate(near_a), np.concatenate(near_b)
    del order, span, near_a, near_b
    if len(a) == 0:
        return points, weights

    # min-label propagation: every row ends labelled by the first row of its group
    label = np.arange(n)
    while True:
        low = np.minimum(label[a], label[b])
        np.minimum.at(label, a, low)
        np.minimum.at(label, b, low)
        label = label[label]
        if (label[a] == label[b]).all():
            break
    in_group = np.zeros(n, dtype=bool)
    in_group[a] = in_group[b] = True
    members = np.flatnonzero(in_group)
    del a, b, low, in_group
    first = label[members]
    heads = members[first == members]
    t = points[members] * np.conj(points[first])
    t = t[:, 0] + t[:, 1]
    aligned = (weights[members] * np.conj(t) / np.abs(t))[:, None] * points[members]
    slot = np.searchsorted(heads, first)
    del t, members, first
    # complex rows viewed as float rows: re z, im z, re w, im w
    parts = aligned.view(float)
    total = np.empty((len(heads), 4))
    for j in range(4):
        total[:, j] = np.bincount(slot, parts[:, j], len(heads))
    del aligned, parts, slot
    kept = np.flatnonzero(label == np.arange(n))
    out = points[kept]
    out[np.searchsorted(kept, heads)] = canonicalize_rows(total.view(complex))
    return out, np.bincount(label, weights=weights, minlength=n)[kept]
