"""Points of the projective line, the chordal metric, and Mobius maps.

A point (z:w) of P^1 is stored by a canonical representative: the pair is
scaled to unit Euclidean norm (|z|^2 + |w|^2 = 1) and rotated so that the
coordinate of largest modulus is positive real.  With both arguments
canonical, the chordal distance is simply |z1*w2 - z2*w1|, which takes
values in [0, 1] and is comparable to the spherical metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULTS


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

    def close_to(self, other: "ProjPoint", tol: float = DEFAULTS.pt) -> bool:
        return chordal_distance(self, other) <= tol

    def to_json(self):
        return [[self.z.real, self.z.imag], [self.w.real, self.w.imag]]

    @staticmethod
    def from_json(data) -> "ProjPoint":
        (zr, zi), (wr, wi) = data
        return canonicalize(complex(zr, zi), complex(wr, wi))

    def __repr__(self):
        if self.is_infinity:
            return "ProjPoint(inf)"
        r = self.ratio()
        return f"ProjPoint({r.real:.6g}{r.imag:+.6g}j)"


def canonicalize(z: complex, w: complex) -> ProjPoint:
    """Canonical representative of (z:w).  Scale-invariant and idempotent."""
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


def chordal_distance(p: ProjPoint, q: ProjPoint) -> float:
    """d(p, q) = |z_p w_q - z_q w_p| for canonical representatives."""
    return min(abs(p.z * q.w - q.z * p.w), 1.0)


@dataclass(frozen=True)
class Mobius:
    """An invertible 2x2 complex matrix acting on P^1."""

    a: complex
    b: complex
    c: complex
    d: complex

    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    def is_singular(self, tol: float = 1e-12) -> bool:
        scale = max(abs(self.a), abs(self.b), abs(self.c), abs(self.d)) ** 2
        return abs(self.det()) <= tol * scale if scale > 0 else True

    def inverse(self) -> "Mobius":
        if self.is_singular():
            raise ValueError("singular matrix has no inverse")
        return Mobius(self.d, -self.b, -self.c, self.a)

    def compose(self, other: "Mobius") -> "Mobius":
        return Mobius(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    @staticmethod
    def identity() -> "Mobius":
        return Mobius(1, 0, 0, 1)

    @staticmethod
    def translation(t: complex) -> "Mobius":
        return Mobius(1, t, 0, 1)

    @staticmethod
    def swap() -> "Mobius":
        """(z:w) -> (w:z), i.e. z -> 1/z."""
        return Mobius(0, 1, 1, 0)


def mobius_apply(M: Mobius, p: ProjPoint) -> ProjPoint:
    if M.is_singular():
        raise ValueError("singular matrix does not act on P^1")
    return canonicalize(M.a * p.z + M.b * p.w, M.c * p.z + M.d * p.w)


# ---------------------------------------------------------------------------
# vectorized kernels used by the measure module


def canonicalize_rows(pairs) -> np.ndarray:
    """Canonicalize an (n, 2) array of representatives, rowwise."""
    a = np.array(pairs, dtype=complex)
    mods = np.abs(a)
    m = mods.max(axis=1)
    if np.any(m == 0.0):
        raise ValueError("not a projective point: (0, 0)")
    a /= m[:, None]
    a /= np.linalg.norm(a, axis=1)[:, None]
    anchor = np.where(np.abs(a[:, 0]) >= np.abs(a[:, 1]), a[:, 0], a[:, 1])
    a *= (np.abs(anchor) / anchor)[:, None]
    return a


def chordal_cross(A, B) -> np.ndarray:
    """All chordal distances between canonical rows of A (n, 2) and B (m, 2)."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    d = np.abs(A[:, 0, None] * B[None, :, 1] - A[:, 1, None] * B[None, :, 0])
    return np.minimum(d, 1.0)


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
    whose projections on a sweep axis lie within 2 eps are compared.
    """
    z, w = points[:, 0], points[:, 1]
    zw = z * np.conj(w)
    proj = (2 * zw.real * _SWEEP_AXIS[0] + 2 * zw.imag * _SWEEP_AXIS[1]
            + (np.abs(z) ** 2 - np.abs(w) ** 2) * _SWEEP_AXIS[2])
    order = np.argsort(proj)
    swept = proj[order]
    # 1e-15 absorbs the rounding of the embedding at distance exactly eps
    span = np.searchsorted(swept, swept + (2 * eps + 1e-15), side="right")
    span -= np.arange(1, len(swept) + 1)
    none = np.zeros(0, dtype=np.intp)
    near_a, near_b = [none], [none]
    active = np.nonzero(span > 0)[0]
    k = 1
    while len(active):
        a, b = order[active], order[active + k]
        close = np.abs(z[a] * w[b] - z[b] * w[a]) <= eps
        near_a.append(a[close])
        near_b.append(b[close])
        k += 1
        active = active[span[active] >= k]
    a, b = np.concatenate(near_a), np.concatenate(near_b)
    if len(a) == 0:
        return points, weights

    # min-label propagation: every row ends labelled by the first row of its group
    n = len(points)
    label = np.arange(n)
    while True:
        low = np.minimum(label[a], label[b])
        np.minimum.at(label, a, low)
        np.minimum.at(label, b, low)
        label = label[label]
        if np.array_equal(label[a], label[b]):
            break
    in_group = np.zeros(n, dtype=bool)
    in_group[a] = in_group[b] = True
    members = np.flatnonzero(in_group)
    first = label[members]
    heads = members[first == members]
    t = np.sum(points[members] * np.conj(points[first]), axis=1)
    aligned = (weights[members] * np.conj(t) / np.abs(t))[:, None] * points[members]
    total = np.zeros((len(heads), 2), dtype=complex)
    np.add.at(total, np.searchsorted(heads, first), aligned)
    out = points.copy()
    out[heads] = canonicalize_rows(total)
    keep = label == np.arange(n)
    return out[keep], np.bincount(label, weights=weights, minlength=n)[keep]
