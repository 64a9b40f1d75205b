"""Points of the compactified space of degree-d rational maps.

A BoundaryMap is a projective pair (P, Q) of degree-d homogeneous
polynomials.  Degenerate pairs factor as f = H*phi with H = gcd(P, Q); the
zeros of H are the holes of f, their multiplicities the depths.  A map is
on the indeterminacy locus I(d) when phi is constant and the constant
value is itself a hole; exactly there iteration fails to extend.

Away from I(d) the n-th iterate has the closed product form

    f^n = ( prod_{k=0}^{n-1} (phi^k* H)^(d^(n-k-1)) ) phi^n,

which is what iterate_formula assembles.  Hole depths of the iterates are
accumulated combinatorially from the forward orbit, never by expanding
degree-d^n polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice, repeat

import numpy as np

from .config import DEFAULTS
from .errors import IndeterminateMapError, NumericalFailure
from .hpoly import (
    HPoly,
    _json_count,
    compose_pair,
    numeric_gcd,
    projective_residual,
    resultant,
    substitute,
    vanishing_order,
)
from .projline import ProjPoint, canonicalize, chordal_distance


@dataclass(frozen=True, eq=False)
class BoundaryMap:
    """A point of Ratbar_d: the pair is normalized to max coefficient modulus 1."""

    d: int
    P: HPoly = field(repr=False)
    Q: HPoly = field(repr=False)

    def __post_init__(self):
        if self.P.degree != self.d or self.Q.degree != self.d:
            raise ValueError("P and Q must both have the declared degree")
        scale = max(self.P.max_modulus(), self.Q.max_modulus())
        if scale == 0.0:
            raise ValueError("the zero pair is not a point of Ratbar_d")
        object.__setattr__(self, "P", HPoly(self.d, self.P.coeffs / scale))
        object.__setattr__(self, "Q", HPoly(self.d, self.Q.coeffs / scale))

    def pair(self):
        return self.P, self.Q

    def to_json(self):
        return {"d": self.d, "P": self.P.to_json(), "Q": self.Q.to_json()}

    @staticmethod
    def from_json(data) -> "BoundaryMap":
        """The map of a to_json object; a ValueError names the first malformed field."""
        d = _json_count(data, "d")
        polys = []
        for key in ("P", "Q"):
            try:
                polys.append(HPoly.from_json(data.get(key)))
            except ValueError as exc:
                raise ValueError(f"{key}.{exc}") from None
        return BoundaryMap(d, *polys)

    def __repr__(self):
        return f"BoundaryMap(d={self.d}, P={self.P!r}, Q={self.Q!r})"


def map_residual(f: BoundaryMap, g: BoundaryMap) -> float:
    """Projective residual between two maps as points of P^(2d+1)."""
    a = np.concatenate([f.P.coeffs, f.Q.coeffs])
    b = np.concatenate([g.P.coeffs, g.Q.coeffs])
    return projective_residual(a, b)


def apply_pair(phi, pt: ProjPoint) -> ProjPoint:
    p, q = phi
    return canonicalize(p.evaluate(pt), q.evaluate(pt))


@dataclass
class Decomposition:
    """The factorization f = H * phi with hole bookkeeping.

    Scales are kept consistent: H * p ~ P and H * q ~ Q coefficientwise for
    the normalized pair of the decomposed map, so escape-rate formulas can
    use H and phi without re-deriving the lift's scale.
    """

    d: int
    H: HPoly
    phi: tuple
    holes: list  # [(ProjPoint, depth)], as roots sorts them
    e: int
    constant_value: ProjPoint | None
    indeterminate: bool
    cofactor_resultant: float | None
    gcd_residual: float

    @property
    def degenerate(self) -> bool:
        return self.e < self.d

    def report(self):
        rep = {
            "d": self.d,
            "e": self.e,
            "degenerate": self.degenerate,
            "indeterminate": self.indeterminate,
            "holes": [
                {"point": pt.to_json(), "depth": mult} for pt, mult in self.holes
            ],
            "gcd_residual": self.gcd_residual,
        }
        if self.constant_value is not None:
            rep["constant_value"] = self.constant_value.to_json()
        if self.cofactor_resultant is not None:
            rep["cofactor_resultant"] = self.cofactor_resultant
        return rep


def decompose(f: BoundaryMap, tol: float = DEFAULTS.gcd) -> Decomposition:
    """Factor f = H*phi, record holes with depths and the constant value if e = 0;
    the one I(d) test: e = 0 and |H(constant)| < DEFAULTS.indeterminacy."""
    H, p, q, holes = numeric_gcd(f.P, f.Q, tol)
    e = f.d - H.degree
    constant = None
    indeterminate = False
    cof_res = None
    if e == 0:
        constant = canonicalize(complex(p.coeffs[0]), complex(q.coeffs[0]))
        indeterminate = bool(
            abs(H.normalize().evaluate(constant)) < DEFAULTS.indeterminacy
        )
    else:
        cof_res = abs(resultant(p.normalize(), q.normalize()))
    recon = np.concatenate([(H * p).coeffs, (H * q).coeffs])
    given = np.concatenate([f.P.coeffs, f.Q.coeffs])
    residual = float(np.linalg.norm(recon - given) / np.linalg.norm(given))
    return Decomposition(f.d, H, (p, q), holes, e, constant, indeterminate, cof_res, residual)


def is_indeterminate(f: BoundaryMap) -> bool:
    """True iff f is on I(d): decompose's verdict at the default gcd tolerance."""
    return decompose(f).indeterminate


# ---------------------------------------------------------------------------
# iteration


def _phi_pair_normalize(pair):
    p, q = pair
    scale = max(p.max_modulus(), q.max_modulus())
    if scale == 0.0:
        raise NumericalFailure("composition vanished")
    return HPoly(p.degree, p.coeffs / scale), HPoly(q.degree, q.coeffs / scale)


def _iterate_parts(f: BoundaryMap, n: int, dec: Decomposition):
    """The pair (H_n, phi^n) of the product formula, f^n = H_n * phi^n, with
    each factor renormalized at every step.  H_n has degree d^n - e^n, and its
    vanishing orders are the hole depths of f^n."""
    d = f.d
    H = dec.H
    p, q = dec.phi
    prod = HPoly.constant(1.0)
    Phi = (HPoly.z(), HPoly.w())
    for k in range(n):
        prod = (prod * (substitute(H, *Phi) ** (d ** (n - k - 1)))).normalize()
        Phi = _phi_pair_normalize(compose_pair((p, q), Phi))
    return prod, Phi


def iterate_formula(f: BoundaryMap, n: int, tol: float = DEFAULTS.gcd,
                    dec: Decomposition | None = None) -> BoundaryMap:
    """The n-th iterate assembled from the product formula; errors on I(d)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if dec is None:
        dec = decompose(f, tol)
    if dec.indeterminate:
        raise IndeterminateMapError("iterate undefined on indeterminacy locus")
    if n == 1:
        return f
    prod, Phi = _iterate_parts(f, n, dec)
    Pn, Qn = prod * Phi[0], prod * Phi[1]
    if not (np.isfinite(Pn.coeffs).all() and np.isfinite(Qn.coeffs).all()):
        raise NumericalFailure(f"iterate n={n}: the degree-{f.d**n} product formula "
                               "overflowed to non-finite coefficients")
    if max(Pn.max_modulus(), Qn.max_modulus()) == 0.0:
        raise IndeterminateMapError("iterate undefined on indeterminacy locus")
    return BoundaryMap(f.d**n, Pn, Qn)


def iterate_direct(f: BoundaryMap, n: int) -> BoundaryMap:
    """Plain n-fold composition, renormalized each step.

    A cross-check oracle for nondegenerate maps only where d^n is at most
    about 100: beyond that its round-off grows past the product formula's,
    and where the two disagree it is the wrong one more often than not.  A
    degenerate map may collapse to the zero pair, which raises "composition
    vanished".
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    cur = f.pair()
    for _ in range(n - 1):
        cur = compose_pair(f.pair(), cur)
        if max(cur[0].max_modulus(), cur[1].max_modulus()) < 1e-12:
            raise NumericalFailure("composition vanished")
        cur = _phi_pair_normalize(cur)
    return BoundaryMap(f.d**n, cur[0], cur[1])


# ---------------------------------------------------------------------------
# hole-depth bookkeeping along orbits


def local_degree(phi, x: ProjPoint) -> int:
    """Local degree of phi at x: multiplicity of x as solution of phi = phi(x).

    Detected as the vanishing order at x of the fiber polynomial
    beta*p - alpha*q through (alpha:beta) = phi(x), capped at deg(phi).
    """
    if phi[0].degree == 0:
        raise ValueError("local degree undefined for constant phi")
    return _local_degree(phi, x, apply_pair(phi, x))


def _local_degree(phi, x: ProjPoint, img: ProjPoint) -> int:
    """local_degree of phi at x, given its image img = phi(x)."""
    p, q = phi
    return min(max(vanishing_order(img.w * p - img.z * q, x), 1), p.degree)


def _match_hole(x: ProjPoint, holes):
    """(depth, hole) for the one hole within chordal hole_match of x, or (0, x)
    off the hole set; two such holes raise NumericalFailure."""
    hits = [(pt, m) for pt, m in holes if chordal_distance(pt, x) <= DEFAULTS.hole_match]
    if len(hits) > 1:
        raise NumericalFailure("hole matching ambiguous, tighten tolerances")
    if hits:
        return hits[0][1], hits[0][0]
    return 0, x


def _orbit_steps(dec: Decomposition, z: ProjPoint):
    """Yield (x_k, depth_k, phi(x_k)) along the forward phi-orbit x_k of z:
    the orbit point, its depth as a hole of f (0 off the hole set) and its
    image.

    The one forward-orbit walker: the depth series, the exceptional-point
    test and the support report's orbit probe all read it.  Orbit points
    within chordal hole_match of a hole are snapped to the hole center
    before the orbit continues.  The walk is lazy and endless; phi(x_k),
    computed once, is the next point, and a reader that needs the local
    degree at x_k passes it to _local_degree, which the probe never pays for.
    """
    x = z
    while True:
        depth, x = _match_hole(x, dec.holes)
        img = apply_pair(dec.phi, x)
        yield x, depth, img
        x = img


def hole_depth_sequence(f: BoundaryMap, z: ProjPoint, N: int,
                        tol: float = DEFAULTS.gcd,
                        dec: Decomposition | None = None) -> list:
    """Exact rationals d_z(f^n)/d^n for n = 1..N; nondecreasing, limit mu_f({z}).

    Depths are read off the product formula combinatorially, so N is not
    limited by the d^n coefficient blow-up.
    """
    if dec is None:
        dec = decompose(f, tol)
    if dec.indeterminate:
        raise IndeterminateMapError("hole depths undefined on indeterminacy locus")
    return [partial for partial, _ in islice(_depth_series(dec, z), N)]


def _depth_series(dec: Decomposition, z: ProjPoint):
    """Yield (S_k, T_k) for k = 0, 1, ...: the partial sum
    S_k = sum_{j<=k} m_j depth_j / d^(j+1) = d_z(f^(k+1))/d^(k+1) of the
    forward-orbit series for mu_f({z}), and its tail bound
    T_k = m_(k+1)/d^(k+1), as exact rationals.

    For e = d there are no holes (all terms 0); for e = 0 the series is its
    first term, the depth of z as a hole over d.  Both have tail 0.
    """
    d, e = dec.d, dec.e
    if e == d:
        yield from repeat((Fraction(0), Fraction(0)))
    elif e == 0:
        yield from repeat((Fraction(_match_hole(z, dec.holes)[0], d), Fraction(0)))
    else:
        partial = Fraction(0)
        m = 1
        for k, (x, depth, img) in enumerate(_orbit_steps(dec, z)):
            if depth:
                partial += Fraction(m * depth, d ** (k + 1))
            m *= _local_degree(dec.phi, x, img)
            yield partial, Fraction(m, d ** (k + 1))
