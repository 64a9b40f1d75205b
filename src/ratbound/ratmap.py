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

import numpy as np

from .config import DEFAULTS
from .errors import IndeterminateMapError, NumericalFailure
from .hpoly import (
    HPoly,
    RootList,
    compose_pair,
    count_zeros_in_disk,
    numeric_gcd,
    projective_residual,
    pullback_poly,
    resultant,
    roots,
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

    def evaluate_pair(self, x):
        return self.P.evaluate(x), self.Q.evaluate(x)

    def apply(self, pt: ProjPoint) -> ProjPoint:
        """Image of a point; fails on (numerical) holes where the pair vanishes."""
        z, w = self.evaluate_pair(pt)
        if max(abs(z), abs(w)) < 1e-14:
            raise NumericalFailure(f"map vanishes at {pt}: point is (numerically) a hole")
        return canonicalize(z, w)

    def to_json(self):
        return {"d": self.d, "P": self.P.to_json(), "Q": self.Q.to_json()}

    @staticmethod
    def from_json(data) -> "BoundaryMap":
        return BoundaryMap(data["d"], HPoly.from_json(data["P"]), HPoly.from_json(data["Q"]))

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
    holes: RootList
    e: int
    constant_value: ProjPoint | None
    indeterminate: bool
    cofactor_resultant: float | None
    gcd_residual: float

    @property
    def degenerate(self) -> bool:
        return self.e < self.d

    def total_hole_depth(self) -> int:
        return self.holes.total_multiplicity()

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
    """Factor f = H*phi, record holes with depths and the constant value if e = 0."""
    H, p, q = numeric_gcd(f.P, f.Q, tol)
    e = f.d - H.degree
    holes = roots(H, tol) if H.degree >= 1 else RootList([])
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


def is_indeterminate(f: BoundaryMap, tol: float = DEFAULTS.indeterminacy,
                     gcd_tol: float = DEFAULTS.gcd) -> bool:
    """True iff phi is constant and |H(constant value)| < tol (H normalized)."""
    dec = decompose(f, gcd_tol)
    if dec.e != 0:
        return False
    return bool(abs(dec.H.normalize().evaluate(dec.constant_value)) < tol)


# ---------------------------------------------------------------------------
# iteration


def _phi_pair_normalize(pair):
    p, q = pair
    scale = max(p.max_modulus(), q.max_modulus())
    if scale == 0.0:
        raise NumericalFailure("composition vanished")
    return HPoly(p.degree, p.coeffs / scale), HPoly(q.degree, q.coeffs / scale)


def _iterate_parts(f: BoundaryMap, n: int, dec: Decomposition, renormalize: bool):
    """The pair (H_n, phi^n) of the product formula: f^n = H_n * phi^n."""
    d = f.d
    H = dec.H
    p, q = dec.phi
    prod = HPoly.constant(1.0)
    Phi = (HPoly.z(), HPoly.w())
    for k in range(n):
        prod = prod * (pullback_poly(Phi, H) ** (d ** (n - k - 1)))
        if renormalize:
            prod = prod.normalize()
        Phi = compose_pair((p, q), Phi)
        if renormalize:
            Phi = _phi_pair_normalize(Phi)
    return prod, Phi


def _iterate_product(f: BoundaryMap, n: int, dec: Decomposition, renormalize: bool):
    prod, Phi = _iterate_parts(f, n, dec, renormalize)
    Pn, Qn = prod * Phi[0], prod * Phi[1]
    if not (np.isfinite(Pn.coeffs).all() and np.isfinite(Qn.coeffs).all()):
        raise NumericalFailure(f"iterate n={n}: the degree-{f.d**n} product formula "
                               "overflowed to non-finite coefficients")
    if max(Pn.max_modulus(), Qn.max_modulus()) == 0.0:
        raise IndeterminateMapError("iterate undefined on indeterminacy locus")
    return Pn, Qn


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
    Pn, Qn = _iterate_product(f, n, dec, renormalize=True)
    return BoundaryMap(f.d**n, Pn, Qn)


def iterate_formula_raw(f: BoundaryMap, n: int, tol: float = DEFAULTS.gcd,
                        dec: Decomposition | None = None):
    """Unnormalized coefficient pair of f^n, for scale-sensitive checks.

    The coefficient map f -> f^n is homogeneous of degree (d^n - 1)/(d - 1),
    which only raw output can exhibit.
    """
    if dec is None:
        dec = decompose(f, tol)
    if dec.indeterminate:
        raise IndeterminateMapError("iterate undefined on indeterminacy locus")
    return _iterate_product(f, n, dec, renormalize=False)


def iterate_direct(f: BoundaryMap, n: int) -> BoundaryMap:
    """Plain n-fold composition, renormalized each step.

    Intended as a cross-check oracle for nondegenerate maps; a degenerate
    map may collapse to the zero pair, which raises "composition vanished".
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


def local_degree(phi, x: ProjPoint, rel_tol: float = DEFAULTS.ramification) -> int:
    """Local degree of phi at x: multiplicity of x as solution of phi = phi(x).

    Detected as the vanishing order at x of the fiber polynomial
    beta*p - alpha*q through (alpha:beta) = phi(x), capped at deg(phi).
    """
    p, q = phi
    e = p.degree
    if e == 0:
        raise ValueError("local degree undefined for constant phi")
    img = apply_pair(phi, x)
    fiber = img.w * p - img.z * q
    order = vanishing_order(fiber, x, rel_tol)
    return min(max(order, 1), e)


def _match_hole(x: ProjPoint, holes, tol: float):
    hits = [(pt, m) for pt, m in holes if chordal_distance(pt, x) <= tol]
    if len(hits) > 1:
        raise NumericalFailure("hole matching ambiguous, tighten tolerances")
    if hits:
        return hits[0][1], hits[0][0]
    return 0, x


def orbit_depth_terms(dec: Decomposition, z: ProjPoint, n_terms: int,
                      hole_tol: float = DEFAULTS.hole_match,
                      ram_tol: float = DEFAULTS.ramification):
    """[(m_k, depth_k)] for k < n_terms along the forward phi-orbit of z.

    m_k is the multiplicity of z as a solution of phi^k = phi^k(z) (the
    product of local degrees along the orbit) and depth_k the depth of
    phi^k(z) as a hole of f (0 off the hole set).  Orbit points matching a
    hole are snapped to the hole center before continuing.
    """
    if dec.e == 0:
        raise ValueError("orbit terms require deg(phi) >= 1")
    terms = []
    m = 1
    x = z
    for _ in range(n_terms):
        depth, x = _match_hole(x, dec.holes, hole_tol)
        terms.append((m, depth))
        m *= local_degree(dec.phi, x, ram_tol)
        x = apply_pair(dec.phi, x)
    return terms


def hole_depth_sequence(f: BoundaryMap, z: ProjPoint, N: int,
                        tol: float = DEFAULTS.gcd) -> list:
    """Exact rationals d_z(f^n)/d^n for n = 1..N; nondecreasing, limit mu_f({z}).

    Depths are read off the product formula combinatorially, so N is not
    limited by the d^n coefficient blow-up.
    """
    dec = decompose(f, tol)
    if dec.indeterminate:
        raise IndeterminateMapError("hole depths undefined on indeterminacy locus")
    d = f.d
    if dec.e == d:
        return [Fraction(0)] * N
    if dec.e == 0:
        depth = dec.holes.multiplicity_at(z)
        return [Fraction(depth, d)] * N
    terms = orbit_depth_terms(dec, z, N)
    seq = []
    acc = Fraction(0)
    for k, (m, depth) in enumerate(terms):
        acc += Fraction(m * depth, d ** (k + 1))
        seq.append(acc)
    return seq


def depth_at_point(H_n: HPoly, z: ProjPoint, radius: float = 1e-2) -> int:
    """Depth of z as a zero of an (expanded) gcd factor.

    Counted by the argument principle on a small contour, which stays
    reliable on degree-d^n products where coefficient thresholds fail.
    """
    return count_zeros_in_disk(H_n, z, radius)


def iterate_hole_factor(f: BoundaryMap, n: int, tol: float = DEFAULTS.gcd,
                        dec: Decomposition | None = None) -> HPoly:
    """The gcd factor H_n = prod_k (phi^k* H)^(d^(n-k-1)) of f^n, expanded.

    Degree d^n - e^n; its vanishing orders are the hole depths of f^n, so
    depth_at_point(iterate_hole_factor(f, n), z) cross-checks the
    combinatorial hole_depth_sequence when d^n is small.
    """
    if dec is None:
        dec = decompose(f, tol)
    if dec.indeterminate:
        raise IndeterminateMapError("iterate undefined on indeterminacy locus")
    prod, _ = _iterate_parts(f, n, dec, renormalize=True)
    return prod
