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

import math
import struct
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
    _relative_residual,
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
        for name, poly in (("P", self.P), ("Q", self.Q)):
            bad = np.flatnonzero(~np.isfinite(np.abs(poly.coeffs)))  # inf, NaN or past float64
            if len(bad):
                c = poly.coeffs[bad[0]]
                raise ValueError(f"{name}.coeffs[{bad[0]}] = {c} has no finite modulus")
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
    use H and phi without re-deriving the lift's scale.  The fit's diagnostics,
    the relative residual of H * phi against the decomposed map f and (for
    e > 0) |Res(p, q)| of the normalized phi, are computed only by report(f).
    """

    d: int
    H: HPoly
    phi: tuple
    holes: list  # [(ProjPoint, depth)], as roots sorts them
    e: int
    constant_value: ProjPoint | None
    indeterminate: bool
    # _orbit_steps' memo: each point's step and local degree, by its bits, for every walk
    _orbit: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def degenerate(self) -> bool:
        return self.e < self.d

    def off_locus(self, what: str) -> "Decomposition":
        """self off I(d); on it the one IndeterminateMapError, naming what is undefined."""
        if self.indeterminate:
            raise IndeterminateMapError(f"{what} undefined on indeterminacy locus")
        return self

    def report(self, f: BoundaryMap):
        recon = np.concatenate([(self.H * P).coeffs for P in self.phi])
        given = np.concatenate([f.P.coeffs, f.Q.coeffs])
        rep = {
            "d": self.d,
            "e": self.e,
            "degenerate": self.degenerate,
            "indeterminate": self.indeterminate,
            "holes": [{"point": pt.to_json(), "depth": mult} for pt, mult in self.holes],
            "gcd_residual": _relative_residual(given, recon),
        }
        if self.constant_value is not None:
            rep["constant_value"] = self.constant_value.to_json()
        else:
            rep["cofactor_resultant"] = abs(resultant(*(P.normalize() for P in self.phi)))
        return rep


def decompose(f: BoundaryMap, tol: float = DEFAULTS.gcd) -> Decomposition:
    """Factor f = H*phi, record holes with depths and the constant value if e = 0;
    the one I(d) test: e = 0 and |H(constant)| < DEFAULTS.indeterminacy."""
    H, p, q, holes = numeric_gcd(f.P, f.Q, tol)
    e = f.d - H.degree
    constant = None
    indeterminate = False
    if e == 0:
        constant = canonicalize(complex(p.coeffs[0]), complex(q.coeffs[0]))
        indeterminate = bool(
            abs(H.normalize().evaluate(constant)) < DEFAULTS.indeterminacy
        )
    return Decomposition(f.d, H, (p, q), holes, e, constant, indeterminate)


def is_indeterminate(f: BoundaryMap) -> bool:
    """True iff f is on I(d): decompose's verdict at the default gcd tolerance."""
    return decompose(f).indeterminate


# ---------------------------------------------------------------------------
# iteration


_OVERFLOW = ("iterate n={n}: the degree-{d}^{n} product formula overflowed to non-finite "
             "coefficients")
_UNDERFLOW = "iterate n={n}: the degree-{d}^{n} product formula underflowed to 0"


def _unit_scaled(n: int, d: int, *polys):
    """(polys divided by their largest coefficient modulus, as normalize does, and
    the log of that scale); the product formula's one check, a NumericalFailure
    on a non-finite coefficient or an all-zero result of the n-th iterate of a
    degree-d map."""
    if not all(np.isfinite(P.coeffs).all() for P in polys):
        raise NumericalFailure(_OVERFLOW.format(n=n, d=d))
    scale = max(P.max_modulus() for P in polys)
    if scale == 0.0:
        raise NumericalFailure(_UNDERFLOW.format(n=n, d=d))
    return [HPoly(P.degree, P.coeffs / scale) for P in polys], math.log(scale)


def _iterate_parts(f: BoundaryMap, n: int, dec: Decomposition):
    """The pair (H_n, phi^n) of the product formula, f^n = H_n * phi^n, each
    composition and partial product checked and renormalized by _unit_scaled,
    and the logs of the scales s_1..s_n divided out of phi's compositions:
    phi^k = phi o phi^(k-1) / s_k.  H_n has degree d^n - e^n, and its vanishing
    orders are the hole depths of f^n.  Level k < n substitutes phi^k (the
    identity at k = 0) into (H, p, q) once, for phi^k* H and phi^(k+1).  The
    factors (phi^k* H)^(d^(n-k-1)) are powered as they come, the largest
    (k = 0) last, each stopped at its first non-finite square; then
    multiplied from k = 0 on."""
    d = f.d

    def power(P, k):
        try:
            return P ** (d ** (n - k - 1))
        except NumericalFailure:  # a non-finite square, which the power would carry
            raise NumericalFailure(_OVERFLOW.format(n=n, d=d)) from None

    Phi, factors, log_scales = (HPoly.z(), HPoly.w()), [], []
    for k in range(n):
        factor, *Phi = substitute((dec.H, *dec.phi), *Phi)
        factors.append(power(factor, k) if k else factor)
        Phi, log_s = _unit_scaled(n, d, *Phi)
        log_scales.append(log_s)
    factors[0] = power(factors[0], 0)
    prod = HPoly.constant(1.0)
    for factor in factors:
        [prod], _ = _unit_scaled(n, d, prod * factor)
    return prod, Phi, log_scales


def _iterate(f: BoundaryMap, n: int, tol: float, dec: Decomposition | None):
    """(f^n, phi^n, the log scales of _iterate_parts), or (f, phi, [log 1]) at
    n = 1; iterate_formula's refusals and failures are raised here."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if dec is None:
        dec = decompose(f, tol)
    dec.off_locus("iterate")
    if n == 1:
        return f, dec.phi, [0.0]
    if n * math.log2(max(f.d, 1)) > 1024:  # d^n past 2^1024, without computing d^n
        raise NumericalFailure(f"iterate n={n}: the product formula's degree {f.d}^{n} is "
                               "past 2^1024")
    prod, Phi, log_scales = _iterate_parts(f, n, dec)
    return BoundaryMap(f.d**n, prod * Phi[0], prod * Phi[1]), Phi, log_scales


def iterate_formula(f: BoundaryMap, n: int, tol: float = DEFAULTS.gcd,
                    dec: Decomposition | None = None) -> BoundaryMap:
    """The n-th iterate assembled from the product formula; IndeterminateMapError
    only on decompose's I(d) verdict, NumericalFailure on overflow or underflow."""
    return _iterate(f, n, tol, dec)[0]


def iterate_abs_resultant(f: BoundaryMap, n: int, tol: float = DEFAULTS.gcd) -> float:
    """|Res(P, Q)| of the pair iterate_formula(f, n) returns, with its refusals,
    by the composition rule |Res(F o G)| = |Res F|^(deg G) |Res G|^((deg F)^2).

    In log space, with one 2d x 2d determinant: L_0 = 0 for the identity (z, w),
    L_k = d^(k-1) log|Res phi| + d^2 L_(k-1) - 2 d^k log s_k for the scaled
    compositions phi^k, plus 2 d^n log|c| for the constant c of f^n = c phi^n:
    |c| = 1 for n >= 2, where _iterate_parts scales it, and f's own at n = 1.
    0.0 when decompose's verdict is degenerate (H_n divides both components)
    and for a value below float64's range, |Res phi| itself included.
    """
    dec = decompose(f, tol)
    fn, Phi, log_scales = _iterate(f, n, tol, dec)
    if dec.degenerate:
        return 0.0
    d = f.d
    res = abs(resultant(*dec.phi))
    log_res = math.log(res) if res else -math.inf
    log_abs = 0.0
    for k, log_s in enumerate(log_scales, 1):
        log_abs = d ** (k - 1) * log_res + d * d * log_abs - 2 * d**k * log_s
    lift_scale = max(P.max_modulus() for P in fn.pair()) / max(P.max_modulus() for P in Phi)
    log_abs += 2 * d**n * math.log(lift_scale)
    return math.exp(log_abs)


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
        scale = max(cur[0].max_modulus(), cur[1].max_modulus())
        if scale < 1e-12:
            raise NumericalFailure("composition vanished")
        cur = [HPoly(P.degree, P.coeffs / scale) for P in cur]
    return BoundaryMap(f.d**n, cur[0], cur[1])


# ---------------------------------------------------------------------------
# hole-depth bookkeeping along orbits


def local_degree(phi, x: ProjPoint) -> int:
    """Local degree of phi at x: multiplicity of x as solution of phi = phi(x).

    Detected as the vanishing order at x of the fiber polynomial over
    phi(x) (_fiber), capped at deg(phi).
    """
    if phi[0].degree == 0:
        raise ValueError("local degree undefined for constant phi")
    return _local_degree(phi, x, apply_pair(phi, x))


def _local_degree(phi, x: ProjPoint, img: ProjPoint) -> int:
    """local_degree of phi at x, given its image img = phi(x)."""
    return min(max(vanishing_order(_fiber(phi, img), x), 1), phi[0].degree)


def _fiber(phi, a: ProjPoint) -> HPoly:
    """beta*p - alpha*q for a = (alpha:beta): its zeros are the phi-preimages of a."""
    p, q = phi
    return a.w * p - a.z * q


def _match_hole(x: ProjPoint, holes):
    """(depth, hole) for the one hole within chordal hole_match of x, or (0, x)
    off the hole set; two such holes raise NumericalFailure."""
    hits = [(pt, m) for pt, m in holes if chordal_distance(pt, x) <= DEFAULTS.hole_match]
    if len(hits) > 1:
        raise NumericalFailure("hole matching ambiguous, tighten tolerances")
    if hits:
        return hits[0][1], hits[0][0]
    return 0, x


def _bits(pt: ProjPoint) -> bytes:
    """The exact bits of pt: a key that tells -0.0 from 0.0, as == does not."""
    return struct.pack("4d", pt.z.real, pt.z.imag, pt.w.real, pt.w.imag)


def _orbit_steps(dec: Decomposition, z: ProjPoint, degrees: bool = False):
    """Yield (x_k, depth_k, phi(x_k)) along the forward phi-orbit x_k of z:
    the orbit point, its depth as a hole of f (0 off the hole set) and its
    image; with degrees, the local degree of phi at x_k follows them.

    The one forward-orbit walker: the depth series, the exceptional-point
    test and the support report's orbit probe all read it.  Orbit points
    within chordal hole_match of a hole are snapped to the hole center
    before the orbit continues.  The walk is lazy and endless; phi(x_k),
    computed once, is the next point, and the local degree is read from it
    (_local_degree) only for a walk that asks, which the probe never does.
    Each distinct point (by its bits) is matched, stepped and given its local
    degree once per decomposition, in dec's memo, which every walk reads.
    """
    x = z
    while True:
        key = _bits(x)
        step = dec._orbit.get(key)
        if step is None:
            depth, x = _match_hole(x, dec.holes)
            step = dec._orbit[key] = [x, depth, apply_pair(dec.phi, x), None]
        if degrees and step[3] is None:
            step[3] = _local_degree(dec.phi, step[0], step[2])
        yield tuple(step) if degrees else tuple(step[:3])
        x = step[2]


def hole_depth_sequence(f: BoundaryMap, z: ProjPoint, N: int,
                        tol: float = DEFAULTS.gcd,
                        dec: Decomposition | None = None) -> list:
    """Exact rationals d_z(f^n)/d^n for n = 1..N; nondecreasing, limit mu_f({z}).

    Depths are read off the product formula combinatorially, so N is not
    limited by the d^n coefficient blow-up.
    """
    if dec is None:
        dec = decompose(f, tol)
    dec.off_locus("hole depths")
    return [partial for partial, _ in islice(_depth_series(dec, z), N)]


def _depth_series(dec: Decomposition, z: ProjPoint):
    """Yield (S_k, T_k) for k = 0, 1, ...: the partial sum
    S_k = sum_{j<=k} m_j depth_j / d^(j+1) = d_z(f^(k+1))/d^(k+1) of the
    forward-orbit series for mu_f({z}), and its tail bound
    T_k = m_(k+1)/d^(k+1), as exact rationals.

    For e = d there are no holes (all terms 0); for e = 0 the series is its
    first term, the depth of z as a hole over d.  Both have tail 0.  The
    local degree m_(k+1)/m_k comes from _orbit_steps.
    """
    d, e = dec.d, dec.e
    if e == d:
        yield from repeat((Fraction(0), Fraction(0)))
    elif e == 0:
        yield from repeat((Fraction(_match_hole(z, dec.holes)[0], d), Fraction(0)))
    else:
        partial = Fraction(0)
        m = 1
        for k, (_, depth, _, degree) in enumerate(_orbit_steps(dec, z, degrees=True)):
            if depth:
                partial += Fraction(m * depth, d ** (k + 1))
            m *= degree
            yield partial, Fraction(m, d ** (k + 1))
