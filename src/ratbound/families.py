"""Parametric families of boundary maps used in the convergence experiments.

Each constructor builds the displayed pair by exact coefficient arithmetic:

  example1        g_{a,t} = (a t z^d + w P : t z^d),      t -> 0 limit (wP : 0)
  example2        g_{a,t} = (a t^k z^d + w^k P : t z^(d-k+1) w^(k-1))
  epstein_FT      F_T = (zw(z^2 + T zw + w^2) : z^2 w^2)  in Ratbar_4
  cubic_eps       lift of p_eps(z) = eps z^3 + z^2,       eps -> 0 limit (z^2 w : w^3)
  polylimit       p_k = (P : w^d / k),                    k -> oo limit (P : 0)
  inversion       (k w : z) at d = 1,                     f^2 = (k z : k w) for every k

FamilySpec builds one by name from its _FAMILIES entry: its --param keys in the README's
order, each with its (reader, default); its map maker; and its converge target, a limit map
whose mu a sweep tends to or that measure itself (None: no converge).  Both take get, which
gives a key's value or default and names a missing REQUIRED key; the makers check the ranges,
and every builder of an example family takes P from the family's one rule (_example1_P,
_example2_P).

The t -> 0 limits of the second iterates of the example families are also
provided in closed form, since they are the targets of the measure
convergence runs.  Default P for tests is prod_i (z - i*w), i = 1..deg,
monic with no root at 0 or infinity, so every quoted mass is reproducible.
"""

from __future__ import annotations

import cmath
import functools
import numbers
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .hpoly import HPoly
from .measure import AtomicMeasure, boundary_measure
from .ratmap import BoundaryMap, decompose


def _p_from_roots(root_list):
    """prod (z - r w) over root_list, the constant 1 if it is empty; None for None."""
    if root_list is None:
        return None
    P = HPoly.constant(1.0)
    for r in root_list:
        P = P * HPoly([-complex(r), 1.0])
    return P


def default_P(degree: int) -> HPoly:
    """prod_{i=1..degree} (z - i w); the degree-0 case is the constant 1."""
    return _p_from_roots(range(1, degree + 1))


def _check_P(P: HPoly | None, degree: int, allow_constant=False) -> HPoly:
    """P (default_P(degree) for None), checked: of that degree, monic in z with P(0, 1) != 0,
    or at degree 0 the constant 1 where allow_constant."""
    P = default_P(degree) if P is None else P
    if P.degree != degree:
        raise ValueError(f"P must have degree {degree}, got {P.degree}")
    if degree == 0:
        if not allow_constant:
            raise ValueError("constant P not allowed for this family")
        if abs(P.coeffs[0] - 1.0) > 1e-12:
            raise ValueError("constant P must be identically 1")
        return P
    if abs(P.coeffs[-1] - 1.0) > 1e-12:
        raise ValueError("P must be monic as a polynomial in z")
    if P.evaluate((0.0, 1.0)) == 0:
        raise ValueError("P(0,1) must be nonzero")
    return P


def _quiet(make):
    """The family maker `make` with numpy's overflow and invalid-value warnings off: a value
    its arithmetic takes past float64 reaches BoundaryMap, which names the coefficient in its
    ValueError."""
    @functools.wraps(make)
    def quiet(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore"):
            return make(*args, **kwargs)
    return quiet


# ---------------------------------------------------------------------------
# Example 1: hole of depth 1 at infinity


def _example1_P(d: int, P: HPoly | None = None) -> HPoly:
    """Example 1's checked P, of degree d - 1 (_check_P)."""
    return _check_P(P, d - 1)


@_quiet
def make_example1(d: int, a: complex, t: complex, P: HPoly | None = None) -> BoundaryMap:
    """g_{a,t} = (a t z^d + w P(z,w) : t z^d) with P monic of degree d-1."""
    if t == 0:
        raise ValueError("t must be nonzero (the t = 0 limit is example1_limit)")
    if d < 2:
        raise ValueError("d must be >= 2")
    P = _example1_P(d, P)
    zd = HPoly.z() ** d
    wP = HPoly.w() * P
    return BoundaryMap(d, complex(a) * complex(t) * zd + wP, complex(t) * zd)


def example1_limit(d: int) -> BoundaryMap:
    """The t -> 0 limit g = (w P : 0) for the default P, a point of I(d)."""
    P = _example1_P(d)
    return BoundaryMap(d, HPoly.w() * P, HPoly.zero(d))


@_quiet
def example1_second_limit(d: int, a: complex, P: HPoly | None = None) -> BoundaryMap:
    """f_a = (w^(d-1) P^(d-1) (a w P + z^d) : w^d P^d), the limit of the
    second iterates of g_{a,t}; degree d^2, holes of depth d-1 at infinity
    and at each root of P."""
    P = _example1_P(d, P)
    a = complex(a)
    wP = HPoly.w() * P
    inner = a * wP + HPoly.z() ** d
    top = (HPoly.w() ** (d - 1)) * (P ** (d - 1)) * inner
    bottom = (HPoly.w() ** d) * (P**d)
    return BoundaryMap(d * d, top, bottom)


def example1_phi(d: int, a: complex):
    """phi_a = (a w P + z^d : w P) for the default P, the degree-d map
    carried by f_a."""
    P = _example1_P(d)
    wP = HPoly.w() * P
    return complex(a) * wP + HPoly.z() ** d, wP


# ---------------------------------------------------------------------------
# Example 2: hole of depth k >= 2 at infinity


def _example2_P(d: int, k: int, P: HPoly | None = None) -> HPoly:
    """Example 2's checked P, of degree d - k (_check_P), once k is in 2 <= k <= d."""
    if not 2 <= k <= d:
        raise ValueError("k must satisfy 2 <= k <= d")
    return _check_P(P, d - k, allow_constant=(k == d))


@_quiet
def make_example2(d: int, k: int, a: complex, t: complex,
                  P: HPoly | None = None) -> BoundaryMap:
    """g_{a,t} = (a t^k z^d + w^k P : t z^(d-k+1) w^(k-1)), P monic deg d-k."""
    if t == 0 or a == 0:
        raise ValueError("a and t must be nonzero")
    P = _example2_P(d, k, P)
    a, t = complex(a), complex(t)
    try:
        tk = t**k
    except OverflowError:  # |t|^k past float64, which BoundaryMap names
        tk = complex(cmath.inf)
    top = a * tk * HPoly.z() ** d + (HPoly.w() ** k) * P
    bottom = t * HPoly.z() ** (d - k + 1) * (HPoly.w() ** (k - 1))
    return BoundaryMap(d, top, bottom)


def example2_limit(d: int, k: int) -> BoundaryMap:
    """The t -> 0 limit (w^k P : 0) for the default P, with a depth-k hole
    at infinity."""
    P = _example2_P(d, k)
    return BoundaryMap(d, (HPoly.w() ** k) * P, HPoly.zero(d))


@_quiet
def example2_second_limit(d: int, k: int, a: complex,
                          P: HPoly | None = None) -> BoundaryMap:
    """f_a = (w^(k(d-1)) P^(d-k) (a w^k P^k + z^(k(d-k+1))) :
             w^(k(d-1)+1) P^(d-k+1) z^((d-k+1)(k-1))), degree d^2."""
    if a == 0:
        raise ValueError("a must be nonzero")
    P = _example2_P(d, k, P)
    a = complex(a)
    wk = HPoly.w() ** k
    inner = a * wk * (P**k) + HPoly.z() ** (k * (d - k + 1))
    top = (HPoly.w() ** (k * (d - 1))) * (P ** (d - k)) * inner
    bottom = (
        (HPoly.w() ** (k * (d - 1) + 1))
        * (P ** (d - k + 1))
        * HPoly.z() ** ((d - k + 1) * (k - 1))
    )
    return BoundaryMap(d * d, top, bottom)


def example2_companion_limit(d: int, k: int, a: complex) -> BoundaryMap:
    """h_a = (a w^(kd) P^d : w^(kd) P^d) for the default P, constant a; on
    I(d^2) iff P(a) = 0."""
    P = _example2_P(d, k)
    H = (HPoly.w() ** (k * d)) * (P**d)
    return BoundaryMap(d * d, complex(a) * H, H)


# ---------------------------------------------------------------------------
# Epstein's limit maps and polynomial-boundary families


@_quiet
def make_epstein_FT(T: complex) -> BoundaryMap:
    """F_T = (zw(z^2 + T zw + w^2) : z^2 w^2) in Ratbar_4; not on I(4)."""
    T = complex(T)
    inner = HPoly([1.0, T, 1.0])  # w^2 + T zw + z^2
    top = HPoly.z() * HPoly.w() * inner
    bottom = (HPoly.z() ** 2) * (HPoly.w() ** 2)
    return BoundaryMap(4, top, bottom)


@_quiet
def make_cubic_eps(eps: complex) -> BoundaryMap:
    """Lift of p_eps(z) = eps z^3 + z^2: (eps z^3 + z^2 w : w^3)."""
    if eps == 0:
        raise ValueError("eps must be nonzero (the limit is cubic_limit)")
    top = complex(eps) * HPoly.z() ** 3 + HPoly.z() ** 2 * HPoly.w()
    return BoundaryMap(3, top, HPoly.w() ** 3)


def cubic_limit() -> BoundaryMap:
    """The eps -> 0 limit (z^2 w : w^3) with mu = delta_infinity."""
    return BoundaryMap(3, HPoly.z() ** 2 * HPoly.w(), HPoly.w() ** 3)


@_quiet
def make_polylimit(root_list, k: float) -> BoundaryMap:
    """p_k = (P : w^d / k) for P = prod (z - r_i w); k -> oo gives (P : 0)."""
    if not k > 0:
        raise ValueError(f"k must be positive, got {k!r}")
    d = len(root_list)
    if d < 2:
        raise ValueError("need at least two roots")
    return BoundaryMap(d, _p_from_roots(root_list), (1.0 / k) * (HPoly.w() ** d))


@_quiet
def polylimit_limit(root_list) -> BoundaryMap:
    """(P : 0): the constant-infinity map with holes at the roots of P."""
    d = len(root_list)
    return BoundaryMap(d, _p_from_roots(root_list), HPoly.zero(d))


@_quiet
def make_inversion(k: complex) -> BoundaryMap:
    """(k w : z) at d = 1.  Its second iterate (k z : k w) is the identity for
    every k, so f -> f^2 is not proper along k -> 0 or k -> oo."""
    return BoundaryMap(1, complex(k) * HPoly.w(), HPoly.z())


# ---------------------------------------------------------------------------
# named family specs (the CLI input schema)

# gcd tolerance for the closed-form family limits, whose gcd factors carry
# multiplicity-m roots (numeric m-fold roots spread like eps^(1/m))
FAMILY_LIMIT_GCD_TOL = 1e-4


def int_param(key, value):
    """An integer --param value: an int, or a float with no fractional part."""
    if isinstance(value, int) or isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"--param {key} must be an integer, got {value!r}")


def real_param(key, value):
    """A real --param value as a float: an int or a float."""
    if isinstance(value, (int, float)):
        return float(value)
    raise ValueError(f"--param {key} must be a real number, got {value!r}")


def _finite_param(key, value):
    """A finite number --param value: an int, a float or a complex."""
    if isinstance(value, numbers.Number) and cmath.isfinite(value):
        return value
    raise ValueError(f"--param {key} takes finite numbers, got {value!r}")


def _finite_list(key, value):
    """A list --param value of finite numbers; a swept value is one item, not a list."""
    if isinstance(value, (list, tuple)):
        return [_finite_param(key, r) for r in value]
    raise ValueError(f"--param {key} takes a list, got {value!r}")


# a key without a default: a family that needs it names it when it builds
REQUIRED = object()
_Family = namedtuple("_Family", "keys make target", defaults=(None,))
_FAMILIES = {
    "example1": _Family(
        {"d": (int_param, REQUIRED), "t": (_finite_param, REQUIRED), "a": (_finite_param, 1.0),
         "P_roots": (_finite_list, None)},
        lambda get: make_example1(get("d"), get("a"), get("t"), _p_from_roots(get("P_roots"))),
        lambda get: example1_second_limit(get("d"), get("a"), _p_from_roots(get("P_roots")))),
    "example2": _Family(
        {"d": (int_param, REQUIRED), "k": (int_param, REQUIRED), "t": (_finite_param, REQUIRED),
         "a": (_finite_param, 1.0), "P_roots": (_finite_list, None)},
        lambda get: make_example2(get("d"), get("k"), get("a"), get("t"),
                                  _p_from_roots(get("P_roots"))),
        lambda get: example2_second_limit(get("d"), get("k"), get("a"),
                                          _p_from_roots(get("P_roots")))),
    "epstein_FT": _Family({"T": (_finite_param, 1.0)}, lambda get: make_epstein_FT(get("T"))),
    "cubic_eps": _Family(  # mu of the limit (z^2 w : w^3) is delta_infinity, exactly
        {"eps": (_finite_param, REQUIRED)}, lambda get: make_cubic_eps(get("eps")),
        lambda _get: AtomicMeasure(np.array([[1.0, 0.0]], dtype=complex), np.array([1.0]))),
    "polylimit": _Family(  # k = inf is the limit (P : 0)
        {"roots": (_finite_list, REQUIRED), "k": (real_param, 1.0)},
        lambda get: make_polylimit(get("roots"), get("k")),
        lambda get: polylimit_limit(get("roots"))),
    "inversion": _Family({"k": (_finite_param, REQUIRED)}, lambda get: make_inversion(get("k"))),
}
FAMILY_KEYS = {name: tuple(family.keys) for name, family in _FAMILIES.items()}
LIST_KEYS = frozenset(key for family in _FAMILIES.values()  # the keys that take a list
                      for key, (read, _) in family.keys.items() if read is _finite_list)


@dataclass
class FamilySpec:
    """A named family and its --param values: build() gives the map, limit() a converge target."""

    name: str
    parameters: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in _FAMILIES:
            raise ValueError(f"unknown family {self.name!r}; choose from {tuple(FAMILY_KEYS)}")
        keys = _FAMILIES[self.name].keys
        unknown = [str(key) for key in self.parameters if key not in keys]
        if unknown:
            raise ValueError(f"family {self.name} takes no --param {', '.join(unknown)}; "
                             f"its keys: {FAMILY_KEYS[self.name]}")
        # each value's kind is read here: a spec that exists holds only values of the right kind
        self.parameters = {key: keys[key][0](key, value) for key, value in self.parameters.items()}

    def _get(self, key):
        value = self.parameters.get(key, _FAMILIES[self.name].keys[key][1])
        if value is REQUIRED:
            raise ValueError(f"family {self.name} needs --param {key}")
        return value

    def build(self) -> BoundaryMap:
        """The map; a value the family cannot take is a ValueError naming its key."""
        return _FAMILIES[self.name].make(self._get)

    def check_limit(self):
        """A ValueError unless limit() is defined for this family."""
        if _FAMILIES[self.name].target is None:
            raise ValueError(f"converge sweeps are not defined for family {self.name!r}")

    def limit(self, tail_tol: float) -> AtomicMeasure:
        """The measure a converge sweep tends to, read without the swept key: the family's
        target, or mu of its limit map at FAMILY_LIMIT_GCD_TOL and tail_tol."""
        self.check_limit()
        target = _FAMILIES[self.name].target(self._get)
        if isinstance(target, AtomicMeasure):
            return target
        return boundary_measure(decompose(target, FAMILY_LIMIT_GCD_TOL), tail_tol)
