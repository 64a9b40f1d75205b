"""Parametric families of boundary maps used in the convergence experiments.

Each constructor builds the displayed pair by exact coefficient arithmetic:

  example1        g_{a,t} = (a t z^d + w P : t z^d),      t -> 0 limit (wP : 0)
  example2        g_{a,t} = (a t^k z^d + w^k P : t z^(d-k+1) w^(k-1))
  epstein_FT      F_T = (zw(z^2 + T zw + w^2) : z^2 w^2)  in Ratbar_4
  cubic_eps       lift of p_eps(z) = eps z^3 + z^2,       eps -> 0 limit (z^2 w : w^3)
  polylimit       p_k = (P : w^d / k),                    k -> oo limit (P : 0)
  inversion       (k w : z) at d = 1,                     f^2 = (k z : k w) for every k

FamilySpec builds one by name from the --param keys FAMILY_KEYS lists for it (d and
example2's k integers); any other key, or a missing required one, is a ValueError.

The t -> 0 limits of the second iterates of the example families are also
provided in closed form, since they are the targets of the measure
convergence runs.  Default P for tests is prod_i (z - i*w), i = 1..deg,
monic with no root at 0 or infinity, so every quoted mass is reproducible.
"""

from __future__ import annotations

import cmath
import numbers
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
        P = P * HPoly.from_coeffs([-complex(r), 1.0])
    return P


def default_P(degree: int) -> HPoly:
    """prod_{i=1..degree} (z - i w); the degree-0 case is the constant 1."""
    return _p_from_roots(range(1, degree + 1))


def _check_P(P: HPoly, degree: int, allow_constant=False):
    if P.degree != degree:
        raise ValueError(f"P must have degree {degree}, got {P.degree}")
    if degree == 0:
        if not allow_constant:
            raise ValueError("constant P not allowed for this family")
        if abs(P.coeffs[0] - 1.0) > 1e-12:
            raise ValueError("constant P must be identically 1")
        return
    if abs(P.coeffs[-1] - 1.0) > 1e-12:
        raise ValueError("P must be monic as a polynomial in z")
    if P.evaluate((0.0, 1.0)) == 0:
        raise ValueError("P(0,1) must be nonzero")


def _zpow(i: int, d: int) -> HPoly:
    c = np.zeros(d + 1, dtype=complex)
    c[i] = 1.0
    return HPoly(d, c)


# ---------------------------------------------------------------------------
# Example 1: hole of depth 1 at infinity


def make_example1(d: int, a: complex, t: complex, P: HPoly | None = None) -> BoundaryMap:
    """g_{a,t} = (a t z^d + w P(z,w) : t z^d) with P monic of degree d-1."""
    if t == 0:
        raise ValueError("t must be nonzero (the t = 0 limit is example1_limit)")
    if d < 2:
        raise ValueError("d must be >= 2")
    P = default_P(d - 1) if P is None else P
    _check_P(P, d - 1)
    zd = _zpow(d, d)
    wP = HPoly.w() * P
    return BoundaryMap(d, complex(a) * complex(t) * zd + wP, complex(t) * zd)


def example1_limit(d: int) -> BoundaryMap:
    """The t -> 0 limit g = (w P : 0) for the default P, a point of I(d)."""
    P = default_P(d - 1)
    _check_P(P, d - 1)
    return BoundaryMap(d, HPoly.w() * P, HPoly.zero(d))


def example1_second_limit(d: int, a: complex, P: HPoly | None = None) -> BoundaryMap:
    """f_a = (w^(d-1) P^(d-1) (a w P + z^d) : w^d P^d), the limit of the
    second iterates of g_{a,t}; degree d^2, holes of depth d-1 at infinity
    and at each root of P."""
    P = default_P(d - 1) if P is None else P
    _check_P(P, d - 1)
    a = complex(a)
    wP = HPoly.w() * P
    inner = a * wP + _zpow(d, d)
    top = (HPoly.w() ** (d - 1)) * (P ** (d - 1)) * inner
    bottom = (HPoly.w() ** d) * (P**d)
    return BoundaryMap(d * d, top, bottom)


def example1_phi(d: int, a: complex):
    """phi_a = (a w P + z^d : w P) for the default P, the degree-d map
    carried by f_a."""
    P = default_P(d - 1)
    _check_P(P, d - 1)
    wP = HPoly.w() * P
    return complex(a) * wP + _zpow(d, d), wP


# ---------------------------------------------------------------------------
# Example 2: hole of depth k >= 2 at infinity


def make_example2(d: int, k: int, a: complex, t: complex,
                  P: HPoly | None = None) -> BoundaryMap:
    """g_{a,t} = (a t^k z^d + w^k P : t z^(d-k+1) w^(k-1)), P monic deg d-k."""
    if t == 0 or a == 0:
        raise ValueError("a and t must be nonzero")
    if not 2 <= k <= d:
        raise ValueError("k must satisfy 2 <= k <= d")
    P = default_P(d - k) if P is None else P
    _check_P(P, d - k, allow_constant=(k == d))
    a, t = complex(a), complex(t)
    top = a * t**k * _zpow(d, d) + (HPoly.w() ** k) * P
    bottom = t * _zpow(d - k + 1, d - k + 1) * (HPoly.w() ** (k - 1))
    return BoundaryMap(d, top, bottom)


def example2_limit(d: int, k: int) -> BoundaryMap:
    """The t -> 0 limit (w^k P : 0) for the default P, with a depth-k hole
    at infinity."""
    P = default_P(d - k)
    _check_P(P, d - k, allow_constant=(k == d))
    return BoundaryMap(d, (HPoly.w() ** k) * P, HPoly.zero(d))


def example2_second_limit(d: int, k: int, a: complex,
                          P: HPoly | None = None) -> BoundaryMap:
    """f_a = (w^(k(d-1)) P^(d-k) (a w^k P^k + z^(k(d-k+1))) :
             w^(k(d-1)+1) P^(d-k+1) z^((d-k+1)(k-1))), degree d^2."""
    if a == 0:
        raise ValueError("a must be nonzero")
    if not 2 <= k <= d:
        raise ValueError("k must satisfy 2 <= k <= d")
    P = default_P(d - k) if P is None else P
    _check_P(P, d - k, allow_constant=(k == d))
    a = complex(a)
    wk = HPoly.w() ** k
    inner = a * wk * (P**k) + _zpow(k * (d - k + 1), k * (d - k + 1))
    top = (HPoly.w() ** (k * (d - 1))) * (P ** (d - k)) * inner
    bottom = (
        (HPoly.w() ** (k * (d - 1) + 1))
        * (P ** (d - k + 1))
        * _zpow((d - k + 1) * (k - 1), (d - k + 1) * (k - 1))
    )
    return BoundaryMap(d * d, top, bottom)


def example2_companion_limit(d: int, k: int, a: complex) -> BoundaryMap:
    """h_a = (a w^(kd) P^d : w^(kd) P^d) for the default P, constant a; on
    I(d^2) iff P(a) = 0."""
    P = default_P(d - k)
    _check_P(P, d - k, allow_constant=(k == d))
    H = (HPoly.w() ** (k * d)) * (P**d)
    return BoundaryMap(d * d, complex(a) * H, H)


# ---------------------------------------------------------------------------
# Epstein's limit maps and polynomial-boundary families


def make_epstein_FT(T: complex) -> BoundaryMap:
    """F_T = (zw(z^2 + T zw + w^2) : z^2 w^2) in Ratbar_4; not on I(4)."""
    T = complex(T)
    inner = HPoly.from_coeffs([1.0, T, 1.0])  # w^2 + T zw + z^2
    top = HPoly.z() * HPoly.w() * inner
    bottom = (HPoly.z() ** 2) * (HPoly.w() ** 2)
    return BoundaryMap(4, top, bottom)


def make_cubic_eps(eps: complex) -> BoundaryMap:
    """Lift of p_eps(z) = eps z^3 + z^2: (eps z^3 + z^2 w : w^3)."""
    if eps == 0:
        raise ValueError("eps must be nonzero (the limit is cubic_limit)")
    top = complex(eps) * _zpow(3, 3) + _zpow(2, 2) * HPoly.w()
    return BoundaryMap(3, top, HPoly.w() ** 3)


def cubic_limit() -> BoundaryMap:
    """The eps -> 0 limit (z^2 w : w^3) with mu = delta_infinity."""
    return BoundaryMap(3, _zpow(2, 2) * HPoly.w(), HPoly.w() ** 3)


def make_polylimit(root_list, k: float) -> BoundaryMap:
    """p_k = (P : w^d / k) for P = prod (z - r_i w); k -> oo gives (P : 0)."""
    if not k > 0:
        raise ValueError(f"k must be positive, got {k!r}")
    d = len(root_list)
    if d < 2:
        raise ValueError("need at least two roots")
    return BoundaryMap(d, _p_from_roots(root_list), (1.0 / k) * (HPoly.w() ** d))


def polylimit_limit(root_list) -> BoundaryMap:
    """(P : 0): the constant-infinity map with holes at the roots of P."""
    d = len(root_list)
    return BoundaryMap(d, _p_from_roots(root_list), HPoly.zero(d))


def make_inversion(k: complex) -> BoundaryMap:
    """(k w : z) at d = 1.  Its second iterate (k z : k w) is the identity for
    every k, so f -> f^2 is not proper along k -> 0 or k -> oo."""
    return BoundaryMap(1, complex(k) * HPoly.w(), HPoly.z())


# ---------------------------------------------------------------------------
# named family specs (the CLI input schema)

# each family's --param keys, every one read by build(); any other key is a ValueError
FAMILY_KEYS = {
    "example1": ("d", "t", "a", "P_roots"),
    "example2": ("d", "k", "t", "a", "P_roots"),
    "epstein_FT": ("T",),
    "cubic_eps": ("eps",),
    "polylimit": ("roots", "k"),
    "inversion": ("k",),
}

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


@dataclass
class FamilySpec:
    """A named family and its --param values: build() gives the map, limit() a converge target."""

    name: str
    parameters: dict = field(default_factory=dict)

    def __post_init__(self):
        keys = FAMILY_KEYS.get(self.name)
        if keys is None:
            raise ValueError(f"unknown family {self.name!r}; choose from {tuple(FAMILY_KEYS)}")
        unknown = [str(key) for key in self.parameters if key not in keys]
        if unknown:
            raise ValueError(f"family {self.name} takes no --param {', '.join(unknown)}; "
                             f"its keys: {keys}")
        # each value's kind is read here, so a spec that exists holds only values of
        # the right kind; the ranges (t nonzero, 2 <= k <= d, ...) are the makers' checks
        self.parameters = {key: self._read(key, value) for key, value in self.parameters.items()}

    def _read(self, key, value):
        if key in ("roots", "P_roots"):
            if not isinstance(value, (list, tuple)):  # a swept value is one item
                raise ValueError(f"--param {key} takes a list, got {value!r}")
            return [_finite_param(key, r) for r in value]
        if key == "d" or key == "k" and self.name == "example2":
            return int_param(key, value)
        if key == "k" and self.name == "polylimit":
            return real_param(key, value)  # k = inf is the limit (P : 0)
        return _finite_param(key, value)

    def _get(self, key, *default):
        if key not in self.parameters and not default:
            raise ValueError(f"family {self.name} needs --param {key}")
        return self.parameters.get(key, *default)

    def build(self) -> BoundaryMap:
        """The map; a value the family cannot take is a ValueError naming its key."""
        get, P = self._get, _p_from_roots(self._get("P_roots", None))
        if self.name == "example1":
            return make_example1(get("d"), get("a", 1.0), get("t"), P)
        if self.name == "example2":
            return make_example2(get("d"), get("k"), get("a", 1.0), get("t"), P)
        if self.name == "epstein_FT":
            return make_epstein_FT(get("T", 1.0))
        if self.name == "cubic_eps":
            return make_cubic_eps(get("eps"))
        if self.name == "polylimit":
            return make_polylimit(get("roots"), get("k", 1.0))
        return make_inversion(get("k"))

    def check_limit(self):
        """A ValueError unless limit() is defined for this family."""
        if self.name not in ("example1", "example2", "polylimit", "cubic_eps"):
            raise ValueError(f"converge sweeps are not defined for family {self.name!r}")

    def limit(self, tail_tol: float) -> AtomicMeasure:
        """The measure a converge sweep tends to, read without the swept key: mu of the
        closed-form limit of the second iterates (example1, example2) or of (P : 0)
        (polylimit) at FAMILY_LIMIT_GCD_TOL and tail_tol; delta_infinity for cubic_eps."""
        self.check_limit()
        get, P = self._get, _p_from_roots(self._get("P_roots", None))
        if self.name == "example1":
            f = example1_second_limit(get("d"), get("a", 1.0), P)
        elif self.name == "example2":
            f = example2_second_limit(get("d"), get("k"), get("a", 1.0), P)
        elif self.name == "cubic_eps":
            return AtomicMeasure(np.array([[1.0, 0.0]], dtype=complex), np.array([1.0]))
        else:
            f = polylimit_limit(get("roots"))
        return boundary_measure(decompose(f, FAMILY_LIMIT_GCD_TOL), tail_tol)
