"""Homogeneous bivariate polynomial arithmetic over C.

An HPoly of degree d stores d+1 complex coefficients with the convention
coeffs[i] * z^i * w^(d-i).  This module provides the algebraic substrate:
evaluation, products, pair composition, the Sylvester resultant, all-roots
finding on P^1 (simultaneous Aberth-Ehrlich iteration with Newton polish
and chordal clustering for multiplicities), and an approximate gcd
computed by matching root clusters of the two inputs.

Root clustering rather than a Euclidean remainder sequence is used for the
gcd because floating-point remainder sequences degrade exactly where these
computations live: near polynomial pairs with common factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULTS
from .errors import NumericalFailure
from .projline import INFINITY, ZERO, ProjPoint, _merge_close, canonicalize, chordal_distance


@dataclass(frozen=True, eq=False)
class HPoly:
    degree: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=complex)
        if c.shape != (self.degree + 1,):
            raise ValueError(
                f"degree {self.degree} needs {self.degree + 1} coefficients, got {c.shape}"
            )
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_coeffs(coeffs) -> "HPoly":
        c = np.asarray(coeffs, dtype=complex)
        return HPoly(len(c) - 1, c)

    @staticmethod
    def zero(degree: int) -> "HPoly":
        return HPoly(degree, np.zeros(degree + 1, dtype=complex))

    @staticmethod
    def constant(value: complex) -> "HPoly":
        return HPoly(0, np.array([value], dtype=complex))

    @staticmethod
    def z() -> "HPoly":
        return HPoly.from_coeffs([0, 1])

    @staticmethod
    def w() -> "HPoly":
        return HPoly.from_coeffs([1, 0])

    @staticmethod
    def from_roots(entries, scale: complex = 1.0) -> "HPoly":
        """scale * prod (w_r z - z_r w)^mult over entries [(ProjPoint, mult)]."""
        out = np.array([complex(scale)])
        for pt, mult in entries:
            factor = np.array([-pt.z, pt.w], dtype=complex)
            for _ in range(int(mult)):
                out = np.convolve(out, factor)
        return HPoly(len(out) - 1, out)

    # -- basic structure ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.coeffs == 0))

    def max_modulus(self) -> float:
        return float(np.abs(self.coeffs).max())

    def normalize(self) -> "HPoly":
        """Scale so the largest coefficient modulus is 1 (zero poly unchanged)."""
        m = self.max_modulus()
        if m == 0.0:
            return self
        return HPoly(self.degree, self.coeffs / m)

    def monic_leading(self) -> "HPoly":
        """Divide by the topmost coefficient of non-negligible modulus."""
        if self.is_zero:
            return self
        mods = np.abs(self.coeffs)
        cutoff = 1e-12 * mods.max()
        lead = max(i for i in range(self.degree + 1) if mods[i] > cutoff)
        return HPoly(self.degree, self.coeffs / self.coeffs[lead])

    def __mul__(self, other):
        if isinstance(other, HPoly):
            return HPoly(
                self.degree + other.degree, np.convolve(self.coeffs, other.coeffs)
            )
        return HPoly(self.degree, self.coeffs * complex(other))

    __rmul__ = __mul__

    def __add__(self, other: "HPoly") -> "HPoly":
        if self.degree != other.degree:
            raise ValueError("can only add equal-degree homogeneous polynomials")
        return HPoly(self.degree, self.coeffs + other.coeffs)

    def __sub__(self, other: "HPoly") -> "HPoly":
        return self + (-1) * other

    def __pow__(self, n: int) -> "HPoly":
        if n < 0:
            raise ValueError("negative power")
        result = HPoly.constant(1.0)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def derivative_z(self) -> "HPoly":
        d = self.degree
        if d == 0:
            return HPoly.constant(0.0)
        c = self.coeffs[1:] * np.arange(1, d + 1)
        return HPoly(d - 1, c)

    def derivative_w(self) -> "HPoly":
        d = self.degree
        if d == 0:
            return HPoly.constant(0.0)
        c = self.coeffs[:-1] * np.arange(d, 0, -1)
        return HPoly(d - 1, c)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, x) -> complex:
        """P(z, w); homogeneous of degree d.  Stable in both charts."""
        z, w = (x.z, x.w) if isinstance(x, ProjPoint) else (complex(x[0]), complex(x[1]))
        c = self.coeffs
        d = self.degree
        if d == 0:
            return complex(c[0])
        if abs(z) >= abs(w):
            if z == 0:
                return 0j
            t = w / z
            return complex(z**d * _horner(c[::-1], t))
        s = z / w
        return complex(w**d * _horner(c, s))

    def to_json(self):
        return {
            "degree": self.degree,
            "coeffs": [[c.real, c.imag] for c in self.coeffs],
        }

    @staticmethod
    def from_json(data) -> "HPoly":
        c = [complex(re, im) for re, im in data["coeffs"]]
        if len(c) != data["degree"] + 1:
            raise ValueError("coefficient count does not match degree")
        return HPoly.from_coeffs(c)

    def __repr__(self):
        terms = []
        d = self.degree
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mono = "".join(
                [f"z^{i}" if i > 1 else "z" * i, f"w^{d - i}" if d - i > 1 else "w" * (d - i)]
            )
            terms.append(f"({c:.4g}){mono or '1'}")
        return "HPoly(" + (" + ".join(terms) or "0") + f", deg={d})"


def _horner(coeffs_asc, x):
    acc = 0j
    for c in coeffs_asc[::-1]:
        acc = acc * x + c
    return acc


@dataclass
class RootList:
    """Roots on P^1 with multiplicities; multiplicities sum to the degree."""

    entries: list

    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.entries)

    def points(self):
        return [p for p, _ in self.entries]

    def multiplicity_at(self, pt: ProjPoint, tol: float = DEFAULTS.hole_match) -> int:
        return sum(m for p, m in self.entries if chordal_distance(p, pt) <= tol)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


def multiply(P: HPoly, Q: HPoly) -> HPoly:
    return P * Q


def evaluate(P: HPoly, x) -> complex:
    return P.evaluate(x)


# ---------------------------------------------------------------------------
# composition


def substitute(P: HPoly, p: HPoly, q: HPoly) -> HPoly:
    """P(p(z,w), q(z,w)) where deg p = deg q = e; the result has degree d*e.

    Linear in P's coefficients and degree-d homogeneous in (p, q)'s.
    """
    if p.degree != q.degree:
        raise ValueError("substituted pair must have equal degrees")
    d, e = P.degree, p.degree
    out = np.zeros(d * e + 1, dtype=complex)
    # cumulative power tables p^i and q^j
    p_pows = [np.array([1.0 + 0j])]
    q_pows = [np.array([1.0 + 0j])]
    for _ in range(d):
        p_pows.append(np.convolve(p_pows[-1], p.coeffs))
        q_pows.append(np.convolve(q_pows[-1], q.coeffs))
    for i, c in enumerate(P.coeffs):
        if c == 0:
            continue
        term = np.convolve(p_pows[i], q_pows[d - i])
        out[: len(term)] += c * term
    return HPoly(d * e, out)


def compose_pair(F, G):
    """F o G for pairs of equal-degree homogeneous polynomials."""
    P, Q = F
    p, q = G
    if P.degree != Q.degree:
        raise ValueError("F components must have equal degree")
    return substitute(P, p, q), substitute(Q, p, q)


def pullback_poly(phi, H: HPoly) -> HPoly:
    """H(p(z,w), q(z,w)) for phi = (p, q); degree e * deg H."""
    p, q = phi
    return substitute(H, p, q)


def wronskian(pair) -> HPoly:
    """P_z Q_w - P_w Q_z; its roots are the critical points of (P:Q)."""
    P, Q = pair
    return P.derivative_z() * Q.derivative_w() - P.derivative_w() * Q.derivative_z()


# ---------------------------------------------------------------------------
# resultant


def resultant(P: HPoly, Q: HPoly) -> complex:
    """Sylvester determinant; vanishes iff P and Q share a root on P^1.

    A shared root at (1:0) (both leading coefficients vanishing) zeroes the
    first column, so the convention covers infinity without special casing.
    """
    m, n = P.degree, Q.degree
    if m + n == 0:
        return 1.0 + 0j
    a = P.coeffs[::-1]  # z-descending
    b = Q.coeffs[::-1]
    S = np.zeros((m + n, m + n), dtype=complex)
    for r in range(n):
        S[r, r : r + m + 1] = a
    for r in range(m):
        S[n + r, r : r + n + 1] = b
    return complex(np.linalg.det(S))


def projective_residual(a, b) -> float:
    """min over lambda of ||a - lambda b|| / ||a|| for coefficient vectors."""
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0:
        return 0.0 if nb == 0.0 else 1.0
    if nb == 0.0:
        return 1.0
    lam = np.vdot(b, a) / np.vdot(b, b)
    return float(np.linalg.norm(a - lam * b) / na)


# ---------------------------------------------------------------------------
# root finding


def _aberth(c, tol=1e-14, max_iter=160):
    """All roots of sum c[i] x^i by simultaneous Aberth-Ehrlich iteration."""
    c = np.asarray(c, dtype=complex)
    n = len(c) - 1
    if n < 1:
        return np.zeros(0, dtype=complex)
    if n == 1:
        return np.array([-c[0] / c[1]])
    monic = c / c[-1]
    dp = monic[1:] * np.arange(1, n + 1)

    radius = 1.0 + float(np.abs(monic[:-1]).max())  # Cauchy bound
    r0 = abs(monic[0]) ** (1.0 / n) if monic[0] != 0 else 0.0
    radius = min(radius, max(r0, 0.5))
    angles = 2 * np.pi * np.arange(n) / n + 0.376
    x = radius * np.exp(1j * angles)

    for _ in range(max_iter):
        pv = _horner_vec(monic, x)
        dpv = _horner_vec(dp, x)
        newton = np.where(dpv != 0, pv / np.where(dpv == 0, 1, dpv), 0.1)
        diff = x[:, None] - x[None, :]
        np.fill_diagonal(diff, np.inf)
        s = (1.0 / diff).sum(axis=1)
        denom = 1.0 - newton * s
        step = newton / np.where(denom == 0, 1, denom)
        bad = ~np.isfinite(step)
        if bad.any():
            step = np.where(bad, 0, step)
        x = x - step
        if np.abs(step).max() <= tol * (1.0 + np.abs(x).max()):
            break
    # Newton polish
    for _ in range(3):
        pv = _horner_vec(monic, x)
        dpv = _horner_vec(dp, x)
        ok = np.abs(dpv) > 1e-300
        x = np.where(ok, x - pv / np.where(ok, dpv, 1), x)
    return x


def _horner_vec(coeffs_asc, x):
    acc = np.zeros_like(x)
    for c in coeffs_asc[::-1]:
        acc = acc * x + c
    return acc


def _polish_multiple_root(core, z0, mult):
    """Newton-refine a multiplicity-m cluster center on d^(m-1)p/dz^(m-1)."""
    c = np.asarray(core, dtype=complex)
    for _ in range(mult - 1):
        c = c[1:] * np.arange(1, len(c))
    if len(c) < 2:
        return z0
    dc = c[1:] * np.arange(1, len(c))
    z = z0
    for _ in range(6):
        dv = _horner(dc, z)
        pv = _horner(c, z)
        if abs(dv) < 1e-300:
            return z0
        z = z - pv / dv
    return z


def roots(P: HPoly, tol: float = 1e-8) -> RootList:
    """All d roots of P on P^1, with multiplicities assigned by clustering.

    Leading coefficients below tol * (max modulus) contribute multiplicity at
    (1:0); exactly-zero trailing coefficients contribute at (0:1); the
    remaining dehomogenized core is solved by Aberth-Ehrlich iteration and
    the numeric roots are clustered (connected components of the chordal
    relation) at radius max(tol, 1e-7).
    """
    if P.is_zero:
        raise ValueError("roots undefined for the zero polynomial")
    d = P.degree
    if d == 0:
        return RootList([])
    c = P.normalize().coeffs
    m_inf = 0
    while m_inf < d and abs(c[d - m_inf]) < tol:
        m_inf += 1
    m_zero = 0
    while m_zero + m_inf < d and c[m_zero] == 0:
        m_zero += 1
    core = c[m_zero : d - m_inf + 1]

    raw = []
    if m_zero:
        raw.append((ZERO, m_zero))
    if m_inf:
        raw.append((INFINITY, m_inf))
    if len(core) > 1:
        for r in _aberth(core):
            raw.append((canonicalize(r, 1.0), 1))

    radius = max(tol, DEFAULTS.cluster_floor)
    rows, mults = _merge_close(
        np.array([pt.as_array() for pt, _ in raw]).reshape(-1, 2),
        np.array([m for _, m in raw], dtype=float), radius)
    clustered = [(canonicalize(z, w), int(round(m))) for (z, w), m in zip(rows, mults)]

    refined = []
    for center, mult in clustered:
        if mult > 1 and len(core) > mult and not center.is_infinity and abs(center.w) > 0.1:
            z0 = center.ratio()
            z1 = _polish_multiple_root(core, z0, mult)
            if abs(z1 - z0) <= radius * (1 + abs(z0)):
                center = canonicalize(z1, 1.0)
        refined.append((center, mult))

    refined.sort(key=lambda e: (e[0].is_infinity, round(e[0].z.real, 9), round(e[0].z.imag, 9)))
    return RootList(refined)


def vanishing_order(P: HPoly, pt: ProjPoint, rel_tol: float = DEFAULTS.ramification) -> int:
    """Order of vanishing of P at a projective point.

    Expands g(s) = P(u + s v) along a unit direction v orthogonal to u; the
    order is the first coefficient whose modulus is not pure cancellation
    noise.  Each g_k is compared against the magnitude sum of the terms
    that built it, so the test survives the coefficient dynamic range of
    high-degree products.
    """
    if P.is_zero:
        return P.degree + 1
    u = (pt.z, pt.w)
    v = (-np.conj(pt.w), np.conj(pt.z))
    d = P.degree
    g = np.zeros(d + 1, dtype=complex)
    for i, c in enumerate(P.coeffs):
        if c == 0:
            continue
        a = _binom_expand(u[0], v[0], i)
        b = _binom_expand(u[1], v[1], d - i)
        g += c * np.convolve(a, b)
    mods = np.abs(g)
    cutoff = rel_tol * mods.max()
    for k in range(d + 1):
        if mods[k] > cutoff:
            return k
    return d


def _binom_expand(x, y, n):
    """Coefficients in s of (x + s y)^n."""
    out = np.zeros(n + 1, dtype=complex)
    binom = 1.0
    for k in range(n + 1):
        out[k] = binom * x ** (n - k) * y**k
        binom = binom * (n - k) / (k + 1)
    return out


def count_zeros_in_disk(P: HPoly, center: ProjPoint, radius: float = 1e-2,
                        nodes: int = 512) -> int:
    """Zeros of P (with multiplicity) in a small disk, by the argument
    principle.

    The center is unitarily rotated to (0:1) and the winding number of P
    along an affine circle of the given radius is counted.  Being
    evaluation-based, this reads multiplicities of high-degree products
    whose coefficient dynamic range defeats threshold tests.  Chordal and
    affine radii agree to O(radius^2); keep radius below the root
    separation.
    """
    if P.is_zero:
        raise ValueError("zero polynomial")
    zc, wc = center.z, center.w
    # (z, w) = U^-1 (z', w') for the unitary U sending the center to (0:1)
    A = HPoly.from_coeffs([zc, -np.conj(wc)])
    B = HPoly.from_coeffs([wc, np.conj(zc)])
    rotated = substitute(P.normalize(), A, B)
    r = radius
    for _ in range(8):
        theta = 2 * np.pi * np.arange(nodes + 1) / nodes
        ring = r * np.exp(1j * theta)
        vals = _horner_vec(rotated.coeffs, ring)
        if np.abs(vals).min() > 1e-250:
            steps = np.angle(vals[1:] / vals[:-1])
            if np.abs(steps).max() < 2.5:  # contour resolved
                return int(round(steps.sum() / (2 * np.pi)))
        r *= 1.1371
    raise NumericalFailure("argument-principle contour failed to resolve")


# ---------------------------------------------------------------------------
# approximate gcd


def numeric_gcd(P: HPoly, Q: HPoly, tol: float = DEFAULTS.gcd):
    """Approximate gcd by root-cluster matching: returns (H, p, q).

    H is the monic-leading product over matched root clusters (match =
    chordal distance < tol, shared multiplicity = min of the two); p and q
    are cofactors rebuilt from the unmatched roots with scales fitted so
    that H*p ~ P and H*q ~ Q coefficientwise.  Raises NumericalFailure if a
    reconstruction residual exceeds tol: that signals cluster splitting, so
    callers should loosen tol (numeric m-fold roots spread like eps^(1/m)).
    """
    if P.is_zero and Q.is_zero:
        raise ValueError("gcd undefined for two zero polynomials")
    if P.is_zero or Q.is_zero:
        other = Q if P.is_zero else P
        H = other.monic_leading()
        lam = _fit_scale(H.coeffs, other.coeffs)
        s = HPoly.constant(lam)
        zero = HPoly.zero(0)
        return (H, zero, s) if P.is_zero else (H, s, zero)
    if projective_residual(P.coeffs, Q.coeffs) < 1e-12:
        # proportional pair: the gcd is the polynomial itself, no root
        # detection needed (and none wanted: multiple roots would smear H)
        H = P.monic_leading()
        return H, HPoly.constant(_fit_scale(H.coeffs, P.coeffs)), HPoly.constant(
            _fit_scale(H.coeffs, Q.coeffs)
        )

    rp = roots(P, tol)
    rq = roots(Q, tol)
    q_state = [[pt, mult] for pt, mult in rq]
    shared = []
    for pp, pm in rp:
        need = pm
        while need > 0:
            best, best_d = None, tol
            for entry in q_state:
                if entry[1] <= 0:
                    continue
                dist = chordal_distance(pp, entry[0])
                if dist < best_d:
                    best, best_d = entry, dist
            if best is None:
                break
            take = min(need, best[1])
            pair = np.array([pp.as_array(), best[0].as_array()])
            center = canonicalize(*_merge_close(pair, np.ones(2), tol)[0][0])
            shared.append((center, take))
            best[1] -= take
            need -= take

    H = HPoly.from_roots(shared).monic_leading()
    # cofactors by least-squares deconvolution: keeps coefficients that sit
    # below the root-detection tolerance but still matter under composition
    p = _deconvolve(H, P)
    q = _deconvolve(H, Q)

    for target, cof, name in ((P, p, "P"), (Q, q, "Q")):
        recon = (H * cof).coeffs
        resid = float(
            np.linalg.norm(target.coeffs - recon) / np.linalg.norm(target.coeffs)
        )
        if resid > tol:
            raise NumericalFailure(
                f"gcd reconstruction residual {resid:.3e} exceeds tol {tol:.1e} on {name}; "
                "root clusters may have split -- loosen tol"
            )
    return H, p, q


def _fit_scale(basis, target):
    denom = np.vdot(basis, basis)
    if denom == 0:
        return 0j
    return complex(np.vdot(basis, target) / denom)


def _deconvolve(H: HPoly, target: HPoly) -> HPoly:
    """Least-squares cofactor c with H * c ~ target."""
    deg = target.degree - H.degree
    A = np.zeros((target.degree + 1, deg + 1), dtype=complex)
    for j in range(deg + 1):
        A[j : j + H.degree + 1, j] = H.coeffs
    sol, *_ = np.linalg.lstsq(A, target.coeffs, rcond=None)
    return HPoly(deg, sol)
