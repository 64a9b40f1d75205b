"""Homogeneous bivariate polynomial arithmetic over C.

An HPoly of degree d stores d+1 complex coefficients with the convention
coeffs[i] * z^i * w^(d-i).  This module provides the algebraic substrate:
evaluation, products, pair composition, the Sylvester resultant, all-roots
finding on P^1 (companion-matrix eigenvalues with Newton polish and
chordal clustering for multiplicities), and an approximate gcd computed by
matching root clusters of the two inputs.  One batched companion kernel,
_companion_roots, serves both roots and the preimage slots of measure; it
may split a large batch over a fixed pool of at most two threads (separate
from the BLAS threads), and its results never depend on the thread count.

Root clustering rather than a Euclidean remainder sequence is used for the
gcd because floating-point remainder sequences degrade exactly where these
computations live: near polynomial pairs with common factors.
"""

from __future__ import annotations

import os
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
            return complex(z**d * _horner_vec(c[::-1], t))
        s = z / w
        return complex(w**d * _horner_vec(c, s))

    @staticmethod
    def _evaluate_vec(polys, z, w) -> list:
        """Each HPoly of polys at the rows of the complex arrays (z, w).

        evaluate's charts, chosen once per row for all of polys; a row
        (0, 0) gives 0 for positive degree.
        """
        zc = np.abs(z) >= np.abs(w)
        lead = np.where(zc, z, w)
        # lead == 0 only at (0, 0), where dividing by 1 instead leaves t = 0
        t = np.where(zc, w, z) / (lead + (lead == 0))
        return [
            lead**P.degree
            * _horner_vec(np.where(zc, P.coeffs[::-1, None], P.coeffs[:, None]), t)
            for P in polys
        ]

    def to_json(self):
        return {
            "degree": self.degree,
            "coeffs": [[re, im] for re, im in zip(self.coeffs.real.tolist(),
                                                   self.coeffs.imag.tolist())],
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


@dataclass
class RootList:
    """Roots on P^1 with multiplicities; multiplicities sum to the degree."""

    entries: list

    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.entries)

    def multiplicity_at(self, pt: ProjPoint, tol: float = DEFAULTS.hole_match) -> int:
        return sum(m for p, m in self.entries if chordal_distance(p, pt) <= tol)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


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


# Threads sharing a large eigvals batch (the caller's plus a worker), capped
# at the usable cores.  eigvals drops the GIL and solves each matrix alone.
_THREADS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)
# Smallest companion size and batch that are split.  Median us per companion
# matrix, serial -> split, 2-core Xeon VM, BLAS on 1 thread: n=4 11.8 -> 8.0,
# n=5 18.3 -> 11.4, n=9 57.6 -> 34.6 at k=256; n=5 at k=192 and n=3 at k=256
# lost (18.8 -> 20.2, 6.5 -> 7.4); with the other core busy a split costs 2-9%.
_SPLIT_N, _SPLIT_K = 4, 256
_pool = None
if hasattr(os, "register_at_fork"):  # a forked child inherits no worker thread
    os.register_at_fork(after_in_child=lambda: globals().update(_pool=None))


def _companion_roots(C):
    """Roots, as a (k, n) array, of the rows of C (k, n+1): ascending
    coefficients with a nonzero last entry.

    The eigenvalues of each row's monic companion matrix (the method of
    numpy.roots, backward stable by Edelman-Murakami, Math. Comp. 1995),
    in one batched eigvals call, or in two halves on two threads when the
    batch is large.
    """
    global _pool
    k, width = C.shape
    n = width - 1
    monic = C / C[:, -1:]
    A = np.zeros((k, n, n), dtype=complex)
    if n > 1:
        idx = np.arange(n - 1)
        A[:, idx + 1, idx] = 1.0
    A[:, :, -1] = -monic[:, :-1]
    if _THREADS < 2 or n < _SPLIT_N or k < _SPLIT_K:
        return np.linalg.eigvals(A)
    if _pool is None:  # created on first use: the import costs ~5 ms at start-up
        from concurrent.futures import ThreadPoolExecutor

        _pool = ThreadPoolExecutor(_THREADS - 1)
    top = _pool.submit(np.linalg.eigvals, A[: k // 2])
    low = np.linalg.eigvals(A[k // 2 :])
    return np.concatenate([top.result(), low])


def _horner_vec(coeffs_asc, x):
    """sum c[i] x^i for a scalar or an array x; a scalar x stays scalar."""
    acc = 0j
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
        dv = _horner_vec(dc, z)
        pv = _horner_vec(c, z)
        if abs(dv) < 1e-300:
            return z0
        z = z - pv / dv
    return z


def roots(P: HPoly, tol: float = 1e-8) -> RootList:
    """All d roots of P on P^1, with multiplicities assigned by clustering.

    Leading coefficients below tol * (max modulus) contribute multiplicity at
    (1:0); exactly-zero trailing coefficients contribute at (0:1); the
    remaining dehomogenized core is solved by _companion_roots plus three
    Newton steps, and the numeric roots are clustered (connected components
    of the chordal relation) at radius max(tol, 1e-7).
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
        monic = core / core[-1]
        dp = monic[1:] * np.arange(1, len(core))
        x = _companion_roots(core[None, :])[0]
        pv = _horner_vec(monic, x)
        # three Newton steps, each kept only where it lowers |p|: inside a
        # multiple root's cluster p' is round-off and a step can throw the
        # root far outside the clustering radius (a step through p' = 0 is
        # not finite, so it is not kept either)
        with np.errstate(all="ignore"):
            for _ in range(3):
                x1 = x - pv / _horner_vec(dp, x)
                pv1 = _horner_vec(monic, x1)
                keep = np.abs(pv1) < np.abs(pv)
                x, pv = np.where(keep, x1, x), np.where(keep, pv1, pv)
        raw.extend((canonicalize(r, 1.0), 1) for r in x)

    radius = max(tol, DEFAULTS.cluster_floor)
    refined = []
    for center, mult in _clusters(raw, radius):
        if mult > 1 and len(core) > mult and not center.is_infinity and abs(center.w) > 0.1:
            z0 = center.ratio()
            z1 = _polish_multiple_root(core, z0, mult)
            if abs(z1 - z0) <= radius * (1 + abs(z0)):
                center = canonicalize(z1, 1.0)
        refined.append((center, mult))
    return _sorted_roots(refined)


def _clusters(entries, radius):
    """Merge (ProjPoint, multiplicity) entries within chordal radius: a
    connected component becomes one entry at the multiplicity-weighted,
    phase-aligned mean of its members, with the summed multiplicity."""
    rows, mults = _merge_close(
        np.array([pt.as_array() for pt, _ in entries]).reshape(-1, 2),
        np.array([m for _, m in entries], dtype=float), radius)
    return [(canonicalize(z, w), int(round(m))) for (z, w), m in zip(rows, mults)]


def _sorted_roots(entries) -> RootList:
    return RootList(sorted(
        entries,
        key=lambda e: (e[0].is_infinity, round(e[0].z.real, 9), round(e[0].z.imag, 9))))


def vanishing_order(P: HPoly, pt: ProjPoint) -> int:
    """Order of vanishing of P at a projective point.

    Expands g(s) = P(u + s v) along a unit direction v orthogonal to u; the
    order is the first k whose |g_k| exceeds DEFAULTS.ramification times
    the largest |g_j|: smaller coefficients are taken as cancellation noise.
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
    cutoff = DEFAULTS.ramification * mods.max()
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


def count_zeros_in_disk(P: HPoly, center: ProjPoint, radius: float = 1e-2) -> int:
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
    theta = 2 * np.pi * np.arange(513) / 512  # 512 steps round the circle
    for _ in range(8):
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
    """Approximate gcd by root-cluster matching: returns (H, p, q, holes).

    H is the monic-leading product over matched root clusters (match =
    chordal distance < tol, shared multiplicity = min of the two); p and q
    are cofactors rebuilt from the unmatched roots with scales fitted so
    that H*p ~ P and H*q ~ Q coefficientwise.  holes is the RootList of H:
    the matched clusters merged at roots' clustering radius, so H, built
    from known roots, is not solved again; only an H taken whole from P or
    Q (a zero or proportional pair) goes through roots.  Raises
    NumericalFailure if a reconstruction residual exceeds tol: that signals
    cluster splitting, so callers should loosen tol (numeric m-fold roots
    spread like eps^(1/m)).
    """
    if P.is_zero and Q.is_zero:
        raise ValueError("gcd undefined for two zero polynomials")
    if P.is_zero or Q.is_zero:
        other = Q if P.is_zero else P
        H = other.monic_leading()
        lam = _fit_scale(H.coeffs, other.coeffs)
        s = HPoly.constant(lam)
        zero = HPoly.zero(0)
        p, q = (zero, s) if P.is_zero else (s, zero)
        return H, p, q, roots(H, tol)
    if projective_residual(P.coeffs, Q.coeffs) < 1e-12:
        # proportional pair: the gcd is the polynomial itself, taken whole
        # rather than matched (multiple roots would smear a matched H)
        H = P.monic_leading()
        return (H, HPoly.constant(_fit_scale(H.coeffs, P.coeffs)),
                HPoly.constant(_fit_scale(H.coeffs, Q.coeffs)), roots(H, tol))

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
    return H, p, q, _sorted_roots(_clusters(shared, max(tol, DEFAULTS.cluster_floor)))


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
