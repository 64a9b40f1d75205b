"""Homogeneous bivariate polynomial arithmetic over C.

An HPoly of degree d stores d+1 complex coefficients with the convention
coeffs[i] * z^i * w^(d-i).  This module provides the algebraic substrate:
evaluation, products, pair composition, the Sylvester resultant, all-roots
finding on P^1 (companion-matrix eigenvalues with Newton polish and
chordal clustering for multiplicities), and an approximate gcd computed by
matching root clusters of the two inputs.  One batched companion kernel,
_companion_roots, serves both roots and the preimage slots of measure.

Independent work shares one fixed pool through _shared_map: the caller's
thread and at most one worker (separate from BLAS's).  It runs the halves of
a large companion batch or measure level, the sampler's chunks (each step of
which solves each distinct walk state once, the stream unchanged) and a
`converge` sweep's target and rows, each the serial loop's bit for bit.

Root clustering rather than a Euclidean remainder sequence is used for the
gcd because floating-point remainder sequences degrade exactly where these
computations live: near polynomial pairs with common factors.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULTS
from .errors import NumericalFailure
from .projline import (INFINITY, ZERO, ProjPoint, _merge_close, canonicalize,
                       canonicalize_rows, chordal_cross)


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
        """The HPoly of a to_json object; a ValueError names the first malformed field."""
        degree, c = _json_count(data, "degree"), data.get("coeffs")
        if not isinstance(c, list) or len(c) != degree + 1:
            raise ValueError(f"coeffs must be a list of degree + 1 = {degree + 1} pairs")
        for i, pair in enumerate(c):  # a bool is not a number, nor an int past the float range
            if not (isinstance(pair, list) and len(pair) == 2 and all(
                    type(x) in (int, float) and abs(x) <= sys.float_info.max for x in pair)):
                raise ValueError(f"coeffs[{i}] must be [re, im], two finite numbers, got {pair!r}")
        return HPoly.from_coeffs([complex(re, im) for re, im in c])

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


def _json_count(data, key):
    """data[key] of a JSON object data, which must be a non-negative integer (a bool is not)."""
    value = data.get(key) if isinstance(data, dict) else None
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{key} must be a non-negative integer in a JSON object, got {value!r}")
    return value


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


# Threads sharing independent work (the caller's plus one pool worker), capped
# at the usable cores.  eigvals drops the GIL and solves each matrix alone.
_THREADS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)
# Smallest companion size and batch that are split.  Median us per companion
# matrix, serial -> split, 2-core Xeon VM, BLAS on 1 thread: n=4 11.8 -> 8.0,
# n=5 18.3 -> 11.4, n=9 57.6 -> 34.6 at k=256; n=5 at k=192 and n=3 at k=256
# lost (18.8 -> 20.2, 6.5 -> 7.4); with the other core busy a split costs 2-9%.
# _SPLIT_LEVEL is the smallest level measure._pull_back solves in two halves.
# Median ms per F_T level (e = 2), serial -> split, same machine, worse of two
# runs: 512 rows 0.9 -> 1.7 and 1,024 rows 3.0 -> 3.3 lost; 2,048 rows
# 5.0 -> 4.3 and 8,192 rows 13.8 -> 11.6 won.
_SPLIT_N, _SPLIT_K, _SPLIT_LEVEL = 4, 256, 2048
_pool = None
if hasattr(os, "register_at_fork"):  # a forked child inherits no worker thread
    os.register_at_fork(after_in_child=lambda: globals().update(_pool=None))


def _shared_map(fn, items):
    """[fn(item) for item in items], the items shared between the caller's
    thread and the pool; the results, or the exception, of the serial loop.

    Every item but the first is queued on the pool.  The caller walks the
    items in order and runs each one the pool has not started (cancelling it
    there), so a task that calls _shared_map itself never waits on a queued
    task.  Once a task has failed nothing more starts; it returns or raises
    after every task the pool started has finished, and raises the exception
    of the earliest item that failed.
    """
    global _pool
    items = list(items)
    if _THREADS < 2 or len(items) < 2:
        return [fn(item) for item in items]
    from concurrent.futures import Future, wait

    if _pool is None:  # created on first use: the import costs ~5 ms at start-up
        from concurrent.futures import ThreadPoolExecutor

        _pool = ThreadPoolExecutor(_THREADS - 1)
    tasks = [None] + [_pool.submit(fn, item) for item in items[1:]]
    try:
        for i, item in enumerate(items):
            if tasks[i] is not None and not tasks[i].cancel():
                continue  # started on the pool
            if any(task.done() and task.exception() is not None for task in tasks[:i]):
                break
            tasks[i] = Future()
            try:
                tasks[i].set_result(fn(item))
            except Exception as exc:
                tasks[i].set_exception(exc)
                break
    finally:
        for task in tasks:
            if task is not None:
                task.cancel()
        wait([task for task in tasks if task is not None and not task.cancelled()])
    return [task.result() for task in tasks]


def _companion_roots(C):
    """Roots, as a (k, n) array, of the rows of C (k, n+1): ascending
    coefficients with a nonzero last entry.

    The eigenvalues of each row's monic companion matrix (the method of
    numpy.roots, backward stable by Edelman-Murakami, Math. Comp. 1995),
    in one batched eigvals call, or in two halves by _shared_map when the
    batch is large.
    """
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
    return np.concatenate(_shared_map(np.linalg.eigvals, [A[: k // 2], A[k // 2 :]]))


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
    dc = c[1:] * np.arange(1, len(c))
    z = z0
    for _ in range(6):
        dv = _horner_vec(dc, z)
        pv = _horner_vec(c, z)
        if abs(dv) < 1e-300:
            return z0
        z = z - pv / dv
    return z


def roots(P: HPoly, tol: float = 1e-8) -> list:
    """All d roots of P on P^1, as (ProjPoint, multiplicity) pairs by clustering.

    Leading coefficients below tol * (max modulus) contribute multiplicity at
    (1:0); exactly-zero trailing coefficients contribute at (0:1); the
    remaining dehomogenized core is solved by _companion_roots plus three
    Newton steps.  Each point is canonicalized once, when it is made (a
    second pass is not a no-op): the numeric roots by one canonicalize_rows
    call, the merged clusters by the one _merge_close (connected components
    of the chordal relation at radius max(tol, 1e-7)) that makes them.
    """
    if P.is_zero:
        raise ValueError("roots undefined for the zero polynomial")
    d = P.degree
    if d == 0:
        return []
    c = P.normalize().coeffs
    m_inf = 0
    while m_inf < d and abs(c[d - m_inf]) < tol:
        m_inf += 1
    m_zero = 0
    while m_zero + m_inf < d and c[m_zero] == 0:
        m_zero += 1
    core = c[m_zero : d - m_inf + 1]

    rows, mults = _rows([(pt, m) for pt, m in ((ZERO, m_zero), (INFINITY, m_inf)) if m])
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
        rows = np.concatenate([rows, canonicalize_rows(np.stack([x, np.ones_like(x)], 1))])
        mults = np.concatenate([mults, np.ones(len(x))])

    radius = max(tol, DEFAULTS.cluster_floor)
    refined = []
    for center, mult in _points(*_merge_close(rows, mults, radius)):
        if mult > 1 and len(core) > mult and not center.is_infinity and abs(center.w) > 0.1:
            z0 = center.ratio()
            z1 = _polish_multiple_root(core, z0, mult)
            if abs(z1 - z0) <= radius * (1 + abs(z0)):
                center = canonicalize(z1, 1.0)
        refined.append((center, mult))
    return _sorted_roots(refined)


def _rows(entries):
    """The canonical rows (n, 2) and multiplicities of (ProjPoint, mult) entries."""
    return (np.array([pt.as_array() for pt, _ in entries]).reshape(-1, 2),
            np.array([m for _, m in entries], dtype=float))


def _points(rows, mults):
    """(ProjPoint, int multiplicity) entries of canonical rows, taken as they are."""
    return [(ProjPoint(z, w), int(round(m))) for (z, w), m in zip(rows.tolist(), mults)]


def _sorted_roots(entries) -> list:
    return sorted(
        entries,
        key=lambda e: (e[0].is_infinity, round(e[0].z.real, 9), round(e[0].z.imag, 9)))


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

    The shared factor is decided on one chordal_cross table of P's root
    clusters against Q's: each P cluster in turn shares the smaller
    multiplicity with the nearest Q cluster that has some left (the lower
    index on a tie) while their distance is below tol.  The matched clusters
    of both sides merge in one _merge_close at roots' radius max(tol,
    cluster_floor); its components, canonical and not canonicalized again (a
    second pass is not a no-op), are the holes, and H is the monic-leading
    product over exactly those holes.  Only an H taken whole from P or Q (a
    zero or proportional pair) goes through roots.  p and q are cofactors
    with H*p ~ P and H*q ~ Q coefficientwise.  Raises NumericalFailure if a
    reconstruction residual exceeds tol: that signals cluster splitting, so
    callers should loosen tol (numeric m-fold roots spread like eps^(1/m)).
    """
    if not 0 < tol < 1:  # chordal distances lie in [0, 1]: a tol of 1 matches every pair
        raise ValueError(f"gcd tol must lie in (0, 1), got {tol!r}")
    if P.is_zero and Q.is_zero:
        raise ValueError("gcd undefined for two zero polynomials")
    if P.is_zero or Q.is_zero or projective_residual(P.coeffs, Q.coeffs) < 1e-12:
        # a zero or proportional pair: the gcd is the nonzero polynomial, taken
        # whole rather than matched (multiple roots would smear a matched H);
        # a zero polynomial fits to the constant 0
        H = (Q if P.is_zero else P).monic_leading()
        return (H, HPoly.constant(_fit_scale(H.coeffs, P.coeffs)),
                HPoly.constant(_fit_scale(H.coeffs, Q.coeffs)), roots(H, tol))

    (p_rows, p_mults), (q_rows, q_mults) = _rows(roots(P, tol)), _rows(roots(Q, tol))
    take = _match_clusters(chordal_cross(p_rows, q_rows), p_mults, q_mults, tol)
    # a matched pair puts half its shared multiplicity on each side
    shared = np.concatenate([take.sum(axis=1), take.sum(axis=0)]) / 2
    matched = shared > 0
    holes = _sorted_roots(_points(*_merge_close(
        np.concatenate([p_rows, q_rows])[matched], shared[matched],
        max(tol, DEFAULTS.cluster_floor))))

    H = HPoly.from_roots(holes).monic_leading()
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
    return H, p, q, holes


def _match_clusters(dist, p_mults, q_mults, tol):
    """numeric_gcd's greedy matching on the chordal table dist (P rows, Q
    columns): take[i, j] is the multiplicity P cluster i shares with Q's j."""
    take, left = np.zeros(dist.shape), np.array(q_mults, dtype=float)
    for i, need in enumerate(p_mults):
        while need > 0 and left.any():
            j = np.argmin(np.where(left > 0, dist[i], np.inf))
            if not dist[i, j] < tol:
                break
            take[i, j] = min(need, left[j])
            left[j] -= take[i, j]
            need -= take[i, j]
    return take


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
