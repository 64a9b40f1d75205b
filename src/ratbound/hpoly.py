"""Homogeneous bivariate polynomial arithmetic over C.

An HPoly holds only its d+1 complex coefficients, coeffs[i] * z^i * w^(d-i),
and reads its degree d off their count; HPoly(coeffs) is the one constructor
from coefficients.  This module provides the algebraic substrate: evaluation,
products, composition, the Sylvester resultant, all-roots finding on P^1
(companion-matrix eigenvalues with Newton polish and chordal clustering for
multiplicities), and an approximate gcd computed by matching root clusters
of the two inputs.  Each operation has one implementation: substitute
composes polynomials with a pair from one table of the pair's powers, and one
batched companion kernel, _companion_roots, serves both roots and the
preimage slots of measure.

Independent work shares one fixed pool through _shared_map, an in-order queue
that the caller's thread and one pool task (separate from BLAS's threads) drain:
the halves of a companion batch whose work k * n**2 reaches _SPLIT_WORK (the
only place a row batch is split), the sampler's chunks and a `converge` sweep's
target and rows, each the serial loop's bit for bit.

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
                       canonicalize_rows, chordal_cross, re_im)


@dataclass(frozen=True, eq=False)
class HPoly:
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=complex)
        if c.ndim != 1 or not len(c):
            raise ValueError(f"coefficients must be a non-empty 1-D array, got shape {c.shape}")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(degree: int) -> "HPoly":
        return HPoly(np.zeros(degree + 1, dtype=complex))

    @staticmethod
    def constant(value: complex) -> "HPoly":
        return HPoly(np.array([value], dtype=complex))

    @staticmethod
    def z() -> "HPoly":
        return HPoly([0, 1])

    @staticmethod
    def w() -> "HPoly":
        return HPoly([1, 0])

    @staticmethod
    def from_roots(entries, scale: complex = 1.0) -> "HPoly":
        """scale * prod (w_r z - z_r w)^mult over entries [(ProjPoint, mult)]."""
        out = np.array([complex(scale)])
        for pt, mult in entries:
            factor = np.array([-pt.z, pt.w], dtype=complex)
            for _ in range(int(mult)):
                out = np.convolve(out, factor)
        return HPoly(out)

    # -- basic structure ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def max_modulus(self) -> float:
        return float(np.abs(self.coeffs).max())

    def normalize(self) -> "HPoly":
        """Scale so the largest coefficient modulus is 1 (zero poly unchanged)."""
        m = self.max_modulus()
        if m == 0.0:
            return self
        return HPoly(self.coeffs / m)

    def monic_leading(self) -> "HPoly":
        """Divide by the topmost coefficient of non-negligible modulus."""
        if self.is_zero:
            return self
        mods = np.abs(self.coeffs)
        lead = np.flatnonzero(mods > 1e-12 * mods.max())[-1]
        return HPoly(self.coeffs / self.coeffs[lead])

    def __mul__(self, other):
        if isinstance(other, HPoly):
            return HPoly(np.convolve(self.coeffs, other.coeffs))
        return HPoly(self.coeffs * complex(other))

    __rmul__ = __mul__

    def __add__(self, other: "HPoly") -> "HPoly":
        if self.degree != other.degree:
            raise ValueError("can only add equal-degree homogeneous polynomials")
        return HPoly(self.coeffs + other.coeffs)

    def __sub__(self, other: "HPoly") -> "HPoly":
        return self + (-1) * other

    def __pow__(self, n: int) -> "HPoly":
        """self ** n by repeated squaring, stopped by NumericalFailure at a non-finite square."""
        if n < 0:
            raise ValueError("negative power")
        result = HPoly.constant(1.0)
        base = self
        while n:
            if n & 1:
                result = result * base
            if n > 1:
                base = base * base
                if not np.isfinite(base.coeffs).all():
                    raise NumericalFailure(f"a degree-{base.degree} square overflowed")
            n >>= 1
        return result

    def derivative_z(self) -> "HPoly":
        return HPoly(_dz(self.coeffs)) if self.degree else HPoly.constant(0.0)

    def derivative_w(self) -> "HPoly":  # derivative_z of the reversed coefficients, reversed
        return HPoly(_dz(self.coeffs[::-1])[::-1]) if self.degree else HPoly.constant(0.0)

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

        evaluate's charts, chosen once per row for all of polys, and the
        chart's leading power once per distinct degree; a row (0, 0) gives 0
        for positive degree.  The Horner value is named, so numpy never reuses
        it in place, which swaps the product's operands (under FMA, bits that
        depend on the batch size).
        """
        zc = np.abs(z) >= np.abs(w)
        lead = np.where(zc, z, w)
        # lead == 0 only at (0, 0), where dividing by 1 instead leaves t = 0
        t = np.where(zc, w, z) / (lead + (lead == 0))
        powers = {d: lead**d for d in {P.degree for P in polys}}
        out = []
        for P in polys:
            value = _horner_vec(np.where(zc, P.coeffs[::-1, None], P.coeffs[:, None]), t)
            out.append(powers[P.degree] * value)
        return out

    def to_json(self):
        return {"degree": self.degree, "coeffs": re_im(self.coeffs).tolist()}

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
        coeffs = np.empty(len(c), dtype=complex)
        re_im(coeffs)[:] = c
        return HPoly(coeffs)

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


def substitute(polys, p: HPoly, q: HPoly) -> list:
    """[P(p(z,w), q(z,w)) for P in polys], deg p = deg q = e: the sum over P's
    nonzero c_i of c_i p^i q^(d-i), of degree d*e for a degree-d P.

    The power tables p^i and q^j are built once, up to the largest degree in
    polys, and every composite reads them.
    """
    if p.degree != q.degree:
        raise ValueError("substituted pair must have equal degrees")
    e, one = p.degree, np.array([1.0 + 0j])
    p_pows, q_pows = [one], [one]
    for _ in range(max(P.degree for P in polys)):
        p_pows.append(np.convolve(p_pows[-1], p.coeffs))
        q_pows.append(np.convolve(q_pows[-1], q.coeffs))
    out = []
    for P in polys:
        d = P.degree
        acc = np.zeros(d * e + 1, dtype=complex)
        for i, c in enumerate(P.coeffs):
            if c != 0:
                term = np.convolve(p_pows[i], q_pows[d - i])
                acc[: len(term)] += c * term
        out.append(HPoly(acc))
    return out


def compose_pair(F, G):
    """F o G for pairs of equal-degree homogeneous polynomials, by one substitute."""
    if F[0].degree != F[1].degree:
        raise ValueError("F components must have equal degree")
    return tuple(substitute(F, *G))


def wronskian(pair) -> HPoly:
    """P_z Q_w - P_w Q_z; its roots are the critical points of (P:Q)."""
    P, Q = pair
    return P.derivative_z() * Q.derivative_w() - P.derivative_w() * Q.derivative_z()


# ---------------------------------------------------------------------------
# resultant


_SYLVESTER_MAX = 2048  # rows: 2,048^2 complex entries take 64 MiB


def resultant(P: HPoly, Q: HPoly) -> complex:
    """Sylvester determinant; vanishes iff P and Q share a root on P^1.

    A shared root at (1:0) (both leading coefficients vanishing) zeroes the
    first column, so the convention covers infinity without special casing.
    The dense matrix has (m + n)^2 entries: past _SYLVESTER_MAX rows it is a
    NumericalFailure, raised before any allocation.  Two constants give the
    0 x 0 matrix, whose determinant is 1.
    """
    m, n = P.degree, Q.degree
    if m + n > _SYLVESTER_MAX:
        raise NumericalFailure(f"resultant: a {m + n} x {m + n} Sylvester matrix exceeds "
                               f"{_SYLVESTER_MAX} rows")
    # numpy's det takes log|u| of each pivot u of the LU factors: an exact zero pivot that
    # getrf does not report (OpenBLAS misses some, as for resultant(P, P)) is a divide by
    # zero there, and the Sylvester matrix is singular
    try:
        with np.errstate(divide="raise"):
            return complex(np.linalg.det(_sylvester(P, Q)))
    except FloatingPointError:
        return 0j


def _sylvester(P: HPoly, Q: HPoly) -> np.ndarray:
    """The Sylvester matrix of P and Q, rows of z-descending coefficients."""
    m, n = P.degree, Q.degree
    S = np.zeros((m + n, m + n), dtype=complex)
    for r in range(n):
        S[r, r : r + m + 1] = P.coeffs[::-1]
    for r in range(m):
        S[n + r, r : r + n + 1] = Q.coeffs[::-1]
    return S


def projective_residual(a, b) -> float:
    """min over lambda of ||a - lambda b|| / ||a|| for coefficient vectors."""
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:  # 0 for two zero vectors, 1 for one
        return 0.0 if na == nb else 1.0
    return _relative_residual(a, _fit_scale(b, a) * b)


def _relative_residual(target, approx) -> float:
    """||target - approx|| / ||target||, in the 2-norm, for a nonzero target."""
    return float(np.linalg.norm(target - approx) / np.linalg.norm(target))


# ---------------------------------------------------------------------------
# root finding


# Threads sharing independent work (the caller's plus one pool worker), capped
# at the usable cores.  eigvals drops the GIL and solves each matrix alone.
_THREADS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)
# Smallest batch work k * n**2 (k companion matrices of size n) that is split.
# Serial -> split, 2-core Xeon VM, BLAS on 1 thread: per matrix n=5 18.3 -> 11.4
# us and n=9 57.6 -> 34.6 us at k=256 (work 6,400 and 20,736); an F_T level
# (n=2), split whole, 5.0 -> 4.3 ms at 2,048 rows (8,192).  Lost: n=5 at k=192
# (4,800), n=3 at k=256 (2,304) and F_T levels of 1,024 rows (4,096).  n=4 at
# k=256 (4,096) won, 11.8 -> 8.0 us, and is given up; with the other core busy
# a split costs 2-9%.
_SPLIT_WORK = 6400
_pool = None
if hasattr(os, "register_at_fork"):  # a forked child inherits no worker thread
    os.register_at_fork(after_in_child=lambda: globals().update(_pool=None))


def _shared_map(fn, items):
    """[fn(item) for item in items], shared between the caller's thread and one
    pool task: the results, or the exception, of the serial loop.

    Both run drain, which takes the next untaken item and stores its result or
    exception by index; once an item has failed nothing more is taken, so every
    item before the earliest failure has run, and that failure is raised.  The
    caller cancels the pool task if it never started, or waits for it: a nested
    call never waits on a queued task, and nothing outlives the call.
    """
    global _pool
    items = list(items)
    if _THREADS < 2 or len(items) < 2:
        return [fn(item) for item in items]
    if _pool is None:  # created on first use: the import costs ~5 ms at start-up
        from concurrent.futures import ThreadPoolExecutor

        _pool = ThreadPoolExecutor(_THREADS - 1)
    out, errors, todo = [None] * len(items), {}, list(reversed(range(len(items))))

    def drain():  # list.pop and list.clear are atomic: no item is taken twice or after a failure
        while True:
            try:
                i = todo.pop()
            except IndexError:
                return
            try:
                out[i] = fn(items[i])
            except BaseException as exc:
                errors[i] = exc
                todo.clear()

    task = _pool.submit(drain)
    try:
        drain()
    finally:
        todo.clear()  # a caller interrupted outside fn leaves the pool task nothing to take
        if not task.cancel():
            task.result()
    if errors:
        raise errors[min(errors)]
    return out


def _companion_roots(C):
    """Roots, as a (k, n) array, of the rows of C (k, n+1): ascending
    coefficients with a nonzero last entry.

    The eigenvalues of each row's monic companion matrix (the method of
    numpy.roots, backward stable by Edelman-Murakami, Math. Comp. 1995),
    in one batched eigvals call, or in two halves by _shared_map when the
    batch's work k * n**2 reaches _SPLIT_WORK.  This is the one place a row
    batch is split: eigvals solves each matrix alone, so the halves give the
    bits of one pass.
    """
    k, width = C.shape
    n = width - 1
    A = np.zeros((k, n, n), dtype=complex)
    A.reshape(k, n * n)[:, n :: n + 1] = 1.0  # the subdiagonal
    A[:, :, -1] = -(C[:, :-1] / C[:, -1:])
    if _THREADS < 2 or k < 2 or k * n * n < _SPLIT_WORK:
        return np.linalg.eigvals(A)
    return np.concatenate(_shared_map(np.linalg.eigvals, [A[: k // 2], A[k // 2 :]]))


def _dz(c):
    """The z-derivative c[1:] * (1, 2, ...) of the ascending coefficients c."""
    return c[1:] * np.arange(1, len(c))


def _horner_vec(coeffs_asc, x):
    """sum c[i] x^i for a scalar or an array x, shaped as x, from the leading coefficient."""
    if len(coeffs_asc) == 1:
        return np.full(np.shape(x), coeffs_asc[0])
    acc = coeffs_asc[-1]
    for c in coeffs_asc[-2::-1]:
        acc = acc * x + c
    return acc


def _polish_multiple_root(core, z0, mult):
    """Newton-refine a multiplicity-m cluster center on d^(m-1)p/dz^(m-1)."""
    c = np.asarray(core, dtype=complex)
    for _ in range(mult - 1):
        c = _dz(c)
    dc = _dz(c)
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
    Newton steps, each evaluating p and p' in one Horner pass over a stacked
    table (p' padded with a +0 top coefficient, bit for bit its own pass).
    Each point is canonicalized once, when it is made (a second pass is not a
    no-op): the numeric roots by one canonicalize_rows call, the merged ones
    by the _merge_close (chordal components at max(tol, 1e-7)) that makes them.
    A constant has no roots: its one-coefficient core leaves nothing to solve.
    """
    if not tol > 0:  # a zero leading coefficient is below no tol <= 0: it would reach the solver
        raise ValueError(f"roots tol must be positive, got {tol!r}")
    if P.is_zero:
        raise ValueError("roots undefined for the zero polynomial")
    d = P.degree
    c = P.coeffs / P.max_modulus()
    m_inf = 0
    while m_inf < d and abs(c[d - m_inf]) < tol:
        m_inf += 1
    m_zero = 0
    while m_zero + m_inf < d and c[m_zero] == 0:
        m_zero += 1
    core = c[m_zero : d - m_inf + 1]

    rows, mults = _rows([(pt, m) for pt, m in ((ZERO, m_zero), (INFINITY, m_inf)) if m])
    if len(core) > 1:
        k = len(core) - 1  # p's and p''s coefficients side by side, repeated for the k roots
        table = np.zeros((k + 1, 2 * k), dtype=complex)
        table[:, :k] = (monic := core / core[-1])[:, None]
        table[:-1, k:] = _dz(monic)[:, None]
        x = _companion_roots(core[None, :])[0]
        pv = _horner_vec(table, np.concatenate([x, x])).reshape(2, k)
        # three Newton steps, each kept only where it lowers |p|: inside a
        # multiple root's cluster p' is round-off and a step can throw the
        # root far outside the clustering radius (a step through p' = 0 is
        # not finite, so it is not kept either)
        with np.errstate(all="ignore"):
            for _ in range(3):
                x1 = x - pv[0] / pv[1]
                pv1 = _horner_vec(table, np.concatenate([x1, x1])).reshape(2, k)
                keep = np.abs(pv1[0]) < np.abs(pv[0])
                x, pv = np.where(keep, x1, x), np.where(keep, pv1, pv)
        rows = np.concatenate([rows, canonicalize_rows(np.column_stack([x, np.ones(k)]))])
        mults = np.concatenate([mults, np.ones(k)])

    radius = max(tol, DEFAULTS.cluster_floor)
    refined = []
    for i, (center, mult) in enumerate(_points(*_merge_close(rows, mults, radius))):
        # the cluster holding the exact root at (0:1), row 0 whenever m_zero > 0, is not
        # polished: the core, whose derivative the polish walks, does not have that root
        exact = i == 0 and m_zero
        if (mult > 1 and len(core) > mult and not exact and not center.is_infinity
                and abs(center.w) > 0.1):
            z0 = center.ratio()
            z1 = _polish_multiple_root(core, z0, mult)
            if abs(z1 - z0) <= radius * (1 + abs(z0)):
                center = canonicalize(z1, 1.0)
        refined.append((center, mult))
    return _sorted_roots(refined)


def _rows(entries):
    """The canonical rows (n, 2) and multiplicities of (ProjPoint, mult) entries."""
    return (np.array([(pt.z, pt.w) for pt, _ in entries], dtype=complex).reshape(-1, 2),
            np.array([m for _, m in entries], dtype=float))


def _points(rows, mults):
    """(ProjPoint, int multiplicity) entries of canonical rows, taken as they are."""
    return [(ProjPoint(z, w), round(m)) for (z, w), m in zip(rows.tolist(), mults.tolist())]


def _sorted_roots(entries) -> list:
    return sorted(
        entries,
        key=lambda e: (e[0].is_infinity, round(e[0].z.real, 9), round(e[0].z.imag, 9)))


def _rotated(P: HPoly, pt: ProjPoint) -> HPoly:
    """P(U^-1 (z, w)) for the unitary U sending pt = u to (0:1): its coefficient k
    is the k-th Taylor coefficient g_k of s -> P(u + s v), v = (-conj w, conj z)."""
    A = HPoly([pt.z, -np.conj(pt.w)])
    B = HPoly([pt.w, np.conj(pt.z)])
    return substitute([P], A, B)[0]


def vanishing_order(P: HPoly, pt: ProjPoint) -> int:
    """Order of vanishing of P at a projective point.

    Read off the Taylor coefficients g_k of the rotated polynomial
    (_rotated): the first k whose |g_k| exceeds DEFAULTS.ramification times
    the largest |g_j|; smaller coefficients are taken as cancellation noise.
    """
    if P.is_zero:
        return P.degree + 1
    mods = np.abs(_rotated(P, pt).coeffs)
    above = np.flatnonzero(mods > DEFAULTS.ramification * mods.max())
    return int(above[0]) if len(above) else P.degree


def count_zeros_in_disk(P: HPoly, center: ProjPoint, radius: float = 1e-2) -> int:
    """Zeros of P (with multiplicity) in a small disk, by the argument
    principle.

    The winding number of the rotated polynomial (_rotated, which sends the
    center to (0:1)), evaluated from its Taylor coefficients, is counted
    along an affine circle of the given radius.  Being evaluation-based,
    this reads multiplicities of high-degree products whose coefficient
    dynamic range defeats threshold tests.  Chordal and affine radii agree
    to O(radius^2); keep radius below the root separation.
    """
    if P.is_zero:
        raise ValueError("zero polynomial")
    rotated = _rotated(P.normalize(), center)
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
        resid = _relative_residual(target.coeffs, (H * cof).coeffs)
        if resid > tol:
            raise NumericalFailure(
                f"gcd reconstruction residual {resid:.3e} exceeds tol {tol:.1e} on {name}; "
                "root clusters may have split -- loosen tol"
            )
    return H, p, q, holes


def _match_clusters(dist, p_mults, q_mults, tol):
    """numeric_gcd's greedy matching on the chordal table dist (P rows, Q
    columns), walked as lists: take[i, j] is the multiplicity P cluster i shares with Q's j."""
    take, left = np.zeros(dist.shape), [float(m) for m in q_mults]
    for i, (row, need) in enumerate(zip(dist.tolist(), p_mults)):
        while need > 0 and (open_ := [j for j, m in enumerate(left) if m > 0]):
            j = min(open_, key=row.__getitem__)  # the first of equals, as argmin
            if not row[j] < tol:
                break
            take[i, j] = t = min(need, left[j])
            left[j] -= t
            need -= t
    return take


def _fit_scale(basis, target):
    """The least-squares scale c with c * basis ~ target, for a nonzero basis."""
    return complex(np.vdot(basis, target) / np.vdot(basis, basis))


def _deconvolve(H: HPoly, target: HPoly) -> HPoly:
    """Least-squares cofactor c with H * c ~ target."""
    deg = target.degree - H.degree
    A = np.zeros((target.degree + 1, deg + 1), dtype=complex)
    for j in range(deg + 1):
        A[j : j + H.degree + 1, j] = H.coeffs
    sol, *_ = np.linalg.lstsq(A, target.coeffs, rcond=None)
    return HPoly(sol)
