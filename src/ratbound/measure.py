"""Probability measures on P^1 attached to boundary points of Rat_d.

For degenerate f = H*phi (not on the indeterminacy locus) the limit measure
is atomic, supported on the holes and their phi-preimages:

    mu_f = sum_{n>=0} d^-(n+1) sum_i sum_{phi^n(z) = h_i} delta_z,

and when phi is constant simply mu_f = (1/d) sum_i depth_i delta_{h_i}.
Truncating the series at level N leaves exactly (e/d)^N of the mass, which
is carried as an explicit tail bound.  Individual point masses follow the
forward-orbit series

    mu_f({a}) = (1/d) sum_n m(phi^n(a)) depth(phi^n(a)) / d^n,

where m is the running product of local degrees along the orbit.

Maximal-entropy measures of nondegenerate maps are sampled by inverse
iteration: independent backward random walks choosing one of the d
preimages with multiplicity weights.  Weak convergence is quantified
against a fixed family of 1-Lipschitz test functions z -> chordal(z, c)
over a deterministic 32-point design (version 1: the two poles plus a
30-point Fibonacci sphere lattice); the design is frozen so distances are
reproducible across implementations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import combinations, islice

import numpy as np

from .config import DEFAULTS
from .errors import ExceptionalPointError, MathDomainError
from .hpoly import _companion_roots, _rows, _shared_map, roots
from .projline import (ProjPoint, _merge_close, _row_max, canonicalize_rows, chordal_cross,
                       chordal_distance, re_im)
from .ratmap import BoundaryMap, Decomposition, decompose, _depth_series, _fiber, _orbit_steps

DESIGN_VERSION = 1


@cache
def design_points() -> np.ndarray:
    """The frozen 32-point test family centers (version 1), as canonical rows."""
    pts = [[1.0, 0.0], [0.0, 1.0]]  # infinity and zero
    n = 30
    golden = math.pi * (3.0 - math.sqrt(5.0))
    for k in range(n):
        y = 1.0 - 2.0 * (k + 0.5) / n
        r = math.sqrt(max(1.0 - y * y, 0.0))
        theta = golden * k
        x1, x2 = r * math.cos(theta), r * math.sin(theta)
        zeta = complex(x1, x2) / (1.0 - y)
        pts.append([zeta, 1.0])
    design = canonicalize_rows(np.array(pts, dtype=complex))
    design.flags.writeable = False
    return design


@dataclass
class AtomicMeasure:
    """Finite weighted atom list with an explicit truncation tail bound."""

    points: np.ndarray = field(repr=False)  # (n, 2) canonical rows
    masses: np.ndarray = field(repr=False)  # (n,) positive
    tail_bound: float = 0.0
    note: str = ""

    def __post_init__(self):
        self.points = np.ascontiguousarray(self.points, dtype=complex).reshape(-1, 2)
        self.masses = np.asarray(self.masses, dtype=float).reshape(-1)
        if len(self.points) != len(self.masses):
            raise ValueError("points and masses length mismatch")

    def total_mass(self) -> float:
        return float(self.masses.sum())

    def to_json(self):
        return {
            "atoms": [{"point": point, "mass": m}
                      for point, m in zip(re_im(self.points).tolist(), self.masses.tolist())],
            "tail_bound": self.tail_bound,
            "note": self.note,
        }

    @staticmethod
    def from_json(data) -> "AtomicMeasure":
        """The measure of to_json's data, bit for bit: a row written canonical (unit norm
        and a positive real anchor, each within a few ulps) is kept as written, since a
        second canonicalization moves its last bits; any other row is canonicalized."""
        pts = np.empty((len(data["atoms"]), 2), dtype=complex)
        re_im(pts)[:] = np.reshape([a["point"] for a in data["atoms"]], (-1, 2, 2))
        z, w = pts[:, 0], pts[:, 1]
        eps = np.finfo(float).eps

        # canonicalize_rows anchors a tie |z| = |w| at z, and the phase
        # scaling can leave |w| an ulp above |z|: either coordinate is the
        # anchor whose modulus is the larger one within a few ulps
        def anchors(u, v):
            return ((u.real > 0) & (np.abs(u.imag) <= 4 * eps)
                    & (np.abs(u) >= np.abs(v) - 4 * eps))

        written = ((np.abs(np.abs(z) ** 2 + np.abs(w) ** 2 - 1) <= 8 * eps)
                   & (anchors(z, w) | anchors(w, z)))
        pts[~written] = canonicalize_rows(pts[~written])
        return AtomicMeasure(
            pts,
            np.array([a["mass"] for a in data["atoms"]], dtype=float),
            data.get("tail_bound", 0.0),
            data.get("note", ""),
        )


@dataclass
class EmpiricalMeasure:
    """A uniform cloud of backward-orbit endpoints; reproducible from its seed."""

    samples: np.ndarray = field(repr=False)  # (n, 2) canonical rows
    seed: int
    depth: int
    source: str = ""

    def __post_init__(self):
        self.samples = np.ascontiguousarray(self.samples, dtype=complex).reshape(-1, 2)
        if len(self.samples) == 0:
            raise ValueError("empirical measure needs at least one sample")

    @property
    def count(self) -> int:
        return len(self.samples)

    def total_mass(self) -> float:
        return 1.0

    def to_json(self):
        return {
            "samples": re_im(self.samples).tolist(),
            "seed": self.seed,
            "depth": self.depth,
            "count": self.count,
            "source": self.source,
        }


def _points_weights(mu):
    if isinstance(mu, AtomicMeasure):
        return mu.points, mu.masses
    if isinstance(mu, EmpiricalMeasure):
        n = mu.count
        return mu.samples, np.full(n, 1.0 / n)
    raise TypeError(f"not a measure: {type(mu).__name__}")


# ---------------------------------------------------------------------------
# preimages


def preimages(phi, a: ProjPoint) -> list:
    """Roots of the fiber polynomial over a (_fiber), by roots at tol 1e-10 (a
    leading coefficient below 1e-10 of the largest is a root at infinity);
    multiplicities sum to e."""
    fiber = _fiber(phi, a)
    if fiber.is_zero:
        raise ValueError("fiber polynomial vanished: pair is not coprime")
    return roots(fiber, 1e-10)


def batched_preimage_slots(phi, pts) -> np.ndarray:
    """Preimage slots under phi of each row of pts: (n, e, 2) representatives.

    Each row yields exactly e slots counted with multiplicity.  Rows are
    solved in whichever affine chart has the larger leading coefficient;
    rows degenerate in both charts fall back to the robust root finder.
    Callers canonicalize the slots they keep (canonicalize_rows works row by
    row, so a subset gets the bits it would get among all).
    """
    p, q = phi
    e = p.degree
    pts = np.asarray(pts, dtype=complex).reshape(-1, 2)
    n = len(pts)
    C = pts[:, 1:2] * p.coeffs[None, :] - pts[:, 0:1] * q.coeffs[None, :]
    mods = np.abs(C)
    rowmax = _row_max(mods)
    if np.any(rowmax == 0.0):
        raise ValueError("fiber polynomial vanished: pair is not coprime")
    lead_z = mods[:, -1]
    lead_w = mods[:, 0]
    floor = 1e-12 * rowmax
    use_z = (lead_z >= lead_w) & (lead_z > floor)
    use_w = (~use_z) & (lead_w > floor)
    fallback = ~(use_z | use_w)

    # the rows of both charts are one batch, whose work decides its split
    z_rows = np.count_nonzero(use_z)
    rts = _companion_roots(np.concatenate([C[use_z], C[use_w, ::-1]]))
    out = np.empty((n, e, 2), dtype=complex)
    out[use_z, :, 0] = rts[:z_rows]
    out[use_z, :, 1] = 1.0
    out[use_w, :, 0] = 1.0
    out[use_w, :, 1] = rts[z_rows:]
    for i in np.nonzero(fallback)[0]:
        out[i] = _exact_slots(phi, pts[i])
    return out


def _exact_slots(phi, row):
    """The preimage slots of one row by the robust root finder: a root of
    multiplicity m fills m equal slots."""
    a = ProjPoint(complex(row[0]), complex(row[1]))
    return [pt.as_array() for pt, mult in preimages(phi, a) for _ in range(mult)]


def _pull_back(phi, pts, masses):
    """One backward step: the phi-preimages of the rows, each with its row's mass.

    Batched eigenvalues split a multiple preimage by up to ~3e-8, more than
    pt, so a row with two slots within the root-clustering radius (the
    radius roots uses for multiplicities) is solved again by _exact_slots.
    Only siblings are tested: preimages of distinct nearby rows can lie
    closer than that radius and are distinct points.  The level's rows are
    one root batch, which only the root kernel may split.  The children are
    then merged at pt, which makes each multiple preimage one atom.
    """
    raw = batched_preimage_slots(phi, pts)
    n, e = raw.shape[:2]
    slots = canonicalize_rows(raw.reshape(-1, 2)).reshape(n, e, 2)
    z, w = slots[:, :, 0], slots[:, :, 1]
    split = np.zeros(len(slots), dtype=bool)
    for j, k in combinations(range(e), 2):
        split |= np.abs(z[:, j] * w[:, k] - z[:, k] * w[:, j]) <= DEFAULTS.cluster_floor
    for i in np.nonzero(split)[0]:
        slots[i] = _exact_slots(phi, pts[i])
    return merge_atoms(slots.reshape(-1, 2), np.repeat(masses, e))


# ---------------------------------------------------------------------------
# atom merging


def merge_atoms(points, masses):
    """Merge atoms within chordal pt (DEFAULTS.pt); masses add, location =
    weighted mean.

    A merged atom is a connected component of the relation "within chordal
    pt", so chains of close atoms merge whole and no grid edge splits one.
    Its location is the mass-weighted mean of the phase-aligned members;
    atoms close to no other come back unchanged and in their input order.
    """
    points = np.asarray(points, dtype=complex).reshape(-1, 2)
    masses = np.asarray(masses, dtype=float).reshape(-1)
    return _merge_close(points, masses, DEFAULTS.pt)


# ---------------------------------------------------------------------------
# the boundary measure and its point masses


# the rows boundary_measure holds before its final merge, and the terms of the
# forward-orbit series point_mass sums, at most
_MAX_ROWS = 400_000
_POINT_MASS_TERMS = 400


def boundary_measure(dec: Decomposition, tol: float = 1e-9) -> AtomicMeasure:
    """The atomic measure of a degenerate map, truncated with an exact tail.

    Levels n = 0, 1, ... contribute the phi^n-preimages of the holes at
    weight d^-(n+1); level n carries exactly (1 - e/d)(e/d)^n of the mass,
    so stopping after N levels leaves tail_bound = (e/d)^N.  Expansion also
    stops early if the next level would take its rows past _MAX_ROWS (the
    reported tail_bound always reflects the levels actually included).  tol
    must be positive: (e/d)^N underflows to 0, so no N reaches a tol <= 0.
    """
    if not tol > 0:
        raise ValueError(f"tail tol must be positive, got {tol}")
    d, e = dec.d, dec.e
    if not dec.degenerate:
        raise ValueError("map is nondegenerate: mu_f is not atomic, use sampling")
    note = "formal: measure map discontinuous here" if dec.indeterminate else ""
    hole_pts, depths = _rows(dec.holes)
    all_pts = [hole_pts]
    all_ms = [depths / d]
    total = len(hole_pts)
    level = 1
    while (e / d) ** level >= tol:
        if total + len(all_pts[-1]) * e > _MAX_ROWS:
            break
        pts, ms = _pull_back(dec.phi, all_pts[-1], all_ms[-1] / d)
        all_pts.append(pts)
        all_ms.append(ms)
        total += len(pts)
        level += 1

    pts, ms = np.concatenate(all_pts), np.concatenate(all_ms)
    del all_pts, all_ms
    pts, ms = merge_atoms(pts, ms)
    return AtomicMeasure(pts, ms, (e / d) ** level, note)


def point_mass(dec: Decomposition, a: ProjPoint, tol: float = 1e-12):
    """mu_f({a}) by the forward-orbit series; returns (mass, error_bound).

    The running multiplicity m is the product of local degrees of phi along
    the orbit; truncating after the d^-(k+1) term leaves at most m/d^(k+1),
    which is the returned geometric error bound.  The sum stops at the first
    bound below tol, or after _POINT_MASS_TERMS terms.  For e = 0 it is the
    first term, the depth of a as a hole over d (error 0).  tol must be finite.
    """
    if not math.isfinite(tol):
        raise ValueError(f"series tol must be finite, got {tol}")
    tol_exact = Fraction(tol)
    for mass, tail in islice(_depth_series(dec, a), _POINT_MASS_TERMS):
        if tail < tol_exact:
            break
    return float(mass), float(tail)


def pullback(dec: Decomposition, mu: AtomicMeasure, normalize: bool = False) -> AtomicMeasure:
    """f^* mu: phi-preimages of every atom plus one unit atom per hole depth.

    Unnormalized total mass is e*|mu| + sum(depths); pass normalize=True to
    divide by d (the operator whose unique fixed point is mu_f).
    """
    dec.off_locus("pullback")
    d, e = dec.d, dec.e
    hole_pts, depths = _rows(dec.holes)
    if e == 0:
        pts, ms = hole_pts, depths
    else:
        pts, ms = _pull_back(dec.phi, mu.points, mu.masses)
        pts = np.concatenate([pts, hole_pts])
        ms = np.concatenate([ms, depths])
    pts, ms = merge_atoms(pts, ms)
    scale = d if normalize else 1.0
    tail = mu.tail_bound * e / scale
    return AtomicMeasure(pts, ms / scale, tail, mu.note)


# ---------------------------------------------------------------------------
# inverse-iteration sampling


def backward_tree(f: BoundaryMap, a: ProjPoint, depth: int) -> AtomicMeasure:
    """Exact enumeration of f^-depth(a) with multiplicities, mass d^-depth each.

    Brute-force oracle for the sampler; feasible for d^depth up to ~10^5.
    """
    pts, ms = a.as_array()[None, :], np.ones(1)
    for _ in range(depth):
        pts, ms = _pull_back(f.pair(), pts, ms)
    return AtomicMeasure(pts, ms / f.d**depth, 0.0, "exact backward tree")


def sample_max_entropy(f: BoundaryMap, a: ProjPoint, depth: int, count: int,
                       seed: int, workers: int = 1,
                       gcd_tol: float = DEFAULTS.gcd) -> EmpiricalMeasure:
    """Inverse-iteration sample cloud of the maximal-entropy measure.

    Runs `count` independent backward orbits from a, at each step choosing
    one of the d preimages uniformly with multiplicity weights.  Orbits that
    made the same choices share a state, and a step solves each distinct
    state once (at most d^k at step k); the stream is unchanged, bit for bit
    that of one solve per orbit.  It depends on (seed, workers), never on
    the thread count: worker i draws from default_rng([seed, i]) and chunks
    are concatenated in worker order.  Its bits also depend on numpy's SIMD
    dispatch, whose complex product uses FMA on some CPUs and not on others.
    `workers` selects a partition of the random stream; the chunks are the
    items of one _shared_map call, and no thread is started per chunk.
    Degree d < 2 is a MathDomainError, an exceptional start a an
    ExceptionalPointError.
    """
    if depth < 1 or count < 1 or workers < 1:
        raise ValueError("depth, count and workers must be positive")
    dec = decompose(f, gcd_tol)
    if dec.degenerate:
        raise ValueError("sampling requires a nondegenerate map")
    if f.d < 2:
        raise MathDomainError("inverse-iteration sampling needs degree d >= 2")
    if _is_exceptional(dec, a):
        raise ExceptionalPointError("exceptional point")

    d, phi = f.d, f.pair()

    def chunk(widx):
        size = count // workers + (widx < count % workers)
        rng = np.random.default_rng([seed, widx])
        U, cls = a.as_array()[None, :], np.zeros(size, dtype=np.intp)
        for _ in range(depth):
            slots = batched_preimage_slots(phi, U)
            pick = rng.integers(0, d, size)
            keys, cls = np.unique(cls * d + pick, return_inverse=True)
            U = canonicalize_rows(slots[keys // d, keys % d])
        return U[cls]

    # workers past the count would draw nothing, so they are never visited
    samples = np.concatenate(_shared_map(chunk, range(min(workers, count))))
    return EmpiricalMeasure(
        samples, seed=seed, depth=depth,
        source=f"inverse-iteration d={f.d} count={count} workers={workers}",
    )


# ---------------------------------------------------------------------------
# weak distance and disk masses


def weak_distance(mu, nu) -> float:
    """max_j |int f_j dmu - int f_j dnu| over the frozen test family.

    The f_j(z) = chordal(z, c_j) are 1-Lipschitz, so this metrizes weak
    convergence up to the design resolution; symmetric and bounded by 1.
    """
    return float(np.abs(_design_integrals(mu) - _design_integrals(nu)).max())


def _design_integrals(mu) -> np.ndarray:
    """The vector of int f_j dmu over the frozen test family, for a total mass
    in [0.9, 1.1]; a sweep against one target computes the target's once."""
    t = mu.total_mass()
    if not 0.9 <= t <= 1.1:
        raise ValueError(f"total mass {t} outside [0.9, 1.1]")
    pts, wts = _points_weights(mu)
    return wts @ chordal_cross(pts, design_points())


def mass_in_disk(mu, center: ProjPoint, radius: float) -> float:
    """Total weight within chordal radius of the center."""
    pts, wts = _points_weights(mu)
    dist = chordal_cross(pts, center.as_array()[None, :])[:, 0]
    return float(wts[dist <= radius].sum())


# ---------------------------------------------------------------------------
# support report


def _is_exceptional(dec: Decomposition, a: ProjPoint) -> bool:
    """True iff phi maps a back to itself within chordal hole_match after one
    step or after two, and phi has local degree e at every point of that cycle.

    For e >= 2 a point with a finite grand orbit is exactly such a fixed
    point or 2-cycle point (Beardon, Iteration of Rational Functions, section
    4.1).  For e = 1 every point has local degree e, and the rule reads
    "period at most 2".
    """
    cycle = []
    for x, _, _, degree in islice(_orbit_steps(dec, a, degrees=True), 3):
        if cycle and chordal_distance(x, cycle[0]) <= DEFAULTS.hole_match:
            return True
        if degree != dec.e:
            return False
        cycle.append(x)
    return False


def support_report(dec: Decomposition):
    """Classify supp(mu_f) for degenerate f: J(f) vs the exceptional set.

    Reports which structural case applies: the exceptional-point test is
    the exact forward rule of _is_exceptional, and forward_orbit_probe
    counts the hole hits among the first 21 orbit points of each hole.  No
    claim is computed beyond the detected case.
    """
    if not dec.degenerate:
        raise ValueError("support report applies to degenerate maps")
    rep = {
        "e": dec.e,
        "holes": [{"point": pt.to_json(), "depth": m} for pt, m in dec.holes],
    }
    if dec.e == 0:
        rep["case"] = "constant"
        rep["claim"] = "J(phi) is empty; supp mu_f is the hole set itself"
        return rep
    witness = next((pt for pt, _ in dec.holes if not _is_exceptional(dec, pt)), None)
    orbits = {}
    for pt, _ in dec.holes:
        orbit = list(islice(_orbit_steps(dec, pt), 21))
        hits = sum(1 for _, depth, _ in orbit if depth)
        orbits[repr(pt)] = {"length": len(orbit), "hole_hits": hits}
    rep["forward_orbit_probe"] = orbits
    if witness is not None:
        rep["case"] = "non-exceptional hole"
        rep["witness_hole"] = witness.to_json()
        rep["claim"] = "a hole is non-exceptional for phi, so supp mu_f = J(f)"
    else:
        rep["case"] = "all holes exceptional"
        rep["claim"] = "supp mu_f is contained in the exceptional set of phi"
    return rep
