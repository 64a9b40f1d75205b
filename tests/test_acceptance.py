"""Acceptance criteria: one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; criteria with runtime budgets include the elapsed time in the check.
"""

import time
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

from ratbound import (
    INFINITY,
    ZERO,
    AtomicMeasure,
    BoundaryMap,
    HPoly,
    IndeterminateMapError,
    backward_tree,
    boundary_measure,
    canonicalize,
    compose_pair,
    decompose,
    escape_rate,
    escape_rate_constant_case,
    functional_equation_residual,
    hole_depth_sequence,
    is_indeterminate,
    iterate_direct,
    iterate_formula,
    map_residual,
    mass_in_disk,
    point_mass,
    pullback,
    resultant,
    sample_max_entropy,
    weak_distance,
)
from ratbound import families as fam
from ratbound.ratmap import _depth_series


def hp(*coeffs):
    return HPoly.from_coeffs(coeffs)


def report(num, desc, ok, elapsed=None):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({elapsed:.2f} s)" if elapsed is not None else ""
    print(f"\n[{status}] criterion {num}: {desc}{suffix}")
    assert ok, f"criterion {num} failed: {desc}"


def random_rat2(rng, min_res=1e-3):
    while True:
        c = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        f = BoundaryMap(2, hp(*c[0]), hp(*c[1]))
        if abs(resultant(f.P, f.Q)) > min_res:
            return f


# -- criterion 1: exact point masses ------------------------------------------


@pytest.mark.parametrize(
    "label,builder,at,expected",
    [
        ("example1 d=3 mass at infinity = 1/4",
         lambda: decompose(fam.example1_second_limit(3, a=0.4), 1e-4),
         INFINITY, Fraction(1, 4)),
        ("example1 d=3 a=alpha mass at 0 = 1/12",
         lambda: decompose(fam.example1_second_limit(3, a=1.0), 1e-4),
         ZERO, Fraction(1, 12)),
        ("example2 d=4 k=2 mass at infinity = 2/5",
         lambda: decompose(fam.example2_second_limit(4, 2, a=0.7), 1e-4),
         INFINITY, Fraction(2, 5)),
        ("epstein F_T T=1 mass at infinity = 1/3",
         lambda: decompose(fam.make_epstein_FT(1.0), 1e-6),
         INFINITY, Fraction(1, 3)),
    ],
)
def test_criterion_1_point_masses(label, builder, at, expected):
    t0 = time.perf_counter()
    dec = builder()
    mass, err = point_mass(dec, at, 1e-12)
    elapsed = time.perf_counter() - t0
    ok = abs(mass - float(expected)) < 1e-9 and elapsed < 1.0
    if "example2" in label:
        ok = ok and float(expected) > 2 / 6  # k/(d+1) > k/(d+k)
    report(1, label, ok, elapsed)


# -- criterion 2: iterate-formula oracle ---------------------------------------


def test_criterion_2_iterate_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(20):
        f = random_rat2(rng)
        for n in (2, 3):
            r = map_residual(iterate_formula(f, n), iterate_direct(f, n))
            worst = max(worst, r)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 5.0
    report(2, f"iterate formula vs direct composition, worst residual {worst:.2e}",
           ok, elapsed)


# -- criterion 3: theorem-2 equivalence ----------------------------------------


def _iterate_errors(f, n):
    try:
        iterate_formula(f, n)
        return False
    except IndeterminateMapError:
        return True


def test_criterion_3_indeterminacy_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    members, non_members = [], []
    # constant maps f = (aH : bH) with (a:b) a root of H, over d = 1, 2, 3
    for d, count in ((1, 3), (2, 4), (3, 3)):
        for _ in range(count):
            root = canonicalize(rng.standard_normal() + 1j * rng.standard_normal(), 1)
            rest = [
                (canonicalize(rng.standard_normal() + 3 + 1j * rng.standard_normal(), 1), 1)
                for _ in range(d - 1)
            ]
            H = HPoly.from_roots([(root, 1)] + rest)
            members.append(BoundaryMap(d, root.z * H, root.w * H))
            off = canonicalize(root.z + 0.003 * (1 + 1j), root.w)
            non_members.append(BoundaryMap(d, off.z * H, off.w * H))
    # near-boundary non-members from the example families
    non_members = non_members[:5]
    for t in (1e-3, 3e-3, 1e-2, 3e-2, 1e-1):
        non_members.append(fam.make_example1(2, a=0.5, t=t))
    agreements = 0
    for f in members:
        verdict = is_indeterminate(f)
        if verdict and _iterate_errors(f, 2) and _iterate_errors(f, 3):
            agreements += 1
    for f in non_members:
        verdict = is_indeterminate(f)
        if not verdict and not _iterate_errors(f, 2) and not _iterate_errors(f, 3):
            agreements += 1
    elapsed = time.perf_counter() - t0
    ok = agreements == 20
    report(3, f"I(d) membership == iterate blow-up in {agreements}/20 cases", ok, elapsed)


# -- criterion 4: hole-depth monotonicity --------------------------------------


def test_criterion_4_hole_depth_monotonicity():
    t0 = time.perf_counter()
    ok = True
    details = []
    for d in (2, 3):
        fa = fam.example1_second_limit(d, a=0.4)
        dec = decompose(fa, 1e-4)
        seq = hole_depth_sequence(fa, INFINITY, 6, 1e-4)
        mono = all(b >= a for a, b in zip(seq, seq[1:]))
        mass, _ = point_mass(dec, INFINITY, 1e-14)
        tail = list(islice(_depth_series(dec, INFINITY), 6))[5][1]  # T_5 = m_6/(d^2)^6
        sandwich = (float(seq[-1]) <= mass + 1e-10
                    and mass <= float(seq[-1] + tail) + 1e-10)
        ok = ok and mono and sandwich
        details.append(f"d={d} last={float(seq[-1]):.6f}")
    elapsed = time.perf_counter() - t0
    report(4, "depth sequence nondecreasing and within tail of the mass ("
           + ", ".join(details) + ")", ok, elapsed)


# -- criteria 5 and 6: theorem 1 numerically ------------------------------------


@pytest.fixture(scope="module")
def example1_sweep():
    t0 = time.perf_counter()
    d, a = 2, 0.5
    fa = fam.example1_second_limit(d, a)
    mu = boundary_measure(decompose(fa, 1e-4), tol=1e-6)
    rows = []
    for t in (1e-1, 1e-2, 1e-3, 1e-4):
        g = fam.make_example1(d, a, t)
        emp = sample_max_entropy(
            g, canonicalize(0.3 + 0.2j, 1), depth=20, count=10_000, seed=2026
        )
        rows.append((t, emp, weak_distance(emp, mu)))
    return mu, rows, time.perf_counter() - t0


def test_criterion_5_measure_convergence(example1_sweep):
    mu, rows, elapsed = example1_sweep
    dists = [r[2] for r in rows]
    ok = dists[-1] < dists[0] and dists[-1] < 0.1 and elapsed < 120.0
    report(5, "weak distances along t sweep "
           + ", ".join(f"{t:g}: {dd:.4f}" for t, _, dd in rows), ok, elapsed)


def test_criterion_6_mass_lower_bound(example1_sweep):
    _, rows, _ = example1_sweep
    t0 = time.perf_counter()
    _, emp, _ = rows[-1]
    md = mass_in_disk(emp, INFINITY, 0.1)
    floor = 1 / 3 - 0.05
    ok = md >= floor
    report(6, f"empirical mass near infinity at t=1e-4: {md:.4f} >= {floor:.4f}",
           ok, time.perf_counter() - t0)


# -- criterion 7: properness ----------------------------------------------------


def test_criterion_7_properness():
    t0 = time.perf_counter()
    res = {}
    for t in (1e-1, 1e-3):
        g = fam.make_example1(2, a=0.5, t=t)
        g2 = iterate_formula(g, 2)
        res[t] = abs(resultant(g2.P, g2.Q))
    drop = res[1e-1] / res[1e-3]
    # d = 1 family (kw : z): second iterate is the identity for every k
    vals = []
    for k in (2.0, 10.0, 100.0):
        f = BoundaryMap(1, k * HPoly.w(), HPoly.z())
        f2 = iterate_formula(f, 2)
        vals.append(abs(resultant(f2.P, f2.Q)))
    constant = max(vals) - min(vals) < 1e-12
    elapsed = time.perf_counter() - t0
    ok = drop >= 100 and constant
    report(7, f"|Res(f_t^2)| drops by {drop:.1e} over t=1e-1..1e-3; "
           f"d=1 family constant ({constant})", ok, elapsed)


# -- criterion 8: pullback fixed point -------------------------------------------


def test_criterion_8_pullback_fixed_point():
    t0 = time.perf_counter()
    fa = fam.example1_second_limit(2, a=0.5)
    dec = decompose(fa, 1e-4)
    mu = boundary_measure(dec, tol=1e-10)
    pb = pullback(dec, mu, normalize=True)
    dist = weak_distance(pb, mu)
    elapsed = time.perf_counter() - t0
    ok = dist < 0.02
    report(8, f"weak_distance(pullback(mu)/d^2, mu) = {dist:.2e}", ok, elapsed)


# -- criterion 9: escape-rate properties ------------------------------------------


def test_criterion_9_escape_rates():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)

    # homogeneity on 50 random (map, point, lambda) triples, mixing
    # nondegenerate, degenerate e >= 1, and constant-case maps
    H = hp(-1, 1)
    degenerate = BoundaryMap(3, H * hp(0, 0, 1), H * hp(1, 0, 0))
    worst_h = 0.0
    count = 0
    while count < 50:
        pick = count % 3
        if pick == 0:
            f = random_rat2(rng)
        elif pick == 1:
            f = degenerate
        else:
            roots_ = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            Hc = HPoly.from_roots([(canonicalize(r, 1), 1) for r in roots_])
            a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            if abs(Hc.evaluate((a, b))) < 1e-2:
                continue
            f = BoundaryMap(2, a * Hc, b * Hc)
        x = tuple(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        lam = rng.standard_normal() + 1j * rng.standard_normal()
        if abs(lam) < 1e-2 or abs(x[0]) + abs(x[1]) < 1e-2:
            continue
        dec = decompose(f, 1e-8)
        g1 = escape_rate(f, x, 60, dec=dec)
        g2 = escape_rate(f, (lam * x[0], lam * x[1]), 60, dec=dec)
        if not (g1.finite and g2.finite):
            continue
        worst_h = max(worst_h, abs(g2.value - g1.value - np.log(abs(lam))))
        count += 1

    # functional equation on 20 random nondegenerate degree-2 maps
    worst_f = 0.0
    for _ in range(20):
        f = random_rat2(rng, min_res=1e-2)
        x = tuple(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        worst_f = max(worst_f, functional_equation_residual(f, x, n_max=40))

    # constant-case closed form vs iterative series on 20 instances
    worst_c = 0.0
    done = 0
    while done < 20:
        roots_ = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        Hc = HPoly.from_roots([(canonicalize(r, 1), 1) for r in roots_])
        a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        if abs(Hc.evaluate((a, b))) < 1e-2 or max(abs(a), abs(b)) < 1e-2:
            continue
        f = BoundaryMap(2, a * Hc, b * Hc)
        dec = decompose(f, 1e-8)
        x = tuple(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        closed = escape_rate_constant_case(dec, x)
        iterated = escape_rate(f, x, n_max=80, tol=1e-15)
        if not iterated.finite or closed == -np.inf:
            continue
        worst_c = max(worst_c, abs(closed - iterated.value))
        done += 1

    elapsed = time.perf_counter() - t0
    ok = worst_h < 1e-9 and worst_f < 1e-6 and worst_c < 1e-8 and elapsed < 10.0
    report(9, f"homogeneity {worst_h:.1e}, functional eq {worst_f:.1e}, "
           f"constant case {worst_c:.1e}", ok, elapsed)


# -- criterion 10: brute-force sampler oracle --------------------------------------


def test_criterion_10_sampler_oracle():
    t0 = time.perf_counter()
    # a Moebius conjugate of (z^2, w^2)
    M = (hp(0.3 + 0.1j, 1), hp(1, -0.2j))  # (z + (0.3+0.1j) w, -0.2j z + w)
    Minv = (hp(-(0.3 + 0.1j), 1), hp(1, 0.2j))
    sq = (hp(0, 0, 1), hp(1, 0, 0))
    pair = compose_pair(M, compose_pair(sq, Minv))
    f = BoundaryMap(2, pair[0], pair[1])
    assert abs(resultant(f.P, f.Q)) > 1e-6
    a = canonicalize(0.4 - 0.3j, 1)
    tree = backward_tree(f, a, 10)
    emp = sample_max_entropy(f, a, depth=10, count=10_000, seed=99)
    dist = weak_distance(tree, emp)
    elapsed = time.perf_counter() - t0
    ok = dist < 0.05
    report(10, f"exact depth-10 tree vs 10^4-sample cloud: distance {dist:.4f}",
           ok, elapsed)


# -- criterion 11: polynomial boundary ----------------------------------------------


def test_criterion_11a_polylimit_boundary():
    t0 = time.perf_counter()
    roots_ = [1.0, -1.0, 2.0]
    pk = fam.make_polylimit(roots_, 1e6)
    emp = sample_max_entropy(pk, canonicalize(0.3 + 0.2j, 1), depth=18,
                             count=10_000, seed=5)
    target_pts = np.array([canonicalize(r, 1).as_array() for r in roots_])
    target = AtomicMeasure(target_pts, np.full(3, 1 / 3))
    dist = weak_distance(emp, target)
    elapsed = time.perf_counter() - t0
    ok = dist < 0.1
    report("11a", f"polylimit roots (1,-1,2), k=1e6: empirical distance "
           f"{dist:.4f} < 0.1", ok, elapsed)


@pytest.mark.xfail(
    strict=True,
    reason="stated bound is unattainable: by the invariance mu = p*mu/3, the "
    "mass of mu_{p_eps} in the chordal 0.15-disk at infinity is exactly "
    "1/3 + (2/3)(1/3 + (2/3)(1/3)) = 19/27 ~ 0.704 for eps = 1e-6 (preimages "
    "cascade through square-root shells |z| ~ eps^(-1/2^k), of which only "
    "three lie inside |z| >= 6.59); 0.9 would need radius ~ 0.39 or "
    "eps < 1e-40.  Verified against the exact backward tree and the sampler "
    "at depths 15/25/40 with independent seeds.",
)
def test_criterion_11b_cubic_mass_at_infinity():
    t0 = time.perf_counter()
    # at eps = 1e-6 the spurious root near infinity sits exactly at the
    # default gcd radius; a tighter tolerance sees the honest coprime pair
    pe = fam.make_cubic_eps(1e-6)
    emp = sample_max_entropy(pe, canonicalize(0.4 + 0.1j, 1), depth=25,
                             count=10_000, seed=6, gcd_tol=1e-9)
    md = mass_in_disk(emp, INFINITY, 0.15)
    elapsed = time.perf_counter() - t0
    ok = md >= 0.9
    report("11b", f"cubic eps=1e-6: empirical mass in 0.15-disk at infinity "
           f"{md:.4f} >= 0.9 (true value 19/27 ~ 0.704: see xfail reason)",
           ok, elapsed)
