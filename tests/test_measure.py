import json
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from ratbound import (
    DEFAULTS,
    INFINITY,
    ZERO,
    AtomicMeasure,
    BoundaryMap,
    ExceptionalPointError,
    HPoly,
    IndeterminateMapError,
    MathDomainError,
    NumericalFailure,
    ProjPoint,
    backward_tree,
    boundary_measure,
    canonicalize,
    chordal_distance,
    compose_pair,
    decompose,
    hole_depth_sequence,
    mass_in_disk,
    point_mass,
    preimages,
    pullback,
    sample_max_entropy,
    support_report,
    design_points,
    weak_distance,
)
from ratbound import families as fam
from ratbound import hpoly
from ratbound.measure import batched_preimage_slots, merge_atoms
from ratbound.projline import canonicalize_rows, chordal_cross
from ratbound.ratmap import apply_pair


def hp(*coeffs):
    return HPoly.from_coeffs(coeffs)


SQUARING = BoundaryMap(2, hp(0, 0, 1), hp(1, 0, 0))
# the Moebius conjugate of criterion 10: M o (z^2 : w^2) o M^-1
MOBIUS = (hp(0.3 + 0.1j, 1), hp(1, -0.2j))
CONJUGATE = BoundaryMap(2, *compose_pair(
    MOBIUS, compose_pair(SQUARING.pair(), (hp(-(0.3 + 0.1j), 1), hp(1, 0.2j)))))


def delta(pt):
    return AtomicMeasure(np.array([pt.as_array()]), np.array([1.0]))


# -- preimages ----------------------------------------------------------------


def test_preimages_squaring_at_zero():
    rl = preimages((hp(0, 0, 1), hp(1, 0, 0)), ZERO)
    assert rl.multiplicity_at(ZERO) == 2


def test_preimages_identity():
    a = canonicalize(0.3 - 0.8j, 1)
    rl = preimages((HPoly.z(), HPoly.w()), a)
    assert len(rl) == 1 and chordal_distance(rl.entries[0][0], a) < 1e-12


def test_preimages_forward_check():
    phi = (hp(-1, 0, 1), hp(0, 1, 0))  # (z^2 - w^2 : zw)
    a = canonicalize(1.3 + 0.4j, 1)
    rl = preimages(phi, a)
    assert rl.total_multiplicity() == 2
    for pt, _ in rl:
        img = canonicalize(phi[0].evaluate(pt), phi[1].evaluate(pt))
        assert chordal_distance(img, a) < 1e-9


def test_batched_preimage_slots_match_exact():
    rng = np.random.default_rng(0)
    phi = (hp(*(rng.standard_normal(3) + 1j * rng.standard_normal(3))),
           hp(*(rng.standard_normal(3) + 1j * rng.standard_normal(3))))
    pts = canonicalize_rows(rng.standard_normal((20, 2)) + 1j * rng.standard_normal((20, 2)))
    slots = batched_preimage_slots(phi, pts)
    for row, pt in zip(slots, pts):
        exact = preimages(phi, canonicalize(pt[0], pt[1]))
        for s in row:
            sp = canonicalize(s[0], s[1])
            assert min(chordal_distance(sp, q) for q, _ in exact) < 1e-8


def test_batched_preimage_slots_at_infinity_parent():
    phi = fam.example1_phi(2, a=0.4)
    slots = batched_preimage_slots(phi, np.array([[1.0, 0.0]], dtype=complex))
    pts = [canonicalize(s[0], s[1]) for s in slots[0]]
    # preimages of the fixed point at infinity: infinity and the root of P
    assert any(p.is_infinity for p in pts)
    assert any(chordal_distance(p, canonicalize(1, 1)) < 1e-8 for p in pts)


# -- boundary measure ----------------------------------------------------------


def test_boundary_measure_polynomial_type_is_delta_infinity():
    # f = (z^2 w : w^3): hole at infinity, phi the squaring polynomial
    f = BoundaryMap(3, hp(0, 0, 1, 0), hp(1, 0, 0, 0))
    dec = decompose(f, 1e-8)
    mu = boundary_measure(dec, tol=1e-10)
    assert mu.mass_near(INFINITY, 1e-9) > 1 - mu.tail_bound - 1e-12
    assert abs(mu.total_mass() + mu.tail_bound - 1) < 1e-12


def test_boundary_measure_constant_case():
    roots = [canonicalize(r, 1) for r in (0.5, -2.0, 1j)]
    H = HPoly.from_roots([(r, 1) for r in roots])
    f = BoundaryMap(3, 7.0 * H, 2.0 * H)
    mu = boundary_measure(decompose(f, 1e-6), tol=1e-9)
    assert mu.tail_bound == 0.0
    assert abs(mu.total_mass() - 1) < 1e-12
    for r in roots:
        assert abs(mu.mass_near(r, 1e-9) - 1 / 3) < 1e-12


def test_boundary_measure_example1_d3_mass_quarter():
    fa = fam.example1_second_limit(3, a=0.4)
    mu = boundary_measure(decompose(fa, 1e-4), tol=1e-7)
    assert abs(mu.mass_near(INFINITY, 1e-6) - 0.25) <= mu.tail_bound + 1e-12
    assert abs(mu.total_mass() + mu.tail_bound - 1) < 1e-10


def test_boundary_measure_mass_bookkeeping():
    fa = fam.example1_second_limit(2, a=0.3)
    dec = decompose(fa, 1e-4)
    for tol in (1e-2, 1e-4):
        mu = boundary_measure(dec, tol=tol)
        assert mu.total_mass() + mu.tail_bound == pytest.approx(1.0, abs=1e-12)
        assert mu.tail_bound < tol
    # when the atom cap binds first, the tail honestly reflects fewer levels
    capped = boundary_measure(dec, tol=1e-12, max_atoms=2000)
    assert capped.tail_bound > 1e-12
    assert capped.total_mass() + capped.tail_bound == pytest.approx(1.0, abs=1e-12)


def test_boundary_measure_rejects_nondegenerate():
    with pytest.raises(ValueError):
        boundary_measure(decompose(SQUARING, 1e-8))


def test_boundary_measure_formal_on_indeterminacy():
    g = fam.example1_limit(2)
    mu = boundary_measure(decompose(g, 1e-6), tol=1e-9)
    assert "discontinuous" in mu.note
    assert abs(mu.total_mass() - 1) < 1e-12


@pytest.mark.parametrize("f", [fam.polylimit_limit([1, -1, 2]), fam.example1_limit(2)])
def test_boundary_measure_constant_case_is_the_merged_hole_list(f):
    # at e = 0 the level loop keeps level 0 alone: the holes at depth/d,
    # merged, with tail 0.0, bit for bit
    dec = decompose(f, 1e-6)
    mu = boundary_measure(dec, 1e-9)
    pts = np.array([pt.as_array() for pt, _ in dec.holes])
    ref_pts, ref_ms = merge_atoms(pts, np.array([m for _, m in dec.holes], float) / dec.d)
    assert dec.e == 0 and mu.tail_bound == 0.0
    assert np.array_equal(mu.points.view(float), ref_pts.view(float))
    assert np.array_equal(mu.masses, ref_ms)


# A 50-digit reference for levels 0..3 of mu_f, from the closed-form phi and
# holes of each map rather than from decompose.  Points are affine mpc values
# z/w, None for infinity; masses are exact.


def _mp_preimages(p, q, a):
    """phi^-1(a) with multiplicities for phi = (p : q), ascending coefficient
    lists in z/w: the roots of p - a q (of -q at infinity), plus infinity
    with the degree that polynomial drops by."""
    c = [-y for y in q] if a is None else [x - a * y for x, y in zip(p, q)]
    drop = 0
    while c[-1] == 0:
        c.pop()
        drop += 1
    out = [] if drop == 0 else [(None, drop)]
    if len(c) > 1:
        for r in mpmath.polyroots(c[::-1], maxsteps=200, extraprec=100):
            near = [i for i, (z, _) in enumerate(out) if z is not None and abs(z - r) < 1e-20]
            if near:
                out[near[0]] = (out[near[0]][0], out[near[0]][1] + 1)
            else:
                out.append((r, 1))
    return out


def _mp_chordal(a, row):
    """Chordal distance of an affine point a (None: infinity) to a row (z, w)."""
    z, w = mpmath.mpc(row[0]), mpmath.mpc(row[1])
    az, aw = (1, 0) if a is None else (a, 1)
    return abs(az * w - aw * z) / (mpmath.sqrt(abs(az) ** 2 + abs(aw) ** 2)
                                   * mpmath.sqrt(abs(z) ** 2 + abs(w) ** 2))


def _mp_levels(p, q, holes, d, levels):
    """The atoms of levels 0..levels: the phi^n-preimages of each hole at
    depth * multiplicity / d^(n+1), equal points summed."""
    atoms = []
    level = [(h, Fraction(depth, d)) for h, depth in holes]
    for _ in range(levels + 1):
        for z, m in level:
            same = [i for i, (y, _) in enumerate(atoms)
                    if (y is None) == (z is None) and (z is None or abs(y - z) < 1e-20)]
            if same:
                atoms[same[0]] = (z, atoms[same[0]][1] + m)
            else:
                atoms.append((z, m))
        level = [(y, m * k / d) for z, m in level for y, k in _mp_preimages(p, q, z)]
    return atoms


@pytest.mark.parametrize("case", ["F_T", "example1_second_limit"])
def test_boundary_measure_levels_match_a_50_digit_reference(case):
    with mpmath.workdps(50):
        if case == "F_T":
            # F_T = zw (z^2 + T zw + w^2 : zw) at T = 1: holes 0 and infinity
            f = fam.make_epstein_FT(1.0)
            p, q, holes = [1, 1, 1], [0, 1, 0], [(mpmath.mpc(0), 1), (None, 1)]
        else:
            # example1_second_limit(2, 1/2) = wP (z^2 + a wP : wP) with P = z - w
            f = fam.example1_second_limit(2, 0.5)
            a = mpmath.mpf(0.5)
            p, q, holes = [-a, a, 1], [-1, 1, 0], [(mpmath.mpc(1), 1), (None, 1)]
        ref = _mp_levels([mpmath.mpc(x) for x in p], [mpmath.mpc(x) for x in q],
                         holes, 4, 3)
        dec = decompose(f, 1e-4)
        # e/d = 1/2: tail_tol 0.1 keeps levels 0..3 and leaves (1/2)^4
        mu = boundary_measure(dec, 0.1)
        assert (dec.d, dec.e) == (4, 2) and mu.tail_bound == 1 / 16
        assert sum(m for _, m in ref) == 1 - Fraction(1, 16)
        assert len(mu.points) == len(ref) == 16
        for z, m in ref:
            (i,) = [i for i, row in enumerate(mu.points) if _mp_chordal(z, row) < 1e-12]
            assert Fraction(mu.masses[i]) == m


@pytest.mark.parametrize("f, expected", [
    (fam.make_epstein_FT(1.0), Fraction(1, 3)),
    (fam.example1_second_limit(2, 0.5), Fraction(1, 3)),  # 1/(d+1)
    (fam.example1_second_limit(3, 0.4), Fraction(1, 4)),
])
def test_point_mass_at_infinity_is_exact(f, expected):
    # the forward-orbit series at infinity is geometric; at series_tol 1e-30
    # its partial sum rounds to the float of the exact mass
    mass, err = point_mass(decompose(f, 1e-4), INFINITY, 1e-30)
    assert err < 1e-30 and mass == float(expected)


def test_boundary_measure_double_preimage_is_one_atom():
    # f = H phi with phi = z^2 + c and the hole at c: z = 0 is the double
    # phi-preimage of the hole, one atom of mass 2/9 however eigvals split it
    c = 0.3 + 0.1j
    H = hp(-c, 1)
    dec = decompose(BoundaryMap(3, H * hp(c, 0, 1), H * hp(1, 0, 0)), 1e-6)
    mu = boundary_measure(dec, tol=0.2)
    # levels 0..3: the hole, z = 0, the two roots of -c, their four preimages
    assert len(mu.points) == 1 + 1 + 2 + 4
    assert abs(mu.total_mass() + mu.tail_bound - 1) < 1e-12
    mass, _ = point_mass(dec, ZERO)
    assert mass == pytest.approx(2 / 9, abs=1e-12)
    assert mu.mass_near(ZERO, 1e-9) == pytest.approx(mass, abs=1e-12)


def test_atom_merge_adds_masses():
    pts = np.array([[1.0, 0.0], [1.0, 1e-12], [0.0, 1.0]], dtype=complex)
    pts = canonicalize_rows(pts)
    out_p, out_m = merge_atoms(pts, np.array([0.25, 0.25, 0.5]), 1e-9)
    assert len(out_m) == 2
    assert sorted(out_m) == [0.5, 0.5]


@pytest.mark.parametrize("T", [1.0, 1.75])
def test_boundary_measure_one_atom_per_support_point(T):
    # 14 levels of F_T hold 2^14 distinct points; a merge on an eps grid kept
    # a near-duplicate pair that straddled a cell edge (16,385 atoms)
    mu = boundary_measure(decompose(fam.make_epstein_FT(T), 1e-6), 1e-4)
    assert len(mu.points) == 16_384


# -- point masses ---------------------------------------------------------------


def test_point_mass_lower_bound_at_holes():
    # mu_f({h}) >= depth(h)/d for every hole
    for f, tol in ((fam.example1_second_limit(2, a=0.9), 1e-4),
                   (fam.make_epstein_FT(0.3), 1e-6)):
        dec = decompose(f, tol)
        for h, depth in dec.holes:
            mass, err = point_mass(dec, h, 1e-12)
            assert mass + err >= depth / dec.d - 1e-12


def test_point_mass_generic_point_zero():
    dec = decompose(fam.make_epstein_FT(1.0), 1e-6)
    mass, err = point_mass(dec, canonicalize(0.37 + 2.1j, 1), 1e-10)
    assert mass == 0.0
    assert err < 1e-10


def test_point_mass_constant_case():
    H = HPoly.from_roots([(canonicalize(2, 1), 2), (ZERO, 1)])
    f = BoundaryMap(3, 5.0 * H, 1.0 * H)
    dec = decompose(f, 1e-5)
    assert point_mass(dec, canonicalize(2, 1)) == (2 / 3, 0.0)
    assert point_mass(dec, ZERO) == (1 / 3, 0.0)
    assert point_mass(dec, canonicalize(9, 1)) == (0.0, 0.0)


def test_point_mass_sandwich_with_depth_sequence():
    fa = fam.example1_second_limit(3, a=0.4)
    dec = decompose(fa, 1e-4)
    seq = hole_depth_sequence(fa, INFINITY, 6, 1e-4)
    mass, err = point_mass(dec, INFINITY, 1e-14)
    from ratbound.ratmap import orbit_depth_terms

    terms = orbit_depth_terms(dec, INFINITY, 7)
    m6 = 1
    for m, _ in [terms[6]]:
        m6 = m
    tail6 = terms[6][0] / 9**6
    assert float(seq[-1]) <= mass + 1e-12
    assert mass <= float(seq[-1]) + tail6 + 1e-12


# -- pullback -------------------------------------------------------------------


def test_pullback_mass_bookkeeping():
    # nondegenerate-free: degenerate f with e >= 1: total = e|mu| + sum depths
    fa = fam.example1_second_limit(2, a=0.5)
    dec = decompose(fa, 1e-4)
    mu = delta(canonicalize(0.3, 1))
    pb = pullback(dec, mu)
    assert abs(pb.total_mass() - (dec.e * 1.0 + dec.total_hole_depth())) < 1e-9


def test_pullback_constant_case_mass_d():
    H = HPoly.from_roots([(canonicalize(1, 1), 1), (canonicalize(3, 1), 1)])
    f = BoundaryMap(2, 5.0 * H, 1.0 * H)
    dec = decompose(f, 1e-6)
    pb = pullback(dec, delta(ZERO))
    assert abs(pb.total_mass() - 2.0) < 1e-12


def test_pullback_indeterminate_raises():
    dec = decompose(fam.example1_limit(2), 1e-6)
    with pytest.raises(IndeterminateMapError):
        pullback(dec, delta(ZERO))


def test_pullback_fixed_point():
    fa = fam.example1_second_limit(2, a=0.5)
    dec = decompose(fa, 1e-4)
    mu = boundary_measure(dec, tol=1e-7)
    pb = pullback(dec, mu, normalize=True)
    assert weak_distance(pb, mu) < 1e-4


def test_pullback_iteration_converges_to_boundary_measure():
    fa = fam.example1_second_limit(2, a=0.5)
    dec = decompose(fa, 1e-4)
    target = boundary_measure(dec, tol=1e-8)
    mu = delta(canonicalize(0.123 + 0.456j, 1))
    for _ in range(12):
        mu = pullback(dec, mu, normalize=True)
    assert weak_distance(mu, target) < 0.02


# -- sampling -------------------------------------------------------------------


def test_sampler_unit_circle():
    emp = sample_max_entropy(SQUARING, canonicalize(1, 1), depth=12, count=800, seed=5)
    ratios = np.abs(emp.samples[:, 0] / emp.samples[:, 1])
    assert np.max(np.abs(np.log(ratios))) < 1e-9


def test_sampler_chebyshev_segment():
    ch = BoundaryMap(2, hp(-1, 0, 2), hp(1, 0, 0))  # lift of 2z^2 - 1
    emp = sample_max_entropy(ch, canonicalize(0.3 + 0.4j, 1), depth=25, count=2000, seed=9)
    ratios = emp.samples[:, 0] / emp.samples[:, 1]
    assert np.mean(np.abs(ratios.imag) < 0.02) >= 0.95


def test_sampler_seed_determinism():
    a = canonicalize(0.2 + 0.1j, 1)
    e1 = sample_max_entropy(SQUARING, a, depth=8, count=300, seed=42)
    e2 = sample_max_entropy(SQUARING, a, depth=8, count=300, seed=42)
    assert np.array_equal(e1.samples, e2.samples)
    e3 = sample_max_entropy(SQUARING, a, depth=8, count=300, seed=43)
    assert not np.array_equal(e1.samples, e3.samples)


def test_sampler_worker_partition_deterministic():
    a = canonicalize(0.2 + 0.1j, 1)
    e1 = sample_max_entropy(SQUARING, a, depth=6, count=100, seed=7, workers=4)
    e2 = sample_max_entropy(SQUARING, a, depth=6, count=100, seed=7, workers=4)
    assert np.array_equal(e1.samples, e2.samples)


def test_sampler_cost_does_not_grow_with_idle_workers():
    # workers past the count draw nothing, so 10^12 of them give the stream
    # of 10 and are never visited
    a = canonicalize(0.2 + 0.1j, 1)
    e1 = sample_max_entropy(SQUARING, a, depth=6, count=10, seed=7, workers=10)
    e2 = sample_max_entropy(SQUARING, a, depth=6, count=10, seed=7, workers=10**12)
    assert np.array_equal(e1.samples, e2.samples)


def _stream_canonicalizing_every_slot(f, a, depth, count, seed, workers):
    """Reference sampler: canonicalize all d slots of each step, then pick."""
    d, chunks = f.d, []
    for widx in range(min(workers, count)):
        size = count // workers + (widx < count % workers)
        rng = np.random.default_rng([seed, widx])
        X = np.tile(a.as_array(), (size, 1))
        for _ in range(depth):
            raw = batched_preimage_slots(f.pair(), X)
            slots = canonicalize_rows(raw.reshape(-1, 2)).reshape(size, d, 2)
            X = slots[np.arange(size), rng.integers(0, d, size)]
        chunks.append(X)
    return np.concatenate(chunks)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("threads", [1, 2])
def test_sampler_stream_bit_identical_at_split_batches(monkeypatch, workers, threads):
    # 2 * _SPLIT_K rows per chunk reach the split root kernel; the picked
    # rows canonicalized alone must be the bits of canonicalizing every slot,
    # whatever the thread count
    monkeypatch.setattr(hpoly, "_THREADS", threads)
    f = fam.make_example1(5, a=0.5, t=1e-3)
    a = canonicalize(0.3 + 0.2j, 1)
    count = 2 * hpoly._SPLIT_K * workers
    emp = sample_max_entropy(f, a, depth=8, count=count, seed=5, workers=workers)
    ref = _stream_canonicalizing_every_slot(f, a, 8, count, 5, workers)
    assert np.array_equal(emp.samples.view(float), ref.view(float))


def test_boundary_measure_bit_identical_to_canonicalizing_every_slot():
    # H * phi with deg phi = 4: the last level pulls back 256 rows, a
    # split-sized batch; the reference canonicalizes all raw slots of each
    # level, then merges
    H = hp(-2, 1)
    dec = decompose(BoundaryMap(5, H * hp(0.3, 0, 0.5j, 0, 1), H * hp(1, 0.2, 0, 0.1, 0)))
    d, e = dec.d, dec.e
    mu = boundary_measure(dec, 0.3)
    levels = round(math.log(mu.tail_bound) / math.log(e / d))
    pts = np.array([pt.as_array() for pt, _ in dec.holes])
    ms = np.array([m for _, m in dec.holes], dtype=float) / d
    all_pts, all_ms = [pts], [ms]
    for _ in range(levels - 1):
        raw = batched_preimage_slots(dec.phi, pts)
        pts, ms = merge_atoms(canonicalize_rows(raw.reshape(-1, 2)), np.repeat(ms / d, e))
        all_pts.append(pts)
        all_ms.append(ms)
    assert e == 4 and len(pts) == 4 * hpoly._SPLIT_K
    ref_pts, ref_ms = merge_atoms(np.concatenate(all_pts), np.concatenate(all_ms))
    assert np.array_equal(mu.points.view(float), ref_pts.view(float))
    assert np.array_equal(mu.masses, ref_ms)


# Stored heads (first four canonical rows) of two seeded streams; the
# determinism tests above compare runs of the same code, these pin the
# stream itself across changes to the root kernel and the sampler.
_STREAM_HEADS = {
    (5, 1): [
        (0.9999998903688845, 0.0004682544384805937 + 6.365588653861635e-17j),
        (0.9999988272169754, 0.0015315236445184767 + 1.6993343703891774e-12j),
        (0.7072022481809038, 0.7070112318971137 - 0.0003132717686718356j),
        (0.6517717736846469 - 9.706200448038985e-15j, 0.7584151600726147),
    ],
    (2, 2): [
        (0.2043176577655636 - 0.5400221284853544j, 0.8164743691453771),
        (0.9999987680141073, -0.001301193216985241 - 0.0008779900224763097j),
        (0.7062251118394228 - 0.0006833582461526988j, 0.7079870227828345),
        (0.9999997507707948, -0.0002503385376821151 - 0.0006601431394442706j),
    ],
}


@pytest.mark.parametrize("d, workers", sorted(_STREAM_HEADS))
def test_sampler_stream_head_pinned(d, workers):
    f = fam.make_example1(d, a=0.5, t=1e-3)
    emp = sample_max_entropy(f, canonicalize(0.3 + 0.2j, 1), depth=20, count=6,
                             seed=3, workers=workers)
    assert np.abs(emp.samples[:4] - np.array(_STREAM_HEADS[d, workers])).max() < 1e-10


def test_sampler_rejects_exceptional_start():
    with pytest.raises(ExceptionalPointError):
        sample_max_entropy(SQUARING, ZERO, depth=5, count=10, seed=1)
    with pytest.raises(ExceptionalPointError):
        sample_max_entropy(SQUARING, INFINITY, depth=5, count=10, seed=1)


def test_sampler_starts_below_depth_3_from_a_nonexceptional_critical_value():
    # phi = 1 + 1/z^2: phi^-1(1) = {inf} and phi^-2(1) = {0}, each double,
    # but phi^-3(1) = {i, -i}, so 1 is not exceptional at any depth
    f = BoundaryMap(2, hp(1, 0, 1), hp(0, 0, 1))
    for depth, end in ((1, INFINITY), (2, ZERO)):
        emp = sample_max_entropy(f, canonicalize(1, 1), depth=depth, count=20, seed=1)
        assert emp.count == 20
        assert chordal_cross(emp.samples, end.as_array()[None, :]).max() < 1e-6
    emp = sample_max_entropy(f, canonicalize(1, 1), depth=3, count=200, seed=1)
    assert chordal_cross(emp.samples, np.array([[1j, 1], [-1j, 1]])).min(axis=1).max() < 1e-6


def test_sampler_rejects_degree_one():
    # every point of a Moebius map has one preimage; 1, 1/2, 1/4, 1/8 are
    # distinct, so the exceptional-point test alone would let z -> 2z through
    f = BoundaryMap(1, hp(0, 2), hp(1, 0))
    with pytest.raises(MathDomainError, match="d >= 2"):
        sample_max_entropy(f, canonicalize(1, 1), depth=3, count=10, seed=1)


def test_sampler_rejects_degenerate_map():
    f = BoundaryMap(3, hp(0, 0, 1, 0), hp(1, 0, 0, 0))
    with pytest.raises(ValueError):
        sample_max_entropy(f, canonicalize(1, 1), depth=5, count=10, seed=1)


def test_sampler_rejects_conjugate_critical_fixed_points():
    # M(0) and M(inf) are double preimages of themselves; batched eigenvalues
    # split each by ~1e-8, which the walker must still count as one point
    for x in (ZERO, INFINITY):
        with pytest.raises(ExceptionalPointError):
            sample_max_entropy(CONJUGATE, apply_pair(MOBIUS, x), depth=5, count=10, seed=1)


def _backward_tree_per_node(f, a, depth, tol=1e-10):
    """Reference enumeration of f^-depth(a): one roots call per atom, merged at pt."""
    atoms = [(a, 1)]
    for _ in range(depth):
        nxt = [(child, mult * cm) for pt, mult in atoms
               for child, cm in preimages(f.pair(), pt, tol)]
        pts = np.array([p.as_array() for p, _ in nxt])
        ms = np.array([float(m) for _, m in nxt])
        pts, ms = merge_atoms(pts, ms)
        atoms = [(canonicalize(p[0], p[1]), m) for p, m in zip(pts, ms)]
    pts = np.array([p.as_array() for p, _ in atoms])
    ms = np.array([m for _, m in atoms], dtype=float) / f.d**depth
    return AtomicMeasure(pts, ms, 0.0)


@pytest.mark.parametrize("f, a, depth", [
    (SQUARING, canonicalize(0.5, 1), 10),
    (CONJUGATE, canonicalize(0.4 - 0.3j, 1), 10),
    (fam.make_example1(5, 0.4, 1e-3), canonicalize(0.3 + 0.2j, 1), 3),
    (fam.make_polylimit([1, -1], 5), canonicalize(0.3, 1), 6),
], ids=["squaring", "conjugate", "example1-d5", "polylimit"])
def test_backward_tree_matches_per_node_reference(f, a, depth):
    tree = backward_tree(f, a, depth)
    ref = _backward_tree_per_node(f, a, depth)
    assert len(tree.points) == len(ref.points)
    nearest = chordal_cross(ref.points, tree.points).argmin(axis=1)
    assert sorted(nearest) == list(range(len(tree.points)))
    assert np.abs(tree.masses[nearest] - ref.masses).max() <= 1e-12
    assert weak_distance(tree, ref) <= 1e-12


def test_backward_tree_brute_force_oracle():
    a = canonicalize(0.5, 1)
    tree = backward_tree(SQUARING, a, 10)
    assert abs(tree.total_mass() - 1) < 1e-12
    emp = sample_max_entropy(SQUARING, a, depth=10, count=10_000, seed=3)
    assert weak_distance(tree, emp) < 0.05


# -- weak distance ---------------------------------------------------------------


def test_weak_distance_identity():
    mu = delta(canonicalize(1 + 1j, 1))
    assert weak_distance(mu, mu) == 0.0


def test_weak_distance_delta_zero_infinity():
    # the design contains both poles, so the max test value is exactly
    # |d(0, c) - d(inf, c)| at c in {0, inf}, which is 1
    expected = max(
        abs(chordal_distance(ZERO, canonicalize(c[0], c[1]))
            - chordal_distance(INFINITY, canonicalize(c[0], c[1])))
        for c in design_points()
    )
    assert expected == pytest.approx(1.0, abs=1e-12)
    assert weak_distance(delta(ZERO), delta(INFINITY)) == pytest.approx(expected, abs=1e-12)


def test_weak_distance_resampled_circle():
    e1 = sample_max_entropy(SQUARING, canonicalize(1, 1), depth=14, count=10_000, seed=1)
    e2 = sample_max_entropy(SQUARING, canonicalize(1, 1), depth=14, count=10_000, seed=2)
    assert weak_distance(e1, e2) < 0.02


def test_weak_distance_validates_mass():
    bad = AtomicMeasure(np.array([[1.0, 0.0]]), np.array([0.5]))
    with pytest.raises(ValueError):
        weak_distance(bad, delta(ZERO))


def test_weak_distance_symmetric_and_bounded():
    rng = np.random.default_rng(17)
    pts = canonicalize_rows(rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2)))
    w = rng.random(6)
    mu = AtomicMeasure(pts, w / w.sum())
    nu = delta(canonicalize(2, 1))
    assert weak_distance(mu, nu) == pytest.approx(weak_distance(nu, mu))
    assert 0 <= weak_distance(mu, nu) <= 1


def test_weak_distance_peak_memory_is_one_float_distance_table():
    # the 32-point design against F_T's 16,384 atoms: the float (n, 32) table
    # is n*32*8 bytes (4.2 MB).  The peak above it is 1.31 tables with the
    # row-blocked chordal kernel and 4.06 with the one-shot formula, whose
    # complex (n, 32) temporaries alone take 2 tables each; 1.5 leaves 0.19
    mu = boundary_measure(decompose(fam.make_epstein_FT(1.0), 1e-6), 1e-4)
    table = len(mu.points) * 32 * 8
    tracemalloc.start()
    try:
        assert weak_distance(mu, mu) == 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * table


# -- disk masses and support ------------------------------------------------------


def test_mass_in_disk_trivial():
    assert mass_in_disk(delta(INFINITY), INFINITY, 0.1) == 1.0
    assert mass_in_disk(delta(INFINITY), ZERO, 0.1) == 0.0


@pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan])
def test_boundary_measure_rejects_a_tail_tol_no_level_reaches(tol):
    # (e/d)^N underflows to 0.0, which is >= 0: the level count never ends
    with pytest.raises(ValueError, match="tail tol"):
        boundary_measure(decompose(fam.make_epstein_FT(1.0), 1e-6), tol)


@pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan])
def test_point_mass_rejects_a_non_finite_series_tol(tol):
    with pytest.raises(ValueError, match="series tol"):
        point_mass(decompose(fam.make_epstein_FT(1.0), 1e-6), INFINITY, tol)


def test_point_mass_of_an_ambiguous_constant_case_hole_raises():
    # holes at 0 and 1.5e-6 both lie within hole_match of 7.5e-7; summing
    # their depths would give a silent mass 1/2
    dec = decompose(fam.polylimit_limit([0, 1.5e-6, 1, 2]))
    with pytest.raises(NumericalFailure, match="ambiguous"):
        point_mass(dec, canonicalize(7.5e-7, 1))
    assert point_mass(dec, ZERO) == (0.25, 0.0)


def test_support_report_branches():
    # polynomial-type: hole at infinity fixed by a polynomial -> all exceptional
    f = BoundaryMap(3, hp(0, 0, 1, 0), hp(1, 0, 0, 0))
    rep = support_report(decompose(f, 1e-8))
    assert rep["case"] == "all holes exceptional"

    # f_a: the holes at roots of P have growing backward trees
    fa = fam.example1_second_limit(2, a=0.8)
    rep2 = support_report(decompose(fa, 1e-4))
    assert rep2["case"] == "non-exceptional hole"
    assert "J(f)" in rep2["claim"]

    # constant phi
    H = HPoly.from_roots([(canonicalize(1, 1), 1), (canonicalize(2, 1), 1)])
    rep3 = support_report(decompose(BoundaryMap(2, 3.0 * H, H), 1e-6))
    assert rep3["case"] == "constant"


@pytest.mark.parametrize("f, tol, case, witness", [
    (fam.example1_second_limit(3, a=0.4), 1e-4, "non-exceptional hole", canonicalize(1, 1)),
    (fam.example2_second_limit(3, 2, a=0.4), 1e-4, "non-exceptional hole", canonicalize(1, 1)),
    (fam.make_epstein_FT(1.75), 1e-6, "non-exceptional hole", ZERO),
    (fam.cubic_limit(), 1e-6, "all holes exceptional", None),
    # phi = z^2 with holes at its exceptional points 0 and infinity, then at 1
    (BoundaryMap(4, hp(0, 1) * hp(1, 0) * hp(0, 0, 1), hp(0, 1) * hp(1, 0) * hp(1, 0, 0)),
     1e-8, "all holes exceptional", None),
    (BoundaryMap(3, hp(-1, 1) * hp(0, 0, 1), hp(-1, 1) * hp(1, 0, 0)), 1e-8,
     "non-exceptional hole", canonicalize(1, 1)),
], ids=["example1-d3", "example2-32", "FT", "cubic", "squaring-0-inf", "squaring-1"])
def test_support_report_verdicts(f, tol, case, witness):
    rep = support_report(decompose(f, tol))
    assert rep["case"] == case
    if witness is None:
        assert "witness_hole" not in rep
    else:
        assert chordal_distance(ProjPoint.from_json(rep["witness_hole"]), witness) < 1e-6


def test_measure_json_roundtrip():
    fa = fam.example1_second_limit(2, a=0.5)
    mu = boundary_measure(decompose(fa, 1e-4), tol=1e-3)
    mu2 = AtomicMeasure.from_json(mu.to_json())
    assert weak_distance(mu, mu2) < 1e-12
    assert mu2.tail_bound == mu.tail_bound


def _reference_atoms_json(mu):
    """AtomicMeasure.to_json's atom list, built per element from numpy scalars."""
    return [
        {"point": [[z.real, z.imag], [w.real, w.imag]], "mass": float(m)}
        for (z, w), m in zip(mu.points, mu.masses)
    ]


def _leaves(node):
    if isinstance(node, dict):
        for v in node.values():
            yield from _leaves(v)
    elif isinstance(node, list):
        for v in node:
            yield from _leaves(v)
    else:
        yield node


def test_measure_json_plain_floats_exact():
    fa = fam.example1_second_limit(2, a=0.5)
    mu = boundary_measure(decompose(fa, 1e-4), tol=1e-3)
    data = mu.to_json()
    assert all(type(x) is float for x in _leaves(data["atoms"]))
    assert type(data["tail_bound"]) is float
    assert json.dumps(data, indent=2) == json.dumps(
        {**data, "atoms": _reference_atoms_json(mu)}, indent=2)
    # the text is lossless: reading it back gives the stored values bit for bit
    mu2 = AtomicMeasure.from_json(json.loads(json.dumps(data)))
    assert np.array_equal(mu2.masses, mu.masses)
    assert mu2.tail_bound == mu.tail_bound
    # from_json canonicalizes the rows it reads, as it would a hand-written file
    assert np.array_equal(mu2.points, canonicalize_rows(mu.points))

    emp = sample_max_entropy(fam.make_polylimit([1.0, -1.0], 5.0), canonicalize(0.3, 1),
                             depth=4, count=20, seed=3)
    samples = emp.to_json()["samples"]
    assert all(type(x) is float for x in _leaves(samples))
    back = np.array([[complex(*z), complex(*w)] for z, w in json.loads(json.dumps(samples))])
    assert np.array_equal(back, emp.samples)


@pytest.mark.xfail(strict=True, reason=(
    "CHANGES.md FOUND (split multiple preimages): preimages of the double holes of "
    "example2_second_limit(4, 2, a=0.5) split by up to about 1e-6, beyond pt and "
    "cluster_floor, so boundary_measure keeps them as separate atoms and the atom count "
    "rests on round-off; re-merged at cluster_floor, 648 atoms fall to 640"))
def test_measure_keeps_no_split_multiple_preimages():
    mu = boundary_measure(decompose(fam.example2_second_limit(4, 2, a=0.5), 1e-4), 3e-2)
    points, masses = merge_atoms(mu.points, mu.masses, DEFAULTS.cluster_floor)
    assert np.array_equal(points, mu.points) and np.array_equal(masses, mu.masses)
