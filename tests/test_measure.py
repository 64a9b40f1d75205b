import numpy as np
import pytest

from ratbound import (
    INFINITY,
    ZERO,
    AtomicMeasure,
    BoundaryMap,
    ExceptionalPointError,
    HPoly,
    IndeterminateMapError,
    backward_tree,
    boundary_measure,
    canonicalize,
    chordal_distance,
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
from ratbound.measure import batched_preimage_slots, merge_atoms
from ratbound.projline import canonicalize_rows


def hp(*coeffs):
    return HPoly.from_coeffs(coeffs)


SQUARING = BoundaryMap(2, hp(0, 0, 1), hp(1, 0, 0))


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


def test_sampler_rejects_exceptional_start():
    with pytest.raises(ExceptionalPointError):
        sample_max_entropy(SQUARING, ZERO, depth=5, count=10, seed=1)
    with pytest.raises(ExceptionalPointError):
        sample_max_entropy(SQUARING, INFINITY, depth=5, count=10, seed=1)


def test_sampler_rejects_degenerate_map():
    f = BoundaryMap(3, hp(0, 0, 1, 0), hp(1, 0, 0, 0))
    with pytest.raises(ValueError):
        sample_max_entropy(f, canonicalize(1, 1), depth=5, count=10, seed=1)


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


# -- disk masses and support ------------------------------------------------------


def test_mass_in_disk_trivial():
    assert mass_in_disk(delta(INFINITY), INFINITY, 0.1) == 1.0
    assert mass_in_disk(delta(INFINITY), ZERO, 0.1) == 0.0


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


def test_measure_json_roundtrip():
    fa = fam.example1_second_limit(2, a=0.5)
    mu = boundary_measure(decompose(fa, 1e-4), tol=1e-3)
    mu2 = AtomicMeasure.from_json(mu.to_json())
    assert weak_distance(mu, mu2) < 1e-12
    assert mu2.tail_bound == mu.tail_bound
