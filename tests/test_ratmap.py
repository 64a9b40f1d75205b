import sys
from fractions import Fraction
from itertools import islice

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ratbound import (
    INFINITY,
    ZERO,
    BoundaryMap,
    HPoly,
    IndeterminateMapError,
    NumericalFailure,
    canonicalize,
    chordal_distance,
    compose_pair,
    decompose,
    hole_depth_sequence,
    is_indeterminate,
    iterate_direct,
    iterate_formula,
    local_degree,
    map_residual,
    point_mass,
    resultant,
    vanishing_order,
)
from ratbound import families as fam
from ratbound import ratmap
from ratbound.hpoly import _sylvester, count_zeros_in_disk, numeric_gcd

from helpers import hp, multiplicity_at, random_rat2


# -- decomposition -----------------------------------------------------------


def test_decompose_nondegenerate():
    f = BoundaryMap(2, hp(0, 0, 1), hp(1, 0, 0))  # (z^2, w^2)
    dec = decompose(f, 1e-8)
    assert dec.e == 2 and dec.H.degree == 0
    assert len(dec.holes) == 0 and not dec.indeterminate


def test_decompose_hole_at_infinity():
    # f = (P, w^d) with P(1,0) = 0: degenerate with a hole at infinity
    P = hp(1, 1, 0)  # w^2 + zw, vanishes at (1:0)
    f = BoundaryMap(2, P, hp(1, 0, 0))
    dec = decompose(f, 1e-8)
    assert multiplicity_at(dec.holes, INFINITY) == 1
    assert dec.e == 1


def test_decompose_zero_side():
    # (z w^2 : 0): H carries all factors of the nonzero side; constant infinity
    f = BoundaryMap(3, hp(0, 1, 0, 0), HPoly.zero(3))
    dec = decompose(f, 1e-8)
    assert dec.e == 0
    assert multiplicity_at(dec.holes, ZERO) == 1
    assert multiplicity_at(dec.holes, INFINITY) == 2
    assert chordal_distance(dec.constant_value, INFINITY) < 1e-12
    assert dec.indeterminate  # the constant value is itself a hole


def test_decompose_hole_depths_sum():
    dec = decompose(fam.example1_second_limit(3, a=0.5), 1e-4)
    assert sum(m for _, m in dec.holes) == 9 - dec.e
    assert dec.e == 3


def test_decompose_proportional_pair():
    # P = Q up to scale: constant map, single-path handling
    H = HPoly.from_roots([(canonicalize(1, 1), 1), (canonicalize(2, 1), 1)])
    f = BoundaryMap(2, (0.3 + 0.4j) * H, H)
    dec = decompose(f, 1e-6)
    assert dec.e == 0
    assert chordal_distance(dec.constant_value, canonicalize(0.3 + 0.4j, 1)) < 1e-9
    assert not dec.indeterminate


def test_decompose_merges_matched_pieces_of_one_hole():
    # P's double root at a matches Q's two simple roots 0.7 tol either side
    # of it (1.4 tol apart, so roots keeps them apart): the two matched
    # pieces are one hole of depth 2
    tol, a = 1e-4, 0.5
    delta = 0.7 * tol * (1 + a * a)  # affine offset of chordal size 0.7 tol
    P = HPoly.from_roots([(canonicalize(a, 1), 2), (canonicalize(-2.0, 1), 1)])
    Q = HPoly.from_roots([(canonicalize(a + delta, 1), 1), (canonicalize(a - delta, 1), 1),
                          (canonicalize(3.0j, 1), 1)])
    dec = decompose(BoundaryMap(3, P, Q), tol)
    assert dec.e == 1
    assert len(dec.holes) == 1 and multiplicity_at(dec.holes, canonicalize(a, 1), tol) == 2


# ten sites on P^1, pairwise >= 0.2 apart chordally: 0, infinity and two
# rings of four (moduli 0.5 and 2, angles offset by pi/4)
_SITES = [ZERO, INFINITY] + [
    canonicalize(r * np.exp(1j * (np.pi * k / 2 + off)), 1)
    for r, off in ((0.5, 0.3), (2.0, 0.3 + np.pi / 4)) for k in range(4)
]


@settings(max_examples=40, deadline=None)
@given(
    order=st.permutations(range(len(_SITES))),
    hole_mults=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    e=st.integers(0, 3),
    scales=st.tuples(*[st.complex_numbers(min_magnitude=0.5, max_magnitude=2.0)] * 3),
)
# a triple hole that the Aberth-Ehrlich solver split 2 + 1
@example(order=[4, 8, 9, 5, 6, 2, 7, 0, 1, 3], hole_mults=[3, 2, 1], e=2,
         scales=(1.5829785316202978, 1.1543008205934153, 1.9118651351962603))
# a triple hole that unguarded Newton polish split 2 + 1
@example(order=[0, 5, 3, 4, 2, 1, 6, 7, 8, 9], hole_mults=[1, 3, 1], e=1,
         scales=(1.0475596095620108, 2.0, -1.192092896e-07 + 1.8794708587807065j))
def test_decompose_round_trips_planted_holes(order, hole_mults, e, scales):
    # f = H * (p, q) with coprime cofactors: H on the first sites, p and q
    # on disjoint later ones (constants when e = 0, a proportional pair)
    sites = [_SITES[i] for i in order]
    holes = list(zip(sites, hole_mults))
    rest = sites[len(holes):]
    H = HPoly.from_roots(holes, scales[0])
    p = HPoly.from_roots([(pt, 1) for pt in rest[:e]], scales[1])
    q = HPoly.from_roots([(pt, 1) for pt in rest[e:2 * e]], scales[2])
    dec = decompose(BoundaryMap(H.degree + e, H * p, H * q), 1e-4)
    assert dec.e == e
    assert len(dec.holes) == len(holes)
    for pt, mult in holes:
        assert multiplicity_at(dec.holes, pt, 1e-6) == mult


@settings(max_examples=40, deadline=None)
@given(
    order=st.permutations(range(len(_SITES))),
    hole_mults=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    e=st.integers(1, 3),
    scales=st.tuples(*[st.complex_numbers(min_magnitude=0.5, max_magnitude=2.0)] * 3),
)
# an H built from per-pair centers, with its holes merged and canonicalized
# again afterwards, differed here from the product over those holes
@example(order=[0, 2, 1, 3, 4, 5, 6, 7, 8, 9], hole_mults=[1, 1], e=1,
         scales=(1 + 0j, 0.5 + 1j, 2 + 0j))
def test_matched_gcd_factor_is_built_from_its_holes(order, hole_mults, e, scales):
    # on the matched branch H is the product over exactly the holes returned,
    # bit for bit: no hole is merged or canonicalized again after H is built
    sites = [_SITES[i] for i in order]
    H = HPoly.from_roots(list(zip(sites, hole_mults)), scales[0])
    rest = sites[len(hole_mults):]
    p = HPoly.from_roots([(pt, 1) for pt in rest[:e]], scales[1])
    q = HPoly.from_roots([(pt, 1) for pt in rest[e:2 * e]], scales[2])
    dec = decompose(BoundaryMap(H.degree + e, H * p, H * q), 1e-4)
    assert np.array_equal(HPoly.from_roots(dec.holes).monic_leading().coeffs, dec.H.coeffs)


@settings(max_examples=100, deadline=None)
@given(
    order=st.permutations(range(len(_SITES))),
    mults=st.lists(st.integers(1, 4), min_size=1, max_size=5),
    scale=st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3),
)
def test_local_orders_read_the_planted_multiplicities(order, mults, scale):
    # at each site, the Taylor threshold and the argument principle both read the
    # multiplicity planted there, 0 where none is; the disks have a third of the
    # sites' smallest chordal separation, 0.447, so each holds one site
    sites = [_SITES[i] for i in order]
    P = HPoly.from_roots(list(zip(sites, mults)), scale)
    for site, mult in zip(sites, mults + [0] * (len(sites) - len(mults))):
        assert vanishing_order(P, site) == mult
        assert count_zeros_in_disk(P, site, 0.447 / 3) == mult


@pytest.mark.parametrize("f, tol", [
    (fam.example1_second_limit(3, a=0.4), 1e-4),
    (fam.example2_second_limit(3, 2, a=0.4), 1e-4),
    (fam.make_epstein_FT(1.0), 1e-6),
    (fam.cubic_limit(), 1e-6),
    (fam.polylimit_limit([1.0, -1.0, 2.0]), 1e-6),
    (fam.example1_limit(3), 1e-6),
    (fam.make_example1(2, a=0.5, t=1e-2), 1e-6),
], ids=["example1-d3", "example2-32", "FT", "cubic", "polylimit", "example1-limit", "nondeg"])
def test_numeric_gcd_holes_are_the_decomposition_holes(f, tol):
    # one shared-factor computation: decompose's holes are numeric_gcd's
    H, p, q, holes = numeric_gcd(f.P, f.Q, tol)
    dec = decompose(f, tol)
    assert H.degree == dec.H.degree == sum(m for _, m in holes) == f.d - dec.e
    assert [m for _, m in holes] == [m for _, m in dec.holes]
    assert all(np.array_equal(a.as_array(), b.as_array())
               for (a, _), (b, _) in zip(holes, dec.holes))


# -- indeterminacy -----------------------------------------------------------


def test_indeterminate_d1_matrix():
    # M(z:w) = (w:0): tr = det = 0
    f = BoundaryMap(1, hp(1, 0), HPoly.zero(1))
    assert is_indeterminate(f)


def test_indeterminate_wP_zero():
    for d in (2, 3, 4):
        assert is_indeterminate(fam.example1_limit(d))


def test_nondegenerate_not_indeterminate():
    rng = np.random.default_rng(20)
    for _ in range(5):
        assert not is_indeterminate(random_rat2(rng))


def test_indeterminate_constant_at_hole():
    # f = (aH : bH) with H(a,b) = 0
    root = canonicalize(0.7 - 0.2j, 1)
    H = HPoly.from_roots([(root, 1), (canonicalize(3, 1), 1)])
    f = BoundaryMap(2, root.z * H, root.w * H)
    assert is_indeterminate(f)
    # near-miss: constant displaced off the hole
    g = BoundaryMap(2, (root.z + 0.01) * H, root.w * H)
    assert not is_indeterminate(g)


# -- iteration ---------------------------------------------------------------


def test_iterate_squaring_map():
    f = BoundaryMap(2, hp(0, 0, 1), hp(1, 0, 0))
    f2 = iterate_formula(f, 2)
    assert np.allclose(f2.P.coeffs, np.eye(5)[4]) and np.allclose(f2.Q.coeffs, np.eye(5)[0])
    f3 = iterate_direct(f, 3)
    assert np.allclose(f3.P.coeffs, np.eye(9)[8]) and np.allclose(f3.Q.coeffs, np.eye(9)[0])


def test_iterate_identity():
    ident = BoundaryMap(1, hp(0, 1), hp(1, 0))
    for n in (1, 2, 5):
        assert map_residual(iterate_direct(ident, n), ident) < 1e-14


def test_iterate_formula_matches_direct_random():
    rng = np.random.default_rng(21)
    for _ in range(8):
        f = random_rat2(rng)
        for n in (2, 3):
            assert map_residual(iterate_formula(f, n), iterate_direct(f, n)) < 1e-8


def test_iterate_on_indeterminacy_raises():
    g = fam.example1_limit(2)
    for n in (2, 3):
        with pytest.raises(IndeterminateMapError):
            iterate_formula(g, n)


@pytest.mark.parametrize("c, n", [(1.01, 10), (1.001, 9)])
def test_an_underflowing_iterate_is_a_numerical_failure_not_a_verdict(c, n):
    # (c H : H) with H = z^2 - w^2 is degenerate with e = 0 and off I(d) by
    # decompose's verdict.  The k >= 1 factors of its product formula are
    # constants of modulus about c^2 - 1, so their 2^(n-k-1)-th powers reach 0
    # in float64; decompose alone decides I(d), so the n-th iterate is a
    # NumericalFailure naming the underflow, and the (n-1)-th still succeeds
    H = hp(-1, 0, 1)
    f = BoundaryMap(2, c * H, H)
    assert decompose(f).e == 0 and not decompose(f).indeterminate
    assert iterate_formula(f, n - 1).d == 2 ** (n - 1)
    with pytest.raises(NumericalFailure, match=rf"^iterate n={n}: the degree-2\^{n} product "
                                               "formula underflowed to 0$"):
        iterate_formula(f, n)


def test_an_odd_power_can_overflow_past_its_squares_into_the_product_check():
    # f = H (z : w) with H = (z - 0.8 w)^2: the n = 7 product formula's first factor
    # H^729 = H^512 * H^217 has finite squares, so the power returns non-finite
    # coefficients without raising, and the product formula's own check names it
    H = hp(0.64, -1.6, 1)
    f = BoundaryMap(3, H * HPoly.z(), H * HPoly.w())
    assert decompose(f).e == 1
    assert not np.isfinite((decompose(f).H ** 3**6).coeffs).all()
    with pytest.raises(NumericalFailure, match=r"^iterate n=7: the degree-3\^7 product "
                                               "formula overflowed to non-finite coefficients$"):
        iterate_formula(f, 7)


def test_iterate_direct_collapses_on_indeterminacy():
    g = fam.example1_limit(2)
    with pytest.raises(NumericalFailure):
        iterate_direct(g, 2)


def test_iterate_constant_phi_depths():
    # e = 0, constant not a hole: holes of f^2 are holes of f at depth d*depth
    H = HPoly.from_roots([(canonicalize(1, 1), 1), (canonicalize(-1, 1), 1)])
    c = canonicalize(5.0, 1)
    f = BoundaryMap(2, c.z * H, c.w * H)
    f2 = iterate_formula(f, 2, decompose(f, 1e-8))
    dec2 = decompose(f2, 1e-5)
    assert dec2.e == 0
    assert multiplicity_at(dec2.holes, canonicalize(1, 1)) == 2
    assert multiplicity_at(dec2.holes, canonicalize(-1, 1)) == 2


def test_iterate_second_limit_matches_paper_display():
    # Phi_2(g_{a,t}) approaches f_a coefficientwise at rate O(t)
    for d, a in ((2, 0.3 + 0.1j), (3, 1.2 - 0.4j)):
        g = fam.make_example1(d, a, 1e-8)
        fa = fam.example1_second_limit(d, a)
        assert map_residual(iterate_formula(g, 2), fa) < 1e-6


def test_iterate_coefficient_homogeneity_degree():
    # f -> f^n is homogeneous of degree (d^n - 1)/(d - 1) in the coefficients;
    # checked on raw (unnormalized) output by scaling a coprime pair: with
    # H = 1 the product formula is the n-fold composition of the pair
    rng = np.random.default_rng(22)
    f = random_rat2(rng)
    lam = 1.37 - 0.21j

    def raw_iterate(pair, n):
        cur = pair
        for _ in range(n - 1):
            cur = compose_pair(pair, cur)
        return cur

    for n in (2, 3):
        base = raw_iterate((f.P, f.Q), n)
        scaled = raw_iterate((lam * f.P, lam * f.Q), n)
        deg = 2**n - 1  # (d^n - 1)/(d - 1) at d = 2
        mask = np.abs(base[0].coeffs) > 1e-6
        assert np.allclose(scaled[0].coeffs[mask] / base[0].coeffs[mask], lam**deg)
        mask = np.abs(base[1].coeffs) > 1e-6
        assert np.allclose(scaled[1].coeffs[mask] / base[1].coeffs[mask], lam**deg)


def test_iterate_scaling_invariance():
    rng = np.random.default_rng(23)
    f = random_rat2(rng)
    g = BoundaryMap(2, (2.5 - 1j) * f.P, (2.5 - 1j) * f.Q)
    assert map_residual(iterate_formula(f, 2), iterate_formula(g, 2)) < 1e-12


def test_iterate_decompose_bookkeeping():
    # decompose(f^n): e-part degree e^n, total hole depth d^n - e^n
    H = hp(-1, 1)  # z - w
    f = BoundaryMap(3, H * hp(0, 0, 1), H * hp(1, 0, 0))  # d=3, e=2
    f2 = iterate_formula(f, 2)
    dec2 = decompose(f2, 1e-3)
    assert dec2.e == 4
    assert sum(m for _, m in dec2.holes) == 9 - 4
    # d=2, e=1 with identity phi: f^n = (z w^(2^n - 1) : w^(2^n))
    g = BoundaryMap(2, hp(0, 1, 0), hp(1, 0, 0))  # (zw : w^2)
    g3 = iterate_formula(g, 3)
    dec3 = decompose(g3, 1e-6)
    assert dec3.e == 1
    assert sum(m for _, m in dec3.holes) == 8 - 1


# -- |Res| of the iterate by the composition rule ------------------------------


_COEFF = st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False,
                            allow_subnormal=False)


@st.composite
def _pairs(draw, degree):
    return tuple(HPoly(draw(st.lists(_COEFF, min_size=degree + 1,
                                      max_size=degree + 1)))
                 for _ in range(2))


_SHARED = HPoly([0.5j, 1, 2.22507386e-308 + 3j])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(_pairs), st.integers(1, 4).flatmap(_pairs))
# G's Sylvester matrix has an exact zero pivot that getrf does not report
@example((HPoly([1, 2]), HPoly([3j, 1])), (_SHARED, _SHARED))
def test_composition_rule_for_resultants(F, G):
    # log|Res(F o G)| = deg G log|Res F| + (deg F)^2 log|Res G|.  Each determinant's
    # relative error is about eps times its Sylvester matrix's condition number, so
    # the logs agree within 16 eps times the weighted sum of the three; the largest
    # ratio seen on 20,000 seeded draws of degree <= 4 was 3.1.  The bound is first
    # order: where it reaches 1 (cond near 1/eps, as for a coefficient 7.6e-289 beside
    # ones) a determinant has no correct digit, and its log can be off by anything
    d, e = F[0].degree, G[0].degree
    FG = compose_pair(F, G)
    cond = [float(np.linalg.cond(_sylvester(*pair))) for pair in (F, G, FG)]
    res = [abs(resultant(*pair)) for pair in (F, G, FG)]
    # Python floats: an infinite or overflowing condition number gives an infinite bound
    bound = 16 * sys.float_info.epsilon * (e * cond[0] + d * d * cond[1] + cond[2])
    assume(bound < 1 and all(r > 0 for r in res))
    gap = abs(np.log(res[2]) - e * np.log(res[0]) - d * d * np.log(res[1]))
    assert gap <= bound


def _mp_iterate_abs_resultant(f, n):
    """|Res| of f^n composed at 60 digits from f's coefficients, scaled to max
    coefficient modulus 1 as iterate_formula scales it."""
    with mpmath.workdps(60):
        F = [[mpmath.mpc(complex(c)) for c in P.coeffs] for P in f.pair()]

        def times(a, b):
            out = [mpmath.mpc(0)] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] += x * y
            return out

        pair = F
        for _ in range(n - 1):  # F o pair, coefficients ascending in z
            p_pows, q_pows = [[mpmath.mpc(1)]], [[mpmath.mpc(1)]]
            for _ in range(f.d):
                p_pows.append(times(p_pows[-1], pair[0]))
                q_pows.append(times(q_pows[-1], pair[1]))
            pair = [[sum(col) for col in zip(*(
                [c * t for t in times(p_pows[i], q_pows[f.d - i])] for i, c in enumerate(P)))]
                for P in F]
        scale = max(abs(c) for P in pair for c in P)
        a, b = ([c / scale for c in P[::-1]] for P in pair)
        m = len(a) - 1
        S = mpmath.zeros(2 * m, 2 * m)
        for r in range(m):
            for i in range(m + 1):
                S[r, r + i], S[m + r, r + i] = a[i], b[i]
        return abs(mpmath.det(S))


@pytest.mark.parametrize("f, n", [
    *[(fam.make_example1(2, 0.5, t), n) for t in (1e-1, 1e-2, 1e-3) for n in (2, 3, 4)],
    (fam.make_example1(4, 0.3, 0.01), 2),
    (fam.make_example2(3, 2, 0.5, 0.1), 2),
    (fam.make_example2(3, 2, 0.5, 0.1), 3),
])
def test_iterate_abs_resultant_against_a_60_digit_determinant(f, n):
    # the README sweep and two family maps at d^n <= 27.  The rule agrees with the
    # exact iterate's determinant to 1e-9 (the 60-digit value itself moves by 1.4e-10
    # at 100 digits for t = 1e-3, n = 4) and better than the float determinant of the
    # rounded iterate, which reads 49 times too large at t = 0.1, n = 4; 0.0 below
    # float64's range (here 6.2e-381 at example2's n = 3)
    exact = _mp_iterate_abs_resultant(f, n)
    new = ratmap.iterate_abs_resultant(f, n)
    if exact < np.finfo(float).tiny:
        assert new == 0.0
        return
    fn = iterate_formula(f, n)
    old = abs(resultant(fn.P, fn.Q))
    assert abs(new - exact) <= 1e-9 * exact
    assert abs(new - exact) <= abs(old - exact)


def test_iterate_abs_resultant_of_the_benchmarks_seed_1_map():
    # example1 at d = 4, a = 0.3, t = 0.01: |Res f^2| is 2.8257e-191 at 60 digits,
    # where the float determinant of the iterate read 4.18e-186
    value = ratmap.iterate_abs_resultant(fam.make_example1(4, 0.3, 0.01), 2)
    assert value == pytest.approx(2.824e-191, rel=1e-3)


# -- theorem-2 equivalence at desk scale --------------------------------------


def _iterate_errors(f, n):
    try:
        iterate_formula(f, n)
        return False
    except IndeterminateMapError:
        return True


def test_indeterminacy_iff_iterate_undefined():
    rng = np.random.default_rng(24)
    members, near = [], []
    for d in (1, 2, 3):
        root = canonicalize(rng.standard_normal() + 1j * rng.standard_normal(), 1)
        other = [(canonicalize(rng.standard_normal() + 3, 1), 1) for _ in range(d - 1)]
        H = HPoly.from_roots([(root, 1)] + other)
        members.append(BoundaryMap(d, root.z * H, root.w * H))
        off = canonicalize(root.z + 0.05, root.w)
        near.append(BoundaryMap(d, off.z * H, off.w * H))
    for f in members:
        assert is_indeterminate(f)
        assert _iterate_errors(f, 2) and _iterate_errors(f, 3)
    for f in near:
        assert not is_indeterminate(f)
        assert not _iterate_errors(f, 2) and not _iterate_errors(f, 3)


# -- hole depths -------------------------------------------------------------


def test_hole_depth_sequence_nondegenerate_zero():
    rng = np.random.default_rng(25)
    f = random_rat2(rng)
    assert hole_depth_sequence(decompose(f), INFINITY, 4) == [Fraction(0)] * 4


def test_hole_depth_sequence_increasing_to_limit():
    # f_a: depth sequence at infinity is (1 - D^-n)/(d+1)... exact fractions
    d = 2
    fa = fam.example1_second_limit(d, a=0.6)
    seq = hole_depth_sequence(decompose(fa, 1e-4), INFINITY, 6)
    D = d * d
    # closed form: sum_{j<k} (d-1)/D^(j+1) = (d-1)(1 - D^-k)/(D-1)
    expect = [Fraction(d - 1, D - 1) * (1 - Fraction(1, D ** k)) for k in range(1, 7)]
    assert seq == expect
    assert all(b >= a for a, b in zip(seq, seq[1:]))


def test_hole_depth_sequence_constant_phi():
    H = HPoly.from_roots([(canonicalize(1, 1), 1), (canonicalize(2, 1), 1)])
    f = BoundaryMap(2, 5 * H, H)
    dec = decompose(f, 1e-6)
    assert hole_depth_sequence(dec, canonicalize(1, 1), 3) == [Fraction(1, 2)] * 3
    assert hole_depth_sequence(dec, dec.constant_value, 3) == [0] * 3  # (5:1), no hole
    # the e = 0 series is the general walk's first term: phi has local degree 0
    dec = decompose(fam.example2_companion_limit(3, 2, 0.5), 1e-4)
    for pt, mass in ((canonicalize(1, 1), Fraction(1, 3)), (INFINITY, Fraction(2, 3)),
                     (dec.constant_value, 0)):
        assert hole_depth_sequence(dec, pt, 4) == [mass] * 4


def test_hole_depth_cross_check_against_expansion():
    fa = fam.example1_second_limit(2, a=0.37 + 0.21j)
    dec = decompose(fa, 1e-4)
    one = canonicalize(1, 1)
    for n, pts in ((2, (INFINITY, one)), (3, (INFINITY,))):
        Hn = ratmap._iterate_parts(fa, n, dec)[0]
        for pt in pts:
            comb = hole_depth_sequence(dec, pt, n)[n - 1] * 4**n
            assert count_zeros_in_disk(Hn, pt) == comb


def test_local_degree_detection():
    # phi_a of example 1 with a = alpha: full collapse at 0, simple elsewhere
    d = 3
    phi = fam.example1_phi(d, a=1.0)
    assert local_degree(phi, ZERO) == d
    assert local_degree(phi, INFINITY) == 1
    assert local_degree(phi, canonicalize(0.4 + 0.2j, 1)) == 1


def test_orbit_walk_evaluates_phi_once_per_step(monkeypatch):
    # phi(x_k) is the next orbit point and gives the local degree at x_k
    dec = decompose(fam.make_epstein_FT(1.0), 1e-6)
    z = canonicalize(0.37 + 2.1j, 1)
    walk, x = [], z
    for _ in range(8):  # the walk that reads the local degree on its own
        depth, x = ratmap._match_hole(x, dec.holes)
        walk.append((x, depth, local_degree(dec.phi, x)))
        x = ratmap.apply_pair(dec.phi, x)
    steps = islice(ratmap._orbit_steps(dec, z), 8)
    assert [(x, depth, ratmap._local_degree(dec.phi, x, img)) for x, depth, img in steps] == walk
    calls, steps = [], []
    apply_pair, match_hole = ratmap.apply_pair, ratmap._match_hole
    monkeypatch.setattr(ratmap, "apply_pair", lambda *a: calls.append(a) or apply_pair(*a))
    monkeypatch.setattr(ratmap, "_match_hole", lambda *a: steps.append(a) or match_hole(*a))
    point_mass(dec, z)
    assert len(steps) > 10 and len(calls) == len(steps)


def test_orbit_terms_match_lemma_series():
    # orbit of 0 for a = alpha: depths (0, d-1, d-1, ...) with local degrees
    # (d, 1, 1, ...), so the running multiplicity m is (1, d, d, ...)
    d = 3
    fa = fam.example1_second_limit(d, a=1.0)
    dec = decompose(fa, 1e-4)
    steps = [(depth, ratmap._local_degree(dec.phi, x, img))
             for x, depth, img in islice(ratmap._orbit_steps(dec, ZERO), 4)]
    assert steps == [(0, d), (d - 1, 1), (d - 1, 1), (d - 1, 1)]


def test_map_json_roundtrip():
    f = fam.make_epstein_FT(0.5 + 0.25j)
    g = BoundaryMap.from_json(f.to_json())
    assert map_residual(f, g) < 1e-15
