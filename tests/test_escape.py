import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratbound import (
    AtomicMeasure,
    BoundaryMap,
    HPoly,
    IndeterminateMapError,
    MathDomainError,
    canonicalize,
    cone_angle_report,
    decompose,
    escape_rate,
    escape_rate_constant_case,
    functional_equation_residual,
)
from ratbound import families as fam
from ratbound.escape import _escape_batch, _escape_rows, escape_grid

from helpers import hp, random_rat2


SQUARING = BoundaryMap(2, hp(0, 0, 1), hp(1, 0, 0))


def random_constant_case(rng, d=2):
    roots = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    H = HPoly.from_roots([(canonicalize(r, 1), 1) for r in roots])
    while True:
        a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        if min(abs(H.evaluate((a, b))), abs(a), abs(b)) > 1e-2:
            return BoundaryMap(d, a * H, b * H)


def test_escape_rate_squaring():
    # G(z, w) = log max(|z|, |w|) for the squaring lift in the sup norm
    v = escape_rate(SQUARING, (2.0, 1.0))
    assert abs(v.value - math.log(2)) < 1e-14
    v2 = escape_rate(SQUARING, (0.25, 0.5 + 0.1j))
    assert abs(v2.value - math.log(abs(0.5 + 0.1j))) < 1e-12


def test_escape_rate_origin_rejected():
    with pytest.raises(ValueError):
        escape_rate(SQUARING, (0.0, 0.0))


def test_escape_rate_homogeneity_mixed():
    rng = np.random.default_rng(31)
    H = hp(-1, 1)
    degenerate = BoundaryMap(3, H * hp(0, 0, 1), H * hp(1, 0, 0))
    maps = [random_rat2(rng, min_res=1e-2), degenerate, random_constant_case(rng)]
    for f in maps:
        dec = decompose(f, 1e-8)
        for _ in range(10):
            x = tuple(rng.standard_normal(2) + 1j * rng.standard_normal(2))
            lam = rng.standard_normal() + 1j * rng.standard_normal()
            if abs(lam) < 1e-3:
                continue
            g1 = escape_rate(f, x, 60, dec=dec)
            g2 = escape_rate(f, (lam * x[0], lam * x[1]), 60, dec=dec)
            if not (g1.finite and g2.finite):
                continue
            assert abs(g2.value - g1.value - math.log(abs(lam))) < 1e-9


def test_functional_equation_squaring():
    for x in ((1.3 + 0.2j, 1.0), (0.4, 0.9 - 0.3j)):
        assert functional_equation_residual(SQUARING, x) < 1e-10


def test_functional_equation_random():
    rng = np.random.default_rng(32)
    for _ in range(10):
        f = random_rat2(rng, min_res=1e-2)
        x = tuple(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        assert functional_equation_residual(f, x, n_max=40) < 1e-6


def test_functional_equation_scale_invariant():
    # replacing F by lam F shifts G by log|lam|/(d-1) on both sides consistently
    rng = np.random.default_rng(33)
    f = random_rat2(rng, min_res=1e-2)
    x = (0.7 + 0.1j, 1.1 - 0.2j)
    r1 = functional_equation_residual(f, x, n_max=50)
    # BoundaryMap normalizes scale away, so the documented identity reduces to
    # the residual being invariant under the construction scale
    g = BoundaryMap(2, (3.7 - 1.1j) * f.P, (3.7 - 1.1j) * f.Q)
    r2 = functional_equation_residual(g, x, n_max=50)
    assert abs(r1 - r2) < 1e-9


def test_degenerate_series_consistency():
    # e/d = 2/3: the H-term partial sum and the direct G_n differ by the
    # d^-n log||Phi^n|| correction, which vanishes.  The series is the H-term
    # sum plus that correction, (e/d)^n times phi's own degree-e partial sum
    H = hp(-1, 1)
    F = BoundaryMap(3, H * hp(0, 0, 1), H * hp(1, 0, 0))
    dec = decompose(F, 1e-8)
    z = np.array([0.45 + 0.11j, 1.0, 1.3, 1.0])
    w = np.array([1.0, 0.7 + 0.7j, 0.7 + 0.7j, 1.0])
    series = _escape_batch(3, dec.phi, dec.H, z, w, 30, 0.0)[0]
    g30 = series - (2 / 3) ** 30 * _escape_batch(2, dec.phi, None, z, w, 30, 0.0)[0]
    G30 = _escape_batch(3, F.pair(), None, z, w, 30, 0.0)[0]  # direct partial sums
    assert np.all(np.abs(g30[:2] - G30[:2]) < 1e-6)
    # off the unit sphere the gap is exactly the correction (e/d)^n log||x||
    assert abs(g30[2] - G30[2]) == pytest.approx((2 / 3) ** 30 * math.log(1.3), rel=1e-6)
    # on the hole line z = w the lift vanishes and G_n is -inf
    assert G30[3] == -math.inf


def test_constant_case_closed_form_random():
    rng = np.random.default_rng(34)
    for _ in range(20):
        f = random_constant_case(rng)
        dec = decompose(f, 1e-8)
        x = tuple(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        closed = escape_rate_constant_case(dec, x)
        iterated = escape_rate(f, x, n_max=80, tol=1e-15)
        assert abs(closed - iterated.value) < 1e-8


def test_constant_case_hole_line_minus_infinity():
    # exact-coefficient decomposition: the hole line is hit exactly
    from ratbound.ratmap import Decomposition

    H = hp(2, -3, 1)  # (z - w)(z - 2w)
    dec = Decomposition(H, (HPoly.constant(3.0), HPoly.constant(1.0)),
                        [(canonicalize(1, 1), 1), (canonicalize(2, 1), 1)])
    # d, e, the constant value and the verdict are read off H and phi
    assert (dec.d, dec.e, dec.constant_value) == (2, 0, canonicalize(3, 1))
    assert dec.indeterminate is False
    assert escape_rate_constant_case(dec, (1.0, 1.0)) == -math.inf
    assert escape_rate_constant_case(dec, (2.0, 1.0)) == -math.inf
    assert math.isfinite(escape_rate_constant_case(dec, (5.0, 1.0)))
    # the numeric decomposition gets within rounding of the hole line
    f = BoundaryMap(2, 3.0 * H, 1.0 * H)
    dec_num = decompose(f, 1e-6)
    assert escape_rate_constant_case(dec_num, (1.0, 1.0)) < -15


def test_escape_indeterminate_rejected():
    g = fam.example1_limit(2)
    with pytest.raises(IndeterminateMapError):
        escape_rate(g, (1.0, 1.0))
    with pytest.raises(IndeterminateMapError):
        escape_grid(g, (-1, 1, 3), (-1, 1, 3))


@pytest.mark.parametrize("n_max", [0, -1])
def test_escape_needs_a_positive_step_count(n_max):
    # no step taken is no value: F_T's hole z = 0 would read 0 instead of -inf
    f = fam.make_epstein_FT(1.0)
    with pytest.raises(ValueError, match=f"n_max must be positive, got {n_max}"):
        escape_rate(f, (0.0, 1.0), n_max=n_max)
    with pytest.raises(ValueError, match="n_max must be positive"):
        escape_grid(f, (-2, 2, 3), (0, 0, 1), n_max=n_max)


def test_constant_case_minus_infinity_loci_match_atoms():
    # e = 0: G_F = -inf exactly on the hole lines, whose multiplicities are
    # the depths, i.e. d times the boundary-measure masses
    from ratbound import boundary_measure, mass_in_disk, vanishing_order

    H = HPoly.from_roots([(canonicalize(1, 1), 2), (canonicalize(-2, 1), 1)])
    f = BoundaryMap(3, 5.0 * H, 1.0 * H)
    dec = decompose(f, 1e-5)
    mu = boundary_measure(dec, 1e-9)
    assert len(dec.holes) == len(mu.points)
    for h, depth in dec.holes:
        assert vanishing_order(dec.H, h) == depth
        assert mass_in_disk(mu, h, 1e-6) == pytest.approx(depth / 3)
        line_val = escape_rate_constant_case(dec, (h.z, h.w))
        assert line_val < -8  # -inf up to the numeric root placement
    off = canonicalize(0.3 + 0.9j, 1)
    assert escape_rate_constant_case(dec, (off.z, off.w)) > -3


def test_polynomial_lift_asymptotics():
    # monic polynomial lift: G(z, 1) - log|z| -> 0 as |z| -> infinity
    p = BoundaryMap(2, hp(0.3, 0, 1), hp(1, 0, 0))  # z^2 + 0.3 w^2 lift
    for R in (1e3, 1e6):
        v = escape_rate(p, (R, 1.0), n_max=80)
        assert abs(v.value - math.log(R)) < 1e-5
    # and the filled-julia-set side: G = 0 inside for the squaring map
    v0 = escape_rate(SQUARING, (0.5, 1.0))
    assert abs(v0.value) < 1e-14


# -- the batched kernel against the per-point loops ------------------------------


def _sup(z, w):
    return max(abs(z), abs(w))


def _reference_direct(f, x, n_max, tol):
    """Per-point escape rate of a nondegenerate lift: (value, n_used, hit_hole)."""
    d = f.d
    z, w = x
    scale = _sup(z, w)
    g = math.log(scale)
    z, w = z / scale, w / scale
    n = 0
    for n in range(1, n_max + 1):
        z, w = f.P.evaluate((z, w)), f.Q.evaluate((z, w))
        s = _sup(z, w)
        if s == 0.0:
            return -math.inf, n, True
        inc = math.log(s) / d**n
        g += inc
        z, w = z / s, w / s
        if abs(inc) < tol:
            break
    return g, n, False


def _reference_series(d, dec, x, n_max, tol):
    """Per-point telescoped H-series of a degenerate lift: (value, n_used, hit_hole)."""
    H = dec.H
    p, q = dec.phi
    e = dec.e
    z, w = x
    lam = math.log(_sup(z, w))
    vz, vw = z / math.exp(lam), w / math.exp(lam)
    g = 0.0
    prev = math.inf
    n = 0
    for n in range(1, n_max + 1):
        hv = abs(H.evaluate((vz, vw)))
        if hv == 0.0:
            return -math.inf, n, True
        g += ((d - e) * lam + math.log(hv)) / d**n
        pz, pw = p.evaluate((vz, vw)), q.evaluate((vz, vw))
        s = _sup(pz, pw)
        if s == 0.0:
            return -math.inf, n, True
        lam = e * lam + math.log(s)
        vz, vw = pz / s, pw / s
        value = g + lam / d**n
        residual = abs(value - prev) if prev != math.inf else math.inf
        prev = value
        if residual < tol:
            break
    return prev, n, False


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "CHANGES.md FOUND (direct escape stop rule): the direct rule, and _reference_direct "
    "with it, stops at the first increment below tol even when that increment is 0 by "
    "coincidence: example1 d=2 a=0.5 t=1e-2 maps (0, 1) to a point of sup norm exactly 1, "
    "so G reads 0.0 after one step, where the 60-step partial sum is -1.627685"))
def test_direct_escape_rule_does_not_stop_at_a_zero_increment():
    f = fam.make_example1(2, 0.5, 1e-2)
    partial = _escape_batch(2, f.pair(), None, np.array([0j]), np.array([1 + 0j]), 60, 0.0)[0]
    assert escape_rate(f, (0, 1)).value == pytest.approx(partial[0], abs=1e-9)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "CHANGES.md FOUND (escape series misses a hole): the telescoped series follows the "
    "computed phi, whose q keeps a _deconvolve residue of -6.9e-17 as its constant "
    "coefficient, where the exact value is 0; so phi(0:1) misses the hole at infinity, "
    "H there is not 0, and G reads -2.146145248075997"))
def test_escape_rate_is_minus_inf_where_F_reaches_a_hole():
    # F(0, 1) = (-0.25, 0) is example2's depth-4 hole at infinity, and F(F(0, 1)) = (0, 0)
    # exactly, so the orbit lands on a hole line and G = -inf
    f = fam.example2_second_limit(3, 2, 0.5)
    x = (f.P.evaluate((0, 1)), f.Q.evaluate((0, 1)))
    assert x == (-0.25, 0) and (f.P.evaluate(x), f.Q.evaluate(x)) == (0, 0)
    assert escape_rate(f, (0, 1), 50, 1e-12, decompose(f, 1e-4)).value == -math.inf


def _escape_bits(f, rows, batch):
    """The bits of _escape_rows' values at the points (z, 1) of rows, in batches of batch."""
    w = np.ones(len(rows), dtype=complex)
    return np.concatenate([_escape_rows(f, rows[i:i + batch], w[i:i + batch], 50, 1e-12)[0]
                           for i in range(0, len(rows), batch)]).view(np.int64)


@pytest.mark.parametrize("count", [16_000, 17_000])
def test_escape_rows_have_the_bits_of_batches_of_1000(count):
    f = fam.make_epstein_FT(1.0)
    rng = np.random.default_rng(count)
    rows = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    assert np.array_equal(_escape_bits(f, rows, count), _escape_bits(f, rows, 1000))


ORACLE_MAPS = [
    *(fam.make_epstein_FT(T) for T in (0.5, 1.0, 1.75)),
    *(fam.make_example1(d, 0.5, 1e-2) for d in (2, 3, 5)),
    fam.make_example2(3, 2, 0.5, 1e-2),
]


@pytest.mark.parametrize("f", ORACLE_MAPS, ids=[
    "FT0.5", "FT1", "FT1.75", "ex1d2", "ex1d3", "ex1d5", "ex2d3k2"])
def test_batched_kernel_matches_per_point_loops(f):
    n_max, tol = 50, 1e-12
    axis = np.linspace(-2, 2, 31)
    z = (axis[None, :] + 1j * axis[:, None]).ravel()
    value, n_used, _ = _escape_rows(f, z, np.ones(len(z)), n_max, tol)
    hit_hole = value == -np.inf
    dec = decompose(f)
    ref = [
        _reference_direct(f, (complex(zi), 1.0), n_max, tol) if dec.e == f.d
        else _reference_series(f.d, dec, (complex(zi), 1.0), n_max, tol)
        for zi in z
    ]
    ref_value = np.array([r[0] for r in ref])
    assert n_used.tolist() == [r[1] for r in ref]
    assert hit_hole.tolist() == [r[2] for r in ref]
    assert np.array_equal(np.isneginf(value), np.isneginf(ref_value))
    finite = ~hit_hole
    err = np.abs(value[finite] - ref_value[finite])
    assert np.all(err <= 1e-13 * np.maximum(1.0, np.abs(ref_value[finite])))
    if f.d == 4:  # F_T: the grid holds z = 0 exactly, on the hole line
        assert hit_hole[len(z) // 2]


@settings(deadline=None, max_examples=25)
@given(
    st.sampled_from([fam.make_epstein_FT(1.0), fam.make_example1(2, 0.5, 1e-2)]),
    st.lists(st.tuples(st.integers(-128, 128), st.integers(-128, 128),
                       st.integers(-128, 128), st.integers(-128, 128))
             .filter(lambda c: any(c)), min_size=1, max_size=12),
    st.floats(0.1, 10.0),
    st.floats(0.0, 2 * math.pi),
)
def test_batched_homogeneity(f, coords, r, theta):
    lam = r * complex(math.cos(theta), math.sin(theta))
    z = np.array([complex(a, b) / 32 for a, b, _, _ in coords])
    w = np.array([complex(c, d) / 32 for _, _, c, d in coords])
    value = _escape_rows(
        f, np.concatenate([z, lam * z]), np.concatenate([w, lam * w]), 60, 1e-13)[0]
    hit_hole = value == -np.inf
    g, g_lam = value[: len(z)], value[len(z):]
    assert hit_hole[: len(z)].tolist() == hit_hole[len(z):].tolist()
    finite = ~hit_hole[: len(z)]
    assert np.all(np.abs(g_lam[finite] - g[finite] - math.log(r)) < 1e-10)


def test_escape_grid_rows():
    columns = escape_grid(SQUARING, (-1, 1, 3), (-1, 1, 3), n_max=30)
    rows = list(zip(*(column.tolist() for column in columns)))
    assert len(rows) == 9
    center = [r for r in rows if r[0] == 0 and r[1] == 0]
    assert center and abs(center[0][2]) < 1e-12


# -- cone angles ----------------------------------------------------------------


def test_cone_angle_delta_infinity():
    mu = AtomicMeasure(np.array([[1.0, 0.0]]), np.array([1.0]))
    angles, inf_ends = cone_angle_report(mu)
    assert angles.tolist() == [pytest.approx(-2 * math.pi)]
    assert inf_ends.tolist() == [True]


def test_cone_angle_uniform_atoms():
    d = 4
    pts = np.array([[complex(k), 1.0] for k in range(1, d + 1)], dtype=complex)
    from ratbound.projline import canonicalize_rows

    mu = AtomicMeasure(canonicalize_rows(pts), np.full(d, 1 / d))
    angles, inf_ends = cone_angle_report(mu)
    assert angles.tolist() == [pytest.approx(2 * math.pi * (1 - 2 / d))] * d
    assert not inf_ends.any()


def test_cone_angle_zero_mass_smooth():
    mu = AtomicMeasure(
        np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1e-15])
    )
    angles, _ = cone_angle_report(mu)
    assert angles[1] == pytest.approx(2 * math.pi)


def test_cone_angle_mass_above_one_rejected():
    mu = AtomicMeasure(np.array([[1.0, 0.0]]), np.array([1.5]))
    with pytest.raises(ValueError):
        cone_angle_report(mu)


def test_cone_angle_more_than_two_infinite_ends_rejected():
    pts = np.array([[0.0, 1.0], [1.0, 1.0], [1.0, 0.0]], dtype=complex)
    mu = AtomicMeasure(pts, np.array([0.5, 0.5, 0.5]))
    with pytest.raises(ValueError, match="infinite ends"):
        cone_angle_report(mu)


def test_cone_angles_match_per_atom_formula():
    masses = np.array([1.0, 0.5, 1 / 3, 0.1, 1e-15, 2 ** -14])
    mu = AtomicMeasure(np.tile([[0.0, 1.0]], (len(masses), 1)), masses)
    angles, inf_ends = cone_angle_report(mu)
    assert angles.tolist() == [2.0 * math.pi - 4.0 * math.pi * m for m in masses.tolist()]
    assert inf_ends.tolist() == [m >= 0.5 for m in masses.tolist()]


@pytest.mark.parametrize("f", [
    BoundaryMap(0, hp(1), hp(2)),
    BoundaryMap(1, hp(0, 2), hp(1, 0)),  # z -> 2z
])
def test_escape_rate_refuses_degree_below_two(f):
    # d^-n log||F^n x|| has no limit below d = 2, so no value is returned
    for call in (lambda: escape_rate(f, (0.3, 1)), lambda: escape_grid(f, (0, 1, 2), (0, 0, 1)),
                 lambda: functional_equation_residual(f, (0.3, 1))):
        with pytest.raises(MathDomainError, match="escape rate needs degree d >= 2"):
            call()
