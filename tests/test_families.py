import math

import pytest

from ratbound import (
    DEFAULTS,
    INFINITY,
    ZERO,
    HPoly,
    canonicalize,
    chordal_distance,
    decompose,
    is_indeterminate,
    map_residual,
    mass_in_disk,
    point_mass,
    resultant,
    roots,
    wronskian,
)
from ratbound import families as fam
from ratbound.ratmap import apply_pair

from helpers import multiplicity_at


def test_default_P_properties():
    for deg in (1, 2, 3):
        P = fam.default_P(deg)
        assert P.degree == deg
        assert abs(P.coeffs[-1] - 1) < 1e-15  # monic
        assert P.evaluate((0, 1)) != 0
        assert P.evaluate((1, 0)) == 1


def test_example1_coefficient_limit():
    # g_{a,t} -> (wP : 0) projectively as t -> 0
    d, a = 3, 0.8 + 0.3j
    target = fam.example1_limit(d)
    for t in (1e-6, 1e-10):
        g = fam.make_example1(d, a, t)
        assert map_residual(g, target) < 10 * abs(t) * max(1, abs(a))
    assert map_residual(fam.make_example1(d, a, 1e-11), target) < 1e-10
    assert is_indeterminate(target)


def test_example1_phi_consistency():
    # f_a = H * phi_a with phi_a = (aP + z^d)/P in coordinates
    d, a = 3, 0.9
    fa = fam.example1_second_limit(d, a)
    dec = decompose(fa, 1e-4)
    assert dec.e == d
    p, q = fam.example1_phi(d, a)
    for z in (0.3, 1.7 - 0.2j, 5.0):
        img_dec = apply_pair(dec.phi, canonicalize(z, 1))
        img_ref = apply_pair((p, q), canonicalize(z, 1))
        assert chordal_distance(img_dec, img_ref) < 1e-8


def test_example1_critical_points():
    # z = 0 with multiplicity d-1, and d-1 points independent of a and t
    d = 3
    P = fam.default_P(d - 1)
    lists = []
    for a, t in ((0.5, 0.01), (-1.2 + 0.7j, 1e-3)):
        g = fam.make_example1(d, a, t, P)
        W = wronskian(g.pair())
        rl = roots(W, 1e-7)
        assert multiplicity_at(rl, ZERO) == d - 1
        others = sorted(
            (pt.ratio() for pt, _ in rl if chordal_distance(pt, ZERO) > 1e-6),
            key=lambda c: (round(c.real, 6), round(c.imag, 6)),
        )
        lists.append(others)
    assert len(lists[0]) == d - 1
    for u, v in zip(*lists):
        assert abs(u - v) < 1e-7
    # the other critical points solve z P'(z,1) - d P(z,1) = 0
    Pz = P.derivative_z()
    for c in lists[0]:
        val = c * Pz.evaluate((c, 1)) - d * P.evaluate((c, 1))
        assert abs(val) < 1e-6


def test_example1_phi_parabolic_at_infinity():
    for d, a in ((2, 0.4), (3, 1.1 - 0.5j)):
        p, q = fam.example1_phi(d, a)
        img = apply_pair((p, q), INFINITY)
        assert chordal_distance(img, INFINITY) < 1e-9
        # multiplier in the u = w/z chart: psi(u) ~ u + O(u^2)
        h = 1e-8
        x = canonicalize(1, h)
        y = apply_pair((p, q), x)
        mult = (y.w / y.z) / h
        assert abs(mult - 1) < 1e-6


def test_example2_coefficient_limit():
    d, k, a = 4, 2, 0.7
    target = fam.example2_limit(d, k)
    for t in (1e-4, 1e-6):
        g = fam.make_example2(d, k, a, t)
        assert map_residual(g, target) < 10 * t
    assert is_indeterminate(target)


def test_example2_second_limit_mass():
    # point mass k/(d+1) at infinity, exceeding the theorem floor k/(d+k)
    d, k = 4, 2
    fa = fam.example2_second_limit(d, k, a=0.7)
    dec = decompose(fa, 1e-4)
    mass, err = point_mass(dec, INFINITY, 1e-12)
    assert abs(mass - k / (d + 1)) < 1e-9
    assert k / (d + 1) > k / (d + k)


@pytest.mark.parametrize("d", [2, 3])
def test_example2_with_k_equal_d_has_a_constant_P(d):
    # k = d leaves P of degree 0, which must be 1: phi has degree d, and H
    # vanishes only at infinity, to order d(d - 1); the closed-form masses are
    # d/(d + 1) at infinity and (d - 1)/(d(d + 1)) at 0
    dec = decompose(fam.example2_second_limit(d, d, a=0.5), 1e-4)
    assert dec.e == d and len(dec.holes) == 1
    assert multiplicity_at(dec.holes, INFINITY) == d * (d - 1)
    for at, exact in ((INFINITY, d / (d + 1)), (ZERO, (d - 1) / (d * (d + 1)))):
        mass, err = point_mass(dec, at)
        assert abs(mass - exact) <= err
    with pytest.raises(ValueError, match="constant P must be identically 1"):
        fam.make_example2(d, d, a=0.5, t=0.1, P=HPoly.constant(2.0))


def test_example2_companion_limits():
    d, k = 4, 2
    # h_a in I(d^2) iff P(a, 1) = 0; default P roots are 1 and 2
    assert is_indeterminate(fam.example2_companion_limit(d, k, a=1.0))
    assert is_indeterminate(fam.example2_companion_limit(d, k, a=2.0))
    assert not is_indeterminate(fam.example2_companion_limit(d, k, a=0.7))


def test_example2_companion_measure_matches_mu_g():
    # mu_{h_a} = (k/d) delta_inf + (1/d) sum delta_{roots of P}, independent of a
    from ratbound import boundary_measure, weak_distance

    d, k = 4, 2
    mus = []
    for a in (0.7, -3.1 + 0.2j):
        ha = fam.example2_companion_limit(d, k, a)
        # H carries multiplicity-4 roots, whose numeric clusters need ~1e-3
        dec = decompose(ha, 1e-3)
        assert dec.e == 0
        mu = boundary_measure(dec, 1e-9)
        assert abs(mass_in_disk(mu, INFINITY, DEFAULTS.hole_match) - k / d) < 1e-9
        assert abs(mass_in_disk(mu, canonicalize(1, 1), DEFAULTS.hole_match) - 1 / d) < 1e-9
        assert abs(mass_in_disk(mu, canonicalize(2, 1), DEFAULTS.hole_match) - 1 / d) < 1e-9
        mus.append(mu)
    assert weak_distance(*mus) < 1e-9
    # and it equals mu_g for the t -> 0 limit g of the family itself
    g = fam.example2_limit(d, k)
    mu_g = boundary_measure(decompose(g, 1e-6), 1e-9)
    assert weak_distance(mus[0], mu_g) < 1e-9


def test_epstein_FT():
    ft = fam.make_epstein_FT(1.0)
    assert not is_indeterminate(ft)
    dec = decompose(ft, 1e-6)
    assert multiplicity_at(dec.holes, ZERO) == 1
    assert multiplicity_at(dec.holes, INFINITY) == 1
    mass, _ = point_mass(dec, INFINITY, 1e-12)
    assert abs(mass - 1 / 3) < 1e-9


def test_cubic_eps_limit():
    target = fam.cubic_limit()
    for eps in (1e-6, 1e-9):
        p = fam.make_cubic_eps(eps)
        assert map_residual(p, target) < 10 * eps
    # limit measure is delta_infinity
    from ratbound import boundary_measure

    mu = boundary_measure(decompose(target, 1e-6), 1e-10)
    assert mass_in_disk(mu, INFINITY, DEFAULTS.hole_match) > 1 - mu.tail_bound - 1e-12


def test_polylimit():
    root_list = [1.0, -1.0, 2.0]
    limit = fam.polylimit_limit(root_list)
    dec = decompose(limit, 1e-6)
    assert dec.e == 0
    assert chordal_distance(dec.constant_value, INFINITY) < 1e-12
    assert not is_indeterminate(limit)
    from ratbound import boundary_measure

    mu = boundary_measure(dec, 1e-9)
    for r in root_list:
        assert abs(mass_in_disk(mu, canonicalize(r, 1), DEFAULTS.hole_match) - 1 / 3) < 1e-12
    # finite k is an honest polynomial map with nonzero resultant
    pk = fam.make_polylimit(root_list, 1.0)
    assert abs(resultant(pk.P, pk.Q)) > 1e-12
    # and the k -> infinity coefficient limit is (P : 0)
    assert map_residual(fam.make_polylimit(root_list, 1e9), limit) < 1e-8


def test_family_parameter_validation():
    with pytest.raises(ValueError):
        fam.make_example1(3, a=1.0, t=0.0)
    with pytest.raises(ValueError):
        fam.make_example2(4, 1, a=1.0, t=0.1)  # k must be >= 2
    d = 3  # every example2 builder refuses k outside 2 <= k <= d before it reads P
    for k in (0, 1, d + 1):
        for build in (lambda: fam.example2_limit(d, k),
                      lambda: fam.example2_companion_limit(d, k, a=0.5),
                      lambda: fam.example2_second_limit(d, k, a=0.5),
                      lambda: fam.make_example2(d, k, a=0.5, t=0.1)):
            with pytest.raises(ValueError, match="k must satisfy 2 <= k <= d"):
                build()
    with pytest.raises(ValueError):
        fam.make_cubic_eps(0.0)
    with pytest.raises(ValueError):
        fam.make_polylimit([1.0, 2.0], -1.0)
    bad_P = HPoly([0, 1])  # root at 0
    with pytest.raises(ValueError):
        fam.make_example1(2, a=1.0, t=0.1, P=bad_P)


_WIDE = 1.7e308 + 1.7e308j  # finite parts, a modulus past float64


_PAST_FLOAT64 = [
    (fam.make_example1, (2, 1e300, 1e300)),  # a t overflows
    (fam.make_example2, (3, 2, 1e300, 1e300)),  # t^k overflows
    (fam.make_epstein_FT, (_WIDE,)),
    (fam.make_cubic_eps, (_WIDE,)),
    (fam.make_polylimit, ([1, 2], 1e-310)),  # 1/k overflows
    (fam.make_inversion, (_WIDE,)),
    (fam.example1_second_limit, (2, 1e308)),
    (fam.example2_second_limit, (3, 2, 1e308)),
    (fam.polylimit_limit, ([1e200, 1e200],)),
]


@pytest.mark.parametrize("make, args", _PAST_FLOAT64,
                         ids=[make.__name__ for make, _ in _PAST_FLOAT64])
def test_a_maker_called_directly_past_float64_raises_the_value_error_alone(make, args):
    # each maker, and not only FamilySpec.build, keeps numpy quiet while its
    # arithmetic overflows (a RuntimeWarning is an error in this suite), so
    # BoundaryMap's ValueError names the coefficient.  make_example2 once
    # raised Python's OverflowError from t**k
    with pytest.raises(ValueError, match="has no finite modulus"):
        make(*args)


def test_family_spec_builds():
    f = fam.FamilySpec("example1", {"d": 2, "a": 0.5, "t": 0.01}).build()
    assert f.d == 2
    g = fam.FamilySpec("epstein_FT", {"T": 1.0}).build()
    assert g.d == 4
    with pytest.raises(ValueError):
        fam.FamilySpec("nope", {})
    with pytest.raises(ValueError, match="family epstein_FT takes no --param TT"):
        fam.FamilySpec("epstein_FT", {"TT": 2})


def test_family_spec_rejects_an_empty_or_non_str_key():
    # neither is a key of the family, so neither is dropped silently
    for key in ("", 1):
        with pytest.raises(ValueError, match="family example1 takes no --param"):
            fam.FamilySpec("example1", {"d": 2, "t": 0.1, key: 0.5})


@pytest.mark.parametrize("value, expected", [(2, 2.0), (0.25, 0.25), (-1, -1.0),
                                             (math.inf, math.inf)])
def test_real_param_reads_an_int_or_a_float_as_a_float(value, expected):
    # the range of a real key is the concern of the function that uses it
    got = fam.real_param("k", value)
    assert type(got) is float and got == expected


@pytest.mark.parametrize("value", [1j, 1 + 1j, "abc", "", [0.5]])
def test_real_param_rejects_what_is_not_a_real_number(value):
    with pytest.raises(ValueError, match="--param k must be a real number"):
        fam.real_param("k", value)


# one value of every key each family takes, none of them its default
EVERY_KEY = {
    "example1": {"d": 3, "t": 0.1, "a": 0.5, "P_roots": [2, 3]},
    "example2": {"d": 3, "k": 2, "t": 0.1, "a": 0.5, "P_roots": [2]},
    "epstein_FT": {"T": 2.0},
    "cubic_eps": {"eps": 0.1},
    "polylimit": {"roots": [1, -1], "k": 2.0},
    "inversion": {"k": 2.0},
}


@pytest.mark.parametrize("name", list(fam.FAMILY_KEYS))
def test_family_spec_reads_every_key_it_takes(name):
    # without a key, build() either names the missing key or builds another map
    params = EVERY_KEY[name]
    assert tuple(params) == fam.FAMILY_KEYS[name]
    full = fam.FamilySpec(name, params).build().to_json()
    for key in params:
        spec = fam.FamilySpec(name, {k: v for k, v in params.items() if k != key})
        try:
            assert spec.build().to_json() != full, key
        except ValueError as exc:
            assert str(exc) == f"family {name} needs --param {key}"


def test_family_spec_limit():
    # cubic_eps's target is delta_infinity exactly; the others read d as build() does
    mu = fam.FamilySpec("cubic_eps").limit(1e-6)
    assert mu.points.tolist() == [[1, 0]] and mu.masses.tolist() == [1.0]
    with pytest.raises(ValueError, match="family example1 needs --param d"):
        fam.FamilySpec("example1", {"a": 0.5}).limit(1e-3)
    with pytest.raises(ValueError, match="not defined for family 'inversion'"):
        fam.FamilySpec("inversion", {"k": 2}).limit(1e-3)
