"""Refusals and edge values that no other test reaches: each case names the
exception it raises, type and message, or the value it returns."""

import math

import numpy as np
import pytest

from ratbound import (
    INFINITY,
    ZERO,
    AtomicMeasure,
    BoundaryMap,
    EmpiricalMeasure,
    HPoly,
    IndeterminateMapError,
    MathDomainError,
    NumericalFailure,
    backward_tree,
    canonicalize,
    compose_pair,
    decompose,
    hole_depth_sequence,
    iterate_direct,
    iterate_formula,
    local_degree,
    mass_in_disk,
    preimages,
    resultant,
    sample_max_entropy,
    support_report,
    vanishing_order,
)
from ratbound import families as fam
from ratbound.escape import escape_rate_constant_case, functional_equation_residual
from ratbound.hpoly import (_polish_multiple_root, count_zeros_in_disk, projective_residual,
                            substitute)

from helpers import hp


H = hp(-1, 0, 1)  # z^2 - w^2
LINE = hp(-1, 1)  # z - w
SQUARES = BoundaryMap(2, hp(0, 0, 1), hp(1, 0, 0))  # (z^2 : w^2), nondegenerate
ON_LOCUS = fam.example1_limit(2)


CASES = [
    # escape: the closed form's three refusals, in its order of checks
    pytest.param(lambda: escape_rate_constant_case(decompose(fam.make_epstein_FT(1.0)), (1, 1)),
                 ValueError("closed form requires deg(phi) = 0"), id="closed-form-needs-e-0"),
    pytest.param(lambda: escape_rate_constant_case(decompose(ON_LOCUS), (1, 1)),
                 IndeterminateMapError("escape rate undefined on indeterminacy locus"),
                 id="closed-form-on-locus"),
    pytest.param(lambda: escape_rate_constant_case(decompose(BoundaryMap(1, 2 * LINE, LINE)),
                                                   (1, 1)),
                 MathDomainError("closed form requires d >= 2"), id="closed-form-degree-1"),
    # (z(z - w) : zw) sends (1:1) to the hole (0:1)
    pytest.param(lambda: functional_equation_residual(
                     BoundaryMap(2, hp(0, -1, 1), hp(0, 1, 0)), (1, 1)),
                 MathDomainError("orbit hit a hole line; functional equation undefined"),
                 id="functional-equation-hits-a-hole"),
    # families
    pytest.param(lambda: fam.example1_second_limit(1, 0.5),
                 ValueError("constant P not allowed for this family"), id="example1-constant-P"),
    pytest.param(lambda: fam.make_example1(2, 1.0, 0.1, P=2 * LINE),
                 ValueError("P must be monic as a polynomial in z"), id="example1-non-monic-P"),
    pytest.param(lambda: fam.example2_second_limit(3, 2, 0), ValueError("a must be nonzero"),
                 id="example2-zero-a"),
    # hpoly
    pytest.param(lambda: LINE + H, ValueError("can only add equal-degree homogeneous polynomials"),
                 id="add-unequal-degrees"),
    pytest.param(lambda: LINE ** -1, ValueError("negative power"), id="negative-power"),
    pytest.param(lambda: substitute([H], LINE, H),
                 ValueError("substituted pair must have equal degrees"), id="substitute-unequal"),
    pytest.param(lambda: compose_pair((LINE, H), (HPoly.z(), HPoly.w())),
                 ValueError("F components must have equal degree"), id="compose-unequal"),
    pytest.param(lambda: resultant(hp(2), hp(3)), 1, id="resultant-of-constants"),
    pytest.param(lambda: projective_residual([0, 0], [0, 0]), 0.0, id="residual-both-zero"),
    pytest.param(lambda: projective_residual([0, 0], [1, 0]), 1.0, id="residual-zero-vector"),
    pytest.param(lambda: vanishing_order(HPoly.zero(2), ZERO), 3, id="vanishing-order-of-0"),
    pytest.param(lambda: count_zeros_in_disk(HPoly.zero(2), ZERO),
                 ValueError("zero polynomial"), id="zeros-in-disk-of-0"),
    pytest.param(lambda: count_zeros_in_disk(HPoly.constant(2.0), ZERO), 0,
                 id="zeros-in-disk-of-a-constant"),
    # z^300 at (0:1): the ring values underflow at every radius the contour grows to
    pytest.param(lambda: count_zeros_in_disk(HPoly([0] * 300 + [1]), ZERO),
                 NumericalFailure("argument-principle contour failed to resolve"),
                 id="zeros-in-disk-unresolved"),
    pytest.param(lambda: HPoly.zero(2).normalize().coeffs.tolist(), [0j] * 3,
                 id="normalize-0"),
    pytest.param(lambda: HPoly.zero(2).monic_leading().coeffs.tolist(), [0j] * 3,
                 id="monic-leading-0"),
    pytest.param(lambda: [(P.degree, P.coeffs.tolist()) for P in
                          (hp(5).derivative_z(), hp(5).derivative_w())],
                 [(0, [0j])] * 2, id="derivatives-of-a-constant"),
    # 3z^2 - 3, the derivative of z^3 - 3z, has slope 0 at 0: the start comes back
    pytest.param(lambda: _polish_multiple_root([0, -3, 0, 1], 0j, 2), 0j,
                 id="polish-at-a-critical-point"),
    # measure
    pytest.param(lambda: AtomicMeasure(np.zeros((2, 2)), np.ones(1)),
                 ValueError("points and masses length mismatch"), id="atoms-length-mismatch"),
    pytest.param(lambda: EmpiricalMeasure(np.zeros((0, 2)), seed=0, depth=1),
                 ValueError("empirical measure needs at least one sample"), id="empty-cloud"),
    pytest.param(lambda: mass_in_disk(object(), ZERO, 0.1),
                 TypeError("not a measure: object"), id="mass-of-a-non-measure"),
    pytest.param(lambda: preimages((H, H), canonicalize(1, 1)),
                 ValueError("fiber polynomial vanished: pair is not coprime"),
                 id="preimages-vanishing-fiber"),
    pytest.param(lambda: backward_tree(BoundaryMap(2, 3 * H, H), canonicalize(3, 1), 1),
                 ValueError("fiber polynomial vanished: pair is not coprime"),
                 id="backward-tree-vanishing-fiber"),
    pytest.param(lambda: sample_max_entropy(SQUARES, canonicalize(0.5, 1), 0, 10, seed=1),
                 ValueError("depth, count and workers must be positive"), id="sample-depth-0"),
    pytest.param(lambda: support_report(decompose(SQUARES)),
                 ValueError("support report applies to degenerate maps"),
                 id="support-report-nondegenerate"),
    # projline
    pytest.param(lambda: INFINITY.ratio(), complex(math.inf, 0.0), id="ratio-at-infinity"),
    # ratmap
    pytest.param(lambda: BoundaryMap(2, LINE, H),
                 ValueError("P and Q must both have the declared degree"), id="map-degree-mismatch"),
    pytest.param(lambda: BoundaryMap(2, HPoly.zero(2), HPoly.zero(2)),
                 ValueError("the zero pair is not a point of Ratbar_d"), id="zero-pair"),
    pytest.param(lambda: iterate_formula(SQUARES, 1) is SQUARES, True, id="first-iterate-is-f"),
    pytest.param(lambda: iterate_direct(SQUARES, 0), ValueError("n must be >= 1"),
                 id="direct-iterate-0"),
    pytest.param(lambda: local_degree((hp(1), hp(2)), ZERO),
                 ValueError("local degree undefined for constant phi"),
                 id="local-degree-constant-phi"),
    pytest.param(lambda: hole_depth_sequence(decompose(ON_LOCUS), ZERO, 3),
                 IndeterminateMapError("hole depths undefined on indeterminacy locus"),
                 id="hole-depths-on-locus"),
]


@pytest.mark.parametrize("call, outcome", CASES)
def test_refusal_or_edge_value(call, outcome):
    if isinstance(outcome, Exception):
        with pytest.raises(type(outcome)) as info:
            call()
        assert info.type is type(outcome)
        assert str(info.value) == str(outcome)
    else:
        assert call() == outcome
