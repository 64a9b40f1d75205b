import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratbound import (
    INFINITY,
    ZERO,
    Mobius,
    canonicalize,
    chordal_distance,
    mobius_apply,
)
from ratbound.config import DEFAULTS
from ratbound.projline import _merge_close, canonicalize_rows, chordal_cross


def test_canonicalize_scaling():
    p = canonicalize(2, 0)
    assert p.z == 1 and p.w == 0


def test_canonicalize_phase():
    p = canonicalize(0, -3j)
    assert abs(p.z) == 0 and abs(p.w - 1) < 1e-15


def test_canonicalize_direct_normalization():
    # direct oracle: (1,1) / ||(1,1)||
    p = canonicalize(1, 1)
    assert abs(p.z - 1 / math.sqrt(2)) < 1e-15
    assert abs(p.w - 1 / math.sqrt(2)) < 1e-15


def test_canonicalize_idempotent_and_scale_invariant():
    rng = np.random.default_rng(42)
    for _ in range(50):
        z, w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        lam = rng.standard_normal() + 1j * rng.standard_normal()
        if lam == 0:
            continue
        p = canonicalize(z, w)
        q = canonicalize(lam * z, lam * w)
        assert chordal_distance(p, q) < 1e-12
        r = canonicalize(p.z, p.w)
        assert abs(r.z - p.z) < 1e-14 and abs(r.w - p.w) < 1e-14


def test_canonicalize_rejects_origin():
    with pytest.raises(ValueError):
        canonicalize(0, 0)


def test_chordal_antipodal_and_identity():
    assert chordal_distance(ZERO, INFINITY) == 1.0
    p = canonicalize(0.3 + 0.7j, 1)
    assert chordal_distance(p, p) == 0.0


def test_chordal_formula_value():
    # |1*0 - 1*1| / sqrt(2) for (1:1) vs (1:0)
    assert abs(chordal_distance(canonicalize(1, 1), INFINITY) - 1 / math.sqrt(2)) < 1e-15


def test_chordal_triangle_inequality():
    rng = np.random.default_rng(7)
    for _ in range(200):
        pts = [
            canonicalize(*(rng.standard_normal(2) + 1j * rng.standard_normal(2)))
            for _ in range(3)
        ]
        a, b, c = pts
        assert chordal_distance(a, c) <= (
            chordal_distance(a, b) + chordal_distance(b, c) + 1e-12
        )


def test_mobius_identity_and_swap():
    p = canonicalize(0.2 - 0.4j, 1)
    assert chordal_distance(mobius_apply(Mobius.identity(), p), p) < 1e-15
    assert chordal_distance(mobius_apply(Mobius.swap(), INFINITY), ZERO) < 1e-15


def test_mobius_translation():
    p = mobius_apply(Mobius.translation(1), canonicalize(1, 1))
    assert chordal_distance(p, canonicalize(2, 1)) < 1e-15


def test_mobius_inverse_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(30):
        a, b, c, d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        M = Mobius(a, b, c, d)
        if M.is_singular(1e-6):
            continue
        p = canonicalize(*(rng.standard_normal(2) + 1j * rng.standard_normal(2)))
        q = mobius_apply(M.inverse(), mobius_apply(M, p))
        assert chordal_distance(p, q) < 1e-12


def test_mobius_singular_rejected():
    with pytest.raises(ValueError):
        mobius_apply(Mobius(1, 1, 1, 1), ZERO)


def test_point_json_roundtrip():
    p = canonicalize(1.5 - 2.5j, 0.3j)
    q = type(p).from_json(p.to_json())
    assert chordal_distance(p, q) < 1e-15


def test_canonicalize_rows_matches_scalar():
    rng = np.random.default_rng(11)
    raw = rng.standard_normal((40, 2)) + 1j * rng.standard_normal((40, 2))
    rows = canonicalize_rows(raw)
    for raw_row, row in zip(raw, rows):
        p = canonicalize(raw_row[0], raw_row[1])
        assert abs(p.z - row[0]) < 1e-12 and abs(p.w - row[1]) < 1e-12


def test_chordal_cross_matches_scalar():
    rng = np.random.default_rng(13)
    A = canonicalize_rows(rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2)))
    B = canonicalize_rows(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
    D = chordal_cross(A, B)
    for i in range(5):
        for j in range(4):
            pi = canonicalize(A[i, 0], A[i, 1])
            qj = canonicalize(B[j, 0], B[j, 1])
            assert abs(D[i, j] - chordal_distance(pi, qj)) < 1e-12


# -- merging close rows ---------------------------------------------------------

EPS = DEFAULTS.pt


def _edge_chain(rng, length):
    """Canonical points (x + iy, w), w > 0 real, spaced 0.8 eps in x across an
    eps-grid edge of x, so consecutive points are within eps and the ends
    (for length >= 3) are not."""
    x0, y = rng.uniform(-0.2, 0.2, 2)
    edge = (math.floor(x0 / EPS) + 0.5) * EPS
    xs = edge + 0.8 * EPS * (np.arange(length) - (length - 1) / 2)
    z = xs + 1j * y
    return np.column_stack([z, np.sqrt(1.0 - np.abs(z) ** 2)])


def _anchor_pair(rng):
    """Two points 0.05-0.2 eps apart on either side of |z| = |w|: their
    canonical representatives differ by the phase of z/w."""
    ratio = np.exp(1j * rng.uniform(0, 2 * math.pi))
    delta = rng.uniform(0.05, 0.2) * EPS
    return canonicalize_rows([[ratio * (1 + delta), 1.0], [ratio * (1 - delta), 1.0]])


def _tangent_pair(rng):
    """A random point and one 0.5-0.95 eps away from it in a random direction,
    so that some pairs lie almost along the sweep axis of the merge."""
    z, w = canonicalize_rows(rng.standard_normal((1, 2)) + 1j * rng.standard_normal((1, 2)))[0]
    step = rng.uniform(0.5, 0.95) * EPS * np.exp(1j * rng.uniform(0, 2 * math.pi))
    return canonicalize_rows([[z, w], [z - step * np.conj(w), w + step * np.conj(z)]])


@st.composite
def clouds(draw):
    """Random canonical points plus planted close groups, shuffled, with masses
    summing to 1."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 40))
    parts = [canonicalize_rows(rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2)))
             if n else np.zeros((0, 2), dtype=complex)]
    parts += [_edge_chain(rng, draw(st.integers(2, 4))) for _ in range(draw(st.integers(0, 5)))]
    parts += [_anchor_pair(rng) for _ in range(draw(st.integers(0, 5)))]
    parts += [_tangent_pair(rng) for _ in range(draw(st.integers(0, 5)))]
    rows = np.concatenate(parts)
    if len(rows):
        dups = rng.integers(0, len(rows), draw(st.integers(0, 5)))
        rows = np.concatenate([rows, rows[dups]])
    rows = rows[rng.permutation(len(rows))]
    masses = rng.uniform(0.01, 1.0, len(rows))
    return rows, masses / masses.sum()


def _component_masses(points, masses, eps):
    """Brute-force oracle: the total mass of each connected component of the
    relation chordal <= eps."""
    close = chordal_cross(points, points) <= eps
    seen = np.zeros(len(points), dtype=bool)
    totals = []
    for start in range(len(points)):
        if seen[start]:
            continue
        seen[start] = True
        stack, group = [start], []
        while stack:
            i = stack.pop()
            group.append(i)
            for j in np.nonzero(close[i] & ~seen)[0]:
                seen[j] = True
                stack.append(j)
        totals.append(math.fsum(masses[group]))
    return sorted(totals)


@settings(deadline=None)
@given(clouds())
def test_merge_close_matches_component_oracle(cloud):
    points, masses = cloud
    out_p, out_m = _merge_close(points, masses, EPS)
    assert sorted(out_m) == pytest.approx(_component_masses(points, masses, EPS),
                                          rel=0, abs=1e-15)
    assert abs(math.fsum(out_m) - math.fsum(masses)) <= 1e-15
    D = chordal_cross(out_p, out_p)
    np.fill_diagonal(D, 1.0)
    assert not (D <= EPS).any()
    assert np.allclose(np.abs(out_p[:, 0]) ** 2 + np.abs(out_p[:, 1]) ** 2, 1.0,
                       rtol=0, atol=1e-12)
    big = np.where(np.abs(out_p[:, 0]) >= np.abs(out_p[:, 1]), out_p[:, 0], out_p[:, 1])
    assert np.all(np.abs(big.imag) < 1e-12) and np.all(big.real > 0)


def test_merge_close_keeps_lone_rows_unchanged():
    rng = np.random.default_rng(5)
    rows = canonicalize_rows(rng.standard_normal((30, 2)) + 1j * rng.standard_normal((30, 2)))
    masses = rng.uniform(size=30)
    out_p, out_m = _merge_close(rows, masses, EPS)
    assert out_p is rows and out_m is masses
    empty = np.zeros((0, 2), dtype=complex)
    assert len(_merge_close(empty, np.zeros(0), EPS)[0]) == 0


def test_merge_close_joins_a_chain_and_aligns_phases():
    # three points 0.8 eps apart: the ends are 1.6 eps apart but one group
    chain = _edge_chain(np.random.default_rng(3), 3)
    pair = _anchor_pair(np.random.default_rng(4))
    rows = np.concatenate([chain, pair])
    out_p, out_m = _merge_close(rows, np.array([1.0, 2.0, 1.0, 1.0, 3.0]), EPS)
    assert list(out_m) == [4.0, 4.0]
    assert chordal_cross(out_p[:1], chain[1:2])[0, 0] < 1e-12
    # the pair's representatives differ by a phase; the mean still lies between them
    mid = canonicalize_rows([[np.mean(pair[:, 0] / pair[:, 1]), 1.0]])
    assert chordal_cross(out_p[1:], mid)[0, 0] < 0.3 * EPS
