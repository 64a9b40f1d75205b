import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ratbound import hpoly
from ratbound import (
    INFINITY,
    ZERO,
    canonicalize,
    chordal_distance,
)
from ratbound.config import DEFAULTS
from ratbound.errors import NumericalFailure
from ratbound.hpoly import HPoly, _companion_roots
from ratbound.measure import _exact_slots, batched_preimage_slots
from ratbound.projline import (_CROSS_BLOCK, _SWEEP_AXIS, _merge_close, canonicalize_rows,
                               chordal_cross)


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


def _row_counts(m):
    """0, 1, a row block of chordal_cross against m columns, one either side
    of it, or several blocks and a remainder."""
    rows = max(1, _CROSS_BLOCK // max(m, 1))
    return st.sampled_from([0, 1, rows - 1, rows, rows + 1]) | st.builds(
        lambda k, r: k * rows + r, st.integers(2, 4), st.integers(1, max(1, rows - 1)))


@pytest.mark.parametrize("m", [0, 1, 32, _CROSS_BLOCK + 3])
@settings(deadline=None, max_examples=25)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_chordal_cross_blocks_equal_the_one_shot_formula(m, data, seed):
    # rows neither canonical nor of unit norm, so some products pass 1 and clip
    n = data.draw(_row_counts(m))
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    B = rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2))
    one_shot = np.minimum(
        np.abs(A[:, 0, None] * B[None, :, 1] - A[:, 1, None] * B[None, :, 0]), 1.0)
    got = chordal_cross(A, B)
    assert got.shape == (n, m) and got.dtype == np.float64
    assert np.array_equal(got, one_shot)


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



@pytest.mark.parametrize("groups, size, merges", [
    (1, 1448, True),     # 1,047,628 pairs, under the floor 2^20 = 1,048,576
    (1, 1449, False),    # 1,049,076
    (128, 129, True),    # 64 pairs a row: exactly the bound 64 n, n = 16,512
    (128, 130, False),   # 64.5 pairs a row
])
def test_merge_close_refuses_more_close_pairs_than_its_linear_bound(groups, size, merges):
    # cliques of rows (1 : w), w spread over 0.9 eps, each 1e-3 from the next
    w = (np.arange(groups)[:, None] * 1e-3 + np.linspace(0, 0.9 * EPS, size)).ravel()
    rows = canonicalize_rows(np.column_stack([np.ones_like(w), w]))
    n = len(rows)
    if merges:
        assert _merge_close(rows, np.ones(n), EPS)[1].tolist() == [float(size)] * groups
    else:
        with pytest.raises(NumericalFailure, match=f"more than {max(64 * n, 2**20)} pairs of "
                                                   f"{n} points lie within chordal 1e-09"):
            _merge_close(rows, np.ones(n), EPS)

# -- the row kernels, bit for bit against their first formulas -------------------
# canonicalize_rows, _merge_close and batched_preimage_slots reduce each row
# column by column with elementwise ufuncs.  The references below keep the
# formulas they replaced (max(axis=1), np.linalg.norm(a, axis=1), sum(axis=1)
# and np.add.at), and every output must match them in every bit.


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _canonicalize_rows_reference(pairs):
    a = np.array(pairs, dtype=complex)
    m = np.abs(a).max(axis=1)
    tiny = m < np.finfo(float).tiny
    if np.any(tiny):
        a[tiny] *= 2.0**64
        m[tiny] = np.abs(a[tiny]).max(axis=1)
    a /= m[:, None]
    a /= np.linalg.norm(a, axis=1)[:, None]
    anchor = np.where(np.abs(a[:, 0]) >= np.abs(a[:, 1]), a[:, 0], a[:, 1])
    a *= (np.abs(anchor) / anchor)[:, None]
    return a


def _merge_close_reference(points, weights, eps):
    z, w = points[:, 0], points[:, 1]
    zw = z * np.conj(w)
    proj = (2 * zw.real * _SWEEP_AXIS[0] + 2 * zw.imag * _SWEEP_AXIS[1]
            + (np.abs(z) ** 2 - np.abs(w) ** 2) * _SWEEP_AXIS[2])
    order = np.argsort(proj)
    swept = proj[order]
    span = np.searchsorted(swept, swept + (2 * eps + 1e-15), side="right")
    span -= np.arange(1, len(swept) + 1)
    none = np.zeros(0, dtype=np.intp)
    near_a, near_b = [none], [none]
    active = np.nonzero(span > 0)[0]
    k = 1
    while len(active):
        a, b = order[active], order[active + k]
        close = np.abs(z[a] * w[b] - z[b] * w[a]) <= eps
        near_a.append(a[close])
        near_b.append(b[close])
        k += 1
        active = active[span[active] >= k]
    a, b = np.concatenate(near_a), np.concatenate(near_b)
    if len(a) == 0:
        return points, weights
    n = len(points)
    label = np.arange(n)
    while True:
        low = np.minimum(label[a], label[b])
        np.minimum.at(label, a, low)
        np.minimum.at(label, b, low)
        label = label[label]
        if np.array_equal(label[a], label[b]):
            break
    in_group = np.zeros(n, dtype=bool)
    in_group[a] = in_group[b] = True
    members = np.flatnonzero(in_group)
    first = label[members]
    heads = members[first == members]
    t = np.sum(points[members] * np.conj(points[first]), axis=1)
    aligned = (weights[members] * np.conj(t) / np.abs(t))[:, None] * points[members]
    total = np.zeros((len(heads), 2), dtype=complex)
    np.add.at(total, np.searchsorted(heads, first), aligned)
    out = points.copy()
    out[heads] = _canonicalize_rows_reference(total)
    keep = label == np.arange(n)
    return out[keep], np.bincount(label, weights=weights, minlength=n)[keep]


def _preimage_slots_reference(phi, pts):
    p, q = phi
    e = p.degree
    pts = np.asarray(pts, dtype=complex).reshape(-1, 2)
    C = pts[:, 1:2] * p.coeffs[None, :] - pts[:, 0:1] * q.coeffs[None, :]
    rowmax = np.abs(C).max(axis=1)
    lead_z = np.abs(C[:, -1])
    lead_w = np.abs(C[:, 0])
    floor = 1e-12 * rowmax
    use_z = (lead_z >= lead_w) & (lead_z > floor)
    use_w = (~use_z) & (lead_w > floor)
    out = np.empty((len(pts), e, 2), dtype=complex)
    if use_z.any():
        out[use_z, :, 0] = _companion_roots(C[use_z])
        out[use_z, :, 1] = 1.0
    if use_w.any():
        out[use_w, :, 0] = 1.0
        out[use_w, :, 1] = _companion_roots(C[use_w, ::-1])
    for i in np.nonzero(~(use_z | use_w))[0]:
        out[i] = _exact_slots(phi, pts[i])
    return out


def _signed(x):
    return st.sampled_from([1.0, -1.0]).map(lambda s: s * x)


# a coordinate part: a signed zero, the smallest subnormal, or a magnitude
# from 1e-300 to 1e300
_PART = st.one_of(
    _signed(0.0), _signed(5e-324),
    st.builds(lambda s, m, k: s * m * 10.0**k, st.sampled_from([1.0, -1.0]),
              st.floats(1.0, 9.99), st.integers(-300, 299)))
_COORD = st.builds(complex, _PART, _PART)
# |z| = |w| exactly: abs is the same hypot of the same two parts
_TIES = [lambda z: -z, lambda z: z.conjugate(), lambda z: 1j * z,
         lambda z: complex(z.imag, z.real)]
_ROW = st.one_of(
    st.tuples(_COORD, _COORD),
    st.tuples(_COORD, st.just(0j)), st.tuples(st.just(-0j), _COORD),
    st.builds(lambda z, tie, swap: (tie(z), z) if swap else (z, tie(z)),
              _COORD, st.sampled_from(_TIES), st.booleans()),
).filter(lambda row: row[0] != 0 or row[1] != 0)


@settings(deadline=None, max_examples=60)
@given(st.lists(_ROW, min_size=1, max_size=16))
def test_canonicalize_rows_matches_its_first_formula_bit_for_bit(rows):
    rows = np.array(rows, dtype=complex)
    assert _same_bits(canonicalize_rows(rows), _canonicalize_rows_reference(rows))


def _twin_cloud(seed, n):
    """n random canonical rows and a twin of each within 1e-12, shuffled."""
    rng = np.random.default_rng(seed)
    rows = canonicalize_rows(rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2)))
    twins = canonicalize_rows(rows + 1e-12 * (rng.standard_normal((n, 2))
                                              + 1j * rng.standard_normal((n, 2))))
    return np.concatenate([rows, twins])[rng.permutation(2 * n)], rng.uniform(0.01, 1.0, 2 * n)


# numpy reuses a temporary operand of 256 KB or more in place, which can swap
# the operands of a complex product, and a*b and b*a may differ in the last
# bit.  clouds() stays far below that size; the twin cloud's 20,000 members make
# points[members] 640 KB and the phase terms t 320 KB, both above it
@settings(deadline=None, max_examples=60)
@given(clouds())
@example(_twin_cloud(29, 10_000))
def test_merge_close_matches_its_first_formula_bit_for_bit(cloud):
    points, masses = cloud
    out_p, out_m = _merge_close(points, masses, EPS)
    ref_p, ref_m = _merge_close_reference(points, masses, EPS)
    assert _same_bits(out_p, ref_p) and _same_bits(out_m, ref_m)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), e=st.integers(2, 5), tie=st.booleans())
def test_preimage_slots_keep_their_chart_and_bits_at_ties_and_the_floor(seed, e, tie):
    # tie: p and q have equal outer coefficients, so every row's two leading
    # coefficients tie exactly.  The rows (p_e : q_e) and (p_0 : q_0) zero one
    # leading coefficient (both when tie), and small offsets put it just
    # either side of the 1e-12 floor
    rng = np.random.default_rng(seed)
    p, q = (rng.standard_normal(e + 1) + 1j * rng.standard_normal(e + 1) for _ in range(2))
    if tie:
        p[0], q[0] = p[-1], q[-1]
    phi = (HPoly(e, p), HPoly(e, q))
    rows = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(4)]
    for end in (-1, 0):
        for offset in (0.0, 3e-13, 1e-12, 3e-12, 1e-10):
            rows.append(np.array([p[end], q[end]]) + offset * rng.standard_normal(2))
    rows = np.array(rows)
    assert _same_bits(batched_preimage_slots(phi, rows), _preimage_slots_reference(phi, rows))


# -- a row's bits never depend on its batch, at sizes where numpy's loops
# take their vectorized paths and the root kernel splits its batch


def test_canonicalize_rows_at_size_equals_its_7_row_slices():
    # magnitudes from 1e-315 to 1e300, so some rows take the subnormal rescale
    rng = np.random.default_rng(31)
    scale = 10.0 ** rng.integers(-315, 300, (40_000, 1))
    rows = scale * (rng.standard_normal((40_000, 2)) + 1j * rng.standard_normal((40_000, 2)))
    sliced = np.concatenate([canonicalize_rows(rows[i:i + 7]) for i in range(0, 40_000, 7)])
    assert _same_bits(canonicalize_rows(rows), sliced)


@pytest.mark.parametrize("e", [2, 5])
def test_batched_preimage_slots_at_size_equal_their_5_row_slices(e):
    rng = np.random.default_rng(37 + e)
    p, q = (rng.standard_normal(e + 1) + 1j * rng.standard_normal(e + 1) for _ in range(2))
    phi = (HPoly(e, p), HPoly(e, q))
    rows = canonicalize_rows(rng.standard_normal((20_000, 2))
                             + 1j * rng.standard_normal((20_000, 2)))
    sliced = np.concatenate([batched_preimage_slots(phi, rows[i:i + 5])
                             for i in range(0, 20_000, 5)])
    assert _same_bits(batched_preimage_slots(phi, rows), sliced)


@pytest.mark.parametrize("e", [2, 5])
def test_preimage_step_gives_each_row_its_own_bits_alone_and_past_elision(e, monkeypatch):
    # the frozen row kernels of a sampler step: batched_preimage_slots, then
    # canonicalize_rows.  Each row gets the bits it gets alone, in batches of
    # 1,000 and in one of 20,000, whose (20,000, e + 1) fiber coefficients are
    # past numpy's 256 KB temporary elision, which can swap a complex product's
    # operands.  The root kernel's halves equal one eigvals call
    rng = np.random.default_rng(41 + e)
    p, q = (rng.standard_normal(e + 1) + 1j * rng.standard_normal(e + 1) for _ in range(2))
    phi = (HPoly(e, p), HPoly(e, q))
    rows = canonicalize_rows(rng.standard_normal((20_000, 2))
                             + 1j * rng.standard_normal((20_000, 2)))

    def step(batch):
        return canonicalize_rows(batched_preimage_slots(phi, batch).reshape(-1, 2))

    alone = np.concatenate([step(rows[i:i + 1]) for i in range(len(rows))])
    assert _same_bits(np.concatenate([step(rows[i:i + 1000]) for i in range(0, 20_000, 1000)]),
                      alone)
    assert _same_bits(step(rows), alone)

    C = rng.standard_normal((20_000, e + 1)) + 1j * rng.standard_normal((20_000, e + 1))
    A = np.zeros((20_000, e, e), dtype=complex)
    A[:, np.arange(1, e), np.arange(e - 1)] = 1.0
    A[:, :, -1] = -(C[:, :-1] / C[:, -1:])
    monkeypatch.setattr(hpoly, "_THREADS", 2)
    monkeypatch.setattr(hpoly, "_pool", None)
    halves = _companion_roots(C)
    assert hpoly._pool is not None  # the batch was split
    assert _same_bits(halves, np.linalg.eigvals(A))
