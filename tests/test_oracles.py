"""The trimmed root, gcd, canonicalization and merge kernels return the bits
of their earlier bodies (tests/oracles.py) on generated inputs."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from ratbound import INFINITY, ZERO, HPoly, canonicalize, numeric_gcd, roots
from ratbound.hpoly import _companion_roots
from ratbound.projline import _merge_close, canonicalize_rows

# separated root sites: a 7 x 7 grid of spacing 0.7, off the origin and the axes
_SITES = [complex(a, b) * 0.7 + (0.13 + 0.29j) for a in range(-3, 4) for b in range(-3, 4)]
_COEFF = st.floats(-10, 10, allow_subnormal=False)


def _outcome(fn, *args):
    """fn(*args), or the type and text of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # both versions must fail alike
        return type(exc).__name__, str(exc)


def _entry_bits(entries):
    return (np.array([(pt.z, pt.w) for pt, _ in entries], dtype=complex).tobytes(),
            [m for _, m in entries])


def _gcd_bits(out):
    if isinstance(out[0], str):
        return out
    H, p, q, holes = out
    return [(P.degree, P.coeffs.tobytes()) for P in (H, p, q)], _entry_bits(holes)


@st.composite
def _planted(draw, max_degree=16):
    """scale * prod (z - r w)^m over separated sites r with m in 1..3, times
    z^m0 w^minf (exact roots at 0 and infinity, the first as zero trailing
    coefficients); degree 1..max_degree."""
    sites = draw(st.lists(st.sampled_from(_SITES), max_size=5, unique=True))
    jitter = draw(st.complex_numbers(max_magnitude=0.05))
    entries, degree = [], 0
    for r in sites:
        m = draw(st.integers(1, min(3, max_degree - degree))) if degree < max_degree else 0
        if m:
            entries.append((canonicalize(r + jitter, 1), m))
            degree += m
    for pt in (ZERO, INFINITY):
        m = draw(st.integers(0, min(3, max_degree - degree)))
        if m:
            entries.append((pt, m))
            degree += m
    assume(degree >= 1)
    scale = complex(draw(st.floats(0.1, 10)), draw(st.floats(-10, 10)))
    return HPoly.from_roots(entries, scale)


@st.composite
def _generic(draw):
    """Random coefficients, degree 1..16, with some trailing coefficients
    exactly zero and the top ones zero or below roots' tolerance."""
    degree = draw(st.integers(1, 16))
    c = [complex(draw(_COEFF), draw(_COEFF)) for _ in range(degree + 1)]
    for i in range(draw(st.integers(0, degree))):
        c[i] = 0j
    for i in range(draw(st.integers(0, 2))):
        c[degree - i] *= draw(st.sampled_from([0.0, 1e-10, 1e-3]))
    assume(any(c))
    return HPoly(c)


_POLYS = st.one_of(_planted(), _generic())


@settings(max_examples=300, deadline=None)
@given(_POLYS, st.sampled_from([1e-8, 1e-6, 1e-4]))
@example(HPoly([0, 0, 1]), 1e-8)  # a double root at 0
@example(HPoly([1, 0, 0]), 1e-8)  # a double root at infinity
@example(HPoly([1, -3, 3, -1]), 1e-4)  # a triple root at 1
def test_roots_is_its_earlier_body(P, tol):
    new, old = _outcome(roots, P, tol), _outcome(oracles.roots, P, tol)
    if isinstance(old, tuple):
        assert new == old
    else:
        assert _entry_bits(new) == _entry_bits(old)


@st.composite
def _pairs(draw):
    """(P, Q) sharing a planted factor, or a zero or proportional pair."""
    kind = draw(st.sampled_from(["shared", "shared", "zero", "proportional"]))
    if kind == "shared":
        G = draw(_planted(6)) if draw(st.booleans()) else HPoly.constant(1.0)
        A, B = draw(_planted(16 - G.degree)), draw(_planted(16 - G.degree))
        assume(A.degree == B.degree)
        return G * A, G * B
    P = draw(_POLYS)
    if kind == "zero":
        return (P, HPoly.zero(P.degree)) if draw(st.booleans()) else (HPoly.zero(P.degree), P)
    return P, complex(draw(_COEFF), draw(_COEFF)) * P


@settings(max_examples=200, deadline=None)
@given(_pairs(), st.sampled_from([1e-6, 1e-4]))
@example((HPoly.zero(2), HPoly.zero(2)), 1e-6)  # undefined: both raise
@example((HPoly([0, 1, 0]), HPoly([0, 0, 1])), 1e-6)
def test_numeric_gcd_is_its_earlier_body(pair, tol):
    new, old = _outcome(numeric_gcd, *pair, tol), _outcome(oracles.numeric_gcd, *pair, tol)
    assert _gcd_bits(new) == _gcd_bits(old)


_ENTRY = st.one_of(st.floats(-1e300, 1e300), st.sampled_from([0.0, -0.0, 5e-324, -3e-310]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_ENTRY, _ENTRY, _ENTRY, _ENTRY), min_size=1, max_size=12),
       st.sampled_from([None, 1, -1, 1j, -1j]))
def test_canonicalize_rows_is_its_earlier_body(rows, tie):
    a = np.array([(complex(zr, zi), complex(wr, wi)) for zr, zi, wr, wi in rows])
    if tie is not None:  # |z| = |w| on every row
        a[:, 1] = a[:, 0] * tie
    new, old = _outcome(canonicalize_rows, a), _outcome(oracles.canonicalize_rows, a)
    if isinstance(old, tuple):
        assert new == old
    else:
        assert new.tobytes() == old.tobytes()


@st.composite
def _clustered(draw):
    """Canonical rows of separated sites, some repeated at affine offsets of
    0.3 to 1.5 eps, with positive weights."""
    eps = draw(st.sampled_from([1e-7, 1e-4, 1e-2]))
    pts = []
    for r in draw(st.lists(st.sampled_from(_SITES + [0j]), max_size=8)):
        pts.append((r, 1.0))
        for _ in range(draw(st.integers(0, 3))):
            off = draw(st.floats(0.3, 1.5)) * eps * draw(st.sampled_from([1, -1, 1j, -1j]))
            pts.append((r + off, 1.0))
    if draw(st.booleans()):
        pts += [(1.0, 0.0)] * draw(st.integers(1, 3))  # infinity, repeated exactly
    rows = oracles.canonicalize_rows(np.array(pts, dtype=complex).reshape(-1, 2))
    weights = np.array([draw(st.sampled_from([0.5, 1.0, 2.0, 3.0])) for _ in range(len(rows))])
    return rows, weights, eps


@settings(max_examples=300, deadline=None)
@given(_clustered())
def test_merge_close_is_its_earlier_body(case):
    rows, weights, eps = case
    (new_rows, new_w), (old_rows, old_w) = (_merge_close(rows, weights, eps),
                                            oracles.merge_close(rows, weights, eps))
    assert new_rows.tobytes() == old_rows.tobytes()
    assert new_w.tobytes() == old_w.tobytes()


@pytest.mark.parametrize("n", range(1, 10))
@pytest.mark.parametrize("k", [1, 3, 40])
def test_companion_roots_is_its_earlier_body(n, k):
    rng = np.random.default_rng(100 * n + k)
    C = rng.standard_normal((k, n + 1)) + 1j * rng.standard_normal((k, n + 1))
    assert _companion_roots(C).tobytes() == oracles.companion_roots(C).tobytes()
