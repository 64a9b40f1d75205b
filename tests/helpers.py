"""Helpers shared by the test modules."""

from fractions import Fraction

import numpy as np

from ratbound import DEFAULTS, BoundaryMap, HPoly, chordal_distance, hpoly, resultant


def hp(*coeffs):
    return HPoly(coeffs)


def random_rat2(rng, min_res=1e-3):
    """A random degree-2 map with |Res(P, Q)| above min_res, drawn from rng."""
    while True:
        c = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        f = BoundaryMap(2, hp(*c[0]), hp(*c[1]))
        if abs(resultant(f.P, f.Q)) > min_res:
            return f


def multiplicity_at(entries, pt, tol=DEFAULTS.hole_match):
    """The summed multiplicity of the (ProjPoint, mult) entries within chordal tol of pt."""
    return sum(m for p, m in entries if chordal_distance(p, pt) <= tol)


def split_batches(monkeypatch):
    """The sizes of the root batches that _companion_roots splits over the pool,
    recorded as they are split."""
    sizes, shared = [], hpoly._shared_map

    def spy(fn, items):
        items = list(items)
        if fn is np.linalg.eigvals:
            sizes.append(sum(map(len, items)))
        return shared(fn, items)

    monkeypatch.setattr(hpoly, "_shared_map", spy)
    return sizes


def _exact(c):
    """The complex float c as an exact (re, im) pair of Fractions (floats are dyadic)."""
    return Fraction(c.real), Fraction(c.imag)


def _tpoly_mul(a, b):
    """The product of two polynomials in (z, t), as dicts {(z power, t power): (re, im)}."""
    out = {}
    for (i, k), (ar, ai) in a.items():
        for (j, m), (br, bi) in b.items():
            cr, ci = out.get((i + j, k + m), (0, 0))
            out[i + j, k + m] = (cr + ar * br - ai * bi, ci + ar * bi + ai * br)
    return out


def _tpoly_compose(outer, inner):
    """outer o inner for (P, Q, degree) triples of homogeneous polynomials in (z, w) whose
    coefficients are polynomials in t: P(G1, G2) = sum_i p_i G1^i G2^(d - i), and so Q."""
    g1, g2, inner_degree = inner
    d = outer[2]
    pow1, pow2 = [{(0, 0): (1, 0)}], [{(0, 0): (1, 0)}]
    for _ in range(d):
        pow1.append(_tpoly_mul(pow1[-1], g1))
        pow2.append(_tpoly_mul(pow2[-1], g2))
    mixed = [_tpoly_mul(pow1[i], pow2[d - i]) for i in range(d + 1)]
    out = []
    for poly in outer[:2]:
        total = {}
        for (i, k), (cr, ci) in poly.items():
            for (j, m), (vr, vi) in mixed[i].items():
                tr, ti = total.get((j, k + m), (0, 0))
                total[j, k + m] = (tr + cr * vr - ci * vi, ti + cr * vi + ci * vr)
        out.append(total)
    return out[0], out[1], d * inner_degree


def path_limit(terms, n):
    """(order, map): the lowest power of t with a nonzero coefficient in f_t^n, for the
    path f_t = sum_k t^k F_k, and that coefficient as a BoundaryMap of degree d^n.

    terms are the pairs F_k = (P_k, Q_k) of degree-d HPolys.  f_t is composed with
    itself n times in exact arithmetic, on Fraction pairs made from the float
    coefficients, so no tolerance decides the order; only the leading coefficient
    is rounded to floats at the end.
    """
    d = terms[0][0].degree
    P, Q = {}, {}
    for k, pair in enumerate(terms):
        for poly, F in zip((P, Q), pair):
            for i, c in enumerate(F.coeffs):
                if c != 0:
                    poly[i, k] = _exact(complex(c))
    f = cur = (P, Q, d)
    for _ in range(n - 1):
        cur = _tpoly_compose(f, cur)
    order = min(k for poly in cur[:2] for (_, k), c in poly.items() if c != (0, 0))
    lead = [np.zeros(cur[2] + 1, dtype=complex) for _ in range(2)]
    for coeffs, poly in zip(lead, cur[:2]):
        for (i, k), (re, im) in poly.items():
            if k == order:
                coeffs[i] = complex(float(re), float(im))
    return order, BoundaryMap(cur[2], HPoly(lead[0]), HPoly(lead[1]))
