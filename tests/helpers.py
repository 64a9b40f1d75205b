"""Helpers shared by the test modules."""

import numpy as np

from ratbound import DEFAULTS, BoundaryMap, HPoly, chordal_distance, hpoly, resultant


def hp(*coeffs):
    return HPoly.from_coeffs(coeffs)


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
