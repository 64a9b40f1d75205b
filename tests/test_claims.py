"""The claims ledger: README's table of the abstract's claims and their witnesses,
the witness for claim (b), the codimension of I(d), and those for claims (c) and
(d), limits along paths composed in exact arithmetic."""

import importlib
import re
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from ratbound import (BoundaryMap, HPoly, decompose, is_indeterminate, iterate_formula,
                      map_residual)
from ratbound import families as fam

from helpers import path_limit, random_rat2

ROOT = Path(__file__).resolve().parents[1]
WITNESSES = ("independent", "circular", "missing")


def _ledger():
    """(label, quote, test ids, witness) per row of README's "What the tests witness"."""
    section = (ROOT / "README.md").read_text().split("## What the tests witness", 1)[1]
    rows = [line for line in section.split("\n## ", 1)[0].splitlines()
            if line.startswith("| (")]
    out = []
    for row in rows:
        label, quote, tests, witness = (cell.strip() for cell in row.strip("|").split("|"))
        out.append((label, quote.strip('"'), re.findall(r"`([^`]+)`", tests), witness))
    return out


def _abstract():
    """PAPER.md's abstract with the $ of its inline math removed and its spaces collapsed."""
    return " ".join((ROOT / "PAPER.md").read_text().replace("$", "").split())


def _test_function(test_id):
    """The function of a `tests/test_x.py::test_name` id, and its module."""
    path, name = test_id.split("::")
    assert re.fullmatch(r"tests/test_\w+\.py", path) and name.startswith("test"), test_id
    module = importlib.import_module(Path(path).stem)  # tests/ is on sys.path, as pytest puts it
    fn = getattr(module, name, None)
    assert callable(fn), f"{test_id} names no test function"
    return fn, module


def test_ledger_rows_are_the_abstracts_claims_and_name_collected_tests():
    ledger = _ledger()
    assert [label for label, *_ in ledger] == ["(a)", "(b)", "(c)", "(d)", "(e)"]
    abstract = _abstract()
    for label, quote, tests, witness in ledger:
        assert quote in abstract, f"{label} quotes {quote!r}, which the abstract does not say"
        assert witness in WITNESSES, (label, witness)
        assert bool(tests) == (witness != "missing"), label
        for test_id in tests:
            fn, module = _test_function(test_id)
            if witness == "independent":
                marks = [*getattr(fn, "pytestmark", []), *getattr(module, "pytestmark", [])]
                skipped = [m.name for m in marks if m.name in ("xfail", "skip", "skipif")]
                assert skipped == [], f"{label}'s independent witness {test_id} is {skipped}"


def _parametrization_jacobian(a, b, G):
    """The complex Jacobian, (2d + 2) x (d + 2), of (a, b, G) -> (aH, bH) with
    H = (bz - aw) G, in coefficients (ascending in z), G of degree d - 1."""
    d = len(G)
    line = np.array([-a, b])  # bz - aw
    H = np.convolve(line, G)
    dH_da, dH_db = np.convolve([-1, 0], G), np.convolve([0, 1], G)
    columns = [np.concatenate([H + a * dH_da, b * dH_da]),
               np.concatenate([a * dH_db, H + b * dH_db])]
    for unit in np.eye(d):
        dH = np.convolve(line, unit)
        columns.append(np.concatenate([a * dH, b * dH]))
    return np.column_stack(columns), H


def test_indeterminacy_locus_has_codimension_d_plus_1():
    # (aH : bH) with H(a, b) = 0 is the general point of I(d): phi is the
    # constant (a:b), which is a hole.  The parametrization has d + 2
    # parameters and a one-dimensional scaling fibre, so rank d + 1 makes the
    # affine cone (d + 1)-dimensional: I(d) has dimension d and codimension
    # d + 1 in P^(2d+1)
    rng = np.random.default_rng(5)
    for d in range(2, 6):
        for _ in range(20):
            a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            G = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            J, H = _parametrization_jacobian(a, b, G)
            s = np.linalg.svd(J, compute_uv=False)
            assert s[d] > 1e-3 * s[0] and s[d + 1] < 1e-12 * s[0], (d, s / s[0])
            f = BoundaryMap(d, HPoly(a * H), HPoly(b * H))
            assert is_indeterminate(f)
            # a relative perturbation of 1e-3 leaves I(d): no shared factor survives
            c = np.concatenate([f.P.coeffs, f.Q.coeffs])
            c = c + 1e-3 * (rng.standard_normal(c.shape) + 1j * rng.standard_normal(c.shape))
            assert decompose(BoundaryMap(d, HPoly(c[: d + 1]), HPoly(c[d + 1:]))).e == d


# ---------------------------------------------------------------------------
# claims (c) and (d): limits along paths, composed in exact arithmetic by path_limit


def _mono(d, **coeffs):
    """The degree-d HPoly sum c_i z^i w^(d - i), from keywords z<i>=c_i."""
    c = np.zeros(d + 1, dtype=complex)
    for key, value in coeffs.items():
        c[int(key[1:])] = value
    return HPoly(c)


def test_iterate_map_has_different_limits_along_paths_into_I_d():
    # three paths into f0 = (0 : zw), a point of I(2); the second iterates
    # converge to three maps off I(4), derived by hand: f_t o f_t = (t c z^2 w^2
    # + O(t^2) : t (z^3 w + c z w^3) + ...) along A, B adds 0.7 t z^2 w^2 to the
    # second component, and C doubles its z^3 w.  So f -> f^2 has no limit at f0.
    # The third iterates converge at order t^2 to three distinct maps too, but
    # those lie on I(8): P vanishes at that order, leaving (0 : Q), and Q has a
    # root at (0 : 1), a hole of the constant
    c = 0.3 + 0.1j
    zero2, zw = HPoly.zero(2), _mono(2, z1=1)
    assert is_indeterminate(BoundaryMap(2, zero2, zw))
    paths = {
        "A": [(zero2, zw), (_mono(2, z2=1, z0=c), zero2)],
        "B": [(zero2, zw), (_mono(2, z2=1, z0=c), _mono(2, z0=0.7))],
        "C": [(zero2, zw), (_mono(2, z2=2, z0=c), zero2)],
    }
    by_hand = {
        "A": BoundaryMap(4, _mono(4, z2=c), _mono(4, z1=c, z3=1)),
        "B": BoundaryMap(4, _mono(4, z2=c), _mono(4, z1=c, z2=0.7, z3=1)),
        "C": BoundaryMap(4, _mono(4, z2=c), _mono(4, z1=c, z3=2)),
    }
    for n in (2, 3):
        limits = {}
        for name, terms in paths.items():
            order, limits[name] = path_limit(terms, n)
            assert order == n - 1, (n, name)
            assert is_indeterminate(limits[name]) == (n == 3), (n, name)
            if n == 2:
                assert map_residual(limits[name], by_hand[name]) < 1e-15, name
        for x, y in combinations(limits, 2):
            assert map_residual(limits[x], limits[y]) > 0.1, (n, x, y)


def test_iterate_map_is_continuous_off_I_d():
    # off I(d), f_t^n along f0 + t g tends to f0^n whatever the direction g:
    # the order-0 term of the exact composition is iterate_formula's f0^n, at
    # n = 2 and 3 for d = 2 and at n = 2 for d = 3, whose third iterate takes
    # seconds in exact arithmetic
    rng = np.random.default_rng(43)

    def poly(d):
        return HPoly(rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1))

    starts = []
    for _ in range(3):
        starts.append(random_rat2(rng))                       # e = d
        H = poly(1)
        starts.append(BoundaryMap(2, H * poly(1), H * poly(1)))  # e = 1
        a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        H = poly(2)
        starts.append(BoundaryMap(2, a * H, b * H))           # e = 0, (a : b) no hole
        H = poly(1)
        starts.append(BoundaryMap(3, H * poly(2), H * poly(2)))  # d = 3, e = 2
    for f0 in starts:
        assert not is_indeterminate(f0)
        g = (poly(f0.d), poly(f0.d))
        for n in (2, 3) if f0.d == 2 else (2,):
            order, limit = path_limit([f0.pair(), g], n)
            assert order == 0
            assert map_residual(limit, iterate_formula(f0, n)) < 1e-12


@pytest.mark.parametrize("d, k", [(2, 1), (3, 1), (3, 2), (4, 2), (3, 3)])
@pytest.mark.parametrize("a", [0.4, 0.5])
def test_second_limits_are_their_families_path_limits(d, k, a):
    # example1 (k = 1): g_t = (w P + t a z^d : t z^d), P of degree d - 1;
    # example2: g_t = (w^k P + t^k a z^d : t z^(d-k+1) w^(k-1)), P of degree d - k.
    # The lowest t-term of g_t o g_t, at order k, is the family's closed form
    zero = HPoly.zero(d)
    P = fam.default_P(d - k)
    zd = _mono(d, **{f"z{d}": 1})
    if k == 1:
        terms = [(HPoly.w() * P, zero), (a * zd, zd)]
        closed = fam.example1_second_limit(d, a)
    else:
        second = _mono(d - k + 1, **{f"z{d - k + 1}": 1}) * HPoly.w() ** (k - 1)
        terms = [((HPoly.w() ** k) * P, zero), (zero, second), *[(zero, zero)] * (k - 2),
                 (a * zd, zero)]
        closed = fam.example2_second_limit(d, k, a)
    order, limit = path_limit(terms, 2)
    assert order == k
    assert map_residual(limit, closed) < 1e-15
