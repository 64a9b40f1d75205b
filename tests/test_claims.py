"""The claims ledger: README's table of the abstract's claims and their witnesses,
and the witness for claim (b), the codimension of I(d)."""

import importlib
import re
from pathlib import Path

import numpy as np

from ratbound import BoundaryMap, HPoly, decompose, is_indeterminate

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
            f = BoundaryMap(d, HPoly(d, a * H), HPoly(d, b * H))
            assert is_indeterminate(f)
            # a relative perturbation of 1e-3 leaves I(d): no shared factor survives
            c = np.concatenate([f.P.coeffs, f.Q.coeffs])
            c = c + 1e-3 * (rng.standard_normal(c.shape) + 1j * rng.standard_normal(c.shape))
            assert decompose(BoundaryMap(d, HPoly(d, c[: d + 1]), HPoly(d, c[d + 1:]))).e == d
