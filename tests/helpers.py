"""Helpers shared by the test modules."""

from ratbound import DEFAULTS, chordal_distance


def multiplicity_at(entries, pt, tol=DEFAULTS.hole_match):
    """The summed multiplicity of the (ProjPoint, mult) entries within chordal tol of pt."""
    return sum(m for p, m in entries if chordal_distance(p, pt) <= tol)
