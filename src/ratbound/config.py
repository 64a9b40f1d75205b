"""Default tolerances, centralized so CLI outputs can echo them verbatim."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Package-wide tolerance defaults (all chordal unless noted).

    pt            point-equality / atom-merge radius
    indeterminacy threshold on |H(constant value)| deciding I(d) membership
    gcd           root-matching radius and gcd reconstruction residual bound
    hole_match    orbit-to-hole matching radius (looser than pt: forward
                  orbits accumulate round-off)
    ramification  relative threshold below which a directional-derivative
                  coefficient counts as vanishing
    cluster_floor minimum root-clustering radius
    """

    pt: float = 1e-9
    indeterminacy: float = 1e-8
    gcd: float = 1e-6
    hole_match: float = 1e-6
    ramification: float = 1e-6
    cluster_floor: float = 1e-7

    def as_dict(self):
        # the frozen instance holds exactly its fields, in declaration order
        return dict(vars(self))


DEFAULTS = Tolerances()
