"""ratbound: computing with boundary points of the space of rational maps.

Degenerate degree-d pairs factor as f = H*phi; this package decomposes
them, iterates them by the closed product formula, builds their atomic
limit measures with exact tail bounds, samples maximal-entropy measures by
inverse iteration, and evaluates escape-rate potentials -- the numerical
side of how measures of maximal entropy degenerate at the boundary.
"""

from .config import DEFAULTS, Tolerances
from .errors import (
    ExceptionalPointError,
    IndeterminateMapError,
    MathDomainError,
    NumericalFailure,
)
from .projline import (
    INFINITY,
    ZERO,
    ProjPoint,
    canonicalize,
    chordal_distance,
)
from .hpoly import (
    HPoly,
    compose_pair,
    numeric_gcd,
    projective_residual,
    resultant,
    roots,
    vanishing_order,
    wronskian,
)
from .ratmap import (
    BoundaryMap,
    Decomposition,
    decompose,
    hole_depth_sequence,
    is_indeterminate,
    iterate_direct,
    iterate_formula,
    local_degree,
    map_residual,
)
from .measure import (
    AtomicMeasure,
    EmpiricalMeasure,
    backward_tree,
    boundary_measure,
    mass_in_disk,
    point_mass,
    preimages,
    pullback,
    sample_max_entropy,
    support_report,
    design_points,
    weak_distance,
)
from .escape import (
    EscapeValue,
    cone_angle_report,
    escape_rate,
    escape_rate_constant_case,
    functional_equation_residual,
)
from . import families

__version__ = "0.1.0"
