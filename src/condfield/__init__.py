"""Gaussian fields conditioned on a large linear functional.

Sample fields exactly conditioned on the event |<T|phi>| >= u (<T|phi> >= u on a
real field) by a rank-one update of an unconditional draw, compute the
non-random limit profile C|T> the conditioned field concentrates onto, and
verify the uniform concentration (and its per-sample bound chain) empirically.
"""

from .covariance import (
    CovOperator,
    Exponential,
    RankK,
    SqrtFactor,
    SquaredExponential,
    assemble,
    kernel_from_spec,
    point_variance_max,
    sqrt_factor,
)
from .concentration import (
    DistanceRecord,
    SweepReport,
    distance_record,
    normalized_sup_distance,
    sweep,
    verify_prop1,
    verify_prop3,
)
from .functionals import (
    LinearFunctional,
    TheoryConstants,
    analytic_derivative_curve,
    constants,
    functional_from_spec,
    make_custom_functional,
    make_derivative_functional,
    make_integral_functional,
    make_point_functional,
    profile,
)
from .grid import Grid, inner, l2_norm, make_grid, sup_norm
from .sampling import (
    COMPLEX,
    FIXED_RHO,
    RANDOM,
    REAL,
    ConditionSpec,
    FieldSample,
    sample_conditional,
    sample_t_u,
    substream,
    white_noise,
)

__version__ = "0.1.0"
