"""Exact distributions for sums of independent, non-identical uniform variables.

Continuous sums (uniforms on [c_j - a_j, c_j + a_j]) expose density, CDF,
quantile and moment evaluation through ContinuousSum; discrete sums (integer
uniforms on [-m_j, m_j]) expose exact PMFs through DiscreteSum.  The
`oracles` module holds independent brute-force cross-checks, and `cli`
provides the command line tool.
"""

from .contsum import (
    EXACT,
    FLOAT,
    ContinuousComponent,
    ContinuousSum,
    EvalMode,
    EvalResult,
    density_feller,
    density_olds,
)
from .discsum import (
    DiscreteComponent,
    DiscreteSum,
    csc_coefficient,
    pmf_n2_closed,
)
from .errors import MEASURE_MAX, CapacityError, ModeError

__version__ = "0.1.0"

__all__ = [
    "ContinuousComponent",
    "ContinuousSum",
    "EvalMode",
    "EvalResult",
    "EXACT",
    "FLOAT",
    "density_feller",
    "density_olds",
    "DiscreteComponent",
    "DiscreteSum",
    "csc_coefficient",
    "pmf_n2_closed",
    "CapacityError",
    "ModeError",
    "MEASURE_MAX",
    "__version__",
]
