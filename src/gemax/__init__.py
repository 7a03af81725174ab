"""Largest-eigenvalue distributions of the Gaussian ensembles.

Exact finite-n CDFs for the orthogonal, unitary and symplectic ensembles
via Fredholm/Nystrom machinery on the Hermite kernel, the limiting
Tracy-Widom laws on the Airy kernel, Edgeworth-type finite-n corrections,
and seeded Monte Carlo validation.
"""

from .acceptance import epsilon_closed
from .airy import (
    AiryBundle,
    EdgeworthResult,
    airy_bundle,
    e_c1,
    e_c2,
    edgeworth_f1_sq,
    edgeworth_f2,
    edgeworth_f4_sq,
    f1_limit,
    f2_limit,
    f4_limit,
    hastings_mcleod_q,
    limit_values,
    tau,
)
from .errors import NumericalError, ParameterError
from .finite_n import (
    EpsilonQuantities,
    ab,
    c_constants,
    cdf_values,
    epsilon_numeric,
    f_n1,
    f_n2,
    f_n4,
    gse_largest_cdf,
    q_p_n,
)
from .mc import (
    McRun,
    empirical_cdf,
    ks_critical_1pct,
    ks_statistic,
    sample_lambda_max,
)

__version__ = "0.1.0"

__all__ = [
    "AiryBundle",
    "EdgeworthResult",
    "EpsilonQuantities",
    "McRun",
    "NumericalError",
    "ParameterError",
    "ab",
    "airy_bundle",
    "c_constants",
    "cdf_values",
    "e_c1",
    "e_c2",
    "edgeworth_f1_sq",
    "edgeworth_f2",
    "edgeworth_f4_sq",
    "empirical_cdf",
    "epsilon_closed",
    "epsilon_numeric",
    "f1_limit",
    "f2_limit",
    "f4_limit",
    "f_n1",
    "f_n2",
    "f_n4",
    "gse_largest_cdf",
    "hastings_mcleod_q",
    "ks_critical_1pct",
    "ks_statistic",
    "limit_values",
    "q_p_n",
    "sample_lambda_max",
    "tau",
    "__version__",
]
