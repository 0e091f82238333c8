"""rrlab: a verification laboratory for the Rogers-Ramanujan continued fraction.

Evaluate R(q) and its relatives to arbitrary precision, reproduce the classic
closed-form special values, and machine-check the surrounding identities both
numerically (high precision) and, where the coefficients are exact, as
integer formal power series.
"""

from .numerics import Nome, PrecisionContext, RootMode, agree_bits, certify, golden_phi, root
from .cf import (
    CFResult,
    CFSpec,
    CFStatus,
    ConvergenceError,
    DivergenceError,
    SchurClassification,
    ZeroDenominatorError,
    eval_finite,
    eval_infinite,
    legendre5,
    rr_at_root_of_unity,
    rr_cf,
    rr_root_of_unity_direct,
    schur_classify,
)
from .formal import FormalSeries
from .partitions import PartitionPredicate, count_partitions
from .qseries import (
    G,
    H,
    R_product,
    S,
    chi,
    finite_mu,
    finite_nu,
    pochhammer_inf,
    series_G,
    series_H,
    series_R,
    theta_phi,
)
from .special_values import (
    SpecialValueEntry,
    p_value,
    quintic_uv,
    registry,
    theta_quotient,
    verify_registry,
)
from .identities import asymptotic_check, identity_ids, jims_identity, verify

__version__ = "0.1.0"

__all__ = [
    "PrecisionContext",
    "Nome",
    "RootMode",
    "agree_bits",
    "certify",
    "golden_phi",
    "root",
    "CFSpec",
    "CFResult",
    "CFStatus",
    "ConvergenceError",
    "DivergenceError",
    "ZeroDenominatorError",
    "SchurClassification",
    "eval_finite",
    "eval_infinite",
    "legendre5",
    "schur_classify",
    "rr_cf",
    "rr_at_root_of_unity",
    "rr_root_of_unity_direct",
    "FormalSeries",
    "PartitionPredicate",
    "count_partitions",
    "pochhammer_inf",
    "G",
    "H",
    "R_product",
    "S",
    "chi",
    "theta_phi",
    "finite_mu",
    "finite_nu",
    "series_G",
    "series_H",
    "series_R",
    "SpecialValueEntry",
    "registry",
    "verify_registry",
    "theta_quotient",
    "p_value",
    "quintic_uv",
    "identity_ids",
    "verify",
    "jims_identity",
    "asymptotic_check",
    "__version__",
]
