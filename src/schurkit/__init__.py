"""Mixed-norm Schur tests, kernel norms, and coorbit checks on finite spaces.

Everything operates on finite measure spaces with positive point masses, so
suprema are maxima, integrals are weighted sums, and every bound in the
library is verifiable by enumeration.
"""

from .coorbit import (
    CoorbitReport,
    FiniteFrame,
    coorbit_report,
    counterexample_kernel,
    discretization_margin,
    gabor_frame,
    reproducing_kernel,
    sequence_norms,
    voice_transform,
)
from .coverings import (
    CoveringReport,
    PhaseGrid,
    RectCovering,
    SupBoundCertificate,
    covering_weights,
    maximal_kernel,
    oscillation,
    special_linfty_weight,
    sup_bound_certificate,
    validate_covering,
)
from .kernel_algebra import (
    WeightGrid,
    compose,
    identity_kernel,
    lift_plain_kernel,
    mv_weight,
    norm_A,
    norm_B,
    separable_kernel,
    submult_weight_constant,
    tensor_kernel,
    transpose,
    weight_domination_constant,
)
from .measure import ProductSpace, Space, build_space, counting_space, singleton_space, subset_mass
from .mixed_norm import (
    INF,
    GridFunction,
    check_exponent,
    conjugate_exponent,
    dual_extremizer,
    dual_pairing_sup,
    mixed_norm,
)
from .operators import (
    Kernel,
    SchurConstants,
    SlabKernel,
    apply_kernel,
    corner_opnorm,
    opnorm_lower_search,
    schur_bound,
    schur_constants,
    schur_scan,
    weighted_kernel,
)
from .oracles import brute_corner_opnorm, brute_rho, brute_sum_norm_upper
from .sum_space import (
    FactorFunction,
    FourSplit,
    associate_pairing_sup,
    holder_upper_bound,
    intersection_norm,
    rectangle_lower_bound,
    rho,
    rho_split,
    rho_tensor,
    split_four,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # measure
    "Space",
    "ProductSpace",
    "build_space",
    "counting_space",
    "singleton_space",
    "subset_mass",
    # mixed norms
    "INF",
    "GridFunction",
    "check_exponent",
    "conjugate_exponent",
    "mixed_norm",
    "dual_extremizer",
    "dual_pairing_sup",
    # integral operators
    "Kernel",
    "SlabKernel",
    "SchurConstants",
    "apply_kernel",
    "schur_constants",
    "schur_scan",
    "schur_bound",
    "weighted_kernel",
    "corner_opnorm",
    "opnorm_lower_search",
    # kernel algebra
    "WeightGrid",
    "norm_A",
    "norm_B",
    "transpose",
    "compose",
    "identity_kernel",
    "tensor_kernel",
    "separable_kernel",
    "mv_weight",
    "lift_plain_kernel",
    "submult_weight_constant",
    "weight_domination_constant",
    # sum and intersection spaces
    "FactorFunction",
    "FourSplit",
    "rho",
    "rho_split",
    "rho_tensor",
    "intersection_norm",
    "split_four",
    "rectangle_lower_bound",
    "associate_pairing_sup",
    "holder_upper_bound",
    # coverings
    "RectCovering",
    "PhaseGrid",
    "CoveringReport",
    "SupBoundCertificate",
    "validate_covering",
    "covering_weights",
    "maximal_kernel",
    "oscillation",
    "special_linfty_weight",
    "sup_bound_certificate",
    # coorbit
    "FiniteFrame",
    "CoorbitReport",
    "gabor_frame",
    "voice_transform",
    "reproducing_kernel",
    "coorbit_report",
    "discretization_margin",
    "sequence_norms",
    "counterexample_kernel",
    # oracles
    "brute_rho",
    "brute_corner_opnorm",
    "brute_sum_norm_upper",
]
