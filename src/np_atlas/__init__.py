"""Exact-arithmetic cohomology of homogeneous bundles on flag varieties and
syzygy certification for isotropic and G2 homogeneous varieties."""

from .bott import (
    BlockedWeight,
    CohomologyResult,
    InversionBoundReport,
    bbw_cohomology,
    flag_dimension,
    inversion_bound,
)
from .geometry import (
    Family,
    FlagShape,
    VarietySpec,
    canonical_weight,
    parse_shape,
    parse_variety,
    quotient_ranks,
    restriction_surjectivity_check,
)
from .partitions import (
    conjugate,
    weyl_dimension,
)
from .plethysm import (
    wedge_of_sym2,
    wedge_of_wedge2,
)
from .schur import (
    SchurSummand,
    filtration_quotients,
    lr_coefficient,
    schur_character,
    skew_decompose,
    tensor_decompose,
)
from .syzygy import (
    NpCertificate,
    ThresholdResult,
    g2_np_certify,
    np_certify,
    np_threshold,
    schur_complex_term,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
