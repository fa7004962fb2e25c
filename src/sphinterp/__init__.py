"""Poised polynomial interpolation and positive cubature on the unit sphere.

Node sets live on groups of mirror-paired latitudes carrying even numbers
of equidistant azimuths; the package builds them, solves and certifies the
resulting interpolation problems, verifies the underlying factorization
machinery constructively, and emits the induced cubature rules.
"""

from .cubature import (
    CubatureRule,
    ExactnessReport,
    analytic_basis_integral,
    apply_rule,
    build_rule,
    exactness_certificate,
    legendre_rule,
    trig_quadrature_check,
)
from .errors import (
    DivisibilityError,
    InputError,
    InternalInconsistencyError,
    PoisednessError,
    WeightSumError,
)
from .factorization import (
    ChainKernelCertificate,
    ChebyshevTestCase,
    ReductionFamily,
    chain_kernel_certificate,
    chebyshev_collocation_det,
    collocation_matrix,
    factor_chain,
    factor_step,
    latitude_vanishing_residuals,
    mixed_parity_matrix,
    reduction_coefficients,
    reduction_system_det,
)
from .interpolation import (
    CertificateReport,
    InterpolationProblem,
    SolveReport,
    assemble_at_points,
    assemble_matrix,
    poisedness_certificate,
    solve,
)
from .nodes import (
    TOL_MIRROR,
    AzimuthGrid,
    LatitudeRing,
    NodeGroup,
    NodeSet,
    PartitionPlan,
    azimuth_grid,
    build_nodeset,
    check_mirrored,
    default_latitudes,
    dimension_identity_check,
    enumerate_partitions,
    equispaced_latitudes,
    legendre_latitudes,
    mirror,
    mirrored_grid,
    seeded_latitudes,
)
from .polynomials import (
    UnivariatePoly,
    divide_by_linear_factors,
    from_roots,
    integrate_unit_interval,
    one,
    poly,
    zero,
)
from .spherical import (
    FoldedForm,
    SphericalPoly,
    basis_index_order,
    fold_azimuth_modes,
    multiply_linear_z,
    random_spherical,
    spherical_from_vector,
    zero_spherical,
)

__version__ = "0.1.0"
