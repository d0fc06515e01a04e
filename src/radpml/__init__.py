"""radpml — radial complex-scaling resonance solver for anisotropic exterior domains.

The package computes scattering resonances of the scalar wave equation
-div(sigma grad u) = omega^2 u outside a 2D obstacle by radial complex
scaling (perfectly matched layer), high-order finite elements on curved
structured meshes, and a shift-invert Arnoldi eigensolver, together with
the semi-analytic machinery (complex distances, the damping rate of the
scaled kernel, Hankel-root references) needed to validate the runs.
"""

from .errors import (
    AccuracyWarning,
    AssemblyError,
    ConfigError,
    DefinitenessError,
    DomainError,
    GenerationError,
    GeometryError,
    IncompleteSearchError,
    PreconditionError,
    ShiftRejectedError,
    SingularMatrixError,
    ValidationError,
)
from .media import (
    Medium,
    RangeBox,
    anisotropy_degree,
    b_tau,
    numerical_range_bounds,
    spd_extremes,
)
from .analytic import (
    MAX_ORDER,
    SUPPORTED_RADIUS,
    ComplexDistance,
    ResonanceReference,
    bessel_j,
    bessel_y,
    d_sigma,
    damping_rate,
    find_disk_neumann_references,
    hankel1,
    hankel1_deriv,
    read_reference_csv,
    write_reference_csv,
)
from .scaling import (
    AdmissibilityReport,
    AffineProfile,
    RampProfile,
    ScalingLimits,
    ScalingProfile,
    SmoothedPolynomialProfile,
    admissible,
    gamma_of_omega,
    limits,
    min_stabilizing_c,
)
from .mesh import (
    BOUNDARY_OBSTACLE,
    BOUNDARY_OUTER,
    REGION_INTERIOR,
    REGION_PML,
    DiskObstacle,
    EllipseObstacle,
    Geometry,
    Mesh,
    generate,
    max_edge_length,
    refine,
    triangle_areas,
)
from .fem import (
    DEFAULT_BC,
    DIRICHLET,
    NEUMANN,
    AssembledPencil,
    CondensedShiftSolver,
    FunctionSpace,
    assemble,
    element_matrices,
    rayleigh_residual,
    scaled_tensor,
)
from .eig import (
    Spectrum,
    read_spectrum_csv,
    shift_invert_arnoldi,
    sparse_lu,
    spurious_filter,
    write_spectrum_csv,
    write_spectrum_json,
)

__version__ = "0.1.0"
