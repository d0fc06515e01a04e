"""radpml — radial complex-scaling resonance solver for anisotropic exterior domains.

The package computes scattering resonances of the scalar wave equation
-div(sigma grad u) = omega^2 u outside a 2D obstacle by radial complex
scaling (perfectly matched layer), high-order finite elements on curved
structured meshes, and a shift-invert Arnoldi eigensolver, together with
the semi-analytic machinery (complex distances, the damping rate of the
scaled kernel, Hankel-root references) needed to validate the runs.
"""

from .errors import (
    ConfigError,
    IncompleteSearchError,
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
    ResonanceReference,
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
    ScalingProfile,
    SmoothedPolynomialProfile,
    admissible,
    gamma_of_omega,
    min_stabilizing_c,
)
from .mesh import (
    DiskObstacle,
    EllipseObstacle,
    Geometry,
    Mesh,
    generate,
)
from .fem import (
    AssembledPencil,
    CondensedShiftSolver,
    FunctionSpace,
    element_matrices,
)
from .eig import (
    Spectrum,
    rayleigh_residual,
    read_spectrum_csv,
    shift_invert_arnoldi,
    sparse_lu,
    spurious_filter,
    write_spectrum_csv,
    write_spectrum_json,
)

__version__ = "0.1.0"
