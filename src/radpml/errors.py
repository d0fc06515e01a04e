"""Exception types shared across the package.

Everything user-facing derives from ValueError or RuntimeError so that
callers who do not care about the fine distinctions can catch the
built-in types.
"""


class ValidationError(ValueError):
    """Invalid input data (non-symmetric matrix, bad config value, ...)."""


class DomainError(ValueError):
    """Function evaluated outside its supported domain."""


class PreconditionError(ValueError):
    """A documented precondition of an operation does not hold."""


class GeometryError(ValueError):
    """Inconsistent geometric description (obstacle not inside the
    scaling radius, non-positive layer width, ...)."""


class GenerationError(RuntimeError):
    """Mesh generation produced an invalid element."""


class AssemblyError(RuntimeError):
    """Finite element assembly failed (non-positive Jacobian, ...)."""


class SingularMatrixError(RuntimeError):
    """LU factorization hit an exactly singular pivot, or the shifted
    pencil K - shift^2 * M is singular and the shift must be moved."""


class IncompleteSearchError(RuntimeError):
    """Root search found fewer (or more) roots than the argument
    principle certifies for the region."""


class ConfigError(ValidationError):
    """Malformed or inconsistent run configuration file."""


class AccuracyWarning(UserWarning):
    """Result is returned but an internal self-check suggests reduced
    accuracy."""
