"""Exception types shared across the package.

Four types, one per way a run can go wrong:

* ``ValidationError`` (ValueError): the arguments are wrong — a
  malformed value, an argument outside the supported domain, an unmet
  precondition, an impossible geometry or an inverted element.
* ``ConfigError`` (ValueError): the configuration file or the command
  line is wrong.  It is not a ``ValidationError``, so code that turns a
  ``ValidationError`` into a ``ConfigError`` never catches its own.
* ``SingularMatrixError`` (RuntimeError): a factorization hit a singular
  pencil.
* ``IncompleteSearchError`` (RuntimeError): a root search did not
  locate the roots it certified.

The CLI maps each type to an exit code in one place per command:
``ConfigError`` exits 64 from every command; ``solve`` reports a
``ValidationError`` or ``SingularMatrixError`` raised in the pipeline
as a failure of its stage (exit 1); ``reference`` reports a
``ValidationError`` as a ``[reference]`` config error (exit 64) and an
``IncompleteSearchError`` as an incomplete search (exit 3); ``damping``
reports a ``ValidationError`` as a hypothesis violation (exit 2).
"""


class ValidationError(ValueError):
    """Invalid arguments: a malformed value, a value outside the
    supported domain, an unmet precondition, an impossible geometry or
    an inverted element."""


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration or command line."""


class SingularMatrixError(RuntimeError):
    """LU factorization hit an exactly singular pivot, or the shifted
    pencil K - shift^2 * M is singular and the shift must be moved."""


class IncompleteSearchError(RuntimeError):
    """Root search found fewer (or more) roots than the argument
    principle certifies for the region."""
