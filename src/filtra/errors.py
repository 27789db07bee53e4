"""Exception taxonomy shared across the library.

CLI exit codes: SizeBudgetExceeded maps to 3, and every other FiltraError
to 2, as a configuration error.
"""


class FiltraError(Exception):
    pass


class TermSyntaxError(FiltraError):
    """Malformed S-expression or unknown operation symbol in a term."""


class UnboundVariable(FiltraError):
    """A term variable has no value under the given valuation."""


class ArityMismatch(FiltraError):
    """An application does not match the signature arity."""


class NotACongruence(FiltraError):
    """A partition fails the substitution property for some operation."""


class SizeBudgetExceeded(FiltraError):
    """A computation would exceed the configured step budget."""


class UnknownName(FiltraError):
    """A name does not resolve against the workspace or built-in corpus."""


class UnknownExample(FiltraError):
    """An id outside the reproduce catalog."""


class InvalidSpec(FiltraError):
    """A structurally invalid logic, class, or candidate description."""
