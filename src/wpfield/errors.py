"""Exception taxonomy shared by all wpfield modules."""


class WPFieldError(Exception):
    """Base class for all library-specific failures."""


class ConvergenceDomain(WPFieldError):
    """Series parameters outside the region where the q-expansion converges."""


class PoleProximity(WPFieldError):
    """Evaluation point too close to a lattice point for a trustworthy value."""


class NonTermination(WPFieldError):
    """An iteration guard tripped; inputs are outside the intended domain."""


class DegenerateConfiguration(WPFieldError):
    """Arguments degenerate for the requested operation (e.g. u + v on the lattice)."""


class NearSingular(WPFieldError):
    """A denominator evaluated below the singularity threshold."""


class NonFiniteValue(WPFieldError):
    """A public operation produced a non-finite component (overflow is an error)."""
