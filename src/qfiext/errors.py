"""Exception types raised by the toolkit."""


class QfiextError(Exception):
    """Base class for all toolkit errors."""


class NonHermitianInput(QfiextError):
    """Input matrix is not Hermitian within tolerance."""


class DimensionMismatch(QfiextError):
    """Operands act on spaces of different dimension."""


class DegenerateSpectrum(QfiextError):
    """Operation requires a non-degenerate spectrum."""


class DegenerateExtremalEigenvalues(QfiextError):
    """Operation requires non-degenerate extremal eigenvalues."""


class StepTooSmall(QfiextError):
    """Finite-difference step is below the numerically safe floor."""


class InvalidSpec(QfiextError):
    """A sweep/report specification failed validation; message carries the field path."""


class ModelError(QfiextError):
    """Model evaluation failed; message carries the offending grid point."""


class FamilyFileError(QfiextError):
    """A family definition file could not be parsed or fails schema checks."""
