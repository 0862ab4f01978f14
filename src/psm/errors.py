"""Exception types raised across the package.

Modelling failures derive from PsmError; reader, step-rounding and FitConfig
failures are ValueErrors.  The CLI exits 1 on a PsmError, an OSError or a
ValueError (2 when a flag's value raised it).
"""


class PsmError(Exception):
    """Base class for all domain errors."""


class ZeroVectorError(PsmError):
    """A direction or input vector has (numerically) zero length."""


class CutLocusError(PsmError):
    """An exponential-map step reaches or passes the cut locus."""


class AntipodalPairError(PsmError):
    """log_map is undefined: the two points are (numerically) antipodal."""


class HemisphereViolationError(PsmError):
    """Data is not contained in an open hemisphere, so the mean is ambiguous."""


class NoConvergenceError(PsmError):
    """An iterative procedure exhausted its iteration budget."""


class EmptyNeighborhoodError(PsmError):
    """No data point carries kernel weight at the evaluation point."""


class RankDeficientError(PsmError):
    """The requested number of spectral directions is not supported locally."""


class DimensionMismatchError(PsmError):
    """Operands live in different ambient spaces or have different sizes."""


class DegenerateConfigError(PsmError):
    """A landmark configuration collapses to a single point."""


class DegenerateOrbitError(PsmError):
    """Rotation alignment is ill-posed: the complex inner product vanishes."""


class NotCenteredError(PsmError):
    """Coordinates that should be translation-free carry a nonzero centroid."""


class DegenerateProjectionError(PsmError):
    """The step direction is orthogonal to the local frame span."""


class InfeasibleShiftError(PsmError):
    """The requested lift constant leaves a negative radicand."""


class NotAShapeFitError(PsmError):
    """The fitted object does not live on a preshape sphere."""


class LandmarkFormatError(PsmError):
    """A landmark file violates one of the accepted layouts."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
