"""Exception types shared across the package."""


class QClockError(Exception):
    """Base class for all qclock errors."""


class NotHermitian(QClockError):
    """Input matrix deviates from its adjoint beyond tolerance."""


class NoConvergence(QClockError):
    """The eigensolver (LAPACK) reported that it did not converge."""


class NoRationalWithinTolerance(QClockError):
    """No continued-fraction convergent meets the requested tolerance."""


class DimensionNotOddPrime(QClockError):
    """The construction requires an odd prime dimension."""


class IndexOutOfRange(QClockError, IndexError):
    """Basis label outside 0..N-1."""


class DimensionMismatch(QClockError, ValueError):
    """Operands built for different dimensions."""


class NotScalarMultiple(QClockError):
    """Two matrices expected to differ by a scalar phase do not.

    This signals an implementation bug, not a domain condition.
    """


class NotADensityMatrix(QClockError):
    """Input fails a density-matrix sub-check (named in the message)."""


class IncompatibleSpectrum(QClockError):
    """Spectrum does not match its decomposition, or its tick is no float64."""


class InternalConsistency(QClockError):
    """A cross-check that must hold by construction failed."""
