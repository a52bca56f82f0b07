"""Exception hierarchy for the bcortho package.

Every error raised on purpose by this package derives from BcorthoError,
so callers can catch the whole family with one clause. The leaf classes
are named after the condition they report, not after the module that
raises them.
"""


class BcorthoError(Exception):
    """Base class for all package errors."""


class DomainViolation(BcorthoError):
    """A parameter lies outside its admissible domain."""


class GridTooCoarse(DomainViolation):
    """A torus grid has too few points per axis to resolve a pairing."""


class LengthMismatch(BcorthoError):
    """Two vectors that must have equal length do not."""


class ZeroCoordinate(BcorthoError):
    """A Laurent polynomial was evaluated at a point with a zero entry."""


class ZeroArgument(BcorthoError):
    """A function undefined at zero received zero."""


class ZeroProduct(BcorthoError):
    """An infinite product vanished where the caller required nonzero."""


class NearPole(BcorthoError):
    """An evaluation point came within guard distance of a pole."""


class PoleAtDenominator(BcorthoError):
    """A q-shifted factorial in a denominator vanishes."""


class PoleAtNonpositiveInteger(BcorthoError):
    """The q-gamma function was called at a nonpositive integer."""


class PoleInDenominator(BcorthoError):
    """The denominator theta factor of a quasi-constant vanishes."""


class PoleInProduct(BcorthoError):
    """A factor of a closed-form product evaluation vanishes."""


class PoleInPrefactor(BcorthoError):
    """A normalizing prefactor could not be evaluated."""


class PoleInWeight(BcorthoError):
    """A measure weight hit a pole of one of its factors."""


class PoleInTheta(BcorthoError):
    """A theta factor inside a weight vanished."""


class EigenvalueCollision(BcorthoError):
    """Two operator eigenvalues are too close to separate numerically."""


class DiagonalMismatch(BcorthoError):
    """An extracted triangular matrix disagrees with closed-form eigenvalues."""


class NonFiniteWeight(BcorthoError):
    """A measure weight overflowed or is not a number."""


class NotWInvariant(BcorthoError):
    """A Laurent polynomial that must be invariant under the
    hyperoctahedral group is not exactly so."""


class NonPositiveWeight(BcorthoError):
    """A weight that must be positive is not."""


class SlowConvergence(BcorthoError):
    """A summation or a support chain did not end within its cap."""


class SingularGram(BcorthoError):
    """A Gram matrix used for orthogonalization is numerically singular."""


class FormMismatch(BcorthoError):
    """Two supposedly equal closed forms disagree beyond tolerance."""


class UncancelledPole(BcorthoError):
    """A symbolic cancellation left a genuine pole behind."""


class ConfigError(BcorthoError):
    """An invalid run configuration was supplied."""


class IoError(BcorthoError):
    """A report could not be written."""
