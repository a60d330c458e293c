"""Exception hierarchy for the toolkit.

Every error raised by the library derives from QlagError so callers can
catch toolkit failures without masking programming errors.
"""


class QlagError(Exception):
    """Base class for all toolkit errors."""


class RankDeficient(QlagError):
    """Generator rows do not span a full-rank lattice."""


class SingularBasis(QlagError):
    """Basis matrix has zero determinant."""


class DimensionMismatch(QlagError):
    """Vectors of incompatible lengths were paired."""


class SingularPoint(QlagError):
    """Normal frame is rank deficient at the point."""


class SingularJacobian(QlagError):
    """Constraint Jacobian is (numerically) rank deficient."""


class NoConvergence(QlagError):
    """Iteration exhausted its budget without meeting the tolerance."""


class SamplingExhausted(QlagError):
    """No point of the variety has every |u_i| above the sampler's floor."""


class NotACone(QlagError):
    """Operation requires a homogeneous system (all constants zero)."""


class ApexPoint(QlagError):
    """The cone apex u = 0 has no spherical normalization."""


class ChartFailure(QlagError):
    """Local chart left its domain of validity."""


class DimensionUnsupported(QlagError):
    """Operation is not implemented for this manifold dimension."""


class ChartUnavailable(DimensionUnsupported):
    """The system has no chart of the requested kind: a curve chart needs a
    compact plane conic, a link chart an n=3 cone of signature (+,+,-).
    A report check that needs one is skipped, as for an unsupported
    dimension."""


class MeshTooCoarse(QlagError):
    """Discrete defect failed to decrease under mesh refinement."""


class NonFreeWitness(QlagError):
    """Two orbit points coincide; the group action test failed."""


class CrossCheckFailed(QlagError):
    """Two independent evaluations of the same quantity disagree."""


class ConfigInvalid(QlagError):
    """Instance configuration failed validation.

    Carries a list of field-level messages.
    """

    def __init__(self, messages):
        if isinstance(messages, str):
            messages = [messages]
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))
