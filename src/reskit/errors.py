"""Exception types shared across the package."""


class ReskitError(Exception):
    """Base class for all domain errors raised by this package."""


class UnprocessableProduct(ReskitError):
    """A task sits on a resource that has no processing rate for its product."""


class BrokenChain(ReskitError):
    """Task chains do not form a single acyclic sequence per resource."""


class NoFocalTask(ReskitError):
    """The operation needs a focal task but the state has none."""


class OperatorNotApplicable(ReskitError):
    """A repair operator's preconditions do not hold in this state."""


class EmptyProposalSet(ReskitError):
    """Selection was asked to choose from zero proposals."""


class InvalidConfig(ReskitError, ValueError):
    """Episode or hyperparameter configuration is out of range."""


class InfeasibleSpec(ReskitError):
    """Instance spec cannot yield a feasible instance."""


class InstanceFormatError(ReskitError):
    """Instance file violates the schema (unknown/missing fields, bad types)."""


class CorruptQStoreError(ReskitError):
    """Preference store file cannot be parsed."""


class QStoreVersionError(ReskitError):
    """Preference store file has an unsupported version header."""
