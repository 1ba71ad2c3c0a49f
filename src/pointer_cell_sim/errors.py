"""Exception hierarchy for the simulator."""


class SimulationError(Exception):
    """Base class for all errors raised by this package."""


class StructuralError(SimulationError):
    """An input object is malformed: wrong shape, non-Hermitian, bad partition."""


class PreconditionError(SimulationError):
    """An operation was called with arguments outside its contract."""


class NullMacrostateError(PreconditionError):
    """Conditioning on a macrostate whose weight is numerically zero."""


class AmbiguousPointerError(SimulationError):
    """No unique pointer correspondence: two cells claim the same microstate."""


class FitError(SimulationError):
    """A decay fit could not be performed on the supplied sweep."""


class NumericalError(SimulationError):
    """A numerical routine failed to converge or produced unusable output."""


class CapacityError(SimulationError):
    """A dense-backend request exceeds the hard size cap."""


class NonLocalPerturbationError(PreconditionError):
    """A stability perturbation touches a site set that grows with N."""


class ConfigError(SimulationError):
    """One or more experiment-config defects; all are collected before raising."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))
