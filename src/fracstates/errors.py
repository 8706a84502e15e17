"""Exception taxonomy shared by all fracstates modules."""


class FracstatesError(Exception):
    """Base class for all package-specific errors."""


class InvalidGrid(FracstatesError):
    """Grid parameters violate the discretization contract."""


class InvalidInput(FracstatesError):
    """Arguments outside an operation's documented domain."""


class NonFinite(FracstatesError):
    """A field contains NaN or Inf where finite values are required."""


class GridMismatch(FracstatesError):
    """Two fields live on incompatible grids."""


class NonpositiveShift(FracstatesError):
    """Helmholtz shift must be strictly positive."""


class NonpositivePotential(FracstatesError):
    """Sampled potential values must be strictly positive."""


class ZeroField(FracstatesError):
    """The operation is undefined for the zero field."""


class NotInTheta(FracstatesError):
    """No Nehari projection exists along this ray."""


class SeedNotInTheta(FracstatesError):
    """A solver seed lies outside the admissible restricted set."""


class SlopeOrdering(FracstatesError):
    """Constant potential level is not below the asymptotic slope."""


class Diverged(FracstatesError):
    """Line search failed repeatedly; descent cannot continue."""


class BudgetExceeded(FracstatesError):
    """Requested grid exceeds the configured point budget."""


class OverlappingBoxes(FracstatesError):
    """Hypercube family is not pairwise disjoint."""


class BoundaryNotSeparating(FracstatesError):
    """Potential does not rise above the well level on a box boundary."""


class NoInteriorSolutions(FracstatesError):
    """Ground-state selection got no converged interior branch."""


class WindowTooSmall(FracstatesError):
    """Decay-fit window supports fewer than the minimum shell count."""


class NonpositiveTail(FracstatesError):
    """Decay fit needs strictly positive values on the whole window."""


class ConfigError(FracstatesError):
    """Experiment configuration is malformed or carries unknown keys."""
