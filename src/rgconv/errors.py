"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration value or unsupported option combination."""


class ShapeError(ValueError):
    """Array arguments have incompatible or unsupported shapes."""


class ContractError(ValueError):
    """A documented precondition of an operation was violated."""


class ConsistencyError(RuntimeError):
    """An internal self-check failed; indicates a bug, not bad user input."""


class DataError(ValueError):
    """Data content is unusable (non-finite values, wrong value domain)."""


class Rgt1Error(ValueError):
    """Malformed tensor container file.

    Carries the byte offset at which parsing failed (-1 if unknown).
    """

    def __init__(self, message: str, offset: int = -1):
        super().__init__(f"{message} (byte offset {offset})" if offset >= 0 else message)
        self.offset = offset


class TrainingDiverged(RuntimeError):
    """A loss or a parameter became NaN or infinite. Carries the epoch."""

    def __init__(self, epoch: int, message: str = ""):
        super().__init__(message or f"training diverged at epoch {epoch}")
        self.epoch = epoch


class SymmetryCheckFailed(AssertionError):
    """A gradient-symmetry or equivariance assertion did not hold."""
