"""Exception taxonomy shared across the package."""


class CmlmError(Exception):
    """Base class for all package errors."""


class DimensionError(CmlmError):
    """Tensor shapes do not satisfy an operation's contract."""


class ContractError(CmlmError):
    """An argument violates a documented precondition."""


class NonFiniteError(CmlmError):
    """A NaN or Inf appeared where only finite values are legal."""


class DegenerateInputError(CmlmError):
    """Input is structurally valid but numerically degenerate (e.g. all zeros)."""


class DataError(CmlmError):
    """Corpus, vocabulary, or batch construction received unusable data."""


class IntegrityError(CmlmError):
    """A serialized artifact is corrupt or truncated.

    Carries ``offset``, the byte position where reading failed.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class ConfigMismatchError(CmlmError):
    """A checkpoint was loaded against an incompatible configuration."""


class TrainingDiverged(CmlmError):
    """Training produced a non-finite loss; the last good checkpoint is retained."""

    def __init__(self, message: str, last_checkpoint: str | None = None):
        if last_checkpoint:
            message = f"{message} (last good checkpoint: {last_checkpoint})"
        super().__init__(message)
        self.last_checkpoint = last_checkpoint
