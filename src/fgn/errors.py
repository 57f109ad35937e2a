"""Exception types shared across the toolkit."""


class FgnError(Exception):
    """Base class for all toolkit errors."""


class ShapeError(FgnError, ValueError):
    """Operand shapes are incompatible with the requested operation."""


class ConfigError(FgnError, ValueError):
    """A configuration value is invalid or inconsistent."""


class TapeError(FgnError, RuntimeError):
    """Autodiff tape misuse: non-scalar loss, double backward, etc."""


class MaskError(FgnError, ValueError):
    """Degenerate attention mask (e.g. a row with every key blocked)."""


class DataError(FgnError, ValueError):
    """Malformed input data: bad CSV cells, non-monotone time, short tables."""


class DivergenceError(FgnError, RuntimeError):
    """Training produced a non-finite loss."""


class CheckpointError(FgnError, ValueError):
    """Base class for checkpoint file problems."""


class CheckpointMagicError(CheckpointError):
    """Checkpoint file does not start with the expected magic bytes."""


class CheckpointConfigError(CheckpointError):
    """Checkpoint config blob is not UTF-8 JSON of a valid model config."""


class CheckpointTruncatedError(CheckpointError):
    """Checkpoint file ends before the declared payload is complete."""


class CheckpointLengthError(CheckpointError):
    """Parameter count in the checkpoint disagrees with the config."""
