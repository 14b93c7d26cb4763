"""Exception types shared across the pipeline.

Every error raised on purpose by this package derives from WellQcError, so
callers (notably the CLI) can distinguish contract violations from plain I/O
failures, which surface as the built-in OSError family.
"""

SHOWN_END = 30  # characters a message keeps from each end of a long value


def shorten(text: str) -> str:
    """``text``, or its first and last ``SHOWN_END`` characters joined by "...", so a message quoting it stays short.

    Pass a value's quoted form (``repr`` or ``json.dumps``), which escapes line breaks, to keep the message one line.
    """
    return text if len(text) <= 2 * SHOWN_END else f"{text[:SHOWN_END]}...{text[-SHOWN_END:]}"


class WellQcError(Exception):
    """Base class for all wellqc-specific errors."""


class ShapeError(WellQcError):
    """Tensor or layer shapes are inconsistent with the requested operation."""


class LabelError(WellQcError):
    """A class label is outside the valid range."""


class FormatError(WellQcError):
    """A file does not conform to its declared binary/text format.

    ``offset`` is the byte position at which parsing failed, when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class GridOutOfBounds(WellQcError):
    """A tile-grid crop would fall outside the scan frame."""


class EmptyClass(WellQcError):
    """A dataset split requires more examples of some class than exist."""


class NonFiniteGradient(WellQcError):
    """A gradient contained NaN/Inf, which signals a diverged run."""


class GradCheckFailure(WellQcError):
    """Backprop disagreed with finite differences beyond tolerance."""


class EmptyEvaluation(WellQcError):
    """Metrics were requested for an evaluation with zero examples."""


class ConfigError(WellQcError):
    """A run/grid/grid-file configuration failed validation."""
