"""Exception types shared across the pipeline."""


class SummarizerError(Exception):
    """Base class for all rbmsumm errors."""


class EmptyDocument(SummarizerError):
    """Raised when the input text contains no non-whitespace content."""


class DegenerateDocument(SummarizerError):
    """Raised when every sentence is dropped during preprocessing."""


class DimensionMismatch(SummarizerError):
    """Raised when an array's width does not match the model's unit count."""


class EmptySystemSummary(SummarizerError):
    """Raised when precision is requested for an empty system summary."""


class EmptyReference(SummarizerError):
    """Raised when recall is requested against an empty reference."""


class MissingReference(SummarizerError):
    """Raised when a corpus document has no matching reference summary."""


class NonFiniteParameter(SummarizerError, ArithmeticError):
    """Raised when an RBM update leaves a parameter infinite or NaN."""
