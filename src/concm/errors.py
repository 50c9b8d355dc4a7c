"""Exception hierarchy shared by all concm modules."""


class ConcmError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ConcmError):
    """Bad configuration or malformed input detected before any work is done."""


class InvalidInput(ConcmError):
    """Numeric input violates a precondition (non-finite, empty, wrong domain)."""


class InvalidConfig(ValidationError):
    """Configuration value out of its documented range."""


class ShapeError(ConcmError):
    """Array shapes are inconsistent with the requested operation."""


class OrderError(ConcmError):
    """Operations invoked out of their required order."""


class MissingClass(ConcmError):
    """A required class has no entry in the repository or knowledge set."""


class DegenerateInput(ConcmError):
    """An input vector is degenerate (zero norm) where a direction is required.

    ``rows`` holds the indices of the degenerate rows when they are known.
    """

    def __init__(self, message: str, rows: list[int] | None = None):
        super().__init__(message)
        self.rows = rows


class DimensionTooSmall(ConcmError):
    """Geometric dimension does not exceed the class count."""


class ParseError(ValidationError):
    """A file could not be parsed; message carries location information."""


class SchemaError(ValidationError):
    """File parsed, but its contents violate the declared schema."""


class UnknownClass(ConcmError):
    """A class name was queried that the attribute table does not cover."""


class EmptyAttribute(ConcmError):
    """A pooled attribute has no supporting samples."""


class MissingEmbedding(ConcmError):
    """A required word embedding is absent from the embedding inputs."""

    def __init__(self, name: str):
        super().__init__(f"no embedding for name {name!r}")
        self.name = name


class AllMasked(ConcmError):
    """Every attribute is masked out for the queried class."""


class InsufficientSamples(ConcmError):
    """A class has too few samples for the requested statistic or episode."""


class InvalidStats(ConcmError):
    """Statistics inputs are invalid (negative variances, non-finite values)."""


class LabelOutOfRange(ConcmError):
    """A label refers to a class index beyond the current structure."""


class DegenerateBatch(ConcmError):
    """A training batch has an empty positive set for some anchor sample."""


class TrainingDiverged(ConcmError):
    """The training loss became non-finite."""


class ProtocolViolation(ConcmError):
    """Session data violates the incremental protocol (class counts or overlap)."""
