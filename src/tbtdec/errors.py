"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all tbtdec errors."""


class ZeroRowError(ToolkitError):
    """A generator row is all-zero."""


class SpanMismatchError(ToolkitError):
    """A generator row has nonzero entries outside its declared span."""


class DependentRowsError(ToolkitError):
    """Generator rows are linearly dependent over GF(2)."""


class LengthMismatchError(ToolkitError):
    """A message or vector has the wrong length."""


class ShapeMismatchError(ToolkitError):
    """Two trellises cannot be combined (section count or label width differ), or a one-frame call got a batch."""


class TooLargeError(ToolkitError):
    """A construction or search would exceed its configured size bound."""


class EmptyTrellisError(ToolkitError):
    """No start state reaches any final state (or a boundary state died)."""


class NoPathError(ToolkitError):
    """A requested subtrellis contains no start-to-final path."""


class CatalogError(ToolkitError):
    """Unknown catalog entry or inconsistent code configuration."""
