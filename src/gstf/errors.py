"""Exception types shared across the package."""

__all__ = [
    "GstfError", "GridError", "BoundaryMassError", "TrivialSpace",
    "UnsupportedRegion", "ParseError", "LexicalError", "UnknownIdentifier",
    "ArityMismatch", "UnbalancedParen",
]


class GstfError(Exception):
    """Base class for all errors raised by this package."""


class GridError(GstfError):
    """Invalid grid construction or incompatible grids."""


class BoundaryMassError(GstfError):
    """Samples at the grid boundary carry too much mass for the operation."""


class TrivialSpace(GstfError):
    """The requested two-parameter class contains only the zero function."""


class UnsupportedRegion(GstfError):
    """Nontrivial class, but no elementary witness formula is shipped."""


class ParseError(GstfError):
    """Base class for expression-parsing failures; carries a byte offset."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class LexicalError(ParseError):
    pass


class UnknownIdentifier(ParseError):
    pass


class ArityMismatch(ParseError):
    pass


class UnbalancedParen(ParseError):
    pass
