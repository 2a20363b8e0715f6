"""Exception types shared across the package."""

# What reading a field of a JSON value of the wrong shape raises.
_WRONG_SHAPE = (AttributeError, IndexError, KeyError, TypeError, ValueError)


class DrtoolError(Exception):
    """Base class for faults in the input that this package refuses; an
    InvariantViolation, a fault in drtool itself, is not one."""


class ComplexError(DrtoolError):
    """Invalid 2-complex data: unknown ids, non-closed boundary paths, duplicate ids."""


class ParseError(DrtoolError):
    """Syntax or reference error in an input file, with a source position."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line})" if column is None else f" (line {line}, column {column})"
        super().__init__(message + where)


class CertificateRefused(DrtoolError):
    """A DR(2) certificate's method is unknown, or refuses its recorded choice."""


class MissingWeight(DrtoolError):
    """An angle assignment does not cover every corner it must."""


class UnsupportedWeights(DrtoolError):
    """Negative weights present: cycle/path minimisation is not decided here."""


class MultiVertexError(DrtoolError):
    """Operation requires a complex with a single vertex."""


class NonReducedRelator(DrtoolError):
    """Operation requires reduced, cyclically reduced boundary words."""


class NotATree(DrtoolError):
    """Operation requires the underlying graph to be a tree."""


class NotInjective(DrtoolError):
    """Operation requires an injective edge labeling."""


class NotSubLot(DrtoolError):
    """The given subgraph is not a sub-LOT."""


class AmbiguousCollapseVertex(DrtoolError):
    """The collapse vertex of a sub-LOT is not unique."""


class CapExceeded(DrtoolError):
    """A bounded exhaustive search was asked to exceed its hard cap."""


class GeneratorCountExceedsSearchCap(CapExceeded):
    """The bi-forest sign search backtracks over up to 2^n signs; n is capped."""


class InvalidSearchCap(DrtoolError):
    """``DRTOOL_SEARCH_CAP`` or a diagram face bound is not a non-negative integer."""


class IllFormedMap(DrtoolError):
    """A diagram map does not commute with boundary words or vertex images."""


class InvariantViolation(Exception):
    """An internal consistency check failed: a fault in drtool, not in the
    input, so no ``except DrtoolError`` catches it; reported with exit code 2."""
