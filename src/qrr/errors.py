"""Exception hierarchy for the engine."""


class QrrError(Exception):
    """Base class for all engine errors."""


class NonUnitConstantTerm(QrrError):
    """Series inversion requires a constant term that is a unit of Z[i]."""


class DivergentProduct(QrrError):
    """Infinite Pochhammer product with a factor of nonpositive q-order."""


class DivergentEmbedding(QrrError):
    """z-series embedding whose window would be unbounded at fixed order."""


class NegativeExponent(QrrError):
    """Negative q-exponents are not representable; series are never Laurent in q."""


class NotPositiveDefinite(QrrError):
    """Quadratic form / Nahm matrix failed the positive-definiteness check."""


class ParseError(QrrError):
    """Syntax error in an identity file."""

    def __init__(self, message, line, col, expected=()):
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        hint = " (expected %s)" % ", ".join(expected) if expected else ""
        super().__init__("line %d, col %d: %s%s" % (line, col, message, hint))


class SemanticError(QrrError):
    """Well-formed but meaningless identity description."""
