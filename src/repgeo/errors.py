"""Exception hierarchy.

Everything raised on bad input anywhere in the package derives from
RepGeoError, so callers (and the fuzz tests) can catch one type.
"""

from __future__ import annotations


class RepGeoError(Exception):
    pass


class InvalidInput(RepGeoError):
    """Generic precondition failure on user-supplied data."""


class NotAGroup(RepGeoError):
    """A Cayley table failed validation.

    reason is one of "identity", "latin-square", "associativity";
    witness is a concrete index tuple demonstrating the failure.
    """

    def __init__(self, reason: str, witness, message: str = ""):
        self.reason = reason
        self.witness = witness
        super().__init__(message or f"not a group ({reason}): witness {witness}")


class NotAnAction(RepGeoError):
    def __init__(self, g: str, h: str):
        self.g = g
        self.h = h
        super().__init__(f"act[{g}]*act[{h}] != act[{g}*{h}]")


class NotNormal(RepGeoError):
    def __init__(self, g: int, n: int):
        self.g = g
        self.n = n
        super().__init__(f"conjugate of member {n} by element {g} leaves the subgroup")


class DimensionMismatch(RepGeoError):
    pass


class FieldMismatch(RepGeoError):
    pass


class ContextMismatch(RepGeoError):
    pass


class EnumerationCapExceeded(RepGeoError):
    def __init__(self, cap: int, needed: int, what: str = "enumeration"):
        self.cap = cap
        self.needed = needed
        super().__init__(f"{what} needs {needed} > cap {cap}")


class SearchSpaceCapExceeded(RepGeoError):
    def __init__(self, cap: int, needed: int):
        self.cap = cap
        self.needed = needed
        super().__init__(f"assignment space {needed} > cap {cap}")


class ParseError(RepGeoError):
    def __init__(self, span, expected: str, message: str = ""):
        self.span = span
        self.expected = expected
        super().__init__(
            message or f"{span.line}:{span.column}: expected {expected}"
        )


class UnknownVariable(RepGeoError):
    def __init__(self, name: str, span=None):
        self.name = name
        self.span = span
        where = f"{span.line}:{span.column}: " if span else ""
        super().__init__(f"{where}unknown variable {name!r}")
