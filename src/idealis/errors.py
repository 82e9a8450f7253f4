"""Exception types shared across the engine."""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class CapExceeded(EngineError):
    """A ring construction would exceed the element cap."""


class LatticeCapExceeded(EngineError):
    """Ideal lattice enumeration would exceed the lattice cap."""


class NotMultClosed(EngineError):
    """The given subset is not multiplicatively closed (or misses 1)."""


class ZeroInS(EngineError):
    """The given multiplicative subset contains zero."""


class NotPrime(EngineError):
    """A prime number was required."""


class RingMismatch(EngineError):
    """Operands belong to different rings."""


class ImproperIdeal(EngineError):
    """A proper ideal was required."""


class NotW1AP(EngineError):
    """The ideal is not weakly 1-absorbing prime."""


class ElementOutOfRange(EngineError):
    """An element literal does not resolve to a valid element index."""


class ParseError(EngineError):
    """Syntax error in a ring or ideal expression.

    Carries the byte offset of the failure and the set of token
    descriptions that would have been accepted there.
    """

    def __init__(self, offset: int, expected: frozenset[str], found: str = ""):
        self.offset = offset
        self.expected = frozenset(expected)
        self.found = found
        want = ", ".join(sorted(self.expected))
        what = f", found {found!r}" if found else ", found end of input"
        super().__init__(f"at offset {offset}: expected {want}{what}")
