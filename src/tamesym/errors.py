"""Exception vocabulary shared by the whole engine.

Every failure mode that a caller can trigger with legal-looking input gets its
own class, so the CLI can map engine errors to exit code 3 and parse errors to
exit code 2 without string matching.
"""


class TameSymError(Exception):
    """Base class for all engine errors."""


class Inconclusive(TameSymError):
    """Irreducibility (or factoring) could not be certified either way.

    Raised instead of guessing. Carries the polynomial in the message.
    """


class MixedFields(TameSymError):
    """Two values from different coefficient fields were combined."""


class DegreeMismatch(TameSymError):
    """Wedge arithmetic on operands of different exterior degrees."""


class NonSplitResidue(TameSymError):
    """A residue computation landed in a proper extension of the base field."""


class IdenticallyZeroOnDivisor(TameSymError):
    """A function restricted to a divisor it vanishes on identically."""


class OneMinusOfOne(TameSymError):
    """one_minus applied to the constant 1 (the class of 0 does not exist)."""


class DegenerateArgument(TameSymError):
    """A dilogarithm symbol argument of 0, 1 or infinity was constructed."""


class NotDistinct(TameSymError):
    """Cross-ratio or five-term input points are not pairwise distinct."""


class NotStrictlyRegular(TameSymError):
    """A surface term failed the normal-crossing check."""


class UnsupportedDivisorClass(TameSymError):
    """A surface atom cuts out a divisor outside the supported vocabulary."""


class NonLinearAtom(TameSymError):
    """The split-cone decomposition met a nonconstant, nonlinear atom."""


class NotAdmissible(TameSymError):
    """A cube curve meets a codimension-two face, so its boundary is undefined."""


class CoordinateIdenticallyFace(TameSymError):
    """A cube-curve coordinate is identically 0, 1 or infinity."""


class TooManyDigits(TameSymError):
    """A number in an answer is past the interpreter's int-to-str limit."""


class ParseError(TameSymError):
    """Input text rejected by the DSL parser; position is in the message."""

    def __init__(self, message: str, pos: int | None = None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
