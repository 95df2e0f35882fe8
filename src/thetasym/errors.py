"""Exception hierarchy shared by the whole package."""


class ThetasymError(Exception):
    """Base class for all domain errors raised by this package."""


class NormalizationError(ThetasymError):
    """Symbol rows are not strictly decreasing sequences of nonnegative integers."""


class ParseError(ThetasymError):
    """Text input does not match the symbol / label grammar.

    Carries the byte offset of the first offending character.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class DefectClassMismatch(ThetasymError):
    """A symbol's defect is not in the residue class required by its slot."""


class RankOverflow(ThetasymError):
    """Component ranks of a label exceed the rank of the ambient group."""


class SignMismatch(ThetasymError):
    """The even-orthogonal sign equation is violated by a label."""


class CaseMismatch(ThetasymError):
    """Label pair does not match the requested restriction problem."""


class NotUnipotent(ThetasymError):
    """Operation requires a unipotent label (trivial first factor, empty second symbol)."""


class RankMismatch(ThetasymError):
    """Branching target group has the wrong rank for the source label."""


class MultipleNonzero(ThetasymError):
    """More than one variant in a transpose family received nonzero multiplicity.

    The selection property allows at most one, but the gates do not yet
    guarantee it on every input: with eps(-1) = - and supplied orientation
    bits, ``thetasym verify --suite variants --max-rank 1 --eps-minus-one -
    --orient-right - --orient-left-alt +`` finds two such Fourier-Jacobi
    families.  The fix of that gate is ROADMAP item 2.
    """
