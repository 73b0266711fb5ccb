"""Exception taxonomy.

Two families matter to callers: bad input data (InputError) and numerical
failure on structurally valid data (NumericalError). The CLI maps them to
exit codes 2 and 3 respectively.
"""


class L0PathError(Exception):
    """Base class for all library errors."""


class InputError(L0PathError):
    """Structurally invalid input: files, matrices, permutations, graphs."""


class NumericalError(L0PathError):
    """Numerical failure on structurally valid input."""


class ParseError(InputError):
    """Instance file is malformed; message carries field context."""


class NotSymmetricStorage(InputError):
    """Q triplets violate the upper-triangle storage contract."""


class NotDiagonallyDominant(InputError):
    """Some diagonal residual D_ii is negative beyond tolerance."""

    def __init__(self, index: int, residual: float):
        self.index = index
        self.residual = residual
        super().__init__(
            f"diagonal dominance fails at variable {index}: residual {residual:.6g} < 0"
        )


class NotBipartite(InputError):
    """Graph operation requires a bipartite support graph."""


class HasCycle(InputError):
    """Cover operation requires a cycle-free edge set."""


class TooLarge(InputError):
    """Instance exceeds the size cap of an exhaustive operation."""


class NotPositiveDefinite(NumericalError):
    """A tridiagonal chain or one of its support blocks fails a pivot test at solve time."""


class SegmentNotPD(NumericalError):
    """A relaxation segment fails the positive-definiteness pivot test."""

    def __init__(self, start: int, end: int):
        self.start = start
        self.end = end
        super().__init__(f"segment [{start}, {end}) is not positive definite")


class TemplateMismatch(NumericalError):
    """The relaxation's segment templates fail to reproduce the quadratic form."""


class SingularSupport(NumericalError):
    """The quadratic restricted to the requested support is singular."""


class InfeasiblePair(NumericalError):
    """x is nonzero at a position where z is zero."""
