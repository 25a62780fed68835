"""Exception types shared across the library.

Everything raised on purpose derives from GroupError, so callers (and the
CLI) can distinguish domain failures from programming mistakes.
"""


class GroupError(Exception):
    pass


class ForeignSubgroup(GroupError, ValueError):
    """A subgroup was given together with a group (or another subgroup) it
    does not belong to.  Also a ValueError, so callers that catch
    ValueError for it keep working."""


class BadArgument(GroupError, ValueError):
    """An argument outside its domain: subgroup elements without the
    identity or of a size not dividing the group order, labels that do not
    match the order, a primary order that is not a prime power, or an empty
    or non-prime prime set.  Also a ValueError, so callers that catch
    ValueError for it keep working."""


class NotAGroup(GroupError):
    """An axiom failed.  ``witness`` pins down where: a triple (a, b, c) for
    associativity, an element index for a missing inverse, a row/column pair
    for a Latin-square violation, None for a missing identity."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class OrderCapExceeded(GroupError):
    def __init__(self, order, cap):
        super().__init__(f"group order {order} exceeds the cap {cap}")
        self.order = order
        self.cap = cap


class UnknownName(GroupError):
    pass


class UnknownClass(GroupError):
    pass


class NotCentral(GroupError):
    pass


class NotIsomorphism(GroupError):
    pass


class NotNormal(GroupError):
    pass


class NotClosed(GroupError):
    pass


class NotAbelian(GroupError):
    pass


class NotSoluble(GroupError):
    """Raised by has_minimal_supersoluble_residual on a group that is not
    soluble.  No claim raises it: a claim records a failed solubility
    hypothesis as ("soluble", False) in its report."""


class TrivialGroup(GroupError):
    pass


class ClosureNotDeclared(GroupError):
    pass


class ClosureFlagsMissing(GroupError):
    pass


class BadBound(GroupError):
    pass


class BadClassBound(BadBound):
    pass


class HypothesisFailed(GroupError):
    """A claim's hypothesis failed.  No claim raises it any more: each
    records the failed hypothesis in its report.  Kept for callers that
    still catch it."""

    def __init__(self, hypothesis, message=None):
        super().__init__(message or f"hypothesis failed: {hypothesis}")
        self.hypothesis = hypothesis


class NotAFittingClassWitness(GroupError):
    """Two normal members of a class whose join leaves the class: the class
    was flagged fitting_class but does not behave like one on this group."""

    def __init__(self, first, second, message=None):
        super().__init__(message or "join of two normal class members leaves the class")
        self.first = first
        self.second = second


class NotAFormationWitness(GroupError):
    """Two kernels whose intersection ruins the quotient membership: the
    class was flagged as quotient/subdirect closed but is not, empirically."""

    def __init__(self, first, second, message=None):
        super().__init__(message or "kernel intersection leaves the class")
        self.first = first
        self.second = second


class CorpusFormatError(GroupError):
    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no
