"""Exception types raised by the digraph and linkage machinery."""


class KLinkageError(Exception):
    """Base class for all library errors."""


class InputError(KLinkageError, ValueError):
    """An argument fails validation; also a ValueError for callers that catch one."""


class SelfLoopError(KLinkageError):
    pass


class DuplicateArcError(KLinkageError):
    pass


class VertexOutOfRangeError(KLinkageError):
    pass


class NotSemicompleteError(KLinkageError):
    pass


class NotTournamentError(KLinkageError):
    pass


class EvenOrderError(KLinkageError):
    pass


class PartOverlapError(KLinkageError):
    pass


class ArityMismatchError(KLinkageError):
    pass


class NotAPartitionError(KLinkageError):
    pass


class NotACompositionError(KLinkageError):
    pass


class SameVertexError(KLinkageError):
    pass


class VertexInSetError(KLinkageError):
    """Vertex was required to lie outside the given set."""


class SetOverlapError(KLinkageError):
    pass


class SizeMismatchError(KLinkageError):
    pass


class TooFewVerticesError(KLinkageError):
    pass


class KTooSmallError(KLinkageError):
    pass


class CoreNotStrongError(KLinkageError):
    pass


class CoreLinkedError(KLinkageError):
    """Supplied core digraph is 2-linked, so the non-linked family cannot be built."""


class NotStrongError(KLinkageError):
    pass


class NotLQuasiTransitiveError(KLinkageError):
    """Runtime distance check failed; carries the witness pair."""

    def __init__(self, pair, d_forward, d_backward):
        self.pair = pair
        self.d_forward = d_forward
        self.d_backward = d_backward
        super().__init__(
            f"pair {pair} has no short return path "
            f"(d{pair}={d_forward}, reverse={d_backward})"
        )


class ThresholdUnreachableError(KLinkageError):
    """Independent-path extraction stalled below the requested pool size."""

    def __init__(self, pair, counts):
        self.pair = pair
        self.counts = counts
        super().__init__(f"pair {pair}: best per-direction counts {counts}")


class PreconditionViolatedError(KLinkageError):
    """A structural precondition of a constructive step failed."""

    def __init__(self, clause, witness=None):
        self.clause = clause
        self.witness = witness
        msg = clause if witness is None else f"{clause} (witness: {witness})"
        super().__init__(msg)


class ConstructionFailedError(KLinkageError):
    """Greedy construction ran out of candidates; indicates an audit gap."""


class NewArcLeakError(KLinkageError):
    """A path returned by the composition reduction used a synthetic arc."""


class AvailablePathExhaustedError(KLinkageError):
    """Replacement pool for a synthetic arc was depleted."""

    def __init__(self, arc):
        self.arc = arc
        super().__init__(f"no disjoint replacement path left for arc {arc}")


class BudgetExceededError(KLinkageError):
    """An exponential search passed its expansion budget."""

    def __init__(self, expanded, budget):
        self.expanded = expanded
        self.budget = budget
        super().__init__(f"search expanded {expanded} nodes, past its budget of {budget}")


class FormatError(KLinkageError):
    """Malformed JSON artifact; carries a field/line diagnostic."""
