"""Solver outcome reports."""

from __future__ import annotations

from dataclasses import dataclass, field

from .digraph import Digraph
from .errors import witness_of
from .paths import PathSystem
from .verify import verify_linkage

__all__ = ["SolveReport", "LINKED", "HYPOTHESIS_VIOLATED", "STAGE_FAILED"]

LINKED = "linked"
HYPOTHESIS_VIOLATED = "hypothesis_violated"
STAGE_FAILED = "stage_failed"


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a linkage solve.

    A ``linked`` report always carries a path system that passed
    ``verify_linkage`` against the input digraph.  ``hypothesis_violated``
    names the failed hypothesis; ``stage_failed`` names the pipeline stage
    and carries a witness: the clause, vertices and counts of
    ``errors.witness_of`` (an error's ``witness()`` is one), or the nested
    report of an inner solve.  The audit dict records every hypothesis that
    was measured (or explicitly skipped), so artifacts are self-describing.
    """

    outcome: str
    system: PathSystem | None = None
    audit: dict = field(default_factory=dict)
    failure: str | None = None
    stage: str | None = None
    witness: object = None

    @property
    def linked(self) -> bool:
        return self.outcome == LINKED

    @staticmethod
    def certified(d: Digraph, pairs, system: PathSystem, audit: dict) -> "SolveReport":
        """The linked report for ``system`` if ``verify_linkage`` accepts it
        against ``d``, else the failed ``verify`` stage naming the clause."""
        report = verify_linkage(d, pairs, system)
        if not report:
            return SolveReport.of_stage("verify", witness_of(f"{report.clause}: {report.detail}"),
                                        audit)
        return SolveReport(LINKED, system=system, audit=audit)

    @staticmethod
    def of_hypothesis(which: str, audit: dict, witness=None) -> "SolveReport":
        return SolveReport(HYPOTHESIS_VIOLATED, audit=audit, failure=which, witness=witness)

    @staticmethod
    def of_stage(stage: str, witness, audit: dict) -> "SolveReport":
        return SolveReport(STAGE_FAILED, audit=audit, stage=stage, witness=witness)

