"""Exception hierarchy shared across the package."""


class ParetoMergeError(Exception):
    """Base class for all domain errors raised by this package."""


class CheckpointFormatError(ParetoMergeError):
    """Checkpoint container is malformed or violates its invariants."""


class CompatibilityError(ParetoMergeError):
    """Merge endpoints are not architecturally compatible."""


class GenotypeError(ParetoMergeError):
    """Genotype violates the bounds or arity of its merge kind."""


class RecordFormatError(ParetoMergeError):
    """Evaluation record file is malformed."""


class MissingCandidatesError(ParetoMergeError):
    """Record-backed evaluation was asked for candidates absent from the records.

    Carries the pending (candidate_id, genotype) pairs so callers can emit a
    manifest for an external evaluation harness.
    """

    def __init__(self, pending):
        self.pending = list(pending)
        ids = ", ".join(cid for cid, _ in self.pending[:5])
        more = "" if len(self.pending) <= 5 else f" (+{len(self.pending) - 5} more)"
        super().__init__(
            f"{len(self.pending)} candidate(s) have no evaluation records: {ids}{more}"
        )


class SubsetSelectionError(ParetoMergeError):
    """Subset selection cannot satisfy the requested strategy/size."""


class SearchConfigError(ParetoMergeError):
    """Search configuration field ``field`` (such as ``sbx.eta``) breaks ``requirement``."""

    def __init__(self, field: str, requirement: str):
        self.field, self.requirement = field, requirement
        super().__init__(f"{field} {requirement}")
