"""Counters for malformed or skipped input records.

Ingestion never hard-fails on a bad record; it drops the record and
bumps a named counter so the caller can report how much input was
discarded and why.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field


MALFORMED_LINK = "malformed_link"
UNCLOSED_LINK = "unclosed_link"
EMPTY_TARGET = "empty_target"
EMPTY_ANCHOR = "empty_anchor"
EMPTY_TITLE = "empty_title"
MISALIGNED_ANCHOR = "misaligned_anchor"
NO_CANDIDATES = "no_candidates"
EMPTY_CATEGORY = "empty_category"
ENTITY_WITHOUT_CATEGORIES = "entity_without_categories"
NO_VOCAB_CATEGORIES = "no_vocab_categories"
CANDIDATE_WITHOUT_CATEGORIES = "candidate_without_categories"
UNLABELED_EXAMPLE = "unlabeled_example"


@dataclass
class DiagnosticLog:
    """Tally of dropped or repaired records, keyed by reason."""

    counts: Counter = field(default_factory=Counter)

    def bump(self, reason: str) -> None:
        self.counts[reason] += 1

    def total(self) -> int:
        return sum(self.counts.values())

    def summary(self) -> str:
        if not self.counts:
            return "no diagnostics"
        parts = [f"{k}={self.counts[k]}" for k in sorted(self.counts)]
        return " ".join(parts)
