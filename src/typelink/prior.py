"""Mention-entity prior from anchor statistics.

Counting how often each anchor string links to each entity gives the
conditional prior p(entity | mention).  Candidate sets are the entities
whose prior for a mention clears a probability threshold (inclusive, so
exactly-threshold entities survive).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterable

from .atomic import atomic_write

DEFAULT_CANDIDATE_THRESHOLD = 0.05


@dataclass
class CandidateSet:
    """Candidates for one mention, ordered by prior desc then entity asc.

    Probabilities are each count/total for the mention; after clipping
    they need not sum to 1.
    """

    mention: str
    candidates: list[tuple[str, float]]

    def __len__(self) -> int:
        return len(self.candidates)

    def entities(self) -> list[str]:
        return [e for e, _ in self.candidates]

    def contains(self, entity: str) -> bool:
        return any(e == entity for e, _ in self.candidates)


@dataclass
class PriorTable:
    """Anchor-count table: counts[mention][entity] and per-mention totals.

    `case_fold` lowercases mention keys at both insert and lookup time,
    for corpora with noisy anchor casing.
    """

    case_fold: bool = False
    counts: dict[str, Counter] = field(default_factory=lambda: defaultdict(Counter))
    totals: dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def _key(self, mention: str) -> str:
        return mention.lower() if self.case_fold else mention

    def add(self, mention: str, entity: str, n: int = 1) -> None:
        if n <= 0:
            raise ValueError(f"count must be positive, got {n}")
        key = self._key(mention)
        self.counts[key][entity] += n
        self.totals[key] += n

    def merge(self, other: "PriorTable") -> None:
        """Fold another table in; equivalent to counting the joined stream."""
        for mention, per_entity in other.counts.items():
            for entity, n in per_entity.items():
                self.counts[mention][entity] += n
                self.totals[mention] += n

    def prob(self, mention: str, entity: str) -> float:
        key = self._key(mention)
        total = self.totals.get(key)
        if not total:
            return 0.0
        return self.counts[key].get(entity, 0) / total

    def candidates(self, mention: str,
                   threshold: float = DEFAULT_CANDIDATE_THRESHOLD) -> CandidateSet:
        """Entities with prior >= threshold, ordered per CandidateSet."""
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        key = self._key(mention)
        total = self.totals.get(key, 0)
        if total == 0:
            return CandidateSet(mention, [])
        kept = []
        for entity, n in self.counts[key].items():
            p = n / total
            if p >= threshold:
                kept.append((entity, p))
        kept.sort(key=lambda item: (-item[1], item[0]))
        return CandidateSet(mention, kept)

    def save(self, path: str) -> None:
        """Write mention<TAB>entity<TAB>count, sorted for reproducibility."""
        with atomic_write(path) as fh:
            for mention in sorted(self.counts):
                per_entity = self.counts[mention]
                for entity in sorted(per_entity):
                    fh.write(f"{mention}\t{entity}\t{per_entity[entity]}\n")

    @classmethod
    def load(cls, path: str, case_fold: bool = False) -> "PriorTable":
        """Read a count TSV; line order is irrelevant, duplicates add up."""
        table = cls(case_fold=case_fold)
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 3:
                    raise ValueError(f"{path}:{lineno}: expected mention<TAB>entity<TAB>count")
                mention, entity, count = parts
                table.add(mention, entity, int(count))
        return table


def accumulate(pairs: Iterable[tuple[str, str]], case_fold: bool = False) -> PriorTable:
    """Count a stream of (mention, entity) link occurrences."""
    table = PriorTable(case_fold=case_fold)
    for mention, entity in pairs:
        table.add(mention, entity)
    return table


def gold_recall(records: Iterable[tuple[CandidateSet, str]]) -> float:
    """Fraction of records whose candidate set contains the gold entity."""
    hits = 0
    total = 0
    for cset, gold in records:
        total += 1
        if cset.contains(gold):
            hits += 1
    if total == 0:
        raise ValueError("gold_recall needs at least one record")
    return hits / total
