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

from .atomic import atomic_write, read_lines

DEFAULT_CANDIDATE_THRESHOLD = 0.05
CASE_FOLD_MARKER = "#case_fold"  # first line of a case-folded prior file


def check_candidate_threshold(threshold: float) -> None:
    """Raise ValueError unless 0 <= threshold <= 1 (so NaN is refused too)."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")


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
    counts: dict[str, Counter] = field(init=False, default_factory=lambda: defaultdict(Counter))
    totals: dict[str, int] = field(init=False, default_factory=lambda: defaultdict(int))

    def _key(self, mention: str) -> str:
        return mention.lower() if self.case_fold else mention

    def add(self, mention: str, entity: str, n: int = 1) -> None:
        if n <= 0:
            raise ValueError(f"count must be positive, got {n}")
        key = self._key(mention)
        self.counts[key][entity] += n
        self.totals[key] += n

    def merge(self, other: "PriorTable") -> None:
        """Fold another table in; equivalent to counting the joined stream.

        A case-folded `other` is refused by a table that is not folded,
        since the original casing of its mentions is gone.
        """
        if other.case_fold and not self.case_fold:
            raise ValueError("cannot merge a case-folded prior into one that is not")
        for mention, per_entity in other.counts.items():
            for entity, n in per_entity.items():
                self.add(mention, entity, n)

    def prob(self, mention: str, entity: str) -> float:
        key = self._key(mention)
        total = self.totals.get(key)
        if not total:
            return 0.0
        return self.counts[key].get(entity, 0) / total

    def candidates(self, mention: str,
                   threshold: float = DEFAULT_CANDIDATE_THRESHOLD) -> CandidateSet:
        """Entities with prior >= threshold, ordered per CandidateSet."""
        check_candidate_threshold(threshold)
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
        """Write mention<TAB>entity<TAB>count, sorted for reproducibility.

        A case-folded table starts with a `#case_fold` line, so that it is
        loaded folded and still finds capitalized mentions.
        """
        with atomic_write(path) as fh:
            if self.case_fold:
                fh.write(CASE_FOLD_MARKER + "\n")
            for mention in sorted(self.counts):
                per_entity = self.counts[mention]
                for entity in sorted(per_entity):
                    fh.write(f"{mention}\t{entity}\t{per_entity[entity]}\n")

    @classmethod
    def load(cls, path: str) -> "PriorTable":
        """Read a count TSV; line order is irrelevant, duplicates add up.

        A malformed line or a count that is not a positive integer in ASCII
        digits raises ValueError naming ``path:line``.
        """
        table = cls()
        for lineno, line in enumerate(read_lines(path), start=1):
            line = line.rstrip("\n")
            if lineno == 1 and line == CASE_FOLD_MARKER:
                table.case_fold = True
                continue
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected mention<TAB>entity<TAB>count")
            mention, entity, count = parts
            # ASCII digits only: int() also reads "1_0", " 7", "+3" and other scripts' digits.
            if not (count.isascii() and count.isdigit() and int(count) > 0):
                raise ValueError(f"{path}:{lineno}: count must be a positive integer, "
                                 f"got {count!r}")
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
