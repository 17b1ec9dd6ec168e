"""Category expansion and vocabulary selection.

Raw knowledge-base categories are long compound phrases ("Populated
places established in 1624").  Splitting each one at its first
preposition yields shorter, more reusable type labels while keeping the
original.  The working label vocabulary is then chosen by how many
distinct mention strings each category reaches through candidate
entities, which requires no gold labels at all.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable

from .atomic import atomic_write, read_lines


# Whole-token, case-insensitive preposition triggers for splitting.
DEFAULT_PREPOSITIONS = ("in", "from", "for", "of", "by", "involving")
_PREPOSITIONS = frozenset(DEFAULT_PREPOSITIONS)


def expand_category(raw: str) -> list[str]:
    """Split a category at its first DEFAULT_PREPOSITIONS token.

    Returns a duplicate-free list: the original string, then each token
    left of the preposition as its own category, then the remainder
    (starting at the preposition) joined as a single category.  A
    category without any preposition token, or one that begins with a
    preposition, comes back as just the original.  Matching is
    whole-token and case-insensitive; internal runs of whitespace in the
    emitted remainder are collapsed to single spaces.
    """
    if not raw:
        raise ValueError("empty category string")
    tokens = raw.split()
    split_at = next((i for i, tok in enumerate(tokens) if tok.lower() in _PREPOSITIONS), None)
    if split_at is None or split_at == 0:
        return [raw]
    out = [raw]
    for tok in tokens[:split_at]:
        if tok not in out:
            out.append(tok)
    remainder = " ".join(tokens[split_at:])
    if remainder not in out:
        out.append(remainder)
    return out


@dataclass
class CategoryVocab:
    """Ordered category vocabulary; position in `entries` is the id.

    Order is the selection rank (most frequent first), so id + 1 is the
    frequency rank used by the bucketed metrics.
    """

    entries: list[str]
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.index = {cat: i for i, cat in enumerate(self.entries)}
        if len(self.index) != len(self.entries):
            raise ValueError("vocabulary entries are not unique")

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, category: str) -> bool:
        return category in self.index

    def to_ids(self, categories: Iterable[str]) -> list[int]:
        """Sorted ids of the given categories that are in the vocabulary."""
        return sorted(self.index[c] for c in categories if c in self.index)

    def save(self, path: str) -> None:
        with atomic_write(path) as fh:
            for cat in self.entries:
                fh.write(cat + "\n")

    @classmethod
    def load(cls, path: str) -> "CategoryVocab":
        """Read one category per line; trailing blank lines are dropped.

        A blank line before the last category, or a repeated category,
        raises ValueError naming ``path:line``.
        """
        entries = [line.rstrip("\n") for line in read_lines(path)]
        while entries and entries[-1] == "":
            entries.pop()
        seen: dict[str, int] = {}
        for lineno, cat in enumerate(entries, start=1):
            if not cat:
                raise ValueError(f"{path}:{lineno}: empty category")
            if seen.setdefault(cat, lineno) != lineno:
                raise ValueError(f"{path}:{lineno}: category {cat!r} repeats line {seen[cat]}")
        return cls(entries)


def check_vocab_size(size: int) -> None:
    """Raise ValueError unless the vocabulary size is positive."""
    if size <= 0:
        raise ValueError(f"vocabulary size must be positive, got {size}")


def select_vocabulary(stream: Iterable[tuple[str, Iterable[str]]],
                      size: int) -> CategoryVocab:
    """Pick the top `size` categories by distinct-mention count.

    `stream` carries (mention, types) pairs, one per candidate entity of
    the target dataset's mentions that has types.  A category's score is
    the number of distinct mention strings it was seen with; repeats of
    one mention add nothing.  Ranking is by count descending, ties by
    category string ascending.
    """
    check_vocab_size(size)
    mentions_by_category: dict[str, set[str]] = defaultdict(set)
    for mention, categories in stream:
        for cat in categories:
            mentions_by_category[cat].add(mention)
    ranked = sorted(mentions_by_category.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    return CategoryVocab([cat for cat, _ in ranked[:size]])
