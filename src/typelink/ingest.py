"""Hyperlinked-corpus ingestion.

Articles use a deliberately small link grammar: ``[[Target]]`` links to
the entity named Target with the target text as anchor, and
``[[Target|anchor]]`` links with explicit anchor text.  Every link in a
sentence becomes one distantly supervised example whose labels are the
expanded categories of its target entity.  Nothing here tries to be a
full wiki-markup parser; anything outside the two link forms is plain
text.

An article file is read in one streaming pass, one record at a time.
Each sentence is scanned once for markup (`_parse_sentence`), its text
split into tokens once, and each link placed on its tokens by binary
search over the token offsets.
"""

from __future__ import annotations

import dataclasses
import json
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, groupby
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import diagnostics as diag
from .atomic import atomic_write
from .categories import CategoryVocab, expand_category
from .diagnostics import DiagnosticLog

ARTICLE_SEPARATOR = "%%%%"
CONTEXT_WINDOW = 50

_TOKEN_RE = re.compile(r"\S+")
_SENTENCE_SPLIT_RE = re.compile(r"(?<=[.!?]) ")


@dataclass
class RawArticle:
    """One input record: an entity title plus its body sentences."""

    title: str
    sentences: list[str]


@dataclass
class MentionExample:
    """A mention span inside a tokenized sentence.

    `span` is a half-open token interval [start, end); the mention string
    always equals the whitespace join of the covered tokens.  `entity`
    and `categories` are present for supervised records.  The auxiliary
    context fields hold up to 50 surrounding tokens per side and the
    tokens of the document's first sentence; an empty list means "present
    but nothing there" (the example sits at the document edge), while
    None means the field was never populated.
    """

    mention: str
    tokens: list[str]
    span: tuple[int, int]
    entity: Optional[str] = None
    categories: Optional[list[str]] = None
    doc_first_sentence: Optional[list[str]] = None
    left_extra: Optional[list[str]] = None
    right_extra: Optional[list[str]] = None

    def __post_init__(self) -> None:
        start, end = self.span
        if not (0 <= start < end <= len(self.tokens)):
            raise ValueError(f"invalid span {self.span} for {len(self.tokens)} tokens")
        joined = " ".join(self.tokens[start:end])
        if self.mention != joined:
            raise ValueError(f"mention {self.mention!r} != span text {joined!r}")
        if self.entity is None and self.categories is not None:
            raise ValueError("categories present without an entity")

    def copy(self) -> "MentionExample":
        return dataclasses.replace(
            self,
            tokens=list(self.tokens),
            categories=None if self.categories is None else list(self.categories),
            doc_first_sentence=None if self.doc_first_sentence is None else list(self.doc_first_sentence),
            left_extra=None if self.left_extra is None else list(self.left_extra),
            right_extra=None if self.right_extra is None else list(self.right_extra),
        )


@dataclass
class CategoryAssignment:
    entity: str
    raw_categories: set[str]

    @cached_property
    def categories(self) -> frozenset[str]:
        """The entity's types: the union of its expanded raw categories.

        Computed on first read and cached, so each entity is expanded at
        most once however many mentions or candidates refer to it.
        """
        return frozenset(cat for raw in self.raw_categories for cat in expand_category(raw))


def split_sentences(text: str) -> list[str]:
    """Split on '. ', '! ', '? ', keeping the punctuation mark."""
    return [part for part in _SENTENCE_SPLIT_RE.split(text) if part.strip()]


def iter_articles(path: str, split: bool = False,
                  log: Optional[DiagnosticLog] = None) -> Iterator[RawArticle]:
    """Read an article file: records separated by a '%%%%' line, title first.

    A record whose title line is blank is skipped and counted.  Blank
    body lines are dropped; with `split`, each body line is cut into
    sentences by `split_sentences`.
    """
    with open(path, encoding="utf-8") as fh:
        lines = (line.rstrip("\n") for line in fh)
        for is_separator, record in groupby(lines, key=lambda line: line == ARTICLE_SEPARATOR):
            if is_separator:
                continue
            title = next(record).strip()
            if not title:
                if log is not None:
                    log.bump(diag.EMPTY_TITLE)
                continue
            body = [line for line in record if line.strip()]
            if split:
                body = [sentence for line in body for sentence in split_sentences(line)]
            yield RawArticle(title, body)


# --- link grammar -----------------------------------------------------------

def _parse_sentence(sentence: str,
                    log: DiagnosticLog) -> tuple[list[str], list[tuple[str, int, int]]]:
    """Tokenize one raw sentence and place its links on token spans.

    Returns (tokens, [(entity, start, end), ...]), each span a half-open
    token interval.  Link markup is removed from the text and the anchor
    stays.  Broken markup is logged and kept as plain text:

    - an unclosed ``[[`` loses its marker and the rest stays text;
    - a ``[[`` nested before the closing ``]]`` makes the outer link
      malformed: its marker is dropped and scanning resumes at the
      inner ``[[``;
    - an empty target or anchor demotes the link to text, and so does a
      tab inside the target (counted as malformed), which would split
      the target across columns of the prior file.

    A link whose anchor does not sit exactly on token boundaries (it got
    glued to adjacent text) is logged as misaligned and dropped; its
    text still contributes tokens.
    """
    parts: list[str] = []
    linked: list[tuple[str, int]] = []  # (entity, index of its anchor in parts)
    pos = 0
    while pos < len(sentence):
        open_at = sentence.find("[[", pos)
        if open_at < 0:
            parts.append(sentence[pos:])
            break
        parts.append(sentence[pos:open_at])
        close_at = sentence.find("]]", open_at + 2)
        if close_at < 0:
            log.bump(diag.UNCLOSED_LINK)
            parts.append(sentence[open_at + 2:])
            break
        inner_open = sentence.find("[[", open_at + 2, close_at)
        if inner_open >= 0:
            log.bump(diag.MALFORMED_LINK)
            parts.append(sentence[open_at + 2:inner_open])
            pos = inner_open
            continue
        target, bar, anchor = sentence[open_at + 2:close_at].partition("|")
        if not bar:
            anchor = target
        if not target.strip():
            log.bump(diag.EMPTY_TARGET)
            parts.append(anchor)
        elif not anchor.strip():
            log.bump(diag.EMPTY_ANCHOR)
            parts.append(target)
        elif "\t" in target:
            log.bump(diag.MALFORMED_LINK)
            parts.append(anchor)
        else:
            linked.append((target, len(parts)))
            parts.append(anchor)
        pos = close_at + 2

    text = "".join(parts)
    matches = list(_TOKEN_RE.finditer(text))
    tokens = [m.group() for m in matches]
    starts = [m.start() for m in matches]
    ends = [m.end() for m in matches]
    offsets = list(accumulate(map(len, parts), initial=0))
    links: list[tuple[str, int, int]] = []
    for entity, i in linked:
        begin, stop = offsets[i], offsets[i + 1]
        # The anchor holds a non-space character, so it overlaps a token:
        # `first` is the first token ending after it begins, `last` the
        # last token starting before it stops.
        first = bisect_right(ends, begin)
        last = bisect_left(starts, stop) - 1
        if starts[first] < begin or ends[last] > stop:
            log.bump(diag.MISALIGNED_ANCHOR)
            continue
        links.append((entity, first, last + 1))
    return tokens, links


def extract_examples(article: RawArticle,
                     log: Optional[DiagnosticLog] = None) -> list[MentionExample]:
    """Parse one article into MentionExamples with full context fields.

    The context windows are slices of the article's tokens, all
    sentences concatenated, around the example's sentence.
    """
    if log is None:
        log = DiagnosticLog()
    parsed = [_parse_sentence(raw, log) for raw in article.sentences]
    flat = [token for tokens, _ in parsed for token in tokens]
    first_sentence = parsed[0][0] if parsed else []
    examples: list[MentionExample] = []
    for idx, ((tokens, links), end) in enumerate(
            zip(parsed, accumulate(len(tokens) for tokens, _ in parsed))):
        begin = end - len(tokens)
        for entity, start, stop in links:
            examples.append(MentionExample(
                mention=" ".join(tokens[start:stop]),
                tokens=list(tokens),
                span=(start, stop),
                entity=entity,
                doc_first_sentence=[] if idx == 0 else list(first_sentence),
                left_extra=flat[max(0, begin - CONTEXT_WINDOW):begin],
                right_extra=flat[end:end + CONTEXT_WINDOW],
            ))
    return examples


# --- category attachment and sampling ---------------------------------------

def load_category_assignments(path: str,
                              log: Optional[DiagnosticLog] = None) -> dict[str, CategoryAssignment]:
    """Read an entity<TAB>category TSV into per-entity assignments.

    A blank or whitespace-only line is skipped.  A line whose category is
    empty or whitespace is skipped and counted; an entity whose every line
    is such gets no assignment.
    """
    table: dict[str, CategoryAssignment] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0]:
                raise ValueError(f"{path}:{lineno}: expected entity<TAB>category")
            entity, category = parts
            if not category.strip():
                if log is not None:
                    log.bump(diag.EMPTY_CATEGORY)
                continue
            if entity not in table:
                table[entity] = CategoryAssignment(entity, set())
            table[entity].raw_categories.add(category)
    return table


def attach_categories(examples: Iterable[MentionExample],
                      assignments: dict[str, CategoryAssignment],
                      vocab: CategoryVocab,
                      keep_uncategorized: bool = False,
                      log: Optional[DiagnosticLog] = None) -> list[MentionExample]:
    """Label examples with their entity's expanded categories, vocab-filtered.

    Examples whose entity has no assignment record, or whose expanded
    categories all fall outside the vocabulary, are dropped and counted
    (kept with an empty label list when `keep_uncategorized` is set, for
    evaluation corpora where the linking gold must survive).
    """
    if log is None:
        log = DiagnosticLog()
    out: list[MentionExample] = []
    for ex in examples:
        if ex.entity is None:
            continue
        assignment = assignments.get(ex.entity)
        if assignment is None:
            log.bump(diag.ENTITY_WITHOUT_CATEGORIES)
            if not keep_uncategorized:
                continue
            cats: list[str] = []
        else:
            cats = sorted(c for c in assignment.categories if c in vocab)
            if not cats:
                log.bump(diag.NO_VOCAB_CATEGORIES)
                if not keep_uncategorized:
                    continue
        labeled = ex.copy()
        labeled.categories = cats
        out.append(labeled)
    return out


def sample_training_set(examples: Sequence[MentionExample], n_train: int, n_dev: int,
                        seed: int) -> tuple[list[MentionExample], list[MentionExample]]:
    """Disjoint uniform train/dev samples without replacement."""
    total = len(examples)
    if n_train < 0 or n_dev < 0:
        raise ValueError("sample sizes must be non-negative")
    if n_train + n_dev > total:
        raise ValueError(
            f"requested {n_train} train + {n_dev} dev examples "
            f"but only {total} are available")
    rng = np.random.default_rng(seed)
    order = rng.permutation(total)
    train = [examples[i] for i in order[:n_train]]
    dev = [examples[i] for i in order[n_train:n_train + n_dev]]
    return train, dev


# --- JSONL serialization -----------------------------------------------------

def example_to_dict(ex: MentionExample) -> dict:
    """Wire representation; key order is part of the file format."""
    return {
        "mention": ex.mention,
        "tokens": ex.tokens,
        "span": [ex.span[0], ex.span[1]],
        "entity": ex.entity,
        "categories": ex.categories,
        "doc_first_sentence": ex.doc_first_sentence,
        "left_extra": ex.left_extra,
        "right_extra": ex.right_extra,
    }


def example_from_dict(obj: dict) -> MentionExample:
    return MentionExample(
        mention=obj["mention"],
        tokens=list(obj["tokens"]),
        span=(obj["span"][0], obj["span"][1]),
        entity=obj.get("entity"),
        categories=obj.get("categories"),
        doc_first_sentence=obj.get("doc_first_sentence"),
        left_extra=obj.get("left_extra"),
        right_extra=obj.get("right_extra"),
    )


def write_examples(path: str, examples: Iterable[MentionExample]) -> int:
    count = 0
    with atomic_write(path) as fh:
        for ex in examples:
            fh.write(json.dumps(example_to_dict(ex), ensure_ascii=False,
                                separators=(",", ":")) + "\n")
            count += 1
    return count


def read_examples(path: str) -> list[MentionExample]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                out.append(example_from_dict(json.loads(line)))
    return out
