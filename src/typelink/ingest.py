"""Hyperlinked-corpus ingestion.

Articles use a deliberately small link grammar: ``[[Target]]`` links to
the entity named Target with the target text as anchor, and
``[[Target|anchor]]`` links with explicit anchor text.  Every link in a
sentence becomes one distantly supervised example whose labels are the
expanded categories of its target entity.  Nothing here tries to be a
full wiki-markup parser; anything outside the two link forms is plain
text.
"""

from __future__ import annotations

import dataclasses
import json
import re
from dataclasses import dataclass
from functools import cached_property
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
    """Read an article file: records separated by a '%%%%' line, title first."""
    title: Optional[str] = None
    sentences: list[str] = []
    pending = False

    def flush() -> Optional[RawArticle]:
        if not pending:
            return None
        if not title:
            if log is not None:
                log.bump(diag.EMPTY_TITLE)
            return None
        return RawArticle(title, list(sentences))

    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line == ARTICLE_SEPARATOR:
                art = flush()
                if art is not None:
                    yield art
                title, sentences, pending = None, [], False
                continue
            if not pending:
                title = line.strip()
                pending = True
            elif line.strip():
                if split:
                    sentences.extend(split_sentences(line))
                else:
                    sentences.append(line)
    art = flush()
    if art is not None:
        yield art


# --- link grammar -----------------------------------------------------------

@dataclass
class _Segment:
    text: str
    entity: Optional[str] = None  # set only for link segments


def _parse_markup(sentence: str, log: DiagnosticLog) -> list[_Segment]:
    """Break a raw sentence into plain-text and link segments.

    Unclosed ``[[`` drops the marker, logs a diagnostic, and leaves the
    rest as plain text.  A ``[[`` nested before the closing ``]]`` makes
    the outer link malformed: its marker is dropped and scanning resumes
    at the inner ``[[``.  Empty targets or anchors demote the link to
    plain text.  So does a tab inside the target, which would split the
    target across columns of the prior file; it counts as malformed.
    """
    segments: list[_Segment] = []
    pos = 0
    n = len(sentence)
    while pos < n:
        open_at = sentence.find("[[", pos)
        if open_at < 0:
            segments.append(_Segment(sentence[pos:]))
            break
        if open_at > pos:
            segments.append(_Segment(sentence[pos:open_at]))
        close_at = sentence.find("]]", open_at + 2)
        if close_at < 0:
            log.bump(diag.UNCLOSED_LINK)
            segments.append(_Segment(sentence[open_at + 2:]))
            break
        inner_open = sentence.find("[[", open_at + 2, close_at)
        if inner_open >= 0:
            log.bump(diag.MALFORMED_LINK)
            segments.append(_Segment(sentence[open_at + 2:inner_open]))
            pos = inner_open
            continue
        payload = sentence[open_at + 2:close_at]
        if "|" in payload:
            target, anchor = payload.split("|", 1)
        else:
            target, anchor = payload, payload
        if not target.strip():
            log.bump(diag.EMPTY_TARGET)
            segments.append(_Segment(anchor))
        elif not anchor.strip():
            log.bump(diag.EMPTY_ANCHOR)
            segments.append(_Segment(target))
        elif "\t" in target:
            log.bump(diag.MALFORMED_LINK)
            segments.append(_Segment(anchor))
        else:
            segments.append(_Segment(anchor, entity=target))
        pos = close_at + 2
    return segments


def _tokenize_segments(segments: Sequence[_Segment],
                       log: DiagnosticLog) -> tuple[list[str], list[tuple[str, int, int]]]:
    """Tokenize the joined segment text and align links to token spans.

    Returns (tokens, [(entity, start, end), ...]).  A link whose anchor
    does not sit exactly on token boundaries (it got glued to adjacent
    text) is logged and dropped; its text still contributes tokens.
    """
    text = "".join(seg.text for seg in segments)
    token_spans = [(m.start(), m.end()) for m in _TOKEN_RE.finditer(text)]
    tokens = [text[a:b] for a, b in token_spans]

    links: list[tuple[str, int, int]] = []
    offset = 0
    for seg in segments:
        begin, stop = offset, offset + len(seg.text)
        offset = stop
        if seg.entity is None:
            continue
        covered = [i for i, (a, b) in enumerate(token_spans) if a < stop and b > begin]
        if not covered:
            log.bump(diag.EMPTY_ANCHOR)
            continue
        first, last = covered[0], covered[-1]
        stripped = seg.text.strip()
        aligned = (
            token_spans[first][0] >= begin
            and token_spans[last][1] <= stop
            and text[token_spans[first][0]:token_spans[last][1]].strip() == stripped
        )
        if not aligned:
            log.bump(diag.MISALIGNED_ANCHOR)
            continue
        links.append((seg.entity, first, last + 1))
    return tokens, links


def extract_examples(article: RawArticle,
                     log: Optional[DiagnosticLog] = None) -> list[MentionExample]:
    """Parse one article into MentionExamples with full context fields."""
    if log is None:
        log = DiagnosticLog()
    per_sentence: list[tuple[list[str], list[tuple[str, int, int]]]] = []
    for raw in article.sentences:
        segments = _parse_markup(raw, log)
        per_sentence.append(_tokenize_segments(segments, log))

    all_tokens = [toks for toks, _ in per_sentence]
    first_sentence = all_tokens[0] if all_tokens else []
    examples: list[MentionExample] = []
    for idx, (tokens, links) in enumerate(per_sentence):
        if not links:
            continue
        left: list[str] = []
        for prev in all_tokens[:idx]:
            left.extend(prev)
        right: list[str] = []
        for nxt in all_tokens[idx + 1:]:
            right.extend(nxt)
            if len(right) >= CONTEXT_WINDOW:
                break
        for entity, start, end in links:
            examples.append(MentionExample(
                mention=" ".join(tokens[start:end]),
                tokens=list(tokens),
                span=(start, end),
                entity=entity,
                doc_first_sentence=[] if idx == 0 else list(first_sentence),
                left_extra=left[-CONTEXT_WINDOW:],
                right_extra=right[:CONTEXT_WINDOW],
            ))
    return examples


# --- category attachment and sampling ---------------------------------------

def load_category_assignments(path: str,
                              log: Optional[DiagnosticLog] = None) -> dict[str, CategoryAssignment]:
    """Read an entity<TAB>category TSV into per-entity assignments.

    A line with an empty category is skipped and counted; an entity whose
    every line is empty gets no assignment.
    """
    table: dict[str, CategoryAssignment] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0]:
                raise ValueError(f"{path}:{lineno}: expected entity<TAB>category")
            entity, category = parts
            if not category:
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
