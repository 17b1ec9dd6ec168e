"""Hyperlinked-corpus ingestion.

Articles use a deliberately small link grammar: ``[[Target]]`` links to
the entity named Target with the target text as anchor, and
``[[Target|anchor]]`` links with explicit anchor text.  Every link in a
sentence becomes one distantly supervised example whose labels are the
expanded categories of its target entity.  Nothing here tries to be a
full wiki-markup parser; anything outside the two link forms is plain
text.

An article file is read in one streaming pass, one record at a time.
Each sentence is scanned once for markup (`_parse_sentence`) and its
text split into tokens once.  A link's anchor is aligned unless a token
runs across one of its ends; an aligned anchor's first token is counted
from the text between it and the previous aligned anchor, so placing
all of a sentence's links takes time linear in the sentence.  A mention
file (`write_examples`, `read_examples`) stores the tokens that
consecutive examples' context windows share once.
"""

from __future__ import annotations

import dataclasses
import json
import re
from dataclasses import dataclass
from itertools import accumulate, groupby
from typing import Callable, Collection, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import diagnostics as diag
from .atomic import atomic_write, read_lines
from .categories import CategoryVocab, expand_category
from .diagnostics import DiagnosticLog

ARTICLE_SEPARATOR = "%%%%"
CONTEXT_WINDOW = 50

_SENTENCE_SPLIT_RE = re.compile(r"(?<=[.!?]) ")


@dataclass
class RawArticle:
    """One input record: an entity title plus its body sentences."""

    title: str
    sentences: list[str]


@dataclass
class MentionExample:
    """A mention span inside a tokenized sentence.

    `span` is a half-open token interval [start, end) of `tokens`; the
    mention string is read off it (`mention`), so it cannot disagree with
    the span.  `entity` and `categories` are present for supervised
    records.  The auxiliary context fields hold up to 50 surrounding
    tokens per side and the tokens of the document's first sentence; an
    empty list means "present but nothing there" (the example sits at the
    document edge), while None means the field was never populated.
    """

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
        if self.entity is None and self.categories is not None:
            raise ValueError("categories present without an entity")

    @property
    def mention(self) -> str:
        """The whitespace join of the span's tokens, read anew each time:
        an example's lists may be changed in place."""
        start, end = self.span
        return " ".join(self.tokens[start:end])


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
    lines = (line.rstrip("\n") for line in read_lines(path))
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

    Tokens are the whitespace-separated runs of the text left.  A link
    whose anchor does not sit exactly on token boundaries, because a
    token runs across its start or its end (it got glued to adjacent
    text), is logged as misaligned and dropped; its text still
    contributes tokens.
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
    offsets = list(accumulate(map(len, parts), initial=0))
    links: list[tuple[str, int, int]] = []
    cut = count = 0  # text[:cut] ends on a token boundary and holds `count` tokens
    for entity, i in linked:
        begin, stop = offsets[i], offsets[i + 1]
        if _splits_token(text, begin) or _splits_token(text, stop):
            log.bump(diag.MISALIGNED_ANCHOR)
            continue
        count += len(text[cut:begin].split())
        width = len(parts[i].split())  # at least 1: the anchor holds a non-space
        links.append((entity, count, count + width))
        cut, count = stop, count + width
    return text.split(), links


def _splits_token(text: str, pos: int) -> bool:
    """Whether a token of `text` runs across position `pos`."""
    return 0 < pos < len(text) and not text[pos - 1].isspace() and not text[pos].isspace()


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
                tokens=list(tokens),
                span=(start, stop),
                entity=entity,
                doc_first_sentence=[] if idx == 0 else list(first_sentence),
                left_extra=flat[max(0, begin - CONTEXT_WINDOW):begin],
                right_extra=flat[end:end + CONTEXT_WINDOW],
            ))
    return examples


def link_pairs(article: RawArticle, log: DiagnosticLog) -> Iterator[tuple[str, str]]:
    """(mention, entity) of each link of the article, the pairs of its
    `extract_examples` with the same diagnostics, without building examples."""
    for sentence in article.sentences:
        tokens, links = _parse_sentence(sentence, log)
        for entity, start, stop in links:
            yield " ".join(tokens[start:stop]), entity


# --- category attachment and sampling ---------------------------------------

def load_category_assignments(path: str, entities: Iterable[str],
                              log: Optional[DiagnosticLog] = None) -> dict[str, frozenset[str]]:
    """Read an entity<TAB>category TSV into the types of `entities`.

    An entity's types are the union of the expansions of its raw
    categories; each distinct raw category of an asked-for entity is
    expanded once, here.  Only the entities asked for get types, and
    only if one of their lines has a category.  Every line is checked,
    whichever entity it names: a blank or whitespace-only line is
    skipped, a line without exactly one tab or with an empty entity
    raises ValueError naming ``path:line``, and a line whose category is
    empty or whitespace is skipped and counted.
    """
    wanted = set(entities)
    raw: dict[str, set[str]] = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        entity, tab, category = line.rstrip("\n").partition("\t")
        if not entity or not tab or "\t" in category:
            if line.strip():
                raise ValueError(f"{path}:{lineno}: expected entity<TAB>category")
            continue
        if not category.strip():
            if entity.strip() and log is not None:  # else the whole line is blank
                log.bump(diag.EMPTY_CATEGORY)
            continue
        if entity in wanted:
            raw.setdefault(entity, set()).add(category)
    return {entity: frozenset(cat for category in categories for cat in expand_category(category))
            for entity, categories in raw.items()}


def attach_categories(examples: Iterable[MentionExample],
                      types: dict[str, Collection[str]],
                      vocab: CategoryVocab,
                      keep_uncategorized: bool = False,
                      log: Optional[DiagnosticLog] = None) -> list[MentionExample]:
    """Label examples with their entity's types, vocab-filtered.

    Examples whose entity has no types, or whose types all fall outside
    the vocabulary, are dropped and counted (kept with an empty label
    list when `keep_uncategorized` is set, for evaluation corpora where
    the linking gold must survive).
    """
    if log is None:
        log = DiagnosticLog()
    out: list[MentionExample] = []
    for ex in examples:
        if ex.entity is None:
            continue
        cats = sorted(c for c in types.get(ex.entity) or () if c in vocab)
        if not cats:
            log.bump(diag.ENTITY_WITHOUT_CATEGORIES if ex.entity not in types
                     else diag.NO_VOCAB_CATEGORIES)
            if not keep_uncategorized:
                continue
        out.append(dataclasses.replace(ex, categories=cats))
    return out


def check_sample_sizes(n_train: int, n_dev: int) -> None:
    """Raise ValueError unless both sample sizes are non-negative."""
    if n_train < 0 or n_dev < 0:
        raise ValueError("sample sizes must be non-negative")


def sample_training_set(examples: Sequence[MentionExample], n_train: int, n_dev: int,
                        seed: int) -> tuple[list[MentionExample], list[MentionExample]]:
    """Disjoint uniform train/dev samples without replacement."""
    total = len(examples)
    check_sample_sizes(n_train, n_dev)
    if n_train + n_dev > total:
        raise ValueError(
            f"requested {n_train} train + {n_dev} dev examples "
            f"but only {total} are available")
    rng = np.random.default_rng(seed)
    order = rng.permutation(total)
    train = [examples[i] for i in order[:n_train]]
    dev = [examples[i] for i in order[n_train:n_train + n_dev]]
    return train, dev


# --- mention files ------------------------------------------------------------
#
# A mention file is the header line MENTIONS_HEADER, then one JSON record
# per run of consecutive examples:
#
#   {"run": [token, ...], "first": [token, ...] or null,
#    "examples": [[offset, n_left, n_tokens, n_right, start, end,
#                  entity, categories, first_flag], ...]}
#
# An example's left_extra + tokens + right_extra is the slice of `run` that
# starts at `offset`, cut by the three lengths (n_left or n_right null: that
# window is null).  `span` is (start, end) within tokens and the mention is
# its text.  first_flag is null for a null doc_first_sentence, false for an
# empty one and true for the record's `first`.  The writer starts a new
# record when an example's window does not fit the run or its first
# sentence differs from the record's, so the examples of one article, in
# order, share one record and each of its tokens is stored once.

MENTIONS_HEADER = {"format": "typelink-mentions", "version": 2}
# Offsets at which a window is tried before it starts a new record; bounds
# the writer's work per example.
PLACEMENT_TRIES = 8


# The encoder `json.dumps` would build anew on every call with these options.
_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))


def json_line(obj) -> str:
    """`obj` as one compact JSON line, non-ASCII kept as is."""
    return _ENCODER.encode(obj) + "\n"


_HEADER_LINE = json_line(MENTIONS_HEADER)


class _Record:
    """The record being written: a token run, its first sentence and its examples."""

    def __init__(self) -> None:
        self.run: list[str] = []
        self.first: Optional[list[str]] = None
        self.rows: list[list] = []
        self.last = 0  # offset of the last example placed

    def add(self, ex: MentionExample) -> bool:
        """Place `ex` in this record; False when it needs a new one."""
        first = ex.doc_first_sentence
        if first and self.first is not None and first != self.first:
            return False
        left, right = ex.left_extra, ex.right_extra
        window = [*(left or ()), *ex.tokens, *(right or ())]
        offset = self._place(window)
        if offset is None:
            return False
        if first and self.first is None:
            self.first = list(first)
        self.rows.append([offset, None if left is None else len(left), len(ex.tokens),
                          None if right is None else len(right), ex.span[0], ex.span[1],
                          ex.entity, ex.categories, None if first is None else bool(first)])
        return True

    def _place(self, window: list[str]) -> Optional[int]:
        """The first offset, at or after the last example's, where `window`
        agrees with the run as far as they overlap, the run extended by the
        rest of `window`; None when none of the first PLACEMENT_TRIES offsets
        holding `window[0]` agrees."""
        run = self.run
        if not run:
            run.extend(window)
            return 0
        offset = self.last
        for _ in range(PLACEMENT_TRIES):
            try:
                offset = run.index(window[0], offset)
            except ValueError:
                return None
            overlap = len(run) - offset
            if run[offset:offset + len(window)] == window[:overlap]:
                run.extend(window[overlap:])
                self.last = offset
                return offset
            offset += 1
        return None

    def line(self) -> str:
        return json_line({"run": self.run, "first": self.first, "examples": self.rows})


def write_examples(path: str, examples: Iterable[MentionExample]) -> int:
    """Write a mention file; returns the number of examples."""
    count = 0
    with atomic_write(path) as fh:
        fh.write(_HEADER_LINE)
        record = _Record()
        for ex in examples:
            if not record.add(ex):
                fh.write(record.line())
                record = _Record()
                record.add(ex)
            count += 1
        if record.rows:
            fh.write(record.line())
    return count


def _is_string_list(value) -> bool:
    try:
        "".join(value)  # TypeError on any non-string element, checked in C
    except TypeError:
        return False
    return type(value) is list


def examples_from_record(record: dict) -> list[MentionExample]:
    """The examples of one mention-file record; ValueError names what is malformed.

    The run and first sentence are checked once per record; an example's
    tokens and windows are slices of them, so each example checks only its
    own fields: offset and lengths, span, entity, categories and first_flag.
    """
    run, first, rows = record["run"], record["first"], record["examples"]
    if not _is_string_list(run):
        raise ValueError("run must be a list of strings")
    if first is not None and not _is_string_list(first):
        raise ValueError("first must be a list of strings or null")
    if type(rows) is not list:
        raise ValueError("examples must be a list")
    examples = []
    for row in rows:
        if type(row) is not list or len(row) != 9:
            raise ValueError("an example must be a list of 9 fields")
        offset, n_left, n_tokens, n_right, start, end, entity, categories, flag = row
        sizes = (offset, 0 if n_left is None else n_left, n_tokens,
                 0 if n_right is None else n_right)
        if any(type(n) is not int or n < 0 for n in sizes) or sum(sizes) > len(run):
            raise ValueError("offset and lengths must be non-negative integers "
                             f"within the run of {len(run)} tokens")
        if (flag is not None and type(flag) is not bool) or (flag and first is None):
            raise ValueError("first_flag must be null, false, or true in a record with first")
        if type(start) is not int or type(end) is not int:
            raise ValueError("span must be a list of two integers")
        if entity is not None and type(entity) is not str:
            raise ValueError("entity must be a string or null")
        if categories is not None and not _is_string_list(categories):
            raise ValueError("categories must be a list of strings or null")
        begin = offset + sizes[1]
        stop = begin + n_tokens
        tokens = run[begin:stop]
        examples.append(MentionExample(
            tokens, (start, end), entity, categories,
            None if flag is None else list(first) if flag else [],
            None if n_left is None else run[offset:begin],
            None if n_right is None else run[stop:stop + n_right]))
    return examples


def iter_json_lines(path: str, convert: Callable[[dict], object]) -> Iterator:
    """The JSON object on each non-blank line of a file, in order, through `convert`.

    A line that is not a JSON object (nested too deeply to parse, too), or
    that `convert` refuses with ValueError or KeyError, raises ValueError
    naming ``path:line``.
    """
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
            if type(row) is not dict:
                raise ValueError("expected a JSON object")
            row = convert(row)
        except KeyError as err:
            raise ValueError(f"{path}:{lineno}: missing field {err}") from None
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: {err}") from None
        except RecursionError:
            raise ValueError(f"{path}:{lineno}: JSON nested too deeply") from None
        yield row


def read_examples(path: str) -> list[MentionExample]:
    """The examples of a mention file in file order; a file with no lines holds none.

    A missing or unknown header and a malformed record raise ValueError
    naming ``path:line``.
    """
    headed = False

    def convert(row: dict) -> list[MentionExample]:
        nonlocal headed
        if headed:
            return examples_from_record(row)
        if row != MENTIONS_HEADER:
            raise ValueError(f"expected the header line {_HEADER_LINE.strip()}")
        headed = True
        return []

    return [ex for examples in iter_json_lines(path, convert) for ex in examples]
