"""Linking accuracy, bucketed typing metrics, and context assembly.

Typing quality is reported as macro-averaged precision/recall/F1 inside
category frequency-rank buckets (rank = vocabulary position + 1), since
head and tail categories behave very differently.  Categories that never
occur in gold and are never predicted are left out of the averages.
"""

from __future__ import annotations

import dataclasses
import operator
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from itertools import compress
from typing import Iterable, Optional, Sequence

import numpy as np

from .ingest import CONTEXT_WINDOW, MentionExample

TYPING_THRESHOLD = 0.5
RANK_BUCKETS = ((1, 100), (101, 500), (501, 10000), (10001, None))


class ContextMode(str, Enum):
    SENTENCE_ONLY = "sentence_only"
    SENTENCE_PLUS_WINDOW50 = "sentence_plus_window50"
    SENTENCE_PLUS_FIRST_DOC_SENTENCE = "sentence_plus_first_doc_sentence"


@dataclass
class BucketMetrics:
    label: str
    precision: float
    recall: float
    f1: float
    n_categories: int


@dataclass
class EvalReport:
    linking_accuracy: Optional[float]
    gold_recall: Optional[float]
    typing_buckets: Optional[list[BucketMetrics]]
    per_category: Optional[dict[str, tuple[float, float, float, int]]] = None
    prior_accuracy: Optional[float] = None

    def to_dict(self) -> dict:
        buckets = None
        if self.typing_buckets is not None:
            buckets = [[b.label, b.precision, b.recall, b.f1, b.n_categories]
                       for b in self.typing_buckets]
        per_cat = None
        if self.per_category is not None:
            per_cat = {cat: list(vals) for cat, vals in sorted(self.per_category.items())}
        return {
            "linking_accuracy": self.linking_accuracy,
            "prior_accuracy": self.prior_accuracy,
            "gold_recall": self.gold_recall,
            "typing_buckets": buckets,
            "per_category": per_cat,
        }


def add_left_to_right(values: Iterable[float]) -> float:
    """0.0 plus each value in turn: the same float on every Python version.

    The builtin `sum` compensates rounding since Python 3.12, so its float
    result depends on the interpreter.
    """
    return reduce(operator.add, values, 0.0)


def linking_accuracy(pairs: Sequence[tuple[Optional[str], str]]) -> float:
    """Exact-match fraction over (chosen, gold) pairs."""
    if not pairs:
        raise ValueError("no predictions to score")
    return sum(1 for chosen, gold in pairs if chosen == gold) / len(pairs)


def f1_score(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def _bucket_label(lo: int, hi: Optional[int]) -> str:
    return f"{lo}-{hi}" if hi is not None else f"{lo}+"


def check_typing_threshold(threshold: float) -> None:
    """Raise ValueError unless 0 <= threshold <= 1 (so NaN is refused too)."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"typing threshold must be in [0, 1], got {threshold}")


def typing_metrics(posteriors: Sequence, golds: Sequence[Iterable[int]],
                   vocab_entries: Sequence[str],
                   threshold: float = TYPING_THRESHOLD,
                   with_per_category: bool = False):
    """Per-bucket macro precision/recall/F1 at a probability threshold.

    `posteriors` holds per-example probability vectors (arrays or
    objects with a .probs attribute); `golds` holds per-example iterables
    of gold category ids, each in [0, len(vocab_entries)); an id repeated
    within one example counts once.  A category counts as predicted when
    its probability is >= threshold.  Returns (bucket list, per-category
    map or None); the bucket list ends with a "total" row over every
    counted category.  Each macro average adds its categories' values in
    ascending id order with `add_left_to_right`.  Raises ValueError for a
    threshold outside [0, 1] or NaN, and for a gold id outside the
    vocabulary, naming it.
    """
    check_typing_threshold(threshold)
    if len(posteriors) != len(golds):
        raise ValueError(
            f"got {len(posteriors)} posteriors but {len(golds)} gold sets")
    n_cats = len(vocab_entries)
    # Per category: examples where it is predicted, gold, and both.
    predicted, gold, tp = (np.zeros(n_cats, dtype=np.int64) for _ in range(3))
    for posterior, gold_ids in zip(posteriors, golds):
        probs = np.asarray(getattr(posterior, "probs", posterior))
        if len(probs) != n_cats:
            raise ValueError("posterior length does not match vocabulary")
        hits = probs >= threshold
        ids = np.asarray(sorted(set(gold_ids)), dtype=np.int64)
        outside = ids[(ids < 0) | (ids >= n_cats)]
        if len(outside):
            raise ValueError(f"gold category id {outside[0]} outside the "
                             f"vocabulary of {n_cats} categories")
        predicted += hits
        gold[ids] += 1
        tp[ids] += hits[ids]

    counted = np.flatnonzero(predicted + gold)
    precision = np.divide(tp, predicted, out=np.zeros(n_cats), where=predicted > 0)
    recall = np.divide(tp, gold, out=np.zeros(n_cats), where=gold > 0)
    # Python floats, so each macro average adds them in ascending category order.
    columns = [precision[counted].tolist(), recall[counted].tolist()]
    columns.append([f1_score(p, r) for p, r in zip(*columns)])

    ranks = counted + 1
    buckets = [(_bucket_label(lo, hi), (lo <= ranks) & (ranks <= (hi or n_cats)))
               for lo, hi in RANK_BUCKETS]
    rows = []
    for label, mask in [*buckets, ("total", ranks > 0)]:
        n = int(mask.sum())
        means = [add_left_to_right(compress(column, mask)) / n if n else 0.0
                 for column in columns]
        rows.append(BucketMetrics(label, *means, n))

    per_category = None
    if with_per_category:
        per_category = {vocab_entries[i]: (p, r, f, g) for i, p, r, f, g
                        in zip(counted.tolist(), *columns, gold[counted].tolist())}
    return rows, per_category


def build_context(example: MentionExample, mode: ContextMode) -> MentionExample:
    """Extend an example's token window per the context mode.

    The returned example has fresh `tokens`, its span re-indexed and the
    consumed auxiliary field emptied, so applying the same mode again is a
    no-op; its other lists are the input's.  The mention surface string is
    never altered.
    """
    mode = ContextMode(mode)
    start, end = example.span
    if mode is ContextMode.SENTENCE_ONLY:
        return dataclasses.replace(example, tokens=list(example.tokens))
    if mode is ContextMode.SENTENCE_PLUS_WINDOW50:
        if example.left_extra is None:
            raise ValueError("context mode needs left_extra, which is missing")
        if example.right_extra is None:
            raise ValueError("context mode needs right_extra, which is missing")
        left = example.left_extra[-CONTEXT_WINDOW:]
        right = example.right_extra[:CONTEXT_WINDOW]
        return dataclasses.replace(example, tokens=left + example.tokens + right,
                                   span=(start + len(left), end + len(left)),
                                   left_extra=[], right_extra=[])
    if example.doc_first_sentence is None:
        raise ValueError("context mode needs doc_first_sentence, which is missing")
    prefix = example.doc_first_sentence
    return dataclasses.replace(example, tokens=prefix + example.tokens,
                               span=(start + len(prefix), end + len(prefix)),
                               doc_first_sentence=[])
