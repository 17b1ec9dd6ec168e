"""Synthetic corpus for end-to-end benchmarking.

The generator builds a world where context words are genuinely
predictive of categories and the anchor-count prior is mostly wrong, so
a typing-based linker must beat the most-frequent-entity baseline:

* Categories come in involution pairs (k pairs with k + half); every
  entity carries exactly two categories, its primary and the partner.
* Each category owns a small private vocabulary of context words.
* Training sentences anchor per-category training entities with
  dedicated training mentions, so test mention-entity pairs are never
  seen during training.
* Test mentions ("probes") have two candidates, gold and a distractor
  with different categories.  Anchor statistics, emitted into a separate
  prior corpus, favor the gold for only a minority of probes.

Everything is deterministic given the seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .ingest import ARTICLE_SEPARATOR


# A sentence draws 3 to 5 distinct context words of its category.
MIN_SENTENCE_WORDS, MAX_SENTENCE_WORDS = 3, 5
# Anchor counts of a probe's favored and unfavored candidate in the prior
# corpus; the gold is favored for GOLD_FAVORED_SLOTS of every
# GOLD_FAVORED_PERIOD probes.
FAVORED_COUNT, UNFAVORED_COUNT = 8, 2
GOLD_FAVORED_PERIOD, GOLD_FAVORED_SLOTS = 5, 2


@dataclass
class BenchmarkSpec:
    n_categories: int = 50
    n_train_sentences: int = 5000
    n_test: int = 300
    words_per_category: int = 8
    distractor_shift: int = 7
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_categories < 2:
            raise ValueError(f"n_categories must be at least 2, got {self.n_categories}")
        if self.words_per_category < MAX_SENTENCE_WORDS:
            raise ValueError(f"words_per_category must be at least {MAX_SENTENCE_WORDS} "
                             f"(a sentence draws that many), got {self.words_per_category}")
        if self.n_categories % 2:
            raise ValueError("n_categories must be even (categories are paired)")
        shift = self.distractor_shift % self.n_categories
        if shift in (0, self.n_categories // 2):
            raise ValueError("distractor_shift maps a category onto its own pair")

    def category(self, k: int) -> str:
        return f"Field{k:02d}"

    def partner(self, k: int) -> int:
        return (k + self.n_categories // 2) % self.n_categories

    def category_pair(self, k: int) -> list[str]:
        return [self.category(k), self.category(self.partner(k))]

    def context_words(self, k: int) -> list[str]:
        return [f"term{k:02d}{chr(ord('a') + j)}" for j in range(self.words_per_category)]

    def train_entity(self, k: int) -> str:
        return f"Topic_{k:02d}"

    def train_mention(self, k: int) -> str:
        return f"study{k:02d}"

    def gold_entity(self, i: int) -> str:
        return f"Gold_{i:03d}"

    def alt_entity(self, i: int) -> str:
        return f"Alt_{i:03d}"

    def probe_mention(self, i: int) -> str:
        return f"probe{i:03d}"

    def gold_category(self, i: int) -> int:
        return i % self.n_categories

    def alt_category(self, i: int) -> int:
        return (self.gold_category(i) + self.distractor_shift) % self.n_categories

    def gold_favored(self, i: int) -> bool:
        return i % GOLD_FAVORED_PERIOD < GOLD_FAVORED_SLOTS

    @property
    def expected_mfe_accuracy(self) -> float:
        return GOLD_FAVORED_SLOTS / GOLD_FAVORED_PERIOD


def _sentence(spec: BenchmarkSpec, rng: np.random.Generator, entity: str,
              mention: str, k: int) -> str:
    words = spec.context_words(k)
    size = int(rng.integers(MIN_SENTENCE_WORDS, MAX_SENTENCE_WORDS + 1))
    picks = rng.choice(len(words), size=size, replace=False)
    chosen = " ".join(words[j] for j in picks)
    return f"The [[{entity}|{mention}]] concerns {chosen} ."


def corpus_paths(out_dir: str) -> dict[str, str]:
    """The paths of the four corpus files in `out_dir`, by kind."""
    return {
        "train_articles": os.path.join(out_dir, "train_articles.txt"),
        "eval_articles": os.path.join(out_dir, "eval_articles.txt"),
        "prior_articles": os.path.join(out_dir, "prior_articles.txt"),
        "categories": os.path.join(out_dir, "categories.tsv"),
    }


def write_benchmark(out_dir: str, spec: BenchmarkSpec) -> dict[str, str]:
    """Write the four corpus files; returns their paths."""
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    paths = corpus_paths(out_dir)

    with open(paths["train_articles"], "w", encoding="utf-8") as fh:
        for j in range(spec.n_train_sentences):
            k = j % spec.n_categories
            fh.write(f"TrainDoc{j:05d}\n")
            fh.write(_sentence(spec, rng, spec.train_entity(k),
                               spec.train_mention(k), k) + "\n")
            fh.write(ARTICLE_SEPARATOR + "\n")

    with open(paths["eval_articles"], "w", encoding="utf-8") as fh:
        for i in range(spec.n_test):
            fh.write(f"EvalDoc{i:03d}\n")
            fh.write(_sentence(spec, rng, spec.gold_entity(i),
                               spec.probe_mention(i), spec.gold_category(i)) + "\n")
            fh.write(ARTICLE_SEPARATOR + "\n")

    with open(paths["prior_articles"], "w", encoding="utf-8") as fh:
        for i in range(spec.n_test):
            gold, alt = spec.gold_entity(i), spec.alt_entity(i)
            n_gold, n_alt = ((FAVORED_COUNT, UNFAVORED_COUNT) if spec.gold_favored(i)
                             else (UNFAVORED_COUNT, FAVORED_COUNT))
            fh.write(f"PriorDoc{i:03d}\n")
            probe = spec.probe_mention(i)
            for _ in range(n_gold):
                fh.write(f"See [[{gold}|{probe}]] now .\n")
            for _ in range(n_alt):
                fh.write(f"See [[{alt}|{probe}]] now .\n")
            fh.write(ARTICLE_SEPARATOR + "\n")

    with open(paths["categories"], "w", encoding="utf-8") as fh:
        for k in range(spec.n_categories):
            for cat in spec.category_pair(k):
                fh.write(f"{spec.train_entity(k)}\t{cat}\n")
        for i in range(spec.n_test):
            for cat in spec.category_pair(spec.gold_category(i)):
                fh.write(f"{spec.gold_entity(i)}\t{cat}\n")
            for cat in spec.category_pair(spec.alt_category(i)):
                fh.write(f"{spec.alt_entity(i)}\t{cat}\n")

    return paths
