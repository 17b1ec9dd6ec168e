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
from string import ascii_lowercase

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
        for field, least in (("n_categories", 2), ("n_train_sentences", 1), ("n_test", 1)):
            if getattr(self, field) < least:
                raise ValueError(f"{field} must be at least {least}, got {getattr(self, field)}")
        if not MAX_SENTENCE_WORDS <= self.words_per_category <= len(ascii_lowercase):
            raise ValueError(f"words_per_category must be from {MAX_SENTENCE_WORDS} (a sentence "
                             f"draws that many) to {len(ascii_lowercase)} (each word ends in "
                             f"its own letter), got {self.words_per_category}")
        if self.n_categories % 2:
            raise ValueError("n_categories must be even (categories are paired)")
        shift = self.distractor_shift % self.n_categories
        if shift in (0, self.n_categories // 2):
            raise ValueError("distractor_shift maps a category onto its own pair")

    @property
    def expected_mfe_accuracy(self) -> float:
        return GOLD_FAVORED_SLOTS / GOLD_FAVORED_PERIOD


def corpus_paths(out_dir: str) -> dict[str, str]:
    """The paths of the four corpus files in `out_dir`, by kind."""
    names = ("train_articles.txt", "eval_articles.txt", "prior_articles.txt", "categories.tsv")
    return {name.split(".")[0]: os.path.join(out_dir, name) for name in names}


def write_benchmark(out_dir: str, spec: BenchmarkSpec) -> dict[str, str]:
    """Write the four corpus files into `out_dir`; returns their paths by kind.

    With n = n_categories, the world is named thus:

    * Category k (0 <= k < n) is ``Field{k:02d}``. It pairs with category
      (k + n/2) mod n, and every entity carries its own category and that
      partner.
    * Category k's context words are ``term{k:02d}{letter}``, one for each
      of the first words_per_category letters a, b, c, ...
    * Category k's training entity ``Topic_{k:02d}`` is linked as
      ``study{k:02d}`` by training sentence j (article ``TrainDoc{j:05d}``)
      for each j = k mod n.
    * Probe i (0 <= i < n_test) is the mention ``probe{i:03d}``. Its gold
      ``Gold_{i:03d}`` has category i mod n, and its distractor
      ``Alt_{i:03d}`` has category (i + distractor_shift) mod n. Article
      ``EvalDoc{i:03d}`` links the gold amid the gold's context words.
      In ``PriorDoc{i:03d}`` the favored candidate is linked FAVORED_COUNT
      times and the other UNFAVORED_COUNT times; the gold is favored when
      i mod GOLD_FAVORED_PERIOD < GOLD_FAVORED_SLOTS.

    A sentence draws its size, then that many distinct words of its
    category; every training sentence draws before the first eval one.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = corpus_paths(out_dir)
    rng = np.random.default_rng(spec.seed)
    n = spec.n_categories

    def article(title: str, entity: str, mention: str, k: int) -> str:
        size = int(rng.integers(MIN_SENTENCE_WORDS, MAX_SENTENCE_WORDS + 1))
        picks = rng.choice(spec.words_per_category, size=size, replace=False)
        words = " ".join(f"term{k:02d}{ascii_lowercase[j]}" for j in picks)
        return f"{title}\nThe [[{entity}|{mention}]] concerns {words} .\n{ARTICLE_SEPARATOR}\n"

    # (entity, mention, category) of each training entity, probe gold and distractor.
    topics = [(f"Topic_{k:02d}", f"study{k:02d}", k) for k in range(n)]
    golds = [(f"Gold_{i:03d}", f"probe{i:03d}", i % n) for i in range(spec.n_test)]
    alts = [(f"Alt_{i:03d}", probe, (i + spec.distractor_shift) % n)
            for i, (_, probe, _) in enumerate(golds)]

    train = [article(f"TrainDoc{j:05d}", *topics[j % n]) for j in range(spec.n_train_sentences)]
    evals = [article(f"EvalDoc{i:03d}", *gold) for i, gold in enumerate(golds)]
    prior = []
    for i, pair in enumerate(zip(golds, alts)):
        counts = ((FAVORED_COUNT, UNFAVORED_COUNT) if i % GOLD_FAVORED_PERIOD < GOLD_FAVORED_SLOTS
                  else (UNFAVORED_COUNT, FAVORED_COUNT))
        links = "".join(f"See [[{entity}|{probe}]] now .\n" * count
                        for (entity, probe, _), count in zip(pair, counts))
        prior.append(f"PriorDoc{i:03d}\n{links}{ARTICLE_SEPARATOR}\n")
    typed = topics + [entity for pair in zip(golds, alts) for entity in pair]
    categories = [f"{entity}\tField{c:02d}\n"
                  for entity, _, k in typed for c in (k, (k + n // 2) % n)]

    for path, lines in zip(paths.values(), (train, evals, prior, categories)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
    return paths
