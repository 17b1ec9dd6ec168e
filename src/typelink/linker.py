"""Candidate scoring and selection from type posteriors.

Each candidate entity is scored by adding the predicted probabilities
of the categories it carries left to right (`add_left_to_right`); the
argmax wins.  When the top candidate has too few categories to be
informative, or the top two scores are effectively tied, the decision
falls back to the mention-entity prior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Collection, Iterable, Optional

import numpy as np

from . import diagnostics as diag
from .categories import CategoryVocab
from .diagnostics import DiagnosticLog
from .evaluation import add_left_to_right
from .model import TypePosterior
from .prior import CandidateSet, PriorTable

DEFAULT_BACKOFF_MIN_CATS = 2
DEFAULT_TIE_EPS = 1e-9
SCORING_MODES = ("sum", "mean", "logodds")
_PROB_MIN, _PROB_MAX = np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)


@dataclass
class EntityCategoryIndex:
    """entity -> sorted vocabulary ids of its types, set by `put` only.

    An entity never put has no entry: `get` gives None for it.
    """

    ids_by_entity: dict[str, np.ndarray] = field(init=False, default_factory=dict)

    def put(self, entity: str, ids: Iterable[int]) -> None:
        self.ids_by_entity[entity] = np.asarray(sorted(set(ids)), dtype=np.int64)

    def get(self, entity: str) -> Optional[np.ndarray]:
        return self.ids_by_entity.get(entity)

    def category_count(self, entity: str) -> int:
        ids = self.get(entity)
        return 0 if ids is None else len(ids)


def build_category_index(types: dict[str, Collection[str]],
                         vocab: CategoryVocab) -> EntityCategoryIndex:
    """Index the in-vocabulary ids of each entity's types."""
    index = EntityCategoryIndex()
    for entity, categories in types.items():
        index.put(entity, vocab.to_ids(categories))
    return index


@dataclass
class LinkPrediction:
    """Outcome for one mention: scored candidates and the chosen entity."""

    scores: list[tuple[str, float]]
    chosen: Optional[str]
    used_backoff: bool


def _score_terms(posterior, mode: str) -> np.ndarray:
    """Per-category terms that a candidate's score sums.

    Log-odds come from the model's logits when the posterior carries them:
    the log-odds of sigmoid(z) is z, which stays finite where the
    probability has rounded to exactly 0 or 1.  A plain probability array
    is first clipped to the open interval (0, 1), so 0 and 1 map to the
    log-odds of the nearest representable probabilities, not to -inf/+inf.
    """
    if mode not in SCORING_MODES:
        raise ValueError(f"unknown scoring mode: {mode!r}")
    if isinstance(posterior, TypePosterior):
        return posterior.logits if mode == "logodds" else posterior.probs
    probs = np.asarray(posterior)
    if mode != "logodds":
        return probs
    probs = np.clip(probs, _PROB_MIN, _PROB_MAX)
    return np.log(probs) - np.log1p(-probs)


def _one_score(terms: np.ndarray, ids: Optional[np.ndarray], mode: str) -> float:
    """The candidate's terms added left to right in ascending category-id
    order (ids are kept sorted), divided by their count under ``mean``."""
    if ids is None or len(ids) == 0:
        return 0.0
    total = add_left_to_right(terms[ids].tolist())
    return total / len(ids) if mode == "mean" else total


def score_candidates(posterior, candidate_set: CandidateSet,
                     index: EntityCategoryIndex,
                     mode: str = "sum",
                     log: Optional[DiagnosticLog] = None) -> list[tuple[str, float]]:
    """Score every candidate against the posterior; unknown entities get 0."""
    if len(candidate_set) == 0:
        raise ValueError("empty candidate set")
    terms = _score_terms(posterior, mode)
    out = []
    for entity, _prior in candidate_set.candidates:
        ids = index.get(entity)
        if ids is None and log is not None:
            log.bump(diag.CANDIDATE_WITHOUT_CATEGORIES)
        out.append((entity, _one_score(terms, ids, mode)))
    return out


def check_backoff(backoff_min_cats: int, tie_eps: float) -> None:
    """Raise ValueError unless backoff_min_cats >= 0 and tie_eps is finite and >= 0."""
    if backoff_min_cats < 0:
        raise ValueError(f"backoff_min_cats must be non-negative, got {backoff_min_cats}")
    if not (math.isfinite(tie_eps) and tie_eps >= 0):
        raise ValueError(f"tie_eps must be non-negative and finite, got {tie_eps}")


def link(posterior, candidate_set: CandidateSet, index: EntityCategoryIndex,
         prior: PriorTable,
         backoff_min_cats: int = DEFAULT_BACKOFF_MIN_CATS,
         tie_eps: float = DEFAULT_TIE_EPS,
         mode: str = "sum",
         log: Optional[DiagnosticLog] = None) -> LinkPrediction:
    """Pick the candidate with the highest summed type score, with backoff.

    Backoff to `most_frequent_entity` fires when the top-scoring candidate
    carries fewer than `backoff_min_cats` categories or the top two
    scores sit within `tie_eps` of each other.  Ties in the ranking are
    resolved by higher prior, then by entity string, the rule backoff
    uses too.
    """
    check_backoff(backoff_min_cats, tie_eps)
    scored = score_candidates(posterior, candidate_set, index, mode, log)
    mention = candidate_set.mention
    ranked = sorted(scored, key=lambda item: (-item[1],
                                              -prior.prob(mention, item[0]),
                                              item[0]))
    top_entity, top_score = ranked[0]
    tied = len(ranked) > 1 and (top_score - ranked[1][1]) <= tie_eps
    sparse = index.category_count(top_entity) < backoff_min_cats
    if sparse or tied:
        return LinkPrediction(ranked, most_frequent_entity(candidate_set), True)
    return LinkPrediction(ranked, top_entity, False)


def most_frequent_entity(candidate_set: CandidateSet) -> str:
    """Baseline: the candidate with the highest stored prior probability."""
    if len(candidate_set) == 0:
        raise ValueError("empty candidate set")
    best = sorted(candidate_set.candidates, key=lambda item: (-item[1], item[0]))
    return best[0][0]
