"""Candidate scoring and selection from type posteriors.

Each candidate entity is scored by summing the predicted probabilities
of the categories it carries; the argmax wins.  When the top candidate
has too few categories to be informative, or the top two scores are
effectively tied, the decision falls back to the mention-entity prior.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from . import diagnostics as diag
from .categories import CategoryVocab
from .diagnostics import DiagnosticLog
from .ingest import CategoryAssignment
from .model import TypePosterior
from .prior import CandidateSet, PriorTable

DEFAULT_BACKOFF_MIN_CATS = 2
DEFAULT_TIE_EPS = 1e-9
SCORING_MODES = ("sum", "mean", "logodds")
_PROB_MIN, _PROB_MAX = np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)


@dataclass
class EntityCategoryIndex:
    """entity -> sorted vocabulary ids of its expanded categories.

    An index built from category assignments fills an entity's entry on
    its first read, so only the entities asked about (the candidates of
    the linked mentions) are ever expanded.
    """

    assignments: dict[str, CategoryAssignment] = field(default_factory=dict)
    vocab: Optional[CategoryVocab] = None
    ids_by_entity: dict[str, np.ndarray] = field(default_factory=dict)

    def put(self, entity: str, ids: Iterable[int]) -> None:
        self.ids_by_entity[entity] = np.asarray(sorted(set(ids)), dtype=np.int64)

    def get(self, entity: str) -> Optional[np.ndarray]:
        if entity not in self.ids_by_entity:
            assignment = self.assignments.get(entity)
            if assignment is None:
                return None
            self.put(entity, self.vocab.to_ids(assignment.categories))
        return self.ids_by_entity[entity]

    def category_count(self, entity: str) -> int:
        ids = self.get(entity)
        return 0 if ids is None else len(ids)


def build_category_index(assignments: dict[str, CategoryAssignment],
                         vocab: CategoryVocab) -> EntityCategoryIndex:
    """Index the in-vocab ids of each entity's expanded categories, read on demand."""
    return EntityCategoryIndex(assignments, vocab)


@dataclass
class LinkPrediction:
    """Outcome for one mention: scored candidates and the chosen entity."""

    scores: list[tuple[str, float]]
    chosen: str
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
    if ids is None or len(ids) == 0:
        return 0.0
    total = 0.0
    # Sequential sum in ascending category-id order; ids are kept sorted,
    # so the accumulation order is identical everywhere.
    for i in ids:
        total += float(terms[i])
    if mode == "mean":
        total /= len(ids)
    return total


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


def link(posterior, candidate_set: CandidateSet, index: EntityCategoryIndex,
         prior: PriorTable,
         backoff_min_cats: int = DEFAULT_BACKOFF_MIN_CATS,
         tie_eps: float = DEFAULT_TIE_EPS,
         mode: str = "sum",
         log: Optional[DiagnosticLog] = None) -> LinkPrediction:
    """Pick the candidate with the highest summed type score, with backoff.

    Backoff to the prior argmax fires when the top-scoring candidate
    carries fewer than `backoff_min_cats` categories or the top two
    scores sit within `tie_eps` of each other.  Ties anywhere are
    resolved by higher prior, then by entity string.
    """
    if len(candidate_set) == 0:
        raise ValueError("empty candidate set")
    scored = score_candidates(posterior, candidate_set, index, mode, log)
    mention = candidate_set.mention
    ranked = sorted(scored, key=lambda item: (-item[1],
                                              -prior.prob(mention, item[0]),
                                              item[0]))
    top_entity, top_score = ranked[0]
    tied = len(ranked) > 1 and (top_score - ranked[1][1]) <= tie_eps
    sparse = index.category_count(top_entity) < backoff_min_cats
    if sparse or tied:
        by_prior = sorted(candidate_set.entities(),
                          key=lambda e: (-prior.prob(mention, e), e))
        return LinkPrediction(ranked, by_prior[0], True)
    return LinkPrediction(ranked, top_entity, False)


def most_frequent_entity(candidate_set: CandidateSet) -> str:
    """Baseline: the candidate with the highest stored prior probability."""
    if len(candidate_set) == 0:
        raise ValueError("empty candidate set")
    best = sorted(candidate_set.candidates, key=lambda item: (-item[1], item[0]))
    return best[0][0]
