"""Entity linking via fine-grained category typing.

A mention's candidate entities are scored by summing the predicted
probabilities of the categories each candidate carries; the best-scoring
candidate wins, with a mention-entity prior as backoff.
"""

from .categories import (DEFAULT_PREPOSITIONS, CategoryVocab, expand_category,
                         select_vocabulary)
from .diagnostics import DiagnosticLog
from .evaluation import (ContextMode, EvalReport, build_context, linking_accuracy,
                         typing_metrics)
from .ingest import (MentionExample, RawArticle, attach_categories, extract_examples,
                     iter_articles, read_examples, sample_training_set, write_examples)
from .linker import (EntityCategoryIndex, LinkPrediction, build_category_index, link,
                     most_frequent_entity, score_candidates)
from .model import (FeatureVector, Gradients, TrainConfig, TypePosterior, TypingModel,
                    featurize, hash_feature, loss_and_grad, predict, predict_example,
                    train)
from .prior import CandidateSet, PriorTable, accumulate, gold_recall

__version__ = "0.1.0"

__all__ = [
    "CandidateSet", "CategoryVocab", "ContextMode", "DEFAULT_PREPOSITIONS",
    "DiagnosticLog", "EntityCategoryIndex", "EvalReport",
    "FeatureVector", "Gradients", "LinkPrediction", "MentionExample", "PriorTable",
    "RawArticle", "TrainConfig", "TypePosterior", "TypingModel", "accumulate",
    "attach_categories", "build_category_index", "build_context", "expand_category",
    "extract_examples", "featurize", "gold_recall", "hash_feature",
    "ingest", "iter_articles", "link", "linking_accuracy", "loss_and_grad",
    "most_frequent_entity", "predict", "predict_example", "read_examples",
    "sample_training_set", "score_candidates", "select_vocabulary", "train",
    "typing_metrics", "write_examples",
]
