"""Multi-label typing model: hashed sparse features into per-category logits.

The label side is the interesting part and is kept exactly: one
independent binary decision per category, probabilities t = sigmoid(W v),
trained with a summed binary cross entropy over all categories and
examples.  The feature side is a plain hashing-trick encoder over
context words, position-tagged window words, mention words, and mention
character n-grams.

All per-category arithmetic in the SGD loop goes through row-local
matrix-vector products, never a joint matrix-matrix product, so the
trained weights of one category are bit-for-bit unaffected by which
other categories share the vocabulary.

Feature hash: blake2b keyed with the seed (8 bytes little-endian,
digest_size 8), applied to the UTF-8 namespace-prefixed string; the
little-endian digest integer is reduced mod the feature-space size.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Callable, Iterable, Optional, Sequence

import numpy as np
from scipy.special import expit

from .atomic import atomic_write
from .categories import CategoryVocab
from .ingest import MentionExample

DEFAULT_FEATURE_DIM = 1 << 20
DEFAULT_HASH_SEED = 0
MODEL_FORMAT_VERSION = 2
WINDOW_DISTANCE = 3


def hash_feature(text: str, hash_seed: int, feature_dim: int) -> int:
    """Map a namespace-prefixed feature string to an id in [0, feature_dim)."""
    digest = blake2b(text.encode("utf-8"), digest_size=8,
                     key=hash_seed.to_bytes(8, "little")).digest()
    return int.from_bytes(digest, "little") % feature_dim


def feature_strings(example: MentionExample) -> list[str]:
    """Enumerate the namespace strings hashed for one example.

    Namespaces: ``s|`` context unigrams outside the span, ``w|rel|``
    context unigrams within distance 3 of the span tagged with their
    signed offset, ``m|`` mention unigrams, ``c3|`` / ``c4|`` character
    n-grams of the boundary-padded mention.  Everything is lowercased.
    """
    start, end = example.span
    out: list[str] = []
    for j, tok in enumerate(example.tokens):
        if start <= j < end:
            continue
        low = tok.lower()
        out.append("s|" + low)
        rel = j - start if j < start else j - end + 1
        if -WINDOW_DISTANCE <= rel <= WINDOW_DISTANCE:
            out.append(f"w|{rel}|{low}")
    for tok in example.tokens[start:end]:
        out.append("m|" + tok.lower())
    padded = "^" + example.mention.lower() + "$"
    for n in (3, 4):
        for i in range(len(padded) - n + 1):
            out.append(f"c{n}|" + padded[i:i + n])
    return out


@dataclass
class FeatureVector:
    """Sparse feature activations: strictly increasing ids, summed counts."""

    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.indices.shape != self.values.shape:
            raise ValueError("indices and values differ in length")
        if len(self.indices) and np.any(np.diff(self.indices) <= 0):
            raise ValueError("indices must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite feature value")


def featurize(example: MentionExample, feature_dim: int = DEFAULT_FEATURE_DIM,
              hash_seed: int = DEFAULT_HASH_SEED) -> FeatureVector:
    """Hash an example's feature strings; colliding ids accumulate counts."""
    counts: Counter = Counter()
    for text in feature_strings(example):
        counts[hash_feature(text, hash_seed, feature_dim)] += 1
    ids = sorted(counts)
    return FeatureVector(np.array(ids, dtype=np.int64),
                         np.array([float(counts[i]) for i in ids]))


@dataclass
class TypePosterior:
    """Per-category probabilities for one mention and the logits they came from."""

    probs: np.ndarray
    logits: np.ndarray


@dataclass
class TrainConfig:
    learning_rate: float = 0.1
    epochs: int = 5
    batch_size: int = 64
    l2_penalty: float = 0.0
    seed: int = 0
    feature_dim: int = DEFAULT_FEATURE_DIM
    hash_seed: int = DEFAULT_HASH_SEED

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.l2_penalty < 0:
            raise ValueError("l2_penalty must be non-negative")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be positive")
        if not 0 <= self.hash_seed < 2 ** 64:
            raise ValueError("hash_seed must fit in 64 bits")


@dataclass
class Gradients:
    weights: np.ndarray
    bias: np.ndarray


@dataclass
class TypingModel:
    """Weights (categories x feature_dim), bias, and the hashing contract."""

    weights: np.ndarray
    bias: np.ndarray
    vocab: CategoryVocab
    hash_seed: int = DEFAULT_HASH_SEED
    feature_dim: int = DEFAULT_FEATURE_DIM

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.shape != (len(self.vocab), self.feature_dim):
            raise ValueError(
                f"weights shape {self.weights.shape} does not match "
                f"{len(self.vocab)} categories x {self.feature_dim} features")
        if self.bias.shape != (len(self.vocab),):
            raise ValueError("bias length does not match vocabulary")

    @classmethod
    def zeros(cls, vocab: CategoryVocab, feature_dim: int = DEFAULT_FEATURE_DIM,
              hash_seed: int = DEFAULT_HASH_SEED) -> "TypingModel":
        return cls(np.zeros((len(vocab), feature_dim)), np.zeros(len(vocab)),
                   vocab, hash_seed, feature_dim)

    def save(self, path: str) -> None:
        """Write the model file: a JSON header line, then raw little-endian arrays.

        The header is ``{"format_version", "D", "hash_seed", "vocab",
        "columns"}``; the body is the bias (C x <f8), the ids of the k
        stored weight columns (k x <i8, ascending) and those columns as a
        C x k row-major block (<f8).  A column is stored when any entry has
        a nonzero bit pattern, so every other column is +0.0 throughout and
        the round trip is bit-exact, -0.0 included.
        """
        stored = np.flatnonzero((self.weights.view(np.uint64) != 0).any(axis=0))
        header = {
            "format_version": MODEL_FORMAT_VERSION,
            "D": self.feature_dim,
            "hash_seed": self.hash_seed,
            "vocab": self.vocab.entries,
            "columns": len(stored),
        }
        with atomic_write(path, binary=True) as fh:
            fh.write(json.dumps(header, ensure_ascii=False,
                                separators=(",", ":")).encode("utf-8") + b"\n")
            fh.write(self.bias.astype("<f8", copy=False).tobytes())
            fh.write(stored.astype("<i8", copy=False).tobytes())
            fh.write(self.weights[:, stored].astype("<f8", copy=False).tobytes())

    @classmethod
    def load(cls, path: str) -> "TypingModel":
        """Read a file written by `save`; raises ValueError on any malformed part."""
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            body = fh.read()
        if not isinstance(header, dict):
            raise ValueError("model header is not a JSON object")
        version = header.get("format_version")
        if version != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported model format version: {version!r}")
        for key in ("D", "hash_seed", "vocab", "columns"):
            if key not in header:
                raise ValueError(f"model header lacks {key!r}")
        entries = header["vocab"]
        if not (isinstance(entries, list) and all(isinstance(e, str) for e in entries)):
            raise ValueError("model vocab must be a list of strings")
        dim = _header_int(header, "D", 1)
        hash_seed = _header_int(header, "hash_seed", 0, 2 ** 64)
        n_cols = _header_int(header, "columns", 0)
        n_cats = len(entries)
        if len(body) != 8 * (n_cats + n_cols + n_cats * n_cols):
            raise ValueError(f"model body is {len(body)} bytes, expected "
                             f"{8 * (n_cats + n_cols + n_cats * n_cols)}")
        bias = np.frombuffer(body, "<f8", n_cats)
        ids = np.frombuffer(body, "<i8", n_cols, offset=8 * n_cats)
        block = np.frombuffer(body, "<f8", n_cats * n_cols,
                              offset=8 * (n_cats + n_cols)).reshape(n_cats, n_cols)
        if not (np.isfinite(bias).all() and np.isfinite(block).all()):
            raise ValueError("model holds a non-finite weight or bias")
        if n_cols and not (ids[0] >= 0 and ids[-1] < dim and (np.diff(ids) > 0).all()):
            raise ValueError("model column ids must be strictly increasing in [0, D)")
        try:
            weights = np.zeros((n_cats, dim))
        except MemoryError as err:
            raise ValueError(f"model of {n_cats} x {dim} weights does not fit in memory") from err
        weights[:, ids] = block
        return cls(weights, bias.copy(), CategoryVocab(entries), hash_seed, dim)


def _header_int(header: dict, key: str, lo: int, hi: Optional[int] = None) -> int:
    """An integer header field in [lo, hi); hi None means unbounded."""
    value = header[key]
    if type(value) is not int or value < lo or (hi is not None and value >= hi):
        raise ValueError(f"model header {key!r} is not an integer in range: {value!r}")
    return value


def predict(model: TypingModel, features: FeatureVector) -> TypePosterior:
    """t = sigmoid(W v + b) for one sparse input."""
    if len(features.indices) and int(features.indices[-1]) >= model.feature_dim:
        raise ValueError("feature id out of range for this model")
    logits = model.weights[:, features.indices] @ features.values + model.bias
    return TypePosterior(expit(logits), logits)


def predict_example(model: TypingModel, example: MentionExample) -> TypePosterior:
    return predict(model, featurize(example, model.feature_dim, model.hash_seed))


def labels_to_vector(label_ids: Iterable[int], n_categories: int) -> np.ndarray:
    y = np.zeros(n_categories)
    for i in label_ids:
        if not 0 <= i < n_categories:
            raise ValueError(f"label id {i} outside vocabulary of {n_categories}")
        y[i] = 1.0
    return y


def _bce_sum(logits: np.ndarray, targets: np.ndarray) -> float:
    """Numerically stable sum of per-entry binary cross entropies."""
    return float(np.sum(np.maximum(logits, 0.0) - logits * targets
                        + np.log1p(np.exp(-np.abs(logits)))))


def loss_and_grad(model: TypingModel,
                  batch: Sequence[tuple[FeatureVector, np.ndarray]],
                  l2_penalty: float = 0.0) -> tuple[float, Gradients]:
    """Summed BCE loss (plus optional L2 on W) and its exact gradient.

    The gradient with respect to each logit is (t - y); it lands on the
    active features of the example, plus the dense L2 term.  Intended for
    small models and tests; the SGD loop keeps its own sparse path.
    """
    if not batch:
        raise ValueError("empty batch")
    n = len(batch)
    n_cats = len(model.vocab)
    dense = np.zeros((n, model.feature_dim))
    targets = np.zeros((n, n_cats))
    for row, (fv, y) in enumerate(batch):
        dense[row, fv.indices] = fv.values
        targets[row] = np.asarray(y, dtype=np.float64)
    logits = dense @ model.weights.T + model.bias
    loss = _bce_sum(logits, targets)
    if l2_penalty:
        loss += l2_penalty * float(np.sum(model.weights * model.weights)) / 2.0
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite loss; model or inputs have diverged")
    err = expit(logits) - targets
    grad_w = err.T @ dense
    if l2_penalty:
        grad_w += l2_penalty * model.weights
    return loss, Gradients(grad_w, err.sum(axis=0))


def _encode(pairs: Sequence[tuple[MentionExample, Sequence[int]]], config: TrainConfig,
            n_cats: int) -> tuple[list[FeatureVector], list[np.ndarray]]:
    """Featurize the examples; label ids come back sorted, deduplicated and checked."""
    feats = [featurize(ex, config.feature_dim, config.hash_seed) for ex, _ in pairs]
    labels = [np.asarray(sorted(set(ids)), dtype=np.int64) for _, ids in pairs]
    for arr in labels:
        if len(arr) and (arr[0] < 0 or arr[-1] >= n_cats):
            raise ValueError("label id outside vocabulary")
    return feats, labels


def _batch_forward(weights: np.ndarray, bias: np.ndarray, feats: Sequence[FeatureVector],
                   labels: Sequence[np.ndarray], rows: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """Densify one mini-batch onto its active feature columns and run it forward.

    Logits come from one matrix-vector product per category row.  Returns
    (active, local, targets, logits, summed BCE loss); the SGD step reuses
    the densified batch for its gradient.
    """
    if len(rows) == 0:
        raise ValueError("empty batch")
    n_cats = len(bias)
    active = np.unique(np.concatenate([feats[i].indices for i in rows]))
    local = np.zeros((len(rows), len(active)))
    targets = np.zeros((len(rows), n_cats))
    for r, i in enumerate(rows):
        local[r, np.searchsorted(active, feats[i].indices)] = feats[i].values
        targets[r, labels[i]] = 1.0
    weights_active = weights[:, active]
    logits = np.empty((len(rows), n_cats))
    for cat in range(n_cats):
        logits[:, cat] = local @ weights_active[cat] + bias[cat]
    return active, local, targets, logits, _bce_sum(logits, targets)


def train(pairs: Sequence[tuple[MentionExample, Sequence[int]]],
          vocab: CategoryVocab,
          config: TrainConfig,
          dev_pairs: Optional[Sequence[tuple[MentionExample, Sequence[int]]]] = None,
          on_epoch: Optional[Callable[[int, float, Optional[float]], None]] = None) -> TypingModel:
    """Mini-batch SGD on the summed BCE objective.

    `pairs` carries (example, vocab label ids).  Weights start at zero;
    each epoch visits a fresh seeded permutation of the data, so a fixed
    seed gives bit-identical weights.  Raises FloatingPointError when a
    batch loss goes non-finite.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("no training examples")
    n_cats = len(vocab)
    feats, labels = _encode(pairs, config, n_cats)
    if dev_pairs is not None:
        dev_feats, dev_labels = _encode(dev_pairs, config, n_cats)

    model = TypingModel.zeros(vocab, config.feature_dim, config.hash_seed)
    weights, bias = model.weights, model.bias
    rng = np.random.default_rng(config.seed)
    decay = 1.0 - config.learning_rate * config.l2_penalty
    for epoch in range(config.epochs):
        order = rng.permutation(len(pairs))
        epoch_loss = 0.0
        for lo in range(0, len(order), config.batch_size):
            rows = order[lo:lo + config.batch_size]
            active, local, targets, logits, loss = _batch_forward(weights, bias, feats,
                                                                  labels, rows)
            if not np.isfinite(loss):
                raise FloatingPointError(
                    f"training diverged: non-finite loss at epoch {epoch + 1}")
            epoch_loss += loss
            err = expit(logits) - targets
            grad = np.empty((n_cats, len(active)))
            for cat in range(n_cats):
                grad[cat] = err[:, cat] @ local
            if config.l2_penalty:
                weights *= decay
            weights[:, active] -= config.learning_rate * grad
            bias -= config.learning_rate * err.sum(axis=0)
        dev_loss = None
        if dev_pairs is not None:
            dev_loss = _full_loss(weights, bias, dev_feats, dev_labels)
        if on_epoch is not None:
            on_epoch(epoch + 1, epoch_loss, dev_loss)
    # A batch's loss is checked before its update, so only the last update
    # can overflow unseen; the model file refuses non-finite values.
    if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
        raise FloatingPointError("training diverged: non-finite weights after the last update")
    return model


def _full_loss(weights: np.ndarray, bias: np.ndarray, feats: Sequence[FeatureVector],
               labels: Sequence[np.ndarray], chunk: int = 256) -> float:
    total = 0.0
    for lo in range(0, len(feats), chunk):
        rows = np.arange(lo, min(lo + chunk, len(feats)))
        total += _batch_forward(weights, bias, feats, labels, rows)[-1]
    return total
