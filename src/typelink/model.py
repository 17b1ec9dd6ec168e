"""Multi-label typing model: hashed sparse features into per-category logits.

The label side is the interesting part and is kept exactly: one
independent binary decision per category, probabilities t = sigmoid(W v),
trained with a summed binary cross entropy over all categories and
examples.  The feature side is a plain hashing-trick encoder over
context words, position-tagged window words, mention words, and mention
character n-grams.

In memory a model holds only the columns of W for the features seen in
training, feature-major: the ascending feature ids and a k x categories
block, one row per feature (the layout of Vowpal Wabbit's weights, after
the hashing trick of Weinberger et al., 2009).  Its size follows the
training data, not the feature-space size D.  One forward kernel serves
training, the dev loss and `predict`: an input's logits are its block
rows, scaled by the feature values and added one after another, plus the
bias.  Every category has its own lane in that sum, so the trained
weights of one category are bit-for-bit unaffected by which other
categories share the vocabulary, and a logit computed in training equals
the one `predict` gives for the same input.

Feature hash: blake2b keyed with the seed (8 bytes little-endian,
digest_size 8), applied to the UTF-8 namespace-prefixed string; the
little-endian digest integer is reduced mod the feature-space size.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from hashlib import blake2b
from typing import Callable, Optional, Sequence

import numpy as np

from .atomic import atomic_write
from .categories import CategoryVocab
from .evaluation import ContextMode
from .ingest import MentionExample

DEFAULT_FEATURE_DIM = 1 << 20
DEFAULT_HASH_SEED = 0
MODEL_FORMAT_VERSION = 3
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
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be positive and finite")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not (math.isfinite(self.l2_penalty) and self.l2_penalty >= 0):
            raise ValueError("l2_penalty must be non-negative and finite")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be positive")
        if not 0 <= self.hash_seed < 2 ** 64:
            raise ValueError("hash_seed must fit in 64 bits")


@dataclass
class Gradients:
    weights: np.ndarray
    bias: np.ndarray


def sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic function 1 / (1 + exp(-z)); exp only ever sees -|z|, so nothing overflows."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _zeros(n_rows: int, n_cols: int) -> np.ndarray:
    """A zero float64 matrix; raises ValueError when it does not fit in memory."""
    try:
        return np.zeros((n_rows, n_cols))
    except MemoryError as err:
        raise ValueError(f"{n_rows} x {n_cols} weights do not fit in memory") from err


@dataclass
class TypingModel:
    """The weights of the feature columns a model holds, its bias, and its input contract.

    `feature_ids` are the ascending ids of the k feature columns held and
    `block` their weights, feature-major: k rows of one weight per
    category.  Every other column of the categories x D weight matrix is
    zero.  A dense model holds all D columns, ids 0 .. D-1.

    The input contract is the hashing (`hash_seed`, `feature_dim`) and
    `context_mode`, the `ContextMode` its training examples were built
    with, which the CLI applies again before predicting.  The default,
    `sentence_only`, leaves an example as given.
    """

    feature_ids: np.ndarray
    block: np.ndarray
    bias: np.ndarray
    vocab: CategoryVocab
    hash_seed: int = DEFAULT_HASH_SEED
    feature_dim: int = DEFAULT_FEATURE_DIM
    context_mode: str = ContextMode.SENTENCE_ONLY.value

    def __post_init__(self) -> None:
        self.context_mode = ContextMode(self.context_mode).value
        self.feature_ids = np.asarray(self.feature_ids, dtype=np.int64)
        self.block = np.asarray(self.block, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        ids = self.feature_ids
        if ids.ndim != 1 or self.block.shape != (len(ids), len(self.vocab)):
            raise ValueError(f"block shape {self.block.shape} does not match "
                             f"{len(ids)} feature ids x {len(self.vocab)} categories")
        if len(ids) and not (ids[0] >= 0 and ids[-1] < self.feature_dim
                             and (np.diff(ids) > 0).all()):
            raise ValueError("feature ids must be strictly increasing in [0, D)")
        if self.bias.shape != (len(self.vocab),):
            raise ValueError("bias length does not match vocabulary")

    @classmethod
    def zeros(cls, vocab: CategoryVocab, feature_dim: int = DEFAULT_FEATURE_DIM,
              hash_seed: int = DEFAULT_HASH_SEED) -> "TypingModel":
        """An all-zero dense model; raises ValueError when its weights do not fit in memory."""
        block = _zeros(feature_dim, len(vocab))
        return cls(np.arange(feature_dim), block, np.zeros(len(vocab)), vocab, hash_seed,
                   feature_dim)

    @property
    def weights(self) -> np.ndarray:
        """The categories x D weight matrix.

        A writable view of `block` for a dense model; for any other, a
        read-only matrix built on each read.
        """
        if len(self.feature_ids) == self.feature_dim:
            return self.block.T
        dense = _zeros(len(self.vocab), self.feature_dim)
        dense[:, self.feature_ids] = self.block.T
        dense.flags.writeable = False
        return dense

    def held_rows(self, features: FeatureVector) -> tuple[np.ndarray, np.ndarray]:
        """Block rows of the input's features that this model holds, and their values.

        A feature the model does not hold has weight zero everywhere, so
        dropping it leaves every logit unchanged.
        """
        rows = np.searchsorted(self.feature_ids, features.indices)
        held = rows < len(self.feature_ids)
        held[held] = self.feature_ids[rows[held]] == features.indices[held]
        return rows[held], features.values[held]

    def save(self, path: str) -> None:
        """Write the model file: a JSON header line, then raw little-endian arrays.

        The header is ``{"format_version", "D", "hash_seed", "context_mode",
        "vocab", "columns"}``; the body is the bias (C x <f8), the ids of the k
        stored weight columns (k x <i8, ascending) and those columns as a
        C x k row-major block (<f8).  A column is stored when any entry has
        a nonzero bit pattern, so every other column is +0.0 throughout and
        the round trip is bit-exact, -0.0 included.
        """
        stored = (self.block.view(np.uint64) != 0).any(axis=1)
        header = {
            "format_version": MODEL_FORMAT_VERSION,
            "D": self.feature_dim,
            "hash_seed": self.hash_seed,
            "context_mode": self.context_mode,
            "vocab": self.vocab.entries,
            "columns": int(stored.sum()),
        }
        with atomic_write(path, binary=True) as fh:
            fh.write(json.dumps(header, ensure_ascii=False,
                                separators=(",", ":")).encode("utf-8") + b"\n")
            fh.write(self.bias.astype("<f8", copy=False).tobytes())
            fh.write(self.feature_ids[stored].astype("<i8", copy=False).tobytes())
            fh.write(self.block[stored].T.astype("<f8", copy=False).tobytes())

    @classmethod
    def load(cls, path: str) -> "TypingModel":
        """Read a file written by `save`; raises ValueError on any malformed part.

        The model holds just the stored columns, so its memory follows the
        file's size and not categories x D.
        """
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            body = fh.read()
        if not isinstance(header, dict):
            raise ValueError("model header is not a JSON object")
        version = header.get("format_version")
        if version != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported model format version: {version!r}")
        for key in ("D", "hash_seed", "context_mode", "vocab", "columns"):
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
        stored = np.frombuffer(body, "<f8", n_cats * n_cols,
                               offset=8 * (n_cats + n_cols)).reshape(n_cats, n_cols)
        if not (np.isfinite(bias).all() and np.isfinite(stored).all()):
            raise ValueError("model holds a non-finite weight or bias")
        block = _zeros(n_cols, n_cats)
        block[:] = stored.T
        return cls(ids.copy(), block, bias.copy(), CategoryVocab(entries), hash_seed, dim,
                   header["context_mode"])


def _header_int(header: dict, key: str, lo: int, hi: Optional[int] = None) -> int:
    """An integer header field in [lo, hi); hi None means unbounded."""
    value = header[key]
    if type(value) is not int or value < lo or (hi is not None and value >= hi):
        raise ValueError(f"model header {key!r} is not an integer in range: {value!r}")
    return value


def _sum_rows(a: np.ndarray) -> np.ndarray:
    """Sum a 2-D array over its rows, one row after another.

    numpy adds the rows of a matrix with two or more columns in order,
    every column on its own; a single column it would sum pairwise, so
    that case accumulates explicitly.  Either way a column's sum depends
    on that column alone.
    """
    if a.shape[1] == 1 and len(a) > 1:
        return np.cumsum(a, axis=0)[-1]
    return a.sum(axis=0)


def _logits(block: np.ndarray, bias: np.ndarray, rows: np.ndarray,
            values: np.ndarray) -> np.ndarray:
    """The forward kernel: one input's logits from its held block rows and their values.

    Training, the dev loss and `predict` all call it, so a logit seen in
    training and one seen at link time for the same input are the same
    bits, and no category's logit depends on which other categories exist.
    """
    terms = block[rows]
    terms *= values[:, None]
    return _sum_rows(terms) + bias


def predict(model: TypingModel, features: FeatureVector) -> TypePosterior:
    """t = sigmoid(W v + b) for one sparse input."""
    if len(features.indices) and int(features.indices[-1]) >= model.feature_dim:
        raise ValueError("feature id out of range for this model")
    logits = _logits(model.block, model.bias, *model.held_rows(features))
    return TypePosterior(sigmoid(logits), logits)


def predict_example(model: TypingModel, example: MentionExample) -> TypePosterior:
    return predict(model, featurize(example, model.feature_dim, model.hash_seed))


def _bce_sum(logits: np.ndarray, targets: np.ndarray) -> float:
    """Numerically stable sum of per-entry binary cross entropies."""
    return float(np.sum(np.maximum(logits, 0.0) - logits * targets
                        + np.log1p(np.exp(-np.abs(logits)))))


def loss_and_grad(model: TypingModel,
                  batch: Sequence[tuple[FeatureVector, np.ndarray]],
                  l2_penalty: float = 0.0) -> tuple[float, Gradients]:
    """Summed BCE loss (plus optional L2 on W) and its exact gradient.

    The gradient with respect to each logit is (t - y); it lands on the
    active features of the example, plus the dense L2 term.  Works on the
    dense categories x D matrix, so it is meant for small models and
    tests; the SGD loop keeps its own sparse path.
    """
    if not batch:
        raise ValueError("empty batch")
    n = len(batch)
    n_cats = len(model.vocab)
    weights = model.weights
    dense = np.zeros((n, model.feature_dim))
    targets = np.zeros((n, n_cats))
    for row, (fv, y) in enumerate(batch):
        dense[row, fv.indices] = fv.values
        targets[row] = np.asarray(y, dtype=np.float64)
    logits = dense @ weights.T + model.bias
    loss = _bce_sum(logits, targets)
    if l2_penalty:
        loss += l2_penalty * float(np.sum(weights * weights)) / 2.0
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite loss; model or inputs have diverged")
    err = sigmoid(logits) - targets
    grad_w = err.T @ dense
    if l2_penalty:
        grad_w += l2_penalty * weights
    return loss, Gradients(grad_w, err.sum(axis=0))


# A training or dev example as the SGD loop sees it: the block rows of its
# features, their values, and its sorted label ids.
Encoded = tuple[np.ndarray, np.ndarray, np.ndarray]


def _encode(pairs: Sequence[tuple[MentionExample, Sequence[int]]], config: TrainConfig,
            n_cats: int) -> tuple[list[FeatureVector], list[np.ndarray]]:
    """Featurize the examples; label ids come back sorted, deduplicated and checked."""
    feats = [featurize(ex, config.feature_dim, config.hash_seed) for ex, _ in pairs]
    labels = [np.asarray(sorted(set(ids)), dtype=np.int64) for _, ids in pairs]
    for arr in labels:
        if len(arr) and (arr[0] < 0 or arr[-1] >= n_cats):
            raise ValueError("label id outside vocabulary")
    return feats, labels


def _forward(model: TypingModel, batch: Sequence[Encoded]) -> tuple[np.ndarray, np.ndarray]:
    """Logits and 0/1 targets (examples x categories) of encoded examples."""
    logits = np.empty((len(batch), len(model.bias)))
    targets = np.zeros((len(batch), len(model.bias)))
    for i, (rows, values, labels) in enumerate(batch):
        logits[i] = _logits(model.block, model.bias, rows, values)
        targets[i, labels] = 1.0
    return logits, targets


def _sgd_step(model: TypingModel, batch: Sequence[Encoded], learning_rate: float,
              l2_penalty: float) -> float:
    """One mini-batch update of the model; returns the batch's summed BCE before it.

    Each example's gradient, its feature values times (t - y), is added
    into the rows the batch touches in example order.  L2 decays the
    held block only: every other weight is zero.  A non-finite loss leaves
    the model unchanged.
    """
    logits, targets = _forward(model, batch)
    loss = _bce_sum(logits, targets)
    if not np.isfinite(loss):
        return loss
    err = sigmoid(logits) - targets
    touched = np.unique(np.concatenate([rows for rows, _, _ in batch]))
    grad = np.zeros((len(touched), len(model.bias)))
    for (rows, values, _), example_err in zip(batch, err):
        grad[np.searchsorted(touched, rows)] += values[:, None] * example_err
    if l2_penalty:
        model.block *= 1.0 - learning_rate * l2_penalty
    model.block[touched] -= learning_rate * grad
    model.bias -= learning_rate * _sum_rows(err)
    return loss


def train(pairs: Sequence[tuple[MentionExample, Sequence[int]]],
          vocab: CategoryVocab,
          config: TrainConfig,
          dev_pairs: Optional[Sequence[tuple[MentionExample, Sequence[int]]]] = None,
          on_epoch: Optional[Callable[[int, float, Optional[float]], None]] = None) -> TypingModel:
    """Mini-batch SGD on the summed BCE objective.

    `pairs` carries (example, vocab label ids).  The model holds the
    feature columns of the training examples, all starting at zero; no
    other weight can move.  Each epoch visits a fresh seeded permutation of
    the data, so a fixed seed gives bit-identical weights.  Raises
    FloatingPointError when a batch loss goes non-finite.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("no training examples")
    n_cats = len(vocab)
    feats, labels = _encode(pairs, config, n_cats)
    feature_ids = np.unique(np.concatenate([fv.indices for fv in feats]))
    model = TypingModel(feature_ids, _zeros(len(feature_ids), n_cats), np.zeros(n_cats),
                        vocab, config.hash_seed, config.feature_dim)
    examples = [(*model.held_rows(fv), y) for fv, y in zip(feats, labels)]
    dev = None
    if dev_pairs is not None:
        dev = [(*model.held_rows(fv), y)
               for fv, y in zip(*_encode(dev_pairs, config, n_cats))]
    rng = np.random.default_rng(config.seed)
    for epoch in range(config.epochs):
        order = rng.permutation(len(examples))
        epoch_loss = 0.0
        for lo in range(0, len(order), config.batch_size):
            batch = [examples[i] for i in order[lo:lo + config.batch_size]]
            loss = _sgd_step(model, batch, config.learning_rate, config.l2_penalty)
            if not np.isfinite(loss):
                raise FloatingPointError(
                    f"training diverged: non-finite loss at epoch {epoch + 1}")
            epoch_loss += loss
        dev_loss = None if dev is None else _full_loss(model, dev)
        if on_epoch is not None:
            on_epoch(epoch + 1, epoch_loss, dev_loss)
    # A batch's loss is checked before its update, so only the last update
    # can overflow unseen; the model file refuses non-finite values.
    if not (np.isfinite(model.block).all() and np.isfinite(model.bias).all()):
        raise FloatingPointError("training diverged: non-finite weights after the last update")
    return model


def _full_loss(model: TypingModel, examples: Sequence[Encoded], chunk: int = 256) -> float:
    total = 0.0
    for lo in range(0, len(examples), chunk):
        total += _bce_sum(*_forward(model, examples[lo:lo + chunk]))
    return total
