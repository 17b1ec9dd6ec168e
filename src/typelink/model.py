"""Multi-label typing model: hashed sparse features into per-category logits.

The label side is the interesting part and is kept exactly: one
independent binary decision per category, probabilities t = sigmoid(W v),
trained with a summed binary cross entropy over all categories and
examples.  The feature side is a plain hashing-trick encoder over
context words, position-tagged window words, mention words, and mention
character n-grams.

A model holds only the columns of W for the features seen in training,
feature-major: the ascending feature ids and a k x categories block, one
row per feature (the layout of Vowpal Wabbit's weights, after the hashing
trick of Weinberger et al., 2009), in memory and in its file alike.  Its
size follows the training data, not the feature-space size D.  Training
holds the weights as float32, the file stores them so, and a loaded model
keeps them so.  One forward kernel serves training, the dev loss and
`predict`: an input's logits are its block rows, widened to float64,
scaled by the feature values and added one after another, plus the
bias.  Every category has its own lane in that sum, so the trained
weights of one category are bit-for-bit unaffected by which other
categories share the vocabulary, and a logit computed in training equals
the one `predict` gives for the same input and the same weights: the
last epoch's dev loss and every prediction use the float32 weights
`train` returns, whether held in memory or read from the file.
Likewise the SGD loop and `loss_and_grad`, which the finite-difference
check tests, share one loss and gradient function.

Feature hash: blake2b keyed with the seed (8 bytes little-endian,
digest_size 8), applied to the UTF-8 namespace-prefixed string; the
little-endian digest integer is reduced mod the feature-space size.
`feature_strings` and `hash_feature` are the definition.  Tokens and
mentions repeat across the mentions of a file, so `featurize` keeps, for
each of the 16 most recent hashings, `functools.lru_cache` memos from raw
token to its `s|` and `m|` ids, from (offset, raw token) to its `w|` id
and from mention to its `c3|`/`c4|` ids: a feature string is built and
hashed only for a key its memo does not hold, and the ids are exactly
those of the definition.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from hashlib import blake2b
from typing import Callable, Optional, Sequence

import numpy as np

from .atomic import atomic_write
from .categories import CategoryVocab
from .evaluation import ContextMode, build_context
from .ingest import MentionExample, json_line

DEFAULT_FEATURE_DIM = 1 << 20
DEFAULT_HASH_SEED = 0
# Feature ids are int64, so D is at most 2**63 (ids 0 .. 2**63 - 1).
MAX_FEATURE_DIM = 2 ** 63
MODEL_FORMAT_VERSION = 5
WINDOW_DISTANCE = 3
# Keys each token feature-id memo holds; the least recently used goes first.
# One featurize pass over a file of 1,000 mentions puts 700 to 3,000 keys in
# each.
FEATURE_MEMO_LIMIT = 1 << 16
# Dev examples the dev loss scores in one forward pass.
DEV_LOSS_CHUNK = 256


def hash_feature(text: str, hash_seed: int, feature_dim: int) -> int:
    """Map a namespace-prefixed feature string to an id in [0, feature_dim)."""
    return _feature_ids(hash_seed, feature_dim).hash(text)


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
    return out + _ngram_strings(example.mention)


def _ngram_strings(mention: str) -> list[str]:
    """The ``c3|`` and ``c4|`` strings of a mention, in `feature_strings` order."""
    padded = "^" + mention.lower() + "$"
    return [f"c{n}|" + padded[i:i + n] for n in (3, 4) for i in range(len(padded) - n + 1)]


@dataclass
class FeatureVector:
    """Sparse feature activations: strictly increasing non-negative ids, summed counts."""

    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.indices = ids = np.asarray(self.indices, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if ids.shape != self.values.shape:
            raise ValueError("indices and values differ in length")
        if (ids[1:] <= ids[:-1]).any():
            raise ValueError("indices must be strictly increasing")
        if len(ids) and ids[0] < 0:
            raise ValueError("feature ids must be non-negative")
        if not np.isfinite(self.values).all():
            raise ValueError("non-finite feature value")


class _FeatureIds:
    """One hashing: `hash`, which is `hash_feature` as a function of the string,
    and the feature-id memos, an `lru_cache` per way `feature_strings` builds a
    string.

    The keyed blake2b state is built once, and each string is hashed on a
    copy of it.
    """

    def __init__(self, hash_seed: int, feature_dim: int):
        keyed = blake2b(digest_size=8, key=hash_seed.to_bytes(8, "little"))

        def hash_one(text: str) -> int:
            h = keyed.copy()
            h.update(text.encode("utf-8"))
            return int.from_bytes(h.digest(), "little") % feature_dim

        self.hash = hash_one
        memo = lru_cache(maxsize=FEATURE_MEMO_LIMIT)
        self.context = memo(lambda tok: self.hash("s|" + tok.lower()))
        self.window = memo(lambda rel, tok: self.hash(f"w|{rel}|{tok.lower()}"))
        self.mention = memo(lambda tok: self.hash("m|" + tok.lower()))
        # Keyed by mention: benchmark mentions carry 15-22 n-gram ids on
        # average, so 2**12 mentions hold about as many ids as a token memo.
        # Keyed by n-gram string, a cold pass over the featurize calls of the
        # text_heavy pipeline took 9-17 ms longer (train_wide: within 3 ms).
        self.ngrams = lru_cache(maxsize=FEATURE_MEMO_LIMIT // 16)(
            lambda mention: tuple(map(self.hash, _ngram_strings(mention))))


# The hashings and memos of the 16 most recent (hash_seed, feature_dim)
# pairs.  A memo only caches the pure `hash_feature`, so sharing it changes
# no result.
_feature_ids = lru_cache(maxsize=16)(_FeatureIds)


def featurize(example: MentionExample, feature_dim: int = DEFAULT_FEATURE_DIM,
              hash_seed: int = DEFAULT_HASH_SEED) -> FeatureVector:
    """The hashed `feature_strings` of an example; colliding ids accumulate counts."""
    memos = _feature_ids(hash_seed, feature_dim)
    tokens = example.tokens
    start, end = example.span
    left = tokens[max(0, start - WINDOW_DISTANCE):start]
    right = tokens[end:end + WINDOW_DISTANCE]
    ids = [*map(memos.context, tokens[:start]), *map(memos.context, tokens[end:]),
           *map(memos.window, range(-len(left), 0), left),
           *map(memos.window, range(1, len(right) + 1), right),
           *map(memos.mention, tokens[start:end]),
           *memos.ngrams(example.mention)]
    # Sorted, each run of equal ids is one feature whose value is the run's length.
    ids = np.array(ids, dtype=np.int64)
    ids.sort()
    first = np.empty(len(ids), dtype=bool)
    first[:1] = True
    np.not_equal(ids[1:], ids[:-1], out=first[1:])
    return FeatureVector(ids[first], np.bincount(first.cumsum())[1:].astype(np.float64))


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
        if not 1 <= self.feature_dim <= MAX_FEATURE_DIM:
            raise ValueError(f"feature_dim must be in [1, 2**63], got {self.feature_dim}")
        if not 0 <= self.hash_seed < 2 ** 64:
            raise ValueError("hash_seed must fit in 64 bits")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass
class Gradients:
    weights: np.ndarray
    bias: np.ndarray


def sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic function 1 / (1 + exp(-z)); exp only ever sees -|z|, so nothing overflows."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _zeros(n_rows: int, n_cols: int, dtype=np.float64) -> np.ndarray:
    """A zero matrix of `dtype`; raises ValueError when it does not fit in memory."""
    try:
        return np.zeros((n_rows, n_cols), dtype)
    except MemoryError as err:
        raise ValueError(f"{n_rows} x {n_cols} weights do not fit in memory") from err


def _weight_array(a) -> np.ndarray:
    """`a` as it is if float32, else as float64."""
    a = np.asarray(a)
    return a if a.dtype == np.float32 else a.astype(np.float64, copy=False)


def _all_finite(a: np.ndarray) -> bool:
    """Whether no entry is NaN or infinite; min and max propagate NaN, so
    two reductions decide it without a mask of the entries."""
    return a.size == 0 or bool(np.isfinite(a.min()) and np.isfinite(a.max()))


def _float32(a: np.ndarray) -> np.ndarray:
    """The float32 rounding of `a`, contiguous and little-endian (`a` itself if
    it is so already); raises ValueError when an entry of it is not finite."""
    with np.errstate(over="ignore"):  # an overflow rounds to inf, refused below
        rounded = np.ascontiguousarray(a, "<f4")
    if not _all_finite(rounded):
        raise ValueError("a weight or bias is not finite as float32")
    return rounded


@dataclass
class TypingModel:
    """The weights of the feature columns a model holds, its bias, and its input contract.

    `feature_ids` are the ascending ids of the k feature columns held and
    `block` their weights, feature-major: k rows of one weight per
    category.  Every other column of the categories x D weight matrix is
    zero.  A dense model holds all D columns, ids 0 .. D-1.  The block and
    the bias are float32 as given, float64 otherwise: training builds
    float32 ones and a loaded model holds float32 views of its file, so
    only a model built in code, such as `TypingModel.zeros`, is float64.

    The input contract is the hashing (`hash_seed`, `feature_dim`) and
    `context_mode`, the `ContextMode` its training examples were built
    with, which `predict_example` applies to every example it is given.
    The default, `sentence_only`, leaves an example as given.
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
        self.block = _weight_array(self.block)
        self.bias = _weight_array(self.bias)
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
        """The categories x D weight matrix, float64.

        A writable view of `block` for a dense float64 model; for any
        other, a read-only matrix built on each read.
        """
        if len(self.feature_ids) == self.feature_dim and self.block.dtype == np.float64:
            return self.block.T
        dense = _zeros(len(self.vocab), self.feature_dim)
        dense[:, self.feature_ids] = self.block.T
        dense.flags.writeable = False
        return dense

    def held_rows(self, features: FeatureVector) -> tuple[np.ndarray, np.ndarray]:
        """Block rows of the input's features that this model holds, and their values.

        A feature the model does not hold has weight zero everywhere, so
        dropping it leaves every logit unchanged.  A feature id of D or
        more is refused.
        """
        if len(features.indices) and int(features.indices[-1]) >= self.feature_dim:
            raise ValueError("feature id out of range for this model")
        rows = np.searchsorted(self.feature_ids, features.indices)
        if not len(self.feature_ids):
            return rows[:0], features.values[:0]
        # A row past the last id is clipped onto it, which differs from the input id.
        held = self.feature_ids.take(rows, mode="clip") == features.indices
        return rows[held], features.values[held]

    def save(self, path: str) -> None:
        """Write the model file: a JSON header line, then raw little-endian arrays.

        The header is ``{"format_version", "D", "hash_seed", "context_mode",
        "vocab", "columns"}``; the body is the ids of the k stored weight
        columns (k x <i8, ascending), the bias (C x <f4) and the stored rows
        of `block`, k x C row-major (<f4).  The ids come first, so each array
        starts at a multiple of its item size.  Weights are written as their
        float32 roundings, so a float32 model, and a float64 one that holds
        float32 values, round-trip bit-exactly; a weight or bias whose
        rounding overflows raises ValueError and leaves no file.  A column is
        stored when the rounding of any entry has a nonzero bit pattern, so
        every other column is +0.0 throughout, and -0.0 is kept.  A float32
        block is written straight from its runs of stored rows; a float64
        one, built in code, through one rounded copy.
        """
        block, bias = _float32(self.block), _float32(self.bias)
        # One max over each row's bits; numpy reduces it in buffered chunks,
        # so it allocates only the k-entry result.
        stored = block.view(np.uint32).max(axis=1, initial=0) > 0
        # Where each run of stored rows starts and ends, alternately.
        edges = np.flatnonzero(np.diff(stored, prepend=False, append=False))
        header = {
            "format_version": MODEL_FORMAT_VERSION,
            "D": self.feature_dim,
            "hash_seed": self.hash_seed,
            "context_mode": self.context_mode,
            "vocab": self.vocab.entries,
            "columns": int(stored.sum()),
        }
        with atomic_write(path, binary=True) as fh:
            fh.write(json_line(header).encode("utf-8"))
            fh.write(self.feature_ids[stored].astype("<i8", copy=False).tobytes())
            fh.write(bias)
            for lo, hi in zip(edges[::2], edges[1::2]):
                fh.write(block[lo:hi])

    @classmethod
    def load(cls, path: str) -> "TypingModel":
        """Read a file written by `save`; raises ValueError on any malformed part.

        A header error names ``path:1``; a body of the wrong length, with a
        non-finite number or with column ids not strictly increasing in
        [0, D) names the file.  The body is read once, and the ids and the
        float32 bias and block are views of it, so the model's memory is the
        file's size and not categories x D.
        """
        with open(path, "rb") as fh:
            line = fh.readline()
            body = np.fromfile(fh, np.uint8)
        try:
            header = json.loads(line)
        except RecursionError:
            raise ValueError(f"{path}:1: model header is nested too deeply") from None
        except ValueError as err:
            raise ValueError(f"{path}:1: model header is not JSON: {err}") from None
        if not isinstance(header, dict):
            raise ValueError(f"{path}:1: model header is not a JSON object")
        version = header.get("format_version")
        if version != MODEL_FORMAT_VERSION:
            raise ValueError(f"{path}:1: unsupported model format version: {version!r}")
        for key in ("D", "hash_seed", "context_mode", "vocab", "columns"):
            if key not in header:
                raise ValueError(f"{path}:1: model header lacks {key!r}")
        entries = header["vocab"]
        if not (isinstance(entries, list) and all(isinstance(e, str) for e in entries)
                and len(set(entries)) == len(entries)):
            raise ValueError(f"{path}:1: model vocab must be a list of distinct strings")
        modes = [m.value for m in ContextMode]
        if header["context_mode"] not in modes:
            raise ValueError(f"{path}:1: model header 'context_mode' is not one of "
                             f"{', '.join(modes)}: {header['context_mode']!r}")
        dim = _header_int(path, header, "D", 1, MAX_FEATURE_DIM + 1)
        hash_seed = _header_int(path, header, "hash_seed", 0, 2 ** 64)
        n_cols = _header_int(path, header, "columns", 0)
        n_cats = len(entries)
        expected = 8 * n_cols + 4 * (n_cats + n_cats * n_cols)
        if len(body) != expected:
            raise ValueError(f"{path}: model body is {len(body)} bytes, expected {expected}")
        ids = np.frombuffer(body, "<i8", n_cols)
        bias = np.frombuffer(body, "<f4", n_cats, offset=8 * n_cols)
        block = np.frombuffer(body, "<f4", n_cols * n_cats,
                              offset=8 * n_cols + 4 * n_cats).reshape(n_cols, n_cats)
        if not (_all_finite(bias) and _all_finite(block)):
            raise ValueError(f"{path}: model holds a non-finite weight or bias")
        try:
            return cls(ids, block, bias, CategoryVocab(entries), hash_seed, dim,
                       header["context_mode"])
        except ValueError as err:  # the column ids, the one part not checked above
            raise ValueError(f"{path}: {err}") from None


def _header_int(path: str, header: dict, key: str, lo: int, hi: Optional[int] = None) -> int:
    """An integer header field in [lo, hi); hi None means unbounded."""
    value = header[key]
    if type(value) is not int or value < lo or (hi is not None and value >= hi):
        raise ValueError(f"{path}:1: model header {key!r} is not an integer in range: {value!r}")
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
    training and one seen at link time for the same input and weights are
    the same bits, and no category's logit depends on which other
    categories exist.  The gathered rows are widened to float64 before they
    are scaled, so a float32 block and a float64 one of the same values
    give the same logits.
    """
    terms = block[rows].astype(np.float64, copy=False)
    terms *= values[:, None]
    return _sum_rows(terms) + bias


def predict(model: TypingModel, features: FeatureVector) -> TypePosterior:
    """t = sigmoid(W v + b) for one sparse input."""
    logits = _logits(model.block, model.bias, *model.held_rows(features))
    return TypePosterior(sigmoid(logits), logits)


def predict_example(model: TypingModel, example: MentionExample) -> TypePosterior:
    """The posterior of a mention as read, built with the model's context mode.

    Every caller, the CLI included, passes the example as ingest wrote it;
    an example already built with the mode gives the same posterior, since
    `build_context` applied twice is applied once.
    """
    context = build_context(example, model.context_mode)
    return predict(model, featurize(context, model.feature_dim, model.hash_seed))


def _bce_sum(logits: np.ndarray, targets: np.ndarray) -> float:
    """Numerically stable sum of per-entry binary cross entropies."""
    return float(np.sum(np.maximum(logits, 0.0) - logits * targets
                        + np.log1p(np.exp(-np.abs(logits)))))


def loss_and_grad(model: TypingModel,
                  batch: Sequence[tuple[FeatureVector, np.ndarray]],
                  l2_penalty: float = 0.0) -> tuple[float, Gradients]:
    """Summed BCE loss (plus optional L2 on W) and its gradient in the held parameters.

    Each target vector holds one 0 or 1 per category.  The gradient is
    `_batch_gradient`'s, with respect to the bias and the columns of W the
    model holds, the parameters SGD moves.  It comes as a categories x D
    matrix whose other columns are 0 by construction, not the derivative
    there, so this is the full gradient of W only for a dense model such
    as `TypingModel.zeros`.  Meant for small models and tests.
    """
    if not batch:
        raise ValueError("empty batch")
    n_cats = len(model.vocab)
    encoded = []
    for fv, y in batch:
        y = np.asarray(y)
        if y.shape != (n_cats,) or not ((y == 0) | (y == 1)).all():
            raise ValueError(f"targets must be {n_cats} entries of 0 or 1")
        encoded.append((*model.held_rows(fv), np.flatnonzero(y)))
    loss, touched, row_grad, bias_grad = _batch_gradient(model, encoded)
    grad = _zeros(model.feature_dim, n_cats)
    if l2_penalty:
        block = model.block.astype(np.float64, copy=False)
        # Row by row, so a column the model does not hold adds nothing.
        loss += l2_penalty * float(_sum_rows(block * block).sum()) / 2.0
        grad[model.feature_ids] = l2_penalty * block
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite loss; model or inputs have diverged")
    grad[model.feature_ids[touched]] += row_grad
    return loss, Gradients(grad.T, bias_grad)


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
    for i, (rows, values, _) in enumerate(batch):
        logits[i] = _logits(model.block, model.bias, rows, values)
    label_ids = [labels for _, _, labels in batch]
    targets[np.repeat(np.arange(len(batch)), [len(ids) for ids in label_ids]),
            np.concatenate(label_ids)] = 1.0
    return logits, targets


def _batch_gradient(model: TypingModel,
                    batch: Sequence[Encoded]) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """The forward pass, summed BCE and gradient of encoded examples.

    Returns the loss, the ascending block rows the batch touches, their
    gradient (one row each) and the bias gradient.  The batch's rows are
    sorted once, together, for the distinct rows and for each row's place
    among them.  Each example's gradient, its feature values times
    (t - y), is added into the touched rows in example order.
    """
    logits, targets = _forward(model, batch)
    err = sigmoid(logits) - targets
    batch_rows = np.concatenate([rows for rows, _, _ in batch])
    ordered = np.sort(batch_rows)
    distinct = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=distinct[1:])
    touched = ordered[distinct]
    places = np.searchsorted(touched, batch_rows)
    grad = np.zeros((len(touched), len(model.bias)))
    end = 0
    for (_, values, _), example_err in zip(batch, err):
        start, end = end, end + len(values)
        grad[places[start:end]] += values[:, None] * example_err
    return _bce_sum(logits, targets), touched, grad, _sum_rows(err)


def _sgd_step(model: TypingModel, batch: Sequence[Encoded], learning_rate: float,
              l2_penalty: float) -> float:
    """One mini-batch update of the model; returns the batch's summed BCE before it.

    L2 decays the held block only: every other weight is zero.  A
    non-finite loss leaves the model unchanged.
    """
    loss, touched, grad, bias_grad = _batch_gradient(model, batch)
    if not np.isfinite(loss):
        return loss
    if l2_penalty:
        model.block *= 1.0 - learning_rate * l2_penalty
    grad *= learning_rate
    model.block[touched] -= grad
    model.bias -= learning_rate * bias_grad
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
    the data, so a fixed seed gives bit-identical weights.  The weights and
    the bias are float32, the values the model file stores; each gradient
    step is computed in float64 and rounded as it is stored, and the L2
    decay multiplies in float32.  Raises FloatingPointError when a batch
    loss goes non-finite or a weight or the bias is not finite after the
    last update; numpy's overflow and invalid warnings are silenced, since
    those two checks report them.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("no training examples")
    n_cats = len(vocab)
    feats, labels = _encode(pairs, config, n_cats)
    feature_ids = np.unique(np.concatenate([fv.indices for fv in feats]))
    model = TypingModel(feature_ids, _zeros(len(feature_ids), n_cats, np.float32),
                        np.zeros(n_cats, np.float32), vocab, config.hash_seed,
                        config.feature_dim)
    examples = [(*model.held_rows(fv), y) for fv, y in zip(feats, labels)]
    del feats
    dev = None
    if dev_pairs is not None:
        dev = [(*model.held_rows(fv), y)
               for fv, y in zip(*_encode(dev_pairs, config, n_cats))]
    rng = np.random.default_rng(config.seed)
    with np.errstate(over="ignore", invalid="ignore"):
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
            # A batch's loss is checked before its update, so only the last
            # update can overflow unseen.
            if epoch == config.epochs - 1 and not (_all_finite(model.block)
                                                   and _all_finite(model.bias)):
                raise FloatingPointError("training diverged: a weight or bias is not "
                                         "finite after the last update")
            dev_loss = None if dev is None else _full_loss(model, dev)
            if on_epoch is not None:
                on_epoch(epoch + 1, epoch_loss, dev_loss)
    return model


def _full_loss(model: TypingModel, examples: Sequence[Encoded]) -> float:
    total = 0.0
    for lo in range(0, len(examples), DEV_LOSS_CHUNK):
        total += _bce_sum(*_forward(model, examples[lo:lo + DEV_LOSS_CHUNK]))
    return total
