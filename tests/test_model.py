import dataclasses
import gc
import hashlib
import json
import math
import re
import struct
import tracemalloc
from collections import Counter
from hashlib import blake2b
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import typelink.model as model_module
from typelink.categories import CategoryVocab
from typelink.evaluation import ContextMode
from typelink.ingest import MentionExample
from typelink.model import (FeatureVector, TrainConfig, TypingModel, feature_strings,
                            featurize, hash_feature, loss_and_grad,
                            predict, predict_example, train, _sgd_step)


class TestHashFeature:
    def test_frozen_values(self):
        # pinned so serialized models stay portable across versions
        assert hash_feature("m|x", 0, 1 << 20) == 51527
        assert hash_feature("c3|^x$", 0, 1 << 20) == 1010513
        assert hash_feature("s|theory", 0, 1 << 20) == 856954

    def test_seed_changes_mapping(self):
        assert hash_feature("m|x", 1, 1 << 20) == 818171

    def test_range(self):
        for text in ("a", "b", "c", "longer feature text"):
            assert 0 <= hash_feature(text, 5, 97) < 97

    def test_copied_keyed_state_equals_a_one_shot_hash(self):
        for text in ("m|x", "", "c3|^é$", "s|theory"):
            for seed in (0, 1, 2 ** 64 - 1):
                digest = blake2b(text.encode("utf-8"), digest_size=8,
                                 key=seed.to_bytes(8, "little")).digest()
                # A feature space of 2**64 ids leaves the digest whole.
                assert hash_feature(text, seed, 2 ** 64) == int.from_bytes(digest, "little")


class TestFeaturize:
    def test_empty_context_yields_only_mention_namespaces(self):
        ex = MentionExample(mention="x", tokens=["x"], span=(0, 1))
        assert feature_strings(ex) == ["m|x", "c3|^x$"]
        fv = featurize(ex, 1 << 20, 0)
        assert sorted(fv.indices.tolist()) == sorted([51527, 1010513])
        assert fv.values.tolist() == [1.0, 1.0]

    def test_hand_enumerated_oracle(self):
        ex = MentionExample(mention="Big Bang",
                            tokens=["Big", "Bang", "theory", "was", "proposed"],
                            span=(0, 2))
        expected = [
            "s|theory", "w|1|theory", "s|was", "w|2|was", "s|proposed", "w|3|proposed",
            "m|big", "m|bang",
            "c3|^bi", "c3|big", "c3|ig ", "c3|g b", "c3| ba", "c3|ban", "c3|ang",
            "c3|ng$",
            "c4|^big", "c4|big ", "c4|ig b", "c4|g ba", "c4| ban", "c4|bang",
            "c4|ang$",
        ]
        assert Counter(feature_strings(ex)) == Counter(expected)
        oracle = Counter(hash_feature(s, 9, 4096) for s in expected)
        fv = featurize(ex, 4096, 9)
        assert Counter(dict(zip(fv.indices.tolist(), fv.values.tolist()))) == oracle

    def test_window_tagging_left_and_right(self):
        ex = MentionExample(mention="m",
                            tokens=["far", "a", "b", "c", "m", "d", "e", "f", "far2"],
                            span=(4, 5))
        strings = feature_strings(ex)
        assert "w|-1|c" in strings and "w|-3|a" in strings
        assert "w|1|d" in strings and "w|3|f" in strings
        assert not any(s.startswith("w|-4|") or s.startswith("w|4|") for s in strings)
        assert "s|far" in strings and "s|far2" in strings

    def test_duplicate_features_accumulate(self):
        ex = MentionExample(mention="m", tokens=["go", "go", "m"], span=(2, 3))
        fv = featurize(ex, 1 << 16, 0)
        by_id = dict(zip(fv.indices.tolist(), fv.values.tolist()))
        assert by_id[hash_feature("s|go", 0, 1 << 16)] == 2.0

    def test_deterministic(self):
        ex = MentionExample(mention="m", tokens=["a", "m", "b"], span=(1, 2))
        one = featurize(ex, 512, 3)
        two = featurize(ex, 512, 3)
        assert np.array_equal(one.indices, two.indices)
        assert np.array_equal(one.values, two.values)


def reference_counts(example, feature_dim, hash_seed):
    """featurize's counts recomputed with the uncached hash."""
    return Counter(hash_feature(s, hash_seed, feature_dim) for s in feature_strings(example))


def as_counts(fv):
    return Counter(dict(zip(fv.indices.tolist(), fv.values.tolist())))


MEMO_EXAMPLES = [
    MentionExample(mention="Big Bang", tokens=["Big", "Bang", "theory", "was", "proposed"],
                   span=(0, 2)),
    MentionExample(mention="m", tokens=["go", "go", "m"], span=(2, 3)),
    MentionExample(mention="Ohio", tokens=["Cities", "in", "Ohio", "grew"], span=(2, 3)),
    MentionExample(mention="Zoë", tokens=["Zoë", "sang", "ünder", "the", "bridge"],
                   span=(0, 1)),
    # Raw tokens that lowercase alike, a context token that is another
    # example's mention, and n-grams shared with the mention "Ohio".
    MentionExample(mention="Ohio River", tokens=["The", "Ohio", "River", "and", "the", "Ohio"],
                   span=(1, 3)),
]


def memo_keys(example):
    """The keys `featurize` looks up in its memos for an example, each with
    the feature strings it stands for."""
    start, end = example.span
    keys = {}
    for j, tok in enumerate(example.tokens):
        if start <= j < end:
            keys["m", tok] = ["m|" + tok.lower()]
            continue
        keys["s", tok] = ["s|" + tok.lower()]
        rel = j - start if j < start else j - end + 1
        if abs(rel) <= 3:
            keys["w", rel, tok] = [f"w|{rel}|{tok.lower()}"]
    keys["c", example.mention] = [s for s in feature_strings(example)
                                  if s.startswith(("c3|", "c4|"))]
    return keys


class TestFeatureMemo:
    @pytest.fixture(autouse=True)
    def fresh_memo(self):
        model_module._feature_ids.cache_clear()
        yield
        model_module._feature_ids.cache_clear()

    def test_interleaved_hashings_each_match_the_reference(self):
        hashings = [(4096, 9), (1 << 20, 0)]
        for _ in range(2):
            for ex in MEMO_EXAMPLES:
                for dim, seed in hashings:
                    assert as_counts(featurize(ex, dim, seed)) == reference_counts(ex, dim, seed)
        assert model_module._feature_ids.cache_info().currsize == 2

    def test_memos_of_at_most_16_hashings_are_kept(self):
        example = MEMO_EXAMPLES[0]
        for seed in range(17):
            assert as_counts(featurize(example, 4096, seed)) == \
                reference_counts(example, 4096, seed)
        gc.collect()
        assert sum(isinstance(o, model_module._FeatureIds) for o in gc.get_objects()) <= 16

    def test_each_distinct_memo_key_is_hashed_once(self, monkeypatch):
        hashed = Counter()
        hashing = model_module._feature_ids(3, 512)
        hash_one = hashing.hash

        def counting_hash(text):
            hashed[text] += 1
            return hash_one(text)

        monkeypatch.setattr(hashing, "hash", counting_hash)
        for _ in range(3):
            for ex in MEMO_EXAMPLES:
                featurize(ex, 512, 3)
        keys = {key: strings for ex in MEMO_EXAMPLES for key, strings in memo_keys(ex).items()}
        assert hashed == Counter(s for strings in keys.values() for s in strings)
        # The keys stand for every feature string, and some strings for two keys.
        assert set(hashed) == {s for ex in MEMO_EXAMPLES for s in feature_strings(ex)}
        assert hashed["s|the"] == 2 and hashed["c3|ohi"] == 2

    def test_capped_memo_stays_bounded_and_exact(self, monkeypatch):
        # At 8 the token memos evict (the n-gram memo holds nothing); at 32
        # the n-gram memo, which holds 2 mentions, evicts.
        for limit in (8, 32):
            monkeypatch.setattr(model_module, "FEATURE_MEMO_LIMIT", limit)
            model_module._feature_ids.cache_clear()  # a memo reads the limit when built
            for _ in range(3):
                for ex in MEMO_EXAMPLES:
                    assert as_counts(featurize(ex, 256, 1)) == reference_counts(ex, 256, 1)
                    memos = model_module._feature_ids(1, 256)
                    infos = [memo.cache_info() for memo in
                             (memos.context, memos.window, memos.mention, memos.ngrams)]
                    assert [info.maxsize for info in infos] == [limit] * 3 + [limit // 16]
                    assert all(info.currsize <= info.maxsize for info in infos)
            assert any(info.misses > info.currsize for info in infos)

    def test_ngram_memo_of_long_mentions_stays_at_its_bound(self, monkeypatch):
        assert model_module._FeatureIds(0, 8).ngrams.cache_info().maxsize == 1 << 12
        monkeypatch.setattr(model_module, "FEATURE_MEMO_LIMIT", 1 << 10)
        ngrams = model_module._feature_ids(1, 4096).ngrams
        bound = ngrams.cache_info().maxsize
        for i in range(3 * bound):
            mention = f"{i:08d}" + "x" * 192
            ex = MentionExample(mention=mention, tokens=[mention], span=(0, 1))
            assert as_counts(featurize(ex, 4096, 1)) == reference_counts(ex, 4096, 1)
            assert ngrams.cache_info().currsize == min(i + 1, bound)
        assert ngrams.cache_info().misses == 3 * bound


# Tokens whose lowercase differs from them, some in length ("İ" lowers to
# two code points), next to arbitrary text.
featurize_token_st = st.sampled_from(["İ", "The", "the", "ǅ", "ß", "ΣΑΣ", "Zoë", "|", "a b"]) | \
    st.text(min_size=1, max_size=6)


@settings(max_examples=150, deadline=None)
@given(tokens=st.lists(featurize_token_st, min_size=1, max_size=8),
       data=st.data(), hashings=st.lists(st.tuples(st.integers(1, 1 << 20),
                                                   st.integers(0, 2 ** 64 - 1)),
                                         min_size=2, max_size=2),
       n_spans=st.integers(1, 3),
       limit=st.sampled_from([16, model_module.FEATURE_MEMO_LIMIT]))
def test_featurize_matches_the_uncached_hash(tokens, data, hashings, n_spans, limit):
    last = len(tokens) - 1
    examples = []
    for _ in range(n_spans):
        start = data.draw(st.sampled_from([0, last]) | st.integers(0, last))
        end = data.draw(st.sampled_from([start + 1, len(tokens)])
                        | st.integers(start + 1, len(tokens)))
        examples.append(MentionExample(mention=" ".join(tokens[start:end]), tokens=tokens,
                                       span=(start, end)))
    with mock.patch.object(model_module, "FEATURE_MEMO_LIMIT", limit):
        # A memo reads the limit when built.  At 16 the n-gram memo holds one
        # mention, so a second distinct mention evicts the first.
        model_module._feature_ids.cache_clear()
        for _ in range(2):  # the second round reads ids from the memos
            for ex in examples:
                for feature_dim, hash_seed in hashings:
                    fv = featurize(ex, feature_dim, hash_seed)
                    assert fv.indices.dtype == np.int64 and fv.values.dtype == np.float64
                    assert as_counts(fv) == reference_counts(ex, feature_dim, hash_seed)
    model_module._feature_ids.cache_clear()


class TestFeatureVector:
    def test_rejects_unsorted_indices(self):
        with pytest.raises(ValueError):
            FeatureVector(np.array([3, 1]), np.array([1.0, 1.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            FeatureVector(np.array([1]), np.array([1.0, 2.0]))

    def test_rejects_nonfinite_values(self):
        with pytest.raises(ValueError):
            FeatureVector(np.array([1]), np.array([np.inf]))

    def test_rejects_negative_ids(self):
        # A negative id is a column of no model; the vector is refused rather
        # than the feature dropped as one the model does not hold.
        with pytest.raises(ValueError, match="non-negative"):
            FeatureVector(np.array([-1]), np.array([1.0]))
        with pytest.raises(ValueError, match="non-negative"):
            FeatureVector(np.array([-3, 0, 2]), np.array([1.0, 1.0, 1.0]))


class TestPredict:
    def test_zero_model_gives_half_everywhere(self):
        vocab = CategoryVocab(["a", "b", "c"])
        model = TypingModel.zeros(vocab, feature_dim=32)
        fv = FeatureVector(np.array([4, 7]), np.array([1.0, 2.0]))
        assert predict(model, fv).probs.tolist() == [0.5, 0.5, 0.5]

    def test_log3_weight_gives_three_quarters(self):
        vocab = CategoryVocab(["a", "b"])
        model = TypingModel.zeros(vocab, feature_dim=8)
        model.weights[0, 5] = math.log(3.0)
        p = predict(model, FeatureVector(np.array([5]), np.array([1.0]))).probs
        assert p[0] == pytest.approx(0.75, abs=1e-15)
        assert p[1] == 0.5

    def test_sign_flip_mirrors_probability(self):
        vocab = CategoryVocab(["a"])
        model = TypingModel.zeros(vocab, feature_dim=8)
        model.weights[0, 2] = 1.3
        fv = FeatureVector(np.array([2]), np.array([2.0]))
        p = predict(model, fv).probs[0]
        model.weights[0, 2] = -1.3
        q = predict(model, fv).probs[0]
        assert p + q == pytest.approx(1.0, abs=1e-15)

    def test_out_of_range_feature_rejected(self):
        # by every reader of features: predict, loss_and_grad and training's held_rows
        model = TypingModel(np.array([2, 5]), np.ones((2, 1)), np.zeros(1),
                            CategoryVocab(["a"]), feature_dim=8)
        fv = FeatureVector(np.array([3, 8]), np.array([1.0, 1.0]))
        for read in (model.held_rows, lambda f: predict(model, f),
                     lambda f: loss_and_grad(model, [(f, np.zeros(1))])):
            with pytest.raises(ValueError, match="^feature id out of range for this model$"):
                read(fv)

    def test_prediction_is_pure(self):
        vocab = CategoryVocab(["a", "b"])
        model = TypingModel.zeros(vocab, feature_dim=16)
        model.weights[:, 3] = [0.5, -0.5]
        before = model.weights.copy()
        fv = FeatureVector(np.array([3]), np.array([1.0]))
        first = predict(model, fv).probs
        second = predict(model, fv).probs
        assert np.array_equal(first, second)
        assert np.array_equal(model.weights, before)


def random_model_and_batch(rng, n_cats=None, dim=None, n_examples=None):
    n_cats = n_cats or int(rng.integers(2, 5))
    dim = dim or int(rng.integers(8, 25))
    n_examples = n_examples or int(rng.integers(1, 5))
    vocab = CategoryVocab([f"cat{i}" for i in range(n_cats)])
    model = TypingModel.zeros(vocab, feature_dim=dim)
    model.weights[:] = rng.normal(scale=0.6, size=model.weights.shape)
    model.bias[:] = rng.normal(scale=0.3, size=n_cats)
    batch = []
    for _ in range(n_examples):
        k = int(rng.integers(1, min(6, dim)))
        ids = np.sort(rng.choice(dim, size=k, replace=False))
        vals = rng.uniform(0.5, 2.0, size=k)
        y = (rng.random(n_cats) < 0.5).astype(float)
        batch.append((FeatureVector(ids, vals), y))
    return model, batch


def numeric_gradients(model, batch, l2, step=1e-5):
    grad_w = np.zeros_like(model.weights)
    for i in range(model.weights.shape[0]):
        for j in range(model.weights.shape[1]):
            orig = model.weights[i, j]
            model.weights[i, j] = orig + step
            up, _ = loss_and_grad(model, batch, l2)
            model.weights[i, j] = orig - step
            down, _ = loss_and_grad(model, batch, l2)
            model.weights[i, j] = orig
            grad_w[i, j] = (up - down) / (2 * step)
    grad_b = np.zeros_like(model.bias)
    for i in range(len(model.bias)):
        orig = model.bias[i]
        model.bias[i] = orig + step
        up, _ = loss_and_grad(model, batch, l2)
        model.bias[i] = orig - step
        down, _ = loss_and_grad(model, batch, l2)
        model.bias[i] = orig
        grad_b[i] = (up - down) / (2 * step)
    return grad_w, grad_b


def relative_error(a, b):
    scale = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / scale


class TestLossAndGrad:
    def test_zero_model_loss_is_log2_per_cell(self):
        vocab = CategoryVocab(["only"])
        model = TypingModel.zeros(vocab, feature_dim=4)
        fv = FeatureVector(np.array([1]), np.array([1.0]))
        for label in (0.0, 1.0):
            loss, _ = loss_and_grad(model, [(fv, np.array([label]))])
            assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_loss_sums_over_examples_and_categories(self):
        vocab = CategoryVocab(["a", "b", "c"])
        model = TypingModel.zeros(vocab, feature_dim=4)
        fv = FeatureVector(np.array([0]), np.array([1.0]))
        batch = [(fv, np.zeros(3)), (fv, np.ones(3))]
        loss, _ = loss_and_grad(model, batch)
        assert loss == pytest.approx(6 * math.log(2.0), abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for trial in range(5):
            l2 = 0.0 if trial % 2 == 0 else 0.05
            model, batch = random_model_and_batch(rng)
            _, grads = loss_and_grad(model, batch, l2)
            num_w, num_b = numeric_gradients(model, batch, l2)
            assert relative_error(grads.weights, num_w) <= 1e-4
            assert relative_error(grads.bias, num_b) <= 1e-4

    def test_l2_term_in_loss(self):
        vocab = CategoryVocab(["a"])
        model = TypingModel.zeros(vocab, feature_dim=4)
        model.weights[0, 0] = 2.0
        fv = FeatureVector(np.array([1]), np.array([1.0]))
        plain, _ = loss_and_grad(model, [(fv, np.array([1.0]))], 0.0)
        ridged, _ = loss_and_grad(model, [(fv, np.array([1.0]))], 0.1)
        assert ridged == pytest.approx(plain + 0.1 * 4.0 / 2.0, abs=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_loss_aborts(self):
        vocab = CategoryVocab(["a"])
        model = TypingModel.zeros(vocab, feature_dim=4)
        model.weights[0, 1] = np.inf
        fv = FeatureVector(np.array([1]), np.array([1.0]))
        with pytest.raises(FloatingPointError):
            loss_and_grad(model, [(fv, np.array([0.0]))])

    def test_empty_batch_rejected(self):
        vocab = CategoryVocab(["a"])
        model = TypingModel.zeros(vocab, feature_dim=4)
        with pytest.raises(ValueError):
            loss_and_grad(model, [])

    @pytest.mark.parametrize("y", [[1.0], [1.0, 0.0, 0.0], [[1.0, 0.0]], [0.5, 0.0],
                                   [2.0, 1.0], [-1, 0], [math.nan, 0.0]],
                             ids=["short", "long", "2d", "soft", "two", "minus_one", "nan"])
    def test_targets_must_be_one_0_or_1_per_category(self, y):
        model = TypingModel.zeros(CategoryVocab(["a", "b"]), feature_dim=4)
        fv = FeatureVector(np.array([1]), np.array([1.0]))
        with pytest.raises(ValueError, match="^targets must be 2 entries of 0 or 1"):
            loss_and_grad(model, [(fv, np.array(y))])

    @pytest.mark.parametrize("l2", [0.0, 0.05])
    def test_compact_model_gives_the_bits_of_its_dense_twin(self, l2):
        rng = np.random.default_rng(16)
        for _ in range(25):
            dense, batch = random_model_and_batch(rng)
            # The compact model holds the batch's features plus a few others;
            # its dense twin is zero in every other column.
            active = np.concatenate([fv.indices for fv, _ in batch])
            held = np.union1d(active, rng.choice(dense.feature_dim, size=3, replace=False))
            dense.block[np.setdiff1d(np.arange(dense.feature_dim), held)] = 0.0
            compact = TypingModel(held, dense.block[held], dense.bias.copy(), dense.vocab,
                                  feature_dim=dense.feature_dim)
            loss, grads = loss_and_grad(compact, batch, l2)
            twin_loss, twin_grads = loss_and_grad(dense, batch, l2)
            assert struct.pack("<d", loss) == struct.pack("<d", twin_loss)
            assert grads.weights.tobytes() == twin_grads.weights.tobytes()
            assert grads.bias.tobytes() == twin_grads.bias.tobytes()

    @pytest.mark.parametrize("l2", [0.0, 0.05])
    def test_loaded_model_gives_the_bits_of_its_float64_twin(self, tmp_path, l2):
        rng = np.random.default_rng(17)
        for i in range(10):
            model, batch = random_model_and_batch(rng)
            path = tmp_path / f"model{i}.json"
            model.save(str(path))
            loaded = TypingModel.load(str(path))
            twin = TypingModel(loaded.feature_ids, loaded.block.astype(np.float64),
                               loaded.bias.astype(np.float64), loaded.vocab,
                               feature_dim=loaded.feature_dim)
            assert loaded.block.dtype == loaded.bias.dtype == np.float32
            loss, grads = loss_and_grad(loaded, batch, l2)
            twin_loss, twin_grads = loss_and_grad(twin, batch, l2)
            assert struct.pack("<d", loss) == struct.pack("<d", twin_loss)
            assert grads.weights.tobytes() == twin_grads.weights.tobytes()
            assert grads.bias.tobytes() == twin_grads.bias.tobytes()

    def test_unheld_columns_get_exactly_zero_gradient(self):
        # By construction: feature 7 is active, but the model does not hold
        # its column, so SGD cannot move it and `loss_and_grad` reports 0.
        block = np.array([[1.0, -1.0], [0.5, 0.25]])
        model = TypingModel(np.array([2, 5]), block, np.array([0.0, 1.0]),
                            CategoryVocab(["a", "b"]), feature_dim=8)
        fv = FeatureVector(np.array([0, 5, 7]), np.array([3.0, 2.0, 4.0]))
        _, grads = loss_and_grad(model, [(fv, np.array([1.0, 0.0]))], 0.1)
        assert grads.weights.shape == (2, 8)
        assert not grads.weights[:, [0, 1, 3, 4, 6, 7]].any()
        err = model_module.sigmoid(np.array([1.0, 1.5])) - np.array([1.0, 0.0])
        assert grads.weights[:, 2].tolist() == (0.1 * block[0]).tolist()
        assert grads.weights[:, 5].tolist() == (0.1 * block[1] + 2.0 * err).tolist()
        assert grads.bias.tolist() == err.tolist()

    def test_training_and_the_gradient_check_share_one_gradient(self, monkeypatch):
        calls = []
        shared = model_module._batch_gradient

        def recording(model, batch):
            calls.append(len(batch))
            return shared(model, batch)

        monkeypatch.setattr(model_module, "_batch_gradient", recording)
        model, batch = random_model_and_batch(np.random.default_rng(5), n_examples=3)
        loss_and_grad(model, batch)
        _sgd_step(model, [(*model.held_rows(fv), np.flatnonzero(y)) for fv, y in batch],
                  0.1, 0.0)
        train(separable_pairs(), CategoryVocab(["cat_a", "cat_b"]),
              TrainConfig(feature_dim=256, epochs=1))
        # loss_and_grad, the direct step, then training's two batches of 64 and 16
        assert calls == [3, 3, 64, 16]

    def test_monotone_loss_under_small_step_full_batch_descent(self):
        rng = np.random.default_rng(3)
        model, batch = random_model_and_batch(rng, n_cats=3, dim=12, n_examples=6)
        last = None
        for _ in range(60):
            loss, grads = loss_and_grad(model, batch)
            if last is not None:
                assert loss <= last + 1e-9
            last = loss
            model.weights[...] -= 0.01 * grads.weights
            model.bias -= 0.01 * grads.bias


def separable_pairs():
    pairs = []
    for i in range(40):
        ex = MentionExample(mention="m", tokens=[f"alpha{i % 5}", "m"], span=(1, 2))
        pairs.append((ex, [0]))
        ex = MentionExample(mention="m", tokens=[f"beta{i % 5}", "m"], span=(1, 2))
        pairs.append((ex, [1]))
    return pairs


class TestTrain:
    def test_separable_toy_set_is_learned(self):
        vocab = CategoryVocab(["cat_a", "cat_b"])
        pairs = separable_pairs()
        config = TrainConfig(feature_dim=1 << 12, epochs=40, seed=3)
        model = train(pairs, vocab, config)
        for ex, labels in pairs:
            probs = predict_example(model, ex).probs
            assert probs[labels[0]] > 0.9
            assert probs[1 - labels[0]] < 0.1

    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    def test_empty_stream_rejected(self):
        vocab = CategoryVocab(["a"])
        with pytest.raises(ValueError):
            train([], vocab, TrainConfig(feature_dim=16))

    def test_same_seed_gives_bit_identical_model_files(self, tmp_path):
        vocab = CategoryVocab(["cat_a", "cat_b"])
        config = TrainConfig(feature_dim=256, epochs=3, seed=11)
        for name in ("one.json", "two.json"):
            train(separable_pairs(), vocab, config).save(str(tmp_path / name))
        assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()

    def test_different_seed_changes_model(self, tmp_path):
        vocab = CategoryVocab(["cat_a", "cat_b"])
        m1 = train(separable_pairs(), vocab, TrainConfig(feature_dim=256, epochs=2, seed=1))
        m2 = train(separable_pairs(), vocab, TrainConfig(feature_dim=256, epochs=2, seed=2))
        assert not np.array_equal(m1.weights, m2.weights)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_in_the_last_update_is_divergence(self):
        # One batch: its loss is finite, and only the update after it overflows.
        vocab = CategoryVocab(["cat_a", "cat_b"])
        pairs = separable_pairs()
        config = TrainConfig(feature_dim=2, epochs=1, batch_size=len(pairs),
                             learning_rate=1e308)
        with pytest.raises(FloatingPointError):
            train(pairs, vocab, config)

    def test_trained_block_and_bias_are_float32(self):
        model = train(separable_pairs(), CategoryVocab(["cat_a", "cat_b"]),
                      TrainConfig(feature_dim=256, epochs=2, seed=1))
        assert model.block.dtype == model.bias.dtype == np.float32

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_of_a_float32_weight_in_the_last_update_is_divergence(self):
        # One batch at a learning rate whose update is finite in float64 but
        # beyond float32's range, about 3.4e38.
        vocab = CategoryVocab(["cat_a", "cat_b"])
        pairs = separable_pairs()
        config = TrainConfig(feature_dim=2, epochs=1, batch_size=len(pairs),
                             learning_rate=1e40)
        with pytest.raises(FloatingPointError, match="not finite after the last update"):
            train(pairs, vocab, config)

    def test_training_holds_less_than_two_and_a_half_float32_blocks(self):
        # About 15,000 held features x 400 categories: a 24 MB float32 block.
        rng = np.random.default_rng(23)
        n_cats = 400
        pairs = []
        for _ in range(300):
            toks = [f"t{i}" for i in rng.integers(0, 100_000, size=40)]
            ex = MentionExample(mention=toks[20], tokens=toks, span=(20, 21))
            pairs.append((ex, rng.choice(n_cats, size=3, replace=False).tolist()))
        vocab = CategoryVocab([f"c{i}" for i in range(n_cats)])
        tracemalloc.start()
        try:
            model = train(pairs, vocab, TrainConfig(feature_dim=2 ** 20, epochs=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(model.feature_ids) > 10_000
        assert peak < 2.5 * model.block.size * 4

    def test_huge_feature_dim_trains_in_compact_memory(self):
        # 2 categories x 2**58 features would be 2**62 bytes of dense weights,
        # beyond any address space; the model holds only the columns seen.
        vocab = CategoryVocab(["cat_a", "cat_b"])
        pairs = separable_pairs()
        config = TrainConfig(feature_dim=2 ** 58)
        tracemalloc.start()
        try:
            model = train(pairs, vocab, config)
            posteriors = [predict_example(model, ex) for ex, _ in pairs]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 24
        seen = np.unique(np.concatenate(
            [featurize(ex, config.feature_dim, config.hash_seed).indices for ex, _ in pairs]))
        assert np.array_equal(model.feature_ids, seen)
        assert model.block.shape == (len(seen), 2)
        for (_, labels), posterior in zip(pairs, posteriors):
            assert posterior.probs[labels[0]] > 0.5 > posterior.probs[1 - labels[0]]
        with pytest.raises(ValueError, match="memory"):
            model.weights

    def test_dense_model_too_large_for_memory_rejected(self):
        with pytest.raises(ValueError, match="memory"):
            TypingModel.zeros(CategoryVocab(["cat_a", "cat_b"]), feature_dim=2 ** 58)

    def test_dev_loss_reported_per_epoch(self):
        vocab = CategoryVocab(["cat_a", "cat_b"])
        pairs = separable_pairs()
        seen = []
        config = TrainConfig(feature_dim=256, epochs=4, seed=0)
        train(pairs, vocab, config, dev_pairs=pairs[:6],
              on_epoch=lambda e, tr, dv: seen.append((e, tr, dv)))
        assert [e for e, _, _ in seen] == [1, 2, 3, 4]
        assert all(np.isfinite(tr) for _, tr, _ in seen)
        assert all(dv is not None and np.isfinite(dv) for _, _, dv in seen)
        # dev loss should improve on a learnable set
        assert seen[-1][2] < seen[0][2]

    def test_label_out_of_range_rejected(self):
        vocab = CategoryVocab(["a"])
        ex = MentionExample(mention="m", tokens=["m"], span=(0, 1))
        with pytest.raises(ValueError):
            train([(ex, [4])], vocab, TrainConfig(feature_dim=16))
        with pytest.raises(ValueError):
            train([(ex, [0])], vocab, TrainConfig(feature_dim=16), dev_pairs=[(ex, [-1])])

    def test_removing_a_category_leaves_other_rows_bitwise_identical(self):
        rng = np.random.default_rng(11)
        cats = ["c0", "c1", "c2", "c3", "c4"]
        label_sets = [[cats[j] for j in rng.choice(5, size=2, replace=False)]
                      for _ in range(30)]
        tok_pool = [f"w{i}" for i in range(20)]

        def build(entries):
            vocab = CategoryVocab(entries)
            pairs = []
            gen = np.random.default_rng(7)
            for i, labels in enumerate(label_sets):
                toks = [tok_pool[int(gen.integers(0, 20))] for _ in range(4)]
                toks.append(f"men{i % 6}")
                ex = MentionExample(mention=toks[4], tokens=toks, span=(4, 5))
                pairs.append((ex, [vocab.id_of(l) for l in labels if l in vocab]))
            return vocab, pairs

        config = TrainConfig(feature_dim=256, epochs=3, seed=5, learning_rate=0.2)
        vocab_full, pairs_full = build(cats)
        model_full = train(pairs_full, vocab_full, config)
        kept = ["c0", "c1", "c2", "c4"]
        vocab_drop, pairs_drop = build(kept)
        model_drop = train(pairs_drop, vocab_drop, config)
        for cat in kept:
            full_row = model_full.weights[vocab_full.id_of(cat)]
            drop_row = model_drop.weights[vocab_drop.id_of(cat)]
            assert np.array_equal(full_row, drop_row)
            assert (model_full.bias[vocab_full.id_of(cat)]
                    == model_drop.bias[vocab_drop.id_of(cat)])

    @pytest.mark.parametrize("l2", [0.0, 0.01])
    def test_one_category_model_matches_its_row_of_a_wider_model(self, l2):
        pairs = separable_pairs()
        config = TrainConfig(feature_dim=256, epochs=3, seed=2, l2_penalty=l2)
        wide = train(pairs, CategoryVocab(["cat_a", "cat_b"]), config)
        narrow = train([(ex, [l for l in labels if l == 0]) for ex, labels in pairs],
                       CategoryVocab(["cat_a"]), config)
        assert np.array_equal(narrow.feature_ids, wide.feature_ids)
        assert np.array_equal(narrow.block[:, 0].view(np.uint32),
                              wide.block[:, 0].view(np.uint32))
        assert narrow.bias[0] == wide.bias[0]


class TestForwardKernel:
    """Training, the dev loss and predict run the same forward kernel."""

    def test_training_and_prediction_logits_are_the_same_bits(self, tmp_path, monkeypatch):
        vocab = CategoryVocab(["cat_a", "cat_b", "cat_c"])
        pairs = [(ex, labels + [2]) for ex, labels in separable_pairs()]
        seen = []
        forward = model_module._forward

        def recording(model, batch):
            logits, targets = forward(model, batch)
            seen.append(logits)
            return logits, targets

        monkeypatch.setattr(model_module, "_forward", recording)
        model = train(pairs, vocab, TrainConfig(feature_dim=512, epochs=2, seed=4),
                      dev_pairs=pairs)
        # per epoch: two SGD batches of at most 64, then the dev loss on the model
        assert [len(logits) for logits in seen] == [64, 16, 80] * 2
        model.save(str(tmp_path / "model.json"))
        loaded = TypingModel.load(str(tmp_path / "model.json"))
        for row, (ex, _) in zip(seen[-1], pairs):
            for m in (model, loaded):
                assert np.array_equal(predict_example(m, ex).logits.view(np.uint64),
                                      row.view(np.uint64))

    def test_gradient_adds_examples_in_order(self):
        # Contributions 1, 1e16 and -1e16 to one weight: in this order the 1 is
        # absorbed (1 + 1e16 rounds to 1e16), in any other it can survive.
        model = TypingModel(np.array([0]), np.zeros((1, 1)), np.zeros(1),
                            CategoryVocab(["a"]), feature_dim=1)
        no_label = np.array([], dtype=np.int64)
        batch = [(np.array([0]), np.array([2.0]), no_label),
                 (np.array([0]), np.array([2e16]), no_label),
                 (np.array([0]), np.array([2e16]), np.array([0]))]
        _sgd_step(model, batch, 1.0, 0.0)
        assert model.block[0, 0] == 0.0
        assert model.bias[0] == -0.5

    def test_unheld_features_are_dropped(self):
        model = TypingModel(np.array([2, 5]), np.array([[1.0, -1.0], [0.5, 0.25]]),
                            np.array([0.0, 1.0]), CategoryVocab(["a", "b"]), feature_dim=8)
        posterior = predict(model, FeatureVector(np.array([0, 5, 7]), np.array([3.0, 2.0, 4.0])))
        assert posterior.logits.tolist() == [1.0, 1.5]
        assert np.array_equal(posterior.logits, model.weights @ np.array(
            [3.0, 0, 0, 0, 0, 2.0, 0, 4.0]) + model.bias)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), l2=st.sampled_from([0.0, 0.05]),
       learning_rate=st.floats(0.01, 1.0))
def test_one_sgd_step_matches_loss_and_grad(seed, l2, learning_rate):
    rng = np.random.default_rng(seed)
    dense, batch = random_model_and_batch(rng)
    # A compact model: the batch's features plus a few others, every other column zero.
    active = np.concatenate([fv.indices for fv, _ in batch])
    held = np.union1d(active, rng.choice(dense.feature_dim, size=3, replace=False))
    model = TypingModel(held, dense.weights.T[held], dense.bias.copy(), dense.vocab,
                        feature_dim=dense.feature_dim)
    bce, _ = loss_and_grad(model, batch)
    _, grads = loss_and_grad(model, batch, l2)
    weights = model.weights - learning_rate * grads.weights
    bias = model.bias - learning_rate * grads.bias
    encoded = [(*model.held_rows(fv), np.flatnonzero(y)) for fv, y in batch]
    assert _sgd_step(model, encoded, learning_rate, l2) == pytest.approx(bce, abs=1e-12)
    assert np.abs(model.weights - weights).max() <= 1e-12
    assert np.abs(model.bias - bias).max() <= 1e-12


def reference_batch_gradient(model, batch):
    """The batch gradient as it was before one sort per batch: `np.unique` of
    the rows, a `searchsorted` per example, and targets set example by example."""
    logits = np.empty((len(batch), len(model.bias)))
    targets = np.zeros((len(batch), len(model.bias)))
    for i, (rows, values, labels) in enumerate(batch):
        logits[i] = model_module._logits(model.block, model.bias, rows, values)
        targets[i, labels] = 1.0
    err = model_module.sigmoid(logits) - targets
    touched = np.unique(np.concatenate([rows for rows, _, _ in batch]))
    grad = np.zeros((len(touched), len(model.bias)))
    for (rows, values, _), example_err in zip(batch, err):
        grad[np.searchsorted(touched, rows)] += values[:, None] * example_err
    return model_module._bce_sum(logits, targets), touched, grad, model_module._sum_rows(err)


def random_encoded_batch(rng, n_cats, n_rows, n_examples, empty=()):
    """A model of `n_rows` held rows and a batch drawing its rows from few of
    them, so examples share rows; the examples at `empty` hold none."""
    model = TypingModel(np.arange(n_rows) * 3, rng.normal(size=(n_rows, n_cats)),
                        rng.normal(size=n_cats), CategoryVocab([f"c{i}" for i in range(n_cats)]),
                        feature_dim=3 * n_rows)
    batch = []
    for i in range(n_examples):
        size = 0 if i in empty else int(rng.integers(1, n_rows + 1))
        rows = np.sort(rng.choice(n_rows, size=size, replace=False))
        labels = np.flatnonzero(rng.random(n_cats) < 0.4)
        batch.append((rows, rng.uniform(-3.0, 3.0, size=size), labels))
    return model, batch


def assert_same_bits(got, want):
    (loss, touched, grad, bias_grad), (ref_loss, ref_touched, ref_grad, ref_bias) = got, want
    assert np.float64(loss).view(np.uint64) == np.float64(ref_loss).view(np.uint64)
    assert touched.dtype == ref_touched.dtype and np.array_equal(touched, ref_touched)
    assert grad.shape == ref_grad.shape
    assert np.array_equal(grad.view(np.uint64), ref_grad.view(np.uint64))
    assert np.array_equal(bias_grad.view(np.uint64), ref_bias.view(np.uint64))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_cats=st.sampled_from([1, 3]),
       n_rows=st.integers(1, 12), n_examples=st.integers(1, 9), empty=st.sets(st.integers(0, 8)))
def test_the_batch_gradient_keeps_every_bit_of_the_unique_and_searchsorted_form(
        seed, n_cats, n_rows, n_examples, empty):
    model, batch = random_encoded_batch(np.random.default_rng(seed), n_cats, n_rows,
                                        n_examples, empty)
    got = model_module._batch_gradient(model, batch)
    assert_same_bits(got, reference_batch_gradient(model, batch))
    assert np.array_equal(got[1], np.unique(np.concatenate([rows for rows, _, _ in batch])))


@pytest.mark.parametrize("n_cats", [1, 3])
def test_a_batch_holding_no_rows_touches_none(n_cats):
    model, batch = random_encoded_batch(np.random.default_rng(n_cats), n_cats, 4, 3,
                                        empty={0, 1, 2})
    got = model_module._batch_gradient(model, batch)
    assert_same_bits(got, reference_batch_gradient(model, batch))
    assert len(got[1]) == 0 and got[2].shape == (0, n_cats)


def read_model_file(path):
    """(header dict, body bytes) of a saved model file."""
    head, _, body = path.read_bytes().partition(b"\n")
    return json.loads(head), body


def write_model_file(path, header, body):
    path.write_bytes(json.dumps(header, separators=(",", ":")).encode("utf-8")
                     + b"\n" + body)


def patch_f4(body, offset, value):
    out = bytearray(body)
    struct.pack_into("<f", out, offset, value)
    return bytes(out)


def patch_ids(body, ids):
    return struct.pack("<2q", *ids) + body[16:]


def body_bytes(n_cats, k):
    """The length of a model body: k <i8 ids, then C + C*k <f4 numbers."""
    return 8 * k + 4 * (n_cats + n_cats * k)


class TestModelFile:
    def build(self):
        vocab = CategoryVocab(["one", "two"])
        model = TypingModel.zeros(vocab, feature_dim=8, hash_seed=5)
        model.weights[0, 3] = 1.25
        model.bias[1] = -0.5
        return model

    def build_with_signed_zero(self):
        """`build` plus a column holding only -0.0: two stored columns.

        Its body: ids at bytes 0-16, the bias at 16-24, the block at 24-40.

        Its stored 2 x 2 block is not symmetric, so the file's layout shows.
        """
        model = self.build()
        model.weights[1, 3] = 2.5
        model.weights[1, 6] = -0.0
        return model

    def test_round_trip(self, tmp_path):
        model = self.build()
        path = tmp_path / "model.json"
        model.save(str(path))
        loaded = TypingModel.load(str(path))
        assert np.array_equal(loaded.weights, model.weights)
        assert np.array_equal(loaded.bias, model.bias)
        assert loaded.vocab.entries == model.vocab.entries
        assert loaded.hash_seed == 5 and loaded.feature_dim == 8

    def test_loaded_model_holds_only_stored_columns(self, tmp_path):
        path = tmp_path / "model.json"
        self.build().save(str(path))
        loaded = TypingModel.load(str(path))
        assert loaded.feature_ids.tolist() == [3]
        assert loaded.block.tolist() == [[1.25, 0.0]]
        with pytest.raises(ValueError, match="read-only"):
            loaded.weights[0, 3] = 2.0

    def test_resave_is_bit_identical(self, tmp_path):
        model = self.build()
        model.save(str(tmp_path / "a.json"))
        TypingModel.load(str(tmp_path / "a.json")).save(str(tmp_path / "b.json"))
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_wire_fields(self, tmp_path):
        path = tmp_path / "model.json"
        self.build_with_signed_zero().save(str(path))
        header, body = read_model_file(path)
        assert list(header) == ["format_version", "D", "hash_seed", "context_mode", "vocab",
                                "columns"]
        assert header["format_version"] == 5 and header["D"] == 8
        assert header["context_mode"] == "sentence_only"
        # the -0.0 column is stored: its bit pattern is nonzero
        assert header["columns"] == 2
        c, k = 2, 2
        assert len(body) == body_bytes(c, k) == 40
        assert np.frombuffer(body, "<i8", k).tolist() == [3, 6]
        assert np.frombuffer(body, "<f4", c, offset=8 * k).tolist() == [0.0, -0.5]
        # k x C, row-major: the row of feature 3, then the row of feature 6
        block = np.frombuffer(body, "<f4", k * c, offset=8 * k + 4 * c).reshape(k, c)
        assert block.tolist() == [[1.25, 2.5], [0.0, -0.0]]
        assert math.copysign(1.0, block[1, 1]) == -1.0

    def test_readme_header_example_matches_save(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        example = re.search(r'^\{"format_version":(\d+),.*\}$', readme, re.MULTILINE)
        assert example, "README shows no model header example"
        path = tmp_path / "model.json"
        self.build().save(str(path))
        header, _ = read_model_file(path)
        assert re.findall(r'"(\w+)":', example.group(0)) == list(header)
        assert int(example.group(1)) == header["format_version"]

    def test_odd_category_count_loads_aligned_views(self, tmp_path):
        model = TypingModel([2, 5], [[1.0, -2.0, 0.5], [0.25, 0.0, -0.0]], [0.5, -1.0, 2.0],
                            CategoryVocab(["one", "two", "three"]), feature_dim=8)
        path = tmp_path / "model.json"
        model.save(str(path))
        loaded = TypingModel.load(str(path))
        for array, dtype in ((loaded.feature_ids, np.int64), (loaded.bias, np.float32),
                             (loaded.block, np.float32)):
            assert array.dtype == dtype and array.flags.aligned
            assert array.base is not None  # a view of the body, not a copy
        assert loaded.feature_ids.tolist() == [2, 5]
        assert loaded.bias.tolist() == [0.5, -1.0, 2.0]
        assert np.array_equal(loaded.block.view(np.uint32),
                              model.block.astype(np.float32).view(np.uint32))

    def test_weights_of_a_loaded_model_are_float64(self, tmp_path):
        dense = TypingModel.zeros(CategoryVocab(["one", "two"]), feature_dim=3)
        dense.weights[:] = [[1.5, -0.25, 3.0], [0.5, 2.0, -1.0]]
        path = tmp_path / "model.json"
        dense.save(str(path))
        loaded = TypingModel.load(str(path))
        assert len(loaded.feature_ids) == loaded.feature_dim  # every column stored
        assert loaded.block.dtype == np.float32
        assert loaded.weights.dtype == np.float64
        assert np.array_equal(loaded.weights, dense.weights)

    def test_save_and_load_each_copy_the_body_once(self, tmp_path):
        # 64 categories x 4,096 stored features, every weight nonzero
        n_cats, k = 64, 4096
        weights = np.random.default_rng(3).uniform(0.5, 1.0, (k, n_cats)).astype(np.float32)
        model = TypingModel(np.arange(k) * 2, weights, np.zeros(n_cats),
                            CategoryVocab([f"c{i}" for i in range(n_cats)]), feature_dim=2 * k)
        body = body_bytes(n_cats, k)
        path = tmp_path / "model.json"
        tracemalloc.start()
        try:
            model.save(str(path))
            save_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            loaded = TypingModel.load(str(path))
            load_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.block, model.block)
        assert save_peak <= 1.25 * body
        assert load_peak <= 1.25 * body

    @staticmethod
    def all_stored_save_peak(tmp_path, n_cats, k, seed):
        """tracemalloc's peak while saving a k x n_cats float32 block with every
        weight nonzero; the saved block must load back equal."""
        weights = np.random.default_rng(seed).uniform(0.5, 1.0, (k, n_cats)).astype(np.float32)
        model = TypingModel(np.arange(k), weights, np.zeros(n_cats),
                            CategoryVocab([f"c{i}" for i in range(n_cats)]), feature_dim=k)
        path = tmp_path / "model.json"
        tracemalloc.start()
        try:
            model.save(str(path))
            save_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(TypingModel.load(str(path)).block, weights)
        return save_peak

    def test_save_of_an_all_stored_block_copies_no_row(self, tmp_path):
        n_cats, k = 64, 9192
        peak = self.all_stored_save_peak(tmp_path, n_cats, k, seed=4)
        assert peak < 0.25 * body_bytes(n_cats, k)

    def test_save_finds_the_stored_rows_without_a_rows_by_categories_mask(self, tmp_path):
        # a boolean mask of every weight would be 2 MB
        peak = self.all_stored_save_peak(tmp_path, n_cats=2000, k=1000, seed=5)
        assert peak < 500_000

    def test_zero_rows_at_start_middle_and_end_hash_as_before(self, tmp_path):
        block = np.arange(30, dtype=float).reshape(10, 3) * 0.5 - 3.0
        block[[0, 4, 9]] = 0.0
        block[6] = [-0.0, 0.0, 0.0]  # stored: its bit pattern is nonzero
        ids = [1, 2, 5, 7, 8, 11, 13, 20, 21, 30]
        model = TypingModel(ids, block, [0.25, -1.0, 0.0], CategoryVocab(["a", "b", "c"]),
                            feature_dim=32)
        path = tmp_path / "model.json"
        model.save(str(path))
        # the header, the stored ids, the bias and the stored rows, each
        # written in one piece
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "7d6de8a3f417fbed9292819de782650ee16b0452dfd69f756d74139a8061555a"
        loaded = TypingModel.load(str(path))
        stored = [1, 2, 3, 5, 6, 7, 8]
        assert loaded.feature_ids.tolist() == [ids[i] for i in stored]
        assert np.array_equal(loaded.block, block[stored])
        assert math.copysign(1.0, loaded.block[4, 0]) == -1.0

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        self.build().save(str(path))
        header, body = read_model_file(path)
        header["format_version"] = 99
        write_model_file(path, header, body)
        with pytest.raises(ValueError, match="unsupported model format version: 99"):
            TypingModel.load(str(path))

    def test_version_1_document_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        doc = {"format_version": 1, "D": 2, "hash_seed": 0, "vocab": ["one"],
               "bias": [0.0], "weights": [[0.0, 1.0]]}
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unsupported model format version: 1"):
            TypingModel.load(str(path))

    def test_context_mode_defaults_to_identity_and_is_validated(self):
        model = self.build()
        assert model.context_mode == "sentence_only"
        window = ContextMode.SENTENCE_PLUS_WINDOW50
        assert dataclasses.replace(model, context_mode=window).context_mode == window.value
        with pytest.raises(ValueError):
            dataclasses.replace(model, context_mode="whole_document")

    @pytest.mark.parametrize("corrupt", [
        lambda h, b: (h, patch_f4(b, 28, math.nan)),
        lambda h, b: (h, patch_f4(b, 36, -math.inf)),
        lambda h, b: (h, patch_f4(b, 16, math.nan)),
        lambda h, b: (h, patch_f4(b, 20, math.inf)),
        lambda h, b: (h, b[:-1]),
        lambda h, b: (h, b + b"\0"),
        lambda h, b: (h, patch_ids(b, (6, 3))),
        lambda h, b: (h, patch_ids(b, (3, 3))),
        lambda h, b: (h, patch_ids(b, (-1, 3))),
        lambda h, b: (h, patch_ids(b, (3, 8))),
        lambda h, b: ({**h, "columns": -1}, b),
        lambda h, b: ({**h, "columns": 1.5}, b),
        lambda h, b: ({**h, "D": "8"}, b),
        lambda h, b: ({**h, "vocab": ["one", 2]}, b),
        lambda h, b: (["not", "an", "object"], b),
        lambda h, b: ({**h, "context_mode": "whole_document"}, b),
        lambda h, b: ({**h, "context_mode": None}, b),
    ], ids=["nan_weight", "inf_weight", "nan_bias", "inf_bias", "truncated",
            "trailing_byte", "ids_decreasing", "ids_repeated", "id_negative",
            "id_equals_D", "negative_columns", "float_columns", "string_D",
            "non_string_category", "header_not_object", "unknown_context_mode",
            "null_context_mode"])
    def test_corrupt_file_rejected(self, tmp_path, corrupt):
        path = tmp_path / "model.json"
        self.build_with_signed_zero().save(str(path))
        write_model_file(path, *corrupt(*read_model_file(path)))
        with pytest.raises(ValueError):
            TypingModel.load(str(path))

    @pytest.mark.parametrize("key", ["format_version", "D", "hash_seed", "vocab", "columns",
                                     "context_mode"])
    def test_header_missing_key_rejected(self, tmp_path, key):
        path = tmp_path / "model.json"
        self.build().save(str(path))
        header, body = read_model_file(path)
        del header[key]
        write_model_file(path, header, body)
        with pytest.raises(ValueError):
            TypingModel.load(str(path))

    def test_header_feature_dim_is_at_most_2_to_the_63(self, tmp_path):
        path = tmp_path / "model.json"
        self.build().save(str(path))
        header, body = read_model_file(path)
        write_model_file(path, {**header, "D": 2 ** 63}, body)
        assert TypingModel.load(str(path)).feature_dim == 2 ** 63
        write_model_file(path, {**header, "D": 2 ** 64}, body)
        with pytest.raises(ValueError, match=f"^{path}:1: model header 'D' is not an integer"):
            TypingModel.load(str(path))

    def test_header_nested_too_deeply_is_refused(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b"[" * 200_000 + b"\n")
        with pytest.raises(ValueError, match=f"^{path}:1: model header is nested too deeply"):
            TypingModel.load(str(path))

    @pytest.mark.parametrize("corrupt, message", [
        (lambda h, b: ({**h, "format_version": 2}, b),
         ":1: unsupported model format version: 2"),
        (lambda h, b: ({k: v for k, v in h.items() if k != "columns"}, b),
         ":1: model header lacks 'columns'"),
        (lambda h, b: ({**h, "vocab": ["one", 2]}, b),
         ":1: model vocab must be a list of distinct strings"),
        (lambda h, b: ({**h, "vocab": ["one", "one"]}, b),
         ":1: model vocab must be a list of distinct strings"),
        (lambda h, b: ({**h, "context_mode": "whole_document"}, b),
         ":1: model header 'context_mode' is not one of sentence_only, "
         "sentence_plus_window50, sentence_plus_first_doc_sentence: 'whole_document'"),
        (lambda h, b: ({**h, "context_mode": ["sentence_only"]}, b),
         ":1: model header 'context_mode' is not one of"),
        (lambda h, b: (["not", "an", "object"], b), ":1: model header is not a JSON object"),
        (lambda h, b: (h, b[:-1]), ": model body is 39 bytes, expected 40"),
        (lambda h, b: (h, patch_f4(b, 28, math.nan)),
         ": model holds a non-finite weight or bias"),
        (lambda h, b: (h, patch_ids(b, (6, 3))),
         ": feature ids must be strictly increasing in [0, D)"),
        (lambda h, b: (h, patch_ids(b, (3, 3))),
         ": feature ids must be strictly increasing in [0, D)"),
        (lambda h, b: (h, patch_ids(b, (-1, 3))),
         ": feature ids must be strictly increasing in [0, D)"),
        (lambda h, b: (h, patch_ids(b, (3, 8))),
         ": feature ids must be strictly increasing in [0, D)"),
    ], ids=["version", "missing_key", "vocab_type", "vocab_repeat", "unknown_context_mode",
            "list_context_mode", "header_not_object", "body_length", "nan_weight",
            "ids_decreasing", "ids_repeated", "id_negative", "id_equals_D"])
    def test_errors_name_the_file(self, tmp_path, corrupt, message):
        path = tmp_path / "model.json"
        self.build_with_signed_zero().save(str(path))
        write_model_file(path, *corrupt(*read_model_file(path)))
        with pytest.raises(ValueError) as err:
            TypingModel.load(str(path))
        assert str(err.value).startswith(f"{path}{message}")

    def test_header_that_is_not_json_names_the_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b"{\"format_version\":\n")
        with pytest.raises(ValueError, match=f"^{path}:1: model header is not JSON: "):
            TypingModel.load(str(path))

    def test_header_larger_than_memory_loads_compact(self, tmp_path):
        # 2**14 categories x 2**43 features would be 2**60 bytes of dense
        # weights; the file itself is 64 KiB of zero biases and no columns.
        path = tmp_path / "model.json"
        header = {"format_version": 5, "D": 2 ** 43, "hash_seed": 0,
                  "context_mode": "sentence_only",
                  "vocab": [f"c{i}" for i in range(2 ** 14)], "columns": 0}
        write_model_file(path, header, bytes(body_bytes(2 ** 14, 0)))
        tracemalloc.start()
        try:
            model = TypingModel.load(str(path))
            posterior = predict(model, FeatureVector(np.array([5, 2 ** 42]),
                                                     np.array([1.0, 2.0])))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 25
        assert model.feature_dim == 2 ** 43 and model.block.shape == (0, 2 ** 14)
        assert np.array_equal(posterior.probs, np.full(2 ** 14, 0.5))


_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.0, -1e300]
_weight_st = st.one_of(st.sampled_from(_SPECIAL_FLOATS),
                       st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_model_file_round_trips_bit_exactly(data, tmp_path_factory):
    entries = data.draw(st.lists(st.text(min_size=1, max_size=6), unique=True, max_size=4))
    dim = data.draw(st.integers(1, 40))
    hash_seed = data.draw(st.integers(0, 2 ** 64 - 1))
    context_mode = data.draw(st.sampled_from([m.value for m in ContextMode]))
    model = dataclasses.replace(
        TypingModel.zeros(CategoryVocab(entries), feature_dim=dim, hash_seed=hash_seed),
        context_mode=context_mode)
    for col in data.draw(st.sets(st.integers(0, dim - 1), max_size=dim)):
        for row in range(len(entries)):
            model.weights[row, col] = data.draw(_weight_st)
    for row in range(len(entries)):
        model.bias[row] = data.draw(_weight_st)

    path = tmp_path_factory.mktemp("model") / "model.json"
    with np.errstate(over="ignore"):
        weights, bias = model.weights.astype(np.float32), model.bias.astype(np.float32)
    if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
        with pytest.raises(ValueError, match="not finite as float32"):
            model.save(str(path))
        assert not path.exists()
        return
    model.save(str(path))
    header, _ = read_model_file(path)
    assert header["columns"] == int((weights.view(np.uint32) != 0).any(axis=0).sum())
    loaded = TypingModel.load(str(path))
    assert loaded.block.dtype == loaded.bias.dtype == np.float32
    assert np.array_equal(loaded.weights.view(np.uint64),
                          weights.astype(np.float64).view(np.uint64))
    assert np.array_equal(loaded.bias.view(np.uint32), bias.view(np.uint32))
    assert loaded.vocab.entries == entries
    assert (loaded.feature_dim, loaded.hash_seed, loaded.context_mode) == (
        dim, hash_seed, context_mode)
    again = path.with_name("again.json")
    loaded.save(str(again))
    assert again.read_bytes() == path.read_bytes()


class TestTrainConfig:
    @pytest.mark.parametrize("kwargs", [
        {"learning_rate": 0.0}, {"learning_rate": -1.0}, {"epochs": 0},
        {"batch_size": 0}, {"l2_penalty": -0.1}, {"feature_dim": 0},
        {"hash_seed": -1}, {"hash_seed": 2 ** 64},
        {"learning_rate": math.nan}, {"learning_rate": math.inf},
        {"l2_penalty": math.nan}, {"l2_penalty": math.inf}, {"seed": -1},
        {"feature_dim": 2 ** 63 + 1},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    def test_defaults(self):
        config = TrainConfig()
        assert config.learning_rate == 0.1
        assert config.epochs == 5
        assert config.batch_size == 64
        assert config.feature_dim == 1 << 20


@given(st.integers(0, 2 ** 64 - 1), st.integers(1, 10 ** 6))
def test_hash_always_in_range(seed, dim):
    assert 0 <= hash_feature("anything", seed, dim) < dim
