import dataclasses
import json
import math
import struct
import tracemalloc
from collections import Counter

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
        vocab = CategoryVocab(["a"])
        model = TypingModel.zeros(vocab, feature_dim=8)
        with pytest.raises(ValueError):
            predict(model, FeatureVector(np.array([8]), np.array([1.0])))

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_in_the_last_update_is_divergence(self):
        # One batch: its loss is finite, and only the update after it overflows.
        vocab = CategoryVocab(["cat_a", "cat_b"])
        pairs = separable_pairs()
        config = TrainConfig(feature_dim=2, epochs=1, batch_size=len(pairs),
                             learning_rate=1e308)
        with pytest.raises(FloatingPointError):
            train(pairs, vocab, config)

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

    def test_one_category_model_matches_its_row_of_a_wider_model(self):
        pairs = separable_pairs()
        config = TrainConfig(feature_dim=256, epochs=3, seed=2)
        wide = train(pairs, CategoryVocab(["cat_a", "cat_b"]), config)
        narrow = train([(ex, [l for l in labels if l == 0]) for ex, labels in pairs],
                       CategoryVocab(["cat_a"]), config)
        assert np.array_equal(narrow.feature_ids, wide.feature_ids)
        assert np.array_equal(narrow.block[:, 0].view(np.uint64),
                              wide.block[:, 0].view(np.uint64))
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


def read_model_file(path):
    """(header dict, body bytes) of a saved model file."""
    head, _, body = path.read_bytes().partition(b"\n")
    return json.loads(head), body


def write_model_file(path, header, body):
    path.write_bytes(json.dumps(header, separators=(",", ":")).encode("utf-8")
                     + b"\n" + body)


def patch_f8(body, offset, value):
    out = bytearray(body)
    struct.pack_into("<d", out, offset, value)
    return bytes(out)


def patch_ids(body, ids):
    return body[:16] + struct.pack("<2q", *ids) + body[32:]


class TestModelFile:
    def build(self):
        vocab = CategoryVocab(["one", "two"])
        model = TypingModel.zeros(vocab, feature_dim=8, hash_seed=5)
        model.weights[0, 3] = 1.25
        model.bias[1] = -0.5
        return model

    def build_with_signed_zero(self):
        """`build` plus a column holding only -0.0: two stored columns, ids at bytes 16-32."""
        model = self.build()
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
        assert header["format_version"] == 3 and header["D"] == 8
        assert header["context_mode"] == "sentence_only"
        # the -0.0 column is stored: its bit pattern is nonzero
        assert header["columns"] == 2
        c, k = 2, 2
        assert len(body) == 8 * (c + k + c * k)
        assert np.frombuffer(body, "<f8", c).tolist() == [0.0, -0.5]
        assert np.frombuffer(body, "<i8", k, offset=8 * c).tolist() == [3, 6]
        block = np.frombuffer(body, "<f8", c * k, offset=8 * (c + k)).reshape(c, k)
        assert block.tolist() == [[1.25, 0.0], [0.0, -0.0]]
        assert math.copysign(1.0, block[1, 1]) == -1.0

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
        lambda h, b: (h, patch_f8(b, 32, math.nan)),
        lambda h, b: (h, patch_f8(b, 56, -math.inf)),
        lambda h, b: (h, patch_f8(b, 0, math.nan)),
        lambda h, b: (h, patch_f8(b, 8, math.inf)),
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

    def test_header_larger_than_memory_loads_compact(self, tmp_path):
        # 2**14 categories x 2**43 features would be 2**60 bytes of dense
        # weights; the file itself is 128 KiB of zero biases and no columns.
        path = tmp_path / "model.json"
        header = {"format_version": 3, "D": 2 ** 43, "hash_seed": 0,
                  "context_mode": "sentence_only",
                  "vocab": [f"c{i}" for i in range(2 ** 14)], "columns": 0}
        write_model_file(path, header, bytes(8 * 2 ** 14))
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
    model.save(str(path))
    header, _ = read_model_file(path)
    assert header["columns"] == int((model.weights.view(np.uint64) != 0).any(axis=0).sum())
    loaded = TypingModel.load(str(path))
    assert np.array_equal(loaded.weights.view(np.uint64), model.weights.view(np.uint64))
    assert np.array_equal(loaded.bias.view(np.uint64), model.bias.view(np.uint64))
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
        {"l2_penalty": math.nan}, {"l2_penalty": math.inf},
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
