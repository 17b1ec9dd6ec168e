import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from typelink.categories import CategoryVocab
from typelink.ingest import MentionExample
from typelink.model import (FeatureVector, TrainConfig, TypingModel, feature_strings,
                            featurize, hash_feature, labels_to_vector, loss_and_grad,
                            predict, predict_example, train)


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
            model.weights -= 0.01 * grads.weights
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


class TestModelFile:
    def build(self):
        vocab = CategoryVocab(["one", "two"])
        model = TypingModel.zeros(vocab, feature_dim=8, hash_seed=5)
        model.weights[0, 3] = 1.25
        model.bias[1] = -0.5
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

    def test_resave_is_bit_identical(self, tmp_path):
        model = self.build()
        model.save(str(tmp_path / "a.json"))
        TypingModel.load(str(tmp_path / "a.json")).save(str(tmp_path / "b.json"))
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_wire_fields(self, tmp_path):
        path = tmp_path / "model.json"
        self.build().save(str(path))
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert list(doc) == ["format_version", "D", "hash_seed", "vocab", "bias",
                             "weights"]
        assert doc["format_version"] == 1 and doc["D"] == 8

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        self.build().save(str(path))
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["format_version"] = 99
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValueError):
            TypingModel.load(str(path))


class TestTrainConfig:
    @pytest.mark.parametrize("kwargs", [
        {"learning_rate": 0.0}, {"learning_rate": -1.0}, {"epochs": 0},
        {"batch_size": 0}, {"l2_penalty": -0.1}, {"feature_dim": 0},
        {"hash_seed": -1}, {"hash_seed": 2 ** 64},
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


def test_labels_to_vector_bounds():
    assert labels_to_vector([0, 2], 3).tolist() == [1.0, 0.0, 1.0]
    with pytest.raises(ValueError):
        labels_to_vector([3], 3)


@given(st.integers(0, 2 ** 64 - 1), st.integers(1, 10 ** 6))
def test_hash_always_in_range(seed, dim):
    assert 0 <= hash_feature("anything", seed, dim) < dim
