import math
import operator
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import typelink.evaluation as evaluation_module
from typelink.evaluation import (RANK_BUCKETS, BucketMetrics, ContextMode, EvalReport,
                                 build_context, f1_score, linking_accuracy, typing_metrics)
from typelink.ingest import MentionExample


class TestLinkingAccuracy:
    def test_all_correct(self):
        assert linking_accuracy([("A", "A"), ("B", "B")]) == 1.0

    def test_all_wrong(self):
        assert linking_accuracy([("A", "B"), (None, "B")]) == 0.0

    def test_fraction(self):
        pairs = [("E", "E")] * 43 + [("E", "X")] * 7
        assert linking_accuracy(pairs) == 0.86

    def test_none_never_matches(self):
        assert linking_accuracy([(None, "A"), ("A", "A")]) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            linking_accuracy([])


class TestF1:
    def test_zero_rule(self):
        assert f1_score(0.0, 0.0) == 0.0

    def test_harmonic_mean(self):
        assert f1_score(0.5, 1.0) == pytest.approx(2 / 3, abs=1e-15)
        assert f1_score(1.0, 1.0) == 1.0


def rows_by_label(rows):
    return {row.label: row for row in rows}


class TestTypingMetrics:
    def test_perfect_predictions(self):
        vocab = ["a", "b", "c"]
        posteriors = [np.array([0.9, 0.1, 0.1]), np.array([0.1, 0.9, 0.9])]
        golds = [[0], [1, 2]]
        rows, _ = typing_metrics(posteriors, golds, vocab)
        total = rows_by_label(rows)["total"]
        assert (total.precision, total.recall, total.f1) == (1.0, 1.0, 1.0)
        assert total.n_categories == 3

    def test_hand_confusion_counts(self):
        # cat "a": predicted 3 times, gold twice among them -> P=2/3, R=1
        vocab = ["a"]
        posteriors = [np.array([0.8]), np.array([0.8]), np.array([0.8])]
        golds = [[0], [0], []]
        rows, per_cat = typing_metrics(posteriors, golds, vocab,
                                       with_per_category=True)
        total = rows_by_label(rows)["total"]
        assert total.precision == pytest.approx(2 / 3, abs=1e-15)
        assert total.recall == 1.0
        assert total.f1 == pytest.approx(f1_score(2 / 3, 1.0), abs=1e-15)
        assert per_cat["a"] == (2 / 3, 1.0, f1_score(2 / 3, 1.0), 2)

    def test_threshold_is_inclusive(self):
        rows, _ = typing_metrics([np.array([0.5])], [[0]], ["a"])
        assert rows_by_label(rows)["total"].recall == 1.0

    def test_nothing_predicted_gives_zero_precision_and_recall(self):
        rows, _ = typing_metrics([np.array([0.99])], [[0]], ["a"], threshold=1.0)
        total = rows_by_label(rows)["total"]
        assert (total.precision, total.recall, total.f1) == (0.0, 0.0, 0.0)
        assert total.n_categories == 1

    def test_untouched_categories_excluded(self):
        vocab = ["seen", "ghost"]
        rows, per_cat = typing_metrics([np.array([0.9, 0.1])], [[0]], vocab,
                                       with_per_category=True)
        assert rows_by_label(rows)["total"].n_categories == 1
        assert "ghost" not in per_cat

    def test_bucket_assignment_by_rank(self):
        n = 10002
        vocab = [f"c{i:05d}" for i in range(n)]
        probs = np.zeros(n)
        tracked = [0, 99, 100, 600, 10001]
        probs[tracked] = 0.9
        rows, _ = typing_metrics([probs], [tracked], vocab)
        by_label = rows_by_label(rows)
        assert [row.label for row in rows] == ["1-100", "101-500", "501-10000",
                                               "10001+", "total"]
        assert by_label["1-100"].n_categories == 2
        assert by_label["101-500"].n_categories == 1
        assert by_label["501-10000"].n_categories == 1
        assert by_label["10001+"].n_categories == 1
        assert by_label["total"].n_categories == 5

    def test_empty_bucket_reports_zeros(self):
        rows, _ = typing_metrics([np.array([0.9])], [[0]], ["a"])
        tail = rows_by_label(rows)["10001+"]
        assert (tail.precision, tail.recall, tail.f1, tail.n_categories) == (0, 0, 0, 0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            typing_metrics([np.array([0.5])], [[0], [0]], ["a"])

    def test_posterior_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            typing_metrics([np.array([0.5, 0.5])], [[0]], ["a"])

    @pytest.mark.parametrize("gold_id", [-1, 2])
    def test_gold_id_outside_vocabulary_rejected(self, gold_id):
        # -1 must not wrap around to the last category and score it.
        with pytest.raises(ValueError, match=rf"gold category id {gold_id} outside"):
            typing_metrics([np.array([0.1, 0.9])], [[gold_id]], ["a", "b"])

    @pytest.mark.parametrize("threshold", [math.nan, 2.0, -0.1, math.inf])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        with pytest.raises(ValueError):
            typing_metrics([np.array([0.5])], [[0]], ["a"], threshold=threshold)

    def test_example_order_is_irrelevant(self):
        rng = np.random.default_rng(8)
        vocab = [f"c{i}" for i in range(6)]
        posteriors = [rng.random(6) for _ in range(12)]
        golds = [sorted(rng.choice(6, size=2, replace=False).tolist())
                 for _ in range(12)]
        forward, _ = typing_metrics(posteriors, golds, vocab)
        backward, _ = typing_metrics(posteriors[::-1], golds[::-1], vocab)
        assert forward == backward


def reference_typing_metrics(posteriors, golds, vocab, threshold):
    """typing_metrics by brute force: the examples predicting and the examples
    holding each category as sets, one category at a time."""
    predicted = {i: {k for k, probs in enumerate(posteriors) if probs[i] >= threshold}
                 for i in range(len(vocab))}
    gold = {i: {k for k, ids in enumerate(golds) if i in ids} for i in range(len(vocab))}
    stats = {}
    for i in range(len(vocab)):
        if predicted[i] or gold[i]:
            hits = len(predicted[i] & gold[i])
            p = hits / len(predicted[i]) if predicted[i] else 0.0
            r = hits / len(gold[i]) if gold[i] else 0.0
            stats[i] = (p, r, f1_score(p, r), len(gold[i]))
    rows = []
    for label, lo, hi in [*((f"{lo}-{hi}" if hi else f"{lo}+", lo, hi)
                            for lo, hi in RANK_BUCKETS), ("total", 1, None)]:
        ids = [i for i in sorted(stats) if lo <= i + 1 and (hi is None or i + 1 <= hi)]
        # added left to right, as on every Python version
        means = [reduce(operator.add, (stats[i][j] for i in ids), 0.0) / len(ids)
                 if ids else 0.0 for j in range(3)]
        rows.append(BucketMetrics(label, *means, len(ids)))
    return rows, {vocab[i]: stats[i] for i in stats}


@st.composite
def typing_inputs(draw):
    """Sparse posteriors over vocabularies small or crossing the 100 and 500
    bucket boundaries, gold lists with repeats or empty, and probabilities
    exactly at the threshold."""
    n_cats = draw(st.one_of(st.integers(1, 8), st.integers(95, 110), st.integers(495, 520)))
    threshold = draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)))
    near_edges = [i for i in (0, 98, 99, 100, 101, 498, 499, 500, 501) if i < n_cats]
    category = st.one_of(st.integers(0, n_cats - 1), st.sampled_from(near_edges))
    probability = st.one_of(st.just(threshold), st.sampled_from([0.0, 1.0]),
                            st.floats(0.0, 1.0))
    posteriors, golds = [], []
    for _ in range(draw(st.integers(0, 6))):
        probs = np.zeros(n_cats)
        for i, p in draw(st.dictionaries(category, probability, max_size=6)).items():
            probs[i] = p
        posteriors.append(probs)
        golds.append(draw(st.lists(category, max_size=5)))
    return posteriors, golds, [f"c{i:03d}" for i in range(n_cats)], threshold


@settings(max_examples=200, deadline=None)
@given(typing_inputs())
def test_typing_metrics_equal_the_brute_force_reference(inputs):
    posteriors, golds, vocab, threshold = inputs
    rows, per_cat = typing_metrics(posteriors, golds, vocab, threshold=threshold,
                                   with_per_category=True)
    assert (rows, per_cat) == reference_typing_metrics(posteriors, golds, vocab, threshold)
    # Plain Python numbers: json refuses numpy's.
    for values in [*((b.precision, b.recall, b.f1, b.n_categories) for b in rows),
                   *per_cat.values()]:
        assert [type(v) for v in values] == [float, float, float, int]


def test_typing_metrics_memory_is_of_the_categories_not_the_examples():
    # 1,000 posteriors over 2,000 categories hold 16 MB of probabilities;
    # counting them may take a quarter of that, too little for any n x C array.
    rng = np.random.default_rng(3)
    n, n_cats = 1000, 2000
    posteriors = [rng.random(n_cats) for _ in range(n)]
    golds = [rng.choice(n_cats, size=3, replace=False).tolist() for _ in range(n)]
    vocab = [f"c{i}" for i in range(n_cats)]
    tracemalloc.start()
    try:
        typing_metrics(posteriors, golds, vocab, with_per_category=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000, peak


def test_typing_metrics_add_left_to_right_whatever_sum_does(monkeypatch):
    # The builtin sum compensates rounding since Python 3.12; with a
    # compensated sum in its place the averages must keep their bits.
    rng = np.random.default_rng(7)
    n, n_cats = 200, 120
    posteriors = [rng.random(n_cats) for _ in range(n)]
    golds = [rng.choice(n_cats, size=4, replace=False).tolist() for _ in range(n)]
    vocab = [f"c{i}" for i in range(n_cats)]
    expected = typing_metrics(posteriors, golds, vocab, with_per_category=True)
    monkeypatch.setattr(evaluation_module, "sum", math.fsum, raising=False)
    assert typing_metrics(posteriors, golds, vocab, with_per_category=True) == expected


def test_eval_report_to_dict_shape():
    rows, per_cat = typing_metrics([np.array([0.9])], [[0]], ["a"],
                                   with_per_category=True)
    report = EvalReport(linking_accuracy=0.5, gold_recall=None,
                        typing_buckets=rows, per_category=per_cat)
    doc = report.to_dict()
    assert list(doc) == ["linking_accuracy", "prior_accuracy", "gold_recall",
                         "typing_buckets", "per_category"]
    assert doc["linking_accuracy"] == 0.5
    assert doc["prior_accuracy"] is None
    assert doc["gold_recall"] is None
    assert doc["typing_buckets"][0] == ["1-100", 1.0, 1.0, 1.0, 1]
    assert doc["per_category"] == {"a": [1.0, 1.0, 1.0, 1]}
    with_prior = EvalReport(linking_accuracy=0.5, prior_accuracy=0.25, gold_recall=0.75,
                            typing_buckets=None).to_dict()
    assert list(with_prior.values()) == [0.5, 0.25, 0.75, None, None]


def example_with_context():
    return MentionExample(
        tokens=["Discus", "winner", "was", "Lars", "Riedel", "."],
        span=(3, 5),
        entity="Lars_Riedel",
        categories=["athletes"],
        doc_first_sentence=["ATHLETICS", "-", "BERLIN", "GRAND", "PRIX",
                            "RESULTS", "."],
        left_extra=[f"l{i}" for i in range(60)],
        right_extra=[f"r{i}" for i in range(60)],
    )


class TestBuildContext:
    def test_sentence_only_is_identity_copy(self):
        ex = example_with_context()
        out = build_context(ex, ContextMode.SENTENCE_ONLY)
        assert out == ex
        out.tokens.append("mutant")
        assert ex.tokens[-1] == "."

    def test_window_mode_prepends_and_appends_trimmed_extras(self):
        ex = example_with_context()
        out = build_context(ex, ContextMode.SENTENCE_PLUS_WINDOW50)
        assert out.tokens[:50] == [f"l{i}" for i in range(10, 60)]
        assert out.tokens[-50:] == [f"r{i}" for i in range(50)]
        assert out.span == (53, 55)
        assert out.tokens[53:55] == ["Lars", "Riedel"]
        assert out.left_extra == [] and out.right_extra == []
        assert out.doc_first_sentence == ex.doc_first_sentence

    def test_window_mode_short_extras_used_whole(self):
        ex = example_with_context()
        ex.left_extra = ["just", "three", "tokens"]
        ex.right_extra = ["one"]
        out = build_context(ex, ContextMode.SENTENCE_PLUS_WINDOW50)
        assert out.tokens == ["just", "three", "tokens"] + ex.tokens + ["one"]
        assert out.span == (6, 8)

    def test_first_sentence_mode_prepends_document_opener(self):
        ex = example_with_context()
        out = build_context(ex, ContextMode.SENTENCE_PLUS_FIRST_DOC_SENTENCE)
        assert out.tokens[:7] == ["ATHLETICS", "-", "BERLIN", "GRAND", "PRIX",
                                  "RESULTS", "."]
        assert out.span == (10, 12)
        assert out.tokens[10:12] == ["Lars", "Riedel"]
        assert out.doc_first_sentence == []
        assert out.mention == "Lars Riedel"

    def test_first_sentence_mode_reapplication_is_noop(self):
        ex = example_with_context()
        once = build_context(ex, ContextMode.SENTENCE_PLUS_FIRST_DOC_SENTENCE)
        twice = build_context(once, ContextMode.SENTENCE_PLUS_FIRST_DOC_SENTENCE)
        assert twice == once

    def test_mention_in_first_sentence_marker(self):
        ex = example_with_context()
        ex.doc_first_sentence = []
        out = build_context(ex, ContextMode.SENTENCE_PLUS_FIRST_DOC_SENTENCE)
        assert out.tokens == ex.tokens
        assert out.span == ex.span

    def test_missing_fields_raise_named_errors(self):
        ex = example_with_context()
        ex.left_extra = None
        with pytest.raises(ValueError, match="left_extra"):
            build_context(ex, ContextMode.SENTENCE_PLUS_WINDOW50)
        ex = example_with_context()
        ex.right_extra = None
        with pytest.raises(ValueError, match="right_extra"):
            build_context(ex, ContextMode.SENTENCE_PLUS_WINDOW50)
        ex = example_with_context()
        ex.doc_first_sentence = None
        with pytest.raises(ValueError, match="doc_first_sentence"):
            build_context(ex, ContextMode.SENTENCE_PLUS_FIRST_DOC_SENTENCE)

    def test_accepts_plain_string_mode(self):
        ex = example_with_context()
        out = build_context(ex, "sentence_plus_window50")
        assert out.span == (53, 55)

    @given(st.sampled_from(list(ContextMode)),
           st.lists(st.text(alphabet="abcd", min_size=1, max_size=4),
                    min_size=0, max_size=8))
    def test_mention_surface_always_preserved(self, mode, first_sentence):
        ex = example_with_context()
        ex.doc_first_sentence = list(first_sentence)
        out = build_context(ex, mode)
        assert out.mention == ex.mention
        assert " ".join(out.tokens[out.span[0]:out.span[1]]) == ex.mention


def test_context_mode_values():
    assert ContextMode("sentence_only") is ContextMode.SENTENCE_ONLY
    assert {m.value for m in ContextMode} == {
        "sentence_only", "sentence_plus_window50",
        "sentence_plus_first_doc_sentence"}
    with pytest.raises(ValueError):
        ContextMode("paragraph")
