import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from typelink.evaluation import (ContextMode, EvalReport, build_context, f1_score,
                                 linking_accuracy, typing_metrics)
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


def test_eval_report_to_dict_shape():
    rows, per_cat = typing_metrics([np.array([0.9])], [[0]], ["a"],
                                   with_per_category=True)
    report = EvalReport(linking_accuracy=0.5, gold_recall=None,
                        typing_buckets=rows, per_category=per_cat)
    doc = report.to_dict()
    assert doc["linking_accuracy"] == 0.5
    assert doc["gold_recall"] is None
    assert doc["typing_buckets"][0] == ["1-100", 1.0, 1.0, 1.0, 1]
    assert doc["per_category"] == {"a": [1.0, 1.0, 1.0, 1]}


def example_with_context():
    return MentionExample(
        mention="Lars Riedel",
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
