import json
import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

import typelink.ingest
from typelink import diagnostics as diag
from typelink.categories import CategoryVocab, expand_category
from typelink.diagnostics import DiagnosticLog
from typelink.ingest import (CONTEXT_WINDOW, CategoryAssignment, MentionExample, RawArticle,
                             attach_categories, example_from_dict, example_to_dict,
                             extract_examples, iter_articles,
                             load_category_assignments, read_examples,
                             sample_training_set, split_sentences, write_examples)
from typelink.linker import build_category_index


class TestLinkGrammar:
    def test_anchored_link(self):
        art = RawArticle("Apache Ant", ["Install [[Apache Ant|Ant]] to build ."])
        [ex] = extract_examples(art)
        assert (ex.mention, ex.entity, ex.tokens, ex.span) == (
            "Ant", "Apache Ant", ["Install", "Ant", "to", "build", "."], (1, 2))

    def test_bare_link_uses_target_as_mention(self):
        [ex] = extract_examples(RawArticle("X", ["See [[Apache Ant]] docs"]))
        assert (ex.mention, ex.entity, ex.tokens, ex.span) == (
            "Apache Ant", "Apache Ant", ["See", "Apache", "Ant", "docs"], (1, 3))

    def test_no_links_means_no_output(self):
        assert extract_examples(RawArticle("X", ["plain text only"])) == []

    def test_two_links_in_one_sentence(self):
        examples = extract_examples(RawArticle("X", ["[[A]] and [[B|b]]"]))
        assert len(examples) == 2
        assert [ex.mention for ex in examples] == ["A", "b"]
        assert [ex.entity for ex in examples] == ["A", "B"]
        assert examples[0].tokens == examples[1].tokens == ["A", "and", "b"]

    def test_unclosed_link_logged_and_text_kept(self):
        log = DiagnosticLog()
        examples = extract_examples(RawArticle("X", ["broken [[Oops start here"]), log)
        assert examples == []
        assert log.counts[diag.UNCLOSED_LINK] == 1

    def test_empty_target_skipped(self):
        log = DiagnosticLog()
        examples = extract_examples(RawArticle("X", ["a [[|anchor]] b"]), log)
        assert examples == []
        assert log.counts[diag.EMPTY_TARGET] == 1

    def test_empty_anchor_skipped(self):
        log = DiagnosticLog()
        examples = extract_examples(RawArticle("X", ["a [[Target|]] b"]), log)
        assert examples == []
        assert log.counts[diag.EMPTY_ANCHOR] == 1

    def test_nested_open_is_malformed(self):
        log = DiagnosticLog()
        examples = extract_examples(RawArticle("X", ["[[Outer [[Inner]] tail]]"]), log)
        assert [ex.entity for ex in examples] == ["Inner"]
        assert log.counts[diag.MALFORMED_LINK] == 1

    def test_tab_in_target_is_malformed_and_kept_as_text(self):
        # A tab would split the target across columns of the prior TSV.
        log = DiagnosticLog()
        examples = extract_examples(
            RawArticle("X", ["a [[Foo\tBar|foo]] b [[Baz]]", "c [[Qux\tQuux]] d"]), log)
        assert [(ex.entity, ex.tokens) for ex in examples] == [
            ("Baz", ["a", "foo", "b", "Baz"])]
        assert log.counts[diag.MALFORMED_LINK] == 2

    def test_glued_anchor_is_misaligned(self):
        log = DiagnosticLog()
        examples = extract_examples(RawArticle("X", ["pre[[A|a]] b"]), log)
        assert examples == []
        assert log.counts[diag.MISALIGNED_ANCHOR] == 1

    @pytest.mark.parametrize("sentence", ["[[A|a]]post b", "pre [[A|a]]. b"])
    def test_anchor_glued_on_the_right_is_misaligned(self, sentence):
        log = DiagnosticLog()
        assert extract_examples(RawArticle("X", [sentence]), log) == []
        assert log.counts == {diag.MISALIGNED_ANCHOR: 1}

    @pytest.mark.parametrize("sentence, tokens, span, mention", [
        ("x [[A| a ]] y", ["x", "a", "y"], (1, 2), "a"),
        ("x[[A| a ]]y", ["x", "a", "y"], (1, 2), "a"),
        ("x [[A|a\u00a0b]] y", ["x", "a", "b", "y"], (1, 3), "a b"),
        ("x [[A]]", ["x", "A"], (1, 2), "A"),
    ])
    def test_anchor_spans_the_tokens_inside_it(self, sentence, tokens, span, mention):
        [ex] = extract_examples(RawArticle("X", [sentence]))
        assert (ex.tokens, ex.span, ex.mention) == (tokens, span, mention)

    def test_multiword_anchor_span(self):
        [ex] = extract_examples(RawArticle("X", ["the [[NY|New York]] area"]))
        assert (ex.mention, ex.entity, ex.tokens, ex.span) == (
            "New York", "NY", ["the", "New", "York", "area"], (1, 3))

    def test_link_count_conservation(self):
        body = ["[[A]] x [[B|b]] y [[C]] .", "none here", "[[D|dd]] end"]
        assert len(extract_examples(RawArticle("X", body))) == 4


markup_st = st.lists(st.sampled_from(
    ["[[", "]]", "|", " ", "a", "B", ".", "\t", "\x1c", "\u00a0"])).map("".join)


@given(sentences=st.lists(markup_st, max_size=4))
def test_extraction_never_raises_and_keeps_the_example_invariants(sentences):
    for ex in extract_examples(RawArticle("X", sentences)):
        start, end = ex.span
        assert 0 <= start < end <= len(ex.tokens)
        assert ex.mention == " ".join(ex.tokens[start:end])
        assert all(tok.split() == [tok] for tok in ex.tokens)
        assert ex.entity.strip() and "\t" not in ex.entity and ex.categories is None
        assert len(ex.left_extra) <= CONTEXT_WINDOW and len(ex.right_extra) <= CONTEXT_WINDOW


class TestArticleFile:
    def test_separator_and_titles(self, tmp_path):
        path = tmp_path / "articles.txt"
        path.write_text("Title One\nsentence a\nsentence b\n%%%%\n"
                        "Title Two\nonly sentence\n%%%%\n", encoding="utf-8")
        arts = list(iter_articles(str(path)))
        assert [a.title for a in arts] == ["Title One", "Title Two"]
        assert arts[0].sentences == ["sentence a", "sentence b"]

    def test_missing_trailing_separator(self, tmp_path):
        path = tmp_path / "articles.txt"
        path.write_text("T\nbody\n", encoding="utf-8")
        arts = list(iter_articles(str(path)))
        assert len(arts) == 1 and arts[0].sentences == ["body"]

    def test_empty_title_skipped(self, tmp_path):
        path = tmp_path / "articles.txt"
        path.write_text("\nbody\n%%%%\nGood\nbody\n%%%%\n", encoding="utf-8")
        log = DiagnosticLog()
        arts = list(iter_articles(str(path), log=log))
        assert [a.title for a in arts] == ["Good"]
        assert log.counts[diag.EMPTY_TITLE] == 1

    def test_split_mode(self, tmp_path):
        path = tmp_path / "articles.txt"
        path.write_text("T\nFirst one. Second one! Third? Yes.\n%%%%\n",
                        encoding="utf-8")
        arts = list(iter_articles(str(path), split=True))
        assert arts[0].sentences == ["First one.", "Second one!", "Third?", "Yes."]

    def test_split_sentences_helper(self):
        assert split_sentences("A b. C d? E!") == ["A b.", "C d?", "E!"]


class TestContextFields:
    def test_first_sentence_and_window(self):
        art = RawArticle("Doc", ["First sentence here .",
                                 "Then [[E|mention]] appears .",
                                 "And a tail sentence ."])
        ex = extract_examples(art)[0]
        assert ex.doc_first_sentence == ["First", "sentence", "here", "."]
        assert ex.left_extra == ["First", "sentence", "here", "."]
        assert ex.right_extra == ["And", "a", "tail", "sentence", "."]

    def test_example_in_first_sentence_has_empty_marker(self):
        art = RawArticle("Doc", ["[[E|mention]] leads .", "tail ."])
        ex = extract_examples(art)[0]
        assert ex.doc_first_sentence == []
        assert ex.left_extra == []
        assert ex.right_extra == ["tail", "."]

    def test_window_capped_at_fifty(self):
        filler = " ".join(f"w{i}" for i in range(80))
        art = RawArticle("Doc", [filler, "x [[E|m]] y"])
        ex = extract_examples(art)[0]
        assert len(ex.left_extra) == 50
        assert ex.left_extra[-1] == "w79"

    def test_span_validity_for_all_examples(self):
        art = RawArticle("Doc", ["a [[E1|x y]] b [[E2]] c", "[[E3|q]] d"])
        for ex in extract_examples(art):
            start, end = ex.span
            assert 0 <= start < end <= len(ex.tokens)
            assert ex.mention == " ".join(ex.tokens[start:end])


class TestMentionExample:
    def test_invalid_span_rejected(self):
        with pytest.raises(ValueError):
            MentionExample(mention="a", tokens=["a"], span=(0, 2))

    def test_mention_must_match_span_text(self):
        with pytest.raises(ValueError):
            MentionExample(mention="b", tokens=["a"], span=(0, 1))

    def test_categories_require_entity(self):
        with pytest.raises(ValueError):
            MentionExample(mention="a", tokens=["a"], span=(0, 1), categories=["c"])


class TestAttachCategories:
    def example(self, entity="E"):
        return MentionExample(mention="m", tokens=["m"], span=(0, 1), entity=entity)

    def test_identity_category(self):
        vocab = CategoryVocab(["Software"])
        assignments = {"E": CategoryAssignment("E", {"Software"})}
        out = attach_categories([self.example()], assignments, vocab)
        assert out[0].categories == ["Software"]

    def test_expansion_applies(self):
        vocab = CategoryVocab(["Cities", "in New York (state)",
                              "Cities in New York (state)"])
        assignments = {"E": CategoryAssignment("E", {"Cities in New York (state)"})}
        out = attach_categories([self.example()], assignments, vocab)
        assert out[0].categories == ["Cities", "Cities in New York (state)",
                                     "in New York (state)"]

    def test_out_of_vocab_example_dropped(self):
        vocab = CategoryVocab(["Unrelated"])
        assignments = {"E": CategoryAssignment("E", {"Software"})}
        log = DiagnosticLog()
        out = attach_categories([self.example()], assignments, vocab, log=log)
        assert out == []
        assert log.counts[diag.NO_VOCAB_CATEGORIES] == 1

    def test_missing_assignment_dropped_and_counted(self):
        vocab = CategoryVocab(["Software"])
        log = DiagnosticLog()
        out = attach_categories([self.example("Ghost")], {}, vocab, log=log)
        assert out == []
        assert log.counts[diag.ENTITY_WITHOUT_CATEGORIES] == 1

    def test_keep_uncategorized_retains_gold(self):
        vocab = CategoryVocab(["Unrelated"])
        out = attach_categories([self.example("Ghost")], {}, vocab,
                                keep_uncategorized=True)
        assert out[0].entity == "Ghost" and out[0].categories == []


class TestSampling:
    def make(self, n):
        return [MentionExample(mention=f"m{i}", tokens=[f"m{i}"], span=(0, 1))
                for i in range(n)]

    def test_exhaustive_partition(self):
        pool = self.make(100)
        train, dev = sample_training_set(pool, 90, 10, seed=1)
        assert len(train) == 90 and len(dev) == 10
        ids = {ex.mention for ex in train} | {ex.mention for ex in dev}
        assert ids == {ex.mention for ex in pool}

    def test_same_seed_same_split(self):
        pool = self.make(50)
        a = sample_training_set(pool, 30, 10, seed=7)
        b = sample_training_set(pool, 30, 10, seed=7)
        assert [e.mention for e in a[0]] == [e.mention for e in b[0]]
        assert [e.mention for e in a[1]] == [e.mention for e in b[1]]

    def test_different_seeds_differ(self):
        pool = self.make(200)
        a, _ = sample_training_set(pool, 100, 50, seed=1)
        b, _ = sample_training_set(pool, 100, 50, seed=2)
        assert [e.mention for e in a] != [e.mention for e in b]

    def test_oversized_request_names_available_count(self):
        with pytest.raises(ValueError, match="17"):
            sample_training_set(self.make(17), 20, 5, seed=0)


token_st = st.text(alphabet="abcxyz", min_size=1, max_size=5)


@st.composite
def examples_st(draw):
    tokens = draw(st.lists(token_st, min_size=1, max_size=6))
    start = draw(st.integers(0, len(tokens) - 1))
    end = draw(st.integers(start + 1, len(tokens)))
    entity = draw(st.none() | token_st)
    categories = None
    if entity is not None:
        categories = draw(st.none() | st.lists(token_st, max_size=3))
    return MentionExample(
        mention=" ".join(tokens[start:end]), tokens=tokens, span=(start, end),
        entity=entity, categories=categories,
        doc_first_sentence=draw(st.none() | st.lists(token_st, max_size=3)),
        left_extra=draw(st.none() | st.lists(token_st, max_size=3)),
        right_extra=draw(st.none() | st.lists(token_st, max_size=3)))


@given(examples=st.lists(examples_st(), max_size=8))
def test_jsonl_round_trip(examples, tmp_path_factory):
    path = tmp_path_factory.mktemp("rt") / "mentions.jsonl"
    write_examples(str(path), examples)
    assert read_examples(str(path)) == examples


def test_jsonl_key_order(tmp_path):
    ex = MentionExample(mention="m", tokens=["m"], span=(0, 1), entity="E",
                        categories=["c"], doc_first_sentence=[], left_extra=[],
                        right_extra=[])
    path = tmp_path / "one.jsonl"
    write_examples(str(path), [ex])
    raw = json.loads(path.read_text(encoding="utf-8"),
                     object_pairs_hook=lambda pairs: [k for k, _ in pairs])
    assert raw == ["mention", "tokens", "span", "entity", "categories",
                   "doc_first_sentence", "left_extra", "right_extra"]


def test_failed_write_leaves_existing_file_and_no_temp_file(tmp_path):
    path = tmp_path / "mentions.jsonl"
    path.write_text("earlier output\n", encoding="utf-8")

    def rows():
        yield MentionExample(mention="m", tokens=["m"], span=(0, 1))
        raise RuntimeError("source failed mid-stream")

    with pytest.raises(RuntimeError):
        write_examples(str(path), rows())
    assert path.read_text(encoding="utf-8") == "earlier output\n"
    assert [p.name for p in tmp_path.iterdir()] == ["mentions.jsonl"]


def test_written_file_has_the_mode_plain_open_gives(tmp_path):
    plain = tmp_path / "plain.txt"
    with open(plain, "w", encoding="utf-8"):
        pass
    written = tmp_path / "mentions.jsonl"
    write_examples(str(written), [])
    assert os.stat(written).st_mode == os.stat(plain).st_mode


def test_round_trip_via_dict_helpers():
    ex = MentionExample(mention="a b", tokens=["a", "b", "c"], span=(0, 2))
    assert example_from_dict(example_to_dict(ex)) == ex


def test_load_category_assignments(tmp_path):
    path = tmp_path / "cats.tsv"
    path.write_text("E1\tCats\nE1\tDogs\nE2\tCats\n", encoding="utf-8")
    table = load_category_assignments(str(path))
    assert table["E1"].raw_categories == {"Cats", "Dogs"}
    assert table["E2"].raw_categories == {"Cats"}


def test_load_category_assignments_rejects_bad_line(tmp_path):
    path = tmp_path / "cats.tsv"
    path.write_text("no tab here\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_category_assignments(str(path))


def test_load_category_assignments_skips_empty_category(tmp_path):
    path = tmp_path / "cats.tsv"
    path.write_text("E1\tCats\nE1\t\nE2\t\n", encoding="utf-8")
    log = DiagnosticLog()
    table = load_category_assignments(str(path), log)
    assert list(table) == ["E1"]
    assert table["E1"].raw_categories == {"Cats"}
    assert log.counts[diag.EMPTY_CATEGORY] == 2


def test_load_category_assignments_skips_whitespace_only_line(tmp_path):
    path = tmp_path / "cats.tsv"
    path.write_text("A\tThings in Ohio\n \n\t\n", encoding="utf-8")
    log = DiagnosticLog()
    table = load_category_assignments(str(path), log)
    assert list(table) == ["A"]
    assert table["A"].raw_categories == {"Things in Ohio"}
    assert log.total() == 0


def test_load_category_assignments_counts_whitespace_category_as_empty(tmp_path):
    path = tmp_path / "cats.tsv"
    path.write_text("A\tThings\nB\t   \nA\t  \n", encoding="utf-8")
    log = DiagnosticLog()
    table = load_category_assignments(str(path), log)
    assert list(table) == ["A"]
    assert table["A"].raw_categories == {"Things"}
    assert log.counts[diag.EMPTY_CATEGORY] == 2


def test_assignment_categories_are_union_of_expansions():
    raw = {"Cities in New York (state)", "Software", "People from Ohio", "of things"}
    expected = set()
    for category in raw:
        expected.update(expand_category(category))
    assert CategoryAssignment("E", raw).categories == frozenset(expected)


def test_each_entity_expanded_at_most_once_per_call(monkeypatch):
    calls = []

    def counting(raw):
        calls.append(raw)
        return expand_category(raw)

    monkeypatch.setattr(typelink.ingest, "expand_category", counting)
    raw = {"E": {"Cities in Ohio", "Software"}, "F": {"People from Ohio"}}
    vocab = CategoryVocab(["Cities", "Software", "People"])

    def fresh():
        return {e: CategoryAssignment(e, set(cats)) for e, cats in raw.items()}

    examples = [MentionExample(mention="m", tokens=["m"], span=(0, 1), entity=e)
                for e in ("E", "F", "E", "E", "F")]
    attach_categories(examples, fresh(), vocab)
    assert sorted(calls) == sorted(c for cats in raw.values() for c in cats)
    calls.clear()
    index = build_category_index(fresh(), vocab)
    assert calls == []
    for entity in ("E", "F", "E", "F"):
        index.get(entity)
        index.category_count(entity)
    assert sorted(calls) == sorted(c for cats in raw.values() for c in cats)
