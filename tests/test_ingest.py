import json
import os
import re
from bisect import bisect_left, bisect_right
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import typelink.categories
import typelink.ingest
from typelink import diagnostics as diag
from typelink.categories import CategoryVocab, expand_category
from typelink.diagnostics import DiagnosticLog
from typelink.evaluation import ContextMode, build_context
from typelink.ingest import (CONTEXT_WINDOW, MentionExample, RawArticle,
                             MENTIONS_HEADER, _parse_sentence, attach_categories, extract_examples, iter_articles,
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


# Markup pieces, and whole links so that any sentence of an article often
# holds an example.
markup_st = st.lists(st.sampled_from(
    ["[[", "]]", "|", " ", "a", "B", ".", "\t", "\x1c", "\u00a0", " [[A|b c]] ", " [[B]] "])
).map("".join)


@given(sentences=st.lists(markup_st, max_size=4))
def test_extraction_never_raises_and_keeps_the_example_invariants(sentences, tmp_path_factory):
    examples = extract_examples(RawArticle("X", sentences))
    for ex in examples:
        start, end = ex.span
        assert 0 <= start < end <= len(ex.tokens)
        assert ex.mention == " ".join(ex.tokens[start:end])
        assert all(tok.split() == [tok] for tok in ex.tokens)
        assert ex.entity.strip() and "\t" not in ex.entity and ex.categories is None
        assert len(ex.left_extra) <= CONTEXT_WINDOW and len(ex.right_extra) <= CONTEXT_WINDOW
    # The mention stays its span's text through a mention file and every context mode.
    path = str(tmp_path_factory.mktemp("extracted") / "m.jsonl")
    write_examples(path, examples)
    read = read_examples(path)
    assert read == examples
    for ex, back in zip(examples, read):
        for context in (back, *(build_context(back, mode) for mode in ContextMode)):
            start, end = context.span
            assert context.mention == " ".join(context.tokens[start:end]) == ex.mention


def reference_parse(sentence, log):
    """The link parser as it was before tokenizing with `str.split`: the same
    markup scan, then a regex tokenizer and binary search over token offsets."""
    parts, linked, pos = [], [], 0
    while pos < len(sentence):
        open_at = sentence.find("[[", pos)
        if open_at < 0:
            parts.append(sentence[pos:])
            break
        parts.append(sentence[pos:open_at])
        close_at = sentence.find("]]", open_at + 2)
        if close_at < 0:
            log.bump(diag.UNCLOSED_LINK)
            parts.append(sentence[open_at + 2:])
            break
        inner_open = sentence.find("[[", open_at + 2, close_at)
        if inner_open >= 0:
            log.bump(diag.MALFORMED_LINK)
            parts.append(sentence[open_at + 2:inner_open])
            pos = inner_open
            continue
        target, bar, anchor = sentence[open_at + 2:close_at].partition("|")
        if not bar:
            anchor = target
        if not target.strip():
            log.bump(diag.EMPTY_TARGET)
            parts.append(anchor)
        elif not anchor.strip():
            log.bump(diag.EMPTY_ANCHOR)
            parts.append(target)
        elif "\t" in target:
            log.bump(diag.MALFORMED_LINK)
            parts.append(anchor)
        else:
            linked.append((target, len(parts)))
            parts.append(anchor)
        pos = close_at + 2
    text = "".join(parts)
    matches = list(re.finditer(r"\S+", text))
    starts = [m.start() for m in matches]
    ends = [m.end() for m in matches]
    offsets = list(accumulate(map(len, parts), initial=0))
    links = []
    for entity, i in linked:
        begin, stop = offsets[i], offsets[i + 1]
        first = bisect_right(ends, begin)
        last = bisect_left(starts, stop) - 1
        if starts[first] < begin or ends[last] > stop:
            log.bump(diag.MISALIGNED_ANCHOR)
            continue
        links.append((entity, first, last + 1))
    return [m.group() for m in matches], links


def assert_parses_like_the_reference(sentence):
    log, reference_log = DiagnosticLog(), DiagnosticLog()
    assert _parse_sentence(sentence, log) == reference_parse(sentence, reference_log)
    assert log.counts == reference_log.counts


# Markup, tabs and ASCII spaces, and characters at the edges of what counts
# as whitespace: \x1c and \x85 do, \u2003 (em space) does, \u200b does not.
fuzz_st = st.lists(st.sampled_from(
    ["[[", "]]", "|", "\t", " ", "\x1c", "\x85", "\u2003", "\u200b", "a", "B"]),
    max_size=40).map("".join)


@settings(max_examples=1000, deadline=None)
@given(sentence=fuzz_st)
def test_parsing_matches_the_regex_and_bisect_reference(sentence):
    assert_parses_like_the_reference(sentence)


def test_a_sentence_of_many_links_parses_like_the_reference():
    # 5,000 links, every third glued to the text before it.
    sentence = " ".join(f"y[[E{i}]] z" if i % 3 == 0 else f"[[E{i}|w{i} x]]"
                        for i in range(5000))
    assert_parses_like_the_reference(sentence)
    log = DiagnosticLog()
    tokens, links = _parse_sentence(sentence, log)
    assert (len(tokens), len(links), log.counts) == (10000, 3333, {diag.MISALIGNED_ANCHOR: 1667})
    assert links[-1] == ("E4999", 9998, 10000)


class TestArticleFile:
    def test_separator_and_titles(self, tmp_path):
        path = tmp_path / "articles.txt"
        path.write_text("Title One\nsentence a\nsentence b\n%%%%\n"
                        "Title Two\nonly sentence\n%%%%\n", encoding="utf-8")
        arts = list(iter_articles(str(path)))
        assert [a.title for a in arts] == ["Title One", "Title Two"]
        assert arts[0].sentences == ["sentence a", "sentence b"]

    def test_a_byte_order_mark_is_not_part_of_the_first_title(self, tmp_path):
        path = tmp_path / "articles.txt"
        path.write_text("\ufeffTitle One\nsentence a\n%%%%\n", encoding="utf-8")
        assert [a.title for a in iter_articles(str(path))] == ["Title One"]

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
            MentionExample(tokens=["a"], span=(0, 2))

    def test_categories_require_entity(self):
        with pytest.raises(ValueError):
            MentionExample(tokens=["a"], span=(0, 1), categories=["c"])


class TestAttachCategories:
    def example(self, entity="E"):
        return MentionExample(tokens=["m"], span=(0, 1), entity=entity)

    def test_identity_category(self):
        vocab = CategoryVocab(["Software"])
        out = attach_categories([self.example()], {"E": frozenset({"Software"})}, vocab)
        assert out[0].categories == ["Software"]

    def test_expansion_applies(self):
        vocab = CategoryVocab(["Cities", "in New York (state)",
                              "Cities in New York (state)"])
        types = {"E": frozenset(expand_category("Cities in New York (state)"))}
        out = attach_categories([self.example()], types, vocab)
        assert out[0].categories == ["Cities", "Cities in New York (state)",
                                     "in New York (state)"]

    def test_out_of_vocab_example_dropped(self):
        vocab = CategoryVocab(["Unrelated"])
        log = DiagnosticLog()
        out = attach_categories([self.example()], {"E": frozenset({"Software"})}, vocab, log=log)
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
        return [MentionExample(tokens=[f"m{i}"], span=(0, 1))
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
        tokens=tokens, span=(start, end), entity=entity, categories=categories,
        doc_first_sentence=draw(st.none() | st.lists(token_st, max_size=3)),
        left_extra=draw(st.none() | st.lists(token_st, max_size=3)),
        right_extra=draw(st.none() | st.lists(token_st, max_size=3)))


@given(examples=st.lists(examples_st(), max_size=8))
def test_jsonl_round_trip(examples, tmp_path_factory):
    path = tmp_path_factory.mktemp("rt") / "mentions.jsonl"
    write_examples(str(path), examples)
    assert read_examples(str(path)) == examples


def test_jsonl_key_order(tmp_path):
    ex = MentionExample(tokens=["m"], span=(0, 1), entity="E", categories=["c"],
                        doc_first_sentence=[], left_extra=[], right_extra=[])
    path = tmp_path / "one.jsonl"
    write_examples(str(path), [ex])
    header, record = [json.loads(line, object_pairs_hook=lambda pairs: [k for k, _ in pairs])
                      for line in path.read_text(encoding="utf-8").splitlines()]
    assert header == ["format", "version"]
    assert record == ["run", "first", "examples"]


def test_failed_write_leaves_existing_file_and_no_temp_file(tmp_path):
    path = tmp_path / "mentions.jsonl"
    path.write_text("earlier output\n", encoding="utf-8")

    def rows():
        yield MentionExample(tokens=["m"], span=(0, 1))
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


GOOD_ROW = {"mention": "aa", "tokens": ["aa", "b"], "span": [0, 1], "entity": "A"}


@pytest.mark.parametrize("line", ['[1, 2]', '"hi"', '5', 'null',
                                  '{"mention": "aa", "tokens": ["aa"], "span": [0]}',
                                  '{"mention": "aa"}', '{"mention": "aa",'])
def test_read_examples_names_the_file_and_line_of_a_malformed_row(tmp_path, line):
    path = tmp_path / "m.jsonl"
    path.write_text(f"{HEADER}\n{GOOD_RECORD}\n\n{line}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{path}:4: "):
        read_examples(str(path))


HEADER = json.dumps(MENTIONS_HEADER, separators=(",", ":"))


@pytest.mark.parametrize("opener", ["[", '{"run":'])
def test_a_line_nested_too_deeply_is_refused_with_its_file_and_line(tmp_path, opener):
    path = tmp_path / "m.jsonl"
    path.write_text(f"{HEADER}\n{opener * 200_000}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{path}:2: JSON nested too deeply$"):
        read_examples(str(path))
GOOD_EXAMPLE = [0, 1, 2, None, 0, 1, "A", ["c"], True]
GOOD_RECORD = json.dumps({"run": ["x", "aa", "b"], "first": ["x"], "examples": [GOOD_EXAMPLE]})


def test_a_record_holds_each_window_as_a_slice_of_its_run(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text(f"{HEADER}\n{GOOD_RECORD}\n", encoding="utf-8")
    assert read_examples(str(path)) == [MentionExample(
        tokens=["aa", "b"], span=(0, 1), entity="A", categories=["c"],
        doc_first_sentence=["x"], left_extra=["x"], right_extra=None)]


def test_examples_of_one_article_share_one_record(tmp_path):
    art = RawArticle("Doc", ["First [[A|a]] here .", "Then [[B|b]] and [[C|c]] .",
                             "tail [[D|d]] ."])
    examples = extract_examples(art)
    path = tmp_path / "m.jsonl"
    write_examples(str(path), examples)
    header, record = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(record)
    assert record["run"] == ["First", "a", "here", ".", "Then", "b", "and", "c", ".",
                             "tail", "d", "."]
    assert record["first"] == ["First", "a", "here", "."]
    assert [row[:4] for row in record["examples"]] == [[0, 0, 4, 8], [0, 4, 5, 3],
                                                       [0, 4, 5, 3], [0, 9, 3, 0]]
    assert read_examples(str(path)) == examples


def test_a_file_with_no_lines_holds_no_examples(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_bytes(b"")
    assert read_examples(str(empty)) == []
    written = tmp_path / "none.jsonl"
    assert write_examples(str(written), []) == 0
    assert written.read_text(encoding="utf-8") == HEADER + "\n"
    assert read_examples(str(written)) == []


@pytest.mark.parametrize("first_line", [
    json.dumps(GOOD_ROW), '{"format":"typelink-mentions","version":3}',
    '{"format":"typelink-mentions"}', '{"version":2}', GOOD_RECORD,
], ids=["old_format", "version_3", "no_version", "no_format", "record_first"])
def test_a_file_without_the_header_is_refused_at_its_first_line(tmp_path, first_line):
    path = tmp_path / "m.jsonl"
    path.write_text(f"{first_line}\n{GOOD_RECORD}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{path}:1: expected the header line "):
        read_examples(str(path))


def _with_example_field(index, value):
    example = list(GOOD_EXAMPLE)
    example[index] = value
    return {"examples": [example]}


@pytest.mark.parametrize("change,message", [
    (_with_example_field(0, 2), "offset and lengths"),
    (_with_example_field(0, -1), "offset and lengths"),
    (_with_example_field(0, 0.0), "offset and lengths"),
    (_with_example_field(1, 3), "offset and lengths"),
    (_with_example_field(1, "1"), "offset and lengths"),
    (_with_example_field(2, None), "offset and lengths"),
    (_with_example_field(2, 0), "invalid span"),
    (_with_example_field(3, 1), "offset and lengths"),
    (_with_example_field(3, False), "offset and lengths"),
    (_with_example_field(4, "0"), "span"),
    (_with_example_field(5, 1.0), "span"),
    (_with_example_field(5, 3), "invalid span"),
    (_with_example_field(6, 5), "entity"),
    (_with_example_field(7, "c"), "categories"),
    (_with_example_field(7, ["c", 1]), "categories"),
    (_with_example_field(8, 1), "first_flag"),
    (_with_example_field(8, "yes"), "first_flag"),
    ({"first": None}, "first_flag"),
    ({"first": "x"}, "first"),
    ({"first": [1]}, "first"),
    ({"run": "x aa b"}, "run"),
    ({"run": ["x", 1, "b"]}, "run"),
    ({"examples": {}}, "examples"),
    ({"examples": [5]}, "9 fields"),
    ({"examples": [GOOD_EXAMPLE[:8]]}, "9 fields"),
    ({"examples": [GOOD_EXAMPLE + [None]]}, "9 fields"),
])
def test_a_malformed_record_is_refused_with_its_file_and_line(tmp_path, change, message):
    path = tmp_path / "m.jsonl"
    record = {**json.loads(GOOD_RECORD), **change}
    path.write_text(f"{HEADER}\n{GOOD_RECORD}\n{json.dumps(record)}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{path}:3: .*{message}"):
        read_examples(str(path))


# Tokens from a tiny alphabet repeat, so a window has several candidate offsets.
article_token_st = st.sampled_from(["a", "b", "é"]) | st.text(
    st.characters(blacklist_categories=("Cs",)), max_size=3)


@st.composite
def article_examples_st(draw):
    """Examples cut from a few articles the way `extract_examples` cuts them,
    with some windows or first sentences null or empty, in article order,
    interleaved or permuted."""
    examples = []
    for tokens in draw(st.lists(st.lists(article_token_st, min_size=1, max_size=30),
                                min_size=1, max_size=3)):
        first = tokens[:draw(st.integers(1, len(tokens)))]
        cuts = []
        for _ in range(draw(st.integers(0, 5))):
            begin = draw(st.integers(0, len(tokens) - 1))
            end = draw(st.integers(begin + 1, len(tokens)))
            start = draw(st.integers(0, end - begin - 1))
            cuts.append((begin, end, start, draw(st.integers(start + 1, end - begin))))
        if draw(st.booleans()):
            cuts.sort()
        for begin, end, start, stop in cuts:
            sentence = tokens[begin:end]
            width = draw(st.integers(0, 8))
            entity = draw(st.none() | article_token_st)
            examples.append(MentionExample(
                tokens=sentence, span=(start, stop), entity=entity,
                categories=None if entity is None else draw(
                    st.none() | st.lists(article_token_st, max_size=3)),
                doc_first_sentence=draw(st.sampled_from([None, [], list(first)])),
                left_extra=draw(st.sampled_from([None, tokens[max(0, begin - width):begin]])),
                right_extra=draw(st.sampled_from([None, tokens[end:end + width]]))))
    if draw(st.booleans()):
        return draw(st.permutations(examples))
    return examples


@settings(max_examples=300)
@given(examples=article_examples_st())
def test_article_examples_round_trip_in_any_order(examples, tmp_path_factory):
    path = tmp_path_factory.mktemp("rt") / "mentions.jsonl"
    assert write_examples(str(path), examples) == len(examples)
    assert read_examples(str(path)) == examples


def test_load_category_assignments(tmp_path):
    path = tmp_path / "cats.tsv"
    path.write_text("E1\tCats\nE1\tDogs\nE2\tCats\n", encoding="utf-8")
    table = load_category_assignments(str(path), {"E1", "E2"})
    assert table == {"E1": frozenset({"Cats", "Dogs"}), "E2": frozenset({"Cats"})}


def test_a_byte_order_mark_is_not_part_of_the_first_entity(tmp_path):
    path = tmp_path / "cats.tsv"
    path.write_text("\ufeffBig_Bang\tCosmology\nE2\tCats\n", encoding="utf-8")
    table = load_category_assignments(str(path), {"Big_Bang", "E2"})
    assert table == {"Big_Bang": frozenset({"Cosmology"}), "E2": frozenset({"Cats"})}


def test_load_category_assignments_rejects_bad_line(tmp_path):
    path = tmp_path / "cats.tsv"
    path.write_text("no tab here\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_category_assignments(str(path), {"no tab here"})


def test_load_category_assignments_skips_empty_category(tmp_path):
    path = tmp_path / "cats.tsv"
    path.write_text("E1\tCats\nE1\t\nE2\t\n", encoding="utf-8")
    log = DiagnosticLog()
    table = load_category_assignments(str(path), {"E1", "E2"}, log)
    assert table == {"E1": frozenset({"Cats"})}
    assert log.counts[diag.EMPTY_CATEGORY] == 2


def test_load_category_assignments_skips_whitespace_only_line(tmp_path):
    path = tmp_path / "cats.tsv"
    path.write_text("A\tThings in Ohio\n \n\t\n", encoding="utf-8")
    log = DiagnosticLog()
    table = load_category_assignments(str(path), {"A", "", " "}, log)
    assert table == {"A": frozenset({"Things in Ohio", "Things", "in Ohio"})}
    assert log.total() == 0


def test_load_category_assignments_counts_whitespace_category_as_empty(tmp_path):
    path = tmp_path / "cats.tsv"
    path.write_text("A\tThings\nB\t   \nA\t  \n", encoding="utf-8")
    log = DiagnosticLog()
    table = load_category_assignments(str(path), {"A", "B"}, log)
    assert table == {"A": frozenset({"Things"})}
    assert log.counts[diag.EMPTY_CATEGORY] == 2


_category_line_st = st.tuples(st.sampled_from(["A", "B", "C", " D"]),
                              st.sampled_from(["Cats", "Dogs in Ohio", "", "  "]))


@given(lines=st.lists(_category_line_st, max_size=12),
       requested=st.sets(st.sampled_from(["A", "B", "C", " D", "E"])))
def test_load_category_assignments_keeps_exactly_the_requested_entities(
        lines, requested, tmp_path_factory):
    path = tmp_path_factory.mktemp("cats") / "cats.tsv"
    path.write_text("".join(f"{e}\t{c}\n" for e, c in lines), encoding="utf-8")
    log = DiagnosticLog()
    table = load_category_assignments(str(path), requested, log)
    expected: dict[str, set[str]] = {}
    for entity, category in lines:
        if entity in requested and category.strip():
            expected.setdefault(entity, set()).update(expand_category(category))
    assert table == expected
    assert log.counts[diag.EMPTY_CATEGORY] == sum(not c.strip() for _, c in lines)


def test_load_category_assignments_checks_the_lines_of_entities_not_asked_for(tmp_path):
    path = tmp_path / "cats.tsv"
    path.write_text("A\tCats\nB\t\n", encoding="utf-8")
    log = DiagnosticLog()
    assert list(load_category_assignments(str(path), {"A"}, log)) == ["A"]
    assert log.counts[diag.EMPTY_CATEGORY] == 1
    path.write_text("A\tCats\nB\t\nB\tDogs\tin Ohio\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{path}:3: expected entity<TAB>category$"):
        load_category_assignments(str(path), {"A"})


def test_load_category_assignments_refuses_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "cats.tsv"
    path.write_bytes(b"A\tCats\nB\tCaf\xe9s\n")
    with pytest.raises(ValueError, match=f"^{path}: not UTF-8 text"):
        load_category_assignments(str(path), {"A"})


def test_load_category_assignments_reads_any_newline(tmp_path):
    path = tmp_path / "cats.tsv"
    path.write_bytes(b"A\tCats\r\nA\tDogs\rB\tBirds\n")
    table = load_category_assignments(str(path), {"A", "B"})
    assert table == {"A": frozenset({"Cats", "Dogs"}), "B": frozenset({"Birds"})}


def counting_expansions(monkeypatch) -> list[str]:
    """The raw categories `expand_category` is called on, wherever it is called."""
    calls: list[str] = []

    def counting(raw):
        calls.append(raw)
        return expand_category(raw)

    monkeypatch.setattr(typelink.ingest, "expand_category", counting)
    monkeypatch.setattr(typelink.categories, "expand_category", counting)
    return calls


def test_the_reader_expands_each_raw_category_of_each_asked_for_entity_once(
        monkeypatch, tmp_path):
    path = tmp_path / "cats.tsv"
    path.write_text("E\tCities in Ohio\nE\tSoftware\nF\tPeople from Ohio\nE\tCities in Ohio\n"
                    "G\tTowns in Ohio\nF\tSoftware\nE\t\n", encoding="utf-8")
    calls = counting_expansions(monkeypatch)
    types = load_category_assignments(str(path), ["E", "F", "E", "H"])
    assert sorted(calls) == ["Cities in Ohio", "People from Ohio", "Software", "Software"]
    assert types == {
        "E": frozenset({"Cities in Ohio", "Cities", "in Ohio", "Software"}),
        "F": frozenset({"People from Ohio", "People", "from Ohio", "Software"}),
    }


def test_attaching_and_indexing_expand_nothing(monkeypatch):
    types = {"E": frozenset(expand_category("Cities in Ohio")), "F": frozenset({"Software"})}
    vocab = CategoryVocab(["Cities", "Software", "in Ohio"])
    calls = counting_expansions(monkeypatch)
    examples = [MentionExample(tokens=["m"], span=(0, 1), entity=e)
                for e in ("E", "F", "E", "Ghost")]
    labeled = attach_categories(examples, types, vocab)
    index = build_category_index(types, vocab)
    assert [ex.categories for ex in labeled] == [["Cities", "in Ohio"], ["Software"],
                                                  ["Cities", "in Ohio"]]
    assert [index.category_count(e) for e in ("E", "F", "Ghost")] == [2, 1, 0]
    assert calls == []
