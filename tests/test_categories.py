import pytest
from hypothesis import given
from hypothesis import strategies as st

from typelink.categories import (DEFAULT_PREPOSITIONS, CategoryVocab, expand_category,
                                 select_vocabulary)

WORDS = ["Cities", "Towns", "People", "Rivers", "1624", "England", "York", "module"]
PREPS = list(DEFAULT_PREPOSITIONS)


class TestExpandCategory:
    def test_city_compound(self):
        got = expand_category("Cities in New York (state)")
        assert set(got) == {"Cities in New York (state)", "Cities", "in New York (state)"}

    def test_multiword_left_side(self):
        got = expand_category("Populated places established in 1624")
        assert set(got) == {"Populated places established in 1624",
                            "Populated", "places", "established", "in 1624"}

    def test_no_preposition_is_identity(self):
        assert expand_category("Software") == ["Software"]

    def test_splits_at_first_preposition_only(self):
        got = expand_category("Towns in counties of England")
        assert set(got) == {"Towns in counties of England", "Towns",
                            "in counties of England"}

    def test_leading_preposition_keeps_original_only(self):
        assert expand_category("in the loop") == ["in the loop"]

    def test_match_is_case_insensitive(self):
        got = expand_category("Births In 1624")
        assert set(got) == {"Births In 1624", "Births", "In 1624"}

    def test_short_left_tokens_are_kept(self):
        got = expand_category("A b of c")
        assert "A" in got and "b" in got

    def test_empty_category_rejected(self):
        with pytest.raises(ValueError):
            expand_category("")

    def test_no_duplicates_in_output(self):
        got = expand_category("Cities Cities in Cities")
        assert len(got) == len(set(got))


@st.composite
def category_strings(draw):
    tokens = draw(st.lists(st.sampled_from(WORDS + PREPS), min_size=1, max_size=6))
    return " ".join(tokens)


@given(category_strings())
def test_expansion_retains_original(raw):
    assert raw in expand_category(raw)


@given(category_strings())
def test_expansion_idempotent_on_preposition_free_members(raw):
    prep_set = set(DEFAULT_PREPOSITIONS)
    for member in expand_category(raw):
        if not any(tok.lower() in prep_set for tok in member.split()):
            assert expand_category(member) == [member]


@given(category_strings())
def test_expansion_deterministic(raw):
    assert expand_category(raw) == expand_category(raw)


class TestSelectVocabulary:
    def test_unique_mention_counting(self):
        stream = [("m1", ["A"]), ("m2", ["A"]), ("m3", ["A"]), ("m1", ["B"])]
        vocab = select_vocabulary(stream, 1)
        assert vocab.entries == ["A"]

    def test_repeats_of_one_mention_count_once(self):
        stream = [("m1", ["A"])] * 100 + [("m2", ["B"])]
        vocab = select_vocabulary(stream, 1)
        # both categories saw exactly one distinct mention; tie broken by string
        assert vocab.entries == ["A"]

    def test_oversized_request_returns_all(self):
        stream = [("m1", ["A", "B"]), ("m2", ["B"])]
        vocab = select_vocabulary(stream, 10)
        assert vocab.entries == ["B", "A"]

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ValueError):
            select_vocabulary([("m", ["A"])], 0)

    def test_rank_order_most_frequent_first(self):
        stream = [(f"m{i}", ["big"]) for i in range(5)]
        stream += [(f"m{i}", ["small"]) for i in range(2)]
        vocab = select_vocabulary(stream, 2)
        assert vocab.entries == ["big", "small"]
        assert vocab.index["big"] == 0


@st.composite
def mention_category_streams(draw):
    n = draw(st.integers(1, 30))
    mentions = [f"m{draw(st.integers(0, 8))}" for _ in range(n)]
    cats = [[f"c{draw(st.integers(0, 5))}"] for _ in range(n)]
    return list(zip(mentions, cats))


@given(mention_category_streams(), st.integers(1, 4), st.integers(1, 4))
def test_vocabulary_prefix_monotonicity(stream, a, b):
    small, large = sorted((a, b))
    v_small = select_vocabulary(stream, small)
    v_large = select_vocabulary(stream, large)
    assert v_large.entries[:len(v_small)] == v_small.entries


@given(mention_category_streams(), st.randoms())
def test_vocabulary_is_order_invariant(stream, rnd):
    shuffled = list(stream)
    rnd.shuffle(shuffled)
    assert select_vocabulary(stream, 3).entries == select_vocabulary(shuffled, 3).entries


def test_vocab_round_trip(tmp_path):
    vocab = CategoryVocab(["B", "A", "c with spaces"])
    path = tmp_path / "vocab.txt"
    vocab.save(str(path))
    loaded = CategoryVocab.load(str(path))
    assert loaded.entries == vocab.entries
    assert loaded.index["A"] == 1
    assert "B" in loaded and "missing" not in loaded


def test_vocab_to_ids_sorted_and_filtered():
    vocab = CategoryVocab(["x", "y", "z"])
    assert vocab.to_ids(["z", "x", "unknown"]) == [0, 2]


def test_vocab_rejects_duplicates():
    with pytest.raises(ValueError):
        CategoryVocab(["a", "a"])


def test_vocab_loader_names_the_repeated_line(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("a\nb\na\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{path}:3: category 'a' repeats line 1$"):
        CategoryVocab.load(str(path))


def test_vocab_loader_refuses_a_blank_line_before_the_last_category(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("a\nb\n\n\n", encoding="utf-8")
    assert CategoryVocab.load(str(path)).entries == ["a", "b"]
    path.write_text("a\n\nb\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{path}:2: empty category$"):
        CategoryVocab.load(str(path))


def test_vocab_index_is_built_from_the_entries_only():
    with pytest.raises(TypeError):
        CategoryVocab(["a", "b"], index={"a": 1, "b": 0})
