import os
import re

import pytest

from typelink.synthetic import BenchmarkSpec, write_benchmark


@pytest.mark.parametrize("n_categories", [0, -4])
def test_fewer_than_two_categories_are_refused(n_categories):
    with pytest.raises(ValueError, match="n_categories"):
        BenchmarkSpec(n_categories=n_categories)


@pytest.mark.parametrize("words", [0, 4])
def test_fewer_words_than_a_sentence_draws_are_refused(words):
    with pytest.raises(ValueError, match="words_per_category"):
        BenchmarkSpec(words_per_category=words)


@pytest.mark.parametrize("words", [27, 37, 64])
def test_more_words_than_letters_are_refused(words):
    # Each word ends in its own letter. Counting on past "z" with chr(97 + j)
    # gives punctuation, DEL and, at j = 36, "\x85", which str.split reads
    # as whitespace.
    with pytest.raises(ValueError, match="words_per_category"):
        BenchmarkSpec(words_per_category=words)


@pytest.mark.parametrize("field", ["n_train_sentences", "n_test"])
@pytest.mark.parametrize("value", [0, -1])
def test_an_empty_train_or_test_set_is_refused(field, value):
    with pytest.raises(ValueError, match=field):
        BenchmarkSpec(**{field: value})


def test_every_context_word_is_one_lowercase_token(tmp_path):
    spec = BenchmarkSpec(n_categories=4, words_per_category=26, distractor_shift=1,
                         n_train_sentences=40, n_test=5)
    paths = write_benchmark(str(tmp_path), spec)
    for kind in ("train_articles", "eval_articles"):
        with open(paths[kind], encoding="utf-8") as fh:
            sentences = [line.split() for line in fh if line.startswith("The [[")]
        words = {w for tokens in sentences for w in tokens[3:-1]}
        assert all(re.fullmatch(r"term\d{2}[a-z]", w) for w in words), sorted(words)
        assert all(tokens[-1] == "." for tokens in sentences)


def test_the_smallest_accepted_spec_writes_its_corpus(tmp_path):
    spec = BenchmarkSpec(n_categories=4, words_per_category=5, distractor_shift=1,
                         n_train_sentences=20, n_test=5)
    paths = write_benchmark(str(tmp_path), spec)
    assert all(os.path.getsize(path) > 0 for path in paths.values())

