import os

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


def test_the_smallest_accepted_spec_writes_its_corpus(tmp_path):
    spec = BenchmarkSpec(n_categories=4, words_per_category=5, distractor_shift=1,
                         n_train_sentences=20, n_test=5)
    paths = write_benchmark(str(tmp_path), spec)
    assert all(os.path.getsize(path) > 0 for path in paths.values())

