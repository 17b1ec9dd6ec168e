import random
import re

from corpus import CorpusSpec, _World, write_corpus
from typelink.ingest import iter_articles

SMALL = dict(n_surfaces=50, n_tail_surfaces=30, n_train_articles=15, n_eval_articles=8,
             n_prior_articles=20, glitch_rate=0.2)


def _read_all(paths):
    return {kind: open(path, encoding="utf-8").read() for kind, path in paths.items()}


def test_same_seed_gives_identical_files(tmp_path):
    first = _read_all(write_corpus(str(tmp_path / "a"), CorpusSpec(seed=7, **SMALL)))
    second = _read_all(write_corpus(str(tmp_path / "b"), CorpusSpec(seed=7, **SMALL)))
    other = _read_all(write_corpus(str(tmp_path / "c"), CorpusSpec(seed=8, **SMALL)))
    assert first == second
    assert first["train_articles"] != other["train_articles"]
    assert first["prior_articles"] != other["prior_articles"]
    # the world and its evaluation split do not depend on the run's seed
    assert first["eval_articles"] == other["eval_articles"]
    assert first["categories"] == other["categories"]


def test_articles_have_the_promised_shape(tmp_path):
    paths = write_corpus(str(tmp_path), CorpusSpec(seed=3, **SMALL))
    articles = list(iter_articles(paths["train_articles"]))
    assert len(articles) == SMALL["n_train_articles"]
    glitched = 0
    for art in articles:
        assert 4 <= len(art.sentences) <= 8
        for sentence in art.sentences:
            opens = sentence.count("[[")
            assert 1 <= opens <= 6  # 1-3 links, a nested glitch adds one inner link each
            glitched += opens != sentence.count("]]") or "|]]" in sentence \
                or re.search(r"\S\[\[", sentence) is not None
            assert "\t" not in sentence
    assert glitched > 0


def test_world_surfaces_and_categories():
    world = _World(CorpusSpec(seed=5, **SMALL), random.Random(5))
    for _surface, ids, weights in world.surfaces:
        assert 2 <= len(ids) <= 6
        assert weights == sorted(weights, reverse=True)
        assert len({world.entities[i].head for i in ids}) == len(ids)
    categorized = [e for e in world.entities if e.categories]
    assert len(categorized) > 0.9 * len(world.entities)
    for entity in categorized:
        assert 1 <= len(entity.categories) <= 8
        assert all(c and "\t" not in c for c in entity.categories)
    with_prep = [c for e in categorized for c in e.categories
                 if re.search(r" (in|from|of|by|for) ", c)]
    assert len(with_prep) > 0.6 * sum(len(e.categories) for e in categorized)
