"""Wikipedia-shaped corpus generator for the text_heavy and link_reuse workloads.

The program under test only ever sees the four files this module writes:
training articles, evaluation articles, a larger prior corpus, and an
entity<TAB>category table, in the formats the typelink README specifies.

Shape of the generated world (all of it follows from the seed):

* Category heads ("Torvanes") and places each own a set of context words,
  so the words around a link tell which heads and which home place the
  linked entity carries.
* Every entity has one primary head and 3-8 raw categories, most of them
  compound phrases with a preposition ("Torvanes in Kelmar", "Belvic
  Torvanes of Daros"), so category expansion has work to do.
* Every surface form names 2-6 entities with skewed link counts, so the
  anchor prior is informative but often wrong; surface forms are drawn
  with a mild Zipf skew across articles.
* Articles have 4-8 sentences of 15-30 tokens with 1-3 links each.
* A small share of links carry the markup glitches the README promises to
  count rather than abort on: unclosed, nested, empty-anchor and glued.
* The prior corpus is larger than the training corpus and adds a long
  tail of rare anchors that never occur in training or evaluation.

Three inputs that abort a whole run of the program are deliberately never
generated: a tab inside a link target, an empty category string, and
model output that saturates ``--scoring-mode logodds`` (the workloads use
the default ``sum`` scoring).  Each of them would fail every run.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

ARTICLE_SEPARATOR = "%%%%"

_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z",
           "br", "dr", "kr", "st", "tr", "th", "sh", "gl")
_VOWELS = ("a", "e", "i", "o", "u", "ae", "ei", "ou")
_CODAS = ("", "", "n", "r", "s", "l", "th", "nd", "rk")
_FUNCTION_WORDS = ("the", "a", "was", "and", "with", "that", "its", "to", "an",
                   "which", "has", "at", "as", "were", "had", "also", "on", "after")
_PREPOSITIONS = ("in", "from", "of", "by", "for")
_GLITCHES = ("unclosed", "nested", "empty_anchor", "glued")


@dataclass(frozen=True)
class CorpusSpec:
    """Sizes of one generated corpus.

    `world_seed` fixes the world (words, heads, entities, categories and
    surface forms) and its evaluation articles; `seed` samples the training
    and prior articles.  Runs with different seeds thus train on different
    text about the same knowledge base and are scored on the same test
    split, so quality metrics vary only through what training saw.
    """

    n_heads: int = 40
    n_places: int = 60
    n_surfaces: int = 700
    n_tail_surfaces: int = 2500
    n_train_articles: int = 300
    n_eval_articles: int = 120
    n_prior_articles: int = 500
    words_per_head: int = 10
    n_filler_words: int = 400
    surface_skew: float = 0.5
    glitch_rate: float = 0.02
    uncategorized_rate: float = 0.02
    world_seed: int = 20200207
    seed: int = 0


@dataclass
class _Entity:
    title: str
    head: int
    place: int
    categories: list


class _World:
    """Vocabulary, entities and surface forms drawn from one seed."""

    def __init__(self, spec: CorpusSpec, rng: random.Random):
        self.spec = spec
        self.rng = rng
        self._used: set = set()
        self.heads = [self._word(3).capitalize() + "s" for _ in range(spec.n_heads)]
        self.head_words = [[self._word(2) for _ in range(spec.words_per_head)]
                           for _ in range(spec.n_heads)]
        self.places = [self._word(2).capitalize() for _ in range(spec.n_places)]
        self.place_words = [[self._word(2) for _ in range(4)] for _ in range(spec.n_places)]
        self.adjectives = [self._word(2).capitalize() + "ic" for _ in range(20)]
        self.filler = [self._word(2) for _ in range(spec.n_filler_words)]
        self.entities: list[_Entity] = []
        self.surfaces: list[tuple[str, list[int], list[float]]] = []
        for _ in range(spec.n_surfaces):
            surface = self._surface()
            k = rng.randint(2, 6)
            heads = rng.sample(range(spec.n_heads), k)
            ids = [self._new_entity(surface, h) for h in heads]
            weights = [1.0 / (j + 1) ** 1.5 for j in range(k)]
            self.surfaces.append((surface, ids, weights))
        self.surface_weights = [1.0 / (i + 1) ** spec.surface_skew
                                for i in range(spec.n_surfaces)]
        self.tail: list[tuple[str, list[int]]] = []
        for _ in range(spec.n_tail_surfaces):
            surface = self._surface()
            k = rng.randint(1, 2)
            self.tail.append((surface, [self._new_entity(surface, rng.randrange(spec.n_heads))
                                        for _ in range(k)]))

    def _word(self, syllables: int) -> str:
        rng = self.rng
        while True:
            w = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
                        for _ in range(syllables))
            if w not in self._used and w not in _FUNCTION_WORDS and w not in _PREPOSITIONS:
                self._used.add(w)
                return w

    def _surface(self) -> str:
        n_tokens = 1 if self.rng.random() < 0.6 else 2
        return " ".join(self._word(2).capitalize() for _ in range(n_tokens))

    def _new_entity(self, surface: str, head: int) -> int:
        rng = self.rng
        title = surface.replace(" ", "_") + f"_({self._word(2).capitalize()})"
        place = rng.randrange(self.spec.n_places)
        cats: list[str] = []
        for _ in range(rng.randint(3, 8)):
            cats.append(self._category(
                head if rng.random() < 0.75 else rng.randrange(self.spec.n_heads),
                place if rng.random() < 0.7 else rng.randrange(self.spec.n_places)))
        if rng.random() < self.spec.uncategorized_rate:
            cats = []
        self.entities.append(_Entity(title, head, place, sorted(set(cats))))
        return len(self.entities) - 1

    def _category(self, head: int, place: int) -> str:
        rng = self.rng
        name, where = self.heads[head], self.places[place]
        form = rng.random()
        if form < 0.35:
            return f"{name} {rng.choice(_PREPOSITIONS)} {where}"
        if form < 0.55:
            return f"{rng.choice(self.adjectives)} {name} of {where}"
        if form < 0.75:
            return f"{name} established in {rng.randint(1500, 2020)}"
        if form < 0.88:
            return f"{name} by {rng.choice(self.adjectives)} {where}"
        return f"{where} {name}"

    def pick_link(self, tail: bool) -> tuple[str, _Entity]:
        rng = self.rng
        if tail:
            surface, ids = rng.choice(self.tail)
            return surface, self.entities[rng.choice(ids)]
        surface, ids, weights = rng.choices(self.surfaces, weights=self.surface_weights)[0]
        return surface, self.entities[rng.choices(ids, weights=weights)[0]]


def _link_markup(rng: random.Random, entity: _Entity, surface: str, glitch: str | None,
                 world: _World) -> str:
    if glitch == "unclosed":
        return f"[[{entity.title}|{surface}"
    if glitch == "nested":
        inner_surface, inner = world.pick_link(tail=False)
        return f"[[{entity.title}|{surface} [[{inner.title}|{inner_surface}]] {rng.choice(world.filler)}]]"
    if glitch == "empty_anchor":
        return f"[[{entity.title}|]]"
    if glitch == "glued":
        return f"{rng.choice(world.filler)}[[{entity.title}|{surface}]]"
    return f"[[{entity.title}|{surface}]]"


def _sentence(world: _World, tail_share: float) -> str:
    """15-30 tokens with 1-3 links, each flanked by cue words of its entity's head and place."""
    rng = world.rng
    n_links = rng.randint(1, 3)
    units: list[list[str]] = []
    for rank in range(n_links):
        surface, entity = world.pick_link(tail=rng.random() < tail_share)
        glitch = None
        if rng.random() < world.spec.glitch_rate:
            glitch = rng.choice(_GLITCHES)
            if glitch == "unclosed" and rank != n_links - 1:
                glitch = "glued"  # an unclosed link swallows the rest of its sentence
        cue = [rng.choice(world.head_words[entity.head]) for _ in range(rng.randint(2, 4))]
        cue.insert(rng.randint(0, len(cue)), rng.choice(world.place_words[entity.place]))
        half = len(cue) // 2
        units.append(cue[:half] + [_link_markup(rng, entity, surface, glitch, world)]
                     + cue[half:])
    n_filler = max(n_links, rng.randint(15, 30) - sum(len(u) for u in units))
    filler = [rng.choice(_FUNCTION_WORDS) if rng.random() < 0.3 else rng.choice(world.filler)
              for _ in range(n_filler)]
    cuts = sorted(rng.sample(range(1, n_filler + 1), n_links))
    tokens: list[str] = []
    prev = 0
    for cut, unit in zip(cuts, units):
        tokens.extend(filler[prev:cut])
        tokens.extend(unit)
        prev = cut
    tokens.extend(filler[prev:])
    return " ".join(tokens) + " ."


def _write_articles(path: str, world: _World, n_articles: int, prefix: str,
                    tail_share: float) -> None:
    rng = world.rng
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n_articles):
            fh.write(f"{prefix}{i:05d}\n")
            for _ in range(rng.randint(4, 8)):
                fh.write(_sentence(world, tail_share) + "\n")
            fh.write(ARTICLE_SEPARATOR + "\n")


def write_corpus(out_dir: str, spec: CorpusSpec) -> dict[str, str]:
    """Write the four corpus files for `spec` into `out_dir`; returns their paths."""
    os.makedirs(out_dir, exist_ok=True)
    world = _World(spec, random.Random(spec.world_seed))
    paths = {
        "train_articles": os.path.join(out_dir, "train_articles.txt"),
        "eval_articles": os.path.join(out_dir, "eval_articles.txt"),
        "prior_articles": os.path.join(out_dir, "prior_articles.txt"),
        "categories": os.path.join(out_dir, "categories.tsv"),
    }
    # The evaluation articles are a fixed test split of the world; the run's
    # seed samples the training and prior articles.
    _write_articles(paths["eval_articles"], world, spec.n_eval_articles, "Eval", 0.0)
    world.rng = random.Random(spec.seed)
    _write_articles(paths["train_articles"], world, spec.n_train_articles, "Train", 0.0)
    _write_articles(paths["prior_articles"], world, spec.n_prior_articles, "Prior", 0.35)
    with open(paths["categories"], "w", encoding="utf-8") as fh:
        for entity in world.entities:
            for cat in entity.categories:
                fh.write(f"{entity.title}\t{cat}\n")
    return paths
