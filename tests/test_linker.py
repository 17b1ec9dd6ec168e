import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from typelink import diagnostics as diag
from typelink.categories import CategoryVocab, expand_category
from typelink.diagnostics import DiagnosticLog
from typelink.linker import (EntityCategoryIndex, build_category_index, link,
                             most_frequent_entity, score_candidates)
from typelink.model import FeatureVector, TypingModel, predict
from typelink.prior import CandidateSet, PriorTable


def make_index(mapping):
    index = EntityCategoryIndex()
    for entity, ids in mapping.items():
        index.put(entity, ids)
    return index


def test_index_ids_are_set_by_put_only():
    with pytest.raises(TypeError):
        EntityCategoryIndex(ids_by_entity={"E": np.array([1, 0, 1])})


def flat_prior(mention, entities, counts=None):
    table = PriorTable()
    for i, entity in enumerate(entities):
        table.add(mention, entity, counts[i] if counts else 1)
    return table


class TestScoreCandidates:
    def test_two_candidate_hand_case(self):
        # posterior mass concentrated on the first candidate's categories
        probs = np.array([0.9, 0.85, 0.3, 0.3])
        index = make_index({"Literal_A": [0, 1], "Literal_B": [2, 3]})
        cands = CandidateSet("m", [("Literal_A", 0.5), ("Literal_B", 0.5)])
        scored = dict(score_candidates(probs, cands, index))
        assert scored["Literal_A"] == 1.75
        assert scored["Literal_B"] == 0.6

    def test_unknown_entity_scores_zero_with_diagnostic(self):
        probs = np.array([0.9])
        index = make_index({"Known": [0]})
        cands = CandidateSet("m", [("Known", 0.6), ("Ghost", 0.4)])
        log = DiagnosticLog()
        scored = dict(score_candidates(probs, cands, index, log=log))
        assert scored["Ghost"] == 0.0
        assert log.counts[diag.CANDIDATE_WITHOUT_CATEGORIES] == 1

    def test_entity_with_empty_category_list_scores_zero_quietly(self):
        probs = np.array([0.9])
        index = make_index({"Empty": []})
        log = DiagnosticLog()
        scored = dict(score_candidates(probs, CandidateSet("m", [("Empty", 1.0)]),
                                       index, log=log))
        assert scored["Empty"] == 0.0
        assert log.total() == 0

    def test_empty_candidate_set_rejected(self):
        with pytest.raises(ValueError):
            score_candidates(np.array([0.5]), CandidateSet("m", []), make_index({}))

    def test_matches_sequential_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(3, 40))
            probs = rng.uniform(0.001, 0.999, size=n)
            ids = sorted(rng.choice(n, size=int(rng.integers(1, n)), replace=False))
            index = make_index({"E": ids})
            expected = 0.0
            for i in ids:
                expected += float(probs[i])
            got = score_candidates(probs, CandidateSet("m", [("E", 1.0)]), index)
            assert got[0][1] == expected

    def test_mean_mode_divides_by_count(self):
        probs = np.array([0.9, 0.85, 0.3, 0.3])
        index = make_index({"A": [0, 1], "B": [1, 2, 3]})
        cands = CandidateSet("m", [("A", 0.5), ("B", 0.5)])
        scored = dict(score_candidates(probs, cands, index, mode="mean"))
        assert scored["A"] == (0.9 + 0.85) / 2
        assert scored["B"] == (0.85 + 0.3 + 0.3) / 3

    def test_logodds_mode_hand_value(self):
        probs = np.array([0.75])
        index = make_index({"A": [0]})
        scored = score_candidates(probs, CandidateSet("m", [("A", 1.0)]), index,
                                  mode="logodds")
        assert scored[0][1] == pytest.approx(math.log(3.0), abs=1e-12)

    def test_logodds_mode_saturated_probability_array_is_finite(self):
        # 1.0 and 0.0 are clipped to the nearest probabilities with finite log-odds.
        index = make_index({"A": [0, 1]})
        scored = score_candidates(np.array([1.0, 0.0]), CandidateSet("m", [("A", 1.0)]),
                                  index, mode="logodds")
        assert scored[0][1] == pytest.approx(53 * math.log(2.0) + math.log(5e-324),
                                             rel=1e-12)

    def test_logodds_mode_scores_saturated_posteriors_by_logit(self):
        # sigmoid(50) and sigmoid(-800) round to exactly 1.0 and 0.0; their
        # log-odds are the logits themselves.
        model = TypingModel.zeros(CategoryVocab(["hi", "lo"]), feature_dim=4)
        model.bias[:] = [50.0, -800.0]
        posterior = predict(model, FeatureVector([], []))
        assert posterior.probs.tolist() == [1.0, 0.0]
        index = make_index({"A": [0], "B": [1], "C": [0, 1]})
        cands = CandidateSet("m", [("A", 0.4), ("B", 0.3), ("C", 0.3)])
        scored = dict(score_candidates(posterior, cands, index, mode="logodds"))
        assert scored == {"A": 50.0, "B": -800.0, "C": -750.0}

    def test_unknown_mode_rejected(self):
        index = make_index({"A": [0]})
        with pytest.raises(ValueError):
            score_candidates(np.array([0.5]), CandidateSet("m", [("A", 1.0)]),
                             index, mode="median")


class TestLink:
    def test_clear_winner_no_backoff(self):
        probs = np.array([0.9, 0.85, 0.3, 0.3])
        index = make_index({"A": [0, 1], "B": [2, 3]})
        cands = CandidateSet("m", [("A", 0.2), ("B", 0.8)])
        pred = link(probs, cands, index, flat_prior("m", ["A", "B"], [2, 8]))
        assert pred.chosen == "A"
        assert pred.used_backoff is False
        assert pred.scores == [("A", 1.75), ("B", 0.6)]

    def test_three_candidates_ranked_descending(self):
        probs = np.array([0.8, 0.7, 0.6, 0.1])
        index = make_index({"A": [0, 1], "B": [1, 2], "C": [2, 3]})
        cands = CandidateSet("m", [("A", 0.3), ("B", 0.3), ("C", 0.4)])
        pred = link(probs, cands, index, flat_prior("m", ["A", "B", "C"]))
        assert [e for e, _ in pred.scores] == ["A", "B", "C"]
        scores = [s for _, s in pred.scores]
        assert scores == sorted(scores, reverse=True)

    def test_sparse_top_candidate_triggers_backoff(self):
        probs = np.array([0.99, 0.2, 0.2])
        index = make_index({"Solo": [0], "Pair": [1, 2]})
        cands = CandidateSet("m", [("Solo", 0.3), ("Pair", 0.7)])
        prior = flat_prior("m", ["Solo", "Pair"], [3, 7])
        pred = link(probs, cands, index, prior)
        assert pred.used_backoff is True
        assert pred.chosen == "Pair"
        # ranking itself still reflects the scores
        assert pred.scores[0][0] == "Solo"

    def test_backoff_threshold_is_configurable(self):
        probs = np.array([0.99, 0.2, 0.2])
        index = make_index({"Solo": [0], "Pair": [1, 2]})
        cands = CandidateSet("m", [("Solo", 0.3), ("Pair", 0.7)])
        prior = flat_prior("m", ["Solo", "Pair"], [3, 7])
        pred = link(probs, cands, index, prior, backoff_min_cats=1)
        assert pred.used_backoff is False
        assert pred.chosen == "Solo"

    def test_identical_category_sets_tie_and_back_off_to_prior(self):
        probs = np.array([0.6, 0.6])
        index = make_index({"First": [0, 1], "Second": [0, 1]})
        cands = CandidateSet("m", [("First", 0.1), ("Second", 0.9)])
        prior = flat_prior("m", ["First", "Second"], [1, 9])
        pred = link(probs, cands, index, prior)
        assert pred.used_backoff is True
        assert pred.chosen == "Second"

    def test_tie_eps_boundary_inclusive(self):
        # exact score gap of 0.25: both candidates carry two categories
        probs = np.array([0.5, 0.25, 0.25, 0.25])
        index = make_index({"High": [0, 1], "Low": [2, 3]})
        cands = CandidateSet("m", [("High", 0.3), ("Low", 0.7)])
        prior = flat_prior("m", ["High", "Low"], [3, 7])
        at_eps = link(probs, cands, index, prior, tie_eps=0.25)
        assert at_eps.used_backoff is True and at_eps.chosen == "Low"
        below = link(probs, cands, index, prior, tie_eps=0.1)
        assert below.used_backoff is False and below.chosen == "High"

    def test_equal_scores_rank_by_prior_then_name(self):
        probs = np.array([0.4, 0.4, 0.4])
        index = make_index({"Zeta": [0], "Alpha": [1], "Mid": [2]})
        cands = CandidateSet("m", [("Zeta", 0.25), ("Alpha", 0.25), ("Mid", 0.5)])
        prior = flat_prior("m", ["Zeta", "Alpha", "Mid"], [1, 1, 2])
        pred = link(probs, cands, index, prior, tie_eps=0.0)
        assert [e for e, _ in pred.scores] == ["Mid", "Alpha", "Zeta"]

    def test_single_candidate_with_enough_categories_wins_outright(self):
        probs = np.array([0.7, 0.7])
        index = make_index({"Only": [0, 1]})
        pred = link(probs, CandidateSet("m", [("Only", 1.0)]), index,
                    flat_prior("m", ["Only"]))
        assert pred.chosen == "Only"
        assert pred.used_backoff is False

    def test_empty_candidate_set_rejected(self):
        with pytest.raises(ValueError):
            link(np.array([0.5]), CandidateSet("m", []), make_index({}),
                 PriorTable())

    def test_candidate_order_does_not_change_outcome(self):
        probs = np.array([0.8, 0.3, 0.55, 0.2])
        index = make_index({"A": [0, 3], "B": [1, 2], "C": [0, 2]})
        prior = flat_prior("m", ["A", "B", "C"], [5, 3, 2])
        orders = [
            [("A", 0.5), ("B", 0.3), ("C", 0.2)],
            [("C", 0.2), ("A", 0.5), ("B", 0.3)],
            [("B", 0.3), ("C", 0.2), ("A", 0.5)],
        ]
        outcomes = {link(probs, CandidateSet("m", order), index, prior).chosen
                    for order in orders}
        assert len(outcomes) == 1

    @pytest.mark.parametrize("setting", [dict(tie_eps=math.nan), dict(tie_eps=-1.0),
                                         dict(tie_eps=math.inf), dict(backoff_min_cats=-5)])
    def test_nonsensical_backoff_settings_rejected(self, setting):
        index = make_index({"A": [0, 1], "B": [2, 3]})
        cands = CandidateSet("m", [("A", 0.2), ("B", 0.8)])
        with pytest.raises(ValueError):
            link(np.array([0.9, 0.85, 0.3, 0.3]), cands, index,
                 flat_prior("m", ["A", "B"]), **setting)

    def test_zero_backoff_settings_accepted(self):
        index = make_index({"A": [0, 1], "B": [2, 3]})
        cands = CandidateSet("m", [("A", 0.2), ("B", 0.8)])
        pred = link(np.array([0.9, 0.85, 0.3, 0.3]), cands, index,
                    flat_prior("m", ["A", "B"]), backoff_min_cats=0, tie_eps=0.0)
        assert (pred.chosen, pred.used_backoff) == ("A", False)


class TestBuildCategoryIndex:
    def test_expansion_and_vocab_filtering(self):
        vocab = CategoryVocab(["Musicians", "American musicians",
                              "Musicians from Chicago", "from Chicago"])
        types = {"Someone": frozenset(expand_category("Musicians from Chicago"))}
        index = build_category_index(types, vocab)
        ids = index.get("Someone").tolist()
        # expanded forms present in the vocabulary, sorted by id
        assert ids == sorted([vocab.index["Musicians"],
                              vocab.index["Musicians from Chicago"],
                              vocab.index["from Chicago"]])

    def test_entity_missing_from_assignments_not_indexed(self):
        vocab = CategoryVocab(["a"])
        index = build_category_index({}, vocab)
        assert index.get("Nobody") is None
        assert index.category_count("Nobody") == 0

    def test_put_sorts_and_dedupes(self):
        index = EntityCategoryIndex()
        index.put("E", [5, 1, 5, 3])
        assert index.get("E").tolist() == [1, 3, 5]
        assert index.category_count("E") == 3


class TestMostFrequentEntity:
    def test_strict_max(self):
        cands = CandidateSet("ant", [("Ant", 0.96), ("Apache_Ant", 0.032),
                                     ("Ant_(comedy)", 0.008)])
        assert most_frequent_entity(cands) == "Ant"

    def test_tie_broken_by_entity_string(self):
        cands = CandidateSet("m", [("Beta", 0.5), ("Alpha", 0.5)])
        assert most_frequent_entity(cands) == "Alpha"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            most_frequent_entity(CandidateSet("m", []))


prob_vectors = st.lists(st.floats(min_value=1e-6, max_value=1.0 - 1e-6,
                                  allow_nan=False), min_size=4, max_size=24)


@st.composite
def vector_and_sets(draw):
    probs = np.asarray(draw(prob_vectors))
    n = len(probs)
    universe = list(range(n))
    a = draw(st.sets(st.sampled_from(universe), min_size=1))
    b_pool = [i for i in universe if i not in a]
    b = draw(st.sets(st.sampled_from(b_pool), min_size=1)) if b_pool else set()
    return probs, sorted(a), sorted(b)


def one_entity_score(probs, ids):
    index = make_index({"E": ids})
    return score_candidates(probs, CandidateSet("m", [("E", 1.0)]), index)[0][1]


@given(vector_and_sets())
@settings(max_examples=200)
def test_disjoint_sets_score_additively(case):
    probs, a, b = case
    if not b:
        return
    combined = one_entity_score(probs, sorted(set(a) | set(b)))
    assert combined == pytest.approx(one_entity_score(probs, a)
                                     + one_entity_score(probs, b), abs=1e-12)


@given(vector_and_sets())
@settings(max_examples=200)
def test_adding_a_category_never_lowers_the_score(case):
    probs, a, b = case
    base = one_entity_score(probs, a)
    grown = list(a)
    for extra in b:
        grown = sorted(set(grown) | {extra})
        new = one_entity_score(probs, grown)
        assert new >= base
        base = new


@given(vector_and_sets(), st.integers(-6, 6))
@settings(max_examples=150)
def test_argmax_invariant_under_power_of_two_scaling(case, exponent):
    probs, a, b = case
    if not b:
        return
    index = make_index({"A": a, "B": b})
    cands = CandidateSet("m", [("A", 0.5), ("B", 0.5)])
    prior = flat_prior("m", ["A", "B"])
    base = link(probs, cands, index, prior, tie_eps=0.0)
    scaled = link(probs * (2.0 ** exponent), cands, index, prior, tie_eps=0.0)
    assert scaled.chosen == base.chosen
    assert scaled.used_backoff == base.used_backoff


ENTITIES = ["Alpha", "Beta", "Gamma", "Delta", "Epsilon"]


@st.composite
def link_cases(draw):
    """A random prior, lookup and posterior; small counts and coarse
    probabilities, so that prior ties and backoff both come up often."""
    table = PriorTable(case_fold=draw(st.booleans()))
    for mention, entity, n in draw(st.lists(st.tuples(
            st.sampled_from(["ant", "Ant", "m"]), st.sampled_from(ENTITIES),
            st.integers(1, 3)), min_size=1, max_size=12)):
        table.add(mention, entity, n)
    n_cats = 4
    index = make_index({entity: draw(st.sets(st.integers(0, n_cats - 1)))
                        for entity in draw(st.sets(st.sampled_from(ENTITIES)))})
    probs = np.asarray(draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                                     min_size=n_cats, max_size=n_cats)))
    return (table, draw(st.sampled_from(["ant", "Ant", "m"])),
            draw(st.sampled_from([0.0, 0.1, 0.3, 0.5, 1.0])), probs, index)


@given(link_cases(), st.integers(0, 3), st.sampled_from([0.0, 1e-9, 0.3]),
       st.sampled_from(["sum", "mean"]))
@settings(max_examples=300)
def test_backoff_chooses_the_most_frequent_entity(case, backoff_min_cats, tie_eps, mode):
    table, mention, threshold, probs, index = case
    cands = table.candidates(mention, threshold)
    if len(cands) == 0:
        return
    pred = link(probs, cands, index, table, backoff_min_cats=backoff_min_cats,
                tie_eps=tie_eps, mode=mode)
    if pred.used_backoff:
        assert pred.chosen == most_frequent_entity(cands)
