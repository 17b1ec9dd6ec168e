import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from typelink.prior import CandidateSet, PriorTable, accumulate, gold_recall


def ant_table():
    pairs = ([("Ant", "Ant")] * 960 + [("Ant", "Apache_Ant")] * 8
             + [("Ant", "Ant_(comedy)")] * 32)
    return accumulate(pairs)


class TestAccumulate:
    def test_motivating_proportions(self):
        table = ant_table()
        assert table.prob("Ant", "Ant") == 0.96
        assert table.prob("Ant", "Apache_Ant") == 0.008

    def test_single_pair_probability_one(self):
        table = accumulate([("m", "E")])
        assert table.prob("m", "E") == 1.0

    def test_unknown_lookups_are_zero(self):
        table = ant_table()
        assert table.prob("Ant", "nope") == 0.0
        assert table.prob("nope", "Ant") == 0.0

    def test_nonpositive_count_rejected(self):
        with pytest.raises(ValueError):
            PriorTable().add("m", "e", 0)


class TestCandidates:
    def test_threshold_clips_rare_entities(self):
        cands = ant_table().candidates("Ant", 0.05)
        assert cands.candidates == [("Ant", 0.96)]

    def test_zero_threshold_keeps_everything(self):
        cands = ant_table().candidates("Ant", 0.0)
        assert cands.entities() == ["Ant", "Ant_(comedy)", "Apache_Ant"]

    def test_threshold_boundary_is_inclusive(self):
        table = accumulate([("m", "A"), ("m", "B")])
        cands = table.candidates("m", 0.5)
        assert cands.entities() == ["A", "B"]

    def test_unknown_mention_gives_empty_set(self):
        assert len(ant_table().candidates("zzz", 0.05)) == 0

    def test_ordering_prob_desc_then_entity_asc(self):
        table = accumulate([("m", "B")] * 2 + [("m", "A")] * 2 + [("m", "C")] * 6)
        assert table.candidates("m", 0.0).entities() == ["C", "A", "B"]

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            ant_table().candidates("Ant", 1.5)


pair_streams = st.lists(
    st.tuples(st.sampled_from(["m1", "m2", "m3"]), st.sampled_from(["A", "B", "C"])),
    max_size=40)


@given(pair_streams, pair_streams)
def test_merge_equals_concatenated_stream(a, b):
    merged = accumulate(a)
    merged.merge(accumulate(b))
    assert merged == accumulate(list(a) + list(b))


def test_merge_into_a_folded_table_folds_the_merged_mentions():
    table = PriorTable(case_fold=True)
    table.merge(accumulate([("Ant", "Ant"), ("Ant", "Ant"), ("ant", "Apache_Ant")]))
    assert table.prob("Ant", "Ant") == 2 / 3
    assert table.candidates("Ant", 0.0).candidates == [("Ant", 2 / 3), ("Apache_Ant", 1 / 3)]


cased_streams = st.lists(
    st.tuples(st.sampled_from(["m", "M", "Ant", "ANT"]), st.sampled_from(["A", "B"])),
    max_size=20)


@given(cased_streams, cased_streams, st.booleans())
def test_merge_into_a_folded_table_equals_its_concatenated_stream(a, b, fold_b):
    merged = accumulate(a, case_fold=True)
    merged.merge(accumulate(b, case_fold=fold_b))
    assert merged == accumulate(list(a) + list(b), case_fold=True)


def test_a_folded_table_is_not_merged_into_an_unfolded_one():
    table = accumulate([("Ant", "Ant")])
    with pytest.raises(ValueError, match="case-folded"):
        table.merge(accumulate([("Ant", "Ant")], case_fold=True))
    assert table == accumulate([("Ant", "Ant")])


@given(pair_streams.filter(len), st.randoms())
def test_accumulate_is_order_independent(stream, rnd):
    shuffled = list(stream)
    rnd.shuffle(shuffled)
    assert accumulate(stream) == accumulate(shuffled)


@given(pair_streams.filter(len))
def test_probabilities_sum_to_one_before_clipping(stream):
    table = accumulate(stream)
    for mention in table.counts:
        total = sum(table.prob(mention, e) for e in table.counts[mention])
        assert abs(total - 1.0) <= 1e-12


@given(pair_streams.filter(len), st.floats(0, 1), st.floats(0, 1))
def test_tighter_threshold_gives_subset(stream, t1, t2):
    lo, hi = sorted((t1, t2))
    table = accumulate(stream)
    for mention in table.counts:
        strict = set(table.candidates(mention, hi).entities())
        loose = set(table.candidates(mention, lo).entities())
        assert strict <= loose


def test_tsv_round_trip(tmp_path):
    table = ant_table()
    table.add("other mention", "E_1", 3)
    path = tmp_path / "prior.tsv"
    table.save(str(path))
    assert PriorTable.load(str(path)) == table


def test_tsv_is_sorted(tmp_path):
    table = accumulate([("b", "Z"), ("a", "Y"), ("a", "X")])
    path = tmp_path / "prior.tsv"
    table.save(str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == ["a\tX\t1", "a\tY\t1", "b\tZ\t1"]


def test_loader_sums_duplicate_lines(tmp_path):
    path = tmp_path / "prior.tsv"
    path.write_text("m\tE\t2\nm\tE\t3\n", encoding="utf-8")
    table = PriorTable.load(str(path))
    assert table.counts["m"]["E"] == 5


def test_loader_rejects_bad_line(tmp_path):
    path = tmp_path / "prior.tsv"
    path.write_text("only two\tfields\n", encoding="utf-8")
    with pytest.raises(ValueError):
        PriorTable.load(str(path))


@pytest.mark.parametrize("count", ["0", "-2", "x", "", "1_0", "\u0663", " 7", "+3"])
def test_loader_names_the_line_of_a_bad_count(tmp_path, count):
    path = tmp_path / "prior.tsv"
    path.write_text(f"m\tE\t2\nm\tF\t{count}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{path}:2: count must be a positive integer, "
                                         f"got '{re.escape(count)}'$"):
        PriorTable.load(str(path))


@pytest.mark.parametrize("field", ["counts", "totals"])
def test_counts_and_totals_are_filled_by_add_only(field):
    with pytest.raises(TypeError):
        PriorTable(**{field: {}})


def test_case_folding_flag():
    table = accumulate([("Paris", "Paris"), ("paris", "Paris_(band)")], case_fold=True)
    assert table.prob("PARIS", "Paris") == 0.5
    plain = accumulate([("Paris", "Paris"), ("paris", "Paris_(band)")])
    assert plain.prob("Paris", "Paris") == 1.0


def test_case_folded_table_round_trips(tmp_path):
    table = accumulate([("Paris", "Paris"), ("paris", "Paris_(band)")], case_fold=True)
    path = tmp_path / "prior.tsv"
    table.save(str(path))
    assert path.read_text(encoding="utf-8").splitlines()[0] == "#case_fold"
    loaded = PriorTable.load(str(path))
    assert loaded == table
    assert loaded.prob("PARIS", "Paris") == 0.5
    assert loaded.candidates("Paris").entities() == ["Paris", "Paris_(band)"]


@pytest.mark.parametrize("text, folded", [("#case_fold\nparis\tParis\t3\n", True),
                                          ("Paris\tParis\t3\n", False)],
                         ids=["case_fold", "plain"])
def test_a_byte_order_mark_is_not_part_of_the_first_line(tmp_path, text, folded):
    path = tmp_path / "prior.tsv"
    path.write_text("\ufeff" + text, encoding="utf-8")
    loaded = PriorTable.load(str(path))
    assert loaded.case_fold is folded
    assert loaded.candidates("Paris").entities() == ["Paris"]


def test_case_fold_line_only_first(tmp_path):
    path = tmp_path / "prior.tsv"
    path.write_text("m\tE\t2\n#case_fold\n", encoding="utf-8")
    with pytest.raises(ValueError):
        PriorTable.load(str(path))


class TestGoldRecall:
    def setset(self, entities):
        return CandidateSet("m", [(e, 1.0 / len(entities)) for e in entities])

    def test_all_hit(self):
        records = [(self.setset(["A", "B"]), "A")] * 4
        assert gold_recall(records) == 1.0

    def test_none_hit(self):
        records = [(self.setset(["A", "B"]), "Z")] * 4
        assert gold_recall(records) == 0.0

    def test_partial(self):
        records = [(self.setset(["A"]), "A")] * 7 + [(self.setset(["A"]), "B")]
        assert gold_recall(records) == 0.875

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            gold_recall([])
